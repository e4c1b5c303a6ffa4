"""Shared macroblock prediction and reconstruction.

The encoder's closed reconstruction loop and the decoder both run this
exact code, which is what makes encode/decode lossless with respect to
the encoder's own reconstruction on clean streams — and what propagates
pixel damage through reference frames on corrupted ones (the paper's
"compensation errors").
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..errors import EncoderError
from .intra import predict_intra
from .motion import compensate
from .types import (
    MB_SIZE,
    MacroblockDecision,
    MacroblockMode,
    PredictionDirection,
)

#: Reference set for one frame: direction -> padded reference pixels.
ReferenceSet = Dict[PredictionDirection, np.ndarray]


def build_prediction(decision: MacroblockDecision,
                     reconstructed_frame: np.ndarray,
                     references: ReferenceSet, pad: int,
                     mb_row: int, mb_col: int,
                     min_mb_row: int) -> np.ndarray:
    """Compute the 16x16 prediction for one macroblock."""
    top = mb_row * MB_SIZE
    left = mb_col * MB_SIZE
    if decision.mode == MacroblockMode.INTRA:
        if decision.intra_mode is None:
            raise EncoderError("intra macroblock without an intra mode")
        return predict_intra(reconstructed_frame, mb_row, mb_col,
                             decision.intra_mode, min_mb_row)
    prediction = np.empty((MB_SIZE, MB_SIZE), dtype=np.uint8)
    forward = references.get(PredictionDirection.FORWARD)
    backward = references.get(PredictionDirection.BACKWARD)
    for partition in decision.partitions:
        oy, ox, height, width = partition.rect
        if partition.direction == PredictionDirection.BIDIRECTIONAL \
                and backward is not None and forward is not None \
                and partition.mv_backward is not None:
            block_fwd = compensate(forward, pad, top, left,
                                   partition.rect, partition.mv)
            block_bwd = compensate(backward, pad, top, left,
                                   partition.rect, partition.mv_backward)
            block = ((block_fwd.astype(np.uint16)
                      + block_bwd.astype(np.uint16) + 1) >> 1
                     ).astype(np.uint8)
        else:
            reference = references.get(partition.direction)
            if reference is None:
                # A corrupted stream can request a reference the frame
                # does not have; fall back to the forward one.
                reference = forward if forward is not None else backward
            if reference is None:
                raise EncoderError("no reference frame available")
            block = compensate(reference, pad, top, left, partition.rect,
                               partition.mv)
        prediction[oy:oy + height, ox:ox + width] = block
    return prediction


def reconstruct_macroblock(decision: MacroblockDecision,
                           prediction: np.ndarray,
                           residual: Optional[np.ndarray]) -> np.ndarray:
    """Prediction + dequantized residual, clipped to pixel range."""
    if residual is None or not any(decision.cbp):
        return prediction.copy()
    combined = prediction.astype(np.int32) + residual
    # np.clip's per-call overhead exceeds the arithmetic at 16x16.
    return np.minimum(np.maximum(combined, 0), 255).astype(np.uint8)
