"""Bitstream inspection: per-frame coding statistics.

A lightweight parser that walks an encoded video through the syntax
layer only — neighbor state evolves exactly as in the decoder, but no
pixels are reconstructed — and tallies what the encoder actually did:
macroblock modes, intra directions, partition shapes, prediction
directions, motion magnitudes, QPs, and residual density.

Useful for understanding content (why does clip X compress worse?) and
heavily used by tests to assert encoder behaviour without reaching into
its internals.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from .cabac import CabacDecoder
from .cavlc import CavlcDecoder
from .config import EntropyCoder
from .contexts import DEFAULT_CONTEXT_MODEL
from .encoded import EncodedVideo
from .encoder import slice_bands
from .neighbors import FrameMbState
from .syntax import finalize_macroblock, parse_macroblock
from .types import FrameType, MacroblockMode


@dataclass
class FrameStats:
    """Coding statistics of one frame."""

    coded_index: int
    display_index: int
    frame_type: FrameType
    payload_bits: int
    modes: Counter = field(default_factory=Counter)
    intra_modes: Counter = field(default_factory=Counter)
    partition_types: Counter = field(default_factory=Counter)
    directions: Counter = field(default_factory=Counter)
    qp_values: List[int] = field(default_factory=list)
    total_nonzero_coefficients: int = 0
    total_mv_magnitude: int = 0
    inter_partitions: int = 0

    @property
    def macroblocks(self) -> int:
        return sum(self.modes.values())

    @property
    def skip_fraction(self) -> float:
        if not self.macroblocks:
            return 0.0
        return self.modes.get(MacroblockMode.SKIP, 0) / self.macroblocks

    @property
    def intra_fraction(self) -> float:
        if not self.macroblocks:
            return 0.0
        return self.modes.get(MacroblockMode.INTRA, 0) / self.macroblocks

    @property
    def mean_qp(self) -> float:
        return float(np.mean(self.qp_values)) if self.qp_values else 0.0

    @property
    def mean_mv_magnitude(self) -> float:
        if not self.inter_partitions:
            return 0.0
        return self.total_mv_magnitude / self.inter_partitions


@dataclass
class VideoStats:
    """Coding statistics of a whole encoded video."""

    frames: List[FrameStats]

    def bits_by_frame_type(self) -> Dict[FrameType, int]:
        totals: Dict[FrameType, int] = {}
        for frame in self.frames:
            totals[frame.frame_type] = (totals.get(frame.frame_type, 0)
                                        + frame.payload_bits)
        return totals

    def mode_distribution(self) -> Counter:
        combined: Counter = Counter()
        for frame in self.frames:
            combined.update(frame.modes)
        return combined

    @property
    def total_payload_bits(self) -> int:
        return sum(frame.payload_bits for frame in self.frames)


def inspect_video(encoded: EncodedVideo) -> VideoStats:
    """Parse every macroblock of an encoded video and tally statistics.

    Works on clean streams (a corrupted stream parses too, but its
    statistics describe the misinterpretation, not the encoder).
    """
    model = DEFAULT_CONTEXT_MODEL
    header = encoded.header
    mb_rows = header.height // 16
    mb_cols = header.width // 16
    decoder_cls = (CabacDecoder if header.entropy_coder == EntropyCoder.CABAC
                   else CavlcDecoder)
    stats: List[FrameStats] = []
    for frame in encoded.frames:
        fh = frame.header
        frame_stats = FrameStats(
            coded_index=fh.coded_index,
            display_index=fh.display_index,
            frame_type=fh.frame_type,
            payload_bits=frame.payload_bits,
        )
        state = FrameMbState(mb_rows, mb_cols)
        bands = slice_bands(mb_rows, len(fh.slice_byte_lengths))
        offset = 0
        for (start_row, end_row), length in zip(bands,
                                                fh.slice_byte_lengths):
            payload = frame.payload[offset:offset + length]
            offset += length
            entropy = decoder_cls(payload, model.total_contexts)
            state.start_slice(fh.base_qp)
            for mb_row in range(start_row, end_row):
                for mb_col in range(mb_cols):
                    decision, _, levels = parse_macroblock(
                        entropy, model, state, fh.frame_type, mb_row,
                        mb_col, start_row)
                    frame_stats.modes[decision.mode] += 1
                    frame_stats.qp_values.append(decision.qp)
                    if decision.mode == MacroblockMode.INTRA:
                        frame_stats.intra_modes[decision.intra_mode] += 1
                    elif decision.mode == MacroblockMode.INTER:
                        frame_stats.partition_types[
                            decision.partition_type] += 1
                        for partition in decision.partitions:
                            frame_stats.directions[partition.direction] += 1
                            frame_stats.total_mv_magnitude += \
                                partition.mv.magnitude
                            frame_stats.inter_partitions += 1
                    frame_stats.total_nonzero_coefficients += len(levels)
                    finalize_macroblock(state, decision, mb_row, mb_col,
                                        len(levels))
        stats.append(frame_stats)
    return VideoStats(frames=stats)
