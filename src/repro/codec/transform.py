"""4x4 integer transform and quantization (H.264-style).

Uses H.264's integer approximation of the DCT for 4x4 blocks. The
forward transform is ``W = Cf X Cf^T`` with the standard integer core
matrix; basis-function norms are folded into the quantizer, and the
exact floating-point inverse is used for reconstruction. The encoder and
decoder share these routines, so their reconstructions are bit-identical
on clean streams.

Quantization follows H.264's step doubling every 6 QP:
``Qstep(QP) = 0.625 * 2^(QP/6)``, QP in 0..51.
"""

from __future__ import annotations

import numpy as np

from ..errors import EncoderError

#: H.264 4x4 forward transform core matrix.
CF = np.array(
    [
        [1, 1, 1, 1],
        [2, 1, -1, -2],
        [1, -1, -1, 1],
        [1, -2, 2, -1],
    ],
    dtype=np.int64,
)

#: Basis norms squared: diag(CF @ CF.T) = (4, 10, 4, 10).
_NORMS = np.sqrt(np.diag(CF @ CF.T).astype(np.float64))

#: Per-position scale dividing raw transform output down to true DCT
#: magnitudes.
SCALE = np.outer(_NORMS, _NORMS)

#: Exact inverse of CF (floating point): CF^-1 = CF.T diag(1/norms^2).
CI = CF.T.astype(np.float64) @ np.diag(1.0 / (_NORMS ** 2))

MIN_QP = 0
MAX_QP = 51


def quant_step(qp: int) -> float:
    """H.264 quantizer step size for a given QP."""
    if not MIN_QP <= qp <= MAX_QP:
        raise EncoderError(f"qp must be in {MIN_QP}..{MAX_QP}, got {qp}")
    return 0.625 * (2.0 ** (qp / 6.0))


#: ``quant_step(qp)`` for every legal QP, indexed by QP: the scalar
#: values themselves, so batched lookups match the scalar path bit for
#: bit.
_QUANT_STEPS = np.array([quant_step(qp) for qp in range(MIN_QP, MAX_QP + 1)],
                        dtype=np.float64)


def blockify(mb: np.ndarray) -> np.ndarray:
    """Split a 16x16 macroblock into 16 4x4 blocks in raster order."""
    if mb.shape != (16, 16):
        raise EncoderError(f"expected 16x16 macroblock, got {mb.shape}")
    return (
        mb.reshape(4, 4, 4, 4).transpose(0, 2, 1, 3).reshape(16, 4, 4)
    )


def deblockify(blocks: np.ndarray) -> np.ndarray:
    """Reassemble 16 4x4 blocks (raster order) into a 16x16 macroblock."""
    if blocks.shape != (16, 4, 4):
        raise EncoderError(f"expected (16, 4, 4) blocks, got {blocks.shape}")
    return (
        blocks.reshape(4, 4, 4, 4).transpose(0, 2, 1, 3).reshape(16, 16)
    )


def forward_transform(blocks: np.ndarray) -> np.ndarray:
    """Integer 4x4 transform of a batch of residual blocks (N, 4, 4)."""
    arr = np.asarray(blocks, dtype=np.int64)
    return np.einsum("ij,njk,lk->nil", CF, arr, CF)


def quantize(coefficients: np.ndarray, qp: int) -> np.ndarray:
    """Quantize raw transform output to integer levels."""
    step = quant_step(qp)
    return np.rint(coefficients / (step * SCALE)).astype(np.int32)


def dequantize(levels: np.ndarray, qp: int) -> np.ndarray:
    """Invert :func:`quantize` up to the quantization error."""
    step = quant_step(qp)
    return levels.astype(np.float64) * step * SCALE


def inverse_transform(coefficients: np.ndarray) -> np.ndarray:
    """Exact inverse of :func:`forward_transform`, rounded to integers."""
    arr = np.asarray(coefficients, dtype=np.float64)
    spatial = np.einsum("ij,njk,lk->nil", CI, arr, CI)
    return np.rint(spatial).astype(np.int32)


def transform_and_quantize(residual_mb: np.ndarray, qp: int) -> np.ndarray:
    """16x16 residual -> (16, 4, 4) quantized levels."""
    return quantize(forward_transform(blockify(residual_mb)), qp)


def reconstruct_residual(levels: np.ndarray, qp: int) -> np.ndarray:
    """(16, 4, 4) quantized levels -> 16x16 reconstructed residual."""
    return deblockify(inverse_transform(dequantize(levels, qp)))


#: Block-diagonal ``kron(I4, CF)``: ``B @ X @ B.T`` applies the forward
#: transform to every 4x4 block of a 16x16 macroblock at once.
_MB_CF = np.kron(np.eye(4), CF.astype(np.float64))


def _check_qps(qps, count: int) -> np.ndarray:
    """Per-MB QPs as an index array, every one inside MIN_QP..MAX_QP."""
    qp_index = np.asarray(qps, dtype=np.intp).reshape(count)
    if count and (qp_index.min() < MIN_QP or qp_index.max() > MAX_QP):
        raise EncoderError(
            f"qp must be in {MIN_QP}..{MAX_QP}, got {qp_index.tolist()}")
    return qp_index


def transform_and_quantize_many(residual_stack: np.ndarray,
                                qps) -> np.ndarray:
    """(M, 16, 16) residuals with per-MB QPs -> (M, 16, 4, 4) levels.

    Bitwise identical to :func:`transform_and_quantize` per macroblock.
    The transform is one float64 ``B @ X @ B.T`` per macroblock with
    ``B = kron(I4, CF)``, then blockified: residuals are at most 255 in
    magnitude and CF's rows at most 6 in absolute sum, so every partial
    sum is an integer of magnitude at most 255 * 6 * 6 = 9,180, exact in
    float64 in any summation order, and the coefficients equal the
    integer einsum's. Each QP's divisor is the same ``step * SCALE``
    float64 product the scalar path divides by.
    """
    stack = np.asarray(residual_stack)
    count = stack.shape[0]
    qp_index = _check_qps(qps, count)
    transformed = _MB_CF @ stack.astype(np.float64) @ _MB_CF.T
    coefficients = (
        transformed.reshape(count, 4, 4, 4, 4)
        .transpose(0, 1, 3, 2, 4)
        .reshape(count, 16, 4, 4)
    )
    divisors = _QUANT_STEPS[qp_index][:, None, None, None] * SCALE
    return np.rint(coefficients / divisors).astype(np.int32)


def reconstruct_residuals_many(levels_stack: np.ndarray,
                               qps) -> np.ndarray:
    """(M, 16, 4, 4) levels with per-MB QPs -> (M, 16, 16) residuals.

    Bitwise identical to :func:`reconstruct_residual` per macroblock:
    steps are the scalar :func:`quant_step` values (not a vectorized
    power, which could differ in the last ulp), the per-element multiply
    order matches :func:`dequantize`, and the inverse einsum's reduction
    order is independent of batch size.

    Only nonzero 4x4 blocks go through the einsum: a zero block
    dequantizes and transforms to exactly 0, and most blocks of a
    typical stack are zero.
    """
    stack = np.asarray(levels_stack)
    count = stack.shape[0]
    qp_index = _check_qps(qps, count)
    levels = stack.reshape(count * 16, 4, 4)
    coded = np.flatnonzero(levels.reshape(count * 16, 16).any(axis=1))
    blocks = np.zeros((count * 16, 4, 4), dtype=np.int32)
    if coded.size:
        steps = _QUANT_STEPS[qp_index[coded // 16]]
        blocks[coded] = inverse_transform(
            levels[coded].astype(np.float64) * steps[:, None, None]
            * SCALE)
    return (
        blocks.reshape(count, 4, 4, 4, 4)
        .transpose(0, 1, 3, 2, 4)
        .reshape(count, 16, 16)
    )


#: Zigzag scan order for a 4x4 block (H.264).
ZIGZAG_4x4 = (
    (0, 0), (0, 1), (1, 0), (2, 0),
    (1, 1), (0, 2), (0, 3), (1, 2),
    (2, 1), (3, 0), (3, 1), (2, 2),
    (1, 3), (2, 3), (3, 2), (3, 3),
)

#: Flat (row-major) index of each zigzag position: scanning a raveled
#: 4x4 block with this array yields the zigzag order in one gather.
ZIGZAG_FLAT_INDEX = np.array([4 * r + c for r, c in ZIGZAG_4x4],
                             dtype=np.intp)

#: Inverse permutation: zigzag vector -> row-major flat positions.
ZIGZAG_FLAT_INVERSE = np.argsort(ZIGZAG_FLAT_INDEX)


def zigzag_flatten(block: np.ndarray) -> np.ndarray:
    """4x4 block -> length-16 vector in zigzag order."""
    return np.asarray(block).reshape(16)[ZIGZAG_FLAT_INDEX]


def zigzag_unflatten(vector: np.ndarray) -> np.ndarray:
    """Length-16 zigzag vector -> 4x4 block."""
    vector = np.asarray(vector)
    return vector[:16][ZIGZAG_FLAT_INVERSE].reshape(4, 4)
