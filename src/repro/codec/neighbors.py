"""Per-frame macroblock state shared by encoder and decoder.

Context-adaptive coding and predictive metadata coding both condition on
the state of already-coded neighboring macroblocks. Encoder and decoder
must maintain this state identically — and this module being their
*single* implementation is what guarantees that. It is also the paper's
error-propagation vehicle: when a corrupted stream makes the decoder's
state diverge, every later context selection and metadata prediction in
the slice diverges with it (Figure 2).

Slices never predict across their boundary: all availability checks take
the slice's first MB row, and the left neighbor stops at column 0.
"""

from __future__ import annotations

from typing import List, Tuple

from .types import MacroblockMode, MotionVector


class FrameMbState:
    """Mutable per-macroblock bookkeeping for one frame.

    Plain Python lists, not numpy arrays: every macroblock does a
    handful of scalar neighbor lookups, and list indexing is several
    times cheaper than numpy scalar indexing at that grain. For the same
    reason the queries index the grids directly instead of building
    neighbor lists or candidate vectors; ``codec/reference.py`` keeps
    the rules in their plain list form and the equivalence tests hold
    the two together.
    """

    #: Sentinel mode for not-yet-coded macroblocks.
    UNSET = -1

    def __init__(self, mb_rows: int, mb_cols: int) -> None:
        self.mb_rows = mb_rows
        self.mb_cols = mb_cols
        self.modes: List[List[int]] = [
            [self.UNSET] * mb_cols for _ in range(mb_rows)]
        self.mvs: List[List[Tuple[int, int]]] = [
            [(0, 0)] * mb_cols for _ in range(mb_rows)]
        self.nnz: List[List[int]] = [
            [0] * mb_cols for _ in range(mb_rows)]
        self.last_dqp_nonzero = False
        self.prev_qp = 0  # seeded with the slice QP at slice start

    # -- recording -------------------------------------------------------

    def record(self, mb_row: int, mb_col: int, mode: MacroblockMode,
               mv: MotionVector, qp: int, dqp: int, nnz: int) -> None:
        """Store the outcome of one coded macroblock."""
        self.modes[mb_row][mb_col] = int(mode)
        self.mvs[mb_row][mb_col] = (mv.dy, mv.dx)
        self.nnz[mb_row][mb_col] = nnz
        self.last_dqp_nonzero = dqp != 0
        self.prev_qp = qp

    def start_slice(self, slice_qp: int) -> None:
        self.prev_qp = slice_qp
        self.last_dqp_nonzero = False

    # -- metadata prediction ----------------------------------------------
    #
    # Every query takes the position of the macroblock being coded, which
    # lies inside its slice: ``min_mb_row <= mb_row < mb_rows`` and
    # ``0 <= mb_col < mb_cols``. Only the neighbors' availability varies.

    def predict_mv(self, mb_row: int, mb_col: int,
                   min_mb_row: int) -> MotionVector:
        """Median motion-vector prediction from neighbors A, B, C.

        A = left, B = above, C = above-right (falling back to above-left
        as H.264 does when C is unavailable). As in H.264: when exactly
        one neighbor is inter-coded its vector is used directly;
        otherwise the component-wise median is taken with intra or
        unavailable neighbors contributing (0, 0).
        """
        a = b = c = None
        if mb_col > 0 and self.modes[mb_row][mb_col - 1] in _MOTION_MODES:
            a = self.mvs[mb_row][mb_col - 1]
        if mb_row > min_mb_row:
            above = mb_row - 1
            modes = self.modes[above]
            mvs = self.mvs[above]
            if modes[mb_col] in _MOTION_MODES:
                b = mvs[mb_col]
            corner = mb_col + 1
            if corner == self.mb_cols or modes[corner] == _UNSET:
                corner = mb_col - 1  # D fallback
            if corner >= 0 and modes[corner] in _MOTION_MODES:
                c = mvs[corner]
        if a is None:
            if b is None:
                if c is None:
                    return _ZERO_MV
                return MotionVector(c[0], c[1])
            if c is None:
                return MotionVector(b[0], b[1])
            a = (0, 0)
        elif b is None:
            if c is None:
                return MotionVector(a[0], a[1])
            b = (0, 0)
        elif c is None:
            c = (0, 0)
        return MotionVector(_median(a[0], b[0], c[0]),
                            _median(a[1], b[1], c[1]))

    # -- context variant selection ------------------------------------------

    def _count_neighbors(self, mb_row: int, mb_col: int, min_mb_row: int,
                         mode: int) -> int:
        """0..2: how many of the A/B neighbors were coded as ``mode``."""
        count = 0
        if mb_col > 0 and self.modes[mb_row][mb_col - 1] == mode:
            count += 1
        if mb_row > min_mb_row and self.modes[mb_row - 1][mb_col] == mode:
            count += 1
        return count

    def skip_context(self, mb_row: int, mb_col: int, min_mb_row: int) -> int:
        """0..2: number of A/B neighbors coded as skip."""
        return self._count_neighbors(mb_row, mb_col, min_mb_row, _SKIP)

    def intra_context(self, mb_row: int, mb_col: int, min_mb_row: int) -> int:
        """0..2: number of A/B neighbors coded as intra."""
        return self._count_neighbors(mb_row, mb_col, min_mb_row, _INTRA)

    def partition_context(self, mb_row: int, mb_col: int,
                          min_mb_row: int) -> int:
        """0..2: number of A/B neighbors coded as (non-skip) inter."""
        return self._count_neighbors(mb_row, mb_col, min_mb_row,
                                     _INTER_CODED)

    def mvd_context(self, mb_row: int, mb_col: int, min_mb_row: int) -> int:
        """0..2: bucket of neighboring motion activity (H.264's ctx rule
        uses neighbor |mvd|; we bucket stored |mv| which adapts the same
        way)."""
        total = 0
        if mb_col > 0 and self.modes[mb_row][mb_col - 1] != _UNSET:
            dy, dx = self.mvs[mb_row][mb_col - 1]
            total += abs(dy) + abs(dx)
        if mb_row > min_mb_row and self.modes[mb_row - 1][mb_col] != _UNSET:
            dy, dx = self.mvs[mb_row - 1][mb_col]
            total += abs(dy) + abs(dx)
        if total < 3:
            return 0
        if total < 32:
            return 1
        return 2

    def dqp_context(self) -> int:
        """0/1: whether the previous MB changed QP."""
        return 1 if self.last_dqp_nonzero else 0

    def nnz_context(self, mb_row: int, mb_col: int, min_mb_row: int) -> int:
        """0..2: bucket of neighboring residual density."""
        total = 0
        if mb_col > 0 and self.modes[mb_row][mb_col - 1] != _UNSET:
            total += self.nnz[mb_row][mb_col - 1]
        if mb_row > min_mb_row and self.modes[mb_row - 1][mb_col] != _UNSET:
            total += self.nnz[mb_row - 1][mb_col]
        if total == 0:
            return 0
        if total < 16:
            return 1
        return 2


def _median(a: int, b: int, c: int) -> int:
    """Middle value of three."""
    if a > b:
        a, b = b, a
    # Now a <= b, and the median is c clamped into [a, b].
    if c < a:
        return a
    if c > b:
        return b
    return c


_UNSET = FrameMbState.UNSET
_SKIP = int(MacroblockMode.SKIP)
_INTER_CODED = int(MacroblockMode.INTER)
_INTRA = int(MacroblockMode.INTRA)
#: Modes that carry a motion vector (skip is predicted inter).
_MOTION_MODES = (_SKIP, _INTER_CODED)
_ZERO_MV = MotionVector(0, 0)
