"""Tests for motion estimation and compensation."""

import numpy as np
import pytest

from repro.codec.motion import (
    compensate,
    pad_reference,
    reference_dependencies,
)
from repro.codec.reference import MacroblockSearch
from repro.codec.types import MotionVector
from repro.errors import EncoderError


def _textured(seed=0, size=64):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, (size, size)).astype(np.uint8)


class TestPadReference:
    def test_shape(self):
        frame = _textured()
        padded = pad_reference(frame, 8)
        assert padded.shape == (80, 80)

    def test_edge_replication(self):
        frame = _textured()
        padded = pad_reference(frame, 8)
        assert np.all(padded[0, 8:-8] == frame[0])
        assert padded[0, 0] == frame[0, 0]

    def test_rejects_zero_pad(self):
        with pytest.raises(EncoderError):
            pad_reference(_textured(), 0)


class TestMacroblockSearch:
    def test_finds_exact_translation(self):
        reference = _textured(seed=3)
        dy, dx = 3, -5
        current = reference[16 + dy:32 + dy, 16 + dx:32 + dx]
        padded = pad_reference(reference, 8)
        search = MacroblockSearch(current, padded, 8, 16, 16, 8)
        mv, sad = search.best_mv((0, 0, 16, 16), mv_cost_lambda=0.0)
        assert (mv.dy, mv.dx) == (dy, dx)
        assert sad == 0.0

    def test_lambda_biases_to_zero(self):
        """With flat content every displacement ties at SAD 0; the
        penalty must pick the zero vector."""
        reference = np.full((64, 64), 77, dtype=np.uint8)
        current = reference[16:32, 16:32]
        padded = pad_reference(reference, 8)
        search = MacroblockSearch(current, padded, 8, 16, 16, 8)
        mv, _sad = search.best_mv((0, 0, 16, 16), mv_cost_lambda=2.0)
        assert (mv.dy, mv.dx) == (0, 0)

    def test_partition_sads_consistent_with_full(self):
        reference = _textured(seed=4)
        current = _textured(seed=5)[16:32, 16:32]
        padded = pad_reference(reference, 8)
        search = MacroblockSearch(current, padded, 8, 16, 16, 8)
        full = search.sad_grid((0, 0, 16, 16))
        top = search.sad_grid((0, 0, 8, 16))
        bottom = search.sad_grid((8, 0, 8, 16))
        assert np.array_equal(full, top + bottom)

    def test_quadrant_sads_sum(self):
        reference = _textured(seed=6)
        current = _textured(seed=7)[16:32, 16:32]
        padded = pad_reference(reference, 8)
        search = MacroblockSearch(current, padded, 8, 16, 16, 8)
        full = search.sad_grid((0, 0, 16, 16))
        quads = sum(search.sad_grid((oy, ox, 8, 8))
                    for oy in (0, 8) for ox in (0, 8))
        assert np.array_equal(full, quads)

    def test_rejects_insufficient_padding(self):
        reference = _textured()
        padded = pad_reference(reference, 4)
        with pytest.raises(EncoderError):
            MacroblockSearch(reference[:16, :16], padded, 4, 0, 0, 8)


class TestCompensate:
    def test_zero_mv_is_copy(self):
        reference = _textured(seed=8)
        padded = pad_reference(reference, 8)
        block = compensate(padded, 8, 16, 16, (0, 0, 16, 16),
                           MotionVector(0, 0))
        assert np.array_equal(block, reference[16:32, 16:32])

    def test_translation(self):
        reference = _textured(seed=8)
        padded = pad_reference(reference, 8)
        block = compensate(padded, 8, 16, 16, (0, 0, 16, 16),
                           MotionVector(2, -3))
        assert np.array_equal(block, reference[18:34, 13:29])

    def test_garbage_mv_is_clamped(self):
        reference = _textured(seed=8)
        padded = pad_reference(reference, 8)
        block = compensate(padded, 8, 16, 16, (0, 0, 16, 16),
                           MotionVector(10_000, -10_000))
        assert block.shape == (16, 16)  # clamped, no crash

    def test_partition_rect_offsets(self):
        reference = _textured(seed=9)
        padded = pad_reference(reference, 8)
        block = compensate(padded, 8, 16, 16, (8, 0, 8, 16),
                           MotionVector(0, 0))
        assert np.array_equal(block, reference[24:32, 16:32])


class TestReferenceDependencies:
    def test_aligned_block_one_source(self):
        deps = reference_dependencies(2, 16, 16, (0, 0, 16, 16),
                                      MotionVector(0, 0), 64, 64, mb_cols=4)
        assert len(deps) == 1
        assert deps[0].source == (2, 1 * 4 + 1)
        assert deps[0].pixels == 256

    def test_offset_block_four_sources(self):
        deps = reference_dependencies(2, 16, 16, (0, 0, 16, 16),
                                      MotionVector(4, 4), 64, 64, mb_cols=4)
        assert len(deps) == 4
        assert sum(d.pixels for d in deps) == 256
        by_source = {d.source: d.pixels for d in deps}
        assert by_source[(2, 1 * 4 + 1)] == 12 * 12

    def test_out_of_frame_attributed_to_edge(self):
        deps = reference_dependencies(0, 0, 0, (0, 0, 16, 16),
                                      MotionVector(-8, 0), 64, 64, mb_cols=4)
        assert len(deps) == 1
        assert deps[0].source == (0, 0)
        assert deps[0].pixels == 256

    def test_small_partition_pixel_count(self):
        deps = reference_dependencies(1, 0, 0, (0, 0, 4, 4),
                                      MotionVector(0, 0), 64, 64, mb_cols=4)
        assert deps[0].pixels == 16

    def test_total_pixels_invariant(self):
        """Whatever the MV, contributed pixels total the partition area."""
        rng = np.random.default_rng(0)
        for _ in range(20):
            mv = MotionVector(int(rng.integers(-20, 21)),
                              int(rng.integers(-20, 21)))
            rect = (0, 0, 8, 16)
            deps = reference_dependencies(1, 16, 32, rect, mv, 64, 64, 4)
            assert sum(d.pixels for d in deps) == 8 * 16
