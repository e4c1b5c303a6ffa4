"""Property-based tests of VideoApp's core invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.codec import Encoder, EncoderConfig
from repro.core import (
    ClassAssignment,
    compute_importance,
    importance_is_scan_monotone,
    merge_streams,
    partition_video,
)
from repro.storage import SCHEME_MENU
from repro.video import SceneConfig, synthesize_scene


@st.composite
def assignments(draw):
    """Random valid class assignments over the scheme menu."""
    menu = sorted(SCHEME_MENU, key=lambda s: s.t)
    count = draw(st.integers(1, 4))
    scheme_indices = sorted(draw(st.lists(
        st.integers(0, len(menu) - 1), min_size=count, max_size=count)))
    boundaries = sorted(draw(st.lists(
        st.integers(0, 30), min_size=count, max_size=count, unique=True)))
    return ClassAssignment(
        boundaries=tuple(boundaries),
        schemes=tuple(menu[i] for i in scheme_indices),
    )


@pytest.fixture(scope="module")
def analyzed():
    video = synthesize_scene(SceneConfig(width=64, height=48, num_frames=8,
                                         seed=21, num_objects=2))
    encoded = Encoder(EncoderConfig(crf=25, gop_size=8)).encode(video)
    importance = compute_importance(encoded.trace)
    return video, encoded, importance


class TestPartitionProperties:
    @given(assignment=assignments())
    @settings(max_examples=20, deadline=None)
    def test_split_merge_identity_any_assignment(self, analyzed,
                                                 assignment):
        """Split + merge is the identity for *every* valid assignment,
        not just the paper's."""
        _video, encoded, importance = analyzed
        protected = partition_video(encoded, importance, assignment)
        assert merge_streams(protected, protected.streams) == \
            encoded.frame_payloads()

    @given(assignment=assignments())
    @settings(max_examples=20, deadline=None)
    def test_stream_bits_conserved(self, analyzed, assignment):
        _video, encoded, importance = analyzed
        protected = partition_video(encoded, importance, assignment)
        assert sum(protected.stream_bits.values()) == encoded.payload_bits

    @given(assignment=assignments(), seed=st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_flip_count_preserved_through_merge(self, analyzed,
                                                assignment, seed):
        """Flipping k stream bits yields exactly k flipped payload bits:
        partitioning is a pure permutation of bit positions."""
        _video, encoded, importance = analyzed
        protected = partition_video(encoded, importance, assignment)
        rng = np.random.default_rng(seed)
        corrupted = {}
        flipped = 0
        for name, data in protected.streams.items():
            buffer = bytearray(data)
            bits = protected.stream_bits[name]
            if bits:
                position = int(rng.integers(0, bits))
                buffer[position // 8] ^= 0x80 >> (position % 8)
                flipped += 1
            corrupted[name] = bytes(buffer)
        merged = merge_streams(protected, corrupted)
        clean = encoded.frame_payloads()
        diff_bits = sum(
            int(np.unpackbits(np.frombuffer(a, dtype=np.uint8)
                              ^ np.frombuffer(b, dtype=np.uint8)).sum())
            for a, b in zip(merged, clean))
        assert diff_bits == flipped


class TestImportanceProperties:
    @pytest.mark.parametrize("seed,bframes,slices", [
        (1, 0, 1), (2, 2, 1), (3, 0, 2), (4, 1, 3),
    ])
    def test_invariants_across_configs(self, seed, bframes, slices):
        video = synthesize_scene(SceneConfig(width=64, height=48,
                                             num_frames=7, seed=seed,
                                             num_objects=2))
        config = EncoderConfig(crf=26, gop_size=7, bframes=bframes,
                               slices=slices)
        encoded = Encoder(config).encode(video)
        importance = compute_importance(encoded.trace)
        # Invariant 1: everything is at least as important as itself.
        assert importance.values.min() >= 1.0 - 1e-9
        # Invariant 2: scan-order monotonicity within slices.
        assert importance_is_scan_monotone(encoded.trace, importance)
        # Invariant 3: compensation weights normalized.
        totals = importance.graph.incoming_compensation_weight()
        predicted = totals[totals > 1e-9]
        assert np.allclose(predicted, 1.0, atol=1e-9)
        # Invariant 4: total >= compensation component.
        assert np.all(importance.values
                      >= importance.compensation - 1e-9)

    def test_importance_conserves_area(self, analyzed):
        """Summing every MB's own area once: total importance equals
        num_MBs plus all propagated area, so it is at least num_MBs."""
        _video, _encoded, importance = analyzed
        num_mbs = importance.values.size
        assert importance.values.sum() >= num_mbs
