"""The decoder's content-keyed frame memo.

A decoder serves a frame from its memo only when the frame's decode
inputs — stream fields, frame header, payload bytes and the keys of its
references — match an earlier decode. These tests pin what that must
never change: every output equals a fresh decoder's, damaged frames and
everything that references them decode afresh (concealment counters
included), handed-out frames are read-only, and the memo never travels
in a pickle or a deep copy.
"""

from __future__ import annotations

import copy
import functools
import os
import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.codec.decoder as decoder_module
from repro.codec import Decoder, EncoderConfig, EntropyCoder
from repro.codec.encoder import Encoder
from repro.obs import metrics as obs_metrics
from repro.video import SceneConfig, synthesize_scene

#: One clip per golden configuration: CABAC P-only, B-frames with
#: slices, CAVLC, and no in-loop filter.
CONFIGS = {
    "cabac_ipp": (SceneConfig(width=48, height=32, num_frames=6, seed=11,
                              num_objects=2),
                  EncoderConfig(crf=24, gop_size=6)),
    "cabac_bframes_slices": (SceneConfig(width=48, height=48, num_frames=7,
                                         seed=23, num_objects=2),
                             EncoderConfig(crf=20, gop_size=7, bframes=2,
                                           slices=2)),
    "cavlc": (SceneConfig(width=48, height=32, num_frames=6, seed=7,
                          num_objects=2),
              EncoderConfig(crf=28, gop_size=3,
                            entropy_coder=EntropyCoder.CAVLC)),
    "cabac_no_deblock": (SceneConfig(width=48, height=32, num_frames=5,
                                     seed=42, num_objects=1),
                         EncoderConfig(crf=16, gop_size=5, deblocking=False,
                                       adaptive_qp=False, search_range=4)),
}


@functools.lru_cache(maxsize=None)
def _encoded(name: str):
    scene, config = CONFIGS[name]
    return Encoder(config).encode(synthesize_scene(scene))


def _flipped(encoded, flips):
    """``encoded`` with ``(position, bit)`` payload bits flipped."""
    payloads = [bytearray(frame.payload) for frame in encoded.frames]
    for position, bit in flips:
        payload = payloads[position]
        bit %= 8 * len(payload)
        payload[bit // 8] ^= 0x80 >> (bit % 8)
    return encoded.with_payloads([bytes(p) for p in payloads])


def _counter(name: str) -> int:
    return obs_metrics.counter(name).value


def _same(a, b) -> bool:
    return len(a) == len(b) and all(
        np.array_equal(x, y) for x, y in zip(a, b))


def _i_frame_position(encoded) -> int:
    return next(i for i, frame in enumerate(encoded.frames)
                if frame.header.frame_type.name == "I")


class TestMemoServesOnlyMatchingInputs:
    def test_rereads_hit_and_match(self):
        encoded = _encoded("cabac_bframes_slices")
        decoder = Decoder()
        first = decoder.decode(encoded)
        hits = _counter("decode_frame_memo_hits_total")
        second = decoder.decode(encoded)
        assert _counter("decode_frame_memo_hits_total") - hits == \
            len(encoded.frames)
        assert _same(first.frames, second.frames)
        assert _same(second.frames, Decoder().decode(encoded).frames)

    def test_changed_reference_decodes_dependents_afresh(self):
        # Only the I frame's payload changes; every other frame keeps
        # its header and payload bytes but now predicts from different
        # pixels, so none of them may come from the memo.
        encoded = _encoded("cabac_ipp")
        decoder = Decoder()
        decoder.decode(encoded)
        damaged = _flipped(encoded, [(_i_frame_position(encoded), 40)])
        misses = _counter("decode_frame_memo_misses_total")
        got = decoder.decode(damaged)
        assert _counter("decode_frame_memo_misses_total") - misses == \
            len(encoded.frames)
        assert _same(got.frames, Decoder().decode(damaged).frames)

    def test_changed_b_frame_leaves_the_rest_memoized(self):
        encoded = _encoded("cabac_bframes_slices")
        b_frames = [i for i, frame in enumerate(encoded.frames)
                    if frame.header.frame_type.name == "B"]
        assert b_frames
        decoder = Decoder()
        decoder.decode(encoded)
        damaged = _flipped(encoded, [(b_frames[0], 17)])
        misses = _counter("decode_frame_memo_misses_total")
        got = decoder.decode(damaged)
        # B frames are never references: exactly one frame re-decodes.
        assert _counter("decode_frame_memo_misses_total") - misses == 1
        assert _same(got.frames, Decoder().decode(damaged).frames)

    def test_decode_range_shares_the_memo(self):
        encoded = _encoded("cabac_bframes_slices")
        decoder = Decoder()
        whole = decoder.decode(encoded)
        hits = _counter("decode_frame_memo_hits_total")
        part = decoder.decode_range(encoded, 2, 5)
        assert _counter("decode_frame_memo_hits_total") > hits
        assert _same(part.frames, whole.frames[2:5])


class TestDamagedFramesNeverMemoized:
    def _damaged(self):
        encoded = _encoded("cabac_ipp")
        position = _i_frame_position(encoded)
        bits = 8 * len(encoded.frames[position].payload)
        damage = {position: [(bits // 3, bits // 3 + 8)]}
        return encoded, damage

    def test_concealment_runs_on_every_decode(self):
        encoded, damage = self._damaged()
        decoder = Decoder(conceal_uncorrectable=True)
        counts = []
        outputs = []
        for _ in range(2):
            before = _counter("decode_concealed_slices_total")
            outputs.append(decoder.decode(encoded, damage))
            counts.append(_counter("decode_concealed_slices_total") - before)
        assert counts[0] > 0
        assert counts == [counts[0]] * 2
        assert _same(outputs[0].frames, outputs[1].frames)

    def test_damage_map_change_is_honoured(self):
        # The same bytes decoded with, then without, a damage map: the
        # concealed I frame (and its dependents) must not be served to
        # the undamaged decode, nor the clean ones to a damaged decode.
        encoded, damage = self._damaged()
        decoder = Decoder(conceal_uncorrectable=True)
        concealed = decoder.decode(encoded, damage)
        plain = decoder.decode(encoded)
        again = decoder.decode(encoded, damage)
        fresh = Decoder(conceal_uncorrectable=True)
        assert _same(concealed.frames, fresh.decode(encoded, damage).frames)
        assert _same(plain.frames, Decoder().decode(encoded).frames)
        assert _same(again.frames, concealed.frames)
        assert not _same(concealed.frames, plain.frames)


class TestHandedOutFramesAreReadOnly:
    def test_frames_cannot_be_written(self):
        encoded = _encoded("cabac_ipp")
        decoder = Decoder()
        frames = decoder.decode(encoded).frames
        frames += decoder.decode_range(encoded, 1, 3).frames
        frames.append(decoder.decode_frame_at(encoded, 4))
        for frame in frames:
            with pytest.raises(ValueError):
                frame[0, 0] = 255 - frame[0, 0]
            with pytest.raises(ValueError):
                frame.flags.writeable = True
        assert _same(decoder.decode(encoded).frames,
                     Decoder().decode(encoded).frames)


class TestMemoNeverTravels:
    def test_pickle_equals_a_fresh_decoder(self):
        encoded = _encoded("cabac_bframes_slices")
        for conceal in (False, True):
            decoder = Decoder(conceal_uncorrectable=conceal)
            decoder.decode(encoded)
            decoder.decode_range(encoded, 1, 4)
            assert len(decoder._memo._entries) > 0
            assert pickle.dumps(decoder) == pickle.dumps(
                Decoder(conceal_uncorrectable=conceal))
            assert sorted(decoder.__getstate__()) == [
                "_model", "conceal_uncorrectable", "max_declared_pixels"]

    def test_copies_start_empty_and_decode_alike(self):
        encoded = _encoded("cavlc")
        decoder = Decoder()
        want = decoder.decode(encoded)
        for clone in (copy.deepcopy(decoder),
                      pickle.loads(pickle.dumps(decoder))):
            assert len(clone._memo._entries) == 0
            assert clone._memo.nbytes == 0
            assert _same(clone.decode(encoded).frames, want.frames)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_starts_with_an_empty_memo_and_a_free_lock():
    decoder = Decoder()
    decoder.decode(_encoded("cabac_ipp"))
    assert decoder._memo._entries
    # As if another thread were inside the memo's bookkeeping at the
    # fork: the child must not inherit the held lock.
    decoder._memo._lock.acquire()
    try:
        pid = os.fork()
        if pid == 0:  # pragma: no cover - runs in the child
            memo = decoder._memo
            ok = (not memo._entries and memo.nbytes == 0
                  and memo._lock.acquire(timeout=5))
            os._exit(0 if ok else 1)
        _, status = os.waitpid(pid, 0)
    finally:
        decoder._memo._lock.release()
    assert os.waitstatus_to_exitcode(status) == 0
    assert decoder._memo._entries


class TestBudget:
    def test_lru_stays_within_budget(self, monkeypatch):
        encoded = _encoded("cabac_ipp")
        frame_bytes = encoded.header.width * encoded.header.height
        monkeypatch.setattr(decoder_module, "_FRAME_MEMO_BYTES",
                            3 * frame_bytes)
        decoder = Decoder()
        evictions = _counter("decode_frame_memo_evictions_total")
        for bit in range(4):
            decoder.decode(_flipped(encoded, [(0, 8 * bit)]))
            memo = decoder._memo
            assert memo.nbytes == sum(
                f.nbytes for f in memo._entries.values())
            assert memo.nbytes <= memo.budget
        assert _counter("decode_frame_memo_evictions_total") > evictions

    def test_frame_larger_than_the_budget_is_not_kept(self, monkeypatch):
        monkeypatch.setattr(decoder_module, "_FRAME_MEMO_BYTES", 100)
        decoder = Decoder()
        encoded = _encoded("cavlc")
        got = decoder.decode(encoded)
        assert len(decoder._memo._entries) == 0
        assert _same(got.frames, Decoder().decode(encoded).frames)


class TestThreads:
    def test_shared_decoder_under_contention(self, monkeypatch):
        # More threads than cores hammer one decoder with a budget small
        # enough to evict constantly; a lost update in the bookkeeping
        # would break the byte accounting, a torn entry the pixels.
        encoded = _encoded("cabac_bframes_slices")
        frame_bytes = encoded.header.width * encoded.header.height
        monkeypatch.setattr(decoder_module, "_FRAME_MEMO_BYTES",
                            5 * frame_bytes)
        variants = [_flipped(encoded, [(position, 8 * k + 3)])
                    for k in range(3)
                    for position in range(len(encoded.frames))][:12]
        variants.append(encoded)
        want = [Decoder().decode(v).frames for v in variants]
        decoder = Decoder()
        threads_n = 4 * max(2, os.cpu_count() or 1)
        errors = []

        def work(seed: int) -> None:
            rng = np.random.default_rng(seed)
            try:
                for _ in range(12):
                    k = int(rng.integers(len(variants)))
                    if rng.random() < 0.5:
                        got = decoder.decode(variants[k]).frames
                        expected = want[k]
                    else:
                        start = int(rng.integers(0, len(want[k]) - 1))
                        got = decoder.decode_range(variants[k], start,
                                                   start + 2).frames
                        expected = want[k][start:start + 2]
                    if not _same(got, expected):
                        errors.append(f"variant {k} differs")
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(repr(exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(seed,))
                       for seed in range(threads_n)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        memo = decoder._memo
        assert memo.nbytes == sum(f.nbytes for f in memo._entries.values())
        assert memo.nbytes <= memo.budget


#: Long-lived decoders shared by every Hypothesis example, so each one
#: meets a memo filled by the examples before it.
_LONG_LIVED = {False: Decoder(), True: Decoder(conceal_uncorrectable=True)}

_ops = st.lists(
    st.tuples(
        st.booleans(),                                   # decode_range?
        st.integers(0, 6), st.integers(1, 7),            # range
        st.lists(st.tuples(st.integers(0, 6),            # flips
                           st.integers(0, 4000)), max_size=3),
        st.lists(st.tuples(st.integers(0, 6),            # damage map
                           st.integers(0, 4000),
                           st.integers(1, 400)), max_size=2),
        st.booleans()),                                  # conceal?
    min_size=1, max_size=5)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(sorted(CONFIGS)), ops=_ops)
def test_long_lived_decoder_equals_fresh_decoder(name, ops):
    encoded = _encoded(name)
    frames = len(encoded.frames)
    for use_range, a, b, flips, ranges, conceal in ops:
        stream = _flipped(encoded, [(p % frames, bit) for p, bit in flips])
        damage = {}
        for position, start, length in ranges:
            position %= frames
            bits = 8 * len(stream.frames[position].payload)
            start %= bits
            damage.setdefault(position, []).append(
                (start, min(bits, start + length)))
        long_lived = _LONG_LIVED[conceal]
        fresh = Decoder(conceal_uncorrectable=conceal)
        if use_range:
            start = min(a, frames - 1)
            stop = min(frames, start + b)
            got = long_lived.decode_range(stream, start, stop, damage)
            want = fresh.decode_range(stream, start, stop, damage)
        else:
            got = long_lived.decode(stream, damage)
            want = fresh.decode(stream, damage)
        assert _same(got.frames, want.frames)
