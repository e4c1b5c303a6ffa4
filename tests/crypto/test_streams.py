"""Tests for multi-stream encryption."""

import copy
import os
import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import AES128, CTR, OFB, StreamEncryptor, derive_stream_iv
from repro.crypto.streams import _KEYSTREAM_MEMO_BYTES, _iv_source
from repro.errors import CryptoError
from repro.obs import metrics as obs_metrics

KEY = bytes(range(16))
MASTER_IV = bytes(range(50, 66))


def _reference(stream_id: int, master_iv: bytes = MASTER_IV) -> CTR:
    """A fresh, memo-free CTR mode under the stream's derived IV."""
    return CTR(KEY, derive_stream_iv(master_iv, stream_id, KEY))


def _counter(name: str) -> int:
    return obs_metrics.counter(f"crypto_keystream_memo_{name}_total").value


def _entries(encryptor: StreamEncryptor) -> dict:
    """stream id -> (IV, keystream prefix) of every memoized stream
    among ids 0..99."""
    by_source = encryptor._memo._entries
    return {stream_id: by_source[_iv_source(MASTER_IV, stream_id)]
            for stream_id in range(100)
            if _iv_source(MASTER_IV, stream_id) in by_source}


def _assert_consistent(encryptor: StreamEncryptor) -> None:
    """The memo's byte count is its prefixes' total, within budget."""
    memo = encryptor._memo
    with memo._lock:
        assert memo.nbytes == sum(
            len(prefix) for _, prefix in memo._entries.values())
        assert memo.nbytes <= memo.budget


class TestIvDerivation:
    def test_deterministic(self):
        assert derive_stream_iv(MASTER_IV, 3, KEY) == \
            derive_stream_iv(MASTER_IV, 3, KEY)

    def test_streams_get_distinct_ivs(self):
        ivs = {derive_stream_iv(MASTER_IV, i, KEY) for i in range(8)}
        assert len(ivs) == 8

    def test_master_iv_matters(self):
        assert derive_stream_iv(MASTER_IV, 0, KEY) != \
            derive_stream_iv(bytes(16), 0, KEY)

    def test_rejects_bad_inputs(self):
        with pytest.raises(CryptoError):
            derive_stream_iv(b"short", 0, KEY)
        with pytest.raises(CryptoError):
            derive_stream_iv(MASTER_IV, -1, KEY)


class TestStreamEncryptor:
    def test_roundtrip(self):
        encryptor = StreamEncryptor(key=KEY, master_iv=MASTER_IV)
        streams = {0: b"stream zero", 1: b"stream one!", 5: bytes(100)}
        encrypted = encryptor.encrypt_streams(streams)
        assert encryptor.decrypt_streams(encrypted) == streams

    def test_sizes_preserved(self):
        encryptor = StreamEncryptor(key=KEY, master_iv=MASTER_IV)
        streams = {0: bytes(37)}
        encrypted = encryptor.encrypt_streams(streams)
        assert len(encrypted[0]) == 37

    def test_ciphertext_actually_differs(self):
        encryptor = StreamEncryptor(key=KEY, master_iv=MASTER_IV)
        encrypted = encryptor.encrypt_streams({0: bytes(64)})
        assert encrypted[0] != bytes(64)

    def test_same_plaintext_different_streams_differ(self):
        """Per-stream IV derivation: identical stream contents must not
        encrypt identically (requirement 1 across streams)."""
        encryptor = StreamEncryptor(key=KEY, master_iv=MASTER_IV)
        encrypted = encryptor.encrypt_streams({0: bytes(64), 1: bytes(64)})
        assert encrypted[0] != encrypted[1]

    def test_short_and_empty_streams_roundtrip(self):
        encryptor = StreamEncryptor(key=KEY, master_iv=MASTER_IV)
        streams = {0: b"alpha", 1: b"beta", 2: b""}
        encrypted = encryptor.encrypt_streams(streams)
        assert [len(encrypted[i]) for i in range(3)] == [5, 4, 0]
        assert encryptor.decrypt_streams(encrypted) == streams

    def test_ofb_supported(self):
        encryptor = StreamEncryptor(key=KEY, master_iv=MASTER_IV, mode="ofb")
        streams = {0: b"hello world"}
        assert encryptor.decrypt_streams(
            encryptor.encrypt_streams(streams)) == streams

    def test_incompatible_mode_rejected(self):
        with pytest.raises(CryptoError):
            StreamEncryptor(key=KEY, master_iv=MASTER_IV, mode="CBC")

    def test_bad_key_sizes_rejected(self):
        with pytest.raises(CryptoError):
            StreamEncryptor(key=b"short", master_iv=MASTER_IV)
        with pytest.raises(CryptoError):
            StreamEncryptor(key=KEY, master_iv=b"short")

    def test_single_bit_flip_transparency(self):
        """Flipping a ciphertext bit flips exactly that plaintext bit:
        the property that lets approximate storage hold ciphertext."""
        encryptor = StreamEncryptor(key=KEY, master_iv=MASTER_IV)
        plaintext = bytes(128)
        encrypted = encryptor.encrypt_streams({0: plaintext})
        corrupted = bytearray(encrypted[0])
        corrupted[10] ^= 0x04
        decrypted = encryptor.decrypt_streams({0: bytes(corrupted)})[0]
        diff = sum(bin(a ^ b).count("1")
                   for a, b in zip(decrypted, plaintext))
        assert diff == 1


class TestRandomAccessStreams:
    def test_decrypt_at_matches_the_slice(self):
        encryptor = StreamEncryptor(key=KEY, master_iv=MASTER_IV)
        plaintext = bytes(range(256)) * 2
        ciphertext = encryptor.encrypt_streams({2: plaintext})[2]
        for start, end in ((0, 64), (17, 93), (500, 512)):
            assert encryptor.decrypt_at(2, ciphertext[start:end],
                                        start) == plaintext[start:end]

    def test_streams_keep_distinct_offset_keystreams(self):
        encryptor = StreamEncryptor(key=KEY, master_iv=MASTER_IV)
        plaintext = bytes(64)
        encrypted = encryptor.encrypt_streams({0: plaintext, 1: plaintext})
        # Same window, same plaintext, different stream: different bytes.
        assert encryptor.decrypt_at(0, encrypted[1][16:32], 16) != plaintext[16:32]


class TestSharedCipher:
    """The encryptor expands its key once and reuses that cipher for
    every stream's IV and mode; output must not change."""

    STREAMS = {0: bytes(range(256)) * 8, 1: b"x" * 33, 3: b"",
               5: bytes(720), 9: bytes(range(112))}

    @pytest.mark.parametrize("mode, mode_class", [("CTR", CTR),
                                                  ("OFB", OFB)])
    def test_matches_a_fresh_mode_per_stream(self, mode, mode_class):
        encryptor = StreamEncryptor(key=KEY, master_iv=MASTER_IV,
                                    mode=mode)
        encrypted = encryptor.encrypt_streams(self.STREAMS)
        for stream_id, data in self.STREAMS.items():
            reference = mode_class(
                KEY, derive_stream_iv(MASTER_IV, stream_id, KEY))
            assert encrypted[stream_id] == reference.encrypt(data)
        assert encryptor.decrypt_streams(encrypted) == self.STREAMS

    def test_decrypt_at_matches_a_fresh_ctr(self):
        encryptor = StreamEncryptor(key=KEY, master_iv=MASTER_IV)
        encrypted = encryptor.encrypt_streams(self.STREAMS)
        for stream_id in (0, 5):
            reference = CTR(KEY, derive_stream_iv(MASTER_IV, stream_id, KEY))
            window = encrypted[stream_id][100:600]
            assert encryptor.decrypt_at(stream_id, window, 100) == \
                reference.decrypt_range(window, 100)


class TestModeMemo:
    """Each stream's IV and keystream are derived once per encryptor and
    kept in its keystream memo (which replaced a memo of one CTR mode
    object per stream); the memo changes no output and never travels
    in a pickle or copy."""

    STREAMS = TestSharedCipher.STREAMS

    def test_memo_holds_one_mode_per_stream_and_changes_nothing(self):
        encryptor = StreamEncryptor(key=KEY, master_iv=MASTER_IV)
        encrypted = encryptor.encrypt_streams(self.STREAMS)
        entries = _entries(encryptor)
        # The empty stream derives nothing; every other stream keeps
        # its IV and the keystream blocks its bytes used.
        assert sorted(entries) == [0, 1, 5, 9]
        for stream_id, (iv, prefix) in entries.items():
            size = len(self.STREAMS[stream_id])
            assert iv == derive_stream_iv(MASTER_IV, stream_id, KEY)
            assert len(prefix) == -(-size // 16) * 16
            assert not prefix.flags.writeable
            assert prefix.tobytes() == _reference(stream_id).encrypt(
                bytes(len(prefix)))
        hits, misses = _counter("hits"), _counter("misses")
        for _ in range(2):
            assert encryptor.decrypt_streams(encrypted) == self.STREAMS
            assert encryptor.decrypt_at(0, encrypted[0][40:90], 40) == \
                self.STREAMS[0][40:90]
        assert _counter("misses") == misses
        assert _counter("hits") == hits + 2 * (len(entries) + 1)
        assert all(_entries(encryptor)[stream_id] is entry
                   for stream_id, entry in entries.items())

    def test_memo_is_keyed_by_the_derivation_input(self):
        # Same key, other master IV: same stream ids, other IVs.
        one = StreamEncryptor(key=KEY, master_iv=MASTER_IV)
        other = StreamEncryptor(key=KEY, master_iv=bytes(16))
        one.encrypt_streams({1: b"x"})
        other.encrypt_streams({1: b"x"})
        assert set(one._memo._entries).isdisjoint(other._memo._entries)
        assert [iv for iv, _ in other._memo._entries.values()] == [
            derive_stream_iv(bytes(16), 1, KEY)]

    def test_pickle_and_copy_carry_no_memo(self):
        encryptor = StreamEncryptor(key=KEY, master_iv=MASTER_IV)
        blob = pickle.dumps(encryptor)
        encrypted = encryptor.encrypt_streams(self.STREAMS)
        assert encryptor._memo._entries
        # A warm encryptor pickles to the cold one's bytes.
        assert pickle.dumps(encryptor) == blob
        assert sorted(encryptor.__getstate__()) == [
            "_cipher", "key", "master_iv", "mode"]
        for clone in (pickle.loads(blob), copy.deepcopy(encryptor)):
            assert not clone._memo._entries and clone._memo.nbytes == 0
            assert clone._memo is not encryptor._memo
            assert clone == encryptor
            assert clone.decrypt_streams(encrypted) == self.STREAMS

    def test_memo_stays_bounded(self):
        # Past the budget, the least recently used streams leave and
        # the memo's total stays within it.
        encryptor = StreamEncryptor(key=KEY, master_iv=MASTER_IV)
        data = bytes(range(256)) * 18  # 4,608 B: 288 blocks
        fits = _KEYSTREAM_MEMO_BYTES // len(data)
        evictions = _counter("evictions")
        for stream_id in range(fits + 8):
            assert encryptor.decrypt_at(stream_id, data, 0) == \
                _reference(stream_id).decrypt(data)
            _assert_consistent(encryptor)
            if stream_id == fits - 1:
                # The memo is full: a re-read makes stream 0 the most
                # recently used, so streams 1..8 leave instead.
                encryptor.decrypt_at(0, data[:16], 0)
        assert _counter("evictions") - evictions == 8
        assert sorted(_entries(encryptor)) == [0] + list(range(9, fits + 8))


#: Stream ids, window offsets and sizes for the sequences below: offsets
#: cluster around a small per-test budget (inside a prefix, straddling
#: its end, past the budget) or land anywhere up to 2^70.
_WINDOWS = st.lists(
    st.tuples(
        st.integers(0, 3),
        st.one_of(st.integers(0, 1400), st.integers(0, 1 << 70)),
        st.integers(0, 300),
        st.booleans(),                      # encrypt_streams at 0?
    ),
    min_size=1, max_size=25)


class TestKeystreamMemo:
    """Output through the memo equals a fresh, memo-free CTR mode."""

    @given(windows=_WINDOWS, data=st.binary(min_size=300, max_size=300))
    @settings(max_examples=60, deadline=None)
    def test_random_windows_match_a_fresh_ctr(self, windows, data):
        encryptor = StreamEncryptor(key=KEY, master_iv=MASTER_IV)
        encryptor._memo.budget = 1024
        for stream_id, offset, size, whole in windows:
            window = data[:size]
            if whole:
                sealed = encryptor.encrypt_streams({stream_id: window})
                assert sealed[stream_id] == \
                    _reference(stream_id).encrypt(window)
                assert encryptor.decrypt_streams(sealed) == \
                    {stream_id: window}
            else:
                assert encryptor.decrypt_at(stream_id, window, offset) == \
                    _reference(stream_id).decrypt_range(window, offset)
            _assert_consistent(encryptor)
        for stream_id, (_, prefix) in _entries(encryptor).items():
            assert prefix.tobytes() == _reference(stream_id).encrypt(
                bytes(len(prefix)))

    def test_window_past_the_budget_leaves_the_memo_untouched(self):
        encryptor = StreamEncryptor(key=KEY, master_iv=MASTER_IV)
        encryptor.decrypt_at(1, bytes(64), 0)
        before = dict(encryptor._memo._entries)
        misses = _counter("misses")
        for offset in (_KEYSTREAM_MEMO_BYTES - 10, 1 << 70):
            assert encryptor.decrypt_at(1, bytes(40), offset) == \
                _reference(1).decrypt_range(bytes(40), offset)
        big = bytes(_KEYSTREAM_MEMO_BYTES + 1)
        assert encryptor.decrypt_streams({2: big})[2] == \
            _reference(2).decrypt(big)
        assert encryptor._memo._entries == before
        assert _counter("misses") - misses == 3

    def test_the_seek_corpus_under_per_object_ivs_stays_resident(
            self, monkeypatch):
        # perfbench's seek corpus with one IV per (object, stream): 24
        # streams, the largest 4,586 B. After one pass every keystream
        # is resident, and a second pass derives nothing.
        encryptor = StreamEncryptor(key=KEY, master_iv=MASTER_IV)
        streams = {stream_id: bytes([stream_id]) * 4586
                   for stream_id in range(24)}
        sealed = encryptor.encrypt_streams(streams)
        assert sorted(_entries(encryptor)) == list(range(24))
        _assert_consistent(encryptor)

        def refuse(*args):
            raise AssertionError("a warm read ran the cipher")

        monkeypatch.setattr(AES128, "encrypt_blocks", refuse)
        monkeypatch.setattr(AES128, "encrypt_block", refuse)
        misses, evictions = _counter("misses"), _counter("evictions")
        assert encryptor.decrypt_streams(sealed) == streams
        for stream_id in streams:
            assert encryptor.decrypt_at(
                stream_id, sealed[stream_id][4000:4586], 4000) == \
                streams[stream_id][4000:4586]
        assert (_counter("misses"), _counter("evictions")) == \
            (misses, evictions)

    def test_ofb_keeps_its_direct_path(self):
        encryptor = StreamEncryptor(key=KEY, master_iv=MASTER_IV,
                                    mode="OFB")
        reference = OFB(KEY, derive_stream_iv(MASTER_IV, 3, KEY))
        data = bytes(range(100))
        assert encryptor.decrypt_at(3, data, 37) == \
            reference.decrypt_range(data, 37)
        assert encryptor.encrypt_streams({3: data})[3] == \
            reference.encrypt(data)
        assert not encryptor._memo._entries

    def test_negative_offset_rejected(self):
        encryptor = StreamEncryptor(key=KEY, master_iv=MASTER_IV)
        with pytest.raises(CryptoError):
            encryptor.decrypt_at(0, b"x", -1)


def test_memo_bookkeeping_under_contention():
    # More threads than cores race puts and gets on one memo whose
    # budget holds a few prefixes, so nearly every put evicts: a lost
    # update would break the byte count, a torn eviction would raise.
    memo = StreamEncryptor(key=KEY, master_iv=MASTER_IV)._memo
    memo.budget = 512
    prefixes = []
    for blocks in range(1, 17):
        prefix = np.zeros(16 * blocks, dtype=np.uint8)
        prefix.flags.writeable = False
        prefixes.append(prefix)
    errors = []

    def work(seed: int) -> None:
        rng = np.random.default_rng(seed)
        try:
            for _ in range(8000):
                source = bytes([int(rng.integers(12))]) * 16
                if rng.random() < 0.1:
                    memo.get(source)
                else:
                    memo.put(source, (
                        source, prefixes[int(rng.integers(len(prefixes)))]))
        except Exception as exc:  # reported below
            errors.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,))
                   for seed in range(4 * max(2, os.cpu_count() or 1))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert memo.nbytes == sum(
        len(prefix) for _, prefix in memo._entries.values())
    assert memo.nbytes <= memo.budget


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_starts_with_an_empty_memo_and_a_free_lock():
    encryptor = StreamEncryptor(key=KEY, master_iv=MASTER_IV)
    encryptor.encrypt_streams({0: bytes(64)})
    # As if another thread were inside the memo's bookkeeping at the
    # fork: the child must not inherit the held lock.
    encryptor._memo._lock.acquire()
    try:
        pid = os.fork()
        if pid == 0:  # pragma: no cover - runs in the child
            memo = encryptor._memo
            ok = (not memo._entries and memo.nbytes == 0
                  and memo._lock.acquire(timeout=5))
            os._exit(0 if ok else 1)
        _, status = os.waitpid(pid, 0)
    finally:
        encryptor._memo._lock.release()
    assert os.waitstatus_to_exitcode(status) == 0
    assert encryptor._memo._entries
