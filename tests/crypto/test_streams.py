"""Tests for multi-stream encryption."""

import pytest

from repro.crypto import CTR, OFB, StreamEncryptor, derive_stream_iv
from repro.errors import CryptoError

KEY = bytes(range(16))
MASTER_IV = bytes(range(50, 66))


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
