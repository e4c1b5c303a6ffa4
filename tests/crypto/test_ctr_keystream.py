"""Vectorized AES-CTR against the scalar block-at-a-time definition.

``AES128.encrypt_blocks`` and CTR's counter arithmetic run every block
of a call in one numpy pass. The references are the scalar
``encrypt_block`` (row by row) and ``scalar_ctr`` below, the loop CTR
ran before (one ``encrypt_block`` per counter value). Output must be
byte-identical: every stored ciphertext, and so every replay digest,
depends on it.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import AES128, CTR
from repro.crypto.modes import _counter_blocks
from repro.errors import CryptoError

KEYS = st.binary(min_size=16, max_size=16)
IVS = st.binary(min_size=16, max_size=16)


def scalar_ctr(key: bytes, iv: bytes, data: bytes,
               byte_offset: int = 0) -> bytes:
    """XOR ``data`` with the CTR keystream from ``byte_offset`` on, one
    ``encrypt_block`` per counter value (the loop CTR used to run)."""
    cipher = AES128(key)
    skip_blocks, phase = divmod(byte_offset, 16)
    counter = int.from_bytes(iv, "big") + skip_blocks
    stream = bytearray()
    while len(stream) < phase + len(data):
        block = (counter % (1 << 128)).to_bytes(16, "big")
        stream += cipher.encrypt_block(block)
        counter += 1
    return bytes(a ^ b for a, b in zip(data, stream[phase:]))


def _batches(max_blocks):
    return st.integers(1, max_blocks).flatmap(
        lambda n: st.binary(min_size=16 * n, max_size=16 * n))


class TestEncryptBlocks:
    @given(key=KEYS, data=_batches(64))
    @settings(max_examples=40, deadline=None)
    def test_rows_match_scalar_encrypt_block(self, key, data):
        aes = AES128(key)
        blocks = np.frombuffer(data, dtype=np.uint8).reshape(-1, 16)
        out = aes.encrypt_blocks(blocks)
        assert out.dtype == np.uint8 and out.shape == blocks.shape
        for row, block in zip(out, blocks):
            assert row.tobytes() == aes.encrypt_block(block.tobytes())

    def test_fips197_vectors_in_one_batch(self):
        """Appendix B and C.1, both plaintexts in one batch under each
        key: the row whose plaintext belongs to the key reproduces the
        published ciphertext."""
        vectors = [
            ("2b7e151628aed2a6abf7158809cf4f3c",
             "3243f6a8885a308d313198a2e0370734",
             "3925841d02dc09fbdc118597196a0b32"),
            ("000102030405060708090a0b0c0d0e0f",
             "00112233445566778899aabbccddeeff",
             "69c4e0d86a7b0430d8cdb78070b4c55a"),
        ]
        batch = np.frombuffer(
            b"".join(bytes.fromhex(pt) for _, pt, _ in vectors),
            dtype=np.uint8).reshape(-1, 16)
        for row, (key, _, expected) in enumerate(vectors):
            out = AES128(bytes.fromhex(key)).encrypt_blocks(batch)
            assert out[row].tobytes().hex() == expected

    def test_empty_batch(self):
        out = AES128(bytes(16)).encrypt_blocks(np.zeros((0, 16), np.uint8))
        assert out.shape == (0, 16)

    @pytest.mark.parametrize("blocks", [
        np.zeros(16, np.uint8),
        np.zeros((2, 15), np.uint8),
        np.zeros((2, 16), np.int64),
    ])
    def test_rejects_wrong_shape_or_dtype(self, blocks):
        with pytest.raises(CryptoError):
            AES128(bytes(16)).encrypt_blocks(blocks)


class TestCtrEquivalence:
    @given(key=KEYS, iv=IVS, data=st.binary(min_size=0, max_size=4096))
    @settings(max_examples=30, deadline=None)
    def test_encrypt_and_decrypt_match_scalar(self, key, iv, data):
        expected = scalar_ctr(key, iv, data)
        assert CTR(key, iv).encrypt(data) == expected
        assert CTR(key, iv).decrypt(data) == expected

    @given(key=KEYS, iv=IVS, data=st.binary(min_size=0, max_size=4096),
           offset=st.one_of(st.integers(0, 4096),
                            st.integers(0, 1 << 70)))
    @settings(max_examples=30, deadline=None)
    def test_decrypt_range_matches_scalar(self, key, iv, data, offset):
        assert CTR(key, iv).decrypt_range(data, offset) == \
            scalar_ctr(key, iv, data, offset)


class TestCounterWrap:
    KEY = bytes(range(16))

    @pytest.mark.parametrize("iv, skip, expected", [
        # The whole 128-bit counter wraps to zero.
        ("ff" * 16, 0, ["ff" * 16, "00" * 16, "00" * 15 + "01"]),
        # The low half wraps and carries into the high half.
        ("00" * 7 + "05" + "ff" * 8, 0,
         ["00" * 7 + "05" + "ff" * 8, "00" * 7 + "06" + "00" * 8,
          "00" * 7 + "06" + "00" * 7 + "01"]),
        # A counter jump that lands on the carry.
        ("00" * 8 + "ff" * 7 + "fd", 2,
         ["00" * 8 + "ff" * 8, "00" * 7 + "01" + "00" * 8,
          "00" * 7 + "01" + "00" * 7 + "01"]),
    ])
    def test_counter_blocks(self, iv, skip, expected):
        blocks = _counter_blocks(bytes.fromhex(iv), skip, 3)
        assert [row.tobytes().hex() for row in blocks] == expected

    @pytest.mark.parametrize("iv", [
        "ff" * 16,
        "ab" * 8 + "ff" * 8,
        "00" * 8 + "ff" * 7 + "fc",   # low half 4 blocks below 2^64
        "12" * 8 + "ff" * 7 + "f0",   # 16 blocks below
    ])
    @pytest.mark.parametrize("length, offset", [
        (200, 0), (333, 17), (48, 40), (16, 64)])
    def test_wrap_matches_scalar(self, iv, length, offset):
        iv = bytes.fromhex(iv)
        data = bytes(i % 251 for i in range(length))
        assert CTR(self.KEY, iv).encrypt(data) == \
            scalar_ctr(self.KEY, iv, data)
        assert CTR(self.KEY, iv).decrypt_range(data, offset) == \
            scalar_ctr(self.KEY, iv, data, offset)


class TestKnownAnswer:
    def test_nist_sp800_38a_f51_ctr_aes128(self):
        """NIST SP 800-38A F.5.1 CTR-AES128.Encrypt; the initial
        counter's low byte carries on the second block."""
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        counter = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff")
        plaintext = bytes.fromhex(
            "6bc1bee22e409f96e93d7e117393172a"
            "ae2d8a571e03ac9c9eb76fac45af8e51"
            "30c81c46a35ce411e5fbc1191a0a52ef"
            "f69f2445df4f9b17ad2b417be66c3710")
        ciphertext = bytes.fromhex(
            "874d6191b620e3261bef6864990db6ce"
            "9806f66b7970fdff8617187bb9fffdff"
            "5ae4df3edbd5d35e5b4f09020db03eab"
            "1e031dda2fbe03d1792170a0f3009cee")
        assert CTR(key, counter).encrypt(plaintext) == ciphertext
        assert CTR(key, counter).decrypt(ciphertext) == plaintext
        assert scalar_ctr(key, counter, plaintext) == ciphertext
        # Block 3 alone, by counter jump.
        assert CTR(key, counter).decrypt_range(ciphertext[32:48], 32) == \
            plaintext[32:48]
