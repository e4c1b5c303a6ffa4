"""Encrypting the multiple reliability streams (Section 5.3).

Approximate video storage splits a video into one stream per ECC level.
Each stream is encrypted separately with an approximation-compatible
mode. Per the paper, the per-stream IV is derived from a single master
value combined with the stream's identifier, so one secret (key + master
IV) covers the whole video; the derivation here runs the identifier
through the block cipher itself (a standard one-way diversification).

The analysis/partitioning must run *before* encryption — importance is
computed on plaintext bits — so the encryptor is applied to the already
partitioned streams, and decryption happens before merging and decoding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from ..errors import CryptoError
from ..obs import trace as obs_trace
from .aes import AES128, BLOCK_SIZE
from .modes import MODES, BlockMode

#: Modes acceptable for stream encryption (requirements 1-3).
APPROVED_MODES = ("OFB", "CTR")


def derive_stream_iv(master_iv: bytes, stream_id: int, key: bytes) -> bytes:
    """Per-stream IV: encrypt (master_iv XOR stream_id) under the key."""
    return _stream_iv(AES128(key), master_iv, stream_id)


def _stream_iv(cipher: AES128, master_iv: bytes, stream_id: int) -> bytes:
    if len(master_iv) != BLOCK_SIZE:
        raise CryptoError(f"master IV must be {BLOCK_SIZE} bytes")
    if stream_id < 0:
        raise CryptoError(f"stream id must be non-negative, got {stream_id}")
    mixed = bytearray(master_iv)
    identifier = stream_id.to_bytes(BLOCK_SIZE, "big")
    for index in range(BLOCK_SIZE):
        mixed[index] ^= identifier[index]
    return cipher.encrypt_block(bytes(mixed))


@dataclass
class StreamEncryptor:
    """Encrypts/decrypts a set of reliability streams under one secret."""

    key: bytes
    master_iv: bytes
    mode: str = "CTR"
    _cipher: AES128 = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.mode.upper() not in APPROVED_MODES:
            raise CryptoError(
                f"mode {self.mode!r} is not approximation-compatible; "
                f"use one of {APPROVED_MODES}"
            )
        self.mode = self.mode.upper()
        if len(self.key) != BLOCK_SIZE:
            raise CryptoError(f"key must be {BLOCK_SIZE} bytes")
        if len(self.master_iv) != BLOCK_SIZE:
            raise CryptoError(f"master IV must be {BLOCK_SIZE} bytes")
        # Expanded once: every stream's IV and mode share this cipher.
        self._cipher = AES128(self.key)

    def _mode_for(self, stream_id: int) -> BlockMode:
        iv = _stream_iv(self._cipher, self.master_iv, stream_id)
        return MODES[self.mode](self._cipher, iv)

    def encrypt_streams(self, streams: Dict[int, bytes]) -> Dict[int, bytes]:
        """Encrypt each stream under its derived IV (sizes preserved)."""
        with obs_trace.span("aes.encrypt", mode=self.mode,
                            streams=len(streams)):
            return {
                stream_id: self._mode_for(stream_id).encrypt(data)
                for stream_id, data in streams.items()
            }

    def decrypt_streams(self, streams: Dict[int, bytes]) -> Dict[int, bytes]:
        """Decrypt each stream under its derived IV."""
        with obs_trace.span("aes.decrypt", mode=self.mode,
                            streams=len(streams)):
            return {
                stream_id: self._mode_for(stream_id).decrypt(data)
                for stream_id, data in streams.items()
            }

    def decrypt_at(self, stream_id: int, data: bytes,
                   byte_offset: int) -> bytes:
        """Decrypt a slice of stream ``stream_id`` that begins
        ``byte_offset`` bytes into the ciphertext.

        This is the random-access primitive the seek path rides: both
        approved modes are keystream XORs, so a slice decrypts without
        its neighbours (CTR jumps the counter; OFB pays an
        ``O(offset)`` keystream walk — see
        :meth:`~repro.crypto.modes.OFB.decrypt_range`).
        """
        with obs_trace.span("aes.decrypt_at", mode=self.mode,
                            stream=stream_id, offset=byte_offset,
                            size=len(data)):
            return self._mode_for(stream_id).decrypt_range(
                data, byte_offset)
