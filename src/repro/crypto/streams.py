"""Encrypting the multiple reliability streams (Section 5.3).

Approximate video storage splits a video into one stream per ECC level.
Each stream is encrypted separately with an approximation-compatible
mode. Per the paper, the per-stream IV is derived from a single master
value combined with the stream's identifier, so one secret (key + master
IV) covers the whole video; the derivation here runs the identifier
through the block cipher itself (a standard one-way diversification).
A stream's identifier is its name's index among the video's stream
names in sorted order (:func:`stream_ids`), the rule every writer and
reader of the streams follows.

The analysis/partitioning must run *before* encryption — importance is
computed on plaintext bits — so the encryptor is applied to the already
partitioned streams, and decryption happens before merging and decoding.

A stream's CTR keystream depends only on the key, the stream's IV and
the block counter, so it is the same on every read (NIST SP 800-38A
§6.5: CTR's cipher work can be done before the data arrives). Each
encryptor therefore keeps the keystream it has derived, one prefix
(blocks ``0..k``) per stream in a byte-bounded LRU
(:class:`~repro.memo.ByteMemo`) keyed by the IV-derivation input: a
window inside a prefix costs one slice and one XOR, and AES runs only
on blocks no earlier call derived. The memo is a cached property
(:class:`~repro.memo.Derived`), so no pickle or copy carries it. OFB
keeps its direct path: no service path uses it, and its ``O(offset)``
random access is what Section 5 holds against it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Iterable, Tuple

import numpy as np

from ..errors import CryptoError
from ..memo import ByteMemo, Derived
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from .aes import AES128, BLOCK_SIZE
from .modes import CTR, OFB, _counter_blocks

#: Modes acceptable for stream encryption (requirements 1-3).
APPROVED_MODES = ("OFB", "CTR")


#: Keystream bytes one :class:`StreamEncryptor` keeps. Sized for
#: per-object IVs (ROADMAP item 3): at perfbench's full scale the seek
#: corpus is 24 (object, stream) pairs holding 53,454 B of ciphertext
#: (largest stream 4,586 B), playback 27,946 B and decay 13,443 B, so
#: each workload's every stream stays resident with room to spare. A
#: window that ends past the budget is decrypted directly.
_KEYSTREAM_MEMO_BYTES = 256 << 10

#: A memo entry: a stream's derived IV and its keystream prefix.
_Entry = Tuple[bytes, np.ndarray]

#: The prefix of a stream no call has derived yet.
_NO_KEYSTREAM = np.zeros(0, dtype=np.uint8)
_NO_KEYSTREAM.flags.writeable = False


def stream_ids(names: Iterable[str]) -> Dict[str, int]:
    """Each stream name's id, the input of its IV: the name's index in
    sorted order. The map iterates in that order too."""
    return {name: index for index, name in enumerate(sorted(names))}


def derive_stream_iv(master_iv: bytes, stream_id: int, key: bytes) -> bytes:
    """Per-stream IV: encrypt (master_iv XOR stream_id) under the key."""
    return AES128(key).encrypt_block(_iv_source(master_iv, stream_id))


def _iv_source(master_iv: bytes, stream_id: int) -> bytes:
    """The block a stream's IV encrypts: ``master_iv XOR stream_id``."""
    if len(master_iv) != BLOCK_SIZE:
        raise CryptoError(f"master IV must be {BLOCK_SIZE} bytes")
    if stream_id < 0:
        raise CryptoError(f"stream id must be non-negative, got {stream_id}")
    return (int.from_bytes(master_iv, "big") ^ stream_id).to_bytes(
        BLOCK_SIZE, "big")


@dataclass
class StreamEncryptor(Derived):
    """Encrypts/decrypts a set of reliability streams under one secret.

    In CTR mode the encryptor keeps every stream's derived IV and the
    keystream it has computed (see the module docstring). That memo is
    as secret as the key, and the instance already holds the expanded
    key schedule: pickles and deep copies carry the fields only and
    start with an empty memo, and the memo is never logged, exported or
    hashed. One instance is safe to share across threads.
    """

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
        # Expanded once: every stream's IV and keystream share this cipher.
        self._cipher = AES128(self.key)

    @cached_property
    def _memo(self) -> ByteMemo:
        """IV-derivation input -> :data:`_Entry`; a longer prefix of a
        stream replaces a shorter one."""
        return ByteMemo(_KEYSTREAM_MEMO_BYTES, lambda entry: len(entry[1]),
                        "crypto_keystream_memo_evictions_total")

    def _xor(self, stream_id: int, data: bytes, byte_offset: int) -> bytes:
        """XOR ``data`` with stream ``stream_id``'s keystream from
        ``byte_offset`` on: the one path of every method below.

        A CTR window that ends within the memo's budget is served from
        the stream's memoized prefix, extended first by one
        ``encrypt_blocks`` call over the blocks it lacks; a window that
        ends past the budget, and every OFB call, derives its keystream
        directly and leaves the memo untouched.
        """
        source = _iv_source(self.master_iv, stream_id)
        if self.mode == "OFB":
            return OFB(self._cipher, self._cipher.encrypt_block(
                source)).decrypt_range(data, byte_offset)
        if byte_offset < 0:
            raise CryptoError(f"negative byte offset {byte_offset}")
        if not data:
            return b""
        end = byte_offset + len(data)
        if end > self._memo.budget:
            obs_metrics.counter("crypto_keystream_memo_misses_total").inc()
            return CTR(self._cipher, self._cipher.encrypt_block(
                source)).decrypt_range(data, byte_offset)
        entry = self._memo.get(source)
        if entry is None:
            iv, prefix = self._cipher.encrypt_block(source), _NO_KEYSTREAM
        else:
            iv, prefix = entry
        if len(prefix) < end:
            obs_metrics.counter("crypto_keystream_memo_misses_total").inc()
            derived = len(prefix) // BLOCK_SIZE
            missing = -(-end // BLOCK_SIZE) - derived
            prefix = np.concatenate((prefix, self._cipher.encrypt_blocks(
                _counter_blocks(iv, derived, missing)).reshape(-1)))
            prefix.flags.writeable = False
            self._memo.put(source, (iv, prefix))
        else:
            obs_metrics.counter("crypto_keystream_memo_hits_total").inc()
        plain = np.frombuffer(data, dtype=np.uint8)
        return (plain ^ prefix[byte_offset:end]).tobytes()

    def encrypt_streams(self, streams: Dict[int, bytes]) -> Dict[int, bytes]:
        """Encrypt each stream under its derived IV (sizes preserved)."""
        with obs_trace.span("aes.encrypt", mode=self.mode,
                            streams=len(streams)):
            return {stream_id: self._xor(stream_id, data, 0)
                    for stream_id, data in streams.items()}

    def decrypt_streams(self, streams: Dict[int, bytes]) -> Dict[int, bytes]:
        """Decrypt each stream under its derived IV."""
        with obs_trace.span("aes.decrypt", mode=self.mode,
                            streams=len(streams)):
            return {stream_id: self._xor(stream_id, data, 0)
                    for stream_id, data in streams.items()}

    def decrypt_at(self, stream_id: int, data: bytes,
                   byte_offset: int) -> bytes:
        """Decrypt a slice of stream ``stream_id`` that begins
        ``byte_offset`` bytes into the ciphertext.

        This is the random-access primitive the seek path rides: both
        approved modes are keystream XORs, so a slice decrypts without
        its neighbours. CTR reads the slice's keystream from the
        stream's memoized prefix (a counter jump when the window ends
        past the memo's budget); OFB pays an ``O(offset)`` keystream
        walk — see :meth:`~repro.crypto.modes.OFB.decrypt_range`.
        """
        with obs_trace.span("aes.decrypt_at", mode=self.mode,
                            stream=stream_id, offset=byte_offset,
                            size=len(data)):
            return self._xor(stream_id, data, byte_offset)
