"""Block cipher modes of operation: ECB, CBC, OFB, CTR (Figure 7).

All four modes share one interface so the paper's requirements analysis
(Section 5) can probe them uniformly. Plaintexts whose length is not a
multiple of 16 bytes are handled the way a video store needs: the
keystream modes (OFB/CTR) natively produce exact-length output, while
the block modes (ECB/CBC) use ciphertext stealing-free zero padding
with the original length restored on decryption — padding never changes
error-propagation behaviour, which is what the analysis measures.
"""

from __future__ import annotations

import abc
from typing import Dict, Type, Union

import numpy as np

from ..errors import CryptoError
from .aes import AES128, BLOCK_SIZE


def _xor_bytes(a: bytes, b: bytes) -> bytes:
    return bytes(x ^ y for x, y in zip(a, b))


def _pad(data: bytes) -> bytes:
    remainder = len(data) % BLOCK_SIZE
    if remainder == 0:
        return data
    return data + b"\x00" * (BLOCK_SIZE - remainder)


class BlockMode(abc.ABC):
    """A block-cipher mode over AES-128."""

    #: Whether an IV/nonce is required.
    needs_iv = True

    def __init__(self, key: Union[bytes, AES128], iv: bytes = b"") -> None:
        # An already expanded cipher is taken as is, so callers that
        # build many modes under one key expand it once.
        self.cipher = key if isinstance(key, AES128) else AES128(key)
        if self.needs_iv:
            if len(iv) != BLOCK_SIZE:
                raise CryptoError(
                    f"{type(self).__name__} needs a {BLOCK_SIZE}-byte IV"
                )
        self.iv = iv

    @abc.abstractmethod
    def encrypt(self, plaintext: bytes) -> bytes:
        ...

    @abc.abstractmethod
    def decrypt(self, ciphertext: bytes) -> bytes:
        ...

    def decrypt_range(self, ciphertext: bytes, byte_offset: int) -> bytes:
        """Decrypt a slice that starts ``byte_offset`` bytes into the
        full message.

        Only the keystream modes support this (the whole point of the
        paper preferring CTR for a storage system): block modes chain
        ciphertext, so a slice cannot be decrypted without its
        neighbours.
        """
        raise CryptoError(
            f"{type(self).__name__} does not support random-access "
            f"decryption")


class ECB(BlockMode):
    """Electronic codebook: block-wise, stateless.

    Fails the paper's requirement #1: equal plaintext blocks map to
    equal ciphertext blocks, enabling dictionary attacks.
    """

    needs_iv = False

    def encrypt(self, plaintext: bytes) -> bytes:
        padded = _pad(plaintext)
        out = bytearray()
        for offset in range(0, len(padded), BLOCK_SIZE):
            out += self.cipher.encrypt_block(padded[offset:offset + BLOCK_SIZE])
        return bytes(out)

    def decrypt(self, ciphertext: bytes) -> bytes:
        if len(ciphertext) % BLOCK_SIZE:
            raise CryptoError("ECB ciphertext must be block-aligned")
        out = bytearray()
        for offset in range(0, len(ciphertext), BLOCK_SIZE):
            out += self.cipher.decrypt_block(
                ciphertext[offset:offset + BLOCK_SIZE])
        return bytes(out)


class CBC(BlockMode):
    """Cipher block chaining.

    Meets requirement #1 but fails #2/#3 for approximate storage: a
    flipped ciphertext bit garbles its whole block and flips one bit of
    the next — a ~65x bit-error amplification.
    """

    def encrypt(self, plaintext: bytes) -> bytes:
        padded = _pad(plaintext)
        previous = self.iv
        out = bytearray()
        for offset in range(0, len(padded), BLOCK_SIZE):
            block = _xor_bytes(padded[offset:offset + BLOCK_SIZE], previous)
            previous = self.cipher.encrypt_block(block)
            out += previous
        return bytes(out)

    def decrypt(self, ciphertext: bytes) -> bytes:
        if len(ciphertext) % BLOCK_SIZE:
            raise CryptoError("CBC ciphertext must be block-aligned")
        previous = self.iv
        out = bytearray()
        for offset in range(0, len(ciphertext), BLOCK_SIZE):
            block = ciphertext[offset:offset + BLOCK_SIZE]
            out += _xor_bytes(self.cipher.decrypt_block(block), previous)
            previous = block
        return bytes(out)


class CFB(BlockMode):
    """Cipher feedback (full-block): keystream from the previous
    ciphertext block.

    Like CBC it meets requirement #1, and like CBC it fails #3 for
    approximate storage: a flipped ciphertext bit flips the mirrored
    plaintext bit of its own block *and* garbles the whole next block
    (the flipped ciphertext feeds the next keystream) — ~65x bit-error
    amplification, just ordered the other way around.
    """

    def encrypt(self, plaintext: bytes) -> bytes:
        padded = _pad(plaintext)
        feedback = self.iv
        out = bytearray()
        for offset in range(0, len(padded), BLOCK_SIZE):
            keystream = self.cipher.encrypt_block(feedback)
            block = _xor_bytes(padded[offset:offset + BLOCK_SIZE],
                               keystream)
            out += block
            feedback = block
        return bytes(out)

    def decrypt(self, ciphertext: bytes) -> bytes:
        if len(ciphertext) % BLOCK_SIZE:
            raise CryptoError("CFB ciphertext must be block-aligned")
        feedback = self.iv
        out = bytearray()
        for offset in range(0, len(ciphertext), BLOCK_SIZE):
            keystream = self.cipher.encrypt_block(feedback)
            block = ciphertext[offset:offset + BLOCK_SIZE]
            out += _xor_bytes(block, keystream)
            feedback = block
        return bytes(out)


class OFB(BlockMode):
    """Output feedback: keystream from iterated encryption of the IV.

    Ciphertext never feeds the chain, so a stored-bit flip corrupts
    exactly that plaintext bit — approximate-storage compatible.
    OFB stays on the scalar :meth:`~repro.crypto.aes.AES128.encrypt_block`:
    its chain is serial (each keystream block is the encryption of the
    previous one), so there is no batch of independent blocks to hand
    to ``encrypt_blocks`` the way CTR does.
    """

    def _keystream(self, length: int) -> bytes:
        stream = bytearray()
        feedback = self.iv
        while len(stream) < length:
            feedback = self.cipher.encrypt_block(feedback)
            stream += feedback
        return bytes(stream[:length])

    def encrypt(self, plaintext: bytes) -> bytes:
        return _xor_bytes(plaintext, self._keystream(len(plaintext)))

    def decrypt(self, ciphertext: bytes) -> bytes:
        return _xor_bytes(ciphertext, self._keystream(len(ciphertext)))

    def decrypt_range(self, ciphertext: bytes, byte_offset: int) -> bytes:
        """OFB random access: the feedback chain must be iterated from
        the IV, so seeking costs ``O(byte_offset)`` cipher calls — it
        works, but CTR is the mode a random-access store wants."""
        if byte_offset < 0:
            raise CryptoError(f"negative byte offset {byte_offset}")
        stream = self._keystream(byte_offset + len(ciphertext))
        return _xor_bytes(ciphertext, stream[byte_offset:])


def _counter_blocks(iv: bytes, skip_blocks: int, count: int) -> np.ndarray:
    """The CTR counter blocks ``iv + skip_blocks + i`` for ``i`` in
    ``range(count)``, mod 2^128, as a ``(count, 16)`` uint8 array.

    The 128-bit big-endian counter is held as two uint64 halves: the low
    half wraps in uint64 arithmetic and a wrapped row carries one into
    the high half (``count`` is far below 2^64, so at most once).
    """
    start = (int.from_bytes(iv, "big") + skip_blocks) % (1 << 128)
    high, low = divmod(start, 1 << 64)
    low_half = np.arange(count, dtype=np.uint64) + np.uint64(low)
    carry = (low_half < np.uint64(low)).astype(np.uint64)
    counters = np.empty((count, 2), dtype=">u8")
    counters[:, 0] = carry + np.uint64(high)
    counters[:, 1] = low_half
    return counters.view(np.uint8)


class CTR(BlockMode):
    """Counter mode: keystream from encrypting nonce+counter.

    Same approximate-storage compatibility as OFB, plus random access.
    Counter blocks are independent, so every block a call needs is
    encrypted in one :meth:`~repro.crypto.aes.AES128.encrypt_blocks`
    pass.
    """

    def _xor_keystream(self, data: bytes, byte_offset: int) -> bytes:
        """XOR ``data`` with the keystream from ``byte_offset`` on."""
        if not data:
            return b""
        skip_blocks, phase = divmod(byte_offset, BLOCK_SIZE)
        count = -(-(phase + len(data)) // BLOCK_SIZE)
        keystream = self.cipher.encrypt_blocks(
            _counter_blocks(self.iv, skip_blocks, count)).reshape(-1)
        plain = np.frombuffer(data, dtype=np.uint8)
        return (plain ^ keystream[phase:phase + len(data)]).tobytes()

    def encrypt(self, plaintext: bytes) -> bytes:
        return self._xor_keystream(plaintext, 0)

    def decrypt(self, ciphertext: bytes) -> bytes:
        return self._xor_keystream(ciphertext, 0)

    def decrypt_range(self, ciphertext: bytes, byte_offset: int) -> bytes:
        """CTR random access: jump the counter to the slice's block and
        phase into it — ``O(len(ciphertext))`` regardless of offset."""
        if byte_offset < 0:
            raise CryptoError(f"negative byte offset {byte_offset}")
        return self._xor_keystream(ciphertext, byte_offset)


#: Mode registry by canonical name.
MODES: Dict[str, Type[BlockMode]] = {
    "ECB": ECB,
    "CBC": CBC,
    "CFB": CFB,
    "OFB": OFB,
    "CTR": CTR,
}


def make_mode(name: str, key: bytes, iv: bytes = b"") -> BlockMode:
    try:
        mode_class = MODES[name.upper()]
    except KeyError:
        raise CryptoError(
            f"unknown mode {name!r}; known: {sorted(MODES)}"
        ) from None
    if mode_class.needs_iv:
        return mode_class(key, iv)
    return mode_class(key)
