"""AES-128 block cipher, from scratch (FIPS-197).

The paper's Section 5 analyzes AES modes of operation for compatibility
with approximate storage; this module provides the underlying
substitution-permutation network (the paper's ``subperm`` box) and its
inverse. Implemented directly from the standard: SubBytes / ShiftRows /
MixColumns / AddRoundKey over 10 rounds with on-the-fly computed tables,
validated against the FIPS-197 appendix vectors in the test suite.

:meth:`AES128.encrypt_block` is the scalar, byte-at-a-time form of the
standard. :meth:`AES128.encrypt_blocks` encrypts many independent
blocks in one numpy pass (the CTR keystream path): each of rounds 1-9
is one byte gather through a 4x256 T-table that fuses SubBytes,
ShiftRows and MixColumns, so the number of numpy calls per round is
fixed rather than proportional to the block count.

This is an algorithmic reference implementation (it is not constant-time
and must not be used to protect real secrets).
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..errors import CryptoError

BLOCK_SIZE = 16  #: bytes
KEY_SIZE = 16    #: bytes (AES-128)
ROUNDS = 10


def _xtime(value: int) -> int:
    """Multiply by x in GF(2^8) with the AES polynomial x^8+x^4+x^3+x+1."""
    value <<= 1
    if value & 0x100:
        value ^= 0x11B
    return value & 0xFF


def _gf_multiply(a: int, b: int) -> int:
    result = 0
    while b:
        if b & 1:
            result ^= a
        a = _xtime(a)
        b >>= 1
    return result


def _build_sbox() -> tuple:
    """Compute the AES S-box from the GF(2^8) inverse + affine map."""
    # Multiplicative inverses via exp/log over generator 3.
    exp = [0] * 510
    log = [0] * 256
    value = 1
    for power in range(255):
        exp[power] = value
        log[value] = power
        value ^= _xtime(value)  # multiply by 3 = x + 1
    exp[255:510] = exp[:255]

    def inverse(byte: int) -> int:
        if byte == 0:
            return 0
        return exp[255 - log[byte]]

    sbox = [0] * 256
    for byte in range(256):
        inv = inverse(byte)
        # Affine transform over GF(2): b ^ rotl(b,1..4) ^ 0x63.
        value = inv
        transformed = value
        for _ in range(4):
            value = ((value << 1) | (value >> 7)) & 0xFF
            transformed ^= value
        sbox[byte] = transformed ^ 0x63
    inv_sbox = [0] * 256
    for byte, mapped in enumerate(sbox):
        inv_sbox[mapped] = byte
    return tuple(sbox), tuple(inv_sbox)


#: All cipher tables are module-level constants computed once at import
#: (not per AES128 instantiation): the S-box pair above plus the GF(2^8)
#: multiplication tables below for every MixColumns coefficient.
SBOX, INV_SBOX = _build_sbox()

_RCON = (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36)

#: 256-entry multiplication tables for the MixColumns coefficients
#: (2, 3 forward; 9, 11, 13, 14 inverse), replacing per-byte bit-serial
#: GF multiplication on the block hot path.
_MUL_TABLES = {
    coefficient: tuple(_gf_multiply(byte, coefficient)
                       for byte in range(256))
    for coefficient in (1, 2, 3, 9, 11, 13, 14)
}


def expand_key(key: bytes) -> List[List[int]]:
    """AES-128 key schedule: 11 round keys of 16 bytes each."""
    if len(key) != KEY_SIZE:
        raise CryptoError(f"AES-128 key must be {KEY_SIZE} bytes")
    words = [list(key[4 * i:4 * i + 4]) for i in range(4)]
    for i in range(4, 4 * (ROUNDS + 1)):
        word = list(words[i - 1])
        if i % 4 == 0:
            word = word[1:] + word[:1]
            word = [SBOX[b] for b in word]
            word[0] ^= _RCON[i // 4 - 1]
        words.append([a ^ b for a, b in zip(word, words[i - 4])])
    return [sum(words[4 * r:4 * r + 4], []) for r in range(ROUNDS + 1)]


def _sub_bytes(state: List[int]) -> None:
    for i in range(16):
        state[i] = SBOX[state[i]]


def _inv_sub_bytes(state: List[int]) -> None:
    for i in range(16):
        state[i] = INV_SBOX[state[i]]


# State layout: state[4*c + r] is row r, column c (column-major, as in
# the standard's byte ordering of inputs).

_SHIFT_MAP = [4 * ((c + r) % 4) + r for c in range(4) for r in range(4)]
_INV_SHIFT_MAP = [4 * ((c - r) % 4) + r for c in range(4) for r in range(4)]


def _shift_rows(state: List[int]) -> List[int]:
    return [state[i] for i in _SHIFT_MAP]


def _inv_shift_rows(state: List[int]) -> List[int]:
    return [state[i] for i in _INV_SHIFT_MAP]


def _mix_single_column(column: List[int], matrix: tuple) -> List[int]:
    return [
        _MUL_TABLES[matrix[r][0]][column[0]]
        ^ _MUL_TABLES[matrix[r][1]][column[1]]
        ^ _MUL_TABLES[matrix[r][2]][column[2]]
        ^ _MUL_TABLES[matrix[r][3]][column[3]]
        for r in range(4)
    ]


_MIX = ((2, 3, 1, 1), (1, 2, 3, 1), (1, 1, 2, 3), (3, 1, 1, 2))
_INV_MIX = ((14, 11, 13, 9), (9, 14, 11, 13), (13, 9, 14, 11),
            (11, 13, 9, 14))


def _mix_columns(state: List[int], matrix: tuple) -> List[int]:
    out = [0] * 16
    for c in range(4):
        column = state[4 * c:4 * c + 4]
        out[4 * c:4 * c + 4] = _mix_single_column(column, matrix)
    return out


def _add_round_key(state: List[int], round_key: List[int]) -> None:
    for i in range(16):
        state[i] ^= round_key[i]


def _build_t_table() -> np.ndarray:
    """The encryption T-table as 1024 words, row ``r`` at ``256 * r``.

    Word ``256 * r + x`` holds the MixColumns output column that input
    row ``r`` contributes when its byte is ``x`` (SubBytes applied):
    byte ``j`` of the word is ``_MIX[j][r] * SBOX[x]`` in GF(2^8). The
    words are built from their bytes and viewed as native ``uint32``;
    only XOR ever touches them, which works bytewise, so the byte
    order in memory is the AES state order on any host.
    """
    table = np.empty((4, 256, 4), dtype=np.uint8)
    for row in range(4):
        for out_row in range(4):
            multiply = _MUL_TABLES[_MIX[out_row][row]]
            table[row, :, out_row] = [multiply[s] for s in SBOX]
    return table.reshape(1024, 4).view(np.uint32).reshape(1024)


_T_WORDS = _build_t_table()
_SBOX_ARRAY = np.array(SBOX, dtype=np.uint8)
_SHIFT_INDEX = np.array(_SHIFT_MAP, dtype=np.intp)

#: One round's gather, laid out row-major (``4 * r + c``): entry
#: ``4 * r + c`` reads the state byte that ShiftRows moves to row ``r``
#: of column ``c`` and looks it up in T-table row ``r``.
_T_SOURCE = np.array([_SHIFT_MAP[4 * c + r] for r in range(4)
                      for c in range(4)], dtype=np.intp)
_T_OFFSET = np.array([256 * r for r in range(4) for c in range(4)],
                     dtype=np.intp)


class AES128:
    """AES-128: the ``subperm`` / ``invsubperm`` boxes of the paper."""

    def __init__(self, key: bytes) -> None:
        self._round_keys = expand_key(key)
        self._round_bytes = np.array(self._round_keys, dtype=np.uint8)
        self._round_words = self._round_bytes.view(np.uint32)

    def encrypt_blocks(self, blocks: np.ndarray) -> np.ndarray:
        """Encrypt every row of an ``(n, 16)`` uint8 array in one pass.

        Row ``i`` of the result equals
        ``encrypt_block(bytes(blocks[i]))``. Rows are independent, so
        the rounds run over all of them at once; the counter blocks of
        a CTR keystream are the intended input.
        """
        blocks = np.asarray(blocks)
        if (blocks.dtype != np.uint8 or blocks.ndim != 2
                or blocks.shape[1] != BLOCK_SIZE):
            raise CryptoError(
                f"blocks must be an (n, {BLOCK_SIZE}) uint8 array, got "
                f"{blocks.dtype} {blocks.shape}")
        state = blocks ^ self._round_bytes[0]
        for round_index in range(1, ROUNDS):
            words = _T_WORDS.take(state.take(_T_SOURCE, axis=1)
                                  + _T_OFFSET)
            columns = words[:, 0:4] ^ words[:, 4:8]
            columns ^= words[:, 8:12]
            columns ^= words[:, 12:16]
            columns ^= self._round_words[round_index]
            state = columns.view(np.uint8)
        return (_SBOX_ARRAY.take(state.take(_SHIFT_INDEX, axis=1))
                ^ self._round_bytes[ROUNDS])

    def encrypt_block(self, plaintext: bytes) -> bytes:
        if len(plaintext) != BLOCK_SIZE:
            raise CryptoError(f"block must be {BLOCK_SIZE} bytes")
        state = list(plaintext)
        _add_round_key(state, self._round_keys[0])
        for round_index in range(1, ROUNDS):
            _sub_bytes(state)
            state = _shift_rows(state)
            state = _mix_columns(state, _MIX)
            _add_round_key(state, self._round_keys[round_index])
        _sub_bytes(state)
        state = _shift_rows(state)
        _add_round_key(state, self._round_keys[ROUNDS])
        return bytes(state)

    def decrypt_block(self, ciphertext: bytes) -> bytes:
        if len(ciphertext) != BLOCK_SIZE:
            raise CryptoError(f"block must be {BLOCK_SIZE} bytes")
        state = list(ciphertext)
        _add_round_key(state, self._round_keys[ROUNDS])
        state = _inv_shift_rows(state)
        _inv_sub_bytes(state)
        for round_index in range(ROUNDS - 1, 0, -1):
            _add_round_key(state, self._round_keys[round_index])
            state = _mix_columns(state, _INV_MIX)
            state = _inv_shift_rows(state)
            _inv_sub_bytes(state)
        _add_round_key(state, self._round_keys[0])
        return bytes(state)
