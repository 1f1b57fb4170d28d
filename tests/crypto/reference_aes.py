"""Bitwise FIPS-197 AES-128: the test oracle for the table-driven cipher.

Every round step is spelled out byte by byte (``SubBytes``,
``ShiftRows``, ``MixColumns`` over GF(2^8) multiplication,
``AddRoundKey``), and decryption is included so round-trip laws can be
checked.  It shares only the S-box and the key expansion with
:mod:`repro.crypto.aes`; both are pinned by the FIPS-197 vectors in
``test_aes.py``.
"""

from __future__ import annotations

from repro.crypto.aes import BLOCK_SIZE, ROUNDS, SBOX, expand_key

INV_SBOX = bytes(SBOX.index(i) for i in range(256))


def _xtime(a: int) -> int:
    """Multiply by x in GF(2^8) modulo the AES polynomial."""
    a <<= 1
    if a & 0x100:
        a ^= 0x11B
    return a & 0xFF


def _gmul(a: int, b: int) -> int:
    """GF(2^8) multiplication."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a = _xtime(a)
        b >>= 1
    return result


def _add_round_key(state: bytearray, round_key: bytes) -> None:
    for i in range(16):
        state[i] ^= round_key[i]


def _sub_bytes(state: bytearray, box: bytes) -> None:
    for i in range(16):
        state[i] = box[state[i]]


def _shift_rows(state: bytearray) -> None:
    # State is column-major: byte (row, col) lives at state[row + 4*col].
    for row in range(1, 4):
        cells = [state[row + 4 * col] for col in range(4)]
        cells = cells[row:] + cells[:row]
        for col in range(4):
            state[row + 4 * col] = cells[col]


def _inv_shift_rows(state: bytearray) -> None:
    for row in range(1, 4):
        cells = [state[row + 4 * col] for col in range(4)]
        cells = cells[-row:] + cells[:-row]
        for col in range(4):
            state[row + 4 * col] = cells[col]


def _mix_columns(state: bytearray) -> None:
    for col in range(4):
        a = state[4 * col : 4 * col + 4]
        state[4 * col + 0] = _gmul(a[0], 2) ^ _gmul(a[1], 3) ^ a[2] ^ a[3]
        state[4 * col + 1] = a[0] ^ _gmul(a[1], 2) ^ _gmul(a[2], 3) ^ a[3]
        state[4 * col + 2] = a[0] ^ a[1] ^ _gmul(a[2], 2) ^ _gmul(a[3], 3)
        state[4 * col + 3] = _gmul(a[0], 3) ^ a[1] ^ a[2] ^ _gmul(a[3], 2)


def _inv_mix_columns(state: bytearray) -> None:
    for col in range(4):
        a = state[4 * col : 4 * col + 4]
        state[4 * col + 0] = _gmul(a[0], 14) ^ _gmul(a[1], 11) ^ _gmul(a[2], 13) ^ _gmul(a[3], 9)
        state[4 * col + 1] = _gmul(a[0], 9) ^ _gmul(a[1], 14) ^ _gmul(a[2], 11) ^ _gmul(a[3], 13)
        state[4 * col + 2] = _gmul(a[0], 13) ^ _gmul(a[1], 9) ^ _gmul(a[2], 14) ^ _gmul(a[3], 11)
        state[4 * col + 3] = _gmul(a[0], 11) ^ _gmul(a[1], 13) ^ _gmul(a[2], 9) ^ _gmul(a[3], 14)


def encrypt_block(key: bytes, plaintext: bytes) -> bytes:
    """Encrypt one 16-byte block, one FIPS-197 round step at a time."""
    if len(plaintext) != BLOCK_SIZE:
        raise ValueError(f"plaintext block must be {BLOCK_SIZE} bytes, got {len(plaintext)}")
    round_keys = expand_key(key)
    state = bytearray(plaintext)
    _add_round_key(state, round_keys[0])
    for rnd in range(1, ROUNDS):
        _sub_bytes(state, SBOX)
        _shift_rows(state)
        _mix_columns(state)
        _add_round_key(state, round_keys[rnd])
    _sub_bytes(state, SBOX)
    _shift_rows(state)
    _add_round_key(state, round_keys[ROUNDS])
    return bytes(state)


def decrypt_block(key: bytes, ciphertext: bytes) -> bytes:
    """Decrypt one 16-byte block (the inverse cipher, FIPS-197 §5.3)."""
    if len(ciphertext) != BLOCK_SIZE:
        raise ValueError(f"ciphertext block must be {BLOCK_SIZE} bytes, got {len(ciphertext)}")
    round_keys = expand_key(key)
    state = bytearray(ciphertext)
    _add_round_key(state, round_keys[ROUNDS])
    for rnd in range(ROUNDS - 1, 0, -1):
        _inv_shift_rows(state)
        _sub_bytes(state, INV_SBOX)
        _add_round_key(state, round_keys[rnd])
        _inv_mix_columns(state)
    _inv_shift_rows(state)
    _sub_bytes(state, INV_SBOX)
    _add_round_key(state, round_keys[0])
    return bytes(state)
