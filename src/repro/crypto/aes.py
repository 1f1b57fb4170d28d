"""Table-driven AES-128, standing in for Intel AES-NI.

P-SSP-OWF (paper §IV-C / §V-E3) computes the stack canary as
``AES_ENCRYPT_128(key = TLS canary, plaintext = rdtsc || return-address)``,
one block per protected prologue and one per epilogue.  The paper relies
on AES-NI being cheap; here two things keep a block cheap on the host:

* **T-tables.**  The state is four big-endian 32-bit column words, and
  ``_T0[x]`` is the MixColumns column ``(2·S(x), S(x), S(x), 3·S(x))``
  (``_T1``..``_T3`` are its byte rotations), so an inner round is 16
  lookups and XORs with SubBytes, ShiftRows and MixColumns folded in.
  The tables are built once at import from :data:`SBOX` with
  :func:`_xtime`.
* **A per-key schedule cache.**  The key (the TLS canary) is fixed for a
  process's life and inherited across ``fork``, so round keys of the
  last :data:`SCHEDULE_CACHE_SIZE` keys are kept, oldest evicted first.
  A miss calls :func:`expand_key` and ticks
  ``aes_key_schedules_built_total``.

The cache is safe: it memoises a pure function of the key bytes and
stays in host memory, out of reach of any simulated instruction, and the
native's simulated cost is a fixed table entry (``AES_HELPER_COST``), so
no simulated cycle depends on it.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Tuple

from .. import telemetry

BLOCK_SIZE = 16
KEY_SIZE = 16
ROUNDS = 10

#: Distinct keys whose round keys :func:`encrypt_block` keeps.
SCHEDULE_CACHE_SIZE = 64

# FIPS-197 S-box.
SBOX = bytes(
    [
        0x63, 0x7C, 0x77, 0x7B, 0xF2, 0x6B, 0x6F, 0xC5, 0x30, 0x01, 0x67, 0x2B, 0xFE, 0xD7, 0xAB, 0x76,
        0xCA, 0x82, 0xC9, 0x7D, 0xFA, 0x59, 0x47, 0xF0, 0xAD, 0xD4, 0xA2, 0xAF, 0x9C, 0xA4, 0x72, 0xC0,
        0xB7, 0xFD, 0x93, 0x26, 0x36, 0x3F, 0xF7, 0xCC, 0x34, 0xA5, 0xE5, 0xF1, 0x71, 0xD8, 0x31, 0x15,
        0x04, 0xC7, 0x23, 0xC3, 0x18, 0x96, 0x05, 0x9A, 0x07, 0x12, 0x80, 0xE2, 0xEB, 0x27, 0xB2, 0x75,
        0x09, 0x83, 0x2C, 0x1A, 0x1B, 0x6E, 0x5A, 0xA0, 0x52, 0x3B, 0xD6, 0xB3, 0x29, 0xE3, 0x2F, 0x84,
        0x53, 0xD1, 0x00, 0xED, 0x20, 0xFC, 0xB1, 0x5B, 0x6A, 0xCB, 0xBE, 0x39, 0x4A, 0x4C, 0x58, 0xCF,
        0xD0, 0xEF, 0xAA, 0xFB, 0x43, 0x4D, 0x33, 0x85, 0x45, 0xF9, 0x02, 0x7F, 0x50, 0x3C, 0x9F, 0xA8,
        0x51, 0xA3, 0x40, 0x8F, 0x92, 0x9D, 0x38, 0xF5, 0xBC, 0xB6, 0xDA, 0x21, 0x10, 0xFF, 0xF3, 0xD2,
        0xCD, 0x0C, 0x13, 0xEC, 0x5F, 0x97, 0x44, 0x17, 0xC4, 0xA7, 0x7E, 0x3D, 0x64, 0x5D, 0x19, 0x73,
        0x60, 0x81, 0x4F, 0xDC, 0x22, 0x2A, 0x90, 0x88, 0x46, 0xEE, 0xB8, 0x14, 0xDE, 0x5E, 0x0B, 0xDB,
        0xE0, 0x32, 0x3A, 0x0A, 0x49, 0x06, 0x24, 0x5C, 0xC2, 0xD3, 0xAC, 0x62, 0x91, 0x95, 0xE4, 0x79,
        0xE7, 0xC8, 0x37, 0x6D, 0x8D, 0xD5, 0x4E, 0xA9, 0x6C, 0x56, 0xF4, 0xEA, 0x65, 0x7A, 0xAE, 0x08,
        0xBA, 0x78, 0x25, 0x2E, 0x1C, 0xA6, 0xB4, 0xC6, 0xE8, 0xDD, 0x74, 0x1F, 0x4B, 0xBD, 0x8B, 0x8A,
        0x70, 0x3E, 0xB5, 0x66, 0x48, 0x03, 0xF6, 0x0E, 0x61, 0x35, 0x57, 0xB9, 0x86, 0xC1, 0x1D, 0x9E,
        0xE1, 0xF8, 0x98, 0x11, 0x69, 0xD9, 0x8E, 0x94, 0x9B, 0x1E, 0x87, 0xE9, 0xCE, 0x55, 0x28, 0xDF,
        0x8C, 0xA1, 0x89, 0x0D, 0xBF, 0xE6, 0x42, 0x68, 0x41, 0x99, 0x2D, 0x0F, 0xB0, 0x54, 0xBB, 0x16,
    ]
)

RCON = (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36)


def _xtime(a: int) -> int:
    """Multiply by x in GF(2^8) modulo the AES polynomial."""
    a <<= 1
    if a & 0x100:
        a ^= 0x11B
    return a & 0xFF


def _t_tables() -> List[Tuple[int, ...]]:
    tables = [tuple(
        (_xtime(s) << 24) | (s << 16) | (s << 8) | (_xtime(s) ^ s) for s in SBOX
    )]
    for _ in range(3):  # each next table is the previous rotated right a byte
        tables.append(tuple((w >> 8) | (w & 0xFF) << 24 for w in tables[-1]))
    return tables


_T0, _T1, _T2, _T3 = _t_tables()

_WORDS = struct.Struct(">4I")

#: key bytes -> the 44 round-key words (insertion order = age).
_SCHEDULES: Dict[bytes, Tuple[int, ...]] = {}


def expand_key(key: bytes) -> List[bytes]:
    """Expand a 16-byte key into 11 round keys (FIPS-197 §5.2)."""
    if len(key) != KEY_SIZE:
        raise ValueError(f"AES-128 key must be {KEY_SIZE} bytes, got {len(key)}")
    words = [key[i : i + 4] for i in range(0, 16, 4)]
    for i in range(4, 4 * (ROUNDS + 1)):
        temp = bytearray(words[i - 1])
        if i % 4 == 0:
            temp = temp[1:] + temp[:1]
            temp = bytearray(SBOX[b] for b in temp)
            temp[0] ^= RCON[i // 4 - 1]
        words.append(bytes(a ^ b for a, b in zip(words[i - 4], temp)))
    return [b"".join(words[4 * r : 4 * r + 4]) for r in range(ROUNDS + 1)]


def _schedule(key: bytes) -> Tuple[int, ...]:
    """Round-key words for ``key``, expanding and caching on a miss."""
    words = tuple(
        word for round_key in expand_key(key) for word in _WORDS.unpack(round_key)
    )
    if len(_SCHEDULES) >= SCHEDULE_CACHE_SIZE:
        del _SCHEDULES[next(iter(_SCHEDULES))]
    _SCHEDULES[key] = words
    telemetry.count(
        "aes_key_schedules_built_total",
        help="AES-128 key schedules expanded (schedule-cache misses)",
    )
    return words


def encrypt_block(key: bytes, plaintext: bytes) -> bytes:
    """Encrypt one 16-byte block with AES-128 (models ``AES_ENCRYPT_128``)."""
    if len(plaintext) != BLOCK_SIZE:
        raise ValueError(f"plaintext block must be {BLOCK_SIZE} bytes, got {len(plaintext)}")
    rk = _SCHEDULES.get(key) or _schedule(key)
    t0, t1, t2, t3 = _T0, _T1, _T2, _T3
    s0, s1, s2, s3 = _WORDS.unpack(plaintext)
    s0 ^= rk[0]
    s1 ^= rk[1]
    s2 ^= rk[2]
    s3 ^= rk[3]
    for i in range(4, 40, 4):
        s0, s1, s2, s3 = (
            t0[s0 >> 24] ^ t1[s1 >> 16 & 255] ^ t2[s2 >> 8 & 255] ^ t3[s3 & 255] ^ rk[i],
            t0[s1 >> 24] ^ t1[s2 >> 16 & 255] ^ t2[s3 >> 8 & 255] ^ t3[s0 & 255] ^ rk[i + 1],
            t0[s2 >> 24] ^ t1[s3 >> 16 & 255] ^ t2[s0 >> 8 & 255] ^ t3[s1 & 255] ^ rk[i + 2],
            t0[s3 >> 24] ^ t1[s0 >> 16 & 255] ^ t2[s1 >> 8 & 255] ^ t3[s2 & 255] ^ rk[i + 3],
        )
    # Last round: no MixColumns.  Each T-table holds plain S(x) in one
    # byte lane (_T2 the top, _T3 the second, _T0 the third, _T1 the
    # bottom), so masking that lane is SubBytes alone.
    return _WORDS.pack(
        (t2[s0 >> 24] & 0xFF000000 ^ t3[s1 >> 16 & 255] & 0xFF0000
         ^ t0[s2 >> 8 & 255] & 0xFF00 ^ t1[s3 & 255] & 0xFF) ^ rk[40],
        (t2[s1 >> 24] & 0xFF000000 ^ t3[s2 >> 16 & 255] & 0xFF0000
         ^ t0[s3 >> 8 & 255] & 0xFF00 ^ t1[s0 & 255] & 0xFF) ^ rk[41],
        (t2[s2 >> 24] & 0xFF000000 ^ t3[s3 >> 16 & 255] & 0xFF0000
         ^ t0[s0 >> 8 & 255] & 0xFF00 ^ t1[s1 & 255] & 0xFF) ^ rk[42],
        (t2[s3 >> 24] & 0xFF000000 ^ t3[s0 >> 16 & 255] & 0xFF0000
         ^ t0[s1 >> 8 & 255] & 0xFF00 ^ t1[s2 & 255] & 0xFF) ^ rk[43],
    )
