"""Cryptographic substrate: AES-128 (AES-NI stand-in), the one-way function
``F`` for P-SSP-OWF, and deterministic entropy sources."""

from .aes import BLOCK_SIZE, KEY_SIZE, encrypt_block, expand_key
from .owf import owf_canary, owf_canary_words, owf_check
from .random import WORD_BITS, WORD_BYTES, WORD_MASK, EntropySource, terminator_free_word

__all__ = [
    "BLOCK_SIZE",
    "KEY_SIZE",
    "WORD_BITS",
    "WORD_BYTES",
    "WORD_MASK",
    "EntropySource",
    "encrypt_block",
    "expand_key",
    "owf_canary",
    "owf_canary_words",
    "owf_check",
    "terminator_free_word",
]
