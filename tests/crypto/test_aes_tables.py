"""The table-driven cipher against published vectors and the bitwise
oracle, and the per-key schedule cache behind it."""

import json
import random

import pytest

from repro import cli, telemetry
from repro.crypto import aes

from . import reference_aes

SCHEDULES_BUILT = "aes_key_schedules_built_total"

# NIST SP 800-38A, F.1.1 ECB-AES128.Encrypt.
SP800_38A_KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
SP800_38A_BLOCKS = (
    ("6bc1bee22e409f96e93d7e117393172a", "3ad77bb40d7a3660a89ecaf32466ef97"),
    ("ae2d8a571e03ac9c9eb76fac45af8e51", "f5d3d58503b9699de785895a96fdbaaf"),
    ("30c81c46a35ce411e5fbc1191a0a52ef", "43b1cd7f598ece23881b00e3ed030688"),
    ("f69f2445df4f9b17ad2b417be66c3710", "7b0c785e27e8ad3f8223207104725dd4"),
)

# FIPS-197 Appendix B and C.1 (test_aes.py checks the table-driven cipher).
FIPS_VECTORS = (
    ("2b7e151628aed2a6abf7158809cf4f3c", "3243f6a8885a308d313198a2e0370734",
     "3925841d02dc09fbdc118597196a0b32"),
    ("000102030405060708090a0b0c0d0e0f", "00112233445566778899aabbccddeeff",
     "69c4e0d86a7b0430d8cdb78070b4c55a"),
)


def schedules_built() -> float:
    return telemetry.counter_value(SCHEDULES_BUILT)


@pytest.fixture
def empty_cache(monkeypatch):
    """A fresh schedule cache, so every key starts as a miss."""
    monkeypatch.setattr(aes, "_SCHEDULES", {})


class TestPublishedVectors:
    @pytest.mark.parametrize("plaintext,ciphertext", SP800_38A_BLOCKS)
    def test_sp800_38a_ecb_aes128(self, plaintext, ciphertext):
        block = aes.encrypt_block(SP800_38A_KEY, bytes.fromhex(plaintext))
        assert block.hex() == ciphertext

    @pytest.mark.parametrize("key,plaintext,ciphertext", FIPS_VECTORS)
    def test_oracle_matches_fips_197(self, key, plaintext, ciphertext):
        key, plaintext = bytes.fromhex(key), bytes.fromhex(plaintext)
        assert reference_aes.encrypt_block(key, plaintext).hex() == ciphertext


def test_matches_bitwise_oracle_on_seeded_random_pairs():
    rng = random.Random(20180625)
    for _ in range(2000):
        key, plaintext = rng.randbytes(16), rng.randbytes(16)
        assert aes.encrypt_block(key, plaintext) == reference_aes.encrypt_block(
            key, plaintext
        )


class TestScheduleCache:
    def test_hit_builds_no_schedule(self, empty_cache):
        key, plaintext = SP800_38A_KEY, bytes(16)
        aes.encrypt_block(key, plaintext)
        before = schedules_built()
        for _ in range(5):
            aes.encrypt_block(key, plaintext)
        assert schedules_built() == before

    def test_miss_expands_through_the_module_global(self, empty_cache, monkeypatch):
        calls = []
        real = aes.expand_key

        def counting(key):
            calls.append(key)
            return real(key)

        monkeypatch.setattr(aes, "expand_key", counting)
        before = schedules_built()
        aes.encrypt_block(SP800_38A_KEY, bytes(16))
        aes.encrypt_block(SP800_38A_KEY, bytes(16))
        assert calls == [SP800_38A_KEY]
        assert schedules_built() == before + 1

    def test_overflow_evicts_and_first_key_stays_correct(self, empty_cache):
        rng = random.Random(7)
        keys = [rng.randbytes(16) for _ in range(aes.SCHEDULE_CACHE_SIZE + 5)]
        plaintext = rng.randbytes(16)
        expected = reference_aes.encrypt_block(keys[0], plaintext)
        before = schedules_built()
        for key in keys:
            aes.encrypt_block(key, plaintext)
        assert len(aes._SCHEDULES) == aes.SCHEDULE_CACHE_SIZE
        assert keys[0] not in aes._SCHEDULES
        assert aes.encrypt_block(keys[0], plaintext) == expected
        assert schedules_built() == before + len(keys) + 1

    @pytest.mark.parametrize("key", [b"", b"short", bytes(15), bytes(17)])
    def test_bad_key_raises_and_is_never_cached(self, empty_cache, key):
        before = schedules_built()
        with pytest.raises(ValueError):
            aes.encrypt_block(key, bytes(16))
        assert aes._SCHEDULES == {}
        assert schedules_built() == before

    @pytest.mark.parametrize("size", [15, 17])
    def test_bad_block_size_rejected(self, size):
        with pytest.raises(ValueError):
            aes.encrypt_block(SP800_38A_KEY, bytes(size))


class TestScheduleCounter:
    def test_owf_stats_builds_fewer_schedules_than_blocks(self, empty_cache, capsys):
        assert cli.main(["stats", "--schemes", "pssp-owf", "--json"]) == 0
        delta = json.loads(capsys.readouterr().out)["schemes"]["pssp-owf"]
        blocks = (
            delta["canary_prologue_stores_total"]
            + delta["canary_epilogue_checks_total"]
        )
        assert 1 <= delta[SCHEDULES_BUILT] < blocks

    def test_stats_table_and_prometheus_show_it(self, empty_cache, capsys):
        assert cli.main(["stats", "--schemes", "pssp-owf"]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert "aes_schedules" in header.split()
        assert cli.main(["stats", "--schemes", "pssp-owf", "--prom"]) == 0
        out = capsys.readouterr().out
        assert f"# HELP {SCHEDULES_BUILT} " in out
        assert f"# TYPE {SCHEDULES_BUILT} counter" in out
