"""The determinism invariant: ``jobs=N`` reports ≡ ``jobs=1`` reports.

The quick tests here run small campaigns; the ``slow``-marked ones at
the bottom are the 50-case acceptance versions run by the scheduled CI
jobs.  Worker crashes go through the engine's one worker seam
(``shard_killer.kill_shard``).
"""

import json

import pytest

from repro import telemetry
from repro.attacks.trials import attack_campaign
from repro.faults.campaign import run_campaign
from repro.fuzz.fuzzer import run_fuzz

from .shard_killer import kill_shard


def _fuzz_json(report):
    return json.dumps(report.to_json(), sort_keys=True)


def _chaos_json(report):
    return json.dumps(report.to_json(), sort_keys=True)


class TestFuzzBitIdentity:
    def test_small_campaign_identical_across_jobs(self):
        serial = run_fuzz(10, base_seed=2018, shrink=False, health=False)
        pooled = run_fuzz(
            10, base_seed=2018, shrink=False, health=False, jobs=2
        )
        assert _fuzz_json(serial) == _fuzz_json(pooled)

    def test_telemetry_counts_match_serial(self):
        before = telemetry.snapshot()
        run_fuzz(6, base_seed=3000, shrink=False, health=False)
        serial_delta = telemetry.delta(before)
        before = telemetry.snapshot()
        run_fuzz(6, base_seed=3000, shrink=False, health=False, jobs=2)
        pooled_delta = telemetry.delta(before)
        for name in ("fuzz_programs_total", "fuzz_runs_total"):
            assert serial_delta.get(name) == pooled_delta.get(name)

    def test_report_json_roundtrip(self):
        report = run_fuzz(4, base_seed=2018, shrink=False, health=False)
        from repro.fuzz.fuzzer import FuzzReport

        assert _fuzz_json(FuzzReport.from_json(report.to_json())) \
            == _fuzz_json(report)


class TestChaosBitIdentity:
    def test_small_campaign_identical_across_jobs(self):
        serial = run_campaign(8, base_seed=2018)
        pooled = run_campaign(8, base_seed=2018, jobs=2)
        assert _chaos_json(serial) == _chaos_json(pooled)

    def test_scheme_filter_identical_across_jobs(self):
        serial = run_campaign(8, base_seed=2018, schemes=("pssp",))
        pooled = run_campaign(8, base_seed=2018, schemes=("pssp",), jobs=2)
        assert _chaos_json(serial) == _chaos_json(pooled)

    def test_parallel_checkpoint_resumes_serially(self, tmp_path):
        path = str(tmp_path / "chaos.json")
        first = run_campaign(6, base_seed=2018, jobs=2, checkpoint_path=path)
        resumed = run_campaign(
            6, base_seed=2018, checkpoint_path=path, resume=True
        )
        assert _chaos_json(resumed) == _chaos_json(first)


class TestAttackBitIdentity:
    def test_campaign_identical_across_jobs(self):
        serial = attack_campaign(
            "pssp", base_seed=4000, repeats=4, max_trials=300
        )
        pooled = attack_campaign(
            "pssp", base_seed=4000, repeats=4, max_trials=300, jobs=2
        )
        assert json.dumps(serial.to_json()) == json.dumps(pooled.to_json())


# -- worker-crash handling ----------------------------------------------------


class TestWorkerLoss:
    def test_killed_fuzz_worker_retried_to_full_report(self, monkeypatch):
        serial = run_fuzz(6, base_seed=2018, shrink=False, health=False)
        kill_shard(monkeypatch, 2018, every_attempt=False)
        pooled = run_fuzz(
            6, base_seed=2018, shrink=False, health=False, jobs=2
        )
        # The retry absorbed the crash (and was recorded): the payload
        # is still complete and bit-identical to the serial run.
        assert any(a == 2 for a in pooled.shard_attempts.values())
        pooled.shard_attempts = {}
        assert _fuzz_json(serial) == _fuzz_json(pooled)

    def test_lost_fuzz_shard_reported_never_dropped(self, monkeypatch):
        kill_shard(monkeypatch, 2018, every_attempt=True)
        report = run_fuzz(
            6, base_seed=2018, shrink=False, health=False, jobs=2
        )
        # The poisoned shard became an explicit worker-lost failure...
        lost = [f for f in report.health_failures if f.kind == "worker-lost"]
        assert len(lost) == 1
        assert "2018" in lost[0].detail
        # ...which the CLI maps to the infrastructure exit code.
        assert not report.ok
        assert report.infra_only
        # Every other shard still contributed its seeds.
        assert report.programs_checked == 5

    def test_lost_chaos_shard_becomes_infra_errors(self, monkeypatch):
        kill_shard(monkeypatch, 2019, every_attempt=True)
        report = run_campaign(6, base_seed=2018, jobs=2)
        # The lost shard's seed surfaced as a per-seed infra error
        # (exit 3 at the CLI), and every other seed completed.
        assert [seed for seed, _ in report.infra_errors] == [2019]
        assert "worker lost" in report.infra_errors[0][1]
        assert sorted(run.seed for run in report.runs) \
            == [2018, 2020, 2021, 2022, 2023]


# -- acceptance-scale campaigns (scheduled CI) --------------------------------


@pytest.mark.slow
@pytest.mark.fuzz
def test_fuzz_50_program_bit_identity():
    serial = run_fuzz(50, base_seed=2018, shrink=False, health=False)
    pooled = run_fuzz(
        50, base_seed=2018, shrink=False, health=False, jobs=4
    )
    assert _fuzz_json(serial) == _fuzz_json(pooled)


@pytest.mark.slow
@pytest.mark.fuzz
def test_chaos_50_schedule_bit_identity():
    serial = run_campaign(50, base_seed=2018)
    pooled = run_campaign(50, base_seed=2018, jobs=4)
    assert _chaos_json(serial) == _chaos_json(pooled)
