"""The campaign engine: one lost-unit contract across all five runners,
and the one checkpoint format.

Every runner (fuzz, chaos, attack, effectiveness, fleet) shards through
``repro.parallel.campaign``.  A shard killed on its first attempt must
be re-queued into a report equal to the serial one; a shard killed on
every attempt must surface as that runner's typed loss.
"""

import dataclasses
import json
from functools import lru_cache

import pytest

from repro.attacks.trials import attack_campaign
from repro.errors import CampaignError
from repro.faults.campaign import run_campaign
from repro.fleet.campaign import run_fleet
from repro.fuzz.fuzzer import run_fuzz
from repro.harness.tables import effectiveness
from repro.parallel import campaign as engine

from .shard_killer import kill_shard


def _without_attempts(data):
    """Drop the retry bookkeeping a re-queued shard legitimately adds."""
    if isinstance(data, dict):
        return {
            key: _without_attempts(value) for key, value in data.items()
            if key not in ("shard_attempts", "slices_retried")
        }
    if isinstance(data, list):
        return [_without_attempts(value) for value in data]
    return data


def _fuzz(jobs):
    report = run_fuzz(4, base_seed=2018, shrink=False, health=False, jobs=jobs)
    return report, report.to_json()


def _fuzz_lost(report):
    (lost,) = [f for f in report.health_failures if f.kind == "worker-lost"]
    assert "2018" in lost.detail
    assert report.infra_only
    assert report.programs_checked == 3


def _chaos(jobs):
    report = run_campaign(4, base_seed=2018, jobs=jobs)
    return report, report.to_json()


def _chaos_lost(report):
    assert [seed for seed, _ in report.infra_errors] == [2018]
    assert "worker lost" in report.infra_errors[0][1]
    assert [run.seed for run in report.runs] == [2019, 2020, 2021]


def _attack(jobs):
    report = attack_campaign(
        "pssp", base_seed=4000, repeats=2, max_trials=200, jobs=jobs
    )
    return report, report.to_json()


def _attack_lost(report):
    assert report.lost == [4000]
    assert [trial.seed for trial in report.trials] == [4001]
    assert "LOST" in report.render()


def _effectiveness(jobs):
    report = effectiveness(max_trials=200, compat_runs=1, jobs=jobs)
    return report, dataclasses.asdict(report)


def _effectiveness_lost(report):
    # The lost cell was re-run in-process: the grid is complete and in
    # canonical order, exactly as the serial run left it.
    assert dataclasses.asdict(report) == _serial("effectiveness")


def _fleet(jobs):
    report = run_fleet(200, schemes=("pssp",), slice_requests=100, jobs=jobs)
    return report, report.to_json()


def _fleet_lost(report):
    scheme = report.reports[0]
    assert scheme.lost == [20180625]
    assert [s.seed for s in scheme.slices] == [20180626]
    assert report.lost_slices == 1


#: name -> (run(jobs) -> (report, fingerprint), first seed, typed-loss check)
ADAPTERS = {
    "fuzz": (_fuzz, 2018, _fuzz_lost),
    "chaos": (_chaos, 2018, _chaos_lost),
    "attack": (_attack, 4000, _attack_lost),
    "effectiveness": (_effectiveness, 0, _effectiveness_lost),
    "fleet": (_fleet, 20180625, _fleet_lost),
}


@lru_cache(maxsize=None)
def _serial_json(name):
    return json.dumps(ADAPTERS[name][0](1)[1], sort_keys=True)


def _serial(name):
    return json.loads(_serial_json(name))


@pytest.mark.parametrize("name", sorted(ADAPTERS))
class TestLostUnits:
    def test_sharded_report_equals_serial(self, name):
        _, data = ADAPTERS[name][0](2)
        assert json.loads(json.dumps(data)) == _serial(name)

    def test_shard_killed_once_is_requeued_to_the_serial_report(
        self, name, monkeypatch
    ):
        run, first_seed, _ = ADAPTERS[name]
        kill_shard(monkeypatch, first_seed, every_attempt=False)
        report, data = run(2)
        attempts = getattr(report, "shard_attempts", None)
        if attempts is None and hasattr(report, "reports"):
            attempts = report.reports[0].shard_attempts
        if attempts is not None:  # effectiveness keeps no bookkeeping
            assert 2 in attempts.values()
        assert _without_attempts(json.loads(json.dumps(data))) \
            == _without_attempts(_serial(name))

    def test_shard_killed_every_attempt_is_a_typed_loss(
        self, name, monkeypatch
    ):
        run, first_seed, check_lost = ADAPTERS[name]
        kill_shard(monkeypatch, first_seed, every_attempt=True)
        report, _ = run(2)
        check_lost(report)


class TestCheckpoint:
    def _checkpoint(self, path, **header):
        return engine.Checkpoint(str(path), "test-checkpoint", header)

    def test_resume_merges_checkpointed_units_without_rerunning(
        self, tmp_path
    ):
        path = tmp_path / "ckpt.json"
        calls, merged = [], []

        def unit(config, seed):
            calls.append(seed)
            return {"seed": seed, "scale": config["scale"] * seed}

        plain = dict(encode=dict, decode=dict, lost=None)
        engine.run_units(
            unit, {"scale": 3}, 10, 2, merge=lambda seed, value: None,
            checkpoint=self._checkpoint(path, scale=3), **plain,
        )
        resumed = engine.open_checkpoint(
            str(path), "test-checkpoint", {"scale": 3}, resume=True
        )
        engine.run_units(
            unit, {"scale": 3}, 10, 4,
            merge=lambda seed, value: merged.append(value),
            checkpoint=resumed, **plain,
        )
        assert calls == [10, 11, 12, 13]  # 10 and 11 ran once only
        assert merged == [{"seed": s, "scale": 3 * s} for s in range(10, 14)]
        data = json.loads(path.read_text())
        assert data["version"] == engine.CHECKPOINT_VERSION
        assert sorted(data["units"]["units"]) == ["10", "11", "12", "13"]

    def test_different_campaign_is_a_typed_error(self, tmp_path):
        path = tmp_path / "ckpt.json"
        self._checkpoint(path, scale=3).save()
        with pytest.raises(CampaignError, match="scale"):
            self._checkpoint(path, scale=4).load()

    def test_old_version_is_a_typed_error(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps({
            "version": 1, "kind": "test-checkpoint", "scale": 3, "slices": {},
        }))
        with pytest.raises(CampaignError, match="version"):
            self._checkpoint(path, scale=3).load()

    @pytest.mark.parametrize("text", ['{"version": 2, "ki', "[1, 2]", ""])
    def test_corrupt_file_is_a_typed_error(self, tmp_path, text):
        path = tmp_path / "ckpt.json"
        path.write_text(text)
        with pytest.raises(CampaignError):
            self._checkpoint(path, scale=3).load()

    def test_failed_save_leaves_the_previous_checkpoint(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "ckpt.json"
        checkpoint = self._checkpoint(path, scale=3)
        checkpoint.record("units", 1, {"ok": True})
        checkpoint.save()
        before = path.read_text()

        def torn_dump(payload, handle):
            handle.write('{"version": 2, "units": {')
            raise OSError("disk full")

        monkeypatch.setattr(engine.json, "dump", torn_dump)
        checkpoint.record("units", 2, {"ok": True})
        with pytest.raises(OSError):
            checkpoint.save()
        assert path.read_text() == before

    def test_resume_needs_a_path(self):
        with pytest.raises(ValueError, match="checkpoint path"):
            engine.open_checkpoint(None, "test-checkpoint", {}, resume=True)
