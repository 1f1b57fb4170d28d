"""Campaign tracing: jobs-N byte-identity, Perfetto export, lost shards."""

import json

import pytest

from repro.errors import ShutdownRequested
from repro.fleet import campaign as campaign_module
from repro.fleet.campaign import run_fleet
from repro.trace import CampaignTrace, TraceConfig, replay_bundle

from ..parallel.shard_killer import kill_shard

CONFIG = TraceConfig(series_interval=25)


def traced_fleet(jobs):
    return run_fleet(
        200, schemes=("ssp", "pssp"), slice_requests=100, jobs=jobs,
        trace=CONFIG,
    )


@pytest.fixture(scope="module")
def serial_and_sharded():
    return traced_fleet(1), traced_fleet(2)


class TestJobsIdentity:
    def test_trace_is_byte_identical_under_jobs(self, serial_and_sharded):
        serial, sharded = serial_and_sharded
        assert json.dumps(serial.trace.to_json(), sort_keys=True) == \
            json.dumps(sharded.trace.to_json(), sort_keys=True)

    def test_perfetto_export_is_byte_identical(self, serial_and_sharded):
        serial, sharded = serial_and_sharded
        assert json.dumps(serial.trace.perfetto(), sort_keys=True) == \
            json.dumps(sharded.trace.perfetto(), sort_keys=True)

    def test_report_artifact_is_unchanged_by_tracing(
        self, serial_and_sharded
    ):
        serial, _ = serial_and_sharded
        untraced = run_fleet(200, schemes=("ssp", "pssp"), slice_requests=100)
        # The trace rides on the object, never in the committed artifact.
        assert "trace" not in serial.to_json()
        assert json.dumps(serial.to_json(), sort_keys=True) == \
            json.dumps(untraced.to_json(), sort_keys=True)

    def test_slices_arrive_in_scheme_seed_order(self, serial_and_sharded):
        _, sharded = serial_and_sharded
        order = [(t.scheme, t.seed) for t in sharded.trace.slices]
        assert order == [
            ("ssp", 20180625), ("ssp", 20180626),
            ("pssp", 20180625), ("pssp", 20180626),
        ]


class TestPerfettoShape:
    def test_container_and_events(self, serial_and_sharded):
        serial, _ = serial_and_sharded
        data = serial.trace.perfetto()
        assert data["traceEvents"]
        assert data["otherData"]["clock_hz"] > 0
        assert data["otherData"]["slices"] == 4
        phases = {event["ph"] for event in data["traceEvents"]}
        assert phases == {"M", "X", "i"}
        processes = {
            event["args"]["name"] for event in data["traceEvents"]
            if event["name"] == "process_name"
        }
        assert processes == {
            "ssp/slice-20180625", "ssp/slice-20180626",
            "pssp/slice-20180625", "pssp/slice-20180626",
        }

    def test_campaign_trace_roundtrip(self, serial_and_sharded):
        serial, _ = serial_and_sharded
        restored = CampaignTrace.from_json(serial.trace.to_json())
        assert restored.to_json() == serial.trace.to_json()
        assert json.dumps(restored.perfetto(), sort_keys=True) == \
            json.dumps(serial.trace.perfetto(), sort_keys=True)


class TestCheckpoint:
    def test_traced_campaign_resumes_to_the_uninterrupted_trace(
        self, serial_and_sharded, tmp_path, monkeypatch
    ):
        serial, _ = serial_and_sharded
        path = str(tmp_path / "ckpt.json")
        real = campaign_module.run_fleet_slice
        done = []

        def interrupting(*args, **kwargs):
            if len(done) == 3:
                raise ShutdownRequested("test interrupt")
            done.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(campaign_module, "run_fleet_slice", interrupting)
        with pytest.raises(ShutdownRequested):
            run_fleet(
                200, schemes=("ssp", "pssp"), slice_requests=100,
                trace=CONFIG, checkpoint_path=path,
            )
        monkeypatch.undo()
        # The checkpointed slices carry their traces, so the resumed
        # trace (and report) are those of an uninterrupted run.
        resumed = run_fleet(
            200, schemes=("ssp", "pssp"), slice_requests=100, jobs=2,
            trace=CONFIG, checkpoint_path=path, resume=True,
        )
        assert json.dumps(resumed.trace.to_json(), sort_keys=True) == \
            json.dumps(serial.trace.to_json(), sort_keys=True)
        assert json.dumps(resumed.to_json(), sort_keys=True) == \
            json.dumps(serial.to_json(), sort_keys=True)


class TestWorkerLoss:
    def test_lost_shard_leaves_a_replayable_bundle(self, monkeypatch):
        kill_shard(monkeypatch, 20180625, every_attempt=True)
        report = run_fleet(
            200, schemes=("ssp",), slice_requests=100, jobs=2,
            shard_retries=0, trace=CONFIG,
        )
        assert report.lost_slices > 0
        lost = report.trace.lost_bundles
        # The poisoned shard always leaves a bundle; the pool break can
        # occasionally take an in-flight bystander shard with it, so the
        # count is >= 1, not == 1.
        assert lost
        assert all(b["trigger"] == "worker-lost" for b in lost)
        lost_seeds = [seed for b in lost for seed in b["seeds"]]
        assert 20180625 in lost_seeds
        # Every slice either traced or left a lost bundle — no holes.
        assert len(report.trace.slices) + len(lost_seeds) == 2
        # And each bundle re-runs its lost seeds clean.
        for bundle in lost:
            result = replay_bundle(bundle)
            assert result.ok, result.divergences
