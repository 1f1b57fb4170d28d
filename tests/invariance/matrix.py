"""The invariance matrix: each equivalence knob declared once, run in rows.

A row is one value per knob ("0" = default, "1" = flipped, in
``KNOBS`` order).  ``python tests/invariance/matrix.py ROW OUT`` runs
one row in this process (the env knobs are set by the caller, see
:func:`row_env`) and writes, per corpus, the sha256 of each canonical
artifact plus the evidence that the row's knobs acted.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
ALL = ("fleet", "chaos", "fuzz", "interp")
FLEET = ("fleet", "chaos")
#: Fleet corpus size: requests per scheme, in slices of SLICE requests.
#: Over 16 units per stream, so every shard of a sharded run holds
#: more than one unit (see ``repro.parallel.sharding``).
BUDGET, SLICE = 600, 30

#: knob -> (how it is set, default value, flipped value, corpora it acts
#: on).  A corpus left out is n/a: no public API reaches the knob there.
KNOBS = {
    "jit": ("env REPRO_JIT", "1", "0", ALL),
    "cow": ("env REPRO_COW_FORK", "1", "0", ALL),
    "fast": ("deploy(fast=)", True, False, ("interp",)),
    "telemetry": ("telemetry.enable/disable", True, False, ALL),
    "trace": ("run_fleet(trace=TraceConfig)", False, True, FLEET),
    "jobs": ("jobs=", 1, 2, ("fleet", "chaos", "fuzz")),
    "resume": ("checkpoint half the slices, then resume", False, True, FLEET),
    "snapcache": ("REPRO_SNAPSHOT_CACHE=0 / prefilled REPRO_SNAPSHOT_DIR",
                  "cold", "warm", ALL),
    "hashseed": ("env PYTHONHASHSEED", "0", "12345", ALL),
}

#: The default row, one row per single flip, then rows 1-5 of a
#: six-row binary covering array (row 0 is the default): knob i is
#: flipped in the rows of the i-th 3-subset of {1..5}.
ROWS = ["000000000"] + [
    "0" * i + "1" + "0" * (len(KNOBS) - i - 1) for i in range(len(KNOBS))
] + ["111111000", "111000111", "100110110", "010101101", "001011011"]


def values(row):
    return {k: spec[1 + int(bit)] for (k, spec), bit in zip(KNOBS.items(), row)}


def corpora(row):
    """Corpora a row runs: all for the default, else those a flip reaches."""
    flipped = [k for k, bit in zip(KNOBS, row) if bit == "1"]
    return [c for c in ALL if not flipped or any(c in KNOBS[k][3] for k in flipped)]


def row_env(row, snapshot_dir):
    v = values(row)
    env = {"REPRO_JIT": v["jit"], "REPRO_COW_FORK": v["cow"],
           "PYTHONHASHSEED": v["hashseed"]}
    if v["snapcache"] == "warm":
        env["REPRO_SNAPSHOT_DIR"] = snapshot_dir
    else:
        env["REPRO_SNAPSHOT_CACHE"] = "0"
    return env


class _Interrupt(Exception):
    pass


def _fleet(v, chaos, workdir):
    from repro import telemetry
    from repro.fleet import run_fleet
    from repro.trace import TraceConfig, canonical_json

    schemes = ("pssp", "pssp-nt-hardened") if chaos else ("ssp", "pssp")
    kwargs = dict(schemes=schemes, slice_requests=SLICE, chaos=chaos,
                  trace=TraceConfig(series_interval=25) if v["trace"] else None)
    evidence = {}
    if v["resume"]:
        path = os.path.join(workdir, f"chaos{chaos}.ckpt")

        def stop(message):  # a kill once the first scheme's slices land
            if message.startswith(f"{schemes[0]}: {BUDGET // SLICE}/"):
                raise _Interrupt

        try:
            run_fleet(BUDGET, checkpoint_path=path, progress=stop, **kwargs)
        except _Interrupt:
            pass
        kwargs.update(checkpoint_path=path, resume=True)
    before = telemetry.counter_value("fleet_requests_total")
    report = run_fleet(BUDGET, jobs=v["jobs"], **kwargs)
    served = telemetry.counter_value("fleet_requests_total") - before
    evidence["requests_from_checkpoint"] = report.total_requests - served
    artifacts = {"report": canonical_json(report.to_json())}
    if report.trace is not None:
        artifacts["trace"] = canonical_json(report.trace.to_json())
        artifacts["perfetto"] = canonical_json(report.trace.perfetto())
        evidence["spans"] = sum(len(s.spans) for s in report.trace.slices)
    return artifacts, evidence


def _fuzz(v, workdir):
    from repro.fuzz.fuzzer import run_fuzz

    report = run_fuzz(18, shrink=False, health=False, jobs=v["jobs"])
    return {"report": json.dumps(report.to_json(), sort_keys=True)}, {}


def _interp(v, workdir):
    """The bench micro sources, a SPEC subset and a fork, one process each."""
    sys.path.insert(0, str(ROOT / "benchmarks"))
    from bench_fork import WORKLOAD as FORK_SOURCE
    from bench_interpreter import WORKLOADS

    from repro import Kernel, build, deploy, telemetry
    from repro.machine.debug import snapshot_digest
    from repro.workloads.spec import program

    runs = [(name, scheme, source.replace("%ITER%", str(iterations)))
            for name, scheme, source, _, iterations in WORKLOADS]
    runs += [(n, "pssp", program(n).source) for n in ("perlbench", "gcc", "mcf", "lbm")]
    artifacts = {}
    for name, scheme, source in runs:
        process, _ = deploy(Kernel(seed=42), build(source, scheme, name="bench"),
                            scheme, cycle_limit=4_000_000_000, fast=v["fast"])
        process.run()
        process.call("main")
        artifacts[name] = snapshot_digest(process)
    parent, _ = deploy(Kernel(9001), build(FORK_SOURCE, "pssp", name="forkbench"),
                       "pssp", fast=v["fast"])
    parent.run()
    before = telemetry.counter_value("memory_pages_shared_total")
    child = parent.kernel.fork(parent)
    shared = telemetry.counter_value("memory_pages_shared_total") - before
    child.call("handler", (3,))
    artifacts["fork.child"] = snapshot_digest(child)
    artifacts["fork.parent"] = snapshot_digest(parent)
    return artifacts, {"fork_pages_shared": shared}


CORPORA = {
    "fleet": lambda v, d: _fleet(v, False, d),
    "chaos": lambda v, d: _fleet(v, True, d),
    "fuzz": _fuzz,
    "interp": _interp,
}

#: Counters read as evidence that a knob acted.
COUNTERS = ("jit_block_entries_total", "decode_binds_total",
            "snapshot_cache_disk_hits_total", "machine_instructions_total")


def run_row(row):
    from repro import telemetry

    v = values(row)
    out = {}
    with tempfile.TemporaryDirectory() as workdir:
        for corpus in corpora(row):
            # Each corpus starts at the knob's value (tracing turns it on).
            (telemetry.enable if v["telemetry"] else telemetry.disable)()
            before = telemetry.snapshot()
            usage = resource.getrusage(resource.RUSAGE_CHILDREN)
            artifacts, evidence = CORPORA[corpus](v, workdir)
            after = resource.getrusage(resource.RUSAGE_CHILDREN)
            delta = telemetry.delta(before)
            evidence["worker_cpu"] = after.ru_utime - usage.ru_utime
            evidence.update({c: delta.get(c, 0) for c in COUNTERS})
            out[corpus] = {
                "bytes": {name: hashlib.sha256(blob.encode()).hexdigest()
                          for name, blob in artifacts.items()},
                "evidence": evidence,
            }
    return out


if __name__ == "__main__":
    Path(sys.argv[2]).write_text(json.dumps(run_row(sys.argv[1]), indent=1))
