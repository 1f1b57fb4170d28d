#!/usr/bin/env python
"""Tracing plane benchmark: replay fidelity and observer overhead.

This benchmark gates two legs of the trace plane's contract:

1. **Replay fidelity** — every post-mortem bundle captured during a
   breachy slice must replay exactly: re-running the recorded slice
   identity regenerates the bundle byte-for-byte (exit 2 on drift).
2. **Observer overhead** — the real work a tracer performs (span and
   ring bookkeeping, counter deltas, COW page stats per fork) must stay
   within ``--on-threshold`` (default 25%) of untraced fleet throughput
   by geomean across schemes (exit 1 on regression).

The rest of the contract is gated elsewhere.  The invariance matrix
(``tests/invariance``) checks that traced runs reproduce the untraced
report and that the trace and Perfetto bytes are the same under every
``--jobs``, resume and interpreter setting.  The traces-off fast path
is held to its ceiling by ``bench_telemetry.py``.

Usage::

    python benchmarks/bench_trace.py                  # CI-sized run
    python benchmarks/bench_trace.py --json OUT.json  # write results

The committed ``benchmarks/BENCH_trace.json`` records a reference run;
CI regenerates the measurement and enforces the gates on every push
(the gates are absolute, so the reference file is a record, not a
moving baseline).

Exit status: 0 on success, 1 if the overhead gate fails, 2 on a replay
violation.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.fleet.campaign import run_fleet_slice  # noqa: E402
from repro.trace import SliceTracer, TraceConfig, replay_bundle  # noqa: E402

#: Maximum tolerated geomean traced/untraced fleet slowdown (1.25 =
#: 25%).  Tracing on does real bounded work per request; the gate
#: catches pathological regressions, not the contractual bookkeeping.
DEFAULT_ON_THRESHOLD = 1.25

#: Slice seed and breachy scheme used for the replay-fidelity leg.
REPLAY_SCHEME = "ssp"
REPLAY_SEED = 20180625
REPLAY_BUDGET = 150


def run_replay_check() -> dict:
    """Capture real breach bundles and assert each replays exactly."""
    tracer = SliceTracer(
        REPLAY_SCHEME, REPLAY_SEED, config=TraceConfig(series_interval=25)
    )
    run_fleet_slice(
        REPLAY_SCHEME, REPLAY_SEED, request_budget=REPLAY_BUDGET,
        tracer=tracer,
    )
    violations = []
    if not tracer.trace.bundles:
        violations.append(
            f"{REPLAY_SCHEME} seed {REPLAY_SEED} captured no bundles in "
            f"{REPLAY_BUDGET} requests — replay fidelity is untested"
        )
    for bundle in tracer.trace.bundles:
        result = replay_bundle(bundle)
        if not result.ok:
            for line in result.divergences:
                violations.append(
                    f"bundle {bundle['trigger']}#{bundle['ordinal']}: {line}"
                )
    return {"bundles": len(tracer.trace.bundles), "violations": violations}


def _time_slice(scheme, *, budget, traced, repeats):
    """Best-of-``repeats`` requests/second for one slice, on or off."""
    best_rps = 0.0
    for _ in range(repeats):
        tracer = (
            SliceTracer(scheme, REPLAY_SEED,
                        config=TraceConfig(series_interval=25))
            if traced else None
        )
        start = time.perf_counter()
        record = run_fleet_slice(
            scheme, REPLAY_SEED, request_budget=budget, tracer=tracer
        )
        elapsed = time.perf_counter() - start
        if elapsed and record.requests / elapsed > best_rps:
            best_rps = record.requests / elapsed
    return best_rps


def run_overhead_check(*, budget, repeats, schemes=("ssp", "pssp")) -> dict:
    """Traced vs untraced fleet throughput."""
    workloads = {}
    for scheme in schemes:
        run_fleet_slice(scheme, REPLAY_SEED, request_budget=20)  # warm-up
        off_rps = _time_slice(
            scheme, budget=budget, traced=False, repeats=repeats
        )
        on_rps = _time_slice(
            scheme, budget=budget, traced=True, repeats=repeats
        )
        workloads[scheme] = {
            "requests": budget,
            "on_requests_per_second": on_rps,
            "off_requests_per_second": off_rps,
            "overhead_ratio": off_rps / on_rps if on_rps else 0.0,
        }
    ratios = [w["overhead_ratio"] for w in workloads.values()]
    return {
        "workloads": workloads,
        "summary": {
            "max_overhead_ratio": max(ratios),
            "geomean_overhead_ratio": _geomean(ratios),
        },
    }


def _geomean(values):
    product = 1.0
    for value in values:
        product *= value
    return product ** (1.0 / len(values)) if values else 0.0


def run_benchmark(repeats: int) -> dict:
    # The timing leg runs first, before the replay leg's garbage.
    overhead = run_overhead_check(budget=200, repeats=repeats)
    return {
        "repeats": repeats,
        "replay": run_replay_check(),
        "overhead": overhead,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="timed slices per scheme per mode, best-of (default: 3)",
    )
    parser.add_argument(
        "--json", metavar="OUT", help="write the results report to OUT"
    )
    parser.add_argument(
        "--on-threshold", type=float, default=DEFAULT_ON_THRESHOLD,
        help="maximum geomean traced/untraced fleet slowdown "
             "(default: 1.25)",
    )
    args = parser.parse_args(argv)

    report = run_benchmark(args.repeats)

    replay = report["replay"]
    overhead = report["overhead"]
    print(f"trace plane benchmark (repeats={args.repeats})")
    print(f"replay:   {replay['bundles']} bundle(s) -> "
          f"{'EXACT' if not replay['violations'] else 'DIVERGED'}")
    print(f"{'scheme':>10s} {'traced r/s':>12s} {'untraced r/s':>13s} "
          f"{'overhead':>9s}")
    for scheme, row in overhead["workloads"].items():
        print(
            f"{scheme:>10s} {row['on_requests_per_second']:12,.1f} "
            f"{row['off_requests_per_second']:13,.1f} "
            f"{(row['overhead_ratio'] - 1.0) * 100:8.2f}%"
        )
    summary = overhead["summary"]
    print(
        f"traced geomean overhead "
        f"{(summary['geomean_overhead_ratio'] - 1) * 100:.2f}%, "
        f"max {(summary['max_overhead_ratio'] - 1) * 100:.2f}% "
        f"(threshold {(args.on_threshold - 1) * 100:.0f}%)"
    )

    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.json}")

    if replay["violations"]:
        print("TRACE REPLAY VIOLATION (correctness bug):", file=sys.stderr)
        for line in replay["violations"]:
            print(f"  {line}", file=sys.stderr)
        return 2

    if summary["geomean_overhead_ratio"] > args.on_threshold:
        print(
            "TRACE OVERHEAD REGRESSION: tracing-on geomean "
            f"{summary['geomean_overhead_ratio']:.4f} exceeds "
            f"{args.on_threshold:.4f}",
            file=sys.stderr,
        )
        return 1

    print("trace plane gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
