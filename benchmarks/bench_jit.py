#!/usr/bin/env python
"""Trace-JIT tier benchmark: superblock dispatch vs. plain fast path.

Measures simulated instructions/second on the interpreter benchmark
workloads (ALU loop, call-dense recursion, canary-heavy P-SSP-OWF) with
the trace-JIT tier enabled and disabled on the *same* fast interpreter
and reports the jit/nojit speedup per workload.  That both agree with
the slow per-step oracle (full architectural snapshot) is gated by the
invariance matrix (``tests/invariance``), which runs these sources with
``REPRO_JIT`` and ``fast`` flipped.

Like ``bench_interpreter.py``, CI gating is done on the **speedup
ratio**, not absolute instrs/sec: the ratio between two configurations
of the same interpreter measured in the same process is stable across
runner hardware.  A trace-formation regression (blocks rejected that
used to compile, a side-exit that stops chaining) shows up as a ratio
drop long before anyone reads a profile.

Usage::

    python benchmarks/bench_jit.py                  # full run
    python benchmarks/bench_jit.py --smoke          # CI-sized run
    python benchmarks/bench_jit.py --json OUT.json  # write results
    python benchmarks/bench_jit.py \
        --compare benchmarks/BENCH_jit.json         # gate

Exit status: 0 on success, 1 on a gated regression.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_interpreter import WORKLOADS, _geomean  # noqa: E402

from repro.core.deploy import build, deploy  # noqa: E402
from repro.kernel.kernel import Kernel  # noqa: E402

#: Tolerated relative drop in a workload's jit/nojit speedup before the
#: --compare gate fails the run.
DEFAULT_THRESHOLD = 0.20

#: Workloads whose geomean speedup the --compare gate additionally
#: floors (the tentpole acceptance target: hot straight-line and
#: call-dense code is where superblocks earn their keep; canary-heavy
#: code side-exits at every protected prologue and is gated only by its
#: own per-workload floor).
GEOMEAN_WORKLOADS = ("alu_loop", "call_dense")


def run_config(source, scheme, *, jit, repeats):
    """Instructions/second of ``source`` on the fast path, JIT on or off."""
    kernel = Kernel(seed=42)
    binary = build(source, scheme, name="bench")
    process, _ = deploy(kernel, binary, scheme, cycle_limit=4_000_000_000)
    process.cpu.jit = jit
    # Warm-up call: decode + trace formation happen here.
    warm = process.run()
    if warm.crashed:
        raise SystemExit(f"workload crashed under {scheme}: {warm.signal}")
    instructions = 0
    start = time.perf_counter()
    for _ in range(repeats):
        result = process.call("main")
        instructions += result.instructions
    elapsed = time.perf_counter() - start
    return instructions / elapsed if elapsed else 0.0


def run_benchmark(smoke: bool, repeats: int) -> dict:
    results = {}
    for name, scheme, template, full_iter, smoke_iter in WORKLOADS:
        iterations = smoke_iter if smoke else full_iter
        source = template.replace("%ITER%", str(iterations))
        nojit = run_config(source, scheme, jit=False, repeats=repeats)
        jit = run_config(source, scheme, jit=True, repeats=repeats)
        results[name] = {
            "scheme": scheme,
            "iterations": iterations,
            "jit_instructions_per_second": jit,
            "nojit_instructions_per_second": nojit,
            "speedup": jit / nojit if nojit else 0.0,
        }
    gated = [results[n]["speedup"] for n in GEOMEAN_WORKLOADS]
    return {
        "mode": "smoke" if smoke else "full",
        "repeats": repeats,
        "workloads": results,
        "summary": {
            "min_speedup": min(w["speedup"] for w in results.values()),
            "geomean_speedup": _geomean(
                [w["speedup"] for w in results.values()]
            ),
            "gated_geomean_speedup": _geomean(gated),
        },
    }


def gate(report: dict, baseline_path: Path, threshold: float) -> list:
    """Compare speedups against the committed baseline floors."""
    baseline = json.loads(baseline_path.read_text())
    failures = []
    for name, current in report["workloads"].items():
        reference = baseline.get("workloads", {}).get(name)
        if reference is None:
            continue
        floor = reference["speedup"] * (1.0 - threshold)
        if current["speedup"] < floor:
            failures.append(
                f"{name}: speedup {current['speedup']:.2f}x fell below "
                f"{floor:.2f}x (baseline {reference['speedup']:.2f}x "
                f"- {threshold:.0%} tolerance)"
            )
    # The acceptance floor is absolute, not baseline-relative: the JIT
    # tier must stay >=2x on hot ALU/call code or it is not paying for
    # its complexity.
    floor = baseline.get("summary", {}).get("gated_geomean_floor")
    if floor is not None:
        measured = report["summary"]["gated_geomean_speedup"]
        if measured < floor:
            failures.append(
                f"gated geomean ({'/'.join(GEOMEAN_WORKLOADS)}): "
                f"{measured:.2f}x fell below the absolute floor "
                f"{floor:.2f}x"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI-sized workloads (~seconds instead of ~a minute)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="timed calls per workload per config (default: 3)",
    )
    parser.add_argument(
        "--json", metavar="OUT", help="write the results report to OUT"
    )
    parser.add_argument(
        "--compare", metavar="BASELINE",
        help="gate against a baseline report; non-zero exit on regression",
    )
    parser.add_argument(
        "--threshold", type=float, default=DEFAULT_THRESHOLD,
        help="tolerated relative speedup drop for --compare (default: 0.20)",
    )
    args = parser.parse_args(argv)
    if args.compare and not Path(args.compare).is_file():
        parser.error(f"baseline not found: {args.compare}")

    report = run_benchmark(args.smoke, args.repeats)

    print(f"trace-JIT benchmark ({report['mode']}, repeats={args.repeats})")
    header = (
        f"{'workload':>14s} {'scheme':>10s} {'jit i/s':>12s} "
        f"{'nojit i/s':>12s} {'speedup':>8s}"
    )
    print(header)
    for name, row in report["workloads"].items():
        print(
            f"{name:>14s} {row['scheme']:>10s} "
            f"{row['jit_instructions_per_second']:12,.0f} "
            f"{row['nojit_instructions_per_second']:12,.0f} "
            f"{row['speedup']:7.2f}x"
        )
    summary = report["summary"]
    print(
        f"min speedup {summary['min_speedup']:.2f}x, "
        f"geomean {summary['geomean_speedup']:.2f}x, "
        f"gated geomean ({'/'.join(GEOMEAN_WORKLOADS)}) "
        f"{summary['gated_geomean_speedup']:.2f}x"
    )

    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.json}")

    if args.compare:
        failures = gate(report, Path(args.compare), args.threshold)
        if failures:
            print("PERF REGRESSION:", file=sys.stderr)
            for line in failures:
                print(f"  {line}", file=sys.stderr)
            return 1
        print(f"perf gate passed (threshold {args.threshold:.0%})")

    return 0


if __name__ == "__main__":
    raise SystemExit(main())
