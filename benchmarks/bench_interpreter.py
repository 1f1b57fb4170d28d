#!/usr/bin/env python
"""Interpreter throughput benchmark: fast path vs. slow oracle.

Measures simulated instructions/second on three workload shapes (ALU
loop, call-dense recursion, canary-heavy P-SSP-OWF) down both interpreter
paths and reports the fast/slow speedup per workload.  That the paths
agree bit for bit is gated by the invariance matrix
(``tests/invariance``), which runs these sources with ``fast`` flipped.

CI gating is deliberately done on the **speedup ratio**, not absolute
instrs/sec: GitHub runners vary widely in single-core speed, but the
ratio between two loops measured on the same interpreter in the same
process is stable.  A decode-cache regression (a hot mnemonic falling
off a specialiser onto the generic closure, a fast lane that stops
hitting) shows up as a ratio drop long before anyone reads a profile.

Usage::

    python benchmarks/bench_interpreter.py                  # full run
    python benchmarks/bench_interpreter.py --smoke          # CI-sized run
    python benchmarks/bench_interpreter.py --json OUT.json  # write results
    python benchmarks/bench_interpreter.py \
        --compare benchmarks/BENCH_interpreter.json  # gate

Exit status: 0 on success, 1 on a gated regression.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.deploy import build, deploy  # noqa: E402
from repro.kernel.kernel import Kernel  # noqa: E402

#: Tolerated relative drop in a workload's fast/slow speedup before the
#: --compare gate fails the run.
DEFAULT_THRESHOLD = 0.20

ALU_LOOP = """
int main() {
    int acc; int i;
    acc = 1;
    for (i = 0; i < %ITER%; i = i + 1) {
        acc = acc + i * 3 - (acc / 7);
        acc = acc ^ (i + 11);
        if (acc > 1000000) {
            acc = acc - 1000000;
        }
    }
    return acc - (acc / 256) * 256;
}
"""

CALL_DENSE = """
int leaf(int n) {
    char buf[16];
    buf[0] = n;
    return buf[0] + 1;
}

int main() {
    int total; int i;
    total = 0;
    for (i = 0; i < %ITER%; i = i + 1) {
        total = total + leaf(i - (i / 128) * 128);
    }
    return total - (total / 256) * 256;
}
"""

CANARY_HEAVY = """
int inner(int n) {
    char buf[32];
    buf[0] = n;
    return buf[0] * 2;
}

int outer(int n) {
    char buf[48];
    int total; int i;
    total = 0;
    for (i = 0; i < 4; i = i + 1) {
        total = total + inner(n + i);
    }
    buf[0] = total;
    return buf[0];
}

int main() {
    int total; int i;
    total = 0;
    for (i = 0; i < %ITER%; i = i + 1) {
        total = total + outer(i - (i / 64) * 64);
    }
    return total - (total / 256) * 256;
}
"""

#: (name, scheme, source template, full iterations, smoke iterations)
WORKLOADS = (
    ("alu_loop", "none", ALU_LOOP, 40_000, 6_000),
    ("call_dense", "none", CALL_DENSE, 8_000, 1_200),
    ("canary_heavy", "pssp-owf", CANARY_HEAVY, 1_500, 250),
)


def run_path(source: str, scheme: str, *, fast: bool, repeats: int):
    """Run ``source`` ``repeats`` times on one path; return measurements."""
    kernel = Kernel(seed=42)
    binary = build(source, scheme, name="bench")
    process, _ = deploy(
        kernel, binary, scheme, cycle_limit=4_000_000_000, fast=fast
    )
    # Warm-up call: the fast path decodes here, and libc state settles.
    warm = process.run()
    if warm.crashed:
        raise SystemExit(f"workload crashed under {scheme}: {warm.signal}")
    instructions = 0
    start = time.perf_counter()
    for _ in range(repeats):
        result = process.call("main")
        instructions += result.instructions
    elapsed = time.perf_counter() - start
    return {
        "instructions_per_second": instructions / elapsed if elapsed else 0.0,
        "elapsed_seconds": elapsed,
        "measured_instructions": instructions,
        "cycles": process.cpu.cycles,
        "total_instructions": process.cpu.instructions_executed,
    }


def run_benchmark(smoke: bool, repeats: int) -> dict:
    results = {}
    for name, scheme, template, full_iter, smoke_iter in WORKLOADS:
        iterations = smoke_iter if smoke else full_iter
        source = template.replace("%ITER%", str(iterations))
        fast = run_path(source, scheme, fast=True, repeats=repeats)
        slow = run_path(source, scheme, fast=False, repeats=repeats)
        speedup = (
            fast["instructions_per_second"] / slow["instructions_per_second"]
            if slow["instructions_per_second"]
            else 0.0
        )
        results[name] = {
            "scheme": scheme,
            "iterations": iterations,
            "fast_instructions_per_second": fast["instructions_per_second"],
            "slow_instructions_per_second": slow["instructions_per_second"],
            "speedup": speedup,
            "cycles": fast["cycles"],
            "instructions": fast["total_instructions"],
        }
    return {
        "mode": "smoke" if smoke else "full",
        "repeats": repeats,
        "workloads": results,
        "summary": {
            "min_speedup": min(w["speedup"] for w in results.values()),
            "geomean_speedup": _geomean(
                [w["speedup"] for w in results.values()]
            ),
        },
    }


def _geomean(values):
    product = 1.0
    for value in values:
        product *= value
    return product ** (1.0 / len(values)) if values else 0.0


def gate(report: dict, baseline_path: Path, threshold: float) -> list:
    """Compare per-workload speedups against the committed baseline."""
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
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI-sized workloads (~seconds instead of ~a minute)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="timed calls per workload per path (default: 3)",
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
        # Fail before the (multi-second) measurement, not after it.
        parser.error(f"baseline not found: {args.compare}")

    report = run_benchmark(args.smoke, args.repeats)

    print(f"interpreter benchmark ({report['mode']}, repeats={args.repeats})")
    header = f"{'workload':>14s} {'scheme':>10s} {'fast i/s':>12s} {'slow i/s':>12s} {'speedup':>8s}"
    print(header)
    for name, row in report["workloads"].items():
        print(
            f"{name:>14s} {row['scheme']:>10s} "
            f"{row['fast_instructions_per_second']:12,.0f} "
            f"{row['slow_instructions_per_second']:12,.0f} "
            f"{row['speedup']:7.2f}x"
        )
    summary = report["summary"]
    print(
        f"min speedup {summary['min_speedup']:.2f}x, "
        f"geomean {summary['geomean_speedup']:.2f}x"
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
