#!/usr/bin/env python
"""Parallel campaign scaling and build-cache effectiveness benchmark.

Two claims from the parallel execution plane are measured and gated
(that a ``--jobs N`` report is bit-identical to the serial one is gated
by the invariance matrix, ``tests/invariance``):

* **Scaling** — on a multi-core host the sharded campaign must actually
  go faster.  The speedup gate (default 2.5x at 4 workers) only arms
  when the host has at least ``--jobs`` cores; on smaller machines the
  measured speedup is recorded but informational, since a 1-core
  container cannot demonstrate parallelism it does not have.
* **Cache effectiveness** — shrinking a planted-mutant failure re-checks
  candidate programs across schemes and paths, which re-builds the same
  sources repeatedly; the content-addressed build cache must convert at
  least ``--min-hit-rate`` (default 50%) of those compiles into hits.

Usage::

    python benchmarks/bench_parallel.py                  # full run
    python benchmarks/bench_parallel.py --smoke          # CI-sized run
    python benchmarks/bench_parallel.py --json OUT.json  # write results

The committed ``benchmarks/BENCH_parallel.json`` records a reference
run (including the core count it was measured on); CI regenerates the
measurement on every push.

Exit status: 0 on success, 1 if a perf/cache gate fails.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.fuzz.fuzzer import run_fuzz  # noqa: E402
from repro.fuzz.mutants import MUTANTS, planted  # noqa: E402
from repro.parallel import build_cache, reset_build_cache  # noqa: E402

#: Campaign sizes: the full run matches the acceptance criterion
#: (200 programs); smoke keeps the per-push CI job in seconds.
FULL_BUDGET = 200
SMOKE_BUDGET = 24

DEFAULT_JOBS = 4
DEFAULT_MIN_SPEEDUP = 2.5
DEFAULT_MIN_HIT_RATE = 0.5


def measure_scaling(budget: int, jobs: int) -> dict:
    """Time the same campaign serially and sharded."""
    reset_build_cache()
    start = time.perf_counter()
    run_fuzz(budget, base_seed=2018, shrink=False, health=False)
    serial_seconds = time.perf_counter() - start

    reset_build_cache()
    start = time.perf_counter()
    run_fuzz(budget, base_seed=2018, shrink=False, health=False, jobs=jobs)
    parallel_seconds = time.perf_counter() - start
    return {
        "budget": budget,
        "jobs": jobs,
        "serial_seconds": serial_seconds,
        "parallel_seconds": parallel_seconds,
        "speedup": serial_seconds / parallel_seconds if parallel_seconds else 0.0,
    }


def measure_cache_hit_rate() -> dict:
    """Shrink a planted-mutant failure and report the build-cache stats.

    ``planted`` clears the cache on entry (a live-code mutant is a
    toolchain change the content address cannot see), so every hit
    counted here comes from re-compiles within the failing campaign:
    the fast/slow double-build of each program and the shrinker
    re-checking candidate reductions across schemes.
    """
    with planted(MUTANTS[0]):
        report = run_fuzz(3, base_seed=2018, shrink=True, health=False)
        stats = build_cache().stats()
    lookups = stats["hits"] + stats["misses"]
    return {
        "mutant": MUTANTS[0].name,
        "failures_found": len(report.failures),
        "shrunk": sum(1 for f in report.failures if f.shrunk_spec is not None),
        "hits": stats["hits"],
        "misses": stats["misses"],
        "hit_rate": stats["hits"] / lookups if lookups else 0.0,
    }


def run_benchmark(budget: int, jobs: int) -> dict:
    return {
        "mode": "smoke" if budget < FULL_BUDGET else "full",
        "cores": os.cpu_count() or 1,
        "scaling": measure_scaling(budget, jobs),
        "cache": measure_cache_hit_rate(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help=f"CI-sized campaign ({SMOKE_BUDGET} programs vs {FULL_BUDGET})",
    )
    parser.add_argument(
        "--budget", type=int, default=None,
        help="override the campaign budget (number of fuzzed programs)",
    )
    parser.add_argument(
        "--jobs", type=int, default=DEFAULT_JOBS,
        help=f"worker count for the sharded run (default: {DEFAULT_JOBS})",
    )
    parser.add_argument(
        "--json", metavar="OUT", help="write the results report to OUT"
    )
    parser.add_argument(
        "--min-speedup", type=float, default=DEFAULT_MIN_SPEEDUP,
        help="required serial/parallel ratio when the host has >= --jobs "
             f"cores (default: {DEFAULT_MIN_SPEEDUP})",
    )
    parser.add_argument(
        "--min-hit-rate", type=float, default=DEFAULT_MIN_HIT_RATE,
        help="required build-cache hit rate on the shrink scenario "
             f"(default: {DEFAULT_MIN_HIT_RATE})",
    )
    args = parser.parse_args(argv)

    budget = args.budget if args.budget is not None else (
        SMOKE_BUDGET if args.smoke else FULL_BUDGET
    )
    report = run_benchmark(budget, args.jobs)
    scaling, cache = report["scaling"], report["cache"]

    print(f"parallel campaign benchmark ({report['mode']}, "
          f"{report['cores']} cores)")
    print(
        f"  fuzz {scaling['budget']} programs: "
        f"serial {scaling['serial_seconds']:.2f}s, "
        f"jobs={scaling['jobs']} {scaling['parallel_seconds']:.2f}s, "
        f"speedup {scaling['speedup']:.2f}x"
    )
    print(
        f"  shrink of planted mutant '{cache['mutant']}': "
        f"{cache['hits']} hits / {cache['misses']} misses, "
        f"hit rate {cache['hit_rate']:.0%} "
        f"({cache['failures_found']} failure(s), {cache['shrunk']} shrunk)"
    )

    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.json}")

    failed = False
    if cache["hit_rate"] < args.min_hit_rate:
        print(
            f"BUILD CACHE REGRESSION: hit rate {cache['hit_rate']:.0%} "
            f"below {args.min_hit_rate:.0%}",
            file=sys.stderr,
        )
        failed = True
    if report["cores"] >= args.jobs:
        if scaling["speedup"] < args.min_speedup:
            print(
                f"SCALING REGRESSION: {scaling['speedup']:.2f}x below "
                f"{args.min_speedup:.2f}x with {report['cores']} cores",
                file=sys.stderr,
            )
            failed = True
    else:
        print(
            f"  (speedup gate skipped: {report['cores']} cores < "
            f"{args.jobs} workers)"
        )
    if failed:
        return 1
    print("parallel campaign gates passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
