#!/usr/bin/env python
"""Fork scaling benchmark: COW fork cost vs. guest memory size.

``kernel.fork`` used to deep-copy the whole address space, making fork
cost linear in guest memory.  With copy-on-write paging it is O(pages
touched): cloning shares every frozen page and only the pages a side
writes afterwards are materialised.  This bench gates that property
two ways (that a COW fork and an eager deep-copy fork,
``REPRO_COW_FORK=0``, give bit-identical parents and children is gated
by the invariance matrix, ``tests/invariance``, on this workload):

1. **Sublinearity, deterministic (exit 2)** — the number of pages
   materialised by a fork (child private pages right after the fork
   hooks ran) must not grow with the stack size.  This is a page count,
   not a timing: it is machine-independent and cannot be fooled by
   runner noise.  A 4 MB stack is ~64x the pages of a 64 KB stack; the
   fork copy-set must be identical for both.
2. **Wall clock (exit 1 with --compare)** — the measured time ratio
   ``t(largest stack) / t(smallest stack)`` must stay under a generous
   cap (linear copying would show ~64x), and the COW-vs-eager speedup
   at the largest size must stay above the committed floor.

Usage::

    python benchmarks/bench_fork.py                    # full run
    python benchmarks/bench_fork.py --smoke            # CI-sized run
    python benchmarks/bench_fork.py --json OUT.json    # write results
    python benchmarks/bench_fork.py --compare benchmarks/BENCH_fork.json

Exit status: 0 on success, 1 on a gated perf regression, 2 on a
sublinearity violation.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.deploy import build, deploy  # noqa: E402
from repro.kernel.kernel import Kernel  # noqa: E402

#: Stack sizes swept (bytes).  64 KB .. 4 MB spans a 64x page-count range.
STACK_SIZES = (0x10000, 0x40000, 0x100000, 0x400000)

#: Tolerated relative drop in the COW speedup before --compare fails.
DEFAULT_THRESHOLD = 0.25

#: Hard cap on t(largest)/t(smallest): sublinear fork keeps this near 1;
#: the old deep copy sits near the page ratio (~64).  Generous for noisy
#: runners.
WALL_RATIO_CAP = 5.0

#: Hard cap on pages a single fork may materialise (the pssp fork hook
#: refreshes the TLS shadow pair: one TLS page, plus bookkeeping slack).
MAX_PAGES_PER_FORK = 8

WORKLOAD = """
int handler(int n) {
    char buf[64];
    int i;
    for (i = 0; i < 64; i = i + 1) {
        buf[i - (i / 64) * 64] = i + n;
    }
    return buf[0] + buf[63];
}
int main() { return handler(7); }
"""


def _deploy(stack_size: int, *, seed: int = 9001):
    kernel = Kernel(seed)
    binary = build(WORKLOAD, "pssp", name="forkbench")
    process, _ = deploy(kernel, binary, "pssp", stack_size=stack_size)
    process.run()
    return kernel, process


def measure(stack_size: int, forks: int) -> dict:
    """Median per-fork wall time + the deterministic page-copy count."""
    kernel, parent = _deploy(stack_size)
    # Warm-up fork: freezes the parent's post-run dirty pages so the
    # timed forks measure steady-state cost, exactly like a fork server.
    first = kernel.fork(parent)
    pages_copied = first.memory.page_stats()["private_pages"]
    times = []
    for _ in range(forks):
        start = time.perf_counter()
        kernel.fork(parent)
        times.append(time.perf_counter() - start)
    total_pages = parent.memory.page_stats()["pages"]
    return {
        "stack_size": stack_size,
        "total_pages": total_pages,
        "pages_copied_per_fork": pages_copied,
        "fork_us_median": statistics.median(times) * 1e6,
    }


def measure_eager(stack_size: int, forks: int) -> float:
    """Median per-fork wall time down the historical deep-copy path."""
    kernel, parent = _deploy(stack_size)
    times = []
    for _ in range(forks):
        start = time.perf_counter()
        parent.memory.clone(eager=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e6


def run(forks: int) -> dict:
    results = {"sizes": [measure(size, forks) for size in STACK_SIZES]}
    smallest, largest = results["sizes"][0], results["sizes"][-1]
    eager_us = measure_eager(STACK_SIZES[-1], max(3, forks // 4))
    results["summary"] = {
        "page_ratio": largest["total_pages"] / smallest["total_pages"],
        "wall_ratio": (
            largest["fork_us_median"] / smallest["fork_us_median"]
        ),
        "pages_copied_min": min(
            r["pages_copied_per_fork"] for r in results["sizes"]
        ),
        "pages_copied_max": max(
            r["pages_copied_per_fork"] for r in results["sizes"]
        ),
        "eager_us_median": eager_us,
        "cow_speedup": eager_us / largest["fork_us_median"],
    }
    return results


def gate_sublinear(results: dict) -> list:
    """Gate 1: deterministic page-copy checks (violations, ideally [])."""
    summary = results["summary"]
    problems = []
    if summary["pages_copied_max"] != summary["pages_copied_min"]:
        problems.append(
            "pages copied per fork grows with guest memory: "
            f"{summary['pages_copied_min']} .. {summary['pages_copied_max']}"
        )
    if summary["pages_copied_max"] > MAX_PAGES_PER_FORK:
        problems.append(
            f"fork materialises {summary['pages_copied_max']} pages "
            f"(cap {MAX_PAGES_PER_FORK})"
        )
    largest = results["sizes"][-1]
    if largest["pages_copied_per_fork"] * 16 > largest["total_pages"]:
        problems.append(
            "fork copy-set is not small relative to the address space: "
            f"{largest['pages_copied_per_fork']} of "
            f"{largest['total_pages']} pages"
        )
    return problems


def gate_compare(results: dict, baseline: dict, threshold: float) -> list:
    """Gate 2: wall-clock regressions vs. the committed baseline."""
    summary = results["summary"]
    problems = []
    if summary["wall_ratio"] > WALL_RATIO_CAP:
        problems.append(
            f"fork wall ratio {summary['wall_ratio']:.2f} exceeds cap "
            f"{WALL_RATIO_CAP} (page ratio {summary['page_ratio']:.0f}x)"
        )
    floor = baseline["summary"]["cow_speedup"] * (1 - threshold)
    if summary["cow_speedup"] < floor:
        problems.append(
            f"COW-vs-eager speedup {summary['cow_speedup']:.2f} below "
            f"baseline floor {floor:.2f}"
        )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run (fewer timed forks)")
    parser.add_argument("--json", metavar="PATH",
                        help="write results as JSON")
    parser.add_argument("--compare", metavar="BASELINE",
                        help="gate against a committed baseline file")
    parser.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                        help="tolerated relative speedup drop "
                             "(default %(default)s)")
    args = parser.parse_args(argv)

    forks = 20 if args.smoke else 100
    results = run(forks)
    results["mode"] = "smoke" if args.smoke else "full"
    results["forks"] = forks

    for row in results["sizes"]:
        print(
            f"stack {row['stack_size']:#9x}: {row['total_pages']:5d} pages, "
            f"{row['pages_copied_per_fork']} copied/fork, "
            f"{row['fork_us_median']:8.1f} us/fork"
        )
    summary = results["summary"]
    print(
        f"wall ratio {summary['wall_ratio']:.2f} over a "
        f"{summary['page_ratio']:.0f}x page range; "
        f"COW speedup vs eager at 4M: {summary['cow_speedup']:.1f}x"
    )

    if args.json:
        Path(args.json).write_text(json.dumps(results, indent=2) + "\n")
        print(f"wrote {args.json}")

    problems = gate_sublinear(results)
    if problems:
        print("SUBLINEARITY FAILURE:")
        for line in problems:
            print(f"  {line}")
        return 2

    if args.compare:
        baseline = json.loads(Path(args.compare).read_text())
        problems = gate_compare(results, baseline, args.threshold)
        if problems:
            print("PERF REGRESSION:")
            for line in problems:
                print(f"  {line}")
            return 1
        print("fork scaling gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
