#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fleet --seed 1 --seconds 50 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
Times are corrected for the host's speed by ``calibrate.py``, so they
read as if measured on one reference host.
``--trace 1`` replays a cold set-up plus the workload's fixed round 0
alternately without and with span wrappers on every layer's entry point, and reports the
per-layer metrics of the median traced pass, including the tracing
overhead (traced wall / untraced wall of the same work).

Both modes check the simulated outputs: intrinsic checks on every
operation, plus the round-0 digest against ``digests.json`` when the
seed is the recorded one.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  Exit status is
0 when a result was printed, 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"

#: Round-0 digests of one seed, which is also the default ``--seed``.
DIGESTS = HERE / "digests.json"

#: Cold set-ups per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3

END_TO_END_UNITS = {
    "ops_per_s.ssp": "1/s",
    "ops_per_s.pssp": "1/s",
    "ops_per_s.pssp-nt": "1/s",
    "ops_per_s.pssp-owf": "1/s",
    "ops_per_s.all": "1/s",
    "sim_mips": "MIPS",
    "setup_s": "s",
    "max_rss_mb": "MB",
}


def parse_args(argv, default_seed: int) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("fleet", "spec"))
    parser.add_argument("--seed", type=int, default=default_seed)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measured_loop(workload, seconds: float):
    """Run units until ``seconds`` have passed and round 0 is complete.

    A host-speed probe follows every unit; each unit's times are divided
    by the host slowness around it (see ``calibrate.py``).  Returns the
    samples and the median slowness.
    """
    units, probes = [], []
    start = time.perf_counter()
    while len(units) < workload.min_units or time.perf_counter() - start < seconds:
        units.append(workload.unit(len(units)))
        probes.append(calibrate.probe())
    slowness = calibrate.slowness(probes)
    samples = []
    for unit_samples, factor in zip(units, slowness):
        for sample in unit_samples:
            sample.seconds /= factor
        samples.extend(unit_samples)
    return samples, statistics.median(slowness)


def end_to_end(workload, seconds: float, import_seconds: float):
    """The untraced run: timed cold set-ups, then the measured loop."""
    setups, probes = [], []
    for _ in range(SETUP_REPEATS):
        probes.append(calibrate.probe())
        start = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - start)
    setup_slowness = statistics.median(probes) / calibrate.REFERENCE_PROBE_S
    samples, slowness = measured_loop(workload, seconds)
    print(f"host slowness: set-up {setup_slowness:.4f}, measured loop {slowness:.4f}")
    metrics = workload.summarize(samples)
    metrics["setup_s"] = (import_seconds + statistics.median(setups)) / setup_slowness
    metrics["max_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return samples, metrics, []


def main(argv=None) -> int:
    recorded = json.loads(DIGESTS.read_text())
    args = parse_args(argv, recorded["seed"])
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SOURCE}", file=sys.stderr)
        return 2
    # Measure the default configuration, whatever the caller's shell sets.
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    sys.path.insert(0, str(SOURCE))

    import_start = time.perf_counter()
    import workloads
    import_seconds = time.perf_counter() - import_start

    workload = workloads.WORKLOADS[args.workload](args.seed)
    if args.trace:
        import layers

        units = layers.PER_LAYER_UNITS
        samples, metrics, problems = layers.traced_run(workload, args.seconds)
    else:
        units = END_TO_END_UNITS
        samples, metrics, problems = end_to_end(workload, args.seconds, import_seconds)

    problems += workload.problems(samples)
    digest = workload.round_zero_digest(samples)
    print(f"round-0 digest ({workload.name}, seed {args.seed}): {digest}", file=sys.stderr)
    if args.seed == recorded["seed"] and digest != recorded[workload.name]:
        problems.append(f"round-0 digest {digest} != recorded {recorded[workload.name]}")
    for problem in problems:
        print(f"FAILED: {problem}", file=sys.stderr)

    for name, value in metrics.items():
        print(f"{name:40s} {value:14.6f} {units[name]}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(samples),
        "failed": min(len(problems), len(samples)),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
