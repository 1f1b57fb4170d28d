#!/usr/bin/env python
"""Fleet campaign benchmark: million-request throughput, gated reports.

Four claims from the fleet plane are measured and gated:

* **Determinism** — a probe campaign run with ``--jobs 2`` must produce
  a report bit-identical to the serial run, and the campaign summaries
  must match the committed ``BENCH_fleet.json`` baseline field-for-field
  (every summary number is derived from seeded simulated state, so an
  exact comparison is the correct one).  A divergence is a correctness
  bug (exit 2), never waived.
* **Security story** — the per-scheme numbers must reproduce the paper:
  byte-by-byte brute force breaches ``ssp`` and nothing else, leak
  replay breaches everything but ``pssp-owf``, and every scheme with a
  canary detects smashes.  Also exit 2: if this drifts the reproduction
  is wrong, not slow.
* **Supervision under chaos** — a fixed-size chaos campaign (seeded
  fault schedules injected under live traffic) must stay jobs-invariant,
  audit cleanly, and reproduce the committed supervision numbers
  exactly: deadline reaps, breaker trips, parent restarts, quarantined
  requests, and the re-randomization-window stretch.  The chaos probe
  is the same size in both modes, so its numbers are shared between the
  ``smoke`` and ``full`` baseline sections.  Exit 2 on divergence.
* **Throughput** — the full campaign serves >= 10^6 requests, and the
  host must sustain, for every scheme, a floor fraction of that
  scheme's recorded wall requests/sec (exit 1; wall clock is the only
  host-dependent number here).  Schemes are served one after another
  and timed apart, so a slow ``pssp-owf`` cannot hide behind a fast
  ``ssp`` in an aggregate.

Usage::

    python benchmarks/bench_fleet.py                    # full, 10^6 requests
    python benchmarks/bench_fleet.py --smoke            # CI-sized run
    python benchmarks/bench_fleet.py --json OUT.json    # write measurement
    python benchmarks/bench_fleet.py --no-compare       # baseline (re)generation

The committed ``benchmarks/BENCH_fleet.json`` holds one section per
mode (``smoke`` / ``full``); a run compares against the section that
matches its mode.

Exit status: 0 on success, 1 if the throughput gate fails, 2 on any
correctness divergence (jobs, baseline, or security story).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.fleet import (  # noqa: E402
    DEFAULT_BASE_SEED,
    DEFAULT_FLEET_SCHEMES,
    TrafficConfig,
    run_fleet,
)

BASELINE = Path(__file__).resolve().parent / "BENCH_fleet.json"

#: Budgets are per scheme; the full campaign serves ~4 x 251k requests.
#: The margin over 250k absorbs leak-session slack — a slice whose last
#: request would start a 2-request leak connection stops one short — so
#: even the worst case (every slice short) clears the 10^6 acceptance
#: floor.
FULL_BUDGET = 251_000
SMOKE_BUDGET = 2_000
SLICE_REQUESTS = 1_000

#: The jobs-invariance probe (both modes): small enough to run twice.
PROBE_BUDGET = 600
PROBE_SLICE = 200
PROBE_SCHEMES = ("ssp", "pssp")

#: The chaos probe (both modes, fixed size so its gated numbers are
#: mode-independent): one surface where faults stretch the window
#: (``pssp-nt-hardened``, rdrand starvation burns guest retry cycles)
#: and one where they trip the breaker (``pssp``, preload/tear storms).
CHAOS_BUDGET = 4_000
CHAOS_SCHEMES = ("pssp", "pssp-nt-hardened")

DEFAULT_MIN_THROUGHPUT_RATIO = 0.25

#: Summary fields compared exactly against the committed baseline.
#: All are pure functions of (seed, config, scheme) — simulated cycles
#: included — so any difference is a behaviour change, not noise.
GATED_FIELDS = (
    "requests", "benign_requests", "attack_requests", "sessions",
    "detections", "crashes", "breaches", "breaches_by_kind",
    "detection_rate", "time_to_detection", "simulated_rps",
    "latency_cycles", "lost_slices", "audit_divergences",
)

#: Supervision fields gated exactly against the baseline's ``chaos``
#: section.  ``slices_retried`` is deliberately absent: retry counts
#: are host health, not measured behaviour.
SUPERVISION_GATED_FIELDS = (
    "deadline_reaps", "quarantined_requests", "breaker_trips",
    "parent_restarts", "faulted_requests", "clean_requests",
    "faulted_mean_cycles", "clean_mean_cycles", "rerand_window_stretch",
)


def measure_jobs_invariance() -> dict:
    serial = run_fleet(
        PROBE_BUDGET, schemes=PROBE_SCHEMES, slice_requests=PROBE_SLICE
    )
    pooled = run_fleet(
        PROBE_BUDGET, schemes=PROBE_SCHEMES, slice_requests=PROBE_SLICE,
        jobs=2,
    )
    return {
        "budget": PROBE_BUDGET,
        "schemes": list(PROBE_SCHEMES),
        "identical": (
            json.dumps(serial.to_json(), sort_keys=True)
            == json.dumps(pooled.to_json(), sort_keys=True)
        ),
    }


def measure_chaos() -> dict:
    kwargs = dict(
        schemes=CHAOS_SCHEMES, slice_requests=SLICE_REQUESTS, chaos=True
    )
    serial = run_fleet(CHAOS_BUDGET, **kwargs)
    pooled = run_fleet(CHAOS_BUDGET, jobs=2, **kwargs)
    return {
        "budget_per_scheme": CHAOS_BUDGET,
        "schemes": list(CHAOS_SCHEMES),
        "chaos_seed": serial.chaos_seed,
        "identical": (
            json.dumps(serial.to_json(), sort_keys=True)
            == json.dumps(pooled.to_json(), sort_keys=True)
        ),
        "lost_slices": pooled.lost_slices,
        "audit_divergences": len(pooled.audit_divergences),
        "supervision": {
            r.scheme: r.supervision_summary() for r in pooled.reports
        },
    }


def measure_campaign(budget: int) -> dict:
    """Serve the campaign one scheme at a time, timing each scheme."""
    summaries, scheme_wall_rps = {}, {}
    total_requests = lost_slices = audit_divergences = 0
    wall = 0.0
    for scheme in DEFAULT_FLEET_SCHEMES:
        start = time.perf_counter()
        report = run_fleet(
            budget, schemes=(scheme,), slice_requests=SLICE_REQUESTS, jobs=2
        )
        elapsed = time.perf_counter() - start
        wall += elapsed
        total_requests += report.total_requests
        lost_slices += report.lost_slices
        audit_divergences += len(report.audit_divergences)
        summaries[scheme] = report.reports[0].summary()
        scheme_wall_rps[scheme] = (
            report.total_requests / elapsed if elapsed else 0.0
        )
    return {
        "budget_per_scheme": budget,
        "slice_requests": SLICE_REQUESTS,
        "base_seed": DEFAULT_BASE_SEED,
        "schemes": list(DEFAULT_FLEET_SCHEMES),
        "config": TrafficConfig().to_json(),
        "total_requests": total_requests,
        "lost_slices": lost_slices,
        "audit_divergences": audit_divergences,
        "wall_seconds": wall,
        "wall_rps": total_requests / wall if wall else 0.0,
        "scheme_wall_rps": scheme_wall_rps,
        "summaries": summaries,
    }


def check_story(summaries: dict) -> list:
    """The paper's table, asserted from the campaign summaries."""
    problems = []

    def expect(condition, message):
        if not condition:
            problems.append(message)

    expect(summaries["ssp"]["breaches_by_kind"]["brute"] > 0,
           "ssp resisted brute force (static canaries must fall)")
    for scheme in ("pssp", "pssp-nt", "pssp-owf"):
        expect(summaries[scheme]["breaches_by_kind"]["brute"] == 0,
               f"{scheme} was brute-forced despite re-randomization")
    expect(summaries["pssp"]["breaches_by_kind"]["leak"] > 0,
           "pssp resisted leak replay (only the OWF binding should)")
    expect(summaries["pssp-owf"]["breaches"] == 0,
           "pssp-owf was breached")
    for scheme, summary in summaries.items():
        expect(summary["detections"] > 0, f"{scheme} detected nothing")
        expect(summary["time_to_detection"] is not None,
               f"{scheme} has no time-to-detection")
        expect(summary["audit_divergences"] == 0,
               f"{scheme} report failed its counter audit")
    return problems


def check_chaos(chaos: dict) -> list:
    """Intrinsic chaos gates: the faults must actually land."""
    problems = []
    if chaos["lost_slices"] or chaos["audit_divergences"]:
        problems.append(
            f"chaos campaign: {chaos['lost_slices']} lost slice(s), "
            f"{chaos['audit_divergences']} audit divergence(s)"
        )
    supervision = chaos["supervision"]
    activity = sum(
        s["deadline_reaps"] + s["quarantined_requests"]
        + s["breaker_trips"] + s["parent_restarts"] + s["faulted_requests"]
        for s in supervision.values()
    )
    if activity == 0:
        problems.append(
            "chaos campaign produced no supervision activity "
            "(schedules not armed?)"
        )
    stretch = supervision.get("pssp-nt-hardened", {}).get(
        "rerand_window_stretch"
    )
    if stretch is not None and stretch <= 1.0:
        problems.append(
            "starved prologues did not stretch the re-randomization "
            f"window (stretch {stretch!r} <= 1.0)"
        )
    return problems


def compare_chaos_to_baseline(chaos: dict, baseline_chaos: dict) -> list:
    """Exact comparison of the gated supervision fields per scheme."""
    problems = []
    recorded = baseline_chaos["supervision"]
    if set(recorded) != set(chaos["supervision"]):
        return [
            f"chaos scheme set changed: baseline {sorted(recorded)} vs "
            f"measured {sorted(chaos['supervision'])}"
        ]
    for scheme, summary in chaos["supervision"].items():
        for field in SUPERVISION_GATED_FIELDS:
            want = recorded[scheme].get(field)
            got = summary.get(field)
            if got != want:
                problems.append(
                    f"chaos {scheme}.{field}: baseline {want!r} vs {got!r}"
                )
    return problems


def compare_to_baseline(campaign: dict, baseline_section: dict) -> list:
    """Exact comparison of the gated summary fields, scheme by scheme."""
    problems = []
    recorded = baseline_section["summaries"]
    if set(recorded) != set(campaign["summaries"]):
        return [
            f"scheme set changed: baseline {sorted(recorded)} vs "
            f"measured {sorted(campaign['summaries'])}"
        ]
    for scheme, summary in campaign["summaries"].items():
        for field in GATED_FIELDS:
            want = recorded[scheme].get(field)
            got = summary.get(field)
            if got != want:
                problems.append(
                    f"{scheme}.{field}: baseline {want!r} vs {got!r}"
                )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help=f"CI-sized campaign ({SMOKE_BUDGET} vs {FULL_BUDGET} "
             "requests per scheme)",
    )
    parser.add_argument(
        "--budget", type=int, default=None,
        help="override the per-scheme request budget",
    )
    parser.add_argument(
        "--json", metavar="OUT", help="write the measurement report to OUT"
    )
    parser.add_argument(
        "--no-compare", action="store_true",
        help="skip the baseline comparison (baseline regeneration)",
    )
    parser.add_argument(
        "--baseline", default=str(BASELINE),
        help="baseline file to compare against",
    )
    parser.add_argument(
        "--min-throughput-ratio", type=float,
        default=DEFAULT_MIN_THROUGHPUT_RATIO,
        help="required fraction of each scheme's baseline wall "
             f"requests/sec (default: {DEFAULT_MIN_THROUGHPUT_RATIO})",
    )
    args = parser.parse_args(argv)

    budget = args.budget if args.budget is not None else (
        SMOKE_BUDGET if args.smoke else FULL_BUDGET
    )
    mode = "smoke" if budget < FULL_BUDGET else "full"

    probe = measure_jobs_invariance()
    campaign = measure_campaign(budget)
    chaos = measure_chaos()
    report = {
        "mode": mode,
        "cores": os.cpu_count() or 1,
        "probe": probe,
        "campaign": campaign,
        "chaos": chaos,
    }

    print(f"fleet campaign benchmark ({mode}, {report['cores']} cores)")
    print(f"  jobs probe ({probe['budget']}/scheme): "
          f"identical={probe['identical']}")
    print(f"  chaos probe ({chaos['budget_per_scheme']}/scheme, "
          f"seed {chaos['chaos_seed']}): identical={chaos['identical']}")
    for scheme, s in chaos["supervision"].items():
        stretch = s["rerand_window_stretch"]
        print(f"    {scheme:16s} quarantined {s['quarantined_requests']:>5,d} "
              f"trips {s['breaker_trips']} restarts {s['parent_restarts']} "
              f"stretch {stretch if stretch is None else f'{stretch:.4f}'}")
    print(f"  campaign: {campaign['total_requests']:,d} requests "
          f"({budget:,d}/scheme) in {campaign['wall_seconds']:.1f}s "
          f"-> {campaign['wall_rps']:,.0f} req/s wall")
    for scheme, summary in campaign["summaries"].items():
        by_kind = summary["breaches_by_kind"]
        print(f"    {scheme:10s} {campaign['scheme_wall_rps'][scheme]:>7,.0f} "
              f"req/s detect {summary['detections']:>7,d} "
              f"rate {summary['detection_rate']:.3f} "
              f"ttd {summary['time_to_detection']} "
              f"brute! {by_kind['brute']} leak! {by_kind['leak']}")

    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.json}")

    if not probe["identical"]:
        print("PARALLEL/SERIAL DIVERGENCE (correctness bug): the jobs=2 "
              "fleet report does not match the serial report",
              file=sys.stderr)
        return 2
    if not chaos["identical"]:
        print("PARALLEL/SERIAL DIVERGENCE (correctness bug): the jobs=2 "
              "chaos report does not match the serial report",
              file=sys.stderr)
        return 2

    problems = check_story(campaign["summaries"])
    problems.extend(check_chaos(chaos))
    if mode == "full" and campaign["total_requests"] < 1_000_000:
        problems.append(
            f"full campaign served {campaign['total_requests']:,d} "
            "requests (< 10^6)"
        )
    if campaign["lost_slices"] or campaign["audit_divergences"]:
        problems.append(
            f"{campaign['lost_slices']} lost slice(s), "
            f"{campaign['audit_divergences']} audit divergence(s)"
        )
    for problem in problems:
        print(f"FLEET STORY DIVERGENCE: {problem}", file=sys.stderr)
    if problems:
        return 2

    if not args.no_compare:
        baseline_path = Path(args.baseline)
        if not baseline_path.exists():
            print(f"no baseline at {baseline_path}; run with --no-compare "
                  "--json to generate one", file=sys.stderr)
            return 2
        sections = json.loads(baseline_path.read_text())
        section = sections.get(mode)
        if section is None:
            print(f"baseline has no '{mode}' section", file=sys.stderr)
            return 2
        divergences = compare_to_baseline(campaign, section["campaign"])
        baseline_chaos = section.get("chaos")
        if baseline_chaos is None:
            divergences.append(
                f"baseline '{mode}' section has no chaos section; "
                "regenerate with --no-compare --json"
            )
        else:
            divergences.extend(
                compare_chaos_to_baseline(chaos, baseline_chaos)
            )
        for line in divergences:
            print(f"BASELINE DIVERGENCE: {line}", file=sys.stderr)
        if divergences:
            return 2
        recorded_rps = section["campaign"].get("scheme_wall_rps")
        if recorded_rps is None:
            print(f"baseline '{mode}' section has no per-scheme wall_rps; "
                  "regenerate with --no-compare --json", file=sys.stderr)
            return 2
        regressions = []
        for scheme, baseline_rps in recorded_rps.items():
            floor = baseline_rps * args.min_throughput_ratio
            measured = campaign["scheme_wall_rps"].get(scheme, 0.0)
            if measured < floor:
                regressions.append(
                    f"{scheme}: {measured:,.0f} req/s below {floor:,.0f} "
                    f"({args.min_throughput_ratio:.0%} of baseline)"
                )
        for line in regressions:
            print(f"THROUGHPUT REGRESSION: {line}", file=sys.stderr)
        if regressions:
            return 1

    print("fleet campaign gates passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
