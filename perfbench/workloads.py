"""The benchmark's workloads: ``fleet`` and ``spec``.

Each workload is a closed loop driven from one client thread, with no
worker pool (``jobs=1`` everywhere).  A workload owns:

* ``setup()`` — the cold build and deploy of its fixed binaries (the
  build cache and spawn-image cache are emptied first);
* ``unit(i)`` — the i-th unit of work, a pure function of ``(seed, i)``,
  returning :class:`Sample` rows with host time, guest instructions and
  the simulated outcome used for correctness checks and the digest;
* ``min_units`` — the first ``min_units`` units form the fixed *round
  0*: every run executes it, the digest covers it, and the traced run
  replays it;
* ``summarize(samples)`` — the end-to-end throughput metrics.

Operations (the ``attempted`` count) are fleet slices and SPEC program
runs.  See ``README.md`` next to this file for why each
workload exists and which layers it loads.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import random
import statistics
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro import telemetry
from repro.core.deploy import build, deploy
from repro.fleet import TrafficConfig, run_fleet
from repro.fleet.server import FleetServer
from repro.kernel.kernel import Kernel
from repro.parallel.buildcache import reset_build_cache
from repro.parallel.snapcache import reset_image_cache
from repro.workloads.spec import SPEC_PROGRAMS

#: The headline schemes of the paper's comparison (§VI-C, Figure 5).
SCHEMES: Tuple[str, ...] = ("ssp", "pssp", "pssp-nt", "pssp-owf")

#: The only scheme whose canary code calls the AES native.
OWF_SCHEME = "pssp-owf"

#: Requests per fleet slice (one server boot per slice): ``run_fleet``'s
#: own default, which ``repro fleet`` and ``bench_fleet`` also serve.
SLICE_REQUESTS: int = inspect.signature(run_fleet).parameters["slice_requests"].default

#: Fleet summary fields that are pure functions of (seed, config,
#: scheme); a host-only change must leave every one of them unchanged.
FLEET_DIGEST_FIELDS = (
    "requests", "benign_requests", "attack_requests", "sessions",
    "detections", "crashes", "breaches", "breaches_by_kind",
    "detection_rate", "time_to_detection", "simulated_rps",
    "latency_cycles", "lost_slices", "audit_divergences",
)

_CANARY_COUNTERS = ("canary_prologue_stores_total", "canary_epilogue_checks_total")


def derived_seed(seed: int, index: int) -> int:
    """A per-unit seed: distinct for every (seed, index) pair in use."""
    return (seed * 1_000_003 + index) & 0x7FFFFFFF


def canary_leaders() -> int:
    """Dynamic canary prologue stores plus epilogue checks so far."""
    return int(sum(telemetry.counter_value(name) for name in _CANARY_COUNTERS))


def guest_instructions() -> int:
    return int(telemetry.counter_value("machine_instructions_total"))


def rotated(items: Tuple[str, ...], shift: int) -> Tuple[str, ...]:
    shift %= len(items)
    return items[shift:] + items[:shift]


def digest(records: List[Any]) -> str:
    text = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def reset_caches() -> None:
    """Empty the build and spawn-image caches (a cold start)."""
    reset_build_cache()
    reset_image_cache()


@dataclass
class Sample:
    """One timed measurement inside a unit."""

    unit: int
    scheme: str
    ops: int
    seconds: float
    instructions: int
    #: Simulated outcome, compared against the recorded digest.
    record: Any
    failed: bool = False


class Workload:
    name = ""
    min_units = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed
        #: The scheme whose code is executing (traced-run attribution).
        self.scope: Optional[str] = None
        #: Canary leaders executed per scheme (AES coverage check).
        self.canaries: Dict[Optional[str], int] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def unit(self, index: int) -> List[Sample]:
        raise NotImplementedError

    def summarize(self, samples: List[Sample]) -> Dict[str, float]:
        raise NotImplementedError

    def check(self, samples: List[Sample]) -> List[str]:
        """Workload-specific cross-sample checks; one message per problem."""
        return []

    def problems(self, samples: List[Sample]) -> List[str]:
        """Every failed operation: failed samples, workload checks, and
        units that did not repeat exactly (a unit is a pure function of
        ``(seed, index)``)."""
        problems = [
            f"{self.name} unit {s.unit} ({s.scheme}) failed" for s in samples if s.failed
        ]
        problems += self.check(samples)
        seen: Dict[Tuple[int, str], Any] = {}
        for s in samples:
            if seen.setdefault((s.unit, s.scheme), s.record) != s.record:
                problems.append(f"{self.name} unit {s.unit} ({s.scheme}) not repeatable")
        return problems

    def round_zero_digest(self, samples: List[Sample]) -> str:
        """Digest of round 0: the leading run of units 0 .. min_units - 1."""
        records, last = [], -1
        for s in samples:
            if s.unit < last or s.unit >= self.min_units:
                break
            last = s.unit
            records.append(s.record)
        return digest(records)

    def _count_canaries(self, scheme: Optional[str], leaders: int) -> None:
        self.canaries[scheme] = self.canaries.get(scheme, 0) + leaders


class FleetWorkload(Workload):
    """``run_fleet`` with the default traffic mix, one slice per unit.

    Unit ``i`` serves one ``SLICE_REQUESTS`` slice of scheme
    ``SCHEMES[(i + i // 4) % 4]`` seeded by round ``i // 4``, so every
    round serves the same traffic to all four schemes in a rotating
    order and host-speed drift lands on all of them alike.
    """

    name = "fleet"
    min_units = len(SCHEMES)

    def setup(self) -> None:
        reset_caches()
        for scheme in SCHEMES:
            FleetServer.boot(scheme, self.seed)

    def unit(self, index: int) -> List[Sample]:
        round_index = index // len(SCHEMES)
        scheme = rotated(SCHEMES, round_index)[index % len(SCHEMES)]
        self.scope = scheme
        leaders = canary_leaders()
        instructions = guest_instructions()
        start = time.perf_counter()
        report = run_fleet(
            SLICE_REQUESTS,
            schemes=(scheme,),
            base_seed=derived_seed(self.seed, round_index),
            config=TrafficConfig(),
        )
        seconds = time.perf_counter() - start
        self._count_canaries(scheme, canary_leaders() - leaders)
        self.scope = None
        summary = report.scheme_report(scheme).summary()
        return [Sample(
            unit=index,
            scheme=scheme,
            ops=report.total_requests,
            seconds=seconds,
            instructions=guest_instructions() - instructions,
            record=[scheme] + [summary[key] for key in FLEET_DIGEST_FIELDS],
            failed=bool(report.lost_slices or report.audit_divergences),
        )]

    def summarize(self, samples: List[Sample]) -> Dict[str, float]:
        metrics = {
            f"ops_per_s.{scheme}": statistics.median(
                s.ops / s.seconds for s in samples if s.scheme == scheme
            )
            for scheme in SCHEMES
        }
        rounds: Dict[int, List[Sample]] = {}
        for sample in samples:
            rounds.setdefault(sample.unit // len(SCHEMES), []).append(sample)
        complete = [r for r in rounds.values() if len(r) == len(SCHEMES)]
        metrics["ops_per_s.all"] = statistics.median(
            sum(s.ops for s in r) / sum(s.seconds for s in r) for r in complete
        )
        metrics["sim_mips"] = statistics.median(
            sum(s.instructions for s in r) / sum(s.seconds for s in r) / 1e6
            for r in complete
        )
        return metrics


class SpecWorkload(Workload):
    """The 28 SPEC-like programs under each headline scheme.

    Set-up builds and deploys all 112 binaries.  Unit ``i`` runs program
    ``i % 28`` of pass ``i // 28`` (a seeded order per pass) once under
    every scheme, each in a freshly deployed process whose kernel seed
    depends only on (seed, program), so every pass repeats identical
    simulated work and a program's host time is the median over passes.
    """

    name = "spec"
    min_units = len(SPEC_PROGRAMS)

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.binaries: Dict[Tuple[str, str], Any] = {}
        self._orders: Dict[int, List[int]] = {}

    def setup(self) -> None:
        reset_caches()
        self.binaries = {}
        for index, program in enumerate(SPEC_PROGRAMS):
            for scheme in SCHEMES:
                binary = build(program.source, scheme, name=program.name)
                self.binaries[program.name, scheme] = binary
                deploy(Kernel(derived_seed(self.seed, index)), binary, scheme)

    def _order(self, pass_index: int) -> List[int]:
        if pass_index not in self._orders:
            order = list(range(len(SPEC_PROGRAMS)))
            random.Random(derived_seed(self.seed, pass_index)).shuffle(order)
            self._orders[pass_index] = order
        return self._orders[pass_index]

    def unit(self, index: int) -> List[Sample]:
        pass_index, position = divmod(index, len(SPEC_PROGRAMS))
        program_index = self._order(pass_index)[position]
        program = SPEC_PROGRAMS[program_index]
        samples = []
        for scheme in rotated(SCHEMES, index):
            process, _ = deploy(
                Kernel(derived_seed(self.seed, program_index)),
                self.binaries[program.name, scheme], scheme,
            )
            self.scope = scheme
            leaders = canary_leaders()
            start = time.perf_counter()
            result = process.run()
            seconds = time.perf_counter() - start
            self._count_canaries(scheme, canary_leaders() - leaders)
            self.scope = None
            samples.append(Sample(
                unit=index,
                scheme=scheme,
                ops=1,
                seconds=seconds,
                instructions=result.instructions,
                record=[program.name, scheme, result.state, result.exit_status,
                        result.instructions, float(result.cycles).hex()],
                failed=result.crashed,
            ))
        return samples

    def summarize(self, samples: List[Sample]) -> Dict[str, float]:
        times: Dict[Tuple[str, str], List[float]] = {}
        instructions: Dict[Tuple[str, str], int] = {}
        for sample in samples:
            key = (sample.record[0], sample.scheme)
            times.setdefault(key, []).append(sample.seconds)
            instructions[key] = sample.instructions
        median = {key: statistics.median(values) for key, values in times.items()}
        metrics = {}
        for scheme in SCHEMES:
            runs = [key for key in median if key[1] == scheme]
            metrics[f"ops_per_s.{scheme}"] = len(runs) / sum(median[k] for k in runs)
        total = sum(median.values())
        metrics["ops_per_s.all"] = len(median) / total
        metrics["sim_mips"] = sum(instructions.values()) / total / 1e6
        return metrics

    def check(self, samples: List[Sample]) -> List[str]:
        problems = []
        first: Dict[Tuple[str, str], Any] = {}
        statuses: Dict[Tuple[int, str], set] = {}
        for sample in samples:
            name, scheme = sample.record[0], sample.scheme
            reference = first.setdefault((name, scheme), sample.record)
            if sample.record != reference:
                problems.append(f"spec {name}/{scheme} changed between passes")
            statuses.setdefault((sample.unit, name), set()).add(sample.record[3])
        for (_, name), seen in statuses.items():
            if len(seen) != 1:
                problems.append(f"spec {name}: checksums differ across schemes {seen}")
        return problems


WORKLOADS = {cls.name: cls for cls in (FleetWorkload, SpecWorkload)}
