"""The traced run: per-layer attribution of set-up plus round 0.

A pass is one cold set-up of the workload followed by its fixed round 0
(its first ``min_units`` units), so the compiler and both caches are
attributed alongside the run-time layers.  The traced run alternates an untraced pass and a
traced pass until the time budget is spent, so both see the same
simulated work and the same host conditions.  Per-layer metrics come
from the traced pass whose wall time is the median; ``trace.overhead``
is the median ratio of traced to untraced wall time.

Counts (calls per operation, cache hit ratios, compiles per run, ...)
are exact: they come from wrapper call counts and telemetry counter
deltas, and every traced pass must reproduce them.  Per-operation,
per-call and per-run metrics use the deltas over round 0 alone, so work
done only in set-up cannot move them; the compiler and cache metrics and
the shares use the whole pass.  The coverage check compares wrapper
counts with the program's own counters, and a layer entry point that
cannot be found is a failure too, so a lost span fails the run.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro import telemetry
from spans import LAYERS, SpanRecorder
from workloads import OWF_SCHEME

#: Telemetry counters read around each pass.
COUNTERS = (
    "process_runs_total",
    "kernel_forks_total",
    "kernel_spawns_total",
    "machine_instructions_total",
    "jit_block_entries_total",
    "jit_blocks_compiled_total",
    "memory_page_faults_total",
    "build_cache_hits_total",
    "build_cache_misses_total",
    "snapshot_cache_hits_total",
    "snapshot_cache_misses_total",
)

PER_LAYER_UNITS: Dict[str, str] = {
    "decode.calls_per_op": "count",
    "decode.calls_per_run": "count",
    "decode.self_us_per_call": "us",
    "aes.blocks_per_op": "count",
    "aes.self_us_per_block": "us",
    "aes.key_expansions_per_block": "count",
    "kernel.fork.calls_per_op": "count",
    "kernel.fork.self_us_per_fork": "us",
    "kernel.pages_faulted_per_fork": "count",
    "kernel.spawn.self_ms": "ms",
    "cpu.guest_mips": "MIPS",
    "cpu.self_us_per_op": "us",
    "jit.compiles_per_run": "count",
    "jit.self_us_per_compile": "us",
    "jit.entries_per_op": "count",
    "compiler.self_ms_per_build": "ms",
    "buildcache.hit_ratio": "ratio",
    "snapcache.hit_ratio": "ratio",
    "fleet.traffic.self_us_per_op": "us",
    "fleet.server.self_us_per_op": "us",
    "fleet.supervisor.self_us_per_op": "us",
    "attacks.self_us_per_op": "us",
    "telemetry.self_us_per_call": "us",
    **{f"{layer}.share": "ratio" for layer in LAYERS},
    "other.share": "ratio",
    "trace.overhead": "ratio",
}


def read_counters() -> Dict[str, int]:
    return {name: int(telemetry.counter_value(name)) for name in COUNTERS}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


@dataclass
class Tally:
    """Wrapper tables and telemetry counters at one instant, or the
    difference between two instants."""

    calls: Dict[str, int]
    returns: Dict[str, int]
    self_ns: Dict[str, int]
    counters: Dict[str, int]

    @classmethod
    def take(cls, recorder: SpanRecorder) -> "Tally":
        return cls(dict(recorder.calls), dict(recorder.returns),
                   dict(recorder.self_ns), read_counters())

    def __sub__(self, earlier: "Tally") -> "Tally":
        def minus(now: Dict[str, int], before: Dict[str, int]) -> Dict[str, int]:
            return {key: value - before.get(key, 0) for key, value in now.items()}

        return Tally(minus(self.calls, earlier.calls), minus(self.returns, earlier.returns),
                     minus(self.self_ns, earlier.self_ns),
                     minus(self.counters, earlier.counters))

    def runs(self) -> int:
        """Guest entry-point runs that returned."""
        return self.returns.get("Process.run", 0) + self.returns.get(
            "Process.continue_execution", 0
        )

    def layer_self_ns(self, layer_of: Dict[str, str]) -> Dict[str, int]:
        """Self nanoseconds summed per layer (every layer present)."""
        totals = {layer: 0 for layer in LAYERS}
        for key, layer in layer_of.items():
            totals[layer] += self.self_ns.get(key, 0)
        return totals


class TracedPass:
    """One traced execution of round 0 and everything measured in it."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.recorder = SpanRecorder()
        self.aes_by_scope: Dict[object, int] = {}
        self.samples = []
        self.wall_ns = 0
        #: Wrapper and counter deltas over the whole pass and over round 0.
        self.whole: Optional[Tally] = None
        self.round_zero: Optional[Tally] = None
        self.canaries: Dict[object, int] = {}

    def run(self) -> "TracedPass":
        workload, aes = self.workload, self.aes_by_scope

        def aes_call() -> None:
            aes[workload.scope] = aes.get(workload.scope, 0) + 1

        canaries_before = dict(workload.canaries)
        rec = self.recorder
        rec.install({"builtins.encrypt_block": aes_call})
        before = Tally.take(rec)
        set_up: List[Tally] = []
        try:
            start = time.perf_counter_ns()
            self.samples = run_pass(workload, lambda: set_up.append(Tally.take(rec)))
            self.wall_ns = time.perf_counter_ns() - start
        finally:
            rec.uninstall()
        after = Tally.take(rec)
        self.whole = after - before
        self.round_zero = after - set_up[0]
        self.canaries = {
            scope: count - canaries_before.get(scope, 0)
            for scope, count in workload.canaries.items()
        }
        return self

    # -- the exact counts every traced pass must reproduce -------------------

    def counts(self) -> Tuple:
        return (
            tuple(sorted(self.whole.calls.items())),
            tuple(sorted(self.whole.counters.items())),
            tuple(sorted(self.round_zero.calls.items())),
            tuple(sorted(self.round_zero.counters.items())),
            tuple(sorted((str(k), v) for k, v in self.aes_by_scope.items())),
        )

    def coverage_problems(self) -> List[str]:
        """Missing layer entry points, and wrapper counts that disagree
        with the program's own counters."""
        whole, counters = self.whole, self.whole.counters
        problems = [f"layer entry point not found: {key}" for key in self.recorder.missing]
        forks = whole.returns.get("Kernel.fork", 0)
        if forks != counters["kernel_forks_total"]:
            problems.append(
                f"Kernel.fork spans {forks} != kernel_forks_total "
                f"{counters['kernel_forks_total']}"
            )
        runs = whole.runs()
        if runs != counters["process_runs_total"]:
            problems.append(
                f"Process.run spans {runs} != process_runs_total "
                f"{counters['process_runs_total']}"
            )
        blocks = whole.calls.get("builtins.encrypt_block", 0)
        owf_blocks = self.aes_by_scope.get(OWF_SCHEME, 0)
        owf_leaders = self.canaries.get(OWF_SCHEME, 0)
        if blocks != owf_blocks or owf_blocks != owf_leaders:
            problems.append(
                f"AES native spans {blocks} ({owf_blocks} under {OWF_SCHEME}) != "
                f"{OWF_SCHEME} prologue stores + epilogue checks {owf_leaders}"
            )
        return problems

    # -- per-layer metrics -----------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        rec, whole, r0 = self.recorder, self.whole, self.round_zero
        wall = self.wall_ns
        whole_ns = whole.layer_self_ns(rec.layer_of)
        r0_ns = r0.layer_self_ns(rec.layer_of)
        ops = sum(sample.ops for sample in self.samples)
        runs = r0.runs()
        count = r0.calls.get
        decodes = count("FunctionDecoder.decode", 0)
        blocks = count("builtins.encrypt_block", 0)
        forks = count("Kernel.fork", 0)
        spawns = count("Kernel.spawn", 0)
        compiles = count("jit.compile_superblock", 0)
        telemetry_calls = count("telemetry.snapshot", 0) + count("telemetry.delta", 0)
        builds = whole.calls.get("deploy._build_uncached", 0)
        build_hits = whole.counters["build_cache_hits_total"]
        image_hits = whole.counters["snapshot_cache_hits_total"]
        build_lookups = build_hits + whole.counters["build_cache_misses_total"]
        image_lookups = image_hits + whole.counters["snapshot_cache_misses_total"]
        metrics = {
            "decode.calls_per_op": _ratio(decodes, ops),
            "decode.calls_per_run": _ratio(decodes, runs),
            "decode.self_us_per_call": _ratio(r0_ns["decode"] / 1e3, decodes),
            "aes.blocks_per_op": _ratio(blocks, ops),
            "aes.self_us_per_block": _ratio(r0_ns["aes"] / 1e3, blocks),
            "aes.key_expansions_per_block": _ratio(count("aes.expand_key", 0), blocks),
            "kernel.fork.calls_per_op": _ratio(forks, ops),
            "kernel.fork.self_us_per_fork": _ratio(
                r0.self_ns.get("Kernel.fork", 0) / 1e3, forks
            ),
            "kernel.pages_faulted_per_fork": _ratio(
                r0.counters["memory_page_faults_total"], forks
            ),
            "kernel.spawn.self_ms": _ratio(r0.self_ns.get("Kernel.spawn", 0) / 1e6, spawns),
            "cpu.guest_mips": _ratio(
                r0.counters["machine_instructions_total"], r0_ns["cpu"] / 1e3
            ),
            "cpu.self_us_per_op": _ratio(r0_ns["cpu"] / 1e3, ops),
            "jit.compiles_per_run": _ratio(compiles, runs),
            "jit.self_us_per_compile": _ratio(r0_ns["jit"] / 1e3, compiles),
            "jit.entries_per_op": _ratio(r0.counters["jit_block_entries_total"], ops),
            "compiler.self_ms_per_build": _ratio(whole_ns["compiler"] / 1e6, builds),
            "buildcache.hit_ratio": _ratio(build_hits, build_lookups),
            "snapcache.hit_ratio": _ratio(image_hits, image_lookups),
            "fleet.traffic.self_us_per_op": _ratio(r0_ns["fleet.traffic"] / 1e3, ops),
            "fleet.server.self_us_per_op": _ratio(r0_ns["fleet.server"] / 1e3, ops),
            "fleet.supervisor.self_us_per_op": _ratio(r0_ns["fleet.supervisor"] / 1e3, ops),
            "attacks.self_us_per_op": _ratio(r0_ns["attacks"] / 1e3, ops),
            "telemetry.self_us_per_call": _ratio(r0_ns["telemetry"] / 1e3, telemetry_calls),
        }
        for layer in LAYERS:
            metrics[f"{layer}.share"] = _ratio(whole_ns[layer], wall)
        metrics["other.share"] = _ratio(wall - rec.top_ns, wall)
        return metrics


def run_pass(workload, set_up_done: Callable[[], None] = lambda: None) -> list:
    """One cold set-up, then round 0; returns round 0's samples.
    ``set_up_done`` runs between the two."""
    workload.setup()
    set_up_done()
    samples = []
    for index in range(workload.min_units):
        samples.extend(workload.unit(index))
    return samples


def traced_run(workload, seconds: float):
    """Alternate untraced and traced passes for ``seconds``.

    Returns ``(samples, metrics, problems)``: every pass's samples (all
    are checked), the per-layer metrics, and coverage or repeatability
    failures.
    """
    samples, ratios, passes = [], [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        untraced_start = time.perf_counter_ns()
        samples.extend(run_pass(workload))
        untraced_ns = time.perf_counter_ns() - untraced_start
        traced = TracedPass(workload).run()
        samples.extend(traced.samples)
        passes.append(traced)
        ratios.append(traced.wall_ns / untraced_ns)

    problems = []
    for traced in passes:
        problems.extend(traced.coverage_problems())
    if any(traced.counts() != passes[0].counts() for traced in passes):
        problems.append("traced passes disagree on exact counts")
    median = sorted(passes, key=lambda traced: traced.wall_ns)[(len(passes) - 1) // 2]
    metrics = median.metrics()
    metrics["trace.overhead"] = statistics.median(ratios)
    return samples, metrics, problems
