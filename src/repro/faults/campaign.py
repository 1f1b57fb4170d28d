"""Seeded chaos campaigns: inject faults, classify and audit the outcome.

One campaign case is (program seed → generated program, fault schedule,
scheme).  The case runs twice:

* **reference** — same scheme, same kernel seed, *no* fault plane.  The
  reference must exit cleanly (anything else is an infrastructure error,
  not a chaos finding — benign programs are the fuzzer's contract).
* **faulted** — a fresh kernel with a :class:`~repro.faults.plane.FaultPlane`
  carrying the schedule, run down the slow path with a
  :class:`CanaryAuditor` watching every canary store.

The fault-outcome invariant then demands one of three *auditable*
outcomes and nothing else:

==============  ==============================================================
``identical``   behaviour matches the reference; any delivered faults are
                explained by the absorption ledger
``detected``    the run ended in ``StackSmashDetected`` (a corrupted
                canary was *caught*)
``degraded``    a typed :class:`~repro.errors.DegradedError`, or identical
                behaviour with explicit degradation events on the ledger
==============  ==============================================================

Everything else — behaviour divergence without a typed error, an untyped
crash, or an auditor finding (zero, stuck, or unexplained canary) — is an
invariant violation.  Determinism is inherited from the fuzzer: one seed
reproduces the program, the kernel entropy, *and* the schedule, so
``python -m repro chaos --replay SEED`` is bit-identical.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from .. import telemetry
from ..core.deploy import build, deploy
from ..errors import CampaignError, DegradedError
from ..fuzz.conformance import FUZZ_CYCLE_LIMIT, _fingerprint
from ..isa.instructions import Mem, Reg
from ..kernel.kernel import Kernel
from ..parallel.campaign import open_checkpoint, run_units
from ..workloads.generator import (
    FunctionSpec,
    ProgramSpec,
    generate_fuzz_program,
    render_program,
)
from .plane import FaultPlane
from .policy import (
    AUDIT_REPEAT_THRESHOLD,
    FORK_RETRY_LIMIT,
    SELFTEST_DRAWS,
)
from .schedule import FaultEvent, FaultSchedule, generate_fault_schedule

#: Chaos programs share the fuzzer's per-program cycle budget: a faulted
#: run that livelocks dies with a fast, attributable SIGXCPU instead of
#: stalling the campaign (the per-program timeout).
CHAOS_CYCLE_LIMIT = FUZZ_CYCLE_LIMIT

#: Events that legitimise a fallback canary or a repeated fresh value.
_DEGRADED_EVENT_KINDS = frozenset({"rdrand-exhausted", "entropy-degraded"})


class CanaryAuditor:
    """Watch canary stores through the CPU trace hook.

    Installing a trace hook forces the interpreter's slow path, so every
    prologue store is observed.  The auditor follows the instruction
    *notes* the passes attach: a fresh per-call draw must never be zero
    and must not silently repeat; a fallback load must match the TLS
    shadow pair and be explained by a degradation event.  The hook
    re-attaches itself to forked children and new threads.
    """

    #: Fresh-path C0 stores (hardened pass, and the plain NT store the
    #: fallback-disabled mutant degenerates to).
    FRESH_NOTES = frozenset({"pssp-nt-hardened-c0"})
    PLAIN_NOTE = "pssp-nt-prologue"
    FALLBACK_NOTE = "pssp-nt-fallback-c0"

    def __init__(self, plane: FaultPlane) -> None:
        self.plane = plane
        self.fresh_values: List[int] = []
        self.zero_stores = 0
        self.fallback_stores = 0
        self.fallback_mismatches: List[str] = []

    def attach(self, process) -> None:
        def hook(name, index, instruction, _process=process):
            self._observe(_process, instruction)

        process.cpu.trace = hook
        process.fork_hooks.append(lambda child, parent: self.attach(child))
        process.thread_hooks.append(lambda thread, parent: self.attach(thread))

    def _is_plain_c0_store(self, instruction) -> bool:
        return (
            len(instruction.operands) == 2
            and isinstance(instruction.operands[0], Mem)
            and instruction.operands[1] == Reg("rax")
        )

    def _observe(self, process, instruction) -> None:
        note = instruction.note
        if instruction.op != "mov" or not note:
            return
        if note in self.FRESH_NOTES or (
            note == self.PLAIN_NOTE and self._is_plain_c0_store(instruction)
        ):
            value = process.cpu.registers.read("rax")
            self.fresh_values.append(value)
            if value == 0:
                self.zero_stores += 1
        elif note == self.FALLBACK_NOTE:
            self.fallback_stores += 1
            value = process.cpu.registers.read("rax")
            expected = process.tls.shadow_c0
            if value != expected:
                self.fallback_mismatches.append(
                    f"fallback canary {value:#x} != TLS shadow C0 {expected:#x}"
                )

    def findings(self, *, require_store: bool = False) -> List[str]:
        """Auditor verdicts; non-empty = invariant violation."""
        problems: List[str] = []
        if self.zero_stores:
            problems.append(
                f"{self.zero_stores} zero canary store(s) on the fresh path "
                f"(predictable canary)"
            )
        counts = Counter(v for v in self.fresh_values if v)
        if counts:
            value, repeats = counts.most_common(1)[0]
            if (
                repeats >= AUDIT_REPEAT_THRESHOLD
                and not (_DEGRADED_EVENT_KINDS & self.plane.event_kinds())
            ):
                problems.append(
                    f"fresh canary {value:#x} repeated {repeats}x with no "
                    f"entropy-degraded event (silently stuck source)"
                )
        problems.extend(self.fallback_mismatches)
        if self.fallback_stores and not (
            _DEGRADED_EVENT_KINDS & self.plane.event_kinds()
        ):
            problems.append(
                "fallback canary used without a recorded exhaustion/"
                "degradation event"
            )
        if require_store and not self.fresh_values and not self.fallback_stores:
            problems.append(
                "no canary store observed in a case known to run protected "
                "prologues"
            )
        return problems


@dataclass
class ChaosRun:
    """Outcome of one fault schedule against one program."""

    seed: int
    scheme: str
    description: str
    outcome: str  #: identical | detected | degraded | divergence
    expected: Tuple[str, ...]
    violations: List[str] = field(default_factory=list)
    events: List[str] = field(default_factory=list)
    delivered: Dict[str, int] = field(default_factory=dict)
    absorbed: int = 0
    detail: str = ""
    case: str = ""  #: non-empty for canned (non-generated) cases

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def replay_command(self) -> str:
        if self.case:
            return f"python -m repro chaos --self-check"
        return f"python -m repro chaos --replay {self.seed}"

    def to_json(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "scheme": self.scheme,
            "description": self.description,
            "outcome": self.outcome,
            "expected": list(self.expected),
            "violations": list(self.violations),
            "events": list(self.events),
            "delivered": dict(self.delivered),
            "absorbed": self.absorbed,
            "detail": self.detail,
            "case": self.case,
            "replay": self.replay_command,
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "ChaosRun":
        return cls(
            seed=int(data["seed"]),
            scheme=data["scheme"],
            description=data.get("description", ""),
            outcome=data["outcome"],
            expected=tuple(data.get("expected", ())),
            violations=list(data.get("violations", [])),
            events=list(data.get("events", [])),
            delivered={k: int(v) for k, v in data.get("delivered", {}).items()},
            absorbed=int(data.get("absorbed", 0)),
            detail=data.get("detail", ""),
            case=data.get("case", ""),
        )

    def render(self) -> str:
        head = self.case or f"seed {self.seed}"
        line = (
            f"{head}: scheme={self.scheme} outcome={self.outcome} "
            f"(expected {'/'.join(self.expected)}) — {self.description}"
        )
        lines = [line]
        for violation in self.violations:
            lines.append(f"  VIOLATION: {violation}")
        return "\n".join(lines)


@dataclass
class ChaosReport:
    """Outcome of one chaos campaign."""

    budget: int
    base_seed: int
    runs: List[ChaosRun] = field(default_factory=list)
    infra_errors: List[Tuple[int, str]] = field(default_factory=list)
    timed_out: bool = False
    #: Shards that needed more than one attempt, ``"first..last" ->
    #: attempts`` (empty on serial and healthy parallel runs).
    shard_attempts: Dict[str, int] = field(default_factory=dict)

    @property
    def violating_runs(self) -> List[ChaosRun]:
        return [run for run in self.runs if not run.ok]

    @property
    def ok(self) -> bool:
        return (
            not self.violating_runs
            and not self.infra_errors
            and not self.timed_out
        )

    def outcome_tally(self) -> Dict[str, int]:
        tally: Dict[str, int] = {}
        for run in self.runs:
            tally[run.outcome] = tally.get(run.outcome, 0) + 1
        return tally

    def to_json(self) -> Dict[str, Any]:
        return {
            "budget": self.budget,
            "base_seed": self.base_seed,
            "timed_out": self.timed_out,
            "shard_attempts": dict(sorted(self.shard_attempts.items())),
            "infra_errors": [[seed, detail] for seed, detail in self.infra_errors],
            "runs": [run.to_json() for run in self.runs],
        }

    def render(self) -> str:
        tally = ", ".join(
            f"{kind}×{count}" for kind, count in sorted(self.outcome_tally().items())
        )
        lines = [
            f"chaos: {len(self.runs)}/{self.budget} schedules, "
            f"base seed {self.base_seed}, outcomes: {tally or 'none'}"
        ]
        for span, attempts in sorted(self.shard_attempts.items()):
            lines.append(f"shard {span}: {attempts} attempt(s)")
        for run in self.violating_runs:
            lines.append(run.render())
            lines.append(f"  replay: {run.replay_command}")
        for seed, detail in self.infra_errors:
            lines.append(f"seed {seed}: INFRASTRUCTURE ERROR: {detail}")
        if self.timed_out:
            lines.append("campaign DEADLINE EXCEEDED (resume with --resume)")
        lines.append(
            "FAULT-OUTCOME INVARIANT OK" if self.ok
            else f"{len(self.violating_runs)} violating run(s), "
                 f"{len(self.infra_errors)} infrastructure error(s)"
        )
        return "\n".join(lines)


def _chaos_fingerprint(kernel, process, result) -> Dict[str, Any]:
    """Conformance fingerprint + waitpid-visible child outcomes.

    Reaped children leave ``kernel.processes``, so the base fingerprint
    alone cannot tell "fork absorbed the EAGAIN" from "fork surfaced -1
    and no child ever ran" when the parent ignores the pid.  The child
    results the kernel records on the parent close that blind spot.
    """
    fingerprint = _fingerprint(kernel, process, result)
    fingerprint["child_results"] = [
        (child_result.state, child_result.exit_status, child_result.signal)
        for _pid, child_result in getattr(process, "child_results", [])
    ]
    return fingerprint


def _apply_tls_flips(process, plane: FaultPlane) -> None:
    """Deliver post-install ``tls-flip`` events (one-shot bit flips)."""
    for event in plane.schedule.events:
        if event.kind != "tls-flip":
            continue
        slot = event.slot or "shadow_c0"
        tls = process.tls
        setattr(tls, slot, getattr(tls, slot) ^ (1 << event.bit))
        plane.record_delivered("tls-flip", f"{slot} bit {event.bit}")


def run_chaos_case(
    seed: int,
    *,
    spec: Optional[ProgramSpec] = None,
    schedule: Optional[FaultSchedule] = None,
    cycle_limit: int = CHAOS_CYCLE_LIMIT,
    audit: bool = True,
    require_store: bool = False,
    case: str = "",
) -> ChaosRun:
    """Run one (program, schedule) case and classify the outcome.

    ``spec``/``schedule`` default to the deterministic seed derivation —
    pass both to replay a canned or corpus case instead.  Raises
    :class:`CampaignError` for infrastructure problems (the reference run
    must exit cleanly); never raises for invariant violations.
    """
    if spec is None:
        spec, source = generate_fuzz_program(seed)
    else:
        source = render_program(spec)
    if schedule is None:
        schedule = generate_fault_schedule(seed, spec)
    scheme = schedule.scheme

    # Reference: same scheme, same kernel seed, no plane.  The faulted run
    # consumes the identical entropy stream (injection never draws from
    # process entropy), so this is the exact no-fault twin.
    try:
        kernel = Kernel(seed)
        binary = build(source, scheme, name="chaos")
        process, _ = deploy(kernel, binary, scheme, cycle_limit=cycle_limit)
        result = process.run()
    except Exception as error:
        raise CampaignError(f"reference run failed to deploy: {error!r}")
    if result.state != "exited":
        raise CampaignError(
            f"reference run did not exit cleanly: state={result.state} "
            f"signal={result.signal}"
        )
    reference = _chaos_fingerprint(kernel, process, result)

    plane = FaultPlane(schedule)
    auditor = CanaryAuditor(plane) if audit else None
    run = ChaosRun(
        seed=seed,
        scheme=scheme,
        description=schedule.description,
        outcome="",
        expected=schedule.expected,
        case=case,
    )
    try:
        kernel = Kernel(seed, fault_plane=plane)
        binary = build(source, scheme, name="chaos")
        process, _ = deploy(
            kernel, binary, scheme, cycle_limit=cycle_limit,
            fast=auditor is None,
        )
    except DegradedError as error:
        # Fail-closed at install time (e.g. a persistently torn publish).
        run.outcome = "degraded"
        run.detail = str(error)
    else:
        if auditor is not None:
            auditor.attach(process)
        _apply_tls_flips(process, plane)
        result = process.run()
        if result.smashed:
            run.outcome = "detected"
            run.detail = str(result.crash)
        elif isinstance(result.crash, DegradedError):
            run.outcome = "degraded"
            run.detail = str(result.crash)
        elif result.state == "exited":
            observed = _chaos_fingerprint(kernel, process, result)
            if observed == reference:
                run.outcome = "degraded" if plane.events else "identical"
            else:
                run.outcome = "divergence"
                run.detail = "; ".join(
                    f"{key}: {reference[key]!r} != {observed[key]!r}"
                    for key in reference
                    if reference[key] != observed[key]
                )
        else:
            run.outcome = "divergence"
            run.detail = (
                f"untyped crash: state={result.state} signal={result.signal} "
                f"crash={result.crash!r}"
            )

    run.events = sorted(plane.event_kinds())
    run.delivered = plane.delivered_counts()
    run.absorbed = len(plane.absorbed)

    if run.outcome == "divergence":
        run.violations.append(
            f"behaviour diverged without a typed outcome: {run.detail}"
        )
    elif run.outcome not in run.expected and run.outcome != "identical":
        run.violations.append(
            f"outcome {run.outcome!r} not among expected "
            f"{'/'.join(run.expected)} ({run.detail or 'no detail'})"
        )
    if auditor is not None:
        run.violations.extend(auditor.findings(require_store=require_store))
    return run


def _check_chaos_seed(
    seed: int,
    *,
    scheme_filter: Optional[frozenset] = None,
    retries: int = 1,
    cycle_limit: int = CHAOS_CYCLE_LIMIT,
    audit: bool = True,
) -> Tuple[str, Any]:
    """Run one campaign seed with retries; the unit of campaign work.

    Returns ``("skip", None)`` when the scheme filter gates the seed,
    ``("run", ChaosRun)`` for a completed case, or ``("infra", detail)``
    after the retry budget is spent on :class:`CampaignError`.  The
    engine runs this in-process or in a shard worker, so both modes
    classify (and count) identically.
    """
    spec = schedule = None
    if scheme_filter is not None:
        spec, _ = generate_fuzz_program(seed)
        schedule = generate_fault_schedule(seed, spec)
        if schedule.scheme not in scheme_filter:
            return ("skip", None)
    last_error = ""
    for _attempt in range(1 + max(0, retries)):
        try:
            run = run_chaos_case(
                seed, spec=spec, schedule=schedule,
                cycle_limit=cycle_limit, audit=audit,
            )
        except CampaignError as error:
            last_error = str(error)
            continue
        telemetry.count("chaos_cases_total", help="chaos cases completed")
        telemetry.count(
            f"chaos_outcome_{run.outcome.replace('-', '_')}_total",
            help="chaos cases by outcome",
        )
        if not run.ok:
            telemetry.count(
                "chaos_violations_total", len(run.violations),
                help="chaos invariant violations",
            )
        return ("run", run)
    return ("infra", last_error)


def _chaos_unit(config: Dict[str, Any], seed: int) -> Tuple[str, Any]:
    """The engine's unit: one campaign seed under the campaign's knobs."""
    return _check_chaos_seed(seed, **config)


def _encode_case(unit: Tuple[str, Any]) -> List[Any]:
    kind, payload = unit
    return [kind, payload.to_json() if kind == "run" else payload]


def _decode_case(data: List[Any]) -> Tuple[str, Any]:
    kind, payload = data
    return kind, ChaosRun.from_json(payload) if kind == "run" else payload


def run_campaign(
    budget: int = 50,
    *,
    base_seed: int = 2018,
    retries: int = 1,
    shard_retries: int = 1,
    deadline: Optional[float] = None,
    checkpoint_path: Optional[str] = None,
    resume: bool = False,
    schemes: Optional[Tuple[str, ...]] = None,
    cycle_limit: int = CHAOS_CYCLE_LIMIT,
    audit: bool = True,
    progress: Optional[Callable[[str], None]] = None,
    jobs: int = 1,
) -> ChaosReport:
    """Run ``budget`` seeded chaos cases (seeds ``base_seed + i``).

    * ``schemes`` — optional filter: only run the schedules targeting
      these schemes (the per-scheme CI smoke jobs).  Skipped seeds keep
      their place in the stream, so a filtered campaign's surviving
      cases are bit-identical to the same seeds in the full campaign.
    * ``retries`` — re-attempts per case on :class:`CampaignError` before
      recording an infrastructure error (never retried: invariant
      violations, which are deterministic findings).
    * ``shard_retries`` — re-queues per lost *shard* (``jobs > 1``)
      before its seeds are recorded as infrastructure errors; shards
      that needed more than one attempt land in
      ``report.shard_attempts``.
    * ``deadline`` — wall-clock budget in seconds; exceeding it stops the
      campaign with ``timed_out`` set (exit code 4 at the CLI).
    * ``checkpoint_path``/``resume`` — the engine's checkpoint, written
      after every case (``jobs > 1``: after every shard); resuming skips
      seeds already completed.  The checkpoint belongs to one campaign:
      resuming with a different base seed, scheme filter, cycle limit,
      audit setting or per-case retries — or from an unreadable file —
      raises :class:`CampaignError`.  A larger budget is allowed.
    * ``jobs`` — process-pool width.  The seeds run through
      :func:`repro.parallel.run_units`, so any ``jobs`` value produces a
      bit-identical report.  A shard whose worker dies is retried, then
      every seed it carried is recorded as an infrastructure error —
      never silently dropped.
    """
    report = ChaosReport(budget=budget, base_seed=base_seed)
    config = {
        "scheme_filter": frozenset(schemes) if schemes else None,
        "retries": retries,
        "cycle_limit": cycle_limit,
        "audit": audit,
    }
    checkpoint = open_checkpoint(checkpoint_path, "chaos-checkpoint", {
        "base_seed": base_seed,
        "schemes": sorted(schemes) if schemes else None,
        "cycle_limit": cycle_limit,
        "audit": audit,
        "retries": retries,
    }, resume=resume)

    def merge(seed: int, unit: Tuple[str, Any]) -> None:
        kind, payload = unit
        if kind == "run":
            report.runs.append(payload)
            if not payload.ok and progress:
                progress(f"seed {seed}: {len(payload.violations)} violation(s)")
        elif kind == "infra":
            report.infra_errors.append((seed, payload))
            if progress:
                progress(f"seed {seed}: infrastructure error: {payload}")

    def lost(outcome) -> None:
        for seed in outcome.shard.seeds:
            report.infra_errors.append((
                seed,
                f"worker lost shard {outcome.shard.index} after "
                f"{outcome.attempts} attempt(s): {outcome.error}",
            ))
        if progress:
            progress(f"shard {outcome.shard.index}: worker lost ({outcome.error})")

    result = run_units(
        _chaos_unit, config, base_seed, budget,
        merge=merge, encode=_encode_case, decode=_decode_case, lost=lost,
        jobs=jobs, retries=shard_retries, deadline=deadline,
        checkpoint=checkpoint,
        progress=(
            (lambda done, total: progress(f"{done}/{total} schedules done"))
            if progress else None
        ),
    )
    report.timed_out = result.timed_out
    report.shard_attempts = result.shard_attempts
    if result.timed_out and progress:
        progress(f"deadline hit after {len(report.runs)} case(s)")
    # Canonical order: resumed units merge before fresh ones, and a
    # deadline can leave holes between them.
    report.runs.sort(key=lambda run: (run.seed, run.case))
    report.infra_errors.sort()
    return report


def replay_case(seed: int, *, audit: bool = True) -> ChaosRun:
    """Re-derive and re-run one campaign case bit-identically."""
    return run_chaos_case(seed, audit=audit)


# -- canned invariant cases ---------------------------------------------------
#
# Hand-written (program, schedule) pairs that deterministically reach each
# degradation path.  They back three consumers: the conformance contract's
# sixth clause, the chaos mutation self-check, and the corpus reproducers.


def _nt_spec() -> ProgramSpec:
    """A forkless program with several protected NT prologue executions."""
    worker = FunctionSpec(
        name="ntw", buffer_bytes=32, inner_iterations=3, ops=[0, 1]
    )
    return ProgramSpec(
        functions=[worker], main_calls=["ntw", "ntw"], outer_iterations=2
    )


def _fork_spec() -> ProgramSpec:
    """A program whose main loop forks a protected worker."""
    worker = FunctionSpec(
        name="fkw", buffer_bytes=16, inner_iterations=2, ops=[0]
    )
    return ProgramSpec(
        functions=[worker],
        main_calls=["fkw"],
        outer_iterations=1,
        use_fork=True,
        fork_callee="fkw",
    )


@dataclass
class ChaosCase:
    """One canned (program, schedule) invariant case."""

    name: str
    spec: ProgramSpec
    schedule: FaultSchedule
    #: The case is known to execute protected prologues, so the auditor
    #: must see at least one canary store.
    require_store: bool = False


def canned_invariant_cases() -> List[ChaosCase]:
    """The deterministic reproducers replayed on every fuzz/chaos run."""
    return [
        ChaosCase(
            name="nt-rdrand-starved",
            spec=_nt_spec(),
            schedule=FaultSchedule(
                scheme="pssp-nt-hardened",
                events=[
                    FaultEvent("rdrand-fail", at=SELFTEST_DRAWS, count=64)
                ],
                expected=("degraded",),
                description="rdrand starved after self-test: every prologue "
                            "must take the shadow-pair fallback",
            ),
            require_store=True,
        ),
        ChaosCase(
            name="nt-entropy-stuck",
            spec=_nt_spec(),
            schedule=FaultSchedule(
                scheme="pssp-nt-hardened",
                events=[
                    FaultEvent(
                        "rdrand-stuck", at=0, count=64,
                        value=0x5A5A_5A5A_5A5A_5A5B,
                    )
                ],
                expected=("degraded",),
                description="stuck DRBG from boot: the self-test must "
                            "quarantine rdrand before a prologue trusts it",
            ),
            require_store=True,
        ),
        ChaosCase(
            name="pssp-fork-eagain",
            spec=_fork_spec(),
            schedule=FaultSchedule(
                scheme="pssp",
                events=[
                    FaultEvent(
                        "fork-eagain", at=0, count=FORK_RETRY_LIMIT - 1
                    )
                ],
                expected=("identical",),
                description="transient fork EAGAIN burst one short of the "
                            "budget: the wrapper must absorb it",
            ),
        ),
        ChaosCase(
            name="pssp-torn-publish",
            spec=_nt_spec(),
            schedule=FaultSchedule(
                scheme="pssp",
                events=[FaultEvent("tls-torn", at=0, count=48)],
                expected=("degraded",),
                description="every shadow-half write torn: publish must fail "
                            "closed, never expose a mixed pair",
            ),
        ),
    ]


def run_canned_case(case: ChaosCase, *, seed: int = 0) -> ChaosRun:
    """Run one canned case (deterministic; ``seed`` picks the kernel)."""
    return run_chaos_case(
        seed,
        spec=case.spec,
        schedule=case.schedule,
        require_store=case.require_store,
        case=case.name,
    )
