"""Planted bugs that the conformance oracle must catch (mutation kill).

A differential fuzzer that never fails is indistinguishable from one
that checks nothing.  Each :class:`Mutant` here monkeypatches one real
defect into the live tree — spanning the compiler-pass, rewriter, and
runtime layers — and :func:`mutation_kill_report` verifies that a small
seeded campaign flags it.  If a future refactor weakens the oracle (say,
drops the fast/slow snapshot diff or the health probes), the self-check
fails before the weakness can rot silently.

Every mutant is reversible: ``install()`` returns an undo closure, and
:func:`planted` wraps the pair as a context manager, so the self-check
leaves the process state pristine.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional

from ..compiler.passes.pssp import PSSPPass
from ..isa.instructions import Function, Mem, Reg
from ..libc import preload as preload_module
from ..libc.preload import PSSPPreload
from ..machine import decode as decode_module
from ..machine.tls import SHADOW_C0_OFFSET, SHADOW_C1_OFFSET
from ..rewriter import dyninst as dyninst_module
from ..rewriter import rewrite as rewrite_module
from ..rewriter import stack_chk as stack_chk_module
from .conformance import DEFAULT_FUZZ_SCHEMES


@dataclass
class Mutant:
    """One plantable defect."""

    name: str
    layer: str  #: "pass" | "rewriter" | "runtime"
    description: str
    #: What the oracle should report (documentation; the self-check only
    #: requires *some* failure, since several clauses may fire at once).
    expected_signal: str
    install: Callable[[], Callable[[], None]]


@contextmanager
def planted(mutant: Mutant):
    """Context manager: plant ``mutant``, always undo.

    Planting monkeypatches live compiler/rewriter/runtime code — a
    toolchain change the build cache's content address cannot see — so
    the cache is dropped on both edges: images built pre-mutant must
    not satisfy in-mutant builds, and mutant-built images must not
    leak back into the clean tree.
    """
    from ..parallel.buildcache import build_cache

    build_cache().clear()
    undo = mutant.install()
    try:
        yield mutant
    finally:
        undo()
        build_cache().clear()


# -- pass-layer mutants ------------------------------------------------------


def _install_prologue_slot_off_by_one() -> Callable[[], None]:
    """P-SSP prologue stores C0 one byte below its slot.

    The epilogue still reads the correct slot, so the reassembled pair no
    longer XORs to ``C`` — the classic off-by-one frame-layout bug.
    """
    original = PSSPPass.emit_prologue

    def buggy(self, builder, plan) -> None:
        if not plan.protected:
            return
        c0_slot, c1_slot = plan.canary_slots[0], plan.canary_slots[1]
        builder.emit("mov", Reg("rax"), Mem(seg="fs", disp=SHADOW_C0_OFFSET),
                     note="pssp-prologue")
        builder.emit("mov", Mem(base="rbp", disp=-(c0_slot + 1)), Reg("rax"),
                     note="pssp-prologue")
        builder.emit("mov", Reg("rax"), Mem(seg="fs", disp=SHADOW_C1_OFFSET),
                     note="pssp-prologue")
        builder.emit("mov", Mem(base="rbp", disp=-c1_slot), Reg("rax"),
                     note="pssp-prologue")
        builder.emit("xor", Reg("rax"), Reg("rax"), note="pssp-prologue")

    PSSPPass.emit_prologue = buggy

    def undo() -> None:
        PSSPPass.emit_prologue = original

    return undo


def _install_epilogue_check_skipped() -> Callable[[], None]:
    """P-SSP epilogue emits no check at all — protection silently off."""
    original = PSSPPass.emit_epilogue_check

    def buggy(self, builder, plan) -> None:
        return None

    PSSPPass.emit_epilogue_check = buggy

    def undo() -> None:
        PSSPPass.emit_epilogue_check = original

    return undo


# -- rewriter-layer mutants --------------------------------------------------


def _install_rewriter_wrong_tls_offset() -> Callable[[], None]:
    """Rewritten prologues load ``fs:0x2b0`` instead of the packed shadow
    word at ``fs:0x2a8`` (binary mode zeroes 0x2b0, so checks mismatch)."""
    original = rewrite_module.SHADOW_C0_OFFSET
    rewrite_module.SHADOW_C0_OFFSET = SHADOW_C1_OFFSET

    def undo() -> None:
        rewrite_module.SHADOW_C0_OFFSET = original

    return undo


def _install_stack_chk_neutered() -> Callable[[], None]:
    """The replacement ``__stack_chk_fail`` always reports a match.

    The packed-canary comparison is gone: ZF is forced and the stub
    returns, so instrumented binaries never abort — a missed-detection
    bug only the scheme-health probe can see.
    """
    original = stack_chk_module.build_stack_chk_function
    original_dyninst = dyninst_module.build_stack_chk_function

    def neutered(name: str = "__stack_chk_fail") -> Function:
        function = Function(name)
        function.protected = "pssp-binary-rt"
        function.emit("cmp", Reg("rdi"), Reg("rdi"))  # ZF := 1, always
        function.emit("ret")
        return function

    stack_chk_module.build_stack_chk_function = neutered
    dyninst_module.build_stack_chk_function = neutered

    def undo() -> None:
        stack_chk_module.build_stack_chk_function = original
        dyninst_module.build_stack_chk_function = original_dyninst

    return undo


# -- runtime-layer mutants ---------------------------------------------------


def _install_wrong_xor_half() -> Callable[[], None]:
    """Algorithm 1 returns a corrupted second half: C1 = C0 ⊕ C ⊕ 1.

    The pair no longer binds to the TLS canary, so every epilogue check
    under compiler-mode P-SSP mismatches by one bit.
    """
    original = preload_module.re_randomize

    def buggy(entropy, canary, bits=64):
        c0, c1 = original(entropy, canary, bits)
        return c0, c1 ^ 1

    preload_module.re_randomize = buggy

    def undo() -> None:
        preload_module.re_randomize = original

    return undo


def _install_fork_keeps_shadow() -> Callable[[], None]:
    """``fork`` wrapper forgets to refresh the child's shadow pair —
    polymorphism silently lost (behaviour stays identical!)."""
    original = PSSPPreload.on_fork

    def buggy(self, child, parent) -> None:
        return None

    PSSPPreload.on_fork = buggy

    def undo() -> None:
        PSSPPreload.on_fork = original

    return undo


def _install_setup_unbound_shadow() -> Callable[[], None]:
    """The constructor binds the shadow pair to the wrong canary value."""
    original = PSSPPreload.setup

    def buggy(self, process) -> None:
        # Run the real setup against a near-miss canary, then restore the
        # TLS word: the shadow pair now XORs to C ^ 1, not C.
        tls = process.tls
        real = tls.canary
        tls.canary = real ^ 1
        try:
            original(self, process)
        finally:
            tls.canary = real

    PSSPPreload.setup = buggy

    def undo() -> None:
        PSSPPreload.setup = original

    return undo


def _install_decoder_cost_drift() -> Callable[[], None]:
    """The decode cache charges one extra cycle on a function's first
    step — semantics intact, but fast-path accounting drifts off the
    slow oracle (exactly the bug class the fast path's contract forbids).

    The drift is planted in the shared analysis (the template's first
    step), so every CPU that binds the template — a forked worker
    included — inherits it.  Templates live on per-process images (a
    spawn clones an empty table), so none outlives the planted window."""
    original = decode_module.FunctionDecoder.decode

    def drifted(self, function):
        template = original(self, function)
        if template.steps:
            binder, cycles, ticks, kind, next_rip = template.steps[0]
            template.steps[0] = (binder, cycles + 1, ticks, kind, next_rip)
        return template

    decode_module.FunctionDecoder.decode = drifted

    def undo() -> None:
        decode_module.FunctionDecoder.decode = original

    return undo


MUTANTS: List[Mutant] = [
    Mutant(
        "pass-prologue-slot-off-by-one", "pass",
        "P-SSP prologue stores C0 at [rbp-(slot+1)] instead of [rbp-slot]",
        "spurious-smash / behaviour-divergence under pssp",
        _install_prologue_slot_off_by_one,
    ),
    Mutant(
        "pass-epilogue-check-skipped", "pass",
        "P-SSP epilogue emits no canary check",
        "missed-detection (health probe) under pssp",
        _install_epilogue_check_skipped,
    ),
    Mutant(
        "rewriter-wrong-tls-offset", "rewriter",
        "rewritten prologues read fs:0x2b0 instead of the packed fs:0x2a8",
        "spurious-smash / spurious-detection under pssp-binary*",
        _install_rewriter_wrong_tls_offset,
    ),
    Mutant(
        "rewriter-stack-chk-neutered", "rewriter",
        "replacement __stack_chk_fail always signals a match",
        "missed-detection (health probe) under pssp-binary*",
        _install_stack_chk_neutered,
    ),
    Mutant(
        "runtime-wrong-xor-half", "runtime",
        "Algorithm 1 returns C1 = C0 XOR C XOR 1",
        "spurious-smash / spurious-detection under pssp",
        _install_wrong_xor_half,
    ),
    Mutant(
        "runtime-fork-keeps-shadow", "runtime",
        "fork wrapper skips the child's shadow-canary refresh",
        "polymorphism (health probe) under pssp/pssp-binary",
        _install_fork_keeps_shadow,
    ),
    Mutant(
        "runtime-setup-unbound-shadow", "runtime",
        "constructor binds the shadow pair to canary XOR 1",
        "spurious-smash / spurious-detection under pssp",
        _install_setup_unbound_shadow,
    ),
    Mutant(
        "runtime-decoder-cost-drift", "runtime",
        "decode cache overcharges one cycle per decoded function",
        "fast-slow-divergence on every scheme",
        _install_decoder_cost_drift,
    ),
]


@dataclass
class MutantVerdict:
    name: str
    layer: str
    killed: bool
    evidence: List[str]


def kill_mutant(
    mutant: Mutant,
    *,
    budget: int = 3,
    base_seed: int = 2018,
    schemes: Iterable[str] = DEFAULT_FUZZ_SCHEMES,
) -> MutantVerdict:
    """Plant one mutant and run a small campaign against it."""
    from .fuzzer import run_fuzz

    with planted(mutant):
        report = run_fuzz(
            budget, base_seed=base_seed, schemes=schemes,
            shrink=False, health=True,
        )
    evidence = [str(f) for f in report.health_failures]
    for failure in report.failures:
        evidence.extend(str(f) for f in failure.failures)
    return MutantVerdict(mutant.name, mutant.layer, not report.ok, evidence[:6])


def mutation_kill_report(
    *,
    budget: int = 3,
    base_seed: int = 2018,
    schemes: Iterable[str] = DEFAULT_FUZZ_SCHEMES,
    mutants: Optional[List[Mutant]] = None,
) -> Dict[str, MutantVerdict]:
    """Run the kill check for every mutant; baseline must stay clean.

    The returned dict includes a synthetic ``baseline`` entry whose
    ``killed`` flag is *False* when the unmutated tree passes (i.e. for
    ``baseline``, killed means a false positive in the oracle).
    """
    from .fuzzer import run_fuzz

    verdicts: Dict[str, MutantVerdict] = {}
    baseline = run_fuzz(
        budget, base_seed=base_seed, schemes=schemes, shrink=False, health=True
    )
    baseline_evidence = [str(f) for f in baseline.health_failures]
    for failure in baseline.failures:
        baseline_evidence.extend(str(f) for f in failure.failures)
    verdicts["baseline"] = MutantVerdict(
        "baseline", "-", not baseline.ok, baseline_evidence[:6]
    )
    for mutant in mutants if mutants is not None else MUTANTS:
        verdicts[mutant.name] = kill_mutant(
            mutant, budget=budget, base_seed=base_seed, schemes=schemes
        )
    return verdicts


def render_kill_report(verdicts: Dict[str, MutantVerdict]) -> str:
    lines = [f"{'mutant':34s} {'layer':9s} verdict"]
    ok = True
    for name, verdict in verdicts.items():
        if name == "baseline":
            good = not verdict.killed
            status = "clean" if good else "FALSE POSITIVE"
        else:
            good = verdict.killed
            status = "killed" if good else "SURVIVED"
        ok = ok and good
        lines.append(f"{name:34s} {verdict.layer:9s} {status}")
        if not good:
            lines.extend(f"    {item}" for item in verdict.evidence[:3])
    lines.append("MUTATION KILL OK" if ok else "ORACLE TOO WEAK")
    return "\n".join(lines)


def kill_report_ok(verdicts: Dict[str, MutantVerdict]) -> bool:
    return all(
        (not v.killed) if name == "baseline" else v.killed
        for name, v in verdicts.items()
    )
