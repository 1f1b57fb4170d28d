"""Fork-boundary invalidation matrix for shared decode templates.

Decode templates (the per-function analysis) live on the loaded image,
which ``Kernel.fork`` shares between a parent and its children; each CPU
only binds them.  Every case below runs one scenario on the fast path
with the trace-JIT on and off and demands the slow oracle's
``architectural_snapshot`` (plus any counters the scenario reports), so
a template that survived an event it should not have — a patch, a
twin's patch, a telemetry flip, a DBI rebind, a restore, a trace hook —
shows up as a divergence.
"""

import dataclasses
import gc
import warnings
import weakref

from repro import telemetry
from repro.core.deploy import build, deploy
from repro.isa.instructions import Imm
from repro.kernel.kernel import Kernel
from repro.machine.debug import architectural_snapshot
from repro.machine.snapshot import restore_process

SOURCE = """
int handler(int n) {
    char buf[24];
    int i; int acc;
    acc = 0;
    for (i = 0; i < 40; i = i + 1) {
        buf[i - (i / 23) * 23] = i;
        acc = acc + n + buf[i - (i / 23) * 23];
    }
    return acc - (acc / 256) * 256;
}
int main() { return handler(1); }
"""

#: Same shape, different arithmetic: the rewriter-style replacement.
PATCH_A = SOURCE.replace("acc + n +", "acc + n + 3 +")
PATCH_B = SOURCE.replace("acc + n +", "acc + n + n +")

#: (fast, jit) configurations checked against the slow oracle.
FAST_CONFIGS = ((True, True), (True, False))


def boot(fast, jit, *, seed=5, source=SOURCE):
    kernel = Kernel(seed=seed)
    parent, _ = deploy(kernel, build(source, "pssp", name="tpl"), "pssp", fast=fast)
    parent.cpu.jit = jit
    return kernel, parent


def fork(kernel, parent, jit):
    child = kernel.fork(parent)
    child.cpu.jit = jit
    return child


def handler_of(source):
    return build(source, "pssp", name="tpl").functions["handler"]


def matches_oracle(scenario):
    """Run ``scenario(fast, jit)`` under every configuration; return
    the oracle's result after asserting the fast runs reproduce it."""
    oracle = scenario(False, False)
    for fast, jit in FAST_CONFIGS:
        assert scenario(fast, jit) == oracle, (fast, jit)
    return oracle


def templates(process):
    decoder = process.image.decoders[process.cpu.dbi_multiplier]
    return decoder._templates


class TestSharedAcrossFork:
    def test_child_binds_the_parents_analysis(self):
        kernel, parent = boot(True, True)
        parent.call("handler", (1,))
        template = templates(parent)["handler"]
        before = telemetry.snapshot()
        child = fork(kernel, parent, True)
        child.call("handler", (2,))
        delta = telemetry.delta(before)
        assert delta.get("decode_templates_built_total", 0) == 0
        assert delta["decode_binds_total"] >= 1
        assert templates(child)["handler"] is template
        bound = child.cpu._decode_cache["handler"]
        assert bound is not parent.cpu._decode_cache["handler"]

    def test_jit_state_stays_per_cpu(self):
        kernel, parent = boot(True, True)
        parent.call("handler", (1,))
        child = fork(kernel, parent, True)
        child.call("handler", (2,))
        mine = child.cpu._decode_cache["handler"]
        theirs = parent.cpu._decode_cache["handler"]
        assert mine.jit_blocks is not theirs.jit_blocks
        assert mine.jit_counts is not theirs.jit_counts


class TestInvalidationMatrix:
    def test_child_patch_rebinds_parent_and_child(self):
        patched = handler_of(PATCH_A)

        def scenario(fast, jit):
            kernel, parent = boot(fast, jit)
            first = parent.call("handler", (1,)).exit_status
            child = fork(kernel, parent, jit)
            child.image.add_function(patched, replace=True)
            results = (
                first,
                child.call("handler", (2,)).exit_status,
                parent.call("handler", (1,)).exit_status,
            )
            if fast:
                for process in (parent, child):
                    assert process.cpu._decode_cache["handler"].function is patched
                assert templates(parent)["handler"].function is patched
            return results, [architectural_snapshot(p) for p in (parent, child)]

        (first, _, again), _ = matches_oracle(scenario)
        assert first != again, "the patch must be observed by the parent"

    def test_in_place_patch_with_invalidate_code(self):
        def scenario(fast, jit):
            kernel, parent = boot(fast, jit)
            shared = parent.image.function("handler")
            private = dataclasses.replace(shared, body=list(shared.body))
            parent.image.add_function(private, replace=True)
            first = parent.call("handler", (1,)).exit_status
            child = fork(kernel, parent, jit)
            # Same Function object, new body: only the generation moves.
            for index, instruction in enumerate(private.body):
                if instruction.op == "mov" and instruction.operands[1] == Imm(256):
                    private.body[index] = dataclasses.replace(
                        instruction, operands=(instruction.operands[0], Imm(257))
                    )
            child.image.invalidate_code()
            results = (
                first,
                child.call("handler", (1,)).exit_status,
                parent.call("handler", (1,)).exit_status,
            )
            return results, [architectural_snapshot(p) for p in (parent, child)]

        (first, patched, again), _ = matches_oracle(scenario)
        assert patched == again != first

    def test_clone_twins_patched_alike_never_share(self):
        patches = (handler_of(PATCH_A), handler_of(PATCH_B))

        def scenario(fast, jit):
            kernel = Kernel(seed=9)
            binary = build(SOURCE, "pssp", name="tpl")
            twins = [deploy(kernel, binary, "pssp", fast=fast)[0] for _ in patches]
            for process, patch in zip(twins, patches):
                process.cpu.jit = jit
                process.call("handler", (1,))
                process.image.add_function(patch, replace=True)
            assert twins[0].image is not twins[1].image
            assert (
                twins[0].image.code_generation == twins[1].image.code_generation
            )
            results = [p.call("handler", (4,)).exit_status for p in twins]
            if fast:
                for process, patch in zip(twins, patches):
                    assert templates(process)["handler"].function is patch
            return results, [architectural_snapshot(p) for p in twins]

        (results, _) = matches_oracle(scenario)
        assert results[0] != results[1]

    def test_telemetry_flip_between_forks(self):
        counter = "canary_prologue_stores_total"

        def scenario(fast, jit):
            kernel, parent = boot(fast, jit)
            parent.call("handler", (1,))
            ticks = []
            try:
                for state in (True, False, True):
                    (telemetry.enable if state else telemetry.disable)()
                    child = fork(kernel, parent, jit)
                    before = telemetry.counter_value(counter)
                    child.call("handler", (2,))
                    ticks.append(telemetry.counter_value(counter) - before)
                    if fast:
                        leaders = templates(child)["handler"].leaders
                        assert bool(leaders) is state
            finally:
                telemetry.enable()
            return ticks, architectural_snapshot(child)

        ticks, _ = matches_oracle(scenario)
        assert ticks[0] == ticks[2] > 0
        assert ticks[1] == 0, "stale canary wrappers counted while disabled"

    def test_dbi_and_native_cpus_share_one_image(self):
        def scenario(fast, jit):
            kernel, parent = boot(fast, jit)
            parent.call("handler", (1,))
            child = fork(kernel, parent, jit)
            child.cpu.dbi_multiplier = 1.22
            cycles = []
            # Telemetry off: DBI-scaled cycles would leave a fractional
            # machine_cycles_total behind for later tests' float deltas.
            telemetry.disable()
            try:
                for process in (child, parent, child):
                    start = process.cpu.cycles
                    process.call("handler", (3,))
                    cycles.append(process.cpu.cycles - start)
            finally:
                telemetry.enable()
            if fast:
                assert set(parent.image.decoders) == {1.0, 1.22}
                assert templates(child) is not templates(parent)
            return cycles, [architectural_snapshot(p) for p in (parent, child)]

        (scaled, native, scaled_again), _ = matches_oracle(scenario)
        assert scaled > native and scaled_again > native

    def test_restore_process_starts_without_templates(self):
        def scenario(fast, jit):
            kernel, parent = boot(fast, jit)
            parent.call("handler", (1,))
            restored = restore_process(parent.snapshot())
            restored.cpu.jit = jit
            assert restored.image.decoders == {}
            first = restored.call("handler", (2,))
            child = fork(restored.kernel, restored, jit)
            child.call("handler", (3,))
            if fast:
                assert templates(child) is templates(restored)
            return first.exit_status, [
                architectural_snapshot(p) for p in (restored, child)
            ]

        matches_oracle(scenario)

    def test_trace_hook_armed_in_a_child(self):
        def scenario(fast, jit):
            kernel, parent = boot(fast, jit)
            parent.call("handler", (1,))
            child = fork(kernel, parent, jit)
            seen = []
            with warnings.catch_warnings():
                # The fast path warns that a hook forces the slow loop.
                warnings.simplefilter("ignore", RuntimeWarning)
                child.cpu.trace = lambda name, index, ins: seen.append(index)
            child.call("handler", (2,))
            child.cpu.trace = None
            child.call("handler", (5,))
            parent.call("handler", (6,))
            return len(seen), [architectural_snapshot(p) for p in (parent, child)]

        traced, _ = matches_oracle(scenario)
        assert traced > 0


class TestReapRelease:
    def test_reaped_worker_is_freed_without_the_cycle_collector(self):
        # JIT off: a compiled superblock references its own runner, a
        # cycle left to the collector (fleet workers never get hot).
        kernel, parent = boot(True, False)
        parent.call("handler", (1,))
        child = fork(kernel, parent, False)
        child.feed_stdin(b"x" * 64)
        result = child.call("handler", (2,))
        assert child.cpu._decode_cache
        cpu = weakref.ref(child.cpu)
        kernel.reap(child)
        assert child.cpu._decode_cache == {}
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            del child, result
            assert cpu() is None, "a reference cycle kept the reaped CPU alive"
        finally:
            if was_enabled:
                gc.enable()
        assert "handler" in templates(parent)

    def test_reaped_crashed_worker_is_freed_too(self):
        kernel, parent = boot(True, True)
        parent.call("handler", (1,))
        child = fork(kernel, parent, True)
        child.cpu.cycle_limit = child.cpu.cycles + 50
        result = child.call("handler", (2,))
        assert result.crashed
        cpu = weakref.ref(child.cpu)
        kernel.reap(child)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            del child, result
            assert cpu() is None, "the crash traceback kept the reaped CPU alive"
        finally:
            if was_enabled:
                gc.enable()
