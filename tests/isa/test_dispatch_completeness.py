"""Completeness invariants across the ISA tables.

The interpreter keeps three parallel views of the instruction set: the
mnemonic registry (``ALL_OPS``), the cycle-cost table (``_BASE_COSTS``),
and the dispatch table (``_DISPATCH``).  The fast path adds a fourth —
the decode-cache specialisers — which must only ever cover a *subset* of
the dispatch table (anything unspecialised falls back to the generic
closure).  A mnemonic added to one table but not the others dies at
runtime with a KeyError deep inside the run loop; these tests fail it at
collection speed instead.
"""

from repro.isa.costs import _BASE_COSTS, instruction_cost, step_cost
from repro.isa.instructions import (
    ALL_OPS,
    CONDITIONAL_JUMPS,
    CONTROL_TRANSFER_OPS,
    Instruction,
)
from repro.machine.cpu import _DISPATCH


class TestTableCompleteness:
    def test_every_op_has_a_cost(self):
        assert set(_BASE_COSTS) == set(ALL_OPS), (
            f"costs missing: {sorted(ALL_OPS - set(_BASE_COSTS))}; "
            f"costs orphaned: {sorted(set(_BASE_COSTS) - ALL_OPS)}"
        )

    def test_every_op_has_a_dispatch_handler(self):
        assert set(_DISPATCH) == set(ALL_OPS), (
            f"handlers missing: {sorted(ALL_OPS - set(_DISPATCH))}; "
            f"handlers orphaned: {sorted(set(_DISPATCH) - ALL_OPS)}"
        )

    def test_dispatch_and_costs_agree(self):
        assert set(_DISPATCH) == set(_BASE_COSTS)

    def test_control_transfer_ops_are_known(self):
        assert CONTROL_TRANSFER_OPS <= ALL_OPS
        assert CONDITIONAL_JUMPS <= CONTROL_TRANSFER_OPS

    def test_decode_specialisers_are_a_dispatch_subset(self):
        from repro.machine.decode import FunctionDecoder

        # The compiler table is class-level: no decoder (and no image or
        # CPU) is needed to inspect it.
        compilers = FunctionDecoder._compilers
        assert compilers, "decoder compiler table is empty"
        unknown = set(compilers) - ALL_OPS
        assert not unknown, f"specialisers for unknown mnemonics: {sorted(unknown)}"
        assert set(compilers) <= set(_DISPATCH)


class TestCostConsistency:
    def test_step_cost_matches_instruction_cost(self):
        """``step_cost`` must charge exactly what the slow path charges."""
        for op in sorted(ALL_OPS):
            instruction = Instruction(op, ())
            base = instruction_cost(instruction)
            for dbi in (1.0, 1.22, 2.56):
                # CPU.charge computes base * dbi per instruction; step_cost
                # must reproduce that product and its TSC tick exactly.
                slow = base * dbi
                cycles, ticks = step_cost(instruction, dbi)
                assert cycles == slow, (op, dbi)
                assert ticks == (int(slow) or 1), (op, dbi)

    def test_all_costs_positive(self):
        for op, cost in _BASE_COSTS.items():
            assert cost > 0, f"{op} has non-positive base cost {cost}"
