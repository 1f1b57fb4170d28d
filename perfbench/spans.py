"""Outside-in span recorder for the traced benchmark run.

The recorder wraps the public entry point of each layer at the site where
its callers look the name up (a class attribute, or the importing
module's global), so nothing under ``src/`` changes.  Every wrapped call
is one span; spans nest through a stack, and a span's *self* time is its
duration minus the durations of the spans it directly encloses.  Spans
stay in memory as per-target aggregates (call count, returns, self
nanoseconds), so the bookkeeping per call is a clock read, a list push
and a pop.

``TARGETS`` is the layer map: ``(layer, "module[:Class]", attribute)``.
A target that no longer exists is listed in :attr:`SpanRecorder.missing`,
and the traced run fails on it: a renamed layer entry point would
otherwise read as a layer that takes no time.
"""

from __future__ import annotations

import importlib
import time
from typing import Callable, Dict, List, Optional, Tuple

#: (layer, owner, attribute).  The owner is ``module`` for a module
#: global or ``module:Class`` for a method.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("fleet.server", "repro.fleet.server:FleetServer", "handle_request"),
    ("fleet.supervisor", "repro.fleet.supervisor:FleetSupervisor", "checkout_worker"),
    ("fleet.supervisor", "repro.fleet.supervisor:FleetSupervisor", "observe"),
    ("fleet.traffic", "repro.fleet.campaign", "session_plan"),
    ("attacks", "repro.fleet.campaign", "byte_by_byte_attack"),
    ("attacks", "repro.attacks.leak:CanarySniffer", "__init__"),
    ("attacks", "repro.attacks.leak:CanarySniffer", "_hook"),
    ("attacks", "repro.attacks.leak:CanarySniffer", "disarm"),
    ("kernel", "repro.kernel.kernel:Kernel", "fork"),
    ("kernel", "repro.kernel.kernel:Kernel", "reap"),
    ("kernel", "repro.kernel.kernel:Kernel", "spawn"),
    ("cpu", "repro.kernel.process:Process", "call"),
    ("cpu", "repro.kernel.process:Process", "run"),
    ("cpu", "repro.kernel.process:Process", "continue_execution"),
    ("decode", "repro.machine.decode:FunctionDecoder", "decode"),
    ("jit", "repro.machine.jit", "compile_superblock"),
    ("aes", "repro.libc.builtins", "encrypt_block"),
    ("aes", "repro.crypto.aes", "expand_key"),
    ("compiler", "repro.core.deploy", "_build_uncached"),
    ("telemetry", "repro.telemetry", "snapshot"),
    ("telemetry", "repro.telemetry", "delta"),
)

#: Every layer a target maps to, in report order.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(layer for layer, _, _ in TARGETS))


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


def target_key(owner: str, attribute: str) -> str:
    """Short stable name of a target: ``Class.attr`` or ``module.attr``."""
    module_name, _, class_name = owner.partition(":")
    return f"{class_name or module_name.rpartition('.')[2]}.{attribute}"


class SpanRecorder:
    """Installs span wrappers on :data:`TARGETS` and aggregates them.

    ``calls[key]`` counts entries, ``returns[key]`` normal returns (a
    raised exception is not a return), ``self_ns[key]`` self time.
    ``top_ns`` is the summed duration of outermost spans: wall time not
    covered by it belongs to no layer (``other``).
    """

    def __init__(self, targets: Tuple[Tuple[str, str, str], ...] = TARGETS) -> None:
        self.targets = targets
        self.layer_of: Dict[str, str] = {}
        self.calls: Dict[str, int] = {}
        self.returns: Dict[str, int] = {}
        self.self_ns: Dict[str, int] = {}
        self.top_ns = 0
        self.missing: List[str] = []
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def wrap(self, key: str, fn: Callable, on_call: Optional[Callable[[], None]] = None):
        """Return ``fn`` wrapped in a span recorded under ``key``."""
        stack = self._stack
        clock = time.perf_counter_ns
        calls, returns, self_ns = self.calls, self.returns, self.self_ns
        for table in (calls, returns, self_ns):
            table.setdefault(key, 0)
        recorder = self

        def span(*args, **kwargs):
            calls[key] += 1
            if on_call is not None:
                on_call()
            start = clock()
            stack.append(0)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_ns[key] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                else:
                    recorder.top_ns += elapsed
            returns[key] += 1
            return result

        span.__wrapped__ = fn
        return span

    def install(self, hooks: Optional[Dict[str, Callable[[], None]]] = None) -> None:
        """Patch every target; ``hooks`` maps a target key to an
        ``on_call`` callback run on entry to that target."""
        hooks = hooks or {}
        for layer, owner, attribute in self.targets:
            key = target_key(owner, attribute)
            try:
                host = _resolve(owner)
            except (ImportError, AttributeError):
                host = None
            original = vars(host).get(attribute) if host is not None else None
            if original is None:
                self.missing.append(key)
                continue
            self.layer_of[key] = layer
            self._patches.append((host, attribute, original))
            setattr(host, attribute, self.wrap(key, original, hooks.get(key)))

    def uninstall(self) -> None:
        """Restore every patched attribute (reverse order)."""
        while self._patches:
            host, attribute, original = self._patches.pop()
            setattr(host, attribute, original)
