"""Processes and threads.

A :class:`Process` owns an address space, a register file, and a CPU; the
:class:`~repro.kernel.kernel.Kernel` creates processes from binaries and
implements ``fork`` by deep-copying memory and registers — including the
TLS block and every inherited stack frame, which is precisely the semantic
the byte-by-byte attack exploits (the child reuses the parent's canary)
and the semantic that breaks RAF-SSP (the child returns into frames whose
canaries predate its refreshed TLS).

Execution is synchronous and deterministic: a process runs until its entry
returns, it crashes, or it exceeds its cycle budget.  A ``fork`` performed
*by simulated code* runs the child to completion before the parent's
``fork`` returns (a legal schedule: child-runs-first with the parent
blocked, which is how the paper's forking servers behave under ``waitpid``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from .. import telemetry
from ..crypto.random import EntropySource
from ..errors import KernelError, MachineFault
from ..isa.registers import RegisterFile
from ..machine.cpu import CPU, NativeFunction
from ..machine.devices import RdRandDevice, TimeStampCounter
from ..machine.memory import Memory
from ..machine.tls import TlsView

#: Process lifecycle states.
READY = "ready"
RUNNING = "running"
EXITED = "exited"
CRASHED = "crashed"


@dataclass
class ProcessResult:
    """Outcome of one run of a process entry point."""

    state: str
    exit_status: int
    crash: Optional[MachineFault]
    cycles: float
    instructions: int

    @property
    def crashed(self) -> bool:
        """True when the run ended in a fault (any signal)."""
        return self.state == CRASHED

    @property
    def signal(self) -> str:
        """Symbolic signal name, or '' for a clean exit."""
        return self.crash.signal if self.crash else ""

    @property
    def smashed(self) -> bool:
        """True when the crash was a canary-detected stack smash."""
        from ..errors import StackSmashDetected

        return isinstance(self.crash, StackSmashDetected)


class Process:
    """One simulated OS process."""

    def __init__(
        self,
        kernel,
        pid: int,
        name: str,
        memory: Memory,
        image,
        natives: Dict[str, NativeFunction],
        entropy: EntropySource,
        *,
        ppid: int = 0,
        dbi_multiplier: float = 1.0,
        cycle_limit: int = 50_000_000,
        tsc_base: int = 0,
        fast: bool = True,
        fault_plane=None,
    ) -> None:
        self.kernel = kernel
        #: Fault-injection plane shared with the owning kernel (None in
        #: production deployments); the devices below consult it.
        self.fault_plane = fault_plane
        self.pid = pid
        self.ppid = ppid
        self.name = name
        self.memory = memory
        self.image = image
        self.natives = natives
        self.entropy = entropy
        self.state = READY
        self.exit_status = 0
        self.crash: Optional[MachineFault] = None

        self.registers = RegisterFile()
        # Anchor to the *actual* segment placement (ASLR may have slid the
        # bases away from the layout constants).
        self.registers.fs_base = memory.segment("tls").base
        initial_rsp = memory.segment("stack").end - 0x100
        self.registers.write("rsp", initial_rsp)
        self.registers.write("rbp", initial_rsp)

        self.cpu = CPU(
            memory,
            image,
            natives,
            registers=self.registers,
            tsc=TimeStampCounter(tsc_base, plane=fault_plane),
            rdrand=RdRandDevice(entropy, plane=fault_plane),
            cycle_limit=cycle_limit,
            dbi_multiplier=dbi_multiplier,
            fast=fast,
        )
        #: Back-reference so native handlers can reach kernel services.
        self.cpu.process = self
        #: An armed fault plane pins the CPU to per-step execution (the
        #: trace-JIT tier side-exits and stays cold while it is set).
        self.cpu.fault_plane = fault_plane

        #: Callbacks applied to a freshly forked child (the preload
        #: library's wrapped ``fork`` registers its TLS refresh here).
        self.fork_hooks: List[Callable[["Process", "Process"], None]] = []
        #: Callbacks applied to a freshly created thread.
        self.thread_hooks: List[Callable[["Process", "Process"], None]] = []

        #: Standard streams and a bump allocator for libc.
        self.stdin = bytearray()
        self.stdout = bytearray()
        self.brk = memory.segment("heap").base

        #: Threads spawned by this process (simulated pthread contexts).
        self.threads: List["Process"] = []

    # -- TLS ------------------------------------------------------------------

    @property
    def tls(self) -> TlsView:
        """Typed view of this process's TLS block."""
        return TlsView(self.memory, self.registers.fs_base)

    # -- execution --------------------------------------------------------------

    def feed_stdin(self, data: bytes) -> None:
        """Queue bytes for ``read(0, ...)`` / ``gets`` to consume."""
        self.stdin.extend(data)

    def run(self, entry: Optional[str] = None, args: "tuple" = ()) -> ProcessResult:
        """Run ``entry`` (default: the binary entry) to completion.

        Faults are converted into a crashed :class:`ProcessResult`; they
        never propagate to the caller, mirroring signal delivery.

        A process that exited cleanly may be called again (constructors,
        then ``main``, then server handlers all run in the same process);
        a *crashed* process is gone for good.
        """
        if self.state == CRASHED:
            raise KernelError(f"pid {self.pid} already crashed ({self.crash})")
        target = entry or self.entry
        self.state = RUNNING
        start_cycles = self.cpu.cycles
        start_instructions = self.cpu.instructions_executed
        telemetry.count("process_runs_total", help="process entry invocations")
        try:
            status = self.cpu.call_function(target, args)
            self.state = EXITED
            self.exit_status = status & 0xFF
        except MachineFault as fault:
            self.state = CRASHED
            self.crash = fault
            telemetry.count(
                "process_crashes_total", help="runs ended by a machine fault"
            )
        return ProcessResult(
            self.state,
            self.exit_status,
            self.crash,
            self.cpu.cycles - start_cycles,
            self.cpu.instructions_executed - start_instructions,
        )

    def call(self, function: str, args: "tuple" = ()) -> ProcessResult:
        """Run an arbitrary function in this process (server handlers)."""
        return self.run(function, args)

    def continue_execution(self) -> ProcessResult:
        """Resume the CPU run loop from the current register state.

        Used for the child side of an in-simulation ``fork``: registers
        were cloned mid-function, so the child picks up right after the
        ``call fork`` site with ``rax = 0``.
        """
        name, _ = self.registers.rip
        function = self.image.function(name)
        if function is None:
            raise KernelError(f"cannot resume: no function {name!r}")
        self.cpu._current = function
        self.cpu.running = True
        self.state = RUNNING
        start_cycles = self.cpu.cycles
        start_instructions = self.cpu.instructions_executed
        telemetry.count("process_runs_total", help="process entry invocations")
        try:
            self.cpu._run_loop()
            self.state = EXITED
            self.exit_status = self.cpu.exit_status
        except MachineFault as fault:
            self.state = CRASHED
            self.crash = fault
            telemetry.count(
                "process_crashes_total", help="runs ended by a machine fault"
            )
        return ProcessResult(
            self.state,
            self.exit_status,
            self.crash,
            self.cpu.cycles - start_cycles,
            self.cpu.instructions_executed - start_instructions,
        )

    def release(self) -> None:
        """Break the host reference cycles of a reaped process.

        The CPU's bound steps close over the CPU, the CPU points back at
        its process for natives, and a crash's traceback holds the frames
        that ran it.  Each is a cycle that only the cycle collector can
        free, and a forking server leaves one such worker per request.
        ``Kernel.reap`` calls this so a reaped process is freed by
        reference counting instead.  Simulated state is untouched, but
        the process cannot run natives again.
        """
        self.cpu.release()
        self.cpu.process = None
        if self.crash is not None:
            self.crash.__traceback__ = None

    # -- snapshot -------------------------------------------------------------

    def snapshot(self) -> bytes:
        """Serialize this (quiescent) process into a deterministic machine
        image; see :func:`repro.machine.snapshot.snapshot_process`.  The
        image embeds the kernel bookkeeping needed for post-restore forks
        to replay bit-identically."""
        from ..machine.snapshot import snapshot_process

        return snapshot_process(self)

    # -- bookkeeping ---------------------------------------------------------

    @property
    def entry(self) -> str:
        """The binary's entry symbol (set by the kernel at spawn)."""
        try:
            return self._entry
        except AttributeError:
            # Typed instead of a bare AttributeError: running a Process
            # constructed outside Kernel.spawn is harness misuse.
            raise KernelError(
                f"pid {self.pid} has no entry symbol (not spawned by a kernel)"
            ) from None

    @entry.setter
    def entry(self, value: str) -> None:
        self._entry = value

    @property
    def alive(self) -> bool:
        """True until the process exits or crashes."""
        return self.state in (READY, RUNNING)

    def stdout_text(self) -> str:
        """Decoded standard output (lossy, for assertions and demos)."""
        return self.stdout.decode("utf-8", errors="replace")

    def __repr__(self) -> str:
        return f"Process(pid={self.pid}, name={self.name!r}, state={self.state})"
