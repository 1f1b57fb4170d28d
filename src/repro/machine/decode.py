"""Decode cache: analyse each :class:`Function` once per image, bind it per CPU.

The slow interpreter path re-answers the same questions for every dynamic
instruction: which handler implements the mnemonic, what it costs, what
operand kinds it has, and which addresses they resolve to.  Almost all of
those answers are static, so this module answers them once per *static*
instruction and captures the result in a closure ("step"); the CPU's fast
loop then just walks a step list.

Lowering happens in two phases:

* **Analysis** (:meth:`FunctionDecoder.decode`) — once per function per
  image and DBI multiplier.  It computes each instruction's ``step_cost``,
  picks its compiler, classifies operand shapes, resolves labels and
  symbols, and fixes ``kind``, ``next_rip`` and the canary group-leader
  markers.  The result is a :class:`FunctionTemplate`: per step, a
  *binder* plus the step's static fields.
* **Bind** (:meth:`FunctionTemplate.bind`) — once per function per CPU.
  Each binder is called with the CPU's :class:`Binding` and returns the
  step closure over that CPU's ``gpr``/``xmm`` dictionaries, register
  file, memory accessors and the CPU itself.  Binders are purpose-built
  per step shape, so a bound closure has exactly the shape a one-phase
  decoder would build and the per-step cost does not change; binding
  costs one call per step instead of a re-analysis.

Templates live on the :class:`~repro.binfmt.loader.LoadedImage` (one
:class:`FunctionDecoder` per DBI multiplier in ``image.decoders``), which
``Kernel.fork`` shares between parent and children, so a forked worker
binds its parent's analysis instead of redoing it.  A template is valid
for one ``code_generation`` and one telemetry generation of that image
and for one ``Function`` object; ``LoadedImage.clone()`` starts with no
templates, because twins may be patched differently at the same
generation.  A :class:`DecodedFunction` (the bound form) is only valid
for the CPU that bound it.

Every step is a 5-tuple ``(execute, cycles, ticks, kind, next_rip)``:

* ``execute()`` — the instruction's semantics, with operand accessors
  (register read/write thunks, pre-computed effective-address components,
  pre-masked immediates) resolved ahead of time;
* ``cycles``    — the DBI-scaled cycle charge (exactly what
  ``CPU.charge`` would have added to ``CPU.cycles``);
* ``ticks``     — the matching TSC advance (``int(cycles) or 1``),
  pre-computed so batched accounting lands on the slow path's values;
* ``kind``      — bit flags: :data:`CONTROL` (may redirect rip or stop
  the CPU) and :data:`SYNC` (observable accounting: the loop must flush
  pending cycles before executing — ``rdtsc``, and calls that may reach a
  native helper which ``charge()``\\ s);
* ``next_rip``  — the pre-built ``(function_name, index + 1)`` tuple the
  loop stores into ``registers.rip`` before executing, so faults, calls
  and return-address pushes observe exactly the same program counter as
  the slow path.

A template step has the same shape with the binder in the first slot.

Mnemonics without a specialised compiler fall back to a closure over the
slow-path handler, which keeps semantics authoritative in one place: the
fast path can be *faster* but never *different*.  The differential test
(`tests/machine/test_fast_path_differential.py`) enforces that.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from .. import telemetry
from ..errors import IllegalInstruction, InvalidJump
from ..isa.costs import step_cost
from ..isa.instructions import (
    CONTROL_TRANSFER_OPS,
    Function,
    Imm,
    Instruction,
    Label,
    Mem,
    Reg,
    Sym,
)
from ..isa.registers import GPRS
from .memory import EXIT_ADDRESS

WORD_MASK = (1 << 64) - 1
XMM_MASK = (1 << 128) - 1
SIGN_BIT = 1 << 63
TWO64 = 1 << 64

#: Step kind flags (see module docstring).
STRAIGHT = 0
CONTROL = 1
SYNC = 2

_GPR_NAMES = frozenset(GPRS)

Step = Tuple[Callable[[], None], float, int, int, Tuple[str, int]]


class Binding:
    """The per-CPU state a binder closes step closures over.

    The CPU builds one whenever it drops its bound steps, so binding a
    function does not repeat these lookups per step.
    """

    __slots__ = (
        "cpu", "registers", "gpr", "xmm", "memory",
        "read_word", "write_word", "read_byte", "write_byte",
    )

    def __init__(self, cpu) -> None:
        self.cpu = cpu
        registers = self.registers = cpu.registers
        self.gpr = registers.gpr
        self.xmm = registers.xmm
        memory = self.memory = cpu.memory
        self.read_word = memory.read_word
        self.write_word = memory.write_word
        self.read_byte = memory.read_byte
        self.write_byte = memory.write_byte


Binder = Callable[[Binding], Callable]


def _shared(closure: Callable) -> Binder:
    """Binder for a closure over no per-CPU state: every CPU reuses it."""
    return lambda b: closure


class DecodedFunction:
    """A function's steps bound to one specific CPU.

    The trace-JIT tier (:mod:`repro.machine.jit`) hangs its per-function
    state off this object — ``jit_blocks`` maps dispatch indices to
    compiled superblocks (or ``None`` for rejected anchors) and
    ``jit_counts`` holds arrival counts for not-yet-hot anchors — so
    every event that drops the CPU's bound steps (``code_generation``
    bump, telemetry generation flip, rebind to a new register file,
    memory or DBI multiplier, explicit flush) drops compiled superblocks
    along with the steps they index into.  Hot counts and superblocks are
    never shared between CPUs, even when the template is.
    """

    __slots__ = ("function", "steps", "jit_blocks", "jit_counts")

    def __init__(self, function: Function, steps: List[Step]) -> None:
        self.function = function
        self.steps = steps
        self.jit_blocks: dict = {}
        self.jit_counts: dict = {}


class FunctionTemplate:
    """A function analysed once per image, ready to bind to any CPU.

    ``steps`` holds ``(binder, cycles, ticks, kind, next_rip)`` per
    instruction; ``leaders`` the ``(index, marker)`` canary group
    leaders that ``hooks`` wraps at bind time (empty while telemetry is
    disabled).
    """

    __slots__ = ("function", "steps", "hooks", "leaders")

    def __init__(self, function: Function, steps: list, hooks, leaders) -> None:
        self.function = function
        self.steps = steps
        self.hooks = hooks
        self.leaders = leaders

    def bind(self, binding: Binding) -> DecodedFunction:
        """Close every step over ``binding``'s CPU."""
        steps = [
            (binder(binding), cycles, ticks, kind, next_rip)
            for binder, cycles, ticks, kind, next_rip in self.steps
        ]
        if self.leaders:
            # Telemetry: wrap only canary group-leader steps, so the fast
            # loop pays nothing on any other step.  Templates are keyed on
            # the telemetry generation, so these wrappers disappear when
            # telemetry is disabled.
            hooks = self.hooks
            name = self.function.name
            for index, marker in self.leaders:
                execute, cycles, ticks, kind, next_rip = steps[index]
                steps[index] = (
                    hooks.wrap(execute, marker, name, index),
                    cycles, ticks, kind, next_rip,
                )
        return DecodedFunction(self.function, steps)


def decoder_for(image, dbi_multiplier: float, dispatch) -> "FunctionDecoder":
    """The image's shared decoder for one DBI multiplier."""
    decoders = image.decoders
    decoder = decoders.get(dbi_multiplier)
    if decoder is None:
        decoder = decoders[dbi_multiplier] = FunctionDecoder(
            image, dbi_multiplier, dispatch
        )
    return decoder


class FunctionDecoder:
    """Analyses :class:`Function` bodies for one image and DBI multiplier.

    Holds the image's :class:`FunctionTemplate` table, which every CPU
    executing the image at this multiplier shares.  The table is valid for
    one ``code_generation`` and one telemetry generation; a stale table is
    dropped on the next lookup, and a single entry is re-analysed when the
    image maps its name to a different ``Function`` object.  The analysis
    never touches a CPU: everything per-CPU is deferred to the binders.
    """

    #: op -> compiler; filled in below the class body.
    _compilers: Dict[str, Callable] = {}

    def __init__(self, image, dbi_multiplier: float, dispatch) -> None:
        self.image = image
        self.dbi_multiplier = dbi_multiplier
        self._dispatch = dispatch
        self._templates: Dict[str, FunctionTemplate] = {}
        self._stamp: Optional[Tuple[int, int]] = None

    # ------------------------------------------------------------------
    # entry points
    # ------------------------------------------------------------------

    def template(self, function: Function) -> FunctionTemplate:
        """The shared template for ``function``, analysing it on a miss."""
        stamp = (self.image.code_generation, telemetry.generation())
        if stamp != self._stamp:
            self._templates.clear()
            self._stamp = stamp
        template = self._templates.get(function.name)
        if template is None or template.function is not function:
            template = self._templates[function.name] = self.decode(function)
            telemetry.count(
                "decode_templates_built_total",
                help="functions analysed into shared decode templates",
            )
        return template

    def clear(self) -> None:
        """Drop every template (e.g. after mutating code in place)."""
        self._templates.clear()

    def decode(self, function: Function) -> FunctionTemplate:
        """Analyse ``function`` into a :class:`FunctionTemplate`."""
        dbi = self.dbi_multiplier
        name = function.name
        compilers = self._compilers
        steps = []
        for index, instruction in enumerate(function.body):
            cycles, ticks = step_cost(instruction, dbi)
            compiled = None
            compiler = compilers.get(instruction.op)
            if compiler is not None:
                compiled = compiler(self, function, index, instruction)
            if compiled is None:
                compiled = self._generic(instruction)
            binder, kind = compiled
            steps.append((binder, cycles, ticks, kind, (name, index + 1)))
        hooks = telemetry.canary_hooks()
        leaders = (
            tuple(telemetry.canary_markers(function).items())
            if hooks is not None else ()
        )
        return FunctionTemplate(function, steps, hooks, leaders)

    # ------------------------------------------------------------------
    # fallback: wrap the slow-path handler
    # ------------------------------------------------------------------

    def _generic(self, instruction: Instruction):
        op = instruction.op
        handler = self._dispatch.get(op)
        if handler is None:

            def missing() -> None:
                raise IllegalInstruction(f"no semantics for {op!r}")

            return _shared(missing), STRAIGHT
        kind = STRAIGHT
        if op in CONTROL_TRANSFER_OPS:
            kind |= CONTROL
        if op in ("rdtsc", "call"):
            # rdtsc observes the TSC; an un-specialised call may reach a
            # native helper that charges cycles.  Both need exact state.
            kind |= SYNC

        def bind(b):
            cpu = b.cpu

            def execute() -> None:
                handler(cpu, instruction)

            return execute

        return bind, kind

    # ------------------------------------------------------------------
    # operand accessor compilation
    # ------------------------------------------------------------------

    def _ea(self, m: Mem) -> Optional[Binder]:
        """Binder for an effective-address thunk, or ``None`` if not possible."""
        disp, base, index, scale = m.disp, m.base, m.index, m.scale
        if base is not None and base not in _GPR_NAMES:
            return None
        if index is not None and index not in _GPR_NAMES:
            return None
        if m.seg is not None:
            if m.seg != "fs":
                return None  # generic path raises IllegalInstruction at exec
            if base is None and index is None:

                def bind(b):
                    registers = b.registers
                    return lambda: (registers.fs_base + disp) & WORD_MASK

                return bind
            if index is None:

                def bind(b):
                    registers, gpr = b.registers, b.gpr
                    return lambda: (
                        registers.fs_base + disp + gpr[base]
                    ) & WORD_MASK

                return bind
            if base is None:

                def bind(b):
                    registers, gpr = b.registers, b.gpr
                    return lambda: (
                        registers.fs_base + disp + gpr[index] * scale
                    ) & WORD_MASK

                return bind

            def bind(b):
                registers, gpr = b.registers, b.gpr
                return lambda: (
                    registers.fs_base + disp + gpr[base] + gpr[index] * scale
                ) & WORD_MASK

            return bind
        if base is not None and index is None:
            if disp == 0:

                def bind(b):
                    gpr = b.gpr
                    return lambda: gpr[base]

                return bind

            def bind(b):
                gpr = b.gpr
                return lambda: (gpr[base] + disp) & WORD_MASK

            return bind
        if base is not None:

            def bind(b):
                gpr = b.gpr
                return lambda: (gpr[base] + gpr[index] * scale + disp) & WORD_MASK

            return bind
        if index is not None:

            def bind(b):
                gpr = b.gpr
                return lambda: (gpr[index] * scale + disp) & WORD_MASK

            return bind
        address = disp & WORD_MASK
        return _shared(lambda: address)

    def _read(self, operand, width: int = 8) -> Optional[Binder]:
        """Binder for a read thunk mirroring ``CPU.read_operand``."""
        if isinstance(operand, Reg):
            name = operand.name
            if name in _GPR_NAMES:

                def bind(b):
                    gpr = b.gpr
                    return lambda: gpr[name]

                return bind

            def bind(b):
                xmm = b.xmm
                return lambda: xmm[name]

            return bind
        if isinstance(operand, Imm):
            value = operand.value & WORD_MASK
            return _shared(lambda: value)
        if isinstance(operand, Mem):
            bind_ea = self._ea(operand)
            if bind_ea is None:
                return None
            if width == 8:

                def bind(b):
                    read_word, ea = b.read_word, bind_ea(b)
                    return lambda: read_word(ea())

                return bind
            if width == 1:

                def bind(b):
                    read_byte, ea = b.read_byte, bind_ea(b)
                    return lambda: read_byte(ea())

                return bind
            if width == 16:

                def bind(b):
                    read_word, ea = b.read_word, bind_ea(b)

                    def read16() -> int:
                        address = ea()
                        return (read_word(address + 8) << 64) | read_word(address)

                    return read16

                return bind
            return None
        if isinstance(operand, Sym):
            image = self.image
            symbol = operand.name
            try:
                value = image.address_of(symbol)
            except Exception:
                # Unresolved now; defer (and fail) at execution time, like
                # the slow path does.
                return _shared(lambda: image.address_of(symbol))
            return _shared(lambda: value)
        return None

    def _write(self, operand, width: int = 8) -> Optional[Binder]:
        """Binder for a write thunk mirroring ``CPU.write_operand``."""
        if isinstance(operand, Reg):
            name = operand.name
            if name in _GPR_NAMES:

                def bind(b):
                    gpr = b.gpr

                    def write_gpr(value: int) -> None:
                        gpr[name] = value & WORD_MASK

                    return write_gpr

                return bind

            def bind(b):
                xmm = b.xmm

                def write_xmm(value: int) -> None:
                    xmm[name] = value & XMM_MASK

                return write_xmm

            return bind
        if isinstance(operand, Mem):
            bind_ea = self._ea(operand)
            if bind_ea is None:
                return None
            if width == 8:

                def bind(b):
                    write_word, ea = b.write_word, bind_ea(b)
                    return lambda value: write_word(ea(), value & WORD_MASK)

                return bind
            if width == 1:

                def bind(b):
                    write_byte, ea = b.write_byte, bind_ea(b)
                    return lambda value: write_byte(ea(), value & 0xFF)

                return bind
            if width == 16:

                def bind(b):
                    write_word, ea = b.write_word, bind_ea(b)

                    def write16(value: int) -> None:
                        address = ea()
                        write_word(address, value & WORD_MASK)
                        write_word(address + 8, (value >> 64) & WORD_MASK)

                    return write16

                return bind
            return None
        return None

    @staticmethod
    def _gpr_name(operand) -> Optional[str]:
        """The GPR name of a register operand, or ``None``."""
        if isinstance(operand, Reg) and operand.name in _GPR_NAMES:
            return operand.name
        return None

    # ------------------------------------------------------------------
    # data movement
    # ------------------------------------------------------------------

    def _c_nop(self, function, index, instruction):
        def execute() -> None:
            pass

        return _shared(execute), STRAIGHT

    def _c_hlt(self, function, index, instruction):
        def bind(b):
            cpu, gpr = b.cpu, b.gpr

            def execute() -> None:
                cpu.running = False
                cpu.exit_status = gpr["rax"] & 0xFF

            return execute

        return bind, CONTROL

    def _c_mov(self, function, index, instruction):
        dst, src = instruction.operands
        if isinstance(dst, Reg) and dst.name.startswith("xmm"):
            # Mirrors the slow handler: the destination-xmm case wins and
            # takes the *full* source register value (128-bit for xmm src).
            bind_read = self._read(src)
            bind_write = self._write(dst)
            if bind_read is None or bind_write is None:
                return None

            def bind_to_xmm(b):
                read, write = bind_read(b), bind_write(b)

                def execute_to_xmm() -> None:
                    write(read())

                return execute_to_xmm

            return bind_to_xmm, STRAIGHT
        if isinstance(src, Reg) and src.name.startswith("xmm"):
            source = src.name

            def bind_read(b):
                xmm = b.xmm
                return lambda: xmm[source] & WORD_MASK

        else:
            bind_read = self._read(src)
        bind_write = self._write(dst)
        if bind_read is None or bind_write is None:
            return None
        # Fuse the hottest shapes: gpr <- imm/gpr/mem and mem <- gpr/imm.
        dst_gpr = self._gpr_name(dst)
        if dst_gpr is not None:
            if isinstance(src, Imm):
                value = src.value & WORD_MASK

                def bind(b):
                    gpr = b.gpr

                    def execute() -> None:
                        gpr[dst_gpr] = value

                    return execute

                return bind, STRAIGHT
            src_gpr = self._gpr_name(src)
            if src_gpr is not None:

                def bind(b):
                    gpr = b.gpr

                    def execute() -> None:
                        gpr[dst_gpr] = gpr[src_gpr]

                    return execute

                return bind, STRAIGHT

            def bind(b):
                gpr, read = b.gpr, bind_read(b)

                def execute() -> None:
                    gpr[dst_gpr] = read()

                return execute

            return bind, STRAIGHT

        def bind(b):
            read, write = bind_read(b), bind_write(b)

            def execute() -> None:
                write(read())

            return execute

        return bind, STRAIGHT

    def _c_movb(self, function, index, instruction):
        dst, src = instruction.operands
        bind_read = self._read(src, width=1)
        if bind_read is None:
            return None
        dst_gpr = self._gpr_name(dst)
        if dst_gpr is not None:

            def bind(b):
                gpr, read = b.gpr, bind_read(b)

                def execute() -> None:
                    gpr[dst_gpr] = (gpr[dst_gpr] & ~0xFF) | (read() & 0xFF)

                return execute

            return bind, STRAIGHT
        if isinstance(dst, Reg):
            return None  # xmm byte destination: defer to the slow handler
        bind_write = self._write(dst, width=1)
        if bind_write is None:
            return None

        def bind(b):
            read, write = bind_read(b), bind_write(b)

            def execute() -> None:
                write(read() & 0xFF)

            return execute

        return bind, STRAIGHT

    def _c_movzxb(self, function, index, instruction):
        dst, src = instruction.operands
        bind_read = self._read(src, width=1)
        bind_write = self._write(dst)
        if bind_read is None or bind_write is None:
            return None

        def bind(b):
            read, write = bind_read(b), bind_write(b)

            def execute() -> None:
                write(read() & 0xFF)

            return execute

        return bind, STRAIGHT

    def _c_lea(self, function, index, instruction):
        dst, src = instruction.operands
        bind_write = self._write(dst)
        if bind_write is None:
            return None
        if isinstance(src, Mem):
            bind_ea = self._ea(src)
            if bind_ea is None:
                return None
            dst_gpr = self._gpr_name(dst)
            if dst_gpr is not None:

                def bind(b):
                    gpr, ea = b.gpr, bind_ea(b)

                    def execute() -> None:
                        gpr[dst_gpr] = ea()

                    return execute

                return bind, STRAIGHT

            def bind(b):
                ea, write = bind_ea(b), bind_write(b)

                def execute() -> None:
                    write(ea())

                return execute

            return bind, STRAIGHT
        if isinstance(src, Sym):
            bind_read = self._read(src)
            if bind_read is None:
                return None

            def bind(b):
                read, write = bind_read(b), bind_write(b)

                def execute() -> None:
                    write(read())

                return execute

            return bind, STRAIGHT
        return None  # slow path raises IllegalInstruction

    # ------------------------------------------------------------------
    # stack
    # ------------------------------------------------------------------

    def _c_push(self, function, index, instruction):
        bind_read = self._read(instruction.operands[0])
        if bind_read is None:
            return None

        def bind(b):
            gpr, write_word, read = b.gpr, b.write_word, bind_read(b)

            def execute() -> None:
                rsp = (gpr["rsp"] - 8) & WORD_MASK
                gpr["rsp"] = rsp
                write_word(rsp, read())

            return execute

        return bind, STRAIGHT

    def _c_pop(self, function, index, instruction):
        target = instruction.operands[0]
        dst_gpr = self._gpr_name(target)
        if dst_gpr is not None:

            def bind(b):
                gpr, read_word = b.gpr, b.read_word

                def execute() -> None:
                    rsp = gpr["rsp"]
                    value = read_word(rsp)
                    gpr["rsp"] = (rsp + 8) & WORD_MASK
                    gpr[dst_gpr] = value

                return execute

            return bind, STRAIGHT
        bind_write = self._write(target)
        if bind_write is None:
            return None

        def bind(b):
            gpr, read_word, write = b.gpr, b.read_word, bind_write(b)

            def execute() -> None:
                rsp = gpr["rsp"]
                value = read_word(rsp)
                gpr["rsp"] = (rsp + 8) & WORD_MASK
                write(value)

            return execute

        return bind, STRAIGHT

    def _c_leave(self, function, index, instruction):
        def bind(b):
            gpr, read_word = b.gpr, b.read_word

            def execute() -> None:
                rbp = gpr["rbp"]
                gpr["rbp"] = read_word(rbp)
                gpr["rsp"] = (rbp + 8) & WORD_MASK

            return execute

        return bind, STRAIGHT

    # ------------------------------------------------------------------
    # ALU
    # ------------------------------------------------------------------

    def _c_add(self, function, index, instruction):
        dst, src = instruction.operands
        dst_gpr = self._gpr_name(dst)
        bind_read = self._read(src)
        if dst_gpr is None or bind_read is None:
            return None
        if isinstance(src, Imm):
            value = src.value & WORD_MASK

            def bind_imm(b):
                registers, gpr = b.registers, b.gpr

                def execute() -> None:
                    result = gpr[dst_gpr] + value
                    registers.cf = result > WORD_MASK
                    result &= WORD_MASK
                    gpr[dst_gpr] = result
                    registers.zf = result == 0
                    registers.sf = result >= SIGN_BIT

                return execute

            return bind_imm, STRAIGHT

        def bind(b):
            registers, gpr, read = b.registers, b.gpr, bind_read(b)

            def execute() -> None:
                result = gpr[dst_gpr] + read()
                registers.cf = result > WORD_MASK
                result &= WORD_MASK
                gpr[dst_gpr] = result
                registers.zf = result == 0
                registers.sf = result >= SIGN_BIT

            return execute

        return bind, STRAIGHT

    def _c_sub(self, function, index, instruction):
        dst, src = instruction.operands
        dst_gpr = self._gpr_name(dst)
        bind_read = self._read(src)
        if dst_gpr is None or bind_read is None:
            return None

        def bind(binding):
            registers, gpr = binding.registers, binding.gpr
            read = bind_read(binding)

            def execute() -> None:
                a = gpr[dst_gpr]
                b = read()
                registers.cf = a < b
                result = (a - b) & WORD_MASK
                gpr[dst_gpr] = result
                registers.zf = result == 0
                registers.sf = result >= SIGN_BIT

            return execute

        return bind, STRAIGHT

    def _c_xor(self, function, index, instruction):
        dst, src = instruction.operands
        dst_gpr = self._gpr_name(dst)
        bind_read = self._read(src)
        if dst_gpr is None or bind_read is None:
            return None

        def bind(b):
            registers, gpr, read = b.registers, b.gpr, bind_read(b)

            def execute() -> None:
                result = gpr[dst_gpr] ^ read()
                gpr[dst_gpr] = result
                registers.zf = result == 0
                registers.sf = result >= SIGN_BIT
                registers.cf = False

            return execute

        return bind, STRAIGHT

    def _alu(self, instruction, combine):
        """Shared compiler for the rarer two-operand ALU ops."""
        dst, src = instruction.operands
        dst_gpr = self._gpr_name(dst)
        bind_read = self._read(src)
        if dst_gpr is None or bind_read is None:
            return None

        def bind(b):
            registers, gpr, read = b.registers, b.gpr, bind_read(b)

            def execute() -> None:
                result = combine(gpr[dst_gpr], read()) & WORD_MASK
                gpr[dst_gpr] = result
                registers.zf = result == 0
                registers.sf = result >= SIGN_BIT

            return execute

        return bind, STRAIGHT

    def _c_or(self, function, index, instruction):
        return self._alu(instruction, lambda a, b: a | b)

    def _c_and(self, function, index, instruction):
        return self._alu(instruction, lambda a, b: a & b)

    def _c_shl(self, function, index, instruction):
        return self._alu(instruction, lambda a, b: a << (b & 63))

    def _c_shr(self, function, index, instruction):
        return self._alu(instruction, lambda a, b: a >> (b & 63))

    def _c_sar(self, function, index, instruction):
        return self._alu(
            instruction,
            lambda a, b: ((a - TWO64 if a >= SIGN_BIT else a) >> (b & 63)) & WORD_MASK,
        )

    def _c_imul(self, function, index, instruction):
        return self._alu(
            instruction,
            lambda a, b: (a - TWO64 if a >= SIGN_BIT else a)
            * (b - TWO64 if b >= SIGN_BIT else b),
        )

    def _unary(self, instruction, transform, *, set_flags: bool = True):
        target = instruction.operands[0]
        dst_gpr = self._gpr_name(target)
        if dst_gpr is None:
            return None
        if set_flags:

            def bind(b):
                registers, gpr = b.registers, b.gpr

                def execute() -> None:
                    result = transform(gpr[dst_gpr]) & WORD_MASK
                    gpr[dst_gpr] = result
                    registers.zf = result == 0
                    registers.sf = result >= SIGN_BIT

                return execute

        else:

            def bind(b):
                gpr = b.gpr

                def execute() -> None:
                    gpr[dst_gpr] = transform(gpr[dst_gpr]) & WORD_MASK

                return execute

        return bind, STRAIGHT

    def _c_inc(self, function, index, instruction):
        return self._unary(instruction, lambda a: a + 1)

    def _c_dec(self, function, index, instruction):
        return self._unary(instruction, lambda a: a - 1)

    def _c_neg(self, function, index, instruction):
        return self._unary(instruction, lambda a: -a)

    def _c_not(self, function, index, instruction):
        return self._unary(instruction, lambda a: ~a, set_flags=False)

    # ------------------------------------------------------------------
    # compare / test
    # ------------------------------------------------------------------

    def _c_cmp(self, function, index, instruction):
        a_op, b_op = instruction.operands
        a_gpr = self._gpr_name(a_op)
        if a_gpr is not None and isinstance(b_op, Imm):
            b = b_op.value & WORD_MASK
            b_signed = b - TWO64 if b >= SIGN_BIT else b

            def bind_imm(binding):
                registers, gpr = binding.registers, binding.gpr

                def execute() -> None:
                    a = gpr[a_gpr]
                    registers.zf = a == b
                    registers.sf = (a - TWO64 if a >= SIGN_BIT else a) < b_signed
                    registers.cf = a < b

                return execute

            return bind_imm, STRAIGHT
        bind_a = self._read(a_op)
        bind_b = self._read(b_op)
        if bind_a is None or bind_b is None:
            return None

        def bind(binding):
            registers = binding.registers
            read_a, read_b = bind_a(binding), bind_b(binding)

            def execute() -> None:
                a = read_a()
                b = read_b()
                registers.zf = a == b
                registers.sf = (a - TWO64 if a >= SIGN_BIT else a) < (
                    b - TWO64 if b >= SIGN_BIT else b
                )
                registers.cf = a < b

            return execute

        return bind, STRAIGHT

    def _c_test(self, function, index, instruction):
        a_op, b_op = instruction.operands
        bind_a = self._read(a_op)
        bind_b = self._read(b_op)
        if bind_a is None or bind_b is None:
            return None

        def bind(b):
            registers, read_a, read_b = b.registers, bind_a(b), bind_b(b)

            def execute() -> None:
                result = read_a() & read_b()
                registers.zf = result == 0
                registers.sf = result >= SIGN_BIT
                registers.cf = False

            return execute

        return bind, STRAIGHT

    # ------------------------------------------------------------------
    # control flow
    # ------------------------------------------------------------------

    def _label_rip(self, function: Function, label: Label):
        """Resolve a label to its rip tuple, or a raising closure."""
        target = function.labels.get(label.name)
        if target is None:

            def missing() -> None:
                raise InvalidJump(f"{function.name}: no label {label.name}")

            return None, missing
        return (function.name, target), None

    def _c_jmp(self, function, index, instruction):
        target = instruction.operands[0]
        if isinstance(target, Label):
            rip, missing = self._label_rip(function, target)
            if missing is not None:
                return _shared(missing), CONTROL

            def bind_label(b):
                registers = b.registers

                def execute() -> None:
                    registers.rip = rip

                return execute

            return bind_label, CONTROL
        if isinstance(target, Sym):
            callee = self.image.function(target.name)
            if callee is None:
                return None  # slow path raises InvalidJump at execution
            entry_rip = (callee.name, 0)

            def bind(b):
                cpu, registers = b.cpu, b.registers

                def execute() -> None:
                    cpu._current = callee
                    registers.rip = entry_rip

                return execute

            return bind, CONTROL
        return None  # indirect jmp: generic handler resolves dynamically

    def _conditional(self, function, instruction, condition):
        """Build a conditional-jump step from a flag-reading closure.

        ``condition(registers)`` returns the bound flag test.
        """
        target = instruction.operands[0]
        if not isinstance(target, Label):
            return None  # slow path raises InvalidJump when taken
        rip, missing = self._label_rip(function, target)
        if missing is not None:

            def bind_missing(b):
                taken = condition(b.registers)

                def execute_missing() -> None:
                    if taken():
                        missing()

                return execute_missing

            return bind_missing, CONTROL

        def bind(b):
            registers = b.registers
            taken = condition(registers)

            def execute() -> None:
                if taken():
                    registers.rip = rip

            return execute

        return bind, CONTROL

    def _c_je(self, function, index, instruction):
        return self._conditional(
            function, instruction, lambda registers: lambda: registers.zf
        )

    def _c_jne(self, function, index, instruction):
        return self._conditional(
            function, instruction, lambda registers: lambda: not registers.zf
        )

    def _c_jl(self, function, index, instruction):
        return self._conditional(
            function, instruction, lambda registers: lambda: registers.sf
        )

    def _c_jle(self, function, index, instruction):
        return self._conditional(
            function, instruction,
            lambda registers: lambda: registers.sf or registers.zf,
        )

    def _c_jg(self, function, index, instruction):
        return self._conditional(
            function, instruction,
            lambda registers: lambda: not (registers.sf or registers.zf),
        )

    def _c_jge(self, function, index, instruction):
        return self._conditional(
            function, instruction, lambda registers: lambda: not registers.sf
        )

    def _c_jb(self, function, index, instruction):
        return self._conditional(
            function, instruction, lambda registers: lambda: registers.cf
        )

    def _c_jae(self, function, index, instruction):
        return self._conditional(
            function, instruction, lambda registers: lambda: not registers.cf
        )

    def _c_call(self, function, index, instruction):
        target = instruction.operands[0]
        if not isinstance(target, Sym):
            return None  # indirect call: generic handler resolves dynamically
        callee = self.image.function(target.name)
        if callee is None:
            # Native helper, or a symbol loaded later: resolve at runtime
            # through _call_symbol (which also charges native costs, hence
            # SYNC so accounting is exact when the handler observes it).
            symbol = target.name

            def bind_native(b):
                cpu = b.cpu

                def execute_native() -> None:
                    cpu._call_symbol(symbol)

                return execute_native

            return bind_native, CONTROL | SYNC
        return_address = self.image.address_of(function.name, index + 1)
        entry_rip = (callee.name, 0)

        def bind(b):
            cpu, registers, gpr, write_word = b.cpu, b.registers, b.gpr, b.write_word

            def execute() -> None:
                rsp = (gpr["rsp"] - 8) & WORD_MASK
                gpr["rsp"] = rsp
                write_word(rsp, return_address)
                cpu._current = callee
                registers.rip = entry_rip

            return execute

        return bind, CONTROL

    def _c_ret(self, function, index, instruction):
        resolve = self.image.resolve

        def bind(b):
            cpu, registers, gpr, read_word = b.cpu, b.registers, b.gpr, b.read_word

            def execute() -> None:
                rsp = gpr["rsp"]
                address = read_word(rsp)
                gpr["rsp"] = (rsp + 8) & WORD_MASK
                if address == EXIT_ADDRESS:
                    cpu.running = False
                    cpu.exit_status = gpr["rax"] & 0xFF
                    return
                callee, target = resolve(address)
                cpu._current = callee
                registers.rip = (callee.name, target)

            return execute

        return bind, CONTROL


FunctionDecoder._compilers = {
    name[len("_c_"):]: compiler
    for name, compiler in vars(FunctionDecoder).items()
    if name.startswith("_c_")
}
