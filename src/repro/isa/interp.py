"""Functional interpreter for the RV64G subset.

The interpreter plays the role of the paper's modified Spike simulator:
it executes a program functionally and emits the dynamic µ-op stream —
with resolved effective addresses and branch outcomes — that is
injected into the cycle-level timing model.
"""

from __future__ import annotations

import struct
from typing import Optional

from repro.isa.instructions import SIGNED_LOADS, Instruction, OpClass
from repro.isa.program import INSTRUCTION_BYTES, Program
from repro.isa.registers import NUM_ARCH_REGS
from repro.isa.trace import MicroOp, Trace

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1
_PAGE_SHIFT = 12
_PAGE_SIZE = 1 << _PAGE_SHIFT
_PAGE_MASK = _PAGE_SIZE - 1

#: Initial stack pointer for interpreted kernels.
STACK_TOP = 0x8000_0000


class ExecutionError(RuntimeError):
    """Raised when a program performs an unsupported or invalid action."""


def _signed(value: int) -> int:
    return value - (1 << 64) if value >= (1 << 63) else value


def _signed32(value: int) -> int:
    value &= _MASK32
    return value - (1 << 32) if value >= (1 << 31) else value


def _sext32(value: int) -> int:
    return _signed32(value) & _MASK64


def _bits_to_double(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits & _MASK64))[0]


def _double_to_bits(value: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", value))[0]


class Memory:
    """Sparse byte-addressable memory backed by 4 KiB pages."""

    def __init__(self):
        self._pages: dict[int, bytearray] = {}

    def _page(self, number: int) -> bytearray:
        page = self._pages.get(number)
        if page is None:
            page = bytearray(_PAGE_SIZE)
            self._pages[number] = page
        return page

    def read(self, addr: int, size: int) -> int:
        """Little-endian unsigned read of ``size`` bytes."""
        page_no, off = addr >> _PAGE_SHIFT, addr & _PAGE_MASK
        if off + size <= _PAGE_SIZE:
            page = self._pages.get(page_no)
            if page is None:
                return 0
            return int.from_bytes(page[off:off + size], "little")
        value = 0
        for i in range(size):
            byte_addr = addr + i
            page = self._pages.get(byte_addr >> _PAGE_SHIFT)
            byte = page[byte_addr & _PAGE_MASK] if page is not None else 0
            value |= byte << (8 * i)
        return value

    def write(self, addr: int, value: int, size: int) -> None:
        """Little-endian write of the low ``size`` bytes of ``value``."""
        value &= (1 << (8 * size)) - 1
        page_no, off = addr >> _PAGE_SHIFT, addr & _PAGE_MASK
        if off + size <= _PAGE_SIZE:
            self._page(page_no)[off:off + size] = value.to_bytes(size, "little")
            return
        for i in range(size):
            byte_addr = addr + i
            self._page(byte_addr >> _PAGE_SHIFT)[byte_addr & _PAGE_MASK] = (
                value >> (8 * i)) & 0xFF

    def load_segment(self, base: int, data: bytes) -> None:
        for i, byte in enumerate(data):
            addr = base + i
            self._page(addr >> _PAGE_SHIFT)[addr & _PAGE_MASK] = byte

    def snapshot(self) -> dict[int, bytes]:
        """Immutable image of resident memory, all-zero pages dropped.

        Absent pages read as zero, so two memories are architecturally
        identical iff their snapshots compare equal.  The differential
        checker (repro.analysis.differential) compares a fresh
        interpreter's snapshot against a replay of the pipeline's
        committed store drains.
        """
        return {number: bytes(page)
                for number, page in self._pages.items()
                if any(page)}


#: Functional-capture safety cap: the interpreter stops recording after
#: this many µ-ops even if the program never halts.  Distinct from the
#: *simulation* budget :data:`repro.config.DEFAULT_MAX_UOPS` (200k),
#: which bounds how much of a trace the cycle-accurate pipeline runs in
#: full detail by default.
DEFAULT_INTERP_MAX_UOPS = 2_000_000


class Interpreter:
    """Executes a :class:`~repro.isa.program.Program` and records a trace."""

    def __init__(self, program: Program, max_uops: int = DEFAULT_INTERP_MAX_UOPS,
                 record_stores: bool = False):
        self.program = program
        self.max_uops = max_uops
        self.regs: list[int] = [0] * NUM_ARCH_REGS
        self.regs[2] = STACK_TOP  # sp
        self.memory = Memory()
        for base, data in program.data_segments.items():
            self.memory.load_segment(base, data)
        self.halted = False
        self.uops: list[MicroOp] = []
        #: seq -> size-masked stored value, when ``record_stores`` — the
        #: ground truth the differential checker replays in drain order.
        self.store_values: Optional[dict[int, int]] = (
            {} if record_stores else None)

    # -- register helpers -------------------------------------------------

    def _write_reg(self, index: Optional[int], value: int) -> None:
        if index is not None and index != 0:
            self.regs[index] = value & _MASK64

    # -- main loop ---------------------------------------------------------

    def run(self) -> Trace:
        """Execute until halt (``ecall``/fall-off-end) or the µ-op cap."""
        index = 0
        program = self.program
        n = len(program)
        while not self.halted and len(self.uops) < self.max_uops:
            if not 0 <= index < n:
                break  # fell off the end: implicit halt
            index = self._step(program.instructions[index], index)
        return Trace(self.uops, name=program.name)

    def _step(self, inst: Instruction, index: int) -> int:
        """Execute one instruction; return the next instruction index."""
        mnem = inst.mnemonic
        opclass = inst.opclass
        regs = self.regs
        next_index = index + 1

        if opclass is OpClass.LOAD or opclass is OpClass.STORE:
            addr = (regs[inst.rs1] + inst.imm) & _MASK64
            if opclass is OpClass.LOAD:
                value = self.memory.read(addr, inst.mem_size)
                if mnem in SIGNED_LOADS and inst.mem_size < 8:
                    sign_bit = 1 << (8 * inst.mem_size - 1)
                    if value & sign_bit:
                        value |= _MASK64 ^ ((1 << (8 * inst.mem_size)) - 1)
                self._write_reg(inst.rd, value)
            else:
                self.memory.write(addr, regs[inst.rs2], inst.mem_size)
                if self.store_values is not None:
                    self.store_values[len(self.uops)] = (
                        regs[inst.rs2] & ((1 << (8 * inst.mem_size)) - 1))
            self.uops.append(MicroOp(len(self.uops), inst, addr=addr))
            return next_index

        if opclass is OpClass.BRANCH:
            taken = _BRANCH_OPS[mnem](regs[inst.rs1], regs[inst.rs2])
            target = inst.target if taken else next_index
            self.uops.append(MicroOp(
                len(self.uops), inst, taken=taken,
                target_pc=self.program.pc_of(target) if 0 <= target <= len(self.program) else 0))
            return target

        if opclass is OpClass.JUMP:
            self._write_reg(inst.rd, inst.pc + INSTRUCTION_BYTES)
            if mnem == "jal":
                target = inst.target
            else:  # jalr
                target_pc = (regs[inst.rs1] + inst.imm) & _MASK64 & ~1
                if target_pc == 0:
                    self.halted = True  # convention: return to 0 halts
                    self.uops.append(MicroOp(len(self.uops), inst, taken=True))
                    return next_index
                target = self.program.index_of_pc(target_pc)
            self.uops.append(MicroOp(
                len(self.uops), inst, taken=True,
                target_pc=self.program.pc_of(target)))
            return target

        if opclass is OpClass.SYSTEM:  # ecall: halt
            self.halted = True
            self.uops.append(MicroOp(len(self.uops), inst))
            return next_index
        if opclass is OpClass.FENCE or opclass is OpClass.NOP:
            self.uops.append(MicroOp(len(self.uops), inst))
            return next_index

        self._execute_compute(inst, mnem)
        self.uops.append(MicroOp(len(self.uops), inst))
        return next_index

    # -- compute semantics ---------------------------------------------------

    def _execute_compute(self, inst: Instruction, mnem: str) -> None:
        regs = self.regs
        a = regs[inst.rs1] if inst.rs1 is not None else 0
        b = regs[inst.rs2] if inst.rs2 is not None else inst.imm & _MASK64
        handler = _COMPUTE_OPS.get(mnem)
        if handler is not None:
            self._write_reg(inst.rd, handler(a, b, inst.imm, inst) & _MASK64)
            return
        if mnem[0] == "f":
            self._execute_fp(inst, mnem)
            return
        raise ExecutionError("unimplemented mnemonic %r" % mnem)

    @staticmethod
    def _divide(mnem: str, a: int, b: int) -> int:
        return _divide(mnem, a, b)

    def _execute_fp(self, inst: Instruction, mnem: str) -> None:
        handler = _FP_OPS.get(mnem)
        if handler is None:
            raise ExecutionError("unimplemented FP mnemonic %r" % mnem)
        handler(self, inst)


# -- dispatch tables ---------------------------------------------------------
#
# One entry per mnemonic replaces the former if/elif chains: execution
# becomes a single dict probe regardless of where the mnemonic used to
# sit in the chain, which is the interpreter's hottest path during
# cold trace capture.

def _divide(mnem: str, a: int, b: int) -> int:
    wordy = mnem.endswith("w")
    unsigned = "u" in mnem[3:] or mnem in ("divu", "remu", "divuw", "remuw")
    if wordy:
        a = (a & _MASK32) if unsigned else _signed32(a) & _MASK64
        b = (b & _MASK32) if unsigned else _signed32(b) & _MASK64
    lhs = a if unsigned else _signed(a & _MASK64)
    rhs = b if unsigned else _signed(b & _MASK64)
    is_rem = mnem.startswith("rem")
    if rhs == 0:
        result = lhs if is_rem else -1  # RISC-V divide-by-zero semantics
    else:
        quotient = abs(lhs) // abs(rhs)
        if (lhs < 0) != (rhs < 0):
            quotient = -quotient
        result = lhs - quotient * rhs if is_rem else quotient
    return _sext32(result) if wordy else result & _MASK64


#: Branch comparators: mnemonic -> (rs1_value, rs2_value) -> taken.
_BRANCH_OPS = {
    "beq": lambda a, b: a == b,
    "bne": lambda a, b: a != b,
    "blt": lambda a, b: _signed(a) < _signed(b),
    "bge": lambda a, b: _signed(a) >= _signed(b),
    "bltu": lambda a, b: a < b,
    "bgeu": lambda a, b: a >= b,
}

#: Integer compute semantics: mnemonic -> (a, b, imm, inst) -> result.
#: ``a`` is the rs1 value (0 if absent); ``b`` is the rs2 value, or
#: ``imm & _MASK64`` for immediate forms.  The caller masks the result.
_COMPUTE_OPS = {
    "add": lambda a, b, imm, inst: a + b,
    "addi": lambda a, b, imm, inst: a + imm,
    "sub": lambda a, b, imm, inst: a - b,
    "and": lambda a, b, imm, inst: a & b,
    "andi": lambda a, b, imm, inst: a & (imm & _MASK64),
    "or": lambda a, b, imm, inst: a | b,
    "ori": lambda a, b, imm, inst: a | (imm & _MASK64),
    "xor": lambda a, b, imm, inst: a ^ b,
    "xori": lambda a, b, imm, inst: a ^ (imm & _MASK64),
    "sll": lambda a, b, imm, inst: a << (b & 63),
    "slli": lambda a, b, imm, inst: a << (imm & 63),
    "srl": lambda a, b, imm, inst: a >> (b & 63),
    "srli": lambda a, b, imm, inst: a >> (imm & 63),
    "sra": lambda a, b, imm, inst: _signed(a) >> (b & 63),
    "srai": lambda a, b, imm, inst: _signed(a) >> (imm & 63),
    "slt": lambda a, b, imm, inst: 1 if _signed(a) < _signed(b) else 0,
    "slti": lambda a, b, imm, inst: 1 if _signed(a) < imm else 0,
    "sltu": lambda a, b, imm, inst: 1 if a < b else 0,
    "sltiu": lambda a, b, imm, inst: 1 if a < (imm & _MASK64) else 0,
    "addw": lambda a, b, imm, inst: _sext32(a + b),
    "addiw": lambda a, b, imm, inst: _sext32(a + imm),
    "subw": lambda a, b, imm, inst: _sext32(a - b),
    "sllw": lambda a, b, imm, inst: _sext32(a << (b & 31)),
    "slliw": lambda a, b, imm, inst: _sext32(a << (imm & 31)),
    "srlw": lambda a, b, imm, inst: _sext32((a & _MASK32) >> (b & 31)),
    "srliw": lambda a, b, imm, inst: _sext32((a & _MASK32) >> (imm & 31)),
    "sraw": lambda a, b, imm, inst: _sext32(_signed32(a) >> (b & 31)),
    "sraiw": lambda a, b, imm, inst: _sext32(_signed32(a) >> (imm & 31)),
    "lui": lambda a, b, imm, inst: _sext32(imm << 12),
    "auipc": lambda a, b, imm, inst: inst.pc + (imm << 12),
    "mul": lambda a, b, imm, inst: _signed(a) * _signed(b),
    "mulw": lambda a, b, imm, inst: _sext32(_signed(a) * _signed(b)),
    "mulh": lambda a, b, imm, inst: (_signed(a) * _signed(b)) >> 64,
    "mulhu": lambda a, b, imm, inst: (a * b) >> 64,
    "mulhsu": lambda a, b, imm, inst: (_signed(a) * b) >> 64,
}
for _name in ("div", "divw", "divu", "divuw",
              "rem", "remw", "remu", "remuw"):
    _COMPUTE_OPS[_name] = (
        lambda m: lambda a, b, imm, inst: _divide(m, a, b))(_name)
del _name


# -- FP dispatch -------------------------------------------------------------

def _fp_read(interp: "Interpreter", index: Optional[int]) -> float:
    return _bits_to_double(interp.regs[index]) if index is not None else 0.0


def _fp_arith(op):
    def handler(interp: "Interpreter", inst: Instruction) -> None:
        result = op(_fp_read(interp, inst.rs1), _fp_read(interp, inst.rs2))
        interp._write_reg(inst.rd, _double_to_bits(result))
    return handler


def _fp_compare(op):
    def handler(interp: "Interpreter", inst: Instruction) -> None:
        flag = op(_fp_read(interp, inst.rs1), _fp_read(interp, inst.rs2))
        interp._write_reg(inst.rd, 1 if flag else 0)
    return handler


def _fp_cvt_to_int(interp: "Interpreter", inst: Instruction) -> None:
    interp._write_reg(
        inst.rd, int(_bits_to_double(interp.regs[inst.rs1])) & _MASK64)


#: FP semantics: mnemonic -> (interpreter, inst) -> None (writes rd).
_FP_OPS = {
    "fcvt.d.l": lambda interp, inst: interp._write_reg(
        inst.rd, _double_to_bits(float(_signed(interp.regs[inst.rs1])))),
    "fcvt.d.w": lambda interp, inst: interp._write_reg(
        inst.rd, _double_to_bits(float(_signed32(interp.regs[inst.rs1])))),
    "fcvt.l.d": _fp_cvt_to_int,
    "fcvt.w.d": _fp_cvt_to_int,
    "feq.d": _fp_compare(lambda a, b: a == b),
    "flt.d": _fp_compare(lambda a, b: a < b),
    "fle.d": _fp_compare(lambda a, b: a <= b),
    "fsgnj.d": lambda interp, inst: interp._write_reg(
        inst.rd, (interp.regs[inst.rs1] & ((1 << 63) - 1))
        | (interp.regs[inst.rs2] & (1 << 63))),
    "fabs.d": lambda interp, inst: interp._write_reg(
        inst.rd, interp.regs[inst.rs1] & ((1 << 63) - 1)),
    "fneg.d": lambda interp, inst: interp._write_reg(
        inst.rd, interp.regs[inst.rs1] ^ (1 << 63)),
}
for _suffix in (".d", ".s"):
    _FP_OPS["fadd" + _suffix] = _fp_arith(lambda a, b: a + b)
    _FP_OPS["fsub" + _suffix] = _fp_arith(lambda a, b: a - b)
    _FP_OPS["fmul" + _suffix] = _fp_arith(lambda a, b: a * b)
    _FP_OPS["fdiv" + _suffix] = _fp_arith(
        lambda a, b: a / b if b != 0.0 else float("inf"))
_FP_OPS["fmin.d"] = _fp_arith(min)
_FP_OPS["fmax.d"] = _fp_arith(max)
del _suffix


def run_program(program: Program,
                max_uops: int = DEFAULT_INTERP_MAX_UOPS) -> Trace:
    """Convenience wrapper: interpret ``program`` and return its trace."""
    return Interpreter(program, max_uops=max_uops).run()
