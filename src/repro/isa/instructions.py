"""Static instruction records and opcode classification.

The assembler produces one :class:`Instruction` per program location.
Semantics (what the instruction computes) live in
:mod:`repro.isa.interp`; timing (how long it executes) lives in the
pipeline model, keyed by :class:`OpClass`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional


class OpClass(enum.IntEnum):
    """Execution class of a µ-op, used for port binding and latency."""

    INT_ALU = 0
    INT_MUL = 1
    INT_DIV = 2
    FP_ALU = 3
    FP_MUL = 4
    FP_DIV = 5
    LOAD = 6
    STORE = 7
    BRANCH = 8
    JUMP = 9
    FENCE = 10
    SYSTEM = 11
    NOP = 12

    @property
    def is_memory(self) -> bool:
        return self in (OpClass.LOAD, OpClass.STORE)

    @property
    def is_control(self) -> bool:
        return self in (OpClass.BRANCH, OpClass.JUMP)

    @property
    def is_serializing(self) -> bool:
        return self in (OpClass.FENCE, OpClass.SYSTEM)


#: Fixed execution latencies (cycles) per class.  LOAD latency is
#: determined by the memory hierarchy; the value here is the
#: address-generation component.
EXECUTION_LATENCY = {
    OpClass.INT_ALU: 1,
    OpClass.INT_MUL: 3,
    OpClass.INT_DIV: 12,
    OpClass.FP_ALU: 4,
    OpClass.FP_MUL: 4,
    OpClass.FP_DIV: 14,
    OpClass.LOAD: 1,
    OpClass.STORE: 1,
    OpClass.BRANCH: 1,
    OpClass.JUMP: 1,
    OpClass.FENCE: 1,
    OpClass.SYSTEM: 1,
    OpClass.NOP: 1,
}


# Mnemonic groups.  The assembler validates operand shapes against
# these sets and the interpreter dispatches on mnemonic.
ALU_RRR = frozenset({
    "add", "sub", "and", "or", "xor", "sll", "srl", "sra", "slt", "sltu",
    "addw", "subw", "sllw", "srlw", "sraw",
})
ALU_RRI = frozenset({
    "addi", "andi", "ori", "xori", "slli", "srli", "srai", "slti", "sltiu",
    "addiw", "slliw", "srliw", "sraiw",
})
MUL_OPS = frozenset({"mul", "mulh", "mulhu", "mulhsu", "mulw"})
DIV_OPS = frozenset({"div", "divu", "rem", "remu", "divw", "divuw", "remw", "remuw"})
LOAD_OPS = frozenset({"lb", "lbu", "lh", "lhu", "lw", "lwu", "ld", "flw", "fld"})
STORE_OPS = frozenset({"sb", "sh", "sw", "sd", "fsw", "fsd"})
BRANCH_OPS = frozenset({"beq", "bne", "blt", "bge", "bltu", "bgeu"})
JUMP_OPS = frozenset({"jal", "jalr"})
FP_RRR = frozenset({
    "fadd.d", "fsub.d", "fmul.d", "fdiv.d", "fmin.d", "fmax.d", "fsgnj.d",
    "fadd.s", "fsub.s", "fmul.s", "fdiv.s",
})
FP_RR = frozenset({"fmv.d", "fcvt.d.l", "fcvt.l.d", "fcvt.d.w", "fcvt.w.d", "fabs.d", "fneg.d"})
FP_CMP = frozenset({"feq.d", "flt.d", "fle.d"})
MISC_OPS = frozenset({"lui", "auipc", "fence", "ecall", "nop"})

#: Memory access size in bytes, per load/store mnemonic.
MEM_SIZE = {
    "lb": 1, "lbu": 1, "sb": 1,
    "lh": 2, "lhu": 2, "sh": 2,
    "lw": 4, "lwu": 4, "sw": 4, "flw": 4, "fsw": 4,
    "ld": 8, "sd": 8, "fld": 8, "fsd": 8,
}

#: Loads whose result is sign-extended to 64 bits.
SIGNED_LOADS = frozenset({"lb", "lh", "lw", "ld"})


def opclass_for(mnemonic: str) -> OpClass:
    """Map a mnemonic to its :class:`OpClass`."""
    if mnemonic in ALU_RRR or mnemonic in ALU_RRI or mnemonic in ("lui", "auipc"):
        return OpClass.INT_ALU
    if mnemonic in MUL_OPS:
        return OpClass.INT_MUL
    if mnemonic in DIV_OPS:
        return OpClass.INT_DIV
    if mnemonic in LOAD_OPS:
        return OpClass.LOAD
    if mnemonic in STORE_OPS:
        return OpClass.STORE
    if mnemonic in BRANCH_OPS:
        return OpClass.BRANCH
    if mnemonic in JUMP_OPS:
        return OpClass.JUMP
    if mnemonic == "fence":
        return OpClass.FENCE
    if mnemonic == "ecall":
        return OpClass.SYSTEM
    if mnemonic == "nop":
        return OpClass.NOP
    if mnemonic in FP_CMP:
        return OpClass.FP_ALU
    if mnemonic.startswith("fdiv"):
        return OpClass.FP_DIV
    if mnemonic.startswith("fmul"):
        return OpClass.FP_MUL
    if mnemonic in FP_RRR or mnemonic in FP_RR:
        return OpClass.FP_ALU
    raise ValueError("unknown mnemonic: %r" % mnemonic)


@dataclass(frozen=True)
class Instruction:
    """A static (decoded) instruction.

    ``rd`` is the destination register flat index or ``None``; ``rs1``
    and ``rs2`` are source register flat indices or ``None``.  For
    memory operations ``rs1`` is the base register and ``imm`` the
    displacement; for stores ``rs2`` is the data register.  ``target``
    is a resolved instruction *index* for control transfers.
    """

    mnemonic: str
    rd: Optional[int] = None
    rs1: Optional[int] = None
    rs2: Optional[int] = None
    imm: int = 0
    target: Optional[int] = None
    opclass: OpClass = field(default=OpClass.NOP)
    mem_size: int = 0
    pc: int = 0

    @property
    def is_load(self) -> bool:
        return self.opclass is OpClass.LOAD

    @property
    def is_store(self) -> bool:
        return self.opclass is OpClass.STORE

    @property
    def is_memory(self) -> bool:
        return self.opclass.is_memory

    @property
    def is_branch(self) -> bool:
        return self.opclass is OpClass.BRANCH

    # Everything a dynamic µ-op derives from its static instruction is a
    # ``cached_property``: one static instruction is shared by every
    # µ-op at its PC, so deriving these once per *static* instruction
    # rather than once per *dynamic* µ-op is what makes µ-op
    # construction (trace capture, store decode, import) cheap.  Safe on
    # a frozen dataclass: the cache writes to ``__dict__`` directly, and
    # equality and hashing read only the declared fields.

    @cached_property
    def sources(self) -> tuple[int, ...]:
        """Source register indices, with x0 filtered out (never a dep)."""
        srcs = []
        if self.rs1 is not None and self.rs1 != 0:
            srcs.append(self.rs1)
        if self.rs2 is not None and self.rs2 != 0:
            srcs.append(self.rs2)
        return tuple(srcs)

    @cached_property
    def destination(self) -> Optional[int]:
        """Destination register index, or None (writes to x0 discarded)."""
        if self.rd is None or self.rd == 0:
            return None
        return self.rd

    @cached_property
    def uop_fields(self) -> tuple:
        """The static fields of every µ-op of this instruction, in
        :class:`~repro.isa.trace.MicroOp` slot order: ``pc``,
        ``opclass``, ``opclass_i``, ``dest``, ``srcs``, ``size``,
        ``is_load``, ``is_store``, ``is_memory``, ``is_branch``,
        ``is_control``, ``is_serializing``."""
        opclass = self.opclass
        is_load = opclass is OpClass.LOAD
        is_store = opclass is OpClass.STORE
        is_branch = opclass is OpClass.BRANCH
        return (self.pc, opclass, opclass._value_, self.destination,
                self.sources, self.mem_size,
                is_load, is_store, is_load or is_store, is_branch,
                is_branch or opclass is OpClass.JUMP,
                opclass is OpClass.FENCE or opclass is OpClass.SYSTEM)

    def __str__(self) -> str:
        parts = [self.mnemonic]
        if self.is_memory:
            if self.is_load:
                parts.append("x%d, %d(x%d)" % (self.rd or 0, self.imm, self.rs1 or 0))
            else:
                parts.append("x%d, %d(x%d)" % (self.rs2 or 0, self.imm, self.rs1 or 0))
        else:
            ops = []
            if self.rd is not None:
                ops.append("r%d" % self.rd)
            if self.rs1 is not None:
                ops.append("r%d" % self.rs1)
            if self.rs2 is not None:
                ops.append("r%d" % self.rs2)
            if self.target is not None:
                ops.append("@%d" % self.target)
            elif self.imm:
                ops.append(str(self.imm))
            parts.append(", ".join(ops))
        return " ".join(p for p in parts if p)
