"""The RISC-V fusion idiom set (paper Table I, after Celio et al. [7]).

Memory *pairing* idioms — load pair and store pair, in bold in the
paper's Table I — are handled by :func:`match_memory_pair`, which is
parameterized the way the paper's configurations need (asymmetric
accesses for CSF-SBR, contiguity required for static fusion).  The
remaining "Others" idioms are expressed as :class:`Idiom` records with
static matchers over decoded instructions.

All idioms fuse exactly two µ-ops (the paper restricts itself to
2-µop fusion).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from repro.isa.instructions import Instruction

#: Shift amounts that correspond to scaled-index addressing.
_INDEX_SHIFTS = (1, 2, 3)


@dataclass(frozen=True)
class Idiom:
    """A fuseable two-instruction pattern with a static matcher."""

    name: str
    description: str
    is_memory: bool
    matcher: Callable[[Instruction, Instruction], bool]

    def matches(self, head: Instruction, tail: Instruction) -> bool:
        return self.matcher(head, tail)


def _same_rd_chain(head: Instruction, tail: Instruction) -> bool:
    """tail consumes and overwrites head's destination (rd-chained)."""
    return (head.rd is not None and head.rd != 0
            and tail.rs1 == head.rd and tail.rd == head.rd)


def _match_lui_addi(head: Instruction, tail: Instruction) -> bool:
    return head.mnemonic == "lui" and tail.mnemonic in ("addi", "addiw") \
        and _same_rd_chain(head, tail)


def _match_auipc_addi(head: Instruction, tail: Instruction) -> bool:
    return head.mnemonic == "auipc" and tail.mnemonic == "addi" \
        and _same_rd_chain(head, tail)


def _match_slli_add(head: Instruction, tail: Instruction) -> bool:
    """Scaled-index address: slli rd, rs, {1,2,3}; add rd, rd, rs2."""
    if head.mnemonic != "slli" or head.imm not in _INDEX_SHIFTS:
        return False
    if tail.mnemonic != "add" or head.rd is None or head.rd == 0:
        return False
    if tail.rd != head.rd:
        return False
    return tail.rs1 == head.rd or tail.rs2 == head.rd


def _match_slli_srli(head: Instruction, tail: Instruction) -> bool:
    """Zero-extension / bit-field extract: slli rd, rs, a; srli rd, rd, b."""
    return head.mnemonic == "slli" and tail.mnemonic == "srli" \
        and _same_rd_chain(head, tail)


def _match_load_global(head: Instruction, tail: Instruction) -> bool:
    """lui rd, hi; ld rd, lo(rd) — a single load with a wide address."""
    return head.mnemonic == "lui" and tail.is_load \
        and head.rd is not None and head.rd != 0 \
        and tail.rs1 == head.rd and tail.rd == head.rd


def _independent_same_sources(head: Instruction, tail: Instruction) -> bool:
    if head.rs1 != tail.rs1 or head.rs2 != tail.rs2:
        return False
    if head.rd is None or tail.rd is None or head.rd == tail.rd:
        return False
    # tail must not consume head's result through the shared sources.
    return head.rd not in (head.rs1, head.rs2)


def _match_mulh_mul(head: Instruction, tail: Instruction) -> bool:
    """Wide multiply: mulh[s]u rd1, rs1, rs2; mul rd2, rs1, rs2."""
    return head.mnemonic in ("mulh", "mulhu", "mulhsu") \
        and tail.mnemonic == "mul" and _independent_same_sources(head, tail)


def _match_div_rem(head: Instruction, tail: Instruction) -> bool:
    """Combined divide/remainder on the same operands."""
    pairs = {("div", "rem"), ("divu", "remu"), ("divw", "remw"),
             ("divuw", "remuw")}
    return (head.mnemonic, tail.mnemonic) in pairs \
        and _independent_same_sources(head, tail)


#: The non-memory ("Others") idioms of Table I.
OTHER_IDIOMS: Tuple[Idiom, ...] = (
    Idiom("lui_addi", "load 32-bit immediate", False, _match_lui_addi),
    Idiom("auipc_addi", "PC-relative address", False, _match_auipc_addi),
    Idiom("slli_add", "scaled-index address", False, _match_slli_add),
    Idiom("slli_srli", "zero-extend / field extract", False, _match_slli_srli),
    Idiom("load_global", "lui + load (global access)", False, _match_load_global),
    Idiom("mulh_mul", "wide multiply", False, _match_mulh_mul),
    Idiom("div_rem", "divide + remainder", False, _match_div_rem),
)

#: Memory pairing idioms (bold rows of Table I).  Matching is done by
#: :func:`match_memory_pair`; these records exist for Table I rendering.
MEMORY_IDIOMS: Tuple[Idiom, ...] = (
    Idiom("load_pair", "two loads of adjacent memory", True,
          lambda h, t: match_memory_pair(h, t) is not None),
    Idiom("store_pair", "two stores to adjacent memory", True,
          lambda h, t: match_memory_pair(h, t) is not None),
)

IDIOMS: Tuple[Idiom, ...] = MEMORY_IDIOMS + OTHER_IDIOMS

#: Head mnemonics that can open each idiom.  Every idiom matcher first
#: tests ``head.mnemonic``, so dispatching on it up front skips the
#: matchers that cannot possibly fire — most dynamic pairs hit none.
_HEAD_MNEMONICS = {
    "lui_addi": ("lui",),
    "auipc_addi": ("auipc",),
    "slli_add": ("slli",),
    "slli_srli": ("slli",),
    "load_global": ("lui",),
    "mulh_mul": ("mulh", "mulhu", "mulhsu"),
    "div_rem": ("div", "divu", "divw", "divuw"),
}

#: head mnemonic -> the idioms it can open, in Table I (priority) order.
_IDIOMS_BY_HEAD: dict = {}
for _idiom in OTHER_IDIOMS:
    for _mnemonic in _HEAD_MNEMONICS[_idiom.name]:
        _IDIOMS_BY_HEAD[_mnemonic] = \
            _IDIOMS_BY_HEAD.get(_mnemonic, ()) + (_idiom,)
del _idiom, _mnemonic

_NO_IDIOMS: Tuple[Idiom, ...] = ()


def match_idiom(head: Instruction, tail: Instruction) -> Optional[Idiom]:
    """Match the non-memory Table I idioms, oldest-priority."""
    for idiom in _IDIOMS_BY_HEAD.get(head.mnemonic, _NO_IDIOMS):
        if idiom.matcher(head, tail):
            return idiom
    return None


def match_memory_pair(head: Instruction, tail: Instruction) -> Optional[str]:
    """Statically match a load pair / store pair idiom.

    Returns ``"load_pair"``, ``"store_pair"``, or ``None``.  The static
    conditions are the paper's Section III-D list: both loads or both
    stores, same architectural base register, displacements describing
    exactly adjacent bytes (contiguity is all static information can
    guarantee), and no dependence of the tail on the head (the
    dependent-load case of Section II-B).
    """
    if head.is_load and tail.is_load:
        if tail.rs1 != head.rs1:
            return None
        if head.rd is not None and head.rd != 0:
            if head.rd == head.rs1:
                return None      # tail's address depends on head's result
            if head.rd == tail.rd:
                return None      # fused µ-op needs two distinct destinations
        if _adjacent(head, tail):
            return "load_pair"
        return None
    if head.is_store and tail.is_store:
        if tail.rs1 != head.rs1:
            return None
        if _adjacent(head, tail):
            return "store_pair"
        return None
    return None


def _adjacent(head: Instruction, tail: Instruction) -> bool:
    """Displacements describe exactly contiguous accesses (either order)."""
    return (tail.imm == head.imm + head.mem_size
            or head.imm == tail.imm + tail.mem_size)
