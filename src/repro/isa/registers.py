"""Architectural register naming for the RV64G subset.

Integer registers ``x0``–``x31`` map to indices 0–31 and floating point
registers ``f0``–``f31`` map to indices 32–63, so a single flat index
space can be used throughout the tracer and the pipeline.  ``x0`` is
hard-wired to zero; writes to it are discarded and it never creates a
dependency.
"""

from __future__ import annotations

NUM_INT_REGS = 32
NUM_FP_REGS = 32
FP_REG_BASE = 32
NUM_ARCH_REGS = NUM_INT_REGS + NUM_FP_REGS

ZERO_REG = 0

# RISC-V integer ABI mnemonics, in index order.
_INT_ABI_NAMES = (
    "zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2",
    "s0", "s1", "a0", "a1", "a2", "a3", "a4", "a5",
    "a6", "a7", "s2", "s3", "s4", "s5", "s6", "s7",
    "s8", "s9", "s10", "s11", "t3", "t4", "t5", "t6",
)

# RISC-V floating-point ABI mnemonics, in index order.
_FP_ABI_NAMES = (
    "ft0", "ft1", "ft2", "ft3", "ft4", "ft5", "ft6", "ft7",
    "fs0", "fs1", "fa0", "fa1", "fa2", "fa3", "fa4", "fa5",
    "fa6", "fa7", "fs2", "fs3", "fs4", "fs5", "fs6", "fs7",
    "fs8", "fs9", "fs10", "fs11", "ft8", "ft9", "ft10", "ft11",
)


def _build_name_table() -> dict:
    table = {}
    for i in range(NUM_INT_REGS):
        table["x%d" % i] = i
        table[_INT_ABI_NAMES[i]] = i
    # "fp" is the conventional alias for s0/x8.
    table["fp"] = 8
    for i in range(NUM_FP_REGS):
        table["f%d" % i] = FP_REG_BASE + i
        table[_FP_ABI_NAMES[i]] = FP_REG_BASE + i
    return table


_NAME_TO_INDEX = _build_name_table()


def reg_index(name: str) -> int:
    """Return the flat register index for a register name.

    Accepts both numeric (``x7``, ``f3``) and ABI (``a0``, ``fa2``)
    spellings.  Raises :class:`KeyError` for unknown names.
    """
    return _NAME_TO_INDEX[name.lower()]


def reg_name(index: int) -> str:
    """Return the canonical (numeric) name for a flat register index."""
    if 0 <= index < NUM_INT_REGS:
        return "x%d" % index
    if FP_REG_BASE <= index < NUM_ARCH_REGS:
        return "f%d" % (index - FP_REG_BASE)
    raise ValueError("register index out of range: %d" % index)
