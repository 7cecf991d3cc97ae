"""Dynamic µ-op traces.

A :class:`MicroOp` is one dynamically executed instruction with its
resolved effective address and branch outcome.  Traces are what the
fusion analyses (:mod:`repro.fusion`) and the cycle-level pipeline
(:mod:`repro.pipeline`) consume — mirroring the paper's methodology of
a functional simulator (Spike) injecting instructions into a timing
model.

In this reproduction, as in the paper (footnote 2), every RISC-V
instruction translates to exactly one µ-op, so "instruction" and
"µ-op" are interchangeable at trace level.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from typing import Optional

from repro.isa.instructions import Instruction, OpClass


class MicroOp:
    """One dynamic µ-op.

    Attributes
    ----------
    seq:
        Position in the dynamic instruction stream (0-based).
    inst:
        The static :class:`~repro.isa.instructions.Instruction`.
    pc:
        Program counter of the instruction.
    dest / srcs:
        Architectural destination (or ``None``) and source register
        indices, with ``x0`` filtered out.
    addr / size:
        Effective byte address and access size for memory µ-ops
        (0 otherwise).
    taken / target_seq:
        For control µ-ops, the resolved direction and the *dynamic*
        sequence number that follows (always ``seq + 1`` on the correct
        path, kept for clarity in tests).
    """

    __slots__ = (
        "seq", "inst", "addr", "taken", "target_pc",
        # Static fields, copied from the instruction's cached
        # ``Instruction.uop_fields``.  ``opclass_i`` is the plain-int
        # mirror of ``opclass``: the pipeline indexes port quotas and
        # latency tables per µ-op, where IntEnum.__index__ is overhead.
        # The predicates are slots because the pipeline and the fusion
        # window test them once or more per µ-op per stage, and a slot
        # read is several times cheaper than a property call.
        "pc", "opclass", "opclass_i", "dest", "srcs", "size",
        "is_load", "is_store", "is_memory", "is_branch", "is_control",
        "is_serializing",
    )

    def __init__(self, seq: int, inst: Instruction, addr: int = 0,
                 taken: bool = False, target_pc: int = 0):
        self.seq = seq
        self.inst = inst
        self.addr = addr
        self.taken = taken
        self.target_pc = target_pc
        (self.pc, self.opclass, self.opclass_i, self.dest, self.srcs,
         self.size, self.is_load, self.is_store, self.is_memory,
         self.is_branch, self.is_control,
         self.is_serializing) = inst.uop_fields

    @property
    def base_reg(self) -> Optional[int]:
        """Architectural base register of a memory µ-op."""
        return self.inst.rs1 if self.is_memory else None

    @property
    def offset(self) -> int:
        """Displacement of a memory µ-op."""
        return self.inst.imm

    @property
    def end_addr(self) -> int:
        """One past the last byte accessed."""
        return self.addr + self.size

    def line(self, line_bytes: int = 64) -> int:
        """Cache line frame of the first accessed byte."""
        return self.addr // line_bytes

    def __repr__(self) -> str:
        if self.is_memory:
            return "<uop %d %s addr=0x%x size=%d>" % (
                self.seq, self.inst.mnemonic, self.addr, self.size)
        return "<uop %d %s>" % (self.seq, self.inst.mnemonic)


class Trace:
    """An ordered dynamic µ-op stream plus summary statistics.

    Traces are captured once and replayed many times (the trace store
    under :mod:`repro.workloads.trace_store` shares one instance across
    every configuration of a sweep), so the summary statistics are
    memoised on first use; ``__weakref__`` is kept in the slots so
    per-trace analysis caches can key on the instance without pinning
    it.
    """

    __slots__ = ("uops", "name", "_opclass_counts", "__weakref__")

    def __init__(self, uops: list[MicroOp], name: str = "trace"):
        self.uops = uops
        self.name = name
        self._opclass_counts: Optional[dict[OpClass, int]] = None

    def __len__(self) -> int:
        return len(self.uops)

    def __getitem__(self, index):
        return self.uops[index]

    def __iter__(self) -> Iterator[MicroOp]:
        return iter(self.uops)

    def opclass_counts(self) -> dict[OpClass, int]:
        if self._opclass_counts is None:
            counts: dict[OpClass, int] = {}
            for uop in self.uops:
                counts[uop.opclass] = counts.get(uop.opclass, 0) + 1
            self._opclass_counts = counts
        return dict(self._opclass_counts)

    @property
    def num_loads(self) -> int:
        return self.opclass_counts().get(OpClass.LOAD, 0)

    @property
    def num_stores(self) -> int:
        return self.opclass_counts().get(OpClass.STORE, 0)

    @property
    def num_memory(self) -> int:
        return self.num_loads + self.num_stores

    def memory_fraction(self) -> float:
        """Fraction of dynamic µ-ops that are loads or stores."""
        if not self.uops:
            return 0.0
        return self.num_memory / len(self.uops)

    def slice(self, start: int, stop: int) -> "Trace":
        """A sub-trace (µ-ops keep their original sequence numbers)."""
        return Trace(self.uops[start:stop], name="%s[%d:%d]" % (self.name, start, stop))

    def segment(self, start: int, stop: int) -> "Trace":
        """A standalone, *renumbered* sub-trace (sequence numbers
        0..n-1).

        The pipeline core indexes its trace list by sequence number
        (``_flush_from``), so a sub-trace simulated on its own must be
        renumbered — unlike :meth:`slice`, which preserves the original
        numbering for analyses that cross-reference the parent trace.
        Fresh :class:`MicroOp` shells are built, but the static
        :class:`Instruction` objects are shared with the parent, so
        identity-keyed caches (fusion-window match memo, trace-level
        analysis memos) stay coherent.
        """
        uops = [MicroOp(seq, mo.inst, addr=mo.addr, taken=mo.taken,
                        target_pc=mo.target_pc)
                for seq, mo in enumerate(self.uops[start:stop])]
        return Trace(uops, name="%s[%d:%d]" % (self.name, start, stop))


def footprint(uops: Sequence[MicroOp], line_bytes: int = 64) -> int:
    """Number of distinct cache lines touched by the memory µ-ops."""
    return len({u.line(line_bytes) for u in uops if u.is_memory})
