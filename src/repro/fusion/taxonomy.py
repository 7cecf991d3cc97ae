"""Fusion taxonomy (paper Section II-A).

* **CSF / NCSF** — the two µ-ops are consecutive / non-consecutive in
  the dynamic stream.  The µ-ops between the nucleii are the *catalyst*.
* **CTF / NCTF** — the two memory accesses touch contiguous /
  non-contiguous bytes.
* **SBR / DBR** — the two memory µ-ops use the same / a different base
  register.
* The older µ-op of a pair is the **head nucleus**; the younger is the
  **tail nucleus**.

Two memory accesses are microarchitecturally fuseable when their
combined byte span fits within the cache access granularity (64 B in
the paper, Section III-C) — this admits contiguous, overlapping,
same-line, and line-crossing ("next line") pairs.
"""

from __future__ import annotations

import enum
from typing import NamedTuple, Optional

from repro.isa.trace import MicroOp


class Contiguity(enum.Enum):
    """Figure 4's mutually exclusive memory pair categories."""

    #: Accesses touch exactly adjacent, non-overlapping bytes
    #: (what Armv8 ldp/stp can express architecturally).
    CONTIGUOUS = "Contiguous"
    #: Accesses share at least one byte.
    OVERLAPPING = "Overlapping"
    #: Same 64 B cache line, with a gap between the accesses.
    SAME_LINE = "SameLine"
    #: Different cache lines but a combined span <= the access
    #: granularity (served like a single line-crossing access).
    NEXT_LINE = "NextLine"
    #: Not fuseable: span exceeds the cache access granularity.
    TOO_FAR = "TooFar"

    @property
    def fuseable(self) -> bool:
        return self is not Contiguity.TOO_FAR


class BaseRegKind(enum.Enum):
    """Whether the pair shares an architectural base register."""

    SBR = "SameBaseReg"
    DBR = "DifferentBaseReg"


def span(addr_a: int, size_a: int, addr_b: int, size_b: int) -> int:
    """Combined byte span of two accesses (max end minus min start)."""
    return max(addr_a + size_a, addr_b + size_b) - min(addr_a, addr_b)


def classify_contiguity_at(a0: int, size_a: int, b0: int, size_b: int,
                           granularity: int = 64,
                           line_bytes: int = 64) -> Contiguity:
    """Figure 4 classification over raw ``(address, size)`` pairs.

    Shared by the dynamic classifier (concrete trace addresses) and
    the static analyzer (constant-resolved symbolic addresses), so the
    two can never drift apart.
    """
    a1, b1 = a0 + size_a, b0 + size_b
    if span(a0, size_a, b0, size_b) > granularity:
        return Contiguity.TOO_FAR
    if a0 < b1 and b0 < a1:
        return Contiguity.OVERLAPPING
    if a1 == b0 or b1 == a0:
        return Contiguity.CONTIGUOUS
    if a0 // line_bytes == b0 // line_bytes and (a1 - 1) // line_bytes == (b1 - 1) // line_bytes:
        return Contiguity.SAME_LINE
    return Contiguity.NEXT_LINE


def classify_relative(delta: int, size_head: int, size_tail: int,
                      granularity: int = 64) -> Optional[Contiguity]:
    """Alignment-free classification from a byte displacement.

    The static analyzer often proves only that the tail's address is
    the head's plus ``delta`` (same symbolic base, unknown absolute
    alignment).  CONTIGUOUS / OVERLAPPING / TOO_FAR are decidable from
    ``delta`` alone; the SAME_LINE vs NEXT_LINE split depends on the
    base's line alignment, so those collapse to ``None`` ("near, line
    class alignment-dependent").
    """
    if span(0, size_head, delta, size_tail) > granularity:
        return Contiguity.TOO_FAR
    if 0 < delta < size_head or 0 < -delta < size_tail or delta == 0:
        return Contiguity.OVERLAPPING
    if delta == size_head or -delta == size_tail:
        return Contiguity.CONTIGUOUS
    return None


def classify_base(head: MicroOp, tail: MicroOp) -> BaseRegKind:
    """SBR when both µ-ops use the same architectural base register."""
    if head.base_reg is not None and head.base_reg == tail.base_reg:
        return BaseRegKind.SBR
    return BaseRegKind.DBR


class _PairFields(NamedTuple):
    head_seq: int
    tail_seq: int
    idiom: str
    is_memory: bool
    contiguity: Optional[Contiguity] = None
    base_kind: Optional[BaseRegKind] = None
    symmetric: bool = True


class FusedPair(_PairFields):
    """A (head nucleus, tail nucleus) pair selected for fusion.

    ``distance`` is the dynamic µ-op distance (1 for consecutive pairs,
    i.e. an empty catalyst); ``idiom`` names the Table I idiom or the
    memory pairing kind.

    An immutable, hashable record, equal by value.  A census builds one
    per pair found (about 155k over the catalog), so it is a tuple with
    named fields rather than a dataclass: a third of the construction
    cost and no per-instance ``__dict__``.
    """

    __slots__ = ()

    # The parameters are _PairFields' fields in their order, with their
    # defaults: a tuple is built positionally, so the two lists must
    # agree (tests/test_fusion_taxonomy.py holds them equal).  Spelled
    # out because delegating ``*args`` to _PairFields.__new__ costs a
    # second call frame per pair.
    def __new__(cls, head_seq: int, tail_seq: int, idiom: str,
                is_memory: bool, contiguity: Optional[Contiguity] = None,
                base_kind: Optional[BaseRegKind] = None,
                symmetric: bool = True) -> "FusedPair":
        if tail_seq <= head_seq:
            raise ValueError(
                "tail nucleus (%d) must be younger than head nucleus (%d)"
                % (tail_seq, head_seq))
        return tuple.__new__(cls, (head_seq, tail_seq, idiom, is_memory,
                                   contiguity, base_kind, symmetric))

    @classmethod
    def _make(cls, iterable) -> "FusedPair":
        """Build through :meth:`__new__`, so ``_make`` and ``_replace``
        validate as the constructor does."""
        return cls(*iterable)

    @property
    def distance(self) -> int:
        return self.tail_seq - self.head_seq

    @property
    def consecutive(self) -> bool:
        """CSF: empty catalyst."""
        return self.distance == 1

    @property
    def catalyst_size(self) -> int:
        """Number of µ-ops between the nucleii."""
        return self.distance - 1


def make_memory_pair(head: MicroOp, tail: MicroOp,
                     granularity: int = 64) -> FusedPair:
    """Build a fully classified memory :class:`FusedPair`."""
    # The oracle census builds about 135k memory pairs over the
    # catalog: positional arguments save about 0.5 µs a pair over
    # keywords, and the raw-address classifier saves a call frame.
    return FusedPair(
        head.seq, tail.seq, "load_pair" if head.is_load else "store_pair",
        True,
        classify_contiguity_at(head.addr, head.size, tail.addr, tail.size,
                               granularity),
        classify_base(head, tail), head.size == tail.size)
