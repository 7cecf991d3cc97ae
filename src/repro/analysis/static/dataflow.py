"""Register dataflow over the static CFG.

Three layers, each feeding the next:

* :class:`ReachingDefs` — classic iterative reaching-definitions over
  the architectural register file (the flat 64-register space of
  ``isa/registers.py``).  Definition sites are instruction indices;
  the pseudo-site ``ENTRY_DEF`` stands for the interpreter's initial
  register state, which is *known*: every register starts at zero
  except ``sp`` (``STACK_TOP``), so entry definitions resolve to
  constants rather than opaque symbols.
* :class:`DefUse` — def→use and use→def chains derived from the
  reaching sets, used by ``repro static --explain`` output and the
  candidate walker's seeding.
* :class:`ValueResolver` — conservative symbolic evaluation.  A value
  is ``(root, offset)``: the architectural value is
  ``(root_value + offset) & 2**64-1`` where ``root`` is either
  ``None`` (a known constant, ``offset`` is the value) or an opaque
  token.  Resolution chases *unique* reaching definitions through the
  interpreter's own compute table (``isa.interp._COMPUTE_OPS``), so
  constant chains (``lui``/``addiw`` from ``li`` expansions, ``auipc``)
  evaluate exactly and pointer arithmetic (``addi base, base, k``)
  stays linear.  Anything it cannot prove becomes a fresh opaque root
  — the soundness contract is that an opaque root can only ever make
  the candidate classifier answer MAYBE, never a wrong definite
  verdict.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Optional

from repro.isa.instructions import Instruction, OpClass
from repro.isa.interp import _COMPUTE_OPS, _MASK64, STACK_TOP
from repro.isa.program import INSTRUCTION_BYTES
from repro.isa.registers import NUM_ARCH_REGS

from .cfg import CFG

__all__ = ["ENTRY_DEF", "INDIRECT_DEF", "ReachingDefs", "DefUse",
           "ValueResolver", "SymbolicValue", "signed_delta"]

#: Pseudo definition site: the register's value at program entry.
ENTRY_DEF = -1

#: Pseudo definition site: the register's value when control enters a
#: block through an edge the static CFG cannot see — a ``jalr``
#: return or any other indirect transfer.  Unlike :data:`ENTRY_DEF`
#: it resolves to an *opaque* symbol, never a constant: the machine
#: state carried across an indirect edge is unknowable statically,
#: and pretending otherwise produced definite span verdicts for
#: values the dynamic run computed differently.
INDIRECT_DEF = -2

#: ``(root, offset)`` — root ``None`` means constant.
SymbolicValue = tuple[Optional[object], int]

_SIGN_BIT = 1 << 63


def signed_delta(offset_a: int, offset_b: int) -> int:
    """``offset_a - offset_b`` as a signed 64-bit displacement.

    Two addresses sharing a symbolic root differ by exactly this many
    bytes modulo 2**64; interpreting the difference as signed matches
    how the dynamic trace's concrete addresses relate whenever the
    accesses do not straddle the 2**64 wrap (they never do for the
    interpreter's arena layout).
    """
    return ((offset_a - offset_b + _SIGN_BIT) & _MASK64) - _SIGN_BIT


def _defined_reg(inst: Instruction) -> Optional[int]:
    """Architectural register ``inst`` defines, or None (x0 excluded)."""
    return inst.destination


class ReachingDefs:
    """Iterative reaching definitions over blocks.

    ``ins[b]`` / ``outs[b]`` map register index → frozenset of
    definition sites (instruction indices, or :data:`ENTRY_DEF`).
    """

    def __init__(self, cfg: CFG) -> None:
        self.cfg = cfg
        insts = cfg.instructions
        # Per-block generated defs: register -> last defining index.
        self._gen: list = []
        for block in cfg.blocks:
            gen: dict = {}
            for i in range(block.start, block.stop):
                reg = _defined_reg(insts[i])
                if reg is not None:
                    gen[reg] = i
            self._gen.append(gen)
        entry_defs = {reg: frozenset((ENTRY_DEF,))
                      for reg in range(NUM_ARCH_REGS)}
        indirect_defs = {reg: frozenset((INDIRECT_DEF,))
                         for reg in range(NUM_ARCH_REGS)}
        indirect_entries = self._indirect_entry_blocks(cfg)
        self.ins: list = []
        for block in cfg.blocks:
            if block.index == 0:
                self.ins.append(dict(entry_defs))
            elif block.index in indirect_entries or not block.preds:
                # Entered through an edge the CFG cannot represent (a
                # return target, or no static predecessor at all): the
                # register file is opaque, not the entry constants.
                self.ins.append(dict(indirect_defs))
            else:
                self.ins.append({})
        self.outs: list = [{} for _ in cfg.blocks]
        self._solve()

    @staticmethod
    def _indirect_entry_blocks(cfg: CFG) -> frozenset:
        """Blocks a ``jalr`` may enter: every call's return address.

        A jump-with-link stores ``pc + 4`` and the callee's terminating
        ``jalr`` later jumps there; the CFG has no edge for that
        transfer, so the landing block's input state must be opaque.
        (Computed non-link ``jalr`` targets are out of scope: the
        assembler subset has no way to take a code address into
        arithmetic other than the link value itself.)
        """
        insts = cfg.instructions
        entries = set()
        for i, inst in enumerate(insts):
            if inst.opclass is OpClass.JUMP \
                    and inst.destination is not None \
                    and i + 1 < len(insts):
                # A jump always terminates its block, so ``i + 1`` is a
                # block leader whenever it is in range.
                entries.add(cfg.block_of[i + 1])
        return frozenset(entries)

    def _transfer(self, block_index: int) -> dict:
        out = dict(self.ins[block_index])
        for reg, site in self._gen[block_index].items():
            out[reg] = frozenset((site,))
        return out

    def _solve(self) -> None:
        cfg = self.cfg
        work = list(range(len(cfg.blocks)))
        while work:
            b = work.pop(0)
            out = self._transfer(b)
            if out == self.outs[b]:
                continue
            self.outs[b] = out
            for succ in cfg.blocks[b].succs:
                succ_in = self.ins[succ]
                changed = False
                for reg, sites in out.items():
                    merged = succ_in.get(reg, frozenset()) | sites
                    if merged != succ_in.get(reg):
                        succ_in[reg] = merged
                        changed = True
                if changed and succ not in work:
                    work.append(succ)

    def defs_reaching(self, instruction_index: int, reg: int) -> frozenset:
        """Definition sites of ``reg`` live just *before* the
        instruction at ``instruction_index`` executes."""
        block = self.cfg.block_at(instruction_index)
        insts = self.cfg.instructions
        # Closest local def in the block prefix dominates everything
        # flowing in from the block boundary.
        for i in range(instruction_index - 1, block.start - 1, -1):
            if _defined_reg(insts[i]) == reg:
                return frozenset((i,))
        return self.ins[block.index].get(reg, frozenset())


class DefUse:
    """Def→use and use→def chains for every register operand."""

    def __init__(self, rdefs: ReachingDefs) -> None:
        self.rdefs = rdefs
        self.use_defs: dict = {}   # (use_index, reg) -> frozenset(sites)
        self.def_uses: dict = {}   # site -> set of (use_index, reg)
        insts = rdefs.cfg.instructions
        for i, inst in enumerate(insts):
            for reg in inst.sources:
                sites = rdefs.defs_reaching(i, reg)
                self.use_defs[(i, reg)] = sites
                for site in sites:
                    self.def_uses.setdefault(site, set()).add((i, reg))

    def uses_of(self, def_index: int) -> frozenset:
        return frozenset(self.def_uses.get(def_index, ()))

    def defs_of(self, use_index: int, reg: int) -> frozenset:
        return self.use_defs.get((use_index, reg), frozenset())


#: Initial architectural register file (``Interpreter.__init__``):
#: everything zero except the stack pointer.
_ENTRY_VALUES = {2: STACK_TOP}


class ValueResolver:
    """Chase unique reaching definitions into ``(root, offset)`` form."""

    _MAX_DEPTH = 24

    def __init__(self, rdefs: ReachingDefs) -> None:
        self.rdefs = rdefs
        self.insts: Sequence[Instruction] = rdefs.cfg.instructions
        self._memo: dict = {}

    # -- public --------------------------------------------------------

    def resolve(self, reg: int, use_index: int) -> SymbolicValue:
        """Symbolic value of ``reg`` just before ``use_index`` runs."""
        return self._resolve(reg, use_index, frozenset(), 0)

    # -- internals -----------------------------------------------------

    def _resolve(self, reg: int, use_index: int, visiting: frozenset,
                 depth: int) -> SymbolicValue:
        if reg == 0:
            return (None, 0)
        key = (reg, use_index)
        memo = self._memo.get(key)
        if memo is not None:
            return memo
        if depth > self._MAX_DEPTH or key in visiting:
            return (("use",) + key, 0)
        sites = self.rdefs.defs_reaching(use_index, reg)
        if len(sites) != 1:
            value = (("use",) + key, 0)
        else:
            (site,) = sites
            if site == ENTRY_DEF:
                value = (None, _ENTRY_VALUES.get(reg, 0))
            elif site == INDIRECT_DEF:
                value = (("use",) + key, 0)
            else:
                value = self._eval_def(
                    site, visiting | {key}, depth + 1)
        self._memo[key] = value
        return value

    def _eval_def(self, def_index: int, visiting: frozenset,
                  depth: int) -> SymbolicValue:
        inst = self.insts[def_index]
        operands = {
            reg: self._resolve(reg, def_index, visiting, depth + 1)
            for reg in inst.sources}
        return self.eval_instruction(inst, operands, ("def", def_index))

    @staticmethod
    def eval_instruction(inst: Instruction, operands: dict,
                         opaque_root: object) -> SymbolicValue:
        """Abstract one instruction over resolved operand values.

        ``operands`` maps source register → :data:`SymbolicValue`
        (missing registers are treated as opaque).  ``opaque_root``
        names the result when nothing can be proven.  The shared
        evaluator keeps the whole-program resolver and the per-path
        walker (``candidates.py``) bit-for-bit consistent.
        """
        opclass = inst.opclass
        mnem = inst.mnemonic

        def value(reg: Optional[int]) -> SymbolicValue:
            if reg is None or reg == 0:
                return (None, 0)
            return operands.get(reg, (("opaque", opaque_root, reg), 0))

        if opclass is OpClass.LOAD or opclass is OpClass.STORE:
            return (opaque_root, 0)
        if opclass is OpClass.JUMP:
            # Link value: pc of the next instruction — a constant.
            return (None, (inst.pc + INSTRUCTION_BYTES) & _MASK64)
        handler = _COMPUTE_OPS.get(mnem)
        if handler is None:
            return (opaque_root, 0)
        a_root, a_off = value(inst.rs1)
        b_root, b_off = value(inst.rs2)
        if a_root is None and (inst.rs2 is None or b_root is None):
            # All inputs constant: defer to the interpreter's own
            # compute table so the abstraction is exact by shared code.
            a = a_off & _MASK64
            b = b_off & _MASK64 if inst.rs2 is not None \
                else (inst.imm or 0) & _MASK64
            try:
                result = handler(a, b, inst.imm, inst) & _MASK64
            except Exception:
                return (opaque_root, 0)
            return (None, result)
        # Linear forms stay linear in one symbolic root.
        if mnem == "addi":
            root, off = value(inst.rs1)
            return (root, off + inst.imm)
        if mnem == "add":
            if a_root is None:
                return (b_root, b_off + a_off)
            if b_root is None:
                return (a_root, a_off + b_off)
        if mnem == "sub":
            if b_root is None:
                return (a_root, a_off - b_off)
            if a_root is not None and a_root == b_root:
                return (None, signed_delta(a_off, b_off) & _MASK64)
        return (opaque_root, 0)
