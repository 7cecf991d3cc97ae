"""Assembled program container."""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterator

from repro.isa.instructions import Instruction

#: Code base address and instruction stride (RV64G, uncompressed).
CODE_BASE = 0x1_0000
INSTRUCTION_BYTES = 4


@dataclass
class Program:
    """A sequence of decoded instructions plus its label map.

    Instructions are addressed both by index (``program[i]``) and by PC
    (``CODE_BASE + 4 * i``).  ``data_segments`` carries initial memory
    images, as ``{address: bytes}``, that the interpreter installs
    before execution.
    """

    instructions: list[Instruction]
    labels: dict[str, int] = field(default_factory=dict)
    data_segments: dict[int, bytes] = field(default_factory=dict)
    name: str = "program"

    def __len__(self) -> int:
        return len(self.instructions)

    def __getitem__(self, index: int) -> Instruction:
        return self.instructions[index]

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def pc_of(self, index: int) -> int:
        """PC of the instruction at ``index``."""
        return CODE_BASE + INSTRUCTION_BYTES * index

    def index_of_pc(self, pc: int) -> int:
        """Instruction index for a PC inside the code segment."""
        index, rem = divmod(pc - CODE_BASE, INSTRUCTION_BYTES)
        if rem or not 0 <= index < len(self.instructions):
            raise IndexError("PC 0x%x is outside the program" % pc)
        return index

    def listing(self) -> str:
        """Human-readable disassembly, one line per instruction."""
        index_to_label: dict[int, list[str]] = {}
        for label, index in self.labels.items():
            index_to_label.setdefault(index, []).append(label)
        lines = []
        for i, inst in enumerate(self.instructions):
            for label in index_to_label.get(i, ()):
                lines.append("%s:" % label)
            lines.append("  %06x  %s" % (self.pc_of(i), inst))
        return "\n".join(lines)

    def static_mix(self) -> dict[str, int]:
        """Count of static instructions per opclass name."""
        mix: dict[str, int] = {}
        for inst in self.instructions:
            key = inst.opclass.name
            mix[key] = mix.get(key, 0) + 1
        return mix
