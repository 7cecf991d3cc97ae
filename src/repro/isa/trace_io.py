"""Trace import/export.

Two capabilities downstream users need to run the model on *their*
programs:

* **Spike commit logs** — :func:`from_spike_log` ingests the output of
  ``spike -l --log-commits`` (the paper's own functional front end),
  decoding each committed instruction word with
  :mod:`repro.isa.decoder`, attaching the logged memory addresses, and
  resolving branch directions from the committed PC stream.
* **Portable JSON-lines traces** — :func:`save_trace` /
  :func:`load_trace` round-trip a :class:`~repro.isa.trace.Trace`
  through a simple line-per-µ-op format so traces can be captured once
  and replayed across configurations.
* **Compact binary traces** — :func:`save_trace_binary` /
  :func:`load_trace_binary` are the fast path used by the persistent
  trace store (:mod:`repro.workloads.trace_store`): struct-packed
  fixed-width µ-op records referencing an interned static-instruction
  table, zlib-compressed and CRC-checked.  JSON-lines stays the
  portable interchange format; the binary format is a cache encoding
  and may change between versions (readers reject unknown versions).
"""

from __future__ import annotations

import io
import json
import re
import struct
import sys
import zlib
from collections.abc import Iterable
from typing import BinaryIO, Optional, TextIO, Union

from repro.gcpause import paused_gc
from repro.isa.decoder import decode
from repro.isa.instructions import Instruction, opclass_for
from repro.isa.program import INSTRUCTION_BYTES
from repro.isa.trace import MicroOp, Trace

#: One committed instruction in a `spike -l --log-commits` log, e.g.::
#:
#:     core   0: 3 0x0000000080001a4a (0x00b2b023) mem 0x80001110 0x0b
#:     core   0: 3 0x000000008000010c (0x0000b303) x6  0x0b mem 0x80001110
_SPIKE_LINE = re.compile(
    r"core\s+\d+:\s+(?:\d+\s+)?0x(?P<pc>[0-9a-fA-F]+)\s+"
    r"\(0x(?P<word>[0-9a-fA-F]+)\)"
    r"(?P<rest>.*)$")
_SPIKE_MEM = re.compile(r"\bmem\s+0x(?P<addr>[0-9a-fA-F]+)")


class TraceFormatError(ValueError):
    """Raised for unparseable trace inputs."""


#: Version of the JSON-lines interchange format written by
#: :func:`save_trace`.  Bump on any incompatible record change;
#: :func:`load_trace` rejects files claiming a different version
#: instead of silently misparsing them.
TRACE_JSON_VERSION = 1


def from_spike_log(lines: Iterable[str], name: str = "spike",
                   max_uops: Optional[int] = None) -> Trace:
    """Build a :class:`Trace` from a Spike commit log.

    Branch/jump direction and targets come from the *next* committed
    PC, exactly like the paper's Spike-injection methodology.  Lines
    that do not look like commit records (boot noise, interrupts) are
    skipped.
    """
    records = []
    for line in lines:
        match = _SPIKE_LINE.search(line)
        if match is None:
            continue
        pc = int(match.group("pc"), 16)
        word = int(match.group("word"), 16)
        mem = _SPIKE_MEM.search(match.group("rest"))
        addr = int(mem.group("addr"), 16) if mem else 0
        records.append((pc, word, addr))
        if max_uops is not None and len(records) == max_uops + 1:
            # Collect exactly ONE record beyond the cap on purpose: the
            # direction/target of the last kept µ-op, if it is a
            # control transfer, is resolved from the *next* committed
            # PC.  The lookahead record itself never becomes a µ-op —
            # the emission loop below stops at ``max_uops``.
            break

    uops: list[MicroOp] = []
    for index, (pc, word, addr) in enumerate(records):
        if max_uops is not None and len(uops) >= max_uops:
            break
        inst = decode(word, pc=pc)
        if inst.is_memory:
            uops.append(MicroOp(len(uops), inst, addr=addr))
        elif inst.opclass.is_control:
            next_pc = records[index + 1][0] if index + 1 < len(records) \
                else pc + INSTRUCTION_BYTES
            taken = next_pc != pc + INSTRUCTION_BYTES
            uops.append(MicroOp(len(uops), inst, taken=taken,
                                target_pc=next_pc))
        else:
            uops.append(MicroOp(len(uops), inst))
    return Trace(uops, name=name)


def load_spike_log(path: str, name: Optional[str] = None,
                   max_uops: Optional[int] = None) -> Trace:
    """Read a Spike commit-log file into a trace."""
    with open(path) as handle:
        return from_spike_log(handle, name=name or path, max_uops=max_uops)


# --------------------------------------------------------------- JSON lines --

def save_trace(trace: Trace, target: Union[str, TextIO]) -> None:
    """Write a trace as JSON-lines (one µ-op per line)."""
    own = isinstance(target, str)
    handle = open(target, "w") if own else target
    try:
        handle.write(json.dumps({"format": "repro-trace",
                                 "version": TRACE_JSON_VERSION,
                                 "name": trace.name}) + "\n")
        for uop in trace:
            inst = uop.inst
            record = {
                "pc": uop.pc, "mnemonic": inst.mnemonic,
                "rd": inst.rd, "rs1": inst.rs1, "rs2": inst.rs2,
                "imm": inst.imm,
            }
            if uop.is_memory:
                record["addr"] = uop.addr
            if uop.is_control:
                record["taken"] = uop.taken
                record["target_pc"] = uop.target_pc
            handle.write(json.dumps(record) + "\n")
    finally:
        if own:
            handle.close()


def load_trace(source: Union[str, TextIO]) -> Trace:
    """Read a JSON-lines trace written by :func:`save_trace`."""
    own = isinstance(source, str)
    handle = open(source) if own else source
    try:
        header = json.loads(handle.readline())
        if header.get("format") != "repro-trace":
            raise TraceFormatError("not a repro trace file")
        version = header.get("version")
        if version != TRACE_JSON_VERSION:
            raise TraceFormatError(
                "unsupported repro-trace version %r (this reader "
                "understands version %d)" % (version, TRACE_JSON_VERSION))
        static_cache = {}
        uops: list[MicroOp] = []
        for line in handle:
            record = json.loads(line)
            key = (record["mnemonic"], record["rd"], record["rs1"],
                   record["rs2"], record["imm"], record["pc"])
            inst = static_cache.get(key)
            if inst is None:
                from repro.isa.instructions import MEM_SIZE
                inst = Instruction(
                    mnemonic=record["mnemonic"],
                    rd=record["rd"], rs1=record["rs1"], rs2=record["rs2"],
                    imm=record["imm"],
                    opclass=opclass_for(record["mnemonic"]),
                    mem_size=MEM_SIZE.get(record["mnemonic"], 0),
                    pc=record["pc"])
                static_cache[key] = inst
            uops.append(MicroOp(
                len(uops), inst, addr=record.get("addr", 0),
                taken=record.get("taken", False),
                target_pc=record.get("target_pc", 0)))
        return Trace(uops, name=header.get("name", "trace"))
    finally:
        if own:
            handle.close()


# ------------------------------------------------------------------ binary --
#
# Layout (all little-endian)::
#
#     magic      4s   b"RPTB"
#     version    H    TRACE_BINARY_VERSION
#     name_len   H    + UTF-8 name bytes
#     num_insts  I    static-instruction table length
#     num_uops   I    µ-op record count
#     body_len   I    uncompressed body length in bytes
#     body_crc   I    zlib.crc32 of the uncompressed body
#     body            zlib-compressed
#
# The body is the static table (variable-width records: mnemonic,
# registers, immediate, branch target, pc) followed by ``num_uops``
# fixed-width µ-op records (``_UOP_STRUCT``) that reference static
# entries by index — the binary analogue of the JSON loader's
# ``static_cache`` interning, made explicit in the format.

TRACE_BINARY_MAGIC = b"RPTB"
TRACE_BINARY_VERSION = 1

_HEADER_STRUCT = struct.Struct("<4sHHIIII")
#: One µ-op: static-table index, effective address, resolved target pc,
#: flags (bit 0: branch/jump taken).
_UOP_STRUCT = struct.Struct("<IQQB")
#: One static instruction minus its mnemonic: rd/rs1/rs2 (-1 = none),
#: immediate, branch-target index (-1 = none), pc.
_INST_STRUCT = struct.Struct("<bbbqqQ")


def _encode_body(trace: Trace) -> "tuple[bytes, list[Instruction]]":
    """The uncompressed body plus the interned static table."""
    table: list[Instruction] = []
    index_of: dict = {}
    chunks: list[bytes] = []
    uop_records: list[bytes] = []
    for uop in trace:
        inst = uop.inst
        index = index_of.get(id(inst))
        if index is None:
            # Distinct objects with equal fields intern to one entry.
            key = (inst.mnemonic, inst.rd, inst.rs1, inst.rs2,
                   inst.imm, inst.target, inst.pc)
            index = index_of.get(key)
            if index is None:
                index = len(table)
                table.append(inst)
                index_of[key] = index
            index_of[id(inst)] = index
        flags = 1 if uop.taken else 0
        uop_records.append(_UOP_STRUCT.pack(index, uop.addr,
                                            uop.target_pc, flags))
    for inst in table:
        mnemonic = inst.mnemonic.encode("ascii")
        chunks.append(struct.pack("<B", len(mnemonic)))
        chunks.append(mnemonic)
        chunks.append(_INST_STRUCT.pack(
            -1 if inst.rd is None else inst.rd,
            -1 if inst.rs1 is None else inst.rs1,
            -1 if inst.rs2 is None else inst.rs2,
            inst.imm,
            -1 if inst.target is None else inst.target,
            inst.pc))
    chunks.extend(uop_records)
    return b"".join(chunks), table


def save_trace_binary(trace: Trace, target: Union[str, BinaryIO]) -> None:
    """Write a trace in the compact binary cache format."""
    body, table = _encode_body(trace)
    name = trace.name.encode("utf-8")
    header = _HEADER_STRUCT.pack(
        TRACE_BINARY_MAGIC, TRACE_BINARY_VERSION, len(name),
        len(table), len(trace), len(body), zlib.crc32(body))
    payload = header + name + zlib.compress(body, 1)
    if isinstance(target, str):
        with open(target, "wb") as handle:
            handle.write(payload)
    else:
        target.write(payload)


def read_trace_header(handle: BinaryIO) -> tuple[str, int, int, int, int]:
    """``(name, num_insts, num_uops, body_len, body_crc)`` from the
    header at ``handle``'s position, leaving the handle at the body.

    Reads only the header, so a listing of stored traces costs no
    decompression.  Raises :class:`TraceFormatError` on a truncated
    header, bad magic or an unknown version.
    """
    fixed = handle.read(_HEADER_STRUCT.size)
    if len(fixed) < _HEADER_STRUCT.size:
        raise TraceFormatError("truncated binary trace header")
    (magic, version, name_len, num_insts, num_uops,
     body_len, body_crc) = _HEADER_STRUCT.unpack(fixed)
    if magic != TRACE_BINARY_MAGIC:
        raise TraceFormatError("not a repro binary trace")
    if version != TRACE_BINARY_VERSION:
        raise TraceFormatError(
            "unsupported binary trace version %d (this reader "
            "understands version %d)" % (version, TRACE_BINARY_VERSION))
    name = handle.read(name_len)
    if len(name) < name_len:
        raise TraceFormatError("truncated binary trace header")
    return name.decode("utf-8"), num_insts, num_uops, body_len, body_crc


def load_trace_binary(source: Union[str, bytes, BinaryIO]) -> Trace:
    """Read a trace written by :func:`save_trace_binary`.

    Raises :class:`TraceFormatError` on any structural problem — bad
    magic, unknown version, truncation, or a CRC mismatch — so callers
    (the trace store) can treat the file as a cache miss and rebuild.
    """
    if isinstance(source, str):
        with open(source, "rb") as handle:
            return load_trace_binary(handle)
    if isinstance(source, bytes):
        source = io.BytesIO(source)
    name, num_insts, num_uops, body_len, body_crc = read_trace_header(source)
    try:
        body = zlib.decompress(source.read())
    except zlib.error as exc:
        raise TraceFormatError("corrupt binary trace body: %s" % exc) from exc
    if len(body) != body_len or zlib.crc32(body) != body_crc:
        raise TraceFormatError("binary trace body failed CRC check")

    from repro.isa.instructions import MEM_SIZE
    table: list[Instruction] = []
    pos = 0
    try:
        for _ in range(num_insts):
            mnem_len = body[pos]
            pos += 1
            mnemonic = sys.intern(
                body[pos:pos + mnem_len].decode("ascii"))
            pos += mnem_len
            rd, rs1, rs2, imm, target, pc = _INST_STRUCT.unpack_from(
                body, pos)
            pos += _INST_STRUCT.size
            table.append(Instruction(
                mnemonic=mnemonic,
                rd=None if rd < 0 else rd,
                rs1=None if rs1 < 0 else rs1,
                rs2=None if rs2 < 0 else rs2,
                imm=imm,
                target=None if target < 0 else target,
                opclass=opclass_for(mnemonic),
                mem_size=MEM_SIZE.get(mnemonic, 0),
                pc=pc))
    except (IndexError, struct.error, UnicodeDecodeError, ValueError) as exc:
        raise TraceFormatError("corrupt static table: %s" % exc) from exc
    if pos + num_uops * _UOP_STRUCT.size != len(body):
        raise TraceFormatError("binary trace µ-op section length mismatch")

    # The loop below allocates one tracked object per µ-op and creates
    # no reference cycles, so the cyclic GC's generational scans of the
    # growing list find nothing.  Pause it, as ``PipelineCore.run``
    # does, and restore the caller's state on every exit.
    uops: list[MicroOp] = []
    append = uops.append
    try:
        with paused_gc():
            for seq, (index, addr, target_pc, flags) in enumerate(
                    _UOP_STRUCT.iter_unpack(memoryview(body)[pos:])):
                append(MicroOp(seq, table[index], addr, bool(flags & 1),
                               target_pc))
    except IndexError:
        raise TraceFormatError("µ-op references unknown static entry") from None
    return Trace(uops, name=name)
