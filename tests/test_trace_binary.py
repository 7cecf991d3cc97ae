"""Tests for the compact binary trace codec, the JSON-lines version
gate, and the Spike-log ``max_uops`` lookahead boundary."""

import gc
import io
import json
import zlib

import pytest

from repro import FusionMode, ProcessorConfig, simulate
from repro.isa import assemble, run_program
from repro.isa.trace import MicroOp
from repro.isa.trace_io import (
    TRACE_BINARY_VERSION,
    TRACE_JSON_VERSION,
    TraceFormatError,
    _HEADER_STRUCT,
    _UOP_STRUCT,
    from_spike_log,
    load_trace,
    load_trace_binary,
    save_trace,
    save_trace_binary,
)


def sample_trace(name="binary-roundtrip"):
    return run_program(assemble("""
        li a0, 0x20000
        li a1, 20
        fcvt.d.l f0, a1
    loop:
        ld a2, 0(a0)
        ld a3, 8(a0)
        sd a2, 64(a0)
        fadd.d f1, f0, f0
        addi a0, a0, 16
        addi a1, a1, -1
        bnez a1, loop
        ecall
    """, name=name))


def encode(trace):
    buffer = io.BytesIO()
    save_trace_binary(trace, buffer)
    return buffer.getvalue()


# ------------------------------------------------------------- round trip --

def test_binary_roundtrip_all_fields():
    trace = sample_trace()
    loaded = load_trace_binary(encode(trace))
    assert loaded.name == trace.name
    assert len(loaded) == len(trace)
    for original, copy in zip(trace, loaded):
        o, c = original.inst, copy.inst
        assert (o.mnemonic, o.rd, o.rs1, o.rs2, o.imm, o.target,
                o.opclass, o.mem_size, o.pc) \
            == (c.mnemonic, c.rd, c.rs1, c.rs2, c.imm, c.target,
                c.opclass, c.mem_size, c.pc)
        for slot in MicroOp.__slots__:
            if slot == "inst":
                continue
            want, got = getattr(original, slot), getattr(copy, slot)
            assert (type(want), want) == (type(got), got), slot


def test_binary_roundtrip_interns_static_instructions():
    trace = sample_trace()
    loaded = load_trace_binary(encode(trace))
    # Dynamic repeats of one static instruction share ONE object.
    by_pc = {}
    for uop in loaded:
        assert by_pc.setdefault(uop.pc, uop.inst) is uop.inst
    assert len(by_pc) < len(loaded)


def test_binary_roundtrip_simulates_identically():
    trace = sample_trace()
    loaded = load_trace_binary(encode(trace))
    config = ProcessorConfig().with_mode(FusionMode.HELIOS)
    assert simulate(trace, config).to_dict() \
        == simulate(loaded, config).to_dict()


def test_binary_roundtrip_via_file(tmp_path):
    trace = sample_trace()
    path = str(tmp_path / "t.trc")
    save_trace_binary(trace, path)
    loaded = load_trace_binary(path)
    assert len(loaded) == len(trace)
    assert loaded.name == trace.name


def with_bad_static_index(payload):
    """``payload`` re-packed so its last µ-op record points one past the
    static table, with a CRC matching the edited body."""
    header = list(_HEADER_STRUCT.unpack_from(payload))
    name_len, num_insts = header[2], header[3]
    start = _HEADER_STRUCT.size + name_len
    body = bytearray(zlib.decompress(payload[start:]))
    last = len(body) - _UOP_STRUCT.size
    _index, addr, target_pc, flags = _UOP_STRUCT.unpack_from(body, last)
    _UOP_STRUCT.pack_into(body, last, num_insts, addr, target_pc, flags)
    header[6] = zlib.crc32(body)
    return (_HEADER_STRUCT.pack(*header) + payload[_HEADER_STRUCT.size:start]
            + zlib.compress(bytes(body)))


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_binary_load_restores_gc_state(enabled):
    payload = encode(sample_trace())
    bad = with_bad_static_index(payload)
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert len(load_trace_binary(payload)) > 0
        assert gc.isenabled() is enabled
        with pytest.raises(TraceFormatError, match="unknown static entry"):
            load_trace_binary(bad)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


# ----------------------------------------------------------- error paths --

def test_binary_rejects_bad_magic():
    payload = bytearray(encode(sample_trace()))
    payload[:4] = b"NOPE"
    with pytest.raises(TraceFormatError, match="not a repro binary"):
        load_trace_binary(bytes(payload))


def test_binary_rejects_unknown_version():
    trace = sample_trace()
    payload = bytearray(encode(trace))
    header = list(_HEADER_STRUCT.unpack_from(payload))
    header[1] = TRACE_BINARY_VERSION + 1
    _HEADER_STRUCT.pack_into(payload, 0, *header)
    with pytest.raises(TraceFormatError, match="unsupported binary trace"):
        load_trace_binary(bytes(payload))


def test_binary_rejects_truncation():
    payload = encode(sample_trace())
    with pytest.raises(TraceFormatError):
        load_trace_binary(payload[:10])       # inside the header
    with pytest.raises(TraceFormatError):
        load_trace_binary(payload[:len(payload) // 2])


def test_binary_rejects_corrupt_body():
    payload = bytearray(encode(sample_trace()))
    payload[_HEADER_STRUCT.size + 20] ^= 0xFF   # inside the zlib stream
    with pytest.raises(TraceFormatError):
        load_trace_binary(bytes(payload))


def test_binary_rejects_crc_mismatch():
    # Valid zlib stream whose content disagrees with the header CRC.
    trace = sample_trace()
    payload = encode(trace)
    (magic, version, name_len, num_insts, num_uops, body_len,
     body_crc) = _HEADER_STRUCT.unpack_from(payload)
    offset = _HEADER_STRUCT.size + name_len
    body = bytearray(zlib.decompress(payload[offset:]))
    body[-1] ^= 0xFF
    forged = payload[:offset] + zlib.compress(bytes(body), 1)
    with pytest.raises(TraceFormatError, match="CRC"):
        load_trace_binary(forged)


# --------------------------------------------------- JSON version gating --

def test_json_load_rejects_unknown_version():
    header = json.dumps({"format": "repro-trace",
                         "version": TRACE_JSON_VERSION + 1,
                         "name": "future"})
    with pytest.raises(TraceFormatError, match="unsupported repro-trace"):
        load_trace(io.StringIO(header + "\n"))


def test_json_load_rejects_missing_version():
    header = json.dumps({"format": "repro-trace", "name": "old"})
    with pytest.raises(TraceFormatError, match="unsupported repro-trace"):
        load_trace(io.StringIO(header + "\n"))


def test_json_header_carries_current_version():
    buffer = io.StringIO()
    save_trace(sample_trace(), buffer)
    buffer.seek(0)
    header = json.loads(buffer.readline())
    assert header["version"] == TRACE_JSON_VERSION


# ------------------------------------------- Spike max_uops lookahead ----

def spike_line(pc, word):
    return "core   0: 3 0x%016x (0x%08x)\n" % (pc, word)


def test_spike_max_uops_exact_count():
    # A loop body ending in a taken backwards branch, repeated.
    lines = []
    for _ in range(8):
        lines.append(spike_line(0x80000000, 0x00A28293))  # addi
        lines.append(spike_line(0x80000004, 0x00B50533))  # add
        lines.append(spike_line(0x80000008, 0xFE628CE3))  # beq -8
    trace = from_spike_log(lines, max_uops=5)
    assert len(trace) == 5


def test_spike_max_uops_boundary_branch_resolves_via_lookahead():
    # µ-op at index max_uops-1 is the backwards branch; its direction
    # must be resolved from the ONE record collected past the cap.
    lines = [
        spike_line(0x80000000, 0x00A28293),
        spike_line(0x80000004, 0x00B50533),
        spike_line(0x80000008, 0xFE628CE3),   # beq back to 0x80000000
        spike_line(0x80000000, 0x00A28293),   # the lookahead record
        spike_line(0x80000004, 0x00B50533),   # must never be reached
    ]
    trace = from_spike_log(lines, max_uops=3)
    assert len(trace) == 3
    branch = trace[2]
    assert branch.is_branch
    assert branch.taken
    assert branch.target_pc == 0x80000000


def test_spike_max_uops_boundary_not_taken_branch():
    lines = [
        spike_line(0x80000000, 0x00A28293),
        spike_line(0x80000004, 0xFE628CE3),   # branch, falls through
        spike_line(0x80000008, 0x00B50533),   # lookahead: next PC +4
    ]
    trace = from_spike_log(lines, max_uops=2)
    assert len(trace) == 2
    branch = trace[1]
    assert branch.is_branch
    assert not branch.taken
