"""Persistent per-workload trace store: capture once, replay many.

The paper's methodology is trace-driven — Spike's committed µ-op
stream is captured once and injected into the timing model under every
configuration.  This module makes that capture/replay split concrete
for the synthetic workload catalog: the first time a workload is
built, its functional trace is serialized (compact binary format, see
:mod:`repro.isa.trace_io`) into a store directory; every later build —
in this process, another process, or another run entirely — replays
the stored trace instead of re-running the interpreter.

:func:`cached_trace` is that one path, for both
:func:`~repro.workloads.catalog.build_workload` and
:func:`~repro.sampling.scale.build_scaled_workload`: the in-process
memo, then the store, then a capture that is stored.  Entries are keyed
by ``(name, max_uops, salt)`` (:func:`trace_key`) where
:func:`workload_salt` hashes the workload's generated kernel source
together with the capture and binary-format versions — so editing a
kernel, changing its catalog parameters, or bumping the interpreter
semantics all invalidate exactly the affected entries, and the result
cache keys each result by the same trace key.  The store is a
:class:`~repro.core.fsutil.DiskStore`: safe under concurrent readers
and writers, and a full or read-only store directory degrades it to
capture-per-process mode with a one-time warning.

``REPRO_TRACE_DIR`` sets the store directory (default:
``$REPRO_CACHE_DIR/traces``, else ``$XDG_CACHE_HOME/repro/traces``,
else ``~/.cache/repro/traces``).
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple, Union

from repro.core import fsutil
from repro.isa.trace import Trace
from repro.isa.trace_io import (
    TRACE_BINARY_VERSION,
    load_trace_binary,
    read_trace_header,
    save_trace_binary,
)
from repro.workloads.catalog import CATALOG

#: Environment variable overriding the default store directory.
TRACE_DIR_ENV = "REPRO_TRACE_DIR"

#: Bump when the functional interpreter's observable semantics change
#: (captured traces would differ); stored traces then stop matching.
CAPTURE_VERSION = 1


def default_trace_dir() -> Path:
    """``$REPRO_TRACE_DIR``, else a ``traces/`` subdirectory of the
    result-cache directory
    (:func:`repro.core.fsutil.default_cache_dir`)."""
    env = os.environ.get(TRACE_DIR_ENV)
    if env:
        return Path(env).expanduser()
    return fsutil.default_cache_dir() / "traces"


_SALT_MEMO: Dict[Tuple[str, Optional[int]], str] = {}


def workload_salt(name: str, target_uops: Optional[int] = None) -> str:
    """Content hash invalidating stored traces when capture changes.

    Hashes the workload's *generated kernel source* (covering both the
    kernel generator code and the catalog parameters feeding it), the
    iteration-scaling target of a scaled trace, and the binary-format
    and interpreter-capture versions.
    """
    key = (name, target_uops)
    salt = _SALT_MEMO.get(key)
    if salt is None:
        parts = [CATALOG[name].source()]
        if target_uops is not None:
            parts.append("target=%d" % target_uops)
        parts += ["binary=%d" % TRACE_BINARY_VERSION,
                  "capture=%d" % CAPTURE_VERSION]
        salt = hashlib.sha256(
            "\x00".join(parts).encode("utf-8")).hexdigest()[:12]
        _SALT_MEMO[key] = salt
    return salt


def trace_key(name: str, max_uops: int, salt: Optional[str] = None) -> str:
    """Filename-safe key of one trace: name + µ-op cap + salt."""
    safe = "".join(c if c.isalnum() or c in "._-" else "_" for c in name)
    return "%s-u%d-%s" % (safe, max_uops,
                          salt if salt is not None else workload_salt(name))


class TraceStore(fsutil.DiskStore):
    """One directory of binary-serialized workload traces."""

    suffix = ".trc"
    label = "trace store"

    def __init__(self, root: Optional[Union[str, Path]] = None):
        super().__init__(default_trace_dir() if root is None else root)

    def get(self, name: str, max_uops: int,
            salt: Optional[str] = None) -> Optional[Trace]:
        """The stored trace, or ``None`` on miss / stale salt /
        corruption."""
        return self.read(trace_key(name, max_uops, salt))

    def put(self, name: str, max_uops: int, trace: Trace,
            salt: Optional[str] = None) -> Optional[Path]:
        """Persist one trace; returns the stored path, or ``None`` once
        the store has degraded to capture-per-process mode."""
        return self.write(trace_key(name, max_uops, salt), trace)

    def encode(self, value, handle) -> None:
        save_trace_binary(value, handle)

    def decode(self, handle) -> Trace:
        return load_trace_binary(handle)

    def describe(self, handle) -> str:
        name, _insts, num_uops, _len, _crc = read_trace_header(handle)
        return "%s %d µ-ops" % (name, num_uops)


#: In-process trace memo, keyed by ``(name, max_uops, salt)``.
_TRACE_MEMO: Dict[Tuple[str, int, str], Trace] = {}


def clear_trace_memo() -> None:
    """Drop the in-process trace memo (tests / memory pressure)."""
    _TRACE_MEMO.clear()


def cached_trace(name: str, max_uops: int, salt: str,
                 capture: Callable[[], Trace]) -> Trace:
    """The trace keyed ``(name, max_uops, salt)``: capture once, replay
    many.

    Every call in one process returns the *same* :class:`Trace` object;
    the first looks in the persistent store, and only on a miss runs
    ``capture()`` and stores what it returns.
    """
    key = (name, max_uops, salt)
    trace = _TRACE_MEMO.get(key)
    if trace is None:
        store = TraceStore()
        trace = store.get(name, max_uops, salt)
        if trace is None:
            trace = capture()
            store.put(name, max_uops, trace, salt)
        _TRACE_MEMO[key] = trace
    return trace
