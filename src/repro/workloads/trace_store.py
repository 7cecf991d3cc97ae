"""Persistent per-workload trace store: capture once, replay many.

The paper's methodology is trace-driven — Spike's committed µ-op
stream is captured once and injected into the timing model under every
configuration.  This module makes that capture/replay split concrete
for the synthetic workload catalog: the first time a workload is
built, its functional trace is serialized (compact binary format, see
:mod:`repro.isa.trace_io`) into a store directory; every later build —
in this process, another process, or another run entirely — replays
the stored trace instead of re-running the interpreter.

Entries are keyed by ``(workload name, max_uops, salt)`` where the
salt hashes the workload's generated kernel source together with the
capture and binary-format versions — so editing a kernel, changing its
catalog parameters, or bumping the interpreter semantics all invalidate
exactly the affected entries.  The store is safe under concurrent
readers and writers (the parallel sweep's worker processes): a
corrupted or truncated file is treated as a miss and quarantined —
never blindly unlinked, which could race a concurrent ``put()`` and
destroy a freshly-captured valid trace — orphaned ``*.tmp`` files from
killed writers are swept age-gated at init, and a full or read-only
store directory degrades the store to capture-per-process mode with a
one-time warning instead of aborting the run (see
:mod:`repro.core.fsutil`).

Environment knobs:

* ``REPRO_TRACE_DIR`` — store directory (default:
  ``$REPRO_CACHE_DIR/traces``, else ``$XDG_CACHE_HOME/repro/traces``,
  else ``~/.cache/repro/traces``).
* ``REPRO_NO_TRACE_STORE`` — set (to anything non-empty) to disable
  the persistent layer; traces are then interpreted per process and
  shared only through the in-process memo.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.core import fsutil
from repro.isa.trace import Trace
from repro.isa.trace_io import (
    TRACE_BINARY_VERSION,
    TraceFormatError,
    load_trace_binary,
    save_trace_binary,
)
from repro.workloads.catalog import CATALOG

#: Environment variable overriding the default store directory.
TRACE_DIR_ENV = "REPRO_TRACE_DIR"

#: Set (to anything non-empty) to disable the persistent trace store.
NO_TRACE_STORE_ENV = "REPRO_NO_TRACE_STORE"

#: Bump when the functional interpreter's observable semantics change
#: (captured traces would differ); stored traces then stop matching.
CAPTURE_VERSION = 1


def default_trace_dir() -> Path:
    """``$REPRO_TRACE_DIR``, else a ``traces/`` subdirectory of the
    result-cache directory resolution (``$REPRO_CACHE_DIR``,
    ``$XDG_CACHE_HOME/repro``, ``~/.cache/repro``)."""
    env = os.environ.get(TRACE_DIR_ENV)
    if env:
        return Path(env).expanduser()
    cache = os.environ.get("REPRO_CACHE_DIR")
    if cache:
        return Path(cache).expanduser() / "traces"
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "repro" / "traces"


def trace_store_enabled_by_default() -> bool:
    return not os.environ.get(NO_TRACE_STORE_ENV)


_SALT_MEMO: Dict[str, str] = {}


def workload_salt(name: str) -> str:
    """Content hash invalidating stored traces when capture changes.

    Hashes the workload's *generated kernel source* (covering both the
    kernel generator code and the catalog parameters feeding it) plus
    the binary-format and interpreter-capture versions.
    """
    salt = _SALT_MEMO.get(name)
    if salt is None:
        payload = "%s\x00binary=%d\x00capture=%d" % (
            CATALOG[name].source(), TRACE_BINARY_VERSION, CAPTURE_VERSION)
        salt = hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]
        _SALT_MEMO[name] = salt
    return salt


class TraceStore:
    """One directory of binary-serialized workload traces."""

    def __init__(self, root: Optional[Union[str, Path]] = None):
        self.root = Path(root) if root is not None else default_trace_dir()
        #: Flipped by the first environmental write failure (ENOSPC,
        #: read-only dir, permissions): later ``put`` calls become
        #: no-ops instead of re-raising on every capture of a sweep.
        self.degraded = False
        # Reclaim temporaries orphaned by writers killed mid-put.
        fsutil.sweep_stale_tmps(self.root)

    def path_for(self, name: str, max_uops: int, salt: str) -> Path:
        safe = "".join(c if c.isalnum() or c in "._-" else "_"
                       for c in name)
        return self.root / ("%s-u%d-%s.trc" % (safe, max_uops, salt))

    # ------------------------------------------------------------- access --

    def get(self, name: str, max_uops: int,
            salt: Optional[str] = None) -> Optional[Trace]:
        """The stored trace, or ``None`` on miss / stale salt /
        corruption (corrupt files are quarantined so the rebuild
        persists and the evidence survives)."""
        path = self.path_for(name, max_uops,
                             salt if salt is not None else workload_salt(name))
        # Pin the identity of the file before reading it, so a corrupt
        # parse quarantines *that* file and never one a concurrent
        # put() replaced it with.
        seen = fsutil.stat_or_none(path)
        try:
            return load_trace_binary(str(path))
        except FileNotFoundError:
            return None
        except TraceFormatError:
            fsutil.quarantine_if_unchanged(path, seen)
            return None
        except OSError:
            # Environmental read failure: miss without condemning the
            # entry — it may be perfectly valid.
            return None

    def put(self, name: str, max_uops: int, trace: Trace,
            salt: Optional[str] = None) -> Optional[Path]:
        """Atomically persist one trace (tmp file + rename).

        Returns the stored path, or ``None`` when an environmental
        failure (disk full, read-only or unwritable store directory)
        degraded the store to capture-per-process mode — with a
        one-time warning instead of aborting the sweep.
        """
        if self.degraded:
            return None
        path = self.path_for(name, max_uops,
                             salt if salt is not None else workload_salt(name))
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=str(self.root), suffix=".tmp")
        except OSError as exc:
            self._degrade(exc)
            return None
        try:
            with os.fdopen(fd, "wb") as handle:
                save_trace_binary(trace, handle)
            os.replace(tmp, str(path))
        except OSError as exc:
            fsutil.unlink_quiet(tmp)
            self._degrade(exc)
            return None
        except BaseException:
            # Programming errors and interrupts still propagate — only
            # *environmental* failures degrade.
            fsutil.unlink_quiet(tmp)
            raise
        return path

    def _degrade(self, exc: BaseException) -> None:
        if not self.degraded:
            self.degraded = True
            fsutil.warn_store_degraded("trace store", self.root, exc)

    # --------------------------------------------------------- inspection --

    def entries(self) -> List[Dict]:
        """Metadata of every stored trace (for ``repro trace``).

        Robust against concurrent mutation: a file deleted by another
        process between the directory listing and the ``stat``/read is
        skipped, not a crash.
        """
        found = []
        for path in sorted(self.root.glob("*.trc")):
            st = fsutil.stat_or_none(path)
            if st is None:
                continue  # deleted by a concurrent clear()/put()
            info: Dict = {"file": path.name, "bytes": st.st_size}
            try:
                trace = load_trace_binary(str(path))
                info["name"] = trace.name
                info["uops"] = len(trace)
            except FileNotFoundError:
                continue  # vanished between stat and open
            except (TraceFormatError, OSError):
                info["name"] = "?"
                info["uops"] = 0
                info["corrupt"] = True
            found.append(info)
        return found

    def size_bytes(self) -> int:
        return fsutil.sum_file_sizes(self.root.glob("*.trc"))

    def orphan_tmps(self) -> List[Path]:
        """Leftover ``mkstemp`` files from writers that died mid-put."""
        return fsutil.tmp_files(self.root)

    def quarantined(self) -> List[Path]:
        """Entries moved aside as corrupt (``*.corrupt``)."""
        return fsutil.quarantined_files(self.root)

    def clear(self) -> int:
        """Delete every stored trace — including orphaned temporaries
        and quarantined corrupt files; returns how many were removed."""
        removed = 0
        for pattern in ("*.trc", "*.tmp", "*" + fsutil.QUARANTINE_SUFFIX):
            for path in self.root.glob(pattern):
                if fsutil.unlink_quiet(path):
                    removed += 1
        return removed
