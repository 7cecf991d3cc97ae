"""One crash-safe on-disk store, shared by the result cache and the
trace store.

:class:`DiskStore` is a directory of ``<key><suffix>`` entries that
many worker processes read and write at once, and whose writers the
fault-tolerant scheduler may kill mid-write (SIGKILL is an expected
event, not a catastrophe).  The persistent result cache
(:mod:`repro.experiments.cache`) and trace store
(:mod:`repro.workloads.trace_store`) subclass it with only their key
and their codec; the discipline lives here, once:

* **Atomic writes.**  An entry is written to a ``mkstemp`` ``*.tmp``
  and ``os.replace``\\ d into place, so a reader sees the old entry,
  the new one or none, never half of one.
* **Degrade, don't abort.**  A full disk or a read-only cache
  directory must cost persistence, not the run: the first
  environmental write failure turns writes off with a one-time
  warning.
* **Quarantine, never blind-unlink.**  A corrupt entry is a miss.
  Deleting it by path would race a concurrent ``put()`` that just
  ``os.replace``\\ d a fresh valid file over it, so the reader moves it
  aside as ``<name>.corrupt`` only if it is still the file whose
  contents failed to parse: same device, inode, size and mtime as the
  ``fstat`` of the handle that was read.  The evidence survives until
  ``clear()``.
* **Orphan sweep.**  ``mkstemp`` temporaries survive a writer killed
  mid-``put`` and match no entry glob.  Opening a store deletes those
  older than :data:`TMP_SWEEP_AGE_S`; younger ones may belong to a
  live writer in a sibling process.
"""

from __future__ import annotations

import os
import tempfile
import time
import warnings
from pathlib import Path
from typing import BinaryIO, Dict, List, Optional, Union

#: Suffix quarantined (confirmed-corrupt) entries are renamed to:
#: ``x.json`` becomes ``x.json.corrupt``, out of the entry namespace.
QUARANTINE_SUFFIX = ".corrupt"

#: A ``*.tmp`` older than this is an orphan (no ``put`` runs for an
#: hour); younger temporaries may belong to a live writer.
TMP_SWEEP_AGE_S = 3600.0

#: What a codec raises on bytes it cannot decode: the entry is corrupt.
CORRUPT_ERRORS = (ValueError, KeyError, TypeError)

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_dir() -> Path:
    """Root of the result cache, which holds the trace store's default
    directory too: ``$REPRO_CACHE_DIR``, else
    ``$XDG_CACHE_HOME/repro``, else ``~/.cache/repro``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "repro"


def _stat(path) -> Optional[os.stat_result]:
    """``os.stat``, or ``None`` if the file vanished or is unreachable."""
    try:
        return os.stat(str(path))
    except OSError:
        return None


def _unlink(path) -> bool:
    """``unlink`` swallowing OSError; returns whether it removed."""
    try:
        os.unlink(str(path))
        return True
    except OSError:
        return False


class DiskStore:
    """A directory of ``<key><suffix>`` entries under the discipline
    above.

    A subclass sets :attr:`suffix` and :attr:`label` and supplies its
    codec: :meth:`encode`, :meth:`decode` and :meth:`describe` (both
    raise one of :data:`CORRUPT_ERRORS` on a corrupt entry).
    """

    suffix = ""
    label = "store"

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        #: Set by the first environmental write failure (ENOSPC,
        #: read-only dir, permissions): later writes are no-ops instead
        #: of re-raising on every job of a sweep.
        self.degraded = False
        now = time.time()
        for path in self.orphan_tmps():
            st = _stat(path)
            if st is not None and now - st.st_mtime > TMP_SWEEP_AGE_S:
                _unlink(path)

    def path_for(self, key: str) -> Path:
        return self.root / (key + self.suffix)

    # -------------------------------------------------------------- codec --

    def encode(self, value, handle: BinaryIO) -> None:
        raise NotImplementedError

    def decode(self, handle: BinaryIO):
        raise NotImplementedError

    def describe(self, handle: BinaryIO) -> str:
        """What the entry open on ``handle`` holds, for ``entries()``;
        it may read no more of the entry than it needs."""
        raise NotImplementedError

    # ------------------------------------------------------------- access --

    def read(self, key: str):
        """The decoded entry, or ``None`` on a miss, a corrupt entry
        (quarantined if unchanged) or an environmental read failure."""
        path = self.path_for(key)
        seen = None
        try:
            with open(path, "rb") as handle:
                seen = os.fstat(handle.fileno())
                return self.decode(handle)
        except FileNotFoundError:
            return None
        except CORRUPT_ERRORS:
            if seen is not None:
                self._quarantine(path, seen)
            return None
        except OSError:
            # Environmental read failure: miss without condemning the
            # entry — it may be perfectly valid.
            return None

    def _quarantine(self, path: Path, seen: os.stat_result) -> None:
        current = _stat(path)
        if current is None or (current.st_dev, current.st_ino,
                               current.st_size, current.st_mtime_ns) \
                != (seen.st_dev, seen.st_ino, seen.st_size,
                    seen.st_mtime_ns):
            return  # a writer replaced it: that entry is not corrupt
        try:
            os.replace(str(path), str(path) + QUARANTINE_SUFFIX)
        except OSError:
            pass

    def write(self, key: str, value) -> Optional[Path]:
        """Atomically persist one entry; returns its path, or ``None``
        once an environmental failure has degraded the store."""
        if self.degraded:
            return None
        path = self.path_for(key)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=str(self.root), suffix=".tmp")
        except OSError as exc:
            self._degrade(exc)
            return None
        try:
            with os.fdopen(fd, "wb") as handle:
                self.encode(value, handle)
            os.replace(tmp, str(path))
        except OSError as exc:
            _unlink(tmp)
            self._degrade(exc)
            return None
        except BaseException:
            # Programming errors and interrupts still propagate — only
            # *environmental* failures degrade.
            _unlink(tmp)
            raise
        return path

    def _degrade(self, exc: BaseException) -> None:
        if not self.degraded:
            self.degraded = True
            warnings.warn(
                "%s degraded to uncached mode after a write failure in "
                "%s: %s — simulations continue, results are not persisted"
                % (self.label, self.root, exc), RuntimeWarning,
                stacklevel=4)

    # --------------------------------------------------------- inspection --

    def _glob(self, pattern: str) -> List[Path]:
        try:
            return sorted(self.root.glob(pattern))
        except OSError:
            return []

    def entries(self) -> List[Dict]:
        """``{"file", "bytes", "what"}`` of every entry; a file deleted
        by another process mid-listing is skipped, not a crash."""
        found = []
        for path in self._glob("*" + self.suffix):
            st = _stat(path)
            if st is None:
                continue  # deleted by a concurrent clear()/put()
            try:
                with open(path, "rb") as handle:
                    what = self.describe(handle)
            except FileNotFoundError:
                continue  # vanished between stat and open
            except CORRUPT_ERRORS + (OSError,):
                what = "corrupt"
            found.append({"file": path.name, "bytes": st.st_size,
                          "what": what})
        return found

    def size_bytes(self) -> int:
        stats = [_stat(path) for path in self._glob("*" + self.suffix)]
        return sum(st.st_size for st in stats if st is not None)

    def orphan_tmps(self) -> List[Path]:
        """Leftover ``mkstemp`` files of writers that died mid-put."""
        return self._glob("*.tmp")

    def quarantined(self) -> List[Path]:
        """Entries moved aside as corrupt (``*.corrupt``)."""
        return self._glob("*" + QUARANTINE_SUFFIX)

    def clear(self) -> int:
        """Delete every entry, orphaned temporary and quarantined file;
        returns how many were removed."""
        return sum(_unlink(path)
                   for suffix in (self.suffix, ".tmp", QUARANTINE_SUFFIX)
                   for path in self._glob("*" + suffix))
