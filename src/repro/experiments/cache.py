"""Persistent on-disk simulation result cache.

Every (workload, configuration) simulation outcome can be written to a
small JSON file keyed by the workload name, a stable fingerprint of the
full :class:`~repro.config.ProcessorConfig` (fusion mode included) and
a cache schema version.  Later sweeps — in the same process, another
process, or another run entirely — are served from disk instead of
re-simulating, which is what lets separate ``repro experiment``
commands share their heavily-overlapping sweeps.

The cache is safe to delete at any time (``repro cache clear``), and it
is safe under *concurrent* readers and writers (the parallel sweep's
worker processes): a corrupted or truncated entry is treated as a miss
and quarantined — never blindly unlinked, which could race a
concurrent ``put()`` and destroy a fresh valid entry — orphaned
``*.tmp`` files from killed writers are swept age-gated at init, and a
full or read-only cache directory degrades the cache to uncached mode
with a one-time warning instead of aborting the run (see
:mod:`repro.core.fsutil`).
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.config import ProcessorConfig
from repro.core import fsutil
from repro.core.results import SimResult

#: Bump whenever the on-disk layout or the meaning of any persisted
#: counter changes; old entries then simply stop matching.
#: v2: top-down ``cpi_buckets`` in CoreStats, ``commit_width`` on
#: SimResult, nan-aware ``fp_accuracy_pct`` — pre-observability
#: entries would deserialize with empty buckets, so they must miss.
#: v3: ``deadlock_unfusions`` in CoreStats plus the memory-carried
#: deadlock repairs and the same-dest load-pair rejection in the
#: Helios decode path — pre-analyzer entries could hold timing
#: produced by a run without the catalyst-deadlock and legality
#: fixes, so they must miss.
CACHE_SCHEMA_VERSION = 3

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro``, else
    ``~/.cache/repro``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "repro"


def cache_key(workload: str, config: ProcessorConfig) -> str:
    """Filename-safe key: workload + config fingerprint + schema."""
    safe = "".join(c if c.isalnum() or c in "._-" else "_"
                   for c in workload)
    return "%s-%s-v%d" % (safe, config.fingerprint(), CACHE_SCHEMA_VERSION)


class ResultCache:
    """One directory of JSON-serialized :class:`SimResult` entries."""

    def __init__(self, root: Optional[Union[str, Path]] = None):
        self.root = Path(root) if root is not None else default_cache_dir()
        #: Flipped by the first environmental write failure (ENOSPC,
        #: read-only dir, permissions): later ``put`` calls become
        #: no-ops instead of re-raising on every job of a sweep.
        self.degraded = False
        # Reclaim temporaries orphaned by writers killed mid-put.
        fsutil.sweep_stale_tmps(self.root)

    def path_for(self, key: str) -> Path:
        return self.root / (key + ".json")

    # ------------------------------------------------------------- access --

    def get(self, workload: str,
            config: ProcessorConfig) -> Optional[SimResult]:
        """The cached result, or ``None`` on miss / corruption."""
        path = self.path_for(cache_key(workload, config))
        seen = None
        try:
            with open(path, "r", encoding="utf-8") as handle:
                # Pin the identity of the file we actually read, so a
                # corrupt parse quarantines *this* file and never one a
                # concurrent put() replaced it with.
                seen = os.fstat(handle.fileno())
                data = json.load(handle)
            if data.get("schema") != CACHE_SCHEMA_VERSION:
                return None
            return SimResult.from_dict(data["result"])
        except FileNotFoundError:
            return None
        except (ValueError, KeyError, TypeError):
            # Corrupted / truncated / foreign file: quarantine it (if
            # still the same file) and miss.
            fsutil.quarantine_if_unchanged(path, seen)
            return None
        except OSError:
            # Environmental read failure: miss without condemning the
            # entry — it may be perfectly valid.
            return None

    def put(self, workload: str, config: ProcessorConfig,
            result: SimResult) -> None:
        """Atomically persist one result (tmp file + rename).

        An environmental failure (disk full, read-only or unwritable
        cache directory) degrades the cache to uncached mode with a
        one-time warning instead of aborting the sweep.
        """
        if self.degraded:
            return
        path = self.path_for(cache_key(workload, config))
        payload = {
            "schema": CACHE_SCHEMA_VERSION,
            "workload": workload,
            "mode": config.fusion_mode.value,
            "fingerprint": config.fingerprint(),
            "result": result.to_dict(),
        }
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=str(self.root), suffix=".tmp")
        except OSError as exc:
            self._degrade(exc)
            return
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, sort_keys=True)
            os.replace(tmp, str(path))
        except OSError as exc:
            fsutil.unlink_quiet(tmp)
            self._degrade(exc)
        except BaseException:
            # Programming errors (unserializable payload, interrupts)
            # still propagate — only *environmental* failures degrade.
            fsutil.unlink_quiet(tmp)
            raise

    def _degrade(self, exc: BaseException) -> None:
        if not self.degraded:
            self.degraded = True
            fsutil.warn_store_degraded("result cache", self.root, exc)

    # ---------------------------------------------------------- inspection --

    def entries(self) -> List[Dict]:
        """Metadata of every readable entry (for ``repro cache``).

        Robust against concurrent mutation: a file deleted by another
        process between the directory listing and the ``stat``/read is
        skipped, not a crash.
        """
        found = []
        for path in sorted(self.root.glob("*.json")):
            st = fsutil.stat_or_none(path)
            if st is None:
                continue  # deleted by a concurrent clear()/put()
            info = {"file": path.name, "bytes": st.st_size}
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    data = json.load(handle)
                info["workload"] = data.get("workload", "?")
                info["mode"] = data.get("mode", "?")
                info["schema"] = data.get("schema", "?")
            except FileNotFoundError:
                continue  # vanished between stat and open
            except (ValueError, OSError):
                info["workload"] = info["mode"] = "?"
                info["schema"] = "corrupt"
            found.append(info)
        return found

    def size_bytes(self) -> int:
        return fsutil.sum_file_sizes(self.root.glob("*.json"))

    def orphan_tmps(self) -> List[Path]:
        """Leftover ``mkstemp`` files from writers that died mid-put."""
        return fsutil.tmp_files(self.root)

    def quarantined(self) -> List[Path]:
        """Entries moved aside as corrupt (``*.corrupt``)."""
        return fsutil.quarantined_files(self.root)

    def clear(self) -> int:
        """Delete every entry — including orphaned temporaries and
        quarantined corrupt files; returns how many were removed."""
        removed = 0
        for pattern in ("*.json", "*.tmp", "*" + fsutil.QUARANTINE_SUFFIX):
            for path in self.root.glob(pattern):
                if fsutil.unlink_quiet(path):
                    removed += 1
        return removed
