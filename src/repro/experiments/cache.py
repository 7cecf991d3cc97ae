"""Persistent on-disk simulation result cache.

Every (workload, configuration) simulation outcome can be written to a
small JSON file keyed by the key of the trace it was simulated from
(workload name, µ-op cap and the salt over its kernel source, see
:func:`repro.workloads.trace_store.trace_key`), a stable fingerprint of
the full :class:`~repro.config.ProcessorConfig` (fusion mode included)
and a cache schema version.  Editing a kernel or its catalog parameters
therefore retires its results together with its trace.  Later sweeps —
in the same process, another process, or another run entirely — are
served from disk instead of re-simulating, which is what lets separate
``repro experiment`` commands share their heavily-overlapping sweeps.

The cache is safe to delete at any time (``repro cache clear``), and
safe under concurrent readers and writers: it is a
:class:`~repro.core.fsutil.DiskStore`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional, Union

from repro.config import DEFAULT_MAX_UOPS, ProcessorConfig
from repro.core import fsutil
from repro.core.fsutil import default_cache_dir
from repro.core.results import SimResult
from repro.workloads.trace_store import trace_key

#: Bump whenever the on-disk layout or the meaning of any persisted
#: counter changes, and whenever a change moves simulated timing;
#: old entries then simply stop matching.
#: v2: top-down ``cpi_buckets`` in CoreStats, ``commit_width`` on
#: SimResult, nan-aware ``fp_accuracy_pct`` — pre-observability
#: entries would deserialize with empty buckets, so they must miss.
#: v3: ``deadlock_unfusions`` in CoreStats plus the memory-carried
#: deadlock repairs and the same-dest load-pair rejection in the
#: Helios decode path — pre-analyzer entries could hold timing
#: produced by a run without the catalyst-deadlock and legality
#: fixes, so they must miss.
CACHE_SCHEMA_VERSION = 3


def cache_key(workload: str, config: ProcessorConfig) -> str:
    """Filename-safe key: the workload's trace key (at the catalog
    µ-op cap every sweep replays) + config fingerprint + schema."""
    return "%s-%s-v%d" % (trace_key(workload, DEFAULT_MAX_UOPS),
                          config.fingerprint(), CACHE_SCHEMA_VERSION)


class ResultCache(fsutil.DiskStore):
    """One directory of JSON-serialized :class:`SimResult` entries."""

    suffix = ".json"
    label = "result cache"

    def __init__(self, root: Optional[Union[str, Path]] = None):
        super().__init__(default_cache_dir() if root is None else root)

    def get(self, workload: str,
            config: ProcessorConfig) -> Optional[SimResult]:
        """The cached result, or ``None`` on miss / corruption."""
        return self.read(cache_key(workload, config))

    def put(self, workload: str, config: ProcessorConfig,
            result: SimResult) -> None:
        """Persist one result (a no-op once the cache has degraded)."""
        self.write(cache_key(workload, config), {
            "schema": CACHE_SCHEMA_VERSION,
            "workload": workload,
            "mode": config.fusion_mode.value,
            "fingerprint": config.fingerprint(),
            "result": result.to_dict(),
        })

    def encode(self, value, handle) -> None:
        handle.write(json.dumps(value, sort_keys=True).encode("utf-8"))

    def decode(self, handle) -> Optional[SimResult]:
        data = json.load(handle)
        if data.get("schema") != CACHE_SCHEMA_VERSION:
            return None
        return SimResult.from_dict(data["result"])

    def describe(self, handle) -> str:
        value = self.decode(handle)
        if value is None:
            return "other schema"
        return "%s %s" % (value.workload, value.mode.value)
