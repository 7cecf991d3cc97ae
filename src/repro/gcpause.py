"""Pausing the cyclic garbage collector around allocation-heavy work.

The simulator's bulk phases — decoding a stored trace, running the
pipeline, a sampled simulation, the oracle census — allocate hundreds of
thousands of small objects while a large trace is resident, and make no
reference cycle.  Generational collections triggered by those
allocations walk the resident objects and find nothing to free, so each
phase runs inside :func:`paused_gc`.
"""

from __future__ import annotations

import gc
from collections.abc import Iterator
from contextlib import contextmanager


@contextmanager
def paused_gc() -> Iterator[None]:
    """Disable the cyclic GC for the body; restore the caller's state.

    Never collects: refcounting frees what the body leaves behind, and
    a full collection on exit would walk every resident object.  Nests,
    because only the outermost pause finds the collector enabled.
    """
    was_enabled = gc.isenabled()
    if was_enabled:
        gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
