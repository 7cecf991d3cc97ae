"""Host-side performance tooling that is not a timing harness.

* :mod:`repro.perf.profile` — ``repro profile``: cProfile one pipeline
  run and attribute its host seconds to pipeline stages.
* :mod:`repro.perf.golden` — the cycle-exactness snapshot behind
  ``tests/golden_cycles.json``.

Timing lives in ``reprobench/`` (end to end and per layer, with noise
bounds); ``tools/check_perf.py`` is the CI tripwire that pins
full-length cycles and the sampled-simulation gates.
"""

from repro.perf.profile import (
    dump_pstats,
    profile_run,
    render_profile,
    serializable,
)

__all__ = [
    "dump_pstats",
    "profile_run",
    "render_profile",
    "serializable",
]
