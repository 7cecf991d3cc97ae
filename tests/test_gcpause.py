"""The shared cyclic-GC pause (repro.gcpause)."""

import gc

import pytest

from repro.gcpause import paused_gc


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_paused_gc_nests_restores_and_never_collects(enabled):
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        # A full collection zeroes every generation's allocation count,
        # so no automatic full collection can start before the check.
        gc.collect()
        full_collections = gc.get_stats()[2]["collections"]
        with paused_gc():
            assert not gc.isenabled()
            with paused_gc():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled() is enabled
        with pytest.raises(KeyError):
            with paused_gc():
                raise KeyError("body failed")
        assert gc.isenabled() is enabled
        assert gc.get_stats()[2]["collections"] == full_collections
    finally:
        (gc.enable if was_enabled else gc.disable)()
