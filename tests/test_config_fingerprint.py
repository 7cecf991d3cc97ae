"""Every ProcessorConfig field is a timing parameter, and every one
moves the fingerprint.

``TIMING_FIELD_SAMPLES`` maps each field to a non-default sample value;
the tests prove each sample moves the cache fingerprint, so the
persistent result cache cannot serve stale timing.
``tools/lint_repro.py`` reads this table at CI time: a new
ProcessorConfig field with no sample here fails the lint.
"""

import dataclasses

import pytest

from repro.config import CacheConfig, FusionMode, ProcessorConfig

#: One non-default sample per timing field.  Keys must be string
#: literals — tools/lint_repro.py parses this dict from the AST.
TIMING_FIELD_SAMPLES = {
    "fetch_width": 4,
    "decode_width": 4,
    "rename_width": 4,
    "dispatch_width": 4,
    "issue_width": 8,
    "commit_width": 4,
    "rob_size": 224,
    "iq_size": 96,
    "lq_size": 72,
    "sq_size": 56,
    "aq_size": 70,
    "int_prf_size": 180,
    "fp_prf_size": 168,
    "alu_ports": 3,
    "mul_ports": 2,
    "div_ports": 2,
    "load_ports": 3,
    "store_ports": 1,
    "fp_ports": 3,
    "branch_ports": 1,
    "l1i": CacheConfig(64 * 1024, 8, 1),
    "l1d": CacheConfig(32 * 1024, 8, 4),
    "l2": CacheConfig(1024 * 1024, 8, 14),
    "l3": CacheConfig(8 * 1024 * 1024, 16, 44),
    "dram_latency": 120,
    "line_crossing_penalty": 2,
    "branch_mispredict_penalty": 14,
    "fusion_mode": FusionMode.HELIOS,
    "cache_access_granularity": 32,
    "max_fusion_distance": 32,
    "ncsf_nesting": 1,
    "uch_load_entries": 8,
    "uch_store_entries": 2,
    "fp_sets": 256,
    "fp_ways": 2,
    "fp_selector_entries": 1024,
    "fp_tag_bits": 10,
    "fp_confidence_max": 7,
    "uch_queue_entries": 4,
    "fp_kind": "tage",
    "fp_probabilistic_confidence": True,
    "uop_cache_enabled": True,
}

ALL_FIELDS = [f.name for f in dataclasses.fields(ProcessorConfig)]


def test_every_field_classified_exactly_once():
    assert set(TIMING_FIELD_SAMPLES) == set(ALL_FIELDS)


@pytest.mark.parametrize("name", sorted(TIMING_FIELD_SAMPLES))
def test_timing_field_changes_fingerprint(name):
    base = ProcessorConfig()
    sample = TIMING_FIELD_SAMPLES[name]
    assert sample != getattr(base, name), \
        "sample for %r must differ from the default" % name
    varied = dataclasses.replace(base, **{name: sample})
    assert varied.fingerprint() != base.fingerprint()


def test_fingerprint_stable_across_equal_instances():
    assert ProcessorConfig().fingerprint() == ProcessorConfig().fingerprint()
