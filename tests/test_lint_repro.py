"""The bespoke AST lint (tools/lint_repro.py) and its rules."""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import lint_repro  # noqa: E402

CONFIG_SRC = """
class ProcessorConfig:
    fetch_width: int = 8
    rob_size: int = 352
    uop_cache_enabled: bool = False

    def with_mode(self, mode):
        return self
"""

SAMPLES_SRC = """
TIMING_FIELD_SAMPLES = {
    "fetch_width": 4,
    "rob_size": 128,
}
"""


def test_config_fields_parsed():
    assert lint_repro.config_fields(CONFIG_SRC) == \
        ["fetch_width", "rob_size", "uop_cache_enabled"]


def test_timing_sample_fields_parsed():
    assert lint_repro.timing_sample_fields(SAMPLES_SRC) == \
        ["fetch_width", "rob_size"]


def test_timing_sample_fields_rejects_computed_keys():
    with pytest.raises(ValueError):
        lint_repro.timing_sample_fields("TIMING_FIELD_SAMPLES = {k: 1}")


def test_classification_clean():
    assert lint_repro.classification_errors(
        ["a", "b", "c"], timing=["a", "b", "c"]) == []


def test_classification_flags_unclassified():
    errors = lint_repro.classification_errors(["a", "b"], timing=["a"])
    assert len(errors) == 1 and "'b'" in errors[0]


def test_classification_flags_stale_entry():
    errors = lint_repro.classification_errors(
        ["a"], timing=["a", "removed_field"])
    assert len(errors) == 1 and "not a ProcessorConfig field" in errors[0]


def test_stats_mutation_flags_subscript_store():
    errors = lint_repro.stats_mutation_errors(
        "self.stats.cpi_buckets['base'] = 1\n", "core.py")
    assert len(errors) == 1 and errors[0].startswith("core.py:1")


def test_stats_mutation_flags_augmented_store():
    src = "core.stats.buckets['x'] += n\n"
    assert len(lint_repro.stats_mutation_errors(src)) == 1


def test_stats_mutation_flags_delete():
    assert len(lint_repro.stats_mutation_errors(
        "del self.stats.extra['x']\n")) == 1


def test_stats_mutation_allows_local_dicts_and_attributes():
    src = (
        "slots['base'] += committed\n"          # local working dict
        "self.stats.cpi_buckets = dict(slots)\n"  # attribute publish
        "self.stats.loads += 1\n"               # plain counter
        "value = self.stats.cpi_buckets['base']\n"  # read is fine
    )
    assert lint_repro.stats_mutation_errors(src) == []


def test_repo_passes_lint():
    assert lint_repro.run(ROOT) == []


HOT_CORE_SRC = '''
class PipelineCore:
    def _run(self):
        while True:
            self._fetch()
            self._commit()

    def _fetch(self):
        width = self.config.fetch_width
        for _ in range(width):
            pass

    def _commit(self):
        head = self.rob[0]
        return head

    def _cold_helper(self):
        # Not called from the run loop: unconstrained.
        return [list() for _ in range(8)]
'''


def test_hot_methods_found_from_run_loop():
    assert lint_repro.hot_methods(HOT_CORE_SRC) == \
        ["_commit", "_fetch", "_run"]


def test_hot_loop_clean_within_budget():
    budgets = {"_run": (0, 0), "_fetch": (0, 1), "_commit": (0, 0)}
    assert lint_repro.hot_loop_errors(HOT_CORE_SRC, budgets) == []


def test_hot_loop_flags_new_allocation():
    src = HOT_CORE_SRC.replace("head = self.rob[0]",
                               "head = list(self.rob)[0]")
    budgets = {"_run": (0, 0), "_fetch": (0, 1), "_commit": (0, 0)}
    errors = lint_repro.hot_loop_errors(src, budgets)
    assert any("_commit" in e and "allocations" in e for e in errors)


def test_hot_loop_flags_unhoisted_attribute_chain():
    src = HOT_CORE_SRC.replace("head = self.rob[0]",
                               "head = self.memory.l1d.latency")
    budgets = {"_run": (0, 0), "_fetch": (0, 1), "_commit": (0, 0)}
    errors = lint_repro.hot_loop_errors(src, budgets)
    assert any("_commit" in e and "chains" in e for e in errors)


def test_hot_loop_new_stage_method_gets_zero_budget():
    src = HOT_CORE_SRC.replace("self._commit()",
                               "self._commit()\n            self._poll()")
    src += '''
    def _poll(self):
        return {}
'''
    budgets = {"_run": (0, 0), "_fetch": (0, 1), "_commit": (0, 0)}
    errors = lint_repro.hot_loop_errors(src, budgets)
    assert any("_poll" in e and "allocations" in e for e in errors)


def test_hot_loop_underspent_budget_asks_for_ratchet():
    budgets = {"_run": (0, 0), "_fetch": (2, 1), "_commit": (0, 0)}
    errors = lint_repro.hot_loop_errors(HOT_CORE_SRC, budgets)
    assert any("ratchet" in e for e in errors)


def test_hot_loop_stale_budget_entry_flagged():
    budgets = {"_run": (0, 0), "_fetch": (0, 1), "_commit": (0, 0),
               "_retired": (1, 1)}
    errors = lint_repro.hot_loop_errors(HOT_CORE_SRC, budgets)
    assert any("_retired" in e for e in errors)


def test_hot_loop_ignores_cold_helpers():
    budgets = {"_run": (0, 0), "_fetch": (0, 1), "_commit": (0, 0)}
    errors = lint_repro.hot_loop_errors(HOT_CORE_SRC, budgets)
    assert not any("_cold_helper" in e for e in errors)


def test_hot_loop_core_matches_calibrated_budgets():
    src = (ROOT / lint_repro.CORE_PATH).read_text(encoding="utf-8")
    assert lint_repro.hot_loop_errors(src) == []


def test_unreferenced_definition_flagged():
    sources = {"src/repro/m.py": "def lonely_helper():\n    return 1\n"}
    errors = lint_repro.unreferenced_errors(
        sources, ["lonely_helper_count = 2\n"])  # whole words only
    assert len(errors) == 1
    assert errors[0].startswith("src/repro/m.py:1:")
    assert "'lonely_helper'" in errors[0]


def test_referenced_definition_passes():
    sources = {"src/repro/m.py": "class Widget:\n    def spin(self):\n"
                                 "        return 1\n"}
    texts = ["from repro.m import Widget\nWidget().spin()\n"]
    assert lint_repro.unreferenced_errors(sources, texts) == []


def test_unreferenced_dunder_is_exempt():
    sources = {"src/repro/m.py": "class Gadget:\n"
                                 "    def __repr__(self):\n"
                                 "        return 'Gadget'\n"}
    assert lint_repro.unreferenced_errors(sources, ["Gadget()\n"]) == []


def test_same_name_defined_twice_needs_a_reference():
    sources = {"src/repro/a.py": "def twin_rate():\n    return 1\n",
               "src/repro/b.py": "def twin_rate():\n    return 2\n"}
    assert len(lint_repro.unreferenced_errors(sources)) == 2
    assert lint_repro.unreferenced_errors(sources, ["twin_rate()"]) == []


HOOK_CORE_SRC = '''
class PipelineCore:
    def _run(self):
        while True:
            self._fetch()
            if self._ev is not None:
                self._sample()

    def _fetch(self):
        ev = self._ev
        if ev is not None and self.now:
            ev.emit(self.now, "fetch")

    def _sample(self):
        obs = self._ev
        obs.sample("rob", 1)
'''


def test_hook_guard_flags_unguarded_emit():
    src = HOOK_CORE_SRC.replace(
        'ev = self._ev\n        if ev is not None and self.now:\n'
        '            ev.emit(self.now, "fetch")',
        'self._ev.emit(self.now, "fetch")')
    errors = lint_repro.hook_guard_errors(src)
    assert len(errors) == 1
    assert "_fetch" in errors[0] and "self._ev" in errors[0]


def test_hook_guard_accepts_guarded_alias():
    # ``ev = self._ev`` tested as one operand of an ``and``, and a
    # helper whose only call site sits under ``self._ev is not None``.
    assert lint_repro.hook_guard_errors(HOOK_CORE_SRC) == []


def test_hook_guard_flags_unguarded_call_into_helper():
    src = HOOK_CORE_SRC.replace(
        "if self._ev is not None:\n                self._sample()",
        "self._sample()")
    errors = lint_repro.hook_guard_errors(src)
    assert len(errors) == 1 and "_sample" in errors[0]


def test_hook_guard_core_passes():
    src = (ROOT / lint_repro.CORE_PATH).read_text(encoding="utf-8")
    assert lint_repro.hook_guard_errors(src) == []
