#!/usr/bin/env python
"""Repo-specific AST lints, run in CI next to ruff.

Rules the generic linters cannot express:

1. **Config classification** — every ``ProcessorConfig`` dataclass
   field is a timing parameter, and must have an entry in the
   ``TIMING_FIELD_SAMPLES`` table in ``tests/test_config_fingerprint.py``
   (which proves the field moves the cache fingerprint).  A field
   without one may be missing from the fingerprint — that silently
   poisons the persistent result cache, so it fails CI.  A sample for
   a field that no longer exists also fails.

2. **Stats mutation boundary** — no module under
   ``src/repro/pipeline/`` may write through a subscript into a
   ``stats`` object (``self.stats.cpi_buckets["x"] += 1`` and
   friends).  Pipeline stats are plain ``CoreStats`` attribute
   increments; ad-hoc dict pokes bypass the cache schema.

3. **Hot-loop allocation/attribute discipline** — the per-cycle
   methods of ``pipeline/core.py`` (everything ``_run``'s while-loop
   invokes through ``self``, plus ``_run`` itself) are governed by
   the DESIGN §4d invariants: container allocations and un-hoisted
   deep attribute chains (``self.a.b…``) in those bodies are paid
   every simulated cycle.  Each method carries a calibrated budget
   (:data:`HOT_LOOP_BUDGETS`); exceeding it fails CI, and dropping
   below it also fails with a request to ratchet the baseline down so
   the table stays honest.  A per-cycle method with no budget entry
   (i.e. a *new* stage) gets zero of both.

4. **Unreferenced definition** — a ``def`` or ``class`` under
   ``src/repro/`` (dunders excepted) whose name appears as a whole
   word nowhere in :data:`REFERENCE_DIRS` except at its own ``def``
   or ``class`` line is dead code: delete it.  Docstring and comment mentions count as
   references, so the rule only catches names nothing talks about.

5. **Hook guards** — in the same per-cycle methods, every call through
   an optional hook (``self._ev``, ``self._san``, ``self._clog``, or a
   local alias such as ``ev = self._ev``) must sit in the body of an
   ``if`` that tests that hook ``is not None``, alone or as one operand
   of an ``and``.  A method counts as guarded when every
   ``self.<method>()`` call site sits under such a test.  With no
   observer, sanitizer or commit log attached, a hook site then costs
   one ``is None`` test per cycle and never a call (DESIGN §4b).

Usage: ``python tools/lint_repro.py [--root DIR]``; exits non-zero on
any violation.  The rule implementations are importable pure functions
over source text so ``tests/test_lint_repro.py`` can exercise them.
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from pathlib import Path

CONFIG_PATH = "src/repro/config.py"
SAMPLES_PATH = "tests/test_config_fingerprint.py"
PIPELINE_DIR = "src/repro/pipeline"


# -- rule 1: ProcessorConfig field classification ----------------------------

def config_fields(source: str) -> list[str]:
    """Dataclass field names of ``ProcessorConfig`` (annotated assigns)."""
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "ProcessorConfig":
            return [item.target.id for item in node.body
                    if isinstance(item, ast.AnnAssign)
                    and isinstance(item.target, ast.Name)]
    raise ValueError("no ProcessorConfig class found")


def timing_sample_fields(source: str) -> list[str]:
    """Keys of the ``TIMING_FIELD_SAMPLES`` dict in the fingerprint test."""
    tree = ast.parse(source)
    for node in tree.body:
        if isinstance(node, ast.Assign) \
                and any(isinstance(t, ast.Name)
                        and t.id == "TIMING_FIELD_SAMPLES"
                        for t in node.targets) \
                and isinstance(node.value, ast.Dict):
            keys = []
            for key in node.value.keys:
                if not (isinstance(key, ast.Constant)
                        and isinstance(key.value, str)):
                    raise ValueError(
                        "TIMING_FIELD_SAMPLES keys must be string literals")
                keys.append(key.value)
            return keys
    raise ValueError("no TIMING_FIELD_SAMPLES dict found")


def classification_errors(fields: Sequence[str],
                          timing: Sequence[str]) -> list[str]:
    errors = []
    timing_set = set(timing)
    for name in fields:
        if name not in timing_set:
            errors.append(
                "field %r has no sample: add a non-default value for it "
                "to TIMING_FIELD_SAMPLES in %s" % (name, SAMPLES_PATH))
    for name in sorted(timing_set - set(fields)):
        errors.append("%r has a sample but is not a ProcessorConfig "
                      "field" % name)
    return errors


# -- rule 2: pipeline stats-mutation boundary --------------------------------

def _chain_names(node: ast.AST) -> list[str]:
    """Dotted-name parts of an attribute chain (``a.b.c`` -> a, b, c)."""
    names: list[str] = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        names.append(node.id)
    return names


def _is_stats_subscript(target: ast.AST) -> bool:
    return (isinstance(target, ast.Subscript)
            and "stats" in _chain_names(target.value))


def stats_mutation_errors(source: str, path: str = "<source>") -> list[str]:
    """Subscript writes through a ``stats`` attribute chain."""
    errors = []
    for node in ast.walk(ast.parse(source)):
        targets: list[ast.AST] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = list(node.targets)
        for target in targets:
            if isinstance(target, (ast.Tuple, ast.List)):
                targets.extend(target.elts)
                continue
            if _is_stats_subscript(target):
                errors.append(
                    "%s:%d: direct stats-dict mutation; use a plain "
                    "CoreStats attribute" % (path, node.lineno))
    return errors


# -- rule 3: hot-loop allocation/attribute discipline ------------------------

CORE_PATH = "src/repro/pipeline/core.py"

#: Calibrated per-method budgets for the per-cycle hot path:
#: ``name -> (allocations, deep_attribute_chains)``.  Allocations are
#: container displays/comprehensions and ``list``/``dict``/``set``/
#: ``deque`` calls; deep chains are outermost ``self.a.b…`` reads
#: (two or more attribute hops).  Calibrated against DESIGN §4d;
#: regenerate a row with
#: ``python -c "import tools.lint_repro as l; print(l.hot_loop_counts(
#: open('src/repro/pipeline/core.py').read()))"`` after deliberately
#: accepting a change.
HOT_LOOP_BUDGETS = {
    "_commit": (0, 3),
    "_decode": (2, 3),
    "_dispatch": (0, 8),
    "_drain_stores": (0, 1),
    "_fast_forward": (0, 1),
    "_fetch": (0, 5),
    "_idle_snapshot": (0, 2),
    "_issue": (2, 2),
    "_rename": (0, 2),
    "_run": (1, 4),
    "_sample_occupancy": (0, 2),
    "_stall_slot_bucket": (0, 0),
    "_train_uch": (0, 1),
}

_ALLOC_CALLS = ("list", "dict", "set", "deque", "defaultdict")
_ALLOC_NODES = (ast.List, ast.Dict, ast.Set, ast.ListComp,
                ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _core_methods(tree: ast.Module) -> dict:
    """``name -> FunctionDef`` for every method of ``PipelineCore``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "PipelineCore":
            return {item.name: item for item in node.body
                    if isinstance(item, ast.FunctionDef)}
    raise ValueError("no PipelineCore class found")


def hot_methods(source: str) -> list[str]:
    """Per-cycle methods: ``self._x(...)`` calls in ``_run``'s loop."""
    methods = _core_methods(ast.parse(source))
    run = methods.get("_run")
    if run is None:
        raise ValueError("PipelineCore has no _run method")
    names = {"_run"}
    loops = [node for node in ast.walk(run)
             if isinstance(node, (ast.While, ast.For))]
    for loop in loops:
        for node in ast.walk(loop):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and isinstance(node.func.value, ast.Name) \
                    and node.func.value.id == "self" \
                    and node.func.attr in methods:
                names.add(node.func.attr)
    return sorted(names)


def _count_method(node: ast.FunctionDef) -> tuple[int, int]:
    """(allocations, outermost deep self-attribute chains) in a body."""
    allocations = 0
    chains = 0
    inner_values = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            inner_values.add(id(sub.value))
    for sub in ast.walk(node):
        if isinstance(sub, _ALLOC_NODES):
            allocations += 1
        elif isinstance(sub, ast.Call) \
                and isinstance(sub.func, ast.Name) \
                and sub.func.id in _ALLOC_CALLS:
            allocations += 1
        elif isinstance(sub, ast.Attribute) and id(sub) not in inner_values:
            depth = 0
            probe: ast.AST = sub
            while isinstance(probe, ast.Attribute):
                depth += 1
                probe = probe.value
            if depth >= 2 and isinstance(probe, ast.Name) \
                    and probe.id == "self":
                chains += 1
    return allocations, chains


def hot_loop_counts(source: str) -> dict:
    """``name -> (allocations, deep_chains)`` for per-cycle methods."""
    methods = _core_methods(ast.parse(source))
    return {name: _count_method(methods[name])
            for name in hot_methods(source)}


def hot_loop_errors(source: str, budgets: dict = None,
                    path: str = CORE_PATH) -> list[str]:
    """Per-cycle methods over (or silently under) their §4d budgets."""
    budgets = HOT_LOOP_BUDGETS if budgets is None else budgets
    errors = []
    counts = hot_loop_counts(source)
    for name, (allocations, chains) in sorted(counts.items()):
        budget_allocs, budget_chains = budgets.get(name, (0, 0))
        for label, have, allowed in (
                ("allocations", allocations, budget_allocs),
                ("deep attribute chains", chains, budget_chains)):
            if have > allowed:
                errors.append(
                    "%s: per-cycle method %s has %d %s (budget %d): "
                    "hoist or move the work off the hot path "
                    "(DESIGN 4d), or — only with a reviewed perf "
                    "justification — raise HOT_LOOP_BUDGETS"
                    % (path, name, have, label, allowed))
            elif have < allowed:
                errors.append(
                    "%s: per-cycle method %s now has %d %s but the "
                    "budget allows %d: ratchet HOT_LOOP_BUDGETS down "
                    "to lock in the improvement"
                    % (path, name, have, label, allowed))
    for name in sorted(set(budgets) - set(counts)):
        errors.append(
            "HOT_LOOP_BUDGETS entry %r is not a per-cycle method of "
            "PipelineCore any more; delete or rename the row" % name)
    return errors


# -- rule 4: unreferenced definitions ----------------------------------------

DEFINITIONS_DIR = "src/repro"

#: Directories whose text can keep a definition alive.
REFERENCE_DIRS = ("src", "tests", "tools", "examples", "reprobench")

_WORD = re.compile(r"\w+")


def definitions(source: str) -> list[tuple[str, int]]:
    """``(name, line)`` of every ``def``/``class``, dunders excepted."""
    return [(node.name, node.lineno) for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not (node.name.startswith("__")
                     and node.name.endswith("__"))]


def unreferenced_errors(sources: Mapping[str, str],
                        texts: Iterable[str] = ()) -> list[str]:
    """Definitions in ``sources`` (path -> text) whose name occurs as a
    whole word in ``sources`` and ``texts`` only at its definitions."""
    words: Counter = Counter()
    for text in list(sources.values()) + list(texts):
        words.update(_WORD.findall(text))
    found = [(path, name, line) for path, source in sources.items()
             for name, line in definitions(source)]
    defined = Counter(name for _path, name, _line in found)
    return ["%s:%d: %r is never referenced outside its definition; "
            "delete it" % (path, line, name)
            for path, name, line in found if words[name] <= defined[name]]


def _text_files(root: Path) -> Iterable[Path]:
    for top in REFERENCE_DIRS:
        for path in sorted((root / top).rglob("*")):
            parts = path.relative_to(root).parts
            if path.is_file() and not any(
                    part.startswith(".") or part == "__pycache__"
                    or part.endswith(".egg-info") for part in parts):
                yield path


def unreferenced_definitions(root: Path) -> list[str]:
    """Rule 4 over the repository at ``root``."""
    sources, texts = {}, []
    for path in _text_files(root):
        try:
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError:
            continue  # binary: names nothing
        rel = path.relative_to(root)
        if path.suffix == ".py" \
                and path.is_relative_to(root / DEFINITIONS_DIR):
            sources[str(rel)] = text
        else:
            texts.append(text)
    return unreferenced_errors(sources, texts)


# -- rule 5: hook guards -----------------------------------------------------

#: The optional per-cycle hooks of ``PipelineCore``: event observer,
#: sanitizer and commit log.
HOOKS = ("_ev", "_san", "_clog")


def _self_hook(node: ast.AST) -> str | None:
    if isinstance(node, ast.Attribute) and node.attr in HOOKS \
            and isinstance(node.value, ast.Name) and node.value.id == "self":
        return node.attr
    return None


def _hook_aliases(method: ast.FunctionDef) -> dict[str, str]:
    """``local name -> hook`` for ``ev = self._ev`` style bindings."""
    aliases = {}
    for node in ast.walk(method):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            hook = _self_hook(node.value)
            if hook is not None:
                aliases[node.targets[0].id] = hook
    return aliases


def _hook_of(node: ast.AST, aliases: Mapping[str, str]) -> str | None:
    """The hook ``node`` names: ``self._ev`` or a local alias of it."""
    if isinstance(node, ast.Name):
        return aliases.get(node.id)
    return _self_hook(node)


def _tested_hooks(test: ast.AST, aliases: Mapping[str, str]) -> set[str]:
    """Hooks an ``if`` test proves non-None (``h is not None``, alone or
    as one operand of an ``and``)."""
    operands = (test.values if isinstance(test, ast.BoolOp)
                and isinstance(test.op, ast.And) else [test])
    hooks = set()
    for operand in operands:
        if isinstance(operand, ast.Compare) and len(operand.ops) == 1 \
                and isinstance(operand.ops[0], ast.IsNot) \
                and isinstance(operand.comparators[0], ast.Constant) \
                and operand.comparators[0].value is None:
            hook = _hook_of(operand.left, aliases)
            if hook is not None:
                hooks.add(hook)
    return hooks


def _guarded_calls(method: ast.FunctionDef, aliases: Mapping[str, str]):
    """``(call, hooks)`` for every call in ``method``; ``hooks`` are the
    ones the enclosing ``if`` bodies prove non-None."""
    def visit(node, guards):
        if isinstance(node, ast.If):
            yield from visit(node.test, guards)
            inner = guards | _tested_hooks(node.test, aliases)
            for child in node.body:
                yield from visit(child, inner)
            for child in node.orelse:
                yield from visit(child, guards)
            return
        if isinstance(node, ast.Call):
            yield node, guards
        for child in ast.iter_child_nodes(node):
            yield from visit(child, guards)

    for statement in method.body:
        yield from visit(statement, frozenset())


def hook_guard_errors(source: str, path: str = CORE_PATH) -> list[str]:
    """Per-cycle hook calls not under an ``is not None`` test."""
    methods = _core_methods(ast.parse(source))
    calls = {}
    entry: dict[str, frozenset] = {}  # hooks proven at every call site
    for name, method in methods.items():
        aliases = _hook_aliases(method)
        method_calls = list(_guarded_calls(method, aliases))
        calls[name] = (method_calls, aliases)
        for call, guards in method_calls:
            func = call.func
            if isinstance(func, ast.Attribute) \
                    and isinstance(func.value, ast.Name) \
                    and func.value.id == "self" and func.attr in methods:
                entry[func.attr] = entry.get(func.attr, guards) & guards
    errors = []
    for name in hot_methods(source):
        method_calls, aliases = calls[name]
        for call, guards in method_calls:
            if not isinstance(call.func, ast.Attribute):
                continue
            hook = _hook_of(call.func.value, aliases)
            if hook is not None \
                    and hook not in guards | entry.get(name, frozenset()):
                errors.append(
                    "%s:%d: per-cycle method %s calls through self.%s "
                    "outside an `if ... is not None` test on it, and not "
                    "every self.%s() call site is under one: a run "
                    "without the hook must pay one test, not a call "
                    "(DESIGN 4b)" % (path, call.lineno, name, hook, name))
    return errors


# -- driver ------------------------------------------------------------------

def run(root: Path) -> list[str]:
    errors: list[str] = []
    config_src = (root / CONFIG_PATH).read_text(encoding="utf-8")
    samples_src = (root / SAMPLES_PATH).read_text(encoding="utf-8")
    errors.extend(classification_errors(
        config_fields(config_src), timing_sample_fields(samples_src)))
    for path in sorted((root / PIPELINE_DIR).rglob("*.py")):
        errors.extend(stats_mutation_errors(
            path.read_text(encoding="utf-8"),
            str(path.relative_to(root))))
    core_src = (root / CORE_PATH).read_text(encoding="utf-8")
    errors.extend(hot_loop_errors(core_src))
    errors.extend(hook_guard_errors(core_src))
    errors.extend(unreferenced_definitions(root))
    return errors


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="repository root (default: this file's repo)")
    args = parser.parse_args(argv)
    errors = run(args.root)
    for error in errors:
        print("lint_repro: %s" % error, file=sys.stderr)
    if not errors:
        print("lint_repro: ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
