"""In-memory spans recorded around calls into the program's layers.

A :class:`Recorder` wraps callables of the ``repro`` package so that each
call records one :class:`Span` (name, start, end, parent, operation id)
plus free-form counts (µ-ops, bytes, hits, ...).  Spans stay in memory;
the caller serialises them when the run ends.

Wrapping follows the rule "wrap a callable where its caller looks it
up": a module-level function is replaced in every loaded ``repro``
module that binds it (``from x import f`` makes a second binding that
patching only the defining module would miss), including values of
module-level dicts such as the CLI's experiment table.  A method is
replaced on its class, where every caller looks it up.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    """One timed call into a layer."""

    span_id: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    op_id: int = 0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> Span:
        return cls(**data)


class Recorder:
    """Records nested spans; one instance per traced process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._next_op = 0
        self.absent: list[str] = []

    def begin(self, name: str, new_op: bool = False) -> Span:
        parent = self._stack[-1] if self._stack else None
        if new_op or parent is None:
            self._next_op += 1
            op_id = self._next_op
        else:
            op_id = parent.op_id
        span = Span(span_id=len(self.spans), name=name, start=self.clock(),
                    parent=parent.span_id if parent else None, op_id=op_id)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = self.clock()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError("span %r closed out of order" % span.name)

    def traced(self, name: str, fn, after=None, new_op: bool = False):
        """``fn`` wrapped so each call records a span.

        ``after(span, result, args, kwargs)`` runs inside the span's
        interval once ``fn`` returned and may fill ``span.counts``.
        """
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = recorder.begin(name, new_op=new_op)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(span, result, args, kwargs)
                return result
            finally:
                recorder.end(span)

        return wrapper

    # ------------------------------------------------------------ wrapping --

    def wrap_function(self, module: str, attr: str, name: str,
                      after=None, new_op: bool = False) -> int:
        """Replace every binding of ``module.attr`` in loaded ``repro``
        modules; returns how many bindings were replaced (0 = absent)."""
        original = _resolve(module, attr)
        if original is None:
            self.absent.append("%s.%s" % (module, attr))
            return 0
        wrapper = self.traced(name, original, after, new_op)
        return replace_everywhere(original, wrapper)

    def wrap_method(self, module: str, cls: str, attr: str, name: str,
                    after=None, new_op: bool = False) -> int:
        """Replace ``module.cls.attr`` on the class; 0 when absent."""
        owner = _resolve(module, cls)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            self.absent.append("%s.%s.%s" % (module, cls, attr))
            return 0
        setattr(owner, attr, self.traced(name, original, after, new_op))
        return 1


def _resolve(module: str, attr: str):
    try:
        return getattr(importlib.import_module(module), attr, None)
    except ImportError:
        return None


def replace_everywhere(original, replacement, prefix: str = "repro") -> int:
    """Rebind ``original`` to ``replacement`` in every loaded module under
    ``prefix``: module globals and the values of module-level dicts."""
    replaced = 0
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == prefix
                                  or mod_name.startswith(prefix + ".")):
            continue
        namespace = vars(module)
        for key, value in list(namespace.items()):
            if value is original:
                namespace[key] = replacement
                replaced += 1
            elif isinstance(value, dict):
                for dkey, dvalue in list(value.items()):
                    if dvalue is original:
                        value[dkey] = replacement
                        replaced += 1
    return replaced


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span: its duration minus the part of its
    interval covered by its direct children (overlaps counted once)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(
                (span.start, span.end))
    result = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(span.span_id, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result[span.span_id] = span.duration - covered
    return result
