"""Exporters for the observability layer.

Two machine formats and two human formats:

* :func:`chrome_trace` — the Chrome trace-event JSON format (the
  ``{"traceEvents": [...]}`` object form), loadable in Perfetto /
  ``chrome://tracing``.  Each µ-op becomes a stack of per-stage
  duration slices (one Perfetto track per pipeline stage), and
  irregular events (flush / fuse / unfuse / stall) become instants.
  One simulated cycle is rendered as one microsecond.
* :func:`validate_chrome_trace` — structural validation of that JSON
  (used by tests and the CI smoke job), so an export regression fails
  loudly instead of producing a file Perfetto silently rejects.
* :func:`write_chrome_trace` — writes that JSON to a file, the bytes
  ``json.dump`` writes, in a fraction of its time.
* :func:`occupancy_report` — ASCII per-structure occupancy table
  (mean / p50 / p95 / max) from a :class:`PipelineObserver`.
* :func:`cpi_report` — ASCII top-down CPI breakdown from the
  ``cpi_buckets`` slot accounting (see ``pipeline/core.py``).
"""

from __future__ import annotations

import json
from typing import IO, Dict, List, Mapping, Sequence, Tuple

from .events import EVENT_KINDS, STAGE_KINDS, Event, PipelineObserver

#: Microseconds per simulated cycle in the Chrome export.  1:1 keeps
#: timestamps integral and the Perfetto timeline readable.
US_PER_CYCLE = 1

_INSTANT_KINDS = tuple(k for k in EVENT_KINDS if k not in STAGE_KINDS)

# Perfetto draws one track per (pid, tid); give each stage its own tid
# in pipeline order, and park instants on a separate "events" track.
_STAGE_TID = {kind: index + 1 for index, kind in enumerate(STAGE_KINDS)}
_INSTANT_TID = len(STAGE_KINDS) + 1


def chrome_trace(events: Sequence[Event], *, workload: str = "",
                 mode: str = "", dropped: int = 0) -> Dict:
    """Render pipeline events as a Chrome trace-event JSON object.

    ``events`` is the ``(cycle, kind, seq, detail)`` stream from an
    :class:`EventRing`.  Stage milestones per µ-op are turned into
    back-to-back duration slices: the fetch slice of µ-op 7 spans from
    its fetch cycle to its decode cycle, and the final milestone gets a
    one-cycle slice.  µ-ops whose earlier milestones were evicted from
    the ring still render from their first retained milestone.
    """
    process_name = "repro %s" % workload if workload else "repro"
    if mode:
        process_name += " [%s]" % mode

    trace_events: List[Dict] = [{
        "name": "process_name", "ph": "M", "pid": 0, "tid": 0,
        "args": {"name": process_name},
    }]
    for kind in STAGE_KINDS:
        trace_events.append({
            "name": "thread_name", "ph": "M", "pid": 0,
            "tid": _STAGE_TID[kind], "args": {"name": kind},
        })
    trace_events.append({
        "name": "thread_name", "ph": "M", "pid": 0, "tid": _INSTANT_TID,
        "args": {"name": "events"},
    })

    milestones: Dict[int, List[Tuple[int, str, str]]] = {}
    for cycle, kind, seq, detail in events:
        if kind in _STAGE_TID:
            milestones.setdefault(seq, []).append((cycle, kind, detail))
        else:
            trace_events.append({
                "name": kind if not detail else "%s:%s" % (kind, detail),
                "ph": "i", "s": "t",
                "pid": 0, "tid": _INSTANT_TID,
                "ts": cycle * US_PER_CYCLE,
                "args": {"seq": seq, "detail": detail},
            })

    for seq in sorted(milestones):
        stages = sorted(milestones[seq])
        for index, (cycle, kind, detail) in enumerate(stages):
            if index + 1 < len(stages):
                dur = max(1, stages[index + 1][0] - cycle)
            else:
                dur = 1
            slice_event = {
                "name": "u%d" % seq,
                "ph": "X",
                "pid": 0, "tid": _STAGE_TID[kind],
                "ts": cycle * US_PER_CYCLE,
                "dur": dur * US_PER_CYCLE,
                "args": {"seq": seq, "stage": kind},
            }
            if detail:
                slice_event["args"]["detail"] = detail
            trace_events.append(slice_event)

    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ns",
        "otherData": {
            "workload": workload,
            "mode": mode,
            "events_rendered": len(events),
            "events_dropped": dropped,
        },
    }


#: Events encoded per ``json.dumps`` call by :func:`write_chrome_trace`.
_EVENTS_PER_CHUNK = 4096


def write_chrome_trace(payload: Mapping, handle: IO[str]) -> None:
    """Write ``payload`` to ``handle`` as ``json.dump(payload, handle)``
    would, byte for byte (for string keys, as :func:`chrome_trace`
    builds).

    ``json.dump`` streams through the pure-Python encoder; the C encoder
    runs only for a one-shot ``json.dumps``.  So the event list is
    encoded a chunk of events per ``json.dumps`` call, and the top-level
    keys and the other values one ``json.dumps`` each, joined with
    ``json.dump``'s default separators.  No string holds more than one
    chunk of events.
    """
    handle.write("{")
    separator = ""
    for key, value in payload.items():
        handle.write("%s%s: " % (separator, json.dumps(key)))
        separator = ", "
        if key != "traceEvents":
            handle.write(json.dumps(value))
            continue
        handle.write("[")
        for start in range(0, len(value), _EVENTS_PER_CHUNK):
            if start:
                handle.write(", ")
            # Drop the chunk's own brackets: the items stay joined by
            # the list separator.
            handle.write(json.dumps(
                value[start:start + _EVENTS_PER_CHUNK])[1:-1])
        handle.write("]")
    handle.write("}")


def validate_chrome_trace(payload: Mapping) -> None:
    """Raise ``ValueError`` unless ``payload`` is a well-formed export.

    Checks the object form, the per-phase required fields, and that
    numeric fields are non-negative integers — the properties Perfetto
    relies on.  Intentionally strict: this guards our own exporter.
    """
    if not isinstance(payload, Mapping):
        raise ValueError("trace must be a JSON object, got %s"
                         % type(payload).__name__)
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("trace must carry a 'traceEvents' list")
    for index, event in enumerate(events):
        where = "traceEvents[%d]" % index
        if not isinstance(event, Mapping):
            raise ValueError("%s is not an object" % where)
        ph = event.get("ph")
        if ph not in ("X", "i", "M"):
            raise ValueError("%s has unsupported ph %r" % (where, ph))
        if not isinstance(event.get("name"), str) or not event["name"]:
            raise ValueError("%s is missing a name" % where)
        for field in ("pid", "tid"):
            if not isinstance(event.get(field), int):
                raise ValueError("%s is missing integer %r" % (where, field))
        if ph == "M":
            continue
        ts = event.get("ts")
        if not isinstance(ts, int) or ts < 0:
            raise ValueError("%s needs a non-negative integer ts" % where)
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, int) or dur <= 0:
                raise ValueError("%s needs a positive integer dur" % where)
        if ph == "i" and event.get("s") not in ("t", "p", "g"):
            raise ValueError("%s instant needs scope s in t/p/g" % where)


def occupancy_report(observer: PipelineObserver) -> str:
    """ASCII per-structure occupancy table from one run's samples."""
    rows = []
    for structure, hist in observer.occupancy_histograms():
        rows.append((structure, "%.2f" % hist.mean,
                     "%d" % hist.percentile(0.50),
                     "%d" % hist.percentile(0.95),
                     "%d" % hist.max))
    if not rows:
        return "occupancy: no samples recorded"
    headers = ("structure", "mean", "p50", "p95", "max")
    widths = [max(len(headers[i]), max(len(r[i]) for r in rows))
              for i in range(len(headers))]
    def fmt(cells: Sequence[str]) -> str:
        return "  ".join(c.ljust(widths[i]) if i == 0 else c.rjust(widths[i])
                         for i, c in enumerate(cells))
    lines = [fmt(headers), fmt(tuple("-" * w for w in widths))]
    lines.extend(fmt(r) for r in rows)
    return "\n".join(lines)


def cpi_report(buckets: Mapping[str, int], cycles: int, commit_width: int,
               uops_committed: int) -> str:
    """ASCII top-down CPI breakdown.

    ``buckets`` maps bucket name -> commit-slot count, in canonical
    order; every cycle contributes ``commit_width`` slots, so shares
    are reported against ``cycles * commit_width`` and as CPI
    contributions against committed µ-ops.
    """
    total_slots = cycles * commit_width
    lines = ["top-down CPI accounting (%d cycles x %d slots = %d)"
             % (cycles, commit_width, total_slots)]
    if not total_slots:
        lines.append("  (no cycles simulated)")
        return "\n".join(lines)
    name_width = max(len(name) for name in buckets) if buckets else 4
    for name, slots in buckets.items():
        share = 100.0 * slots / total_slots
        cpi = slots / commit_width / uops_committed if uops_committed else 0.0
        bar = "#" * int(round(share / 2))
        lines.append("  %s  %7d slots  %5.1f%%  cpi %.3f  %s"
                     % (name.ljust(name_width), slots, share, cpi, bar))
    accounted = sum(buckets.values())
    lines.append("  %s  %7d slots  %5.1f%%  (accounted / total %d)"
                 % ("total".ljust(name_width), accounted,
                    100.0 * accounted / total_slots, total_slots))
    return "\n".join(lines)
