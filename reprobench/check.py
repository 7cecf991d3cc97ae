"""Output checks: the program's results against the pinned reference.

``reference.json`` (written by ``pin.py``) holds, for every catalog
workload × mode at the default capture and every helios-long candidate
at its scaled length, the simulated cycles and a digest of the full
``CoreStats.to_dict()``; plus the rendered text of the census figures
and tables, and every workload's row of each simulation-backed figure.
A mismatch is one failed operation; it never aborts the run.
"""

from __future__ import annotations

import hashlib
import json

from plan import CENSUS_EXPERIMENTS, SIM_EXPERIMENTS


def stats_digest(stats: dict) -> str:
    """Stable digest of a ``CoreStats.to_dict()`` (CPI buckets included)."""
    blob = json.dumps(stats, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:20]


def cell_key(workload: str, mode: str, scale_to: int | None = None) -> str:
    name = workload if scale_to is None else "%s@%d" % (workload, scale_to)
    return "%s|%s" % (name, mode)


def check_cell(cell: dict, reference: dict,
               scale_to: int | None = None) -> str | None:
    """``None`` when the cell matches its pin, else why it does not."""
    key = cell_key(cell["workload"], cell["mode"], scale_to)
    pinned = reference["cells"].get(key)
    if pinned is None:
        return "%s: no pinned reference" % key
    if (cell["cycles"], cell["digest"]) != (pinned["cycles"],
                                            pinned["digest"]):
        return ("%s: cycles %d digest %s, pinned cycles %d digest %s"
                % (key, cell["cycles"], cell["digest"], pinned["cycles"],
                   pinned["digest"]))
    return None


def table_rows(text: str) -> dict[str, list[str]]:
    """Rows of an ASCII table keyed by their first cell, cells stripped
    (column widths depend on which rows a render holds)."""
    rows = {}
    for line in text.splitlines():
        if "|" not in line:
            continue
        cells = [cell.strip() for cell in line.split("|")]
        rows[cells[0]] = cells[1:]
    return rows


def check_experiment(name: str, text: str, subset: list[str],
                     reference: dict) -> str | None:
    """Census experiments must match their pinned text exactly;
    simulation-backed ones must hold the pinned row of every workload
    in ``subset``."""
    if name in CENSUS_EXPERIMENTS:
        if text != reference["census_text"][name]:
            return "%s: rendered text differs from the pinned text" % name
        return None
    if name not in SIM_EXPERIMENTS:
        return "%s: no pinned reference" % name
    rows = table_rows(text)
    for workload in subset:
        pinned = reference["sim_rows"][name].get(workload)
        if rows.get(workload) != pinned:
            return ("%s: row %s is %r, pinned %r"
                    % (name, workload, rows.get(workload), pinned))
    return None
