"""Plain-text rendering for experiment outputs.

Every table and figure the paper reports renders as a fixed-width ASCII
table, so runs can be compared against the paper's numbers at a glance.
"""

from __future__ import annotations

from typing import Sequence


def ascii_table(headers: Sequence[str], rows: Sequence[Sequence],
                title: str = "") -> str:
    """Render rows as a fixed-width table."""
    table = [[str(c) for c in headers]] + [[_cell(c) for c in row]
                                           for row in rows]
    widths = [max(len(row[i]) for row in table)
              for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    rule = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(table[0], widths)))
    lines.append(rule)
    for row in table[1:]:
        lines.append(" | ".join(c.rjust(w) if _numeric(c) else c.ljust(w)
                                for c, w in zip(row, widths)))
    return "\n".join(lines)


def _cell(value) -> str:
    if isinstance(value, float):
        return "%.2f" % value
    return str(value)


def _numeric(text: str) -> bool:
    try:
        float(text)
        return True
    except ValueError:
        return False
