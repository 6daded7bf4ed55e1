"""Plain-text table rendering for the command line.

Renders rows as aligned monospace tables: the ``repro`` commands' reports
(``campaign list``, ``stats``) and the prediction-accuracy table.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import Any

__all__ = ["format_table", "format_series", "Table"]


def _cell(value: Any, precision: int) -> str:
    if isinstance(value, float):
        return f"{value:.{precision}f}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[Any]],
    title: str | None = None,
    precision: int = 4,
) -> str:
    """Render ``rows`` under ``headers`` as an aligned monospace table."""
    str_rows = [[_cell(v, precision) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(f"row has {len(row)} cells, expected {len(headers)}")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "-+-".join("-" * w for w in widths)
    lines = []
    if title:
        lines.append(title)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in str_rows:
        lines.append(" | ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_series(name: str, xs: Sequence[Any], ys: Sequence[Any], precision: int = 4) -> str:
    """Render an (x, y) series, one point per line, labelled ``name``."""
    lines = [f"series: {name}"]
    for x, y in zip(xs, ys):
        lines.append(f"  {_cell(x, precision)} -> {_cell(y, precision)}")
    return "\n".join(lines)


class Table:
    """Incrementally built table — convenient inside benchmark sweeps.

    >>> t = Table("n", "t_mpi", "t_hmpi", title="Fig 11(a)")
    >>> t.add(1000, 12.5, 4.2)
    >>> print(t.render())  # doctest: +SKIP
    """

    def __init__(self, *headers: str, title: str | None = None, precision: int = 4):
        self.headers = list(headers)
        self.title = title
        self.precision = precision
        self.rows: list[list[Any]] = []

    def add(self, *cells: Any) -> None:
        """Append one row; cell count must match the header count."""
        if len(cells) != len(self.headers):
            raise ValueError(f"expected {len(self.headers)} cells, got {len(cells)}")
        self.rows.append(list(cells))

    def column(self, name: str) -> list[Any]:
        """Return the values of the named column, in insertion order."""
        idx = self.headers.index(name)
        return [row[idx] for row in self.rows]

    def render(self) -> str:
        """Render the accumulated rows with :func:`format_table`."""
        return format_table(self.headers, self.rows, title=self.title, precision=self.precision)
