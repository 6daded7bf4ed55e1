"""Check EXPERIMENTS.md's tables against recomputed values.

A table is addressed by a fragment of the heading of its section and,
where a section holds several tables, by its position.  Each recomputed
number is rendered at the precision the table prints it with, inside the
printed cell's own decoration (bold, units, sign, ``×``, ``%``), so a
table row equals its recomputation exactly or the test fails.  Strings
are compared as they are.
"""

from __future__ import annotations

import pathlib
import re

EXPERIMENTS = pathlib.Path(__file__).parent.parent / "EXPERIMENTS.md"

_NUMBER = re.compile(r"[-+]?\d+(?:\.(\d+))?")


def printed_table(heading: str, index: int = 0) -> list[list[str]]:
    """Body rows of the ``index``-th table under the heading containing
    ``heading`` (up to the next heading of any level)."""
    lines = EXPERIMENTS.read_text().splitlines()
    start = next(i for i, line in enumerate(lines)
                 if line.startswith("#") and heading in line)
    tables: list[list[list[str]]] = []
    previous = ""
    for line in lines[start + 1:]:
        if line.startswith("#"):
            break
        if line.startswith("|"):
            if not previous.startswith("|"):
                tables.append([])
            tables[-1].append([c.strip() for c in line.strip("|").split("|")])
        previous = line
    return tables[index][2:]   # drop the header and the |---| rule


def render(value, printed: str) -> str:
    """``value`` written the way ``printed`` writes its number."""
    if isinstance(value, str):
        return value
    match = _NUMBER.search(printed)
    if match is None:
        return repr(value)
    decimals = len(match.group(1) or "")
    sign = "+" if match.group(0)[0] in "+-" else ""
    return (printed[:match.start()] + f"{value:{sign}.{decimals}f}"
            + printed[match.end():])


def assert_table(heading: str, rows, index: int = 0) -> None:
    """The printed table equals ``rows`` at its printed precision."""
    printed = printed_table(heading, index)
    assert len(rows) == len(printed), (heading, len(rows), len(printed))
    rendered = [[render(v, p) for v, p in zip(row, prow)]
                for row, prow in zip(rows, printed)]
    assert rendered == printed, f"EXPERIMENTS.md table under {heading!r}"
