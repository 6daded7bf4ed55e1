"""Every fenced ``python`` block in README.md and docs/*.md runs.

Each block executes in a fresh namespace (and a temporary working
directory).  A block that is only a fragment — it needs a running server,
or it is the inside of an application — carries the marker
``<!-- prose: illustrative — <why> -->`` on the line before its fence; it
must still compile, but is not run.
"""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[2]
FENCE = re.compile(r"```python\n(.*?)```", re.S)
ILLUSTRATIVE = "<!-- prose: illustrative"


def _blocks():
    for path in [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]:
        text = path.read_text()
        for match in FENCE.finditer(text):
            line = text.count("\n", 0, match.start()) + 1
            before = text[:match.start()].rstrip("\n").rsplit("\n", 1)[-1]
            illustrative = before.startswith(ILLUSTRATIVE)
            yield pytest.param(match.group(1), illustrative,
                               id=f"{path.name}:{line}"
                                  + (":illustrative" if illustrative else ""))


BLOCKS = list(_blocks())


def test_every_block_is_collected():
    assert len(BLOCKS) >= 12


@pytest.mark.parametrize("code,illustrative", BLOCKS)
def test_block_runs(code, illustrative, tmp_path, monkeypatch):
    compiled = compile(code, "<prose>", "exec")
    if illustrative:
        return  # a fragment: compiling it is all there is to check
    monkeypatch.chdir(tmp_path)
    exec(compiled, {"__name__": "__prose__"})
