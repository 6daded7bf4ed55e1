"""Every script under ``examples/`` runs to completion.

The examples assert their own claims (``matrix_multiplication.py`` checks
that the MPI and HMPI runs multiply to the same checksum), so running
each one in-process as ``__main__`` is a smoke test of the public API as
a reader first meets it.
"""

import runpy
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parents[2] / "examples").glob("*.py"))


def test_examples_found():
    assert len(EXAMPLES) >= 9


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
