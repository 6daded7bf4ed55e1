"""Table rendering used by the benchmark harnesses."""

import pytest

from repro.util.tables import Table, format_table


class TestFormatTable:
    def test_alignment_and_header(self):
        out = format_table(["n", "time"], [[10, 1.5], [100, 12.25]])
        lines = out.splitlines()
        assert lines[0].startswith("n")
        assert "-+-" in lines[1]
        assert len(lines) == 4

    def test_title_prepended(self):
        out = format_table(["a"], [[1]], title="Fig 9")
        assert out.splitlines()[0] == "Fig 9"

    def test_float_precision(self):
        out = format_table(["x"], [[1.23456789]], precision=2)
        assert "1.23" in out
        assert "1.2345" not in out

    def test_cell_count_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])


class TestTable:
    def test_add_and_render(self):
        t = Table("n", "t", title="demo", precision=1)
        t.add(1, 2.0)
        t.add(2, 4.0)
        out = t.render()
        assert "demo" in out
        assert "4.0" in out

    def test_column_extraction(self):
        t = Table("n", "t")
        t.add(1, 10.0)
        t.add(2, 20.0)
        assert t.column("t") == [10.0, 20.0]
        assert t.column("n") == [1, 2]

    def test_wrong_cell_count(self):
        t = Table("a", "b")
        with pytest.raises(ValueError):
            t.add(1)

    def test_unknown_column(self):
        t = Table("a")
        with pytest.raises(ValueError):
            t.column("zzz")
