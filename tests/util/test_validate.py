"""Validation helper behaviour."""

import pytest

from repro.util.validate import check_nonnegative, check_positive


class TestCheckPositive:
    def test_returns_value(self):
        assert check_positive(2.5, "x") == 2.5

    @pytest.mark.parametrize("bad", [0, -1, -0.001])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError, match="x must be > 0"):
            check_positive(bad, "x")


class TestCheckNonnegative:
    def test_accepts_zero(self):
        assert check_nonnegative(0, "x") == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_nonnegative(-1e-9, "x")

