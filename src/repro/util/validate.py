"""Small validation helpers used across the package.

These keep argument checking terse and the error messages uniform.  They are
deliberately plain functions (not decorators) so call sites stay explicit and
greppable — following the "make it work, make it legible" ordering of the
scientific-python optimization workflow.
"""

from __future__ import annotations

__all__ = ["check_positive", "check_nonnegative"]


def check_positive(value: float, name: str, exc: type[Exception] = ValueError) -> float:
    """Return ``value`` if strictly positive, otherwise raise."""
    if not value > 0:
        raise exc(f"{name} must be > 0, got {value!r}")
    return value


def check_nonnegative(value: float, name: str, exc: type[Exception] = ValueError) -> float:
    """Return ``value`` if >= 0, otherwise raise."""
    if value < 0:
        raise exc(f"{name} must be >= 0, got {value!r}")
    return value
