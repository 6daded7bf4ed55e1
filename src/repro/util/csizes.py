"""Byte sizes of the C scalar types, as the PMDL's ``sizeof`` sees them."""

from __future__ import annotations

__all__ = ["c_sizeof"]

_SIZES = {
    "double": 8,
    "float": 4,
    "int": 4,
    "long": 8,
    "char": 1,
    "byte": 1,
    "short": 2,
}


def c_sizeof(name: str) -> int:
    """Byte size of a C type name (``"double"``, case-insensitive)."""
    try:
        return _SIZES[name.lower()]
    except KeyError:
        raise KeyError(f"unknown C type name {name!r}") from None
