"""Datatypes and payload sizing for the simulated MPI.

The substrate follows the mpi4py convention the HPC-Python guides teach:
one set of operations that handles NumPy arrays natively (near-C "buffer"
semantics: the array is copied at send time, its exact ``nbytes`` is
charged to the link) and generic Python objects via pickling (the pickled
length is charged).  The :class:`Datatype` constants exist so performance
models and applications can speak the paper's language
(``dep[I][L] * sizeof(double)``).
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..util.csizes import c_sizeof

__all__ = [
    "Datatype",
    "DOUBLE",
    "FLOAT",
    "INT",
    "LONG",
    "BYTE",
    "CHAR",
    "sizeof",
    "encode_payload",
    "decode_payload",
]


@dataclass(frozen=True)
class Datatype:
    """An elemental MPI datatype: a name and a size in bytes."""

    name: str
    size: int

    def __mul__(self, count: int) -> int:
        """``DOUBLE * n`` — total bytes of ``n`` elements."""
        return self.size * int(count)

    __rmul__ = __mul__


DOUBLE = Datatype("MPI_DOUBLE", 8)
FLOAT = Datatype("MPI_FLOAT", 4)
INT = Datatype("MPI_INT", 4)
LONG = Datatype("MPI_LONG", 8)
BYTE = Datatype("MPI_BYTE", 1)
CHAR = Datatype("MPI_CHAR", 1)


def sizeof(dtype: Datatype | str) -> int:
    """Byte size of a datatype, accepting ``"double"``-style C names too.

    This is the ``sizeof`` the PMDL exposes to performance models.
    """
    if isinstance(dtype, Datatype):
        return dtype.size
    return c_sizeof(dtype)


# ----------------------------------------------------------------------
# payload encoding — eager-protocol copy semantics
# ----------------------------------------------------------------------

class _ArrayPayload:
    """A sent NumPy array: copied eagerly, sized by its raw buffer."""

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray):
        # Copy at send time so the sender may reuse its buffer immediately
        # (standard-mode eager send semantics).
        self.array = np.array(array, copy=True)

    @property
    def nbytes(self) -> int:
        return int(self.array.nbytes)

    def decode(self) -> np.ndarray:
        return self.array


class _PicklePayload:
    """A sent generic object: pickled once for both sizing and isolation."""

    __slots__ = ("blob",)

    def __init__(self, obj: Any):
        self.blob = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)

    @property
    def nbytes(self) -> int:
        return len(self.blob)

    def decode(self) -> Any:
        return pickle.loads(self.blob)


def encode_payload(obj: Any, nbytes: int | None = None) -> tuple[Any, int]:
    """Snapshot ``obj`` for transmission; return ``(payload, nbytes)``.

    ``nbytes`` overrides the measured size — applications that send small
    Python stand-ins for conceptually larger buffers (e.g. a workload
    descriptor standing for a matrix block) use it to charge the link with
    the modelled message size.
    """
    if isinstance(obj, np.ndarray):
        payload: Any = _ArrayPayload(obj)
        measured = payload.nbytes
    else:
        payload = _PicklePayload(obj)
        measured = payload.nbytes
    return payload, (measured if nbytes is None else int(nbytes))


def decode_payload(payload: Any) -> Any:
    """Materialise a payload snapshot on the receiving side."""
    return payload.decode()
