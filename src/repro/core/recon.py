"""Benchmark functions for ``HMPI_Recon``.

``HMPI_Recon`` executes a user benchmark on every process and refreshes the
speed estimates from the measured times.  The paper stresses that the
benchmark must be "truly representative of the underlying application" —
the EM3D program uses serial nodal-value computation for one sub-body, the
matrix program a serial r×r matrix multiplication.  The factories here
build such benchmarks: each charges exactly one benchmark unit of modelled
time (by definition of the unit) and optionally executes a small real
NumPy kernel so profiling the simulation shows a realistic call profile.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

import numpy as np

from ..mpi.launcher import MPIEnv

__all__ = ["kernel_benchmark", "matmul_kernel"]


def kernel_benchmark(
    kernel: Callable[[], Any], volume: float = 1.0
) -> Callable[[MPIEnv], None]:
    """Wrap a real Python kernel: runs it, charges ``volume`` units.

    The kernel's wall-clock cost is irrelevant to virtual time (the model
    charge is explicit); it exists so the benchmark body matches the
    application's actual core computation, as the paper requires.
    """

    def bench(env: MPIEnv) -> None:
        kernel()
        env.compute(volume)

    return bench


def matmul_kernel(r: int = 8, seed: int = 0) -> Callable[[], np.ndarray]:
    """The ``rMxM`` benchmark core: multiply two r×r matrices."""
    rng = np.random.default_rng(seed)
    a = rng.random((r, r))
    b = rng.random((r, r))

    def kernel() -> np.ndarray:
        return a @ b

    return kernel

