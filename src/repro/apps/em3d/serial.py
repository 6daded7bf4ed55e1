"""Serial EM3D kernels — the real computation behind the benchmark unit.

One *benchmark unit* of the EM3D application is the computation of the
nodal values of ``k`` nodes in a single sub-body (the paper's ``Serial_em3d``
benchmark for ``HMPI_Recon``).  The update of each node is a linear
function of three neighbouring values of the opposite field; boundary
contributions arrive as an extra pooled term.
"""

from __future__ import annotations

import numpy as np

from .problem import SubBody

__all__ = ["update_field", "em3d_step_local", "serial_em3d", "make_recon_benchmark"]


def update_field(
    values: np.ndarray,
    weights: np.ndarray,
    neighbours: np.ndarray,
    boundary_term: float = 0.0,
) -> np.ndarray:
    """New field values: each node mixes three neighbouring opposite-field
    values (cyclically shifted views — no copies) plus a boundary term.

    ``values``  — current values of this field (length n);
    ``weights`` — (n, 3) linear coefficients;
    ``neighbours`` — the opposite field's current values.
    """
    n = len(values)
    if n == 0:
        return values
    m = len(neighbours)
    if m == 0:
        return values * 0.98 + boundary_term
    # One cyclic window: t[i] == neighbours[i % m], so node i reads
    # t[i], t[i + 1] and t[i + 2] without any index arithmetic.
    t = np.resize(neighbours, n + 2)
    mixed = (weights[:, 0] * t[:n] + weights[:, 1] * t[1:n + 1]
             + weights[:, 2] * t[2:n + 2])
    # Damped relaxation keeps values bounded over many iterations.
    return 0.5 * values + 0.5 * np.tanh(mixed + boundary_term)


def em3d_step_local(
    body: SubBody,
    e_boundary: float = 0.0,
    h_boundary: float = 0.0,
) -> None:
    """One full step (E phase then H phase) on one sub-body, in place.

    ``e_boundary`` is the pooled contribution of remote H values to the E
    update (and vice versa); the parallel algorithm computes these from
    received boundary arrays.
    """
    body.e_values = update_field(body.e_values, body.e_weights, body.h_values, e_boundary)
    body.h_values = update_field(body.h_values, body.h_weights, body.e_values, h_boundary)


def serial_em3d(body: SubBody, niter: int) -> None:
    """Run ``niter`` isolated steps on one sub-body (no remote boundaries)."""
    for _ in range(niter):
        em3d_step_local(body)


def make_recon_benchmark(k: int, seed: int = 0):
    """The paper's ``Serial_em3d`` recon benchmark: compute ``k`` nodal
    values (= 1 benchmark unit) and charge 1 unit of modelled time.

    Returns a callable suitable for ``hmpi.recon(benchmark=...)``.
    """
    rng = np.random.default_rng(seed)
    n_e = k // 2
    n_h = k - n_e
    body = SubBody(
        index=-1,
        e_values=rng.standard_normal(n_e),
        h_values=rng.standard_normal(n_h),
        e_weights=rng.uniform(0.1, 0.3, size=(n_e, 3)),
        h_weights=rng.uniform(0.1, 0.3, size=(n_h, 3)),
    )

    def benchmark(env) -> None:
        em3d_step_local(body)
        env.compute(1.0)  # by definition: k nodes == one benchmark unit

    return benchmark
