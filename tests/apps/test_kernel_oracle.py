"""Bitwise oracles for the matmul and EM3D kernels.

The kernels batch their numerics (one stacked block update per pivot
step) and compute their message routing once per run.  Neither may change
a single bit of the simulation: the same blocks, the same checksums, the
same messages with the same byte counts at the same virtual times.  The
reference implementations below are the straightforward per-block and
per-iteration loops the kernels replaced, kept verbatim as oracles.
"""

import numpy as np
import pytest

from repro.apps.em3d import generate_problem, run_em3d_hmpi, run_em3d_mpi
from repro.apps.em3d import parallel as em3d_parallel
from repro.apps.em3d.parallel import _copy_body, em3d_algorithm
from repro.apps.em3d.serial import update_field
from repro.apps.matmul import drivers as matmul_drivers
from repro.apps.matmul import run_matmul_hmpi, run_matmul_mpi
from repro.apps.matmul.algorithm import matmul_algorithm, matrix_block
from repro.apps.matmul.distribution import (
    BlockDistribution,
    heterogeneous_distribution,
    homogeneous_distribution,
)
from repro.cluster import homogeneous_network, paper_network, uniform_network
from repro.mpi import Tracer, run_mpi


# ----------------------------------------------------------------------
# reference implementations (the per-block / per-iteration loops)
# ----------------------------------------------------------------------

def reference_matmul_algorithm(compute, comm, dist, r, seed=0):
    """Reference: one ``c_ij += a_ik @ b_kj`` per owned block per step,
    with the routing recomputed at every step."""
    m = dist.m
    me = comm.rank
    I, J = divmod(me, m)
    n, l = dist.n, dist.l
    h4 = dist.h4()

    my_blocks = dist.blocks_of(me)
    my_rows = sorted({bi for bi, _ in my_blocks})
    my_cols = sorted({bj for _, bj in my_blocks})
    A = {(bi, bj): matrix_block(seed, 0, bi, bj, r) for bi, bj in my_blocks}
    B = {(bi, bj): matrix_block(seed, 1, bi, bj, r) for bi, bj in my_blocks}
    C = {(bi, bj): np.zeros((r, r)) for bi, bj in my_blocks}

    row_of = dist._row_of()
    col_of = dist._column_of()

    for k in range(n):
        gk = k % l
        tag_b = 2 * k
        tag_a = 2 * k + 1

        b_root = int(row_of[gk, J])
        b_pool = {}
        if b_root == I:
            payload = np.stack([B[(k, j)] for j in my_cols]) if my_cols else np.empty((0, r, r))
            for K in range(m):
                if K != I:
                    comm.send(payload, K * m + J, tag=tag_b)
            for idx, j in enumerate(my_cols):
                b_pool[j] = payload[idx]
        else:
            received = comm.recv(b_root * m + J, tag=tag_b)
            for idx, j in enumerate(my_cols):
                b_pool[j] = received[idx]

        Jk = int(col_of[gk])
        a_pool = {}
        if J == Jk:
            for i in my_rows:
                a_pool[i] = A[(i, k)]
            for L in range(m):
                if L == Jk:
                    continue
                for K in range(m):
                    if h4[I, Jk, K, L] <= 0:
                        continue
                    rows_needed = [
                        i for i in my_rows if int(row_of[i % l, L]) == K
                    ]
                    payload = (
                        np.stack([A[(i, k)] for i in rows_needed])
                        if rows_needed else np.empty((0, r, r))
                    )
                    comm.send((rows_needed, payload), K * m + L, tag=tag_a)
        else:
            for K in range(m):
                if h4[K, Jk, I, J] <= 0:
                    continue
                rows_in, payload = comm.recv(K * m + Jk, tag=tag_a)
                for idx, i in enumerate(rows_in):
                    a_pool[i] = payload[idx]

        for (bi, bj) in my_blocks:
            C[(bi, bj)] += a_pool[bi] @ b_pool[bj]
        compute(float(len(my_blocks)))

    return C


def reference_em3d_algorithm(compute, comm, problem, niter, k):
    """Reference: peer lists rebuilt from ``dep_e``/``dep_h`` on every
    iteration."""
    me = comm.rank
    p = problem.p
    body = _copy_body(problem.bodies[me])
    dep_e = problem.dep_e
    dep_h = problem.dep_h

    for it in range(niter):
        for i in range(p):
            if i != me and dep_e[i, me] > 0:
                comm.send(body.h_values[: dep_e[i, me]].copy(), i, tag=2 * it)
        h_remote = []
        for j in range(p):
            if j != me and dep_e[me, j] > 0:
                h_remote.append(comm.recv(j, tag=2 * it))
        e_boundary = float(np.concatenate(h_remote).mean()) if h_remote else 0.0
        body.e_values = update_field(
            body.e_values, body.e_weights, body.h_values, e_boundary
        )
        compute(body.n_e / k)

        for i in range(p):
            if i != me and dep_h[i, me] > 0:
                comm.send(body.e_values[: dep_h[i, me]].copy(), i, tag=2 * it + 1)
        e_remote = []
        for j in range(p):
            if j != me and dep_h[me, j] > 0:
                e_remote.append(comm.recv(j, tag=2 * it + 1))
        h_boundary = float(np.concatenate(e_remote).mean()) if e_remote else 0.0
        body.h_values = update_field(
            body.h_values, body.h_weights, body.e_values, h_boundary
        )
        compute(body.n_h / k)

    return float(body.e_values.sum() + body.h_values.sum())


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------

def traced(kernel, cluster, *args):
    """Run ``kernel(env.compute, env.comm_world, *args)``; return the
    per-rank results and the full trace in recording order."""
    tracer = Tracer()

    def app(env):
        return kernel(env.compute, env.comm_world, *args)

    res = run_mpi(app, cluster, tracer=tracer, timeout=60)
    return res.results, tracer.events


def messages(events):
    return [(e.rank, e.kind, e.peer, e.nbytes, e.tag, e.t0, e.t1)
            for e in events if e.kind in ("send", "recv")]


# A 2x2 grid where processor (1, 0) owns no rows at all: its column is
# entirely processor (0, 0)'s.
ZERO_ROWS = BlockDistribution(n=6, l=6, w=(4, 2), heights_matrix=((6, 3), (0, 3)))

MATMUL_CASES = {
    "homogeneous_2x2": (homogeneous_distribution(6, 2), 3, 7),
    "homogeneous_3x3": (homogeneous_distribution(6, 3), 2, 7),
    "hetero_2x2_l4": (heterogeneous_distribution(
        8, 4, np.array([[4.0, 1.0], [2.0, 3.0]])), 3, 5),
    "hetero_2x2_l8": (heterogeneous_distribution(
        8, 8, np.array([[4.0, 1.0], [2.0, 3.0]])), 3, 5),
    "hetero_3x3": (heterogeneous_distribution(
        6, 6, np.random.default_rng(0).uniform(1, 10, (3, 3))), 2, 11),
    "extreme_skew": (heterogeneous_distribution(
        6, 6, np.array([[100.0, 1.0], [1.0, 1.0]])), 2, 3),
    "zero_rows": (ZERO_ROWS, 2, 3),
}


# ----------------------------------------------------------------------
# matmul
# ----------------------------------------------------------------------

class TestMatmulOracle:
    def test_zero_rows_case_really_has_an_empty_rank(self):
        assert ZERO_ROWS.blocks_of(2) == []
        assert all(ZERO_ROWS.blocks_of(g) for g in (0, 1, 3))

    @pytest.mark.parametrize("case", sorted(MATMUL_CASES))
    def test_blocks_and_messages_bitwise_equal(self, case):
        dist, r, seed = MATMUL_CASES[case]
        cluster = homogeneous_network(dist.m * dist.m)
        got, got_trace = traced(matmul_algorithm, cluster, dist, r, seed)
        want, want_trace = traced(reference_matmul_algorithm, cluster,
                                  dist, r, seed)
        for g, (mine, ref) in enumerate(zip(got, want)):
            assert list(mine) == dist.blocks_of(g) == list(ref)
            for key, blk in mine.items():
                assert blk.shape == (r, r)
                assert np.array_equal(blk, ref[key])
        assert messages(got_trace) == messages(want_trace)
        assert got_trace == want_trace

    def test_heterogeneous_cluster_timing_bitwise_equal(self):
        dist, r, seed = MATMUL_CASES["hetero_3x3"]
        got, got_trace = traced(matmul_algorithm, paper_network(),
                                dist, r, seed)
        want, want_trace = traced(reference_matmul_algorithm, paper_network(),
                                  dist, r, seed)
        assert got_trace == want_trace
        for mine, ref in zip(got, want):
            assert all(np.array_equal(mine[key], ref[key]) for key in ref)


def _matmul_summary(res):
    return (res.checksum.hex(), res.algorithm_time.hex(),
            None if res.predicted_time is None else res.predicted_time.hex(),
            res.group_world_ranks, res.block_size_l)


class TestMatmulDriversOracle:
    """The drivers' checksum sums the returned blocks in order, so the
    batched kernel must reproduce the drivers' outputs bit for bit."""

    @pytest.mark.parametrize("n", [9, 18, 24, 36])
    def test_run_matmul_bitwise_equal(self, n, monkeypatch):
        l = 9 if n % 9 == 0 else 8

        def both():
            return (run_matmul_mpi(paper_network(), n=n, r=4, m=3, seed=1),
                    run_matmul_hmpi(paper_network(), n=n, r=4, m=3, l=l,
                                    seed=1))

        got = [_matmul_summary(x) for x in both()]
        monkeypatch.setattr(matmul_drivers, "matmul_algorithm",
                            reference_matmul_algorithm)
        want = [_matmul_summary(x) for x in both()]
        assert got == want


# ----------------------------------------------------------------------
# EM3D
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def em3d_problem():
    return generate_problem(p=6, total_nodes=3_000, seed=2)


class TestEM3DOracle:
    @pytest.mark.parametrize("cluster_factory", [
        lambda: homogeneous_network(6),
        lambda: uniform_network([120.0, 45.0, 80.0, 200.0, 60.0, 95.0]),
    ], ids=["homogeneous", "heterogeneous"])
    def test_checksums_and_messages_bitwise_equal(self, em3d_problem,
                                                  cluster_factory):
        args = (em3d_problem, 3, 100)
        got, got_trace = traced(em3d_algorithm, cluster_factory(), *args)
        want, want_trace = traced(reference_em3d_algorithm, cluster_factory(),
                                  *args)
        assert [x.hex() for x in got] == [x.hex() for x in want]
        assert messages(got_trace) == messages(want_trace)
        assert got_trace == want_trace

    def test_drivers_bitwise_equal(self, em3d_problem, monkeypatch):
        def both():
            return [(r.checksum.hex(), r.algorithm_time.hex(),
                     r.group_world_ranks)
                    for r in (run_em3d_mpi(paper_network(), em3d_problem,
                                           niter=2, k=100),
                              run_em3d_hmpi(paper_network(), em3d_problem,
                                            niter=2, k=100))]

        got = both()
        monkeypatch.setattr(em3d_parallel, "em3d_algorithm",
                            reference_em3d_algorithm)
        assert both() == got
