"""The parallel matrix-multiplication algorithm over a block distribution.

One step ``k`` of the modified ScaLAPACK algorithm (paper Section 4,
Figure 6):

1. each r×r block of the pivot row ``b_k•`` of B is sent *vertically* from
   its owner to the other ``m-1`` processors of its grid column;
2. each r×r block of the pivot column ``a_•k`` of A is sent *horizontally*
   to the processors of other columns that own the corresponding block
   rows (who they are is exactly the ``h[I][J][K][L]`` overlap tensor);
3. every processor updates each of its C blocks:
   ``c_ij += a_ik @ b_kj`` — one block update being the unit of
   computation.

Messages are batched per (sender, receiver) pair and step, matching how a
real implementation would aggregate, and the byte volumes equal the
performance model's ``link`` declaration by construction.

A processor's blocks are exactly ``my_rows × my_cols``, so its A, B and C
are each held as one ``(rows, cols, r, r)`` array and step 3 is a single
batched ``C += a_k[:, None] @ b_k[None, :]`` over the pivot stacks —
bitwise the same sums as one ``@`` per block.  Who sends which pivot rows
to whom does not depend on the step, so that routing is computed once
per run.

The same function runs both the homogeneous MPI baseline and the
heterogeneous HMPI version — only the :class:`BlockDistribution` differs.
"""

from __future__ import annotations

import numpy as np

from ...mpi.communicator import Comm
from ...util.errors import ReproError
from .distribution import BlockDistribution

__all__ = ["matrix_block", "assemble_matrix", "matmul_algorithm", "reference_product"]


def matrix_block(seed: int, which: int, i: int, j: int, r: int) -> np.ndarray:
    """Deterministic r×r block (i, j) of matrix ``which`` (0 = A, 1 = B).

    Every rank can generate its owned blocks locally without communication,
    and the verification code can rebuild the full matrices identically.
    """
    mix = (seed * 1_000_003 + which * 7_777_777 + i * 131_071 + j * 8_191) % (2**63)
    rng = np.random.default_rng(mix)
    return rng.standard_normal((r, r))


def assemble_matrix(seed: int, which: int, n: int, r: int) -> np.ndarray:
    """The full ``(n*r) x (n*r)`` matrix from its deterministic blocks."""
    out = np.empty((n * r, n * r))
    for i in range(n):
        for j in range(n):
            out[i * r:(i + 1) * r, j * r:(j + 1) * r] = matrix_block(seed, which, i, j, r)
    return out


def reference_product(seed: int, n: int, r: int) -> np.ndarray:
    """NumPy ground truth ``A @ B`` for correctness checks."""
    return assemble_matrix(seed, 0, n, r) @ assemble_matrix(seed, 1, n, r)


def matmul_algorithm(
    compute,
    comm: Comm,
    dist: BlockDistribution,
    r: int,
    seed: int = 0,
) -> dict[tuple[int, int], np.ndarray]:
    """Run C = A×B on one grid member; returns this rank's C blocks.

    ``comm`` must have exactly ``m*m`` ranks, rank order row-major over the
    grid.  ``compute`` charges modelled computation (one unit per block
    update).  The returned blocks are views into one C array, keyed in
    :meth:`BlockDistribution.blocks_of` order.
    """
    m = dist.m
    if comm.size != m * m:
        raise ReproError(f"communicator size {comm.size} != grid size {m * m}")
    me = comm.rank
    I, J = divmod(me, m)
    n, l = dist.n, dist.l
    h4 = dist.h4()
    row_of = dist._row_of().tolist()   # [gi][J]: row slice of in-gblock row gi
    col_of = dist._column_of().tolist()

    # My blocks are my_rows × my_cols, row-major.
    my_rows, my_cols = dist.rows_and_cols(me)
    row_pos = {i: x for x, i in enumerate(my_rows)}
    col_pos = {j: y for y, j in enumerate(my_cols)}
    shape = (len(my_rows), len(my_cols), r, r)
    A = np.empty(shape)
    B = np.empty(shape)
    for x, bi in enumerate(my_rows):
        for y, bj in enumerate(my_cols):
            A[x, y] = matrix_block(seed, 0, bi, bj, r)
            B[x, y] = matrix_block(seed, 1, bi, bj, r)
    C = np.zeros(shape)

    # ---- step-invariant routing -----------------------------------------
    b_root = [row_of[g][J] for g in range(l)]   # B owner's grid row, per gk
    column_peers = [K * m + J for K in range(m) if K != I]
    # As owner of the A pivot column: every overlapping rectangle gets
    # (rows it needs, their positions in my stack).
    a_sends = []
    for L in range(m):
        if L == J:
            continue
        for K in range(m):
            if h4[I, J, K, L] > 0:
                rows_needed = [i for i in my_rows if row_of[i % l][L] == K]
                a_sends.append((K * m + L, rows_needed,
                                np.array([row_pos[i] for i in rows_needed],
                                         dtype=np.intp)))
    # As receiver, per pivot column Jk: (source, positions its rows fill).
    a_recvs = {
        Jk: [(K * m + Jk,
              np.array([x for x, i in enumerate(my_rows)
                        if row_of[i % l][Jk] == K], dtype=np.intp))
             for K in range(m) if h4[K, Jk, I, J] > 0]
        for Jk in range(m) if Jk != J
    }
    a_buf = np.empty((len(my_rows), r, r))
    volume = float(len(my_rows) * len(my_cols))

    for k in range(n):
        gk = k % l
        tag_b = 2 * k
        tag_a = 2 * k + 1

        # ---- B pivot row, vertical within each column -------------------
        if b_root[gk] == I:
            # I own b_(k, j) for my columns; broadcast down my grid column.
            b_k = B[row_pos[k]]
            for dest in column_peers:
                comm.send(b_k, dest, tag=tag_b)
        else:
            b_k = comm.recv(b_root[gk] * m + J, tag=tag_b)

        # ---- A pivot column, horizontal across columns ------------------
        Jk = col_of[gk]               # grid column owning the pivot column
        if J == Jk:
            # I own a_(i, k) for my rows; serve every overlapping rectangle.
            a_k = A[:, col_pos[k]]
            for dest, rows_needed, idx in a_sends:
                comm.send((rows_needed, a_k[idx]), dest, tag=tag_a)
        else:
            a_k = a_buf
            for src, idx in a_recvs[Jk]:
                _, payload = comm.recv(src, tag=tag_a)
                a_k[idx] = payload

        # ---- update every owned C block at once --------------------------
        C += np.matmul(a_k[:, None], b_k[None, :])
        compute(volume)

    return {(bi, bj): C[x, y]
            for x, bi in enumerate(my_rows) for y, bj in enumerate(my_cols)}
