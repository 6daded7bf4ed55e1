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

Every rank draws its own A and B blocks locally with
:func:`matrix_stack`, a counter-based generator: each element is a hash of
(seed, matrix, global row, global column), evaluated for the rank's whole
stack in one vectorised call.  Keying on global element indices makes the
matrices independent of the distribution, so MPI and HMPI runs at any
``l`` — and the single-block and full-matrix views used for checking —
see identical values.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ...mpi.communicator import Comm
from ...util.errors import ReproError
from .distribution import BlockDistribution

__all__ = [
    "matrix_stack", "matrix_block", "assemble_matrix", "matmul_algorithm",
    "reference_product",
]


_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15                 # splitmix64 increment
_M1, _M2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_ONE_BITS = np.uint64(0x3FF0000000000000)  # float64 1.0


def _mix64(z: int) -> int:
    """The splitmix64 finaliser on a Python int (exact, no overflow)."""
    z = ((z ^ (z >> 30)) * _M1) & _MASK64
    z = ((z ^ (z >> 27)) * _M2) & _MASK64
    return z ^ (z >> 31)


def _global_index(blocks: Sequence[int], r: int) -> np.ndarray:
    """``(len(blocks), r)`` global element indices of the given block rows."""
    b = np.asarray(blocks, dtype=np.int64).reshape(-1)
    if b.size and (b.min() < 0 or (int(b.max()) + 1) * r >= 1 << 32):
        raise ReproError(f"blocks {int(b.min())}..{int(b.max())} of size r={r} "
                         f"do not fit the generator's 32-bit element index")
    return (b[:, None] * r + np.arange(r)).astype(np.uint64)


def matrix_stack(seed: int, which: int, rows: Sequence[int],
                 cols: Sequence[int], r: int) -> np.ndarray:
    """Blocks ``rows × cols`` of matrix ``which`` (0 = A, 1 = B), drawn at once.

    Returns a ``(len(rows), len(cols), r, r)`` float64 stack of standard
    normals whose ``[x, y]`` entry is block ``(rows[x], cols[y])``.  Every
    element is a pure function of (seed, which, global row, global
    column): the splitmix64 finaliser of ``key + counter·γ``, with the
    counter ``(global_row << 32) | global_col``, gives a 64-bit hash whose
    two 32-bit halves feed one Box–Muller step.  The hash and the
    transform run in place, so a draw holds two stacks at most.
    """
    key = _mix64((_mix64(seed & _MASK64) + (which + 1) * _GAMMA) & _MASK64)
    gamma = np.uint64(_GAMMA)
    row_part = (_global_index(rows, r) << np.uint64(32)) * gamma + np.uint64(key)
    col_part = _global_index(cols, r) * gamma
    shape = (len(row_part), len(col_part), r, r)
    h = np.empty(shape, dtype=np.uint64)
    np.add(row_part[:, None, :, None], col_part[None, :, None, :], out=h)
    out = np.empty(shape)
    t = out.view(np.uint64)                  # scratch until the floats land
    for shift, mult in ((30, _M1), (27, _M2)):      # _mix64, in place
        np.right_shift(h, np.uint64(shift), out=t)
        np.bitwise_xor(h, t, out=h)
        np.multiply(h, np.uint64(mult), out=h)
    np.right_shift(h, np.uint64(31), out=t)
    np.bitwise_xor(h, t, out=h)
    # Each 32-bit half k becomes the float 1 + k/2**32 by writing it under
    # the exponent of 1.0 (bit patterns, no int-to-float cast), so
    # u1 = 2 - (1 + hi/2**32) lies in (0, 1] and log never sees 0.
    np.right_shift(h, np.uint64(32), out=t)
    np.left_shift(t, np.uint64(20), out=t)
    np.bitwise_or(t, _ONE_BITS, out=t)
    np.left_shift(h, np.uint64(32), out=h)
    np.right_shift(h, np.uint64(12), out=h)
    np.bitwise_or(h, _ONE_BITS, out=h)
    # The angle 2π·(u2 - 1/2) lies in [-π, π): less range reduction for cos.
    angle = h.view(np.float64)
    np.subtract(angle, 1.5, out=angle)
    np.multiply(angle, 2.0 * np.pi, out=angle)
    np.cos(angle, out=angle)
    np.subtract(2.0, out, out=out)
    np.log(out, out=out)
    np.multiply(out, -2.0, out=out)
    np.sqrt(out, out=out)
    np.multiply(out, angle, out=out)
    return out


def matrix_block(seed: int, which: int, i: int, j: int, r: int) -> np.ndarray:
    """Deterministic r×r block (i, j) of matrix ``which`` (0 = A, 1 = B)."""
    return matrix_stack(seed, which, [i], [j], r)[0, 0]


def assemble_matrix(seed: int, which: int, n: int, r: int) -> np.ndarray:
    """The full ``(n*r) x (n*r)`` matrix from its deterministic blocks."""
    stack = matrix_stack(seed, which, range(n), range(n), r)
    return stack.transpose(0, 2, 1, 3).reshape(n * r, n * r)


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
    A = matrix_stack(seed, 0, my_rows, my_cols, r)
    B = matrix_stack(seed, 1, my_rows, my_cols, r)
    C = np.zeros_like(A)

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
