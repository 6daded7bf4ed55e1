"""Heterogeneous 2D generalized-block matrix distribution.

Implements the data distribution of Kalinov & Lastovetsky [6] that the
paper's matrix-multiplication algorithm modifies ScaLAPACK with:

- the matrix is an ``n x n`` grid of ``r x r`` blocks, tiled by
  generalized blocks of ``l x l`` blocks (``m <= l <= n``);
- every generalized block is partitioned identically into ``m`` vertical
  slices whose widths are proportional to the *column sums* of the
  processor-speed matrix (balancing between processor columns), then each
  vertical slice independently into ``m`` horizontal slices proportional to
  the individual speeds (balancing within each column);
- processor ``P_IJ`` stores the rectangle at row-slice I of column-slice J.

Widths/heights are integers ≥ 1 summing to ``l`` (largest-remainder
rounding), so the rectangle areas are proportional to speeds up to integer
granularity — exactly the paper's "area of each rectangle is proportional
to the speed of the processor".

The homogeneous special case (all speeds equal, ``l = m``) degenerates to
the standard ScaLAPACK 2D block-cyclic distribution, which is the paper's
MPI baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ...util.errors import ReproError

__all__ = [
    "proportional_partition",
    "partition_generalized_block",
    "heights_tensor",
    "BlockDistribution",
    "homogeneous_distribution",
    "heterogeneous_distribution",
]


def proportional_partition(total: int, weights: np.ndarray) -> np.ndarray:
    """Split ``total`` into ``len(weights)`` ints ≥ 1, areas ∝ weights.

    Largest-remainder method: floor the proportional shares (clamped to
    one), then hand out the leftover units to the largest fractional
    remainders.  Deterministic; ties broken by index.
    """
    weights = np.asarray(weights, dtype=float)
    k = len(weights)
    if k == 0:
        raise ReproError("cannot partition among zero parts")
    if (weights <= 0).any():
        raise ReproError("weights must be positive")
    if total < k:
        raise ReproError(
            f"cannot give {k} parts at least 1 from a total of {total}"
        )
    ideal = weights / weights.sum() * total
    base = np.maximum(np.floor(ideal).astype(int), 1)
    deficit = total - int(base.sum())
    if deficit > 0:
        # Hand out missing units to the largest fractional remainders.
        remainder = ideal - np.floor(ideal)
        order = sorted(range(k), key=lambda i: (-remainder[i], i))
        for step in range(deficit):
            base[order[step % k]] += 1
    elif deficit < 0:
        # The clamp to one over-allocated; reclaim from the parts whose
        # integer share most exceeds their ideal, never going below one.
        while deficit < 0:
            surplus = base - ideal
            order = sorted(range(k), key=lambda i: (-surplus[i], i))
            took = False
            for i in order:
                if base[i] > 1:
                    base[i] -= 1
                    deficit += 1
                    took = True
                    break
            if not took:  # pragma: no cover - guarded by the total check
                raise ReproError("partition repair failed")
    assert base.sum() == total and (base >= 1).all()
    return base


def partition_generalized_block(
    l: int, speeds: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Partition an ``l x l`` generalized block for an ``m x m`` speed grid.

    Returns ``(w, heights)``: ``w[j]`` is the width of column slice j;
    ``heights[i, j]`` the height of processor (i, j)'s rectangle within
    column slice j.  Each column of ``heights`` sums to ``l``; ``w`` sums
    to ``l``.
    """
    speeds = np.asarray(speeds, dtype=float)
    if speeds.ndim != 2 or speeds.shape[0] != speeds.shape[1]:
        raise ReproError(f"speed grid must be square, got {speeds.shape}")
    m = speeds.shape[0]
    if l < m:
        raise ReproError(f"generalized block size l={l} must be >= m={m}")
    # Step 1: vertical slices proportional to column speed sums.
    w = proportional_partition(l, speeds.sum(axis=0))
    # Step 2: each vertical slice split independently by individual speeds.
    heights = np.zeros((m, m), dtype=int)
    for j in range(m):
        heights[:, j] = proportional_partition(l, speeds[:, j])
    return w, heights


def heights_tensor(heights: np.ndarray) -> np.ndarray:
    """The model's ``h[I][J][K][L]`` tensor from per-column heights.

    ``h[I][J][K][L]`` is the number of generalized-block rows shared by
    rectangle R_IJ (rows of processor I in column J) and rectangle R_KL —
    "the height of the rectangle area of R_IJ required by processor P_KL".
    By construction ``h[I][J][I][J]`` is R_IJ's own height and the tensor
    is symmetric under (I,J) <-> (K,L).
    """
    m = heights.shape[0]
    starts = np.zeros((m, m), dtype=int)
    for j in range(m):
        starts[:, j] = np.concatenate(([0], np.cumsum(heights[:-1, j])))
    h4 = np.zeros((m, m, m, m), dtype=int)
    for i in range(m):
        for j in range(m):
            lo1, hi1 = starts[i, j], starts[i, j] + heights[i, j]
            for k in range(m):
                for l2 in range(m):
                    lo2, hi2 = starts[k, l2], starts[k, l2] + heights[k, l2]
                    h4[i, j, k, l2] = max(0, min(hi1, hi2) - max(lo1, lo2))
    return h4


@dataclass(frozen=True)
class BlockDistribution:
    """A concrete assignment of an ``n x n`` block matrix to an ``m x m`` grid.

    Grid rank of processor (I, J) is ``I * m + J`` — identical to the
    row-major linearisation the performance model uses, so group rank,
    abstract processor, and grid position all coincide.
    """

    n: int                 # matrix size in r x r blocks
    l: int                 # generalized block size in blocks
    w: tuple[int, ...]     # column-slice widths (sum = l)
    heights_matrix: tuple[tuple[int, ...], ...]  # heights[i][j], columns sum to l

    def __post_init__(self) -> None:
        m = self.m
        if self.n % self.l != 0:
            raise ReproError(
                f"matrix size n={self.n} blocks must be a multiple of l={self.l}"
            )
        if sum(self.w) != self.l:
            raise ReproError("column widths must sum to l")
        for j in range(m):
            if sum(self.heights_matrix[i][j] for i in range(m)) != self.l:
                raise ReproError(f"heights of column {j} must sum to l")

    @property
    def m(self) -> int:
        return len(self.w)

    @property
    def ng(self) -> int:
        """Generalized blocks along one dimension (the model's sqrt(n_g))."""
        return self.n // self.l

    @property
    def heights(self) -> np.ndarray:
        return np.array(self.heights_matrix, dtype=int)

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------
    @lru_cache(maxsize=None)
    def _column_of(self) -> np.ndarray:
        """column slice J of each in-gblock column index (length l)."""
        out = np.empty(self.l, dtype=int)
        pos = 0
        for j, width in enumerate(self.w):
            out[pos:pos + width] = j
            pos += width
        return out

    @lru_cache(maxsize=None)
    def _row_of(self) -> np.ndarray:
        """row slice I of each in-gblock row index, per column slice: (l, m)."""
        m = self.m
        out = np.empty((self.l, m), dtype=int)
        hm = self.heights
        for j in range(m):
            pos = 0
            for i in range(m):
                out[pos:pos + hm[i, j], j] = i
                pos += hm[i, j]
        return out

    def owner(self, block_row: int, block_col: int) -> tuple[int, int]:
        """Grid coordinates (I, J) of the processor owning block (row, col)."""
        gi = block_row % self.l
        gj = block_col % self.l
        J = int(self._column_of()[gj])
        I = int(self._row_of()[gi, J])
        return I, J

    def owner_rank(self, block_row: int, block_col: int) -> int:
        I, J = self.owner(block_row, block_col)
        return I * self.m + J

    def rows_and_cols(self, grid_rank: int) -> tuple[list[int], list[int]]:
        """Global block rows and columns of a grid rank, ascending.

        The rank owns exactly their product (see :meth:`blocks_of`).
        """
        I, J = divmod(grid_rank, self.m)
        l, ng = self.l, self.ng
        rows = [bi * l + gi for bi in range(ng)
                for gi in self.rows_owned_in_column(I, J)]
        cols = [bj * l + gj for bj in range(ng) for gj in self.cols_owned(J)]
        return rows, cols

    def blocks_of(self, grid_rank: int) -> list[tuple[int, int]]:
        """All (row, col) blocks owned by a grid rank, row-major order."""
        rows, cols = self.rows_and_cols(grid_rank)
        return [(i, j) for i in rows for j in cols]

    def rows_owned_in_column(self, I: int, J: int) -> list[int]:
        """In-gblock row indices of processor (I, J)'s rectangle."""
        row_of = self._row_of()
        return [gi for gi in range(self.l) if row_of[gi, J] == I]

    def cols_owned(self, J: int) -> list[int]:
        """In-gblock column indices of column slice J."""
        col_of = self._column_of()
        return [gj for gj in range(self.l) if col_of[gj] == J]

    def area(self, grid_rank: int) -> int:
        """Number of blocks owned by a grid rank."""
        I, J = divmod(grid_rank, self.m)
        return self.w[J] * self.heights_matrix[I][J] * self.ng * self.ng

    def h4(self) -> np.ndarray:
        """The model's h[I][J][K][L] tensor for this distribution."""
        return heights_tensor(self.heights)


def homogeneous_distribution(n: int, m: int) -> BlockDistribution:
    """Standard ScaLAPACK 2D block-cyclic: l = m, all widths/heights 1."""
    if n % m != 0:
        raise ReproError(f"n={n} must be a multiple of m={m}")
    ones = tuple(tuple(1 for _ in range(m)) for _ in range(m))
    return BlockDistribution(n=n, l=m, w=tuple(1 for _ in range(m)),
                             heights_matrix=ones)


def heterogeneous_distribution(n: int, l: int, speeds: np.ndarray) -> BlockDistribution:
    """The paper's distribution for an ``m x m`` grid with the given speeds."""
    w, heights = partition_generalized_block(l, speeds)
    return BlockDistribution(
        n=n, l=l, w=tuple(int(x) for x in w),
        heights_matrix=tuple(tuple(int(x) for x in row) for row in heights),
    )
