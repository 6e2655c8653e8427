"""Random dot product graphs, stochastic block models, and sparse adjacency.

Every vertex carries a latent vector; two vertices are adjacent independently
with probability equal to the dot product of their vectors.  The probability
matrix P = X X^T is kept in factored form, so row sums, the nonzero spectrum,
and samples are all available in O(n d) or O(n d^2) work without ever
materializing the n x n matrix.  A stochastic block model is the special case
where the latent vectors take one value per block.  The paper's assumptions
on P (its rank, the gap ratio gamma(P) and the density delta(P)) are read
off one thin SVD of the factor by ``check_assumptions``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._util import check_seed
from .errors import DimensionMismatch, DomainError

# eigenvalues of a block matrix in [-PSD_CLAMP, 0) are treated as exact zeros
PSD_CLAMP = 1e-10
# slack when validating that pairwise dot products stay inside [0, 1]
_DOT_RANGE_TOL = 1e-9
# eigenvalues at or below this fraction of the leading one count as rank zero
RANK_REL_TOL = 1e-8
# check_assumptions' thresholds: gamma(P) > c0 and delta(P) > (log n)^(4 + a)
GAMMA_MIN = 0.1
DENSITY_MARGIN = 0.5
# largest n for which dense materialization and dense eigensolves are allowed
DENSE_LIMIT = 5000
_VALIDATE_BLOCK = 512
# uniforms sample_adjacency draws per call: bounds a row block's temporaries
_PAIRS_PER_DRAW = 1 << 16


@dataclass(frozen=True)
class LatentPositions:
    """n latent vectors in R^d with all pairwise dot products inside [0, 1].

    The range constraint (checked on construction, including the diagonal)
    is exactly what makes X X^T a valid edge probability matrix.  A row
    holding NaN or inf is rejected first: a NaN product passes every
    comparison.
    """

    rows: np.ndarray

    def __post_init__(self) -> None:
        rows = np.array(self.rows, dtype=float)
        if rows.ndim != 2 or rows.shape[0] < 1 or rows.shape[1] < 1:
            raise DimensionMismatch("latent positions must form a nonempty 2-d array")
        if rows.shape[1] > rows.shape[0]:
            raise DimensionMismatch(
                f"latent dimension {rows.shape[1]} exceeds vertex count {rows.shape[0]}"
            )
        if not np.isfinite(rows).all():
            raise DimensionMismatch("latent positions must be finite")
        # repeated rows add no new dot products, so the pairs of distinct
        # rows, each row with itself included, give the same verdict
        distinct = np.unique(rows, axis=0)
        for start in range(0, distinct.shape[0], _VALIDATE_BLOCK):
            block = distinct[start : start + _VALIDATE_BLOCK] @ distinct.T
            if block.min() < -_DOT_RANGE_TOL or block.max() > 1.0 + _DOT_RANGE_TOL:
                raise DimensionMismatch(
                    "pairwise dot products must lie in [0, 1] to be probabilities"
                )
        rows.flags.writeable = False
        object.__setattr__(self, "rows", rows)

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def d(self) -> int:
        return self.rows.shape[1]


@dataclass(frozen=True)
class SbmSpec:
    """A stochastic block model: symmetric block probabilities plus block sizes."""

    block_probabilities: np.ndarray
    sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        try:
            sizes = tuple(int(s) for s in self.sizes)
        except (TypeError, ValueError, OverflowError):  # NaN, inf, not a number
            sizes = None
        if sizes is None or sizes != tuple(self.sizes):
            raise DimensionMismatch(f"block sizes must be whole numbers, got {self.sizes}")
        try:
            B = np.array(self.block_probabilities, dtype=float)
        except ValueError:  # rows of unequal length, or not numbers
            raise DimensionMismatch(
                "block probability matrix must be a square array of numbers"
            ) from None
        if not sizes:
            raise DimensionMismatch("a block model needs at least one block")
        if B.ndim != 2 or B.shape[0] != B.shape[1]:
            raise DimensionMismatch("block probability matrix must be square")
        if B.shape[0] != len(sizes):
            raise DimensionMismatch("one size per block is required")
        if not np.isfinite(B).all():
            raise DimensionMismatch("block probabilities must be finite")
        if not np.allclose(B, B.T, atol=1e-12, rtol=0.0):
            raise DimensionMismatch("block probability matrix must be symmetric")
        if B.min() < 0.0 or B.max() > 1.0:
            raise DimensionMismatch("block probabilities must lie in [0, 1]")
        if any(s < 1 for s in sizes):
            raise DimensionMismatch("every block needs at least one vertex")
        B.flags.writeable = False
        object.__setattr__(self, "block_probabilities", B)
        object.__setattr__(self, "sizes", sizes)

    @property
    def k(self) -> int:
        return len(self.sizes)

    @property
    def n(self) -> int:
        return sum(self.sizes)


@dataclass(frozen=True)
class FactoredProbabilityMatrix:
    """P = X X^T held through its factor, never materialized for large n."""

    latent: LatentPositions

    @property
    def n(self) -> int:
        return self.latent.n

    def eigendecomposition(self) -> tuple[np.ndarray, np.ndarray]:
        """Nonzero spectrum of P via a thin SVD of the factor.

        Returns (values, vectors): the d leading eigenvalues of P in
        decreasing order (squared singular values of X, hence nonnegative)
        and the matching orthonormal eigenvectors as columns.
        """
        V, s, _ = np.linalg.svd(self.latent.rows, full_matrices=False)
        return s**2, V

    def row_sums(self) -> np.ndarray:
        """All row sums of P, diagonal included, in O(n d)."""
        X = self.latent.rows
        return X @ X.sum(axis=0)

    def dense(self) -> np.ndarray:
        if self.n > DENSE_LIMIT:
            raise DomainError(f"refusing to materialize P with n={self.n}")
        return self.latent.rows @ self.latent.rows.T


@dataclass(frozen=True)
class SparseGraph:
    """Hollow symmetric adjacency with sorted per-vertex neighbor lists.

    Storage is compressed rows: the neighbors of vertex i sit in
    ``indices[indptr[i]:indptr[i+1]]``, strictly increasing.  Arrays passed
    to the constructor come from outside, so symmetry, absence of self
    loops, sortedness, and uniqueness are asserted there in O(m) plus one
    sort: once the rows are known to be sorted and unique, the entries in
    storage order are the ascending keys ``row * n + column``, and the graph
    is symmetric exactly when the keys ``column * n + row``, sorted, are the
    same array.  ``from_edges`` builds arrays that hold all four by
    construction and skips that sort.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray

    def __post_init__(self) -> None:
        indptr = np.array(self.indptr, dtype=np.int64)
        indices = np.array(self.indices, dtype=np.int64)
        n = int(self.n)
        if n < 1:
            raise DimensionMismatch("a graph needs at least one vertex")
        if indptr.shape != (n + 1,) or indptr[0] != 0 or indptr[-1] != indices.size:
            raise DimensionMismatch("malformed row pointer array")
        if np.any(np.diff(indptr) < 0):
            raise DimensionMismatch("row pointers must be nondecreasing")
        if indices.size % 2 != 0:
            raise DimensionMismatch("a symmetric hollow graph has an even entry count")
        if indices.size:
            if indices.min() < 0 or indices.max() >= n:
                raise DimensionMismatch("neighbor index out of range")
            src = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
            if np.any(src == indices):
                raise DimensionMismatch("self loops are not allowed")
            backward = indices * n  # the transposed keys column * n + row
            backward += src
            backward.sort()
            # rows are sorted and duplicate-free exactly when the entry keys
            # row * n + column, built in src's place, strictly increase
            forward = np.multiply(src, n, out=src)
            forward += indices
            if np.any(forward[1:] <= forward[:-1]):
                raise DimensionMismatch("neighbor lists must be sorted and unique")
            # symmetry: the transposed keys, sorted, must be the same array
            if not np.array_equal(forward, backward):
                raise DimensionMismatch("adjacency structure is not symmetric")
        self._freeze(indptr, indices)

    def _freeze(self, indptr: np.ndarray, indices: np.ndarray) -> None:
        indptr.flags.writeable = False
        indices.flags.writeable = False
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", indices)

    @classmethod
    def from_edges(cls, n: int, endpoints: np.ndarray) -> "SparseGraph":
        """Build from an (m, 2) array of undirected edges u != v.

        Both orientations of every edge are ordered by one sort of the int64
        keys ``row * n + column``.  An edge listed more than once, in either
        orientation, is merged: equal keys are neighbours after the sort,
        and the keys are copied without the repeats only when one exists.
        Row i starts at the first merged key at or above i * n.

        The sorted, merged keys in both orientations are sorted, unique,
        symmetric rows by construction, so the constructor's sort-based
        check is not run again; n, the id range and self loops are checked
        here, with the constructor's messages.
        """
        n = int(n)
        if n < 1:
            raise DimensionMismatch("a graph needs at least one vertex")
        endpoints = np.asarray(endpoints, dtype=np.int64).reshape(-1, 2)
        if endpoints.size and (endpoints.min() < 0 or endpoints.max() >= n):
            raise DimensionMismatch("neighbor index out of range")
        if np.any(endpoints[:, 0] == endpoints[:, 1]):
            raise DimensionMismatch("self loops are not allowed")
        keys = np.multiply(endpoints.T, n, order="C")  # rows u * n and v * n
        keys += endpoints[:, ::-1].T  # rows u * n + v and v * n + u
        keys = keys.ravel()
        keys.sort()
        repeated = keys[1:] == keys[:-1]
        if repeated.any():
            keys = keys[np.append(True, ~repeated)]
        indptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n)
        keys %= n
        graph = object.__new__(cls)
        object.__setattr__(graph, "n", n)
        graph._freeze(indptr.astype(np.int64, copy=False), keys)
        return graph

    @property
    def m(self) -> int:
        """Number of undirected edges."""
        return self.indices.size // 2

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    @cached_property
    def _row_starts(self) -> tuple[np.ndarray, np.ndarray]:
        """Vertices with neighbors and where their neighbor lists start."""
        rows = np.flatnonzero(self.degrees)
        return rows, self.indptr[rows]

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """A v in O(m) without materializing A."""
        v = np.asarray(v, dtype=float)
        if v.shape != (self.n,):
            raise DimensionMismatch(f"vector of length {self.n} required")
        out = np.zeros(self.n)
        if self.indices.size:
            # one segment sum per neighbor list; reduceat would return the
            # element at an empty segment's start, so isolated vertices are
            # left out and stay zero
            rows, starts = self._row_starts
            out[rows] = np.add.reduceat(v[self.indices], starts)
        return out

    def to_dense(self) -> np.ndarray:
        if self.n > DENSE_LIMIT:
            raise DomainError(f"refusing to materialize adjacency with n={self.n}")
        A = np.zeros((self.n, self.n))
        A[np.repeat(np.arange(self.n), self.degrees), self.indices] = 1.0
        return A


def sbm_to_latent(spec: SbmSpec) -> LatentPositions:
    """Latent vectors whose dot products reproduce the block probabilities.

    The block matrix is eigenfactored; eigenvalues inside [-1e-10, 0) are
    clamped to zero, anything lower raises.  The returned positions have one
    distinct row per block, so X X^T equals Z B Z^T exactly (up to clamping).
    """
    B = spec.block_probabilities
    w, Q = np.linalg.eigh(B)
    if w.min() < -PSD_CLAMP:
        raise DomainError(
            f"block matrix has eigenvalue {w.min():.3e} below the clamp window"
        )
    w = np.clip(w, 0.0, None)
    order = np.argsort(w)[::-1]
    factor = Q[:, order] * np.sqrt(w[order])
    return LatentPositions(np.repeat(factor, spec.sizes, axis=0))


def sample_adjacency(P: FactoredProbabilityMatrix, seed) -> SparseGraph:
    """Draw one graph: each pair i < j is an edge with probability X_i . X_j.

    The diagonal is never sampled (the graph is hollow).  One uniform is
    consumed per pair, row by row over the upper triangle: pair (i, j) is an
    edge when its uniform falls below ``X[i + 1 :] @ X[i]`` at j, clipped to
    [0, 1].  The uniforms of a block of consecutive rows, at most
    ``_PAIRS_PER_DRAW`` pairs but always one whole row, come from one draw;
    PCG64 yields the same doubles however a draw is split, so the graph is a
    pure function of the seed, whatever the blocking.
    """
    check_seed(seed)
    X = P.latent.rows
    n = P.n
    rng = np.random.default_rng(seed)
    # starts[i]: pairs in the rows before row i, which holds n - 1 - i pairs
    starts = np.zeros(n, dtype=np.int64)
    np.cumsum(np.arange(n - 1, 0, -1), out=starts[1:])
    heads = [np.empty(0, dtype=np.int64)]
    tails = [np.empty(0, dtype=np.int64)]
    i = 0
    while i < n - 1:
        stop = int(np.searchsorted(starts, starts[i] + _PAIRS_PER_DRAW, side="right"))
        stop = max(stop - 1, i + 1)
        p = np.concatenate([X[k + 1 :] @ X[k] for k in range(i, stop)])
        np.clip(p, 0.0, 1.0, out=p)
        hit = np.flatnonzero(rng.random(p.size) < p)
        # map each hit back to its row, then to its column past the diagonal
        offsets = starts[i:stop] - starts[i]
        rows = np.searchsorted(offsets, hit, side="right") - 1
        heads.append(rows + i)
        tails.append(hit - offsets[rows] + rows + i + 1)
        i = stop
    endpoints = np.column_stack([np.concatenate(heads), np.concatenate(tails)])
    return SparseGraph.from_edges(n, endpoints)


@dataclass(frozen=True)
class AssumptionReport:
    """Raw values and verdicts for the spectral model assumptions."""

    rank: int
    rank_matches: bool
    gamma: float
    gamma_check: bool
    delta: float
    delta_threshold: float
    delta_check: bool


def check_assumptions(P: FactoredProbabilityMatrix, d: int) -> AssumptionReport:
    """Report-only checks that P is suitable for a rank-d spectral embedding.

    The rank of P and its eigenvalues come from one thin SVD of the factor;
    delta(P) is the largest row sum, diagonal included, and the gap ratio is
    gamma(P) = (lambda_d - lambda_{d+1}) / delta(P), where eigenvalues past
    the factor's width are exact zeros.  Checks the rank against d, gamma(P)
    against c0 = GAMMA_MIN, and delta(P) against (log n)^(4+a) with
    a = DENSITY_MARGIN.  Only d < 1 raises; degenerate inputs (P = 0)
    simply fail the checks.
    """
    if d < 1:
        raise DimensionMismatch("d must be at least 1")
    values, _ = P.eigendecomposition()
    lam1 = float(values[0])
    rank = int(np.count_nonzero(values > RANK_REL_TOL * lam1)) if lam1 > 0 else 0
    delta = float(P.row_sums().max())
    lam_d = float(values[d - 1]) if d - 1 < values.size else 0.0
    lam_next = float(values[d]) if d < values.size else 0.0
    gamma = (lam_d - lam_next) / delta if delta > 0 else float("nan")
    threshold = math.log(P.n) ** (4.0 + DENSITY_MARGIN) if P.n > 1 else float("inf")
    return AssumptionReport(
        rank=rank,
        rank_matches=rank == d,
        gamma=gamma,
        gamma_check=delta > 0 and gamma > GAMMA_MIN,
        delta=delta,
        delta_threshold=threshold,
        delta_check=delta > threshold,
    )
