"""Truncated eigendecomposition of sparse symmetric graphs.

The solver is a block thick-restart Lanczos iteration.  It starts from a
block of random vectors, grows an orthonormal basis Q one block step at a
time (A times the previous block, reorthogonalized), keeps W = A Q
alongside, and diagonalizes the projected matrix H = Q^T A Q once the basis
reaches its working size.  Q and W hold one basis vector per row, so every
matrix-vector product, projection and update reads and writes contiguous
memory.  A block gives each member of a near-tied leading pair its own
start direction, where a single start vector would give the pair one
direction until the recurrence splits it.  Termination tests the d leading
Ritz pairs through the relative criterion

    ||A U - U S|| / |theta_1| <= tol

where the spectral norm of the thin residual matrix is measured exactly and
theta_1 is the current Ritz value of largest magnitude.  A Ritz value never
exceeds the spectral norm, so a converged solve has residual at most tol
times ||A||.  The residual test only fires once the selected Ritz values
have settled across the last block step; a small residual by itself can
accept the wrong invariant subspace when a leading direction has not yet
entered the basis.  On failure the basis is compressed to the leading Ritz
vectors plus the next block and expansion resumes.  Two-pass
reorthogonalization keeps the basis orthonormal to machine precision
throughout, so the projected matrix stays faithful after many restarts.

The tolerance enters only the stopping test: the exact residual draws no
random numbers and a failed test leaves the basis as it was, so the restart
trajectory of a start block is the same for every tolerance.  It yields one
record per restart (``_Iterate``), and a solve runs it as a suspended
restart path that logs these records, keeping the vectors of the last one
only.  A later call at a tighter tolerance can resume the path (``resume=``):
it replays the log to count the exact checks a fresh solve would make, then
pulls new restarts, and returns exactly the fresh solve's result.

``excluded_extremes`` reads the same records, on the trajectory of a single
start vector, for the extremes of the spectrum past the d leading
eigenvalues.  It stops on the two values it reports, not on every residual.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from ._util import check_seed, order_by_magnitude
from .errors import DimensionMismatch, DomainError, NoConvergence
from .graph_model import DENSE_LIMIT, RANK_REL_TOL, SparseGraph

# relative change over the last block step below which a selected Ritz value
# counts as settled (the settling gate of the stopping rule); a value below
# RANK_REL_TOL times the largest is measured against that floor instead
_STABILIZE_RTOL = 1e-3
# restarts a solve makes before it returns its last iterate unconverged,
# read when a solve starts
DEFAULT_MAX_RESTARTS = 400
# Lanczos block width: random start vectors and new directions per block
# step.  Two directions give both members of a near-tied leading pair their
# own share of the first basis.  A wider block also covers larger near-tied
# clusters, but at the same basis size it reaches a lower polynomial degree
# per restart and costs more matrix-vector products per solve.
_BLOCK = 2
# a Ritz value counts as exact once residual^2 / gap, the bound on its
# distance to an eigenvalue (Parlett 1998), is below this fraction of it
_EXTREMES_RTOL = 1e-14
# working basis size of an extremes run, in basis vectors
_EXTREMES_BASIS = 30


@dataclass(frozen=True)
class SpectralDecomposition:
    """Result of a truncated eigensolve.

    ``values`` are the d Ritz values in decreasing magnitude order (magnitude
    ties resolved positive first), ``vectors`` the matching orthonormal Ritz
    vectors.  ``residual`` is the exact spectral norm of A U - U S at
    termination.  The stopping rule measures it against |values[0]|, the
    largest Ritz value magnitude, which never exceeds ||A||.  So
    ``converged`` implies residual <= tolerance_used times |values[0]|, and
    so times ||A||.
    """

    values: np.ndarray
    vectors: np.ndarray
    residual: float
    iterations: int
    matvecs: int
    converged: bool
    tolerance_used: float
    # the suspended restart path a later call can resume (``resume=``)
    _path: _RestartPath | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        gram = self.vectors.T @ self.vectors
        if np.linalg.norm(gram - np.eye(self.values.size)) > 1e-8:
            raise DimensionMismatch("Ritz vectors are not orthonormal")
        if self.converged:
            limit = self.tolerance_used * abs(self.values[0])
            if self.residual > limit * (1.0 + 1e-12):
                raise DimensionMismatch("converged result violates its own criterion")

    def __getstate__(self) -> dict:
        # a copy carries no live restart path and so cannot be resumed
        return {**self.__dict__, "_path": None}


def _orthogonalize(t: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Two-pass Gram-Schmidt projection of t against orthonormal basis rows."""
    for _ in range(2):
        t = t - (basis @ t) @ basis
    return t


def _expand_basis(A, Q, W, j, m, b, rng):
    """Grow the block Lanczos basis to m rows; returns (new_size, matvecs_used).

    Row j extends the Krylov block of row j - b: it is A times that row,
    reorthogonalized against everything retained, so b consecutive rows
    form one block step.  On breakdown (an invariant subspace was hit) a
    random direction is injected; if even that lies in the span the basis
    has filled the whole space and expansion stops early.
    """
    n = Q.shape[1]
    start = j
    while j < m:
        source = W[max(j - b, 0)]
        t = _orthogonalize(source, Q[:j])
        beta = np.linalg.norm(t)
        if beta <= 1e-12 * max(1.0, np.linalg.norm(source)):
            t = _orthogonalize(rng.standard_normal(n), Q[:j])
            beta = np.linalg.norm(t)
            if beta <= 1e-8 * np.sqrt(n):
                break
        Q[j] = t / beta
        W[j] = A.matvec(Q[j])
        j += 1
    return j, j - start


@dataclass
class _Iterate:
    """One restart of a trajectory: its d selected Ritz pairs and what the
    stopping rules read of them."""

    matvecs: int  # products along the trajectory, exact residuals excluded
    settled: bool  # every selected Ritz value passed the settling gate
    U: np.ndarray | None  # n x d Ritz vectors, one per column
    theta: np.ndarray  # their Ritz values
    G: np.ndarray | None  # rows A u - theta u, formed from W = A Q
    ritz: np.ndarray  # every Ritz value of the basis
    estimate: float | None = None  # ||G||_2, set when a path logs the restart
    residual: float | None = None  # exact residual, once a check needed it


def _restarts(A, d, m, seed, b=_BLOCK):
    """The thick-restart trajectory of one start block of width b, one
    restart at a time.

    Yields one ``_Iterate`` after each restart's Ritz extraction, the same
    record both stopping rules read.  The tolerance appears nowhere here,
    so one trajectory serves every tolerance; the caller picks the restart
    to stop at.  m >= d + 1 >= b, so a whole block always fits.
    """
    max_restarts = DEFAULT_MAX_RESTARTS
    n = A.n
    keep = max(d, min(d + 5, m - b))

    rng = np.random.default_rng(seed)
    # one basis vector per row; b spare rows hold the next block while a
    # restart compresses the basis
    Q = np.zeros((m + b, n))
    W = np.zeros((m + b, n))
    Q[:b] = np.linalg.qr(rng.random((n, b)))[0].T
    for i in range(b):
        W[i] = A.matvec(Q[i])
    matvecs = b
    j = b

    for iteration in range(1, max_restarts + 1):
        j, used = _expand_basis(A, Q, W, j, m, b, rng)
        matvecs += used
        H = Q[:j] @ W[:j].T
        H = 0.5 * (H + H.T)
        all_theta, all_Y = np.linalg.eigh(H)
        order = order_by_magnitude(all_theta)
        take = order[:d]
        theta = all_theta[take]
        Yd = all_Y[:, take]

        # settling gate: a small residual alone can accept an iterate sitting
        # near the wrong invariant subspace, with a leading direction the
        # basis has barely reached replaced by a converged bulk vector.  Such
        # iterates betray themselves through leading Ritz values that still
        # move as the basis grows, so termination also requires every
        # selected value to have settled over the last block step (a single
        # row is only part of a block step).  A value near zero is measured
        # against RANK_REL_TOL * |theta_1|: rounding moves it by far more
        # than 1e-3 of itself, and a tie at zero never settles otherwise
        settled = False
        if j > d:
            p = max(j - b, d)
            prev = np.linalg.eigvalsh(H[:p, :p])
            prev = prev[order_by_magnitude(prev)[:d]]
            settled = bool(
                np.all(
                    np.abs(theta - prev)
                    <= _STABILIZE_RTOL
                    * np.maximum(np.abs(theta), RANK_REL_TOL * abs(theta[0]))
                )
            )

        # residuals of the top-d block, formed explicitly from W = A Q: the
        # algebraically equal Y^T (W^T W) Y - Theta^2 cancels catastrophically
        # and floors their norm near sqrt(eps) * |lambda|
        Ut = Yd.T @ Q[:j]
        G = Yd.T @ W[:j] - theta[:, None] * Ut
        # U = Ut.T is n x d with contiguous columns: residual_norm reads
        # them as rows without a copy
        yield _Iterate(matvecs, settled, Ut.T, theta, G, all_theta)
        if iteration == max_restarts:
            return
        # thick restart: grow the next block (A times the last b rows) into
        # the spare rows, then compress the basis to the leading Ritz
        # vectors followed by that block
        nxt, used = _expand_basis(A, Q, W, j, j + b, b, rng)
        matvecs += used
        hold = order[:keep]
        held = hold.size
        fresh = min(nxt - j, m - held)
        for M in (Q, W):
            M[:held] = all_Y[:, hold].T @ M[:j]
            M[held : held + fresh] = M[j : j + fresh]
        j = held + fresh


def _path_key(d, m, seed) -> tuple:
    """Equal for two calls on one graph exactly when they share a trajectory.

    Integer seeds compare by value and SeedSequences by identity; any other
    seed (None, a generator) draws a new start block on every call, so its
    key equals no other.
    """
    if isinstance(seed, numbers.Integral):
        seed = int(seed)
    elif not isinstance(seed, np.random.SeedSequence):
        seed = object()
    return (d, m, seed)


class _RestartPath:
    """One suspended restart trajectory plus the log of its restarts so far.

    Only the last restart logged keeps its vectors ``U`` and ``G``: a
    replay at a tighter tolerance reads no vector before it reaches that
    restart.
    """

    def __init__(self, A, d, m, seed):
        self.A = A
        self.key = _path_key(d, m, seed)
        self.log: list[_Iterate] = []
        self.tol = math.inf  # the tightest tolerance solved on the path
        self._steps = _restarts(A, d, m, seed)

    def pull(self) -> bool:
        """Run the trajectory to its next restart; False once the budget is spent."""
        it = next(self._steps, None)
        if it is None:
            return False
        if self.log:
            self.log[-1].U = self.log[-1].G = None
        it.estimate = _spectral_norm(it.G)
        self.log.append(it)
        return True


def truncated_eigs(
    A: SparseGraph,
    d: int,
    tol: float,
    *,
    seed=0,
    resume: SpectralDecomposition | None = None,
) -> SpectralDecomposition:
    """d leading eigenpairs of A by magnitude, to relative residual tol.

    Parameters
    ----------
    A : SparseGraph
        Hollow symmetric adjacency structure with at least one edge.
    d : int
        Number of eigenpairs, 1 <= d < n.
    tol : float
        Relative residual target; the run stops once the spectral norm of
        A U - U S falls below tol times the largest Ritz value magnitude,
        which never exceeds ||A||.  After DEFAULT_MAX_RESTARTS restarts
        the last iterate is returned with ``converged`` False rather than
        raising.
    seed : int or numpy SeedSequence
        Drives the uniform random starting block, making runs repeatable.
    resume : SpectralDecomposition, optional
        A result of an earlier call with the same A (the same object), d
        and seed, whose restart path has solved no tolerance tighter than
        tol.  The solve continues from the last restart that path reached
        instead of starting over, and returns exactly what a fresh call
        would: ``iterations``, ``matvecs`` and every other field count the
        whole solve.  Any other result raises DomainError.
    """
    n = A.n
    if A.m == 0:
        raise DomainError("adjacency matrix is identically zero")
    if not 1 <= d < n:
        raise DimensionMismatch(f"need 1 <= d < n, got d={d} with n={n}")
    if not tol > 0.0:
        raise DomainError("tolerance must be positive")
    check_seed(seed)
    # working basis size held between restarts, in basis vectors
    m = min(max(2 * d + 5, 20), n)

    if resume is None:
        path = _RestartPath(A, d, m, seed)
    else:
        path = getattr(resume, "_path", None)
        if path is None or path.A is not A or path.key != _path_key(d, m, seed):
            raise DomainError(
                "resume needs a solve of the same graph with the same d "
                "and an int or SeedSequence seed"
            )
        if tol > path.tol:
            raise DomainError("resume cannot loosen the tolerance of its restart path")

    # a replay at a tolerance no looser than path.tol passes the earlier
    # stops, and any check it makes before the last logged restart failed
    # in an earlier, looser solve, so only that restart can lack a residual
    checks = 0
    k = 0
    converged = False
    while k < len(path.log) or path.pull():
        it = path.log[k]
        k += 1
        # |theta_1| <= ||A||, so passing against it passes against ||A||
        limit = tol * abs(it.theta[0])
        if it.settled and it.estimate <= limit:
            checks += 1
            if it.residual is None:
                it.residual = residual_norm(A, it.U, it.theta)
            if it.residual <= limit:
                converged = True
                break
    assert k == len(path.log), "a replay stopped before the last logged restart"
    if not converged and it.residual is None:
        it.residual = residual_norm(A, it.U, it.theta)
    dec = SpectralDecomposition(
        values=it.theta.copy(),
        vectors=it.U.copy(order="C"),
        residual=it.residual,
        iterations=k,
        # an unconverged solve measures its final residual once more
        matvecs=it.matvecs + d * (checks + (not converged)),
        converged=converged,
        tolerance_used=tol,
        _path=path,
    )
    path.tol = tol
    return dec


def excluded_extremes(A: SparseGraph, d: int, seed=0) -> np.ndarray | None:
    """The d + k leading Ritz values of A whose last k bracket its excluded
    spectrum, or None.

    The excluded spectrum is every eigenvalue but the d leading ones by
    magnitude.  Its k largest in magnitude are the last k of the d + k
    leading values; once they hold both signs, every other excluded
    eigenvalue, smaller in magnitude than each of them, lies between their
    smallest mu_- and their largest mu_+.  So a Ritz value outside
    [mu_-, mu_+] is nearest to mu_- or mu_+, and ``ritz_gap_rho`` over these
    d + k values is exact.

    Only mu_+ and mu_- are read, so the run stops on them alone.  It follows
    the restart trajectory of one start vector from ``seed``, which buys a
    higher polynomial degree per product than a block.  It stops at the
    first settled restart where, for both mu_+ and mu_-, residual^2 / gap is
    at most _EXTREMES_RTOL times |mu|, the gap being the distance to the
    nearest other Ritz value.  The residuals are read off the trajectory
    and confirmed exactly (two products) before the run stops.  When the
    last k values then hold one sign, k doubles from 3 and a wider run
    starts.  None when a run spends DEFAULT_MAX_RESTARTS restarts or d + k
    would reach n.
    """

    def exact(values, residuals, ritz):
        # the second smallest distance skips the value's own Ritz value
        gaps = [np.partition(np.abs(ritz - v), 1)[1] for v in values]
        return all(
            r * r <= _EXTREMES_RTOL * abs(v) * g
            for v, r, g in zip(values, residuals, gaps)
        )

    check_seed(seed)
    k = 3
    while d + k < A.n:
        m = min(max(2 * (d + k) + 5, _EXTREMES_BASIS), A.n)
        for it in _restarts(A, d + k, m, seed, b=1):
            excluded = it.theta[d:]
            pairs = d + np.array([excluded.argmax(), excluded.argmin()])
            mu = it.theta[pairs]
            if not (it.settled and exact(mu, np.linalg.norm(it.G[pairs], axis=1), it.ritz)):
                continue
            rows = it.U.T  # contiguous, one Ritz vector per row
            if not exact(mu, [np.linalg.norm(A.matvec(rows[i]) - it.theta[i] * rows[i])
                              for i in pairs], it.ritz):
                continue
            if excluded.min() < 0.0 < excluded.max():
                return it.theta
            break
        else:
            return None
        k *= 2
    return None


def estimate_spectral_norm(A: SparseGraph, tol: float = 1e-6, *, seed=0) -> float:
    """Largest eigenvalue magnitude of A, via the d = 1 truncated solve.

    Magnitude ties (bipartite-like spectra) resolve to the positive side, so
    the value returned is the spectral norm.  Raises NoConvergence if the
    solve spends its DEFAULT_MAX_RESTARTS restarts; callers may fall back to
    the maximum degree, which always upper-bounds the spectral norm.
    """
    dec = truncated_eigs(A, 1, tol, seed=seed)
    if not dec.converged:
        raise NoConvergence(dec.iterations)  # an unconverged solve spent its budget
    return float(np.abs(dec.values[0]))


def residual_norm(A: SparseGraph, vectors: np.ndarray, values: np.ndarray) -> float:
    """Exact spectral norm of the thin residual A U - U S.

    Computed from the d x d Gram matrix of the residual columns, so the cost
    is d matrix-vector products plus O(n d^2).
    """
    U = np.asarray(vectors, dtype=float)
    s = np.asarray(values, dtype=float).reshape(-1)
    if U.ndim != 2 or U.shape[0] != A.n or U.shape[1] != s.size:
        raise DimensionMismatch("vectors must be n x d with one value per column")
    # one contiguous row per vector (free when U has contiguous columns)
    rows = np.ascontiguousarray(U.T)
    G = np.empty_like(rows)
    for i in range(s.size):
        G[i] = A.matvec(rows[i]) - s[i] * rows[i]
    return _spectral_norm(G)


def _spectral_norm(G: np.ndarray) -> float:
    """Spectral norm of the d x n matrix G, from its d x d Gram matrix."""
    return float(np.sqrt(max(0.0, np.linalg.eigvalsh(G @ G.T)[-1])))


def dense_eig_oracle(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full dense eigendecomposition, magnitude ordered, for cross-checks.

    Guarded to n <= 5000; the input must be symmetric to within 1e-12
    (relative to its largest entry).  Returns (values, vectors) with values
    by decreasing magnitude and vectors as matching columns.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatch("a square matrix is required")
    n = M.shape[0]
    if n > DENSE_LIMIT:
        raise DomainError(f"dense oracle limited to n <= {DENSE_LIMIT}, got {n}")
    scale = max(1.0, float(np.abs(M).max())) if M.size else 1.0
    if float(np.abs(M - M.T).max()) > 1e-12 * scale:
        raise DomainError("matrix is not symmetric within 1e-12")
    w, V = np.linalg.eigh(0.5 * (M + M.T))
    order = order_by_magnitude(w)
    return w[order], V[:, order]


def ritz_gap_rho(ritz_values: np.ndarray, all_values: np.ndarray) -> float:
    """Minimum distance from the Ritz values to the excluded spectrum.

    ``all_values`` is the full spectrum; the len(ritz_values) leading entries
    by magnitude are excluded and rho is the smallest |ritz - mu| over the
    rest.  Zero is possible when a Ritz value coincides with an excluded
    eigenvalue.
    """
    ritz = np.asarray(ritz_values, dtype=float).reshape(-1)
    full = np.asarray(all_values, dtype=float).reshape(-1)
    if ritz.size == 0:
        raise DomainError("no Ritz values supplied")
    if full.size <= ritz.size:
        raise DomainError("the excluded spectrum is empty")
    excluded = full[order_by_magnitude(full)][ritz.size :]
    return float(np.abs(ritz[:, None] - excluded[None, :]).min())
