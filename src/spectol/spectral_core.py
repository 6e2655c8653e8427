"""Truncated eigendecomposition of symmetric graphs and operators.

The solver is a block thick-restart Lanczos iteration.  It reads A only as
``A.n`` and ``A.matvec(x)`` (an ``Operator``).  It starts from a block of
random vectors, grows an orthonormal basis Q one block step at a time (A
times the previous block, reorthogonalized), keeps W = A Q alongside, and
diagonalizes the projected matrix H = Q^T A Q once the basis reaches its
working size.  Q and W hold one basis vector per row, so every
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
record per restart (``_Iterate``).  A ``RestartPath`` holds that trajectory
suspended, with the log of the records it has reached, their settling gates
and the vectors of the last one only.  Making one runs no product; a zero A
is refused at its first restart.  Every solve runs on a path: a fresh one
drawn from its seed, or one the caller passes (``path=``) to solve several
tightening tolerances.  A solve on a passed path replays the log to count a
fresh solve's exact checks, then pulls new restarts, and returns exactly
the fresh solve's result.

``excluded_extremes`` reads the same records, on the trajectory of a single
start vector, for the two extremes of the spectrum past the d leading
eigenvalues.  It stops once its exact test holds for those two values: it
never evaluates the settling gate and tests no other residual.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from ._util import check_seed, order_by_magnitude
from .errors import DimensionMismatch, DomainError, NoConvergence
from .graph_model import DENSE_LIMIT, RANK_REL_TOL

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


class Operator(Protocol):
    """What the solver reads of A: its order n and the product x -> A x."""
    n: int
    def matvec(self, x: np.ndarray) -> np.ndarray: ...


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

    def __post_init__(self) -> None:
        gram = self.vectors.T @ self.vectors
        if np.linalg.norm(gram - np.eye(self.values.size)) > 1e-8:
            raise DimensionMismatch("Ritz vectors are not orthonormal")
        if self.converged:
            limit = self.tolerance_used * abs(self.values[0])
            if self.residual > limit * (1.0 + 1e-12):
                raise DimensionMismatch("converged result violates its own criterion")


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
    U: np.ndarray | None  # n x d Ritz vectors, one per column
    theta: np.ndarray  # their Ritz values
    G: np.ndarray | None  # rows A u - theta u, formed from W = A Q
    ritz: np.ndarray  # every Ritz value of the basis
    H: np.ndarray | None  # projected matrix Q^T A Q, dropped when a path logs it
    settled: bool | None = None  # the settling gate, set when a path logs the restart
    estimate: float | None = None  # ||G||_2, set when a path logs the restart
    residual: float | None = None  # exact residual, once a check needed it


def _restarts(A, d, m, seed, b=_BLOCK):
    """The thick-restart trajectory of one start block of width b, one
    restart at a time.

    Yields one ``_Iterate`` after each restart's Ritz extraction and
    evaluates no stopping rule: the tolerance appears nowhere here, so one
    trajectory serves every tolerance, and the d-path reads its settling
    gate off ``H``.  m >= d + 1 >= b, so a whole block always fits.
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

        # residuals of the top-d block, formed explicitly from W = A Q: the
        # algebraically equal Y^T (W^T W) Y - Theta^2 cancels catastrophically
        # and floors their norm near sqrt(eps) * |lambda|
        Ut = Yd.T @ Q[:j]
        G = Yd.T @ W[:j] - theta[:, None] * Ut
        # U = Ut.T is n x d with contiguous columns: residual_norm reads
        # them as rows without a copy
        yield _Iterate(matvecs, Ut.T, theta, G, all_theta, H)
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


def _settled(it: _Iterate) -> bool:
    # settling gate: a small residual alone can accept an iterate sitting
    # near the wrong invariant subspace, with a leading direction the basis
    # has barely reached replaced by a converged bulk vector.  Such iterates
    # betray themselves through leading Ritz values that still move as the
    # basis grows, so the d-path's stop also requires every selected value
    # to have settled over the last block step (a single row is only part
    # of a block step).  A value near zero is measured against
    # RANK_REL_TOL * |theta_1|: rounding moves it by far more than 1e-3 of
    # itself, and a tie at zero never settles otherwise
    theta, d, j = it.theta, it.theta.size, it.H.shape[0]
    if j <= d:
        return False
    p = max(j - _BLOCK, d)
    prev = np.linalg.eigvalsh(it.H[:p, :p])
    prev = prev[order_by_magnitude(prev)[:d]]
    floor = np.maximum(np.abs(theta), RANK_REL_TOL * abs(theta[0]))
    return bool(np.all(np.abs(theta - prev) <= _STABILIZE_RTOL * floor))


class RestartPath:
    """The restart trajectory of A's d leading eigenpairs from one start
    block, suspended, plus the log of its restarts so far.

    Making a path checks 1 <= d < n and the seed, which makes the path's
    generator: anything ``numpy.random.default_rng`` takes, an integer
    being non-negative.  It runs no product: the start block is drawn at the
    first restart, and a zero operator is refused there, unlogged.  Solve it
    with ``truncated_eigs(A, d, tol, path=path)`` at tolerances that tighten.

    Logging a restart sets its gate ``settled`` and drops ``H``.  Only the
    last restart logged keeps its vectors ``U`` and ``G``: a replay at a
    tighter tolerance reads no vector before it reaches that restart.
    """

    def __init__(self, A: Operator, d: int, seed=0):
        if not 1 <= d < A.n:
            raise DimensionMismatch(f"need 1 <= d < n, got d={d} with n={A.n}")
        check_seed(seed)
        self.A, self.d = A, d
        # working basis size held between restarts, in basis vectors
        self.m = min(max(2 * d + 5, 20), A.n)
        self.log: list[_Iterate] = []
        self.tol = math.inf  # the tightest tolerance solved on the path
        self._steps = _restarts(A, d, self.m, np.random.default_rng(seed))

    def pull(self) -> bool:
        """Run the trajectory to its next restart; False once the budget is spent."""
        it = next(self._steps, None)
        if it is None:
            return False
        if not it.ritz.any():  # H = Q^T A Q vanishes: A is zero on the basis
            raise DomainError("adjacency matrix is identically zero")
        if self.log:
            self.log[-1].U = self.log[-1].G = None
        it.settled, it.H = _settled(it), None
        it.estimate = _spectral_norm(it.G)
        self.log.append(it)
        return True


def truncated_eigs(
    A: Operator,
    d: int,
    tol: float,
    *,
    seed=0,
    path: RestartPath | None = None,
) -> SpectralDecomposition:
    """d leading eigenpairs of A by magnitude, to relative residual tol.

    Parameters
    ----------
    A : Operator
        Symmetric and nonzero, such as a ``SparseGraph`` with an edge.
    d : int
        Number of eigenpairs, 1 <= d < n.
    tol : float
        Relative residual target, positive and finite; the run stops once
        the spectral norm of A U - U S falls below tol times the largest
        Ritz value magnitude, which never exceeds ||A||.  After
        DEFAULT_MAX_RESTARTS restarts the last iterate is returned with
        ``converged`` False rather than raising.
    seed : int, numpy SeedSequence or Generator
        Drives the random start block of a fresh path; not read beside
        ``path``, whose own seed drew its start block.
    path : RestartPath, optional
        A path of this A (the same object) and d that has solved no
        tolerance tighter than tol.  The solve continues from the last
        restart it reached and returns exactly what a fresh solve from its
        seed would: ``iterations``, ``matvecs`` and every other field count
        the whole solve.  Any other path raises DomainError.
    """
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tolerance must be positive and finite, got {tol}")
    if path is None:
        path = RestartPath(A, d, seed)
    elif path.A is not A or path.d != d:
        raise DomainError("a restart path solves only the graph and d it was made for")
    elif tol > path.tol:
        raise DomainError("a restart path cannot loosen the tightest tolerance it solved")

    # a replay at a tolerance no looser than path.tol passes the earlier
    # stops, and any check it makes before the last logged restart failed
    # in an earlier, looser solve, so only that restart can lack a residual
    checks = k = 0
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
    path.tol = tol
    return SpectralDecomposition(
        values=it.theta.copy(),
        vectors=it.U.copy(order="C"),
        residual=it.residual,
        iterations=k,
        # an unconverged solve measures its final residual once more
        matvecs=it.matvecs + d * (checks + (not converged)),
        converged=converged,
        tolerance_used=tol,
    )


def excluded_extremes(A: Operator, d: int, seed=0) -> tuple[float, float] | None:
    """(mu_-, mu_+), the smallest and largest eigenvalues of A past its d
    leading ones by magnitude, or None.

    The run computes the d + k leading Ritz values.  Once the last k hold
    both signs, every other excluded eigenvalue, smaller in magnitude than
    each of them, lies between their smallest mu_- and their largest mu_+.
    So the pair brackets the excluded spectrum, and a value outside
    [mu_-, mu_+] is nearest to mu_- or mu_+ of all excluded eigenvalues.

    Only mu_+ and mu_- are returned, so the run stops on them alone.  It
    follows the restart trajectory of one start vector from ``seed``, which
    buys a higher polynomial degree per product than a block.  It stops at
    the first restart where, for both mu_+ and mu_-, residual^2 / gap is at
    most _EXTREMES_RTOL times |mu|, the gap being the distance to the
    nearest other Ritz value.  The residuals are read off the trajectory
    and confirmed exactly (two products) before the run stops.  When the
    last k values then hold one sign, k doubles from 3 and a wider run
    starts.  None when a run spends DEFAULT_MAX_RESTARTS restarts or d + k
    would reach n.
    """

    def exact(values, residuals, ritz):
        # the second smallest distance skips the value's own Ritz value
        gaps = [np.partition(np.abs(ritz - v), 1)[1] for v in values]
        return all(r * r <= _EXTREMES_RTOL * abs(v) * g
                   for v, r, g in zip(values, residuals, gaps))

    check_seed(seed)
    k = 3
    while d + k < A.n:
        m = min(max(2 * (d + k) + 5, _EXTREMES_BASIS), A.n)
        for it in _restarts(A, d + k, m, seed, b=1):
            excluded = it.theta[d:]
            pairs = d + np.array([excluded.argmin(), excluded.argmax()])
            mu = it.theta[pairs]
            if not exact(mu, np.linalg.norm(it.G[pairs], axis=1), it.ritz):
                continue
            G = _residual_rows(A, it.U.T[pairs], mu)  # two products
            if not exact(mu, [np.linalg.norm(g) for g in G], it.ritz):
                continue
            if mu[0] < 0.0 < mu[1]:
                return float(mu[0]), float(mu[1])
            break
        else:
            return None
        k *= 2
    return None


def estimate_spectral_norm(A: Operator, tol: float = 1e-6, *, seed=0) -> float:
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


def residual_norm(A: Operator, vectors: np.ndarray, values: np.ndarray) -> float:
    """Exact spectral norm of the thin residual A U - U S.

    Computed from the d x d Gram matrix of the residual columns, so the cost
    is d matrix-vector products plus O(n d^2).
    """
    U = np.asarray(vectors, dtype=float)
    s = np.asarray(values, dtype=float).reshape(-1)
    if U.ndim != 2 or U.shape[0] != A.n or U.shape[1] != s.size:
        raise DimensionMismatch("vectors must be n x d with one value per column")
    # one contiguous row per vector (free when U has contiguous columns)
    return _spectral_norm(_residual_rows(A, np.ascontiguousarray(U.T), s))


def _residual_rows(A: Operator, rows: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The rows A u - s u of Ritz vector rows u and values s: one product each."""
    return np.array([A.matvec(u) - s * u for u, s in zip(rows, values)])


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
