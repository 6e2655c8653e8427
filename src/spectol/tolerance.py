"""Stopping tolerances calibrated to the sampling noise of random graphs.

The guiding fact: the eigenvector fluctuation of a sampled graph around the
spectral truth of its probability matrix has a floor set by sampling noise,
so driving the solver's residual far below that floor buys nothing.  The
heuristics here place the tolerance just under the noise floor using only
cheap graph statistics.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NoConvergence
from .graph_model import RANK_REL_TOL, FactoredProbabilityMatrix, SparseGraph
from .spectral_core import RestartPath, SpectralDecomposition, truncated_eigs

# smallest vertex count for which log(log(n)) is safely above zero
MIN_HEURISTIC_N = 16
HEURISTIC_RULES = ("spectral", "sqrt_n", "conservative")


def check_heuristic_n(n: int) -> None:
    """Raise DomainError for a vertex count the heuristics are not defined at."""
    if n < MIN_HEURISTIC_N:
        raise DomainError(f"heuristic defined for n >= {MIN_HEURISTIC_N}, got {n}")


def heuristic_tolerance(n: int, spectral_norm: float) -> float:
    """1 / (log(log(n)) * sqrt(spectral_norm)), natural logarithms.

    Pass the top eigenvalue estimate of the adjacency matrix for the
    spectral variant, or n itself for the sqrt-n variant.
    """
    check_heuristic_n(n)
    if not spectral_norm > 0.0:
        raise DomainError("spectral norm must be positive")
    return 1.0 / (math.log(math.log(n)) * math.sqrt(spectral_norm))


def conservative_tolerance(A: SparseGraph) -> float:
    """1 / sqrt(max degree): safe before any eigenvalue has been computed."""
    if A.m == 0:
        raise DomainError("conservative tolerance needs at least one edge")
    return 1.0 / math.sqrt(float(A.degrees.max()))


@dataclass(frozen=True)
class ToleranceReport:
    """All tolerance recommendations for one graph."""

    spectral_norm_estimate: float
    delta_A: float
    heuristic_spectral: float
    heuristic_sqrt_n: float
    conservative: float


def report_from_solve(A: SparseGraph, dec: SpectralDecomposition) -> ToleranceReport:
    """The report of A read off ``dec``, a solve of A at the conservative
    tolerance: its largest Ritz magnitude is the estimate of lambda_1.

    Every heuristic spectol computes goes through here: ``tolerance_report``,
    ``solve_at_heuristic``, the sweep and ``check``.  Raises DomainError
    when ``dec`` stopped at another tolerance or n < MIN_HEURISTIC_N, and
    NoConvergence when ``dec`` did not converge.
    """
    conservative = conservative_tolerance(A)
    if dec.tolerance_used != conservative:
        raise DomainError("the report reads a solve at the conservative tolerance")
    if not dec.converged:
        raise NoConvergence(dec.iterations)  # an unconverged solve spent its budget
    lam1 = float(abs(dec.values[0]))
    return ToleranceReport(
        spectral_norm_estimate=lam1,
        delta_A=float(A.degrees.max()),
        heuristic_spectral=heuristic_tolerance(A.n, lam1),
        heuristic_sqrt_n=heuristic_tolerance(A.n, float(A.n)),
        conservative=conservative,
    )


def tolerance_report(A: SparseGraph, *, seed=0) -> ToleranceReport:
    """The report of A from a d = 1 solve at the conservative tolerance."""
    check_heuristic_n(A.n)
    dec = truncated_eigs(A, 1, conservative_tolerance(A), seed=seed)
    return report_from_solve(A, dec)


def solve_at_heuristic(
    A: SparseGraph, d: int, rule: str = "spectral", *, seed=0
) -> SpectralDecomposition:
    """d leading eigenpairs of A at the tolerance one rule sets, on one path.

    The d-dimensional problem is solved at the conservative tolerance
    1 / sqrt(max degree) first, and ``report_from_solve`` reads the
    heuristics off it.  A heuristic tighter than the conservative tolerance
    (always for ``sqrt_n``, and for ``spectral`` whenever lambda_1 (ln ln n)^2
    exceeds the max degree) is solved on the same ``RestartPath``; a looser
    one, as on hub-dominated graphs, returns the conservative solve, which
    already meets it, so ``tolerance_used`` is the conservative tolerance
    there.  ``conservative`` stops after the first solve.  Either way the
    result equals a fresh ``truncated_eigs(A, d, result.tolerance_used)``
    from an equal seed, whose ``matvecs`` leave out any residual check the
    conservative solve made where the heuristic makes none.  The path draws
    its start block once, so any seed ``truncated_eigs`` takes works.

    Raises DomainError before any solve for an unknown rule or
    n < MIN_HEURISTIC_N, and NoConvergence when the conservative solve,
    which the heuristic reads, exhausts its restart budget.
    """
    if rule not in HEURISTIC_RULES:
        raise DomainError(f"rule must be one of {', '.join(HEURISTIC_RULES)}")
    check_heuristic_n(A.n)
    path = RestartPath(A, d, seed)
    dec = truncated_eigs(A, d, conservative_tolerance(A), path=path)
    if rule == "conservative":
        return dec
    report = report_from_solve(A, dec)
    tol = report.heuristic_spectral if rule == "spectral" else report.heuristic_sqrt_n
    if tol > report.conservative:
        return dec  # a path cannot loosen, and this solve meets tol already
    return truncated_eigs(A, d, tol, path=path)


def expected_squared_deviation_diagonal(P: FactoredProbabilityMatrix) -> np.ndarray:
    """Diagonal of E[(A - P)^2] for one sampled graph, in closed form.

    Off-diagonal expectations vanish by edge independence; entry i equals
    sum over k != i of p_ik (1 - p_ik), plus p_ii^2 contributed by the
    never-sampled diagonal.  Computed in O(n d^2) from the factor.
    """
    X = P.latent.rows
    col_sum = X.sum(axis=0)
    G = X.T @ X
    row_p = X @ col_sum
    row_p2 = np.einsum("ij,jk,ik->i", X, G, X)
    p_ii = np.einsum("ij,ij->i", X, X)
    return row_p - row_p2 - p_ii + 2.0 * p_ii**2


def sampling_error_constant(P: FactoredProbabilityMatrix, d: int) -> float:
    """C(P): the scale of eigenvector fluctuation caused by edge sampling.

    C(P) = sqrt(tr(S^-1 V^T E[(A - P)^2] V S^-1)) over the d leading
    eigenpairs (S, V) of P.  Raises DomainError when the d-th eigenvalue
    is numerically zero relative to the first: at or below RANK_REL_TOL
    times it, the threshold ``check_assumptions`` counts the rank by.
    """
    values, vectors = P.eigendecomposition()
    if d < 1 or d > values.size:
        raise DomainError(
            f"rank-{d} constant requested from a factor with {values.size} columns"
        )
    lam1 = float(values[0])
    if lam1 <= 0.0 or values[d - 1] <= RANK_REL_TOL * lam1:
        raise DomainError(f"eigenvalue {d} is numerically zero")
    diag = expected_squared_deviation_diagonal(P)
    Vd = vectors[:, :d]
    weighted = (Vd**2 * diag[:, None]).sum(axis=0)
    return float(np.sqrt((weighted / values[:d] ** 2).sum()))
