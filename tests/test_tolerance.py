"""Tolerance heuristics and the sampling-error constant."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectol import (
    DimensionMismatch,
    DomainError,
    FactoredProbabilityMatrix,
    LatentPositions,
    NoConvergence,
    SbmSpec,
    SparseGraph,
    conservative_tolerance,
    estimate_spectral_norm,
    expected_squared_deviation_diagonal,
    heuristic_tolerance,
    sample_adjacency,
    sampling_error_constant,
    sbm_to_latent,
    solve_at_heuristic,
    tolerance_report,
    truncated_eigs,
)
from spectol import check_assumptions, graph_model, spectral_core, tolerance
from spectol.tolerance import HEURISTIC_RULES, report_from_solve

from conftest import assert_same_result
from oracles import exhaustive_sq_deviation, monte_carlo_sq_deviation

K2 = SparseGraph.from_edges(2, np.array([[0, 1]]))


class TestHeuristicTolerance:
    def test_youtube_scale_value(self):
        assert abs(heuristic_tolerance(1134890, 1134890.0) - 3.56e-4) <= 1e-6

    def test_benchmark_scale_value(self):
        h = heuristic_tolerance(900, 900.0)
        assert 2.0**-6 <= h <= 2.0**-5.5
        assert abs(h - 0.0173858) <= 1e-6

    def test_domain_boundary(self):
        expected = 1.0 / math.log(math.log(16.0))
        assert abs(heuristic_tolerance(16, 1.0) - expected) <= 1e-12
        assert abs(expected - 0.980602) <= 1e-6

    def test_rejects_small_n_and_bad_norm(self):
        with pytest.raises(DomainError):
            heuristic_tolerance(15, 100.0)
        with pytest.raises(DomainError):
            heuristic_tolerance(100, 0.0)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(min_value=16, max_value=10**9),
        st.floats(min_value=1e-6, max_value=1e6),
    )
    def test_algebraic_identity(self, n, s):
        h = heuristic_tolerance(n, s)
        assert abs(h * math.sqrt(s) * math.log(math.log(n)) - 1.0) <= 1e-12

    def test_rate_decreases_to_zero(self):
        ns = [16, 20, 50, 200, 1000, 10**4, 10**6, 10**8]
        rates = [heuristic_tolerance(n, float(n)) * math.sqrt(n) for n in ns]
        assert all(a > b for a, b in zip(rates, rates[1:]))
        assert rates[-1] < 0.35

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=16, max_value=10**8), st.integers(min_value=1, max_value=10**8))
    def test_rate_monotone_pairs(self, n, gap):
        lo = heuristic_tolerance(n + gap, float(n + gap)) * math.sqrt(n + gap)
        hi = heuristic_tolerance(n, float(n)) * math.sqrt(n)
        assert lo < hi


class TestConservativeTolerance:
    def test_single_edge(self):
        from spectol import conservative_tolerance

        assert conservative_tolerance(K2) == 1.0

    def test_star_hub(self):
        from spectol import conservative_tolerance

        edges = np.array([[0, i] for i in range(1, 101)])
        star = SparseGraph.from_edges(101, edges)
        assert conservative_tolerance(star) == 0.1

    def test_empty_graph(self):
        from spectol import conservative_tolerance

        edgeless = SparseGraph(3, np.zeros(4, dtype=np.int64), np.zeros(0, dtype=np.int64))
        with pytest.raises(DomainError, match="conservative tolerance needs"):
            conservative_tolerance(edgeless)


class TestToleranceReport:
    def test_block_model_report(self):
        B = np.full((3, 3), 0.02)
        np.fill_diagonal(B, 0.05)
        P = FactoredProbabilityMatrix(sbm_to_latent(SbmSpec(B, (300, 300, 300))))
        A = sample_adjacency(P, seed=6)
        report = tolerance_report(A)
        # spectral norm never exceeds the max degree, so the bootstrap
        # tolerance is the looser of the two
        assert report.spectral_norm_estimate <= report.delta_A
        assert report.conservative <= 1.0 / math.sqrt(report.spectral_norm_estimate)
        assert abs(report.heuristic_sqrt_n - 0.0173858) <= 1e-6
        assert report.heuristic_spectral > report.heuristic_sqrt_n

    def test_small_graph_fails_before_any_solve(self, monkeypatch):
        # the report refuses small n by the heuristics' own check and message
        monkeypatch.setattr(tolerance, "truncated_eigs", lambda *a, **k: pytest.fail())
        path = SparseGraph.from_edges(15, np.array([(i, i + 1) for i in range(14)]))
        with pytest.raises(DomainError, match="^heuristic defined for n >= 16, got 15$"):
            tolerance_report(path)

    @pytest.mark.parametrize("graph", range(6))
    def test_d1_report_equals_norm_estimate(self, three_block_900, graph):
        # the report's d = 1 solve gives the figures estimate_spectral_norm
        # gave it, bit for bit
        A = (
            sample_adjacency(three_block_900, seed=graph)
            if graph < 4
            else star_with_random_edges(seed=graph)
        )
        report = tolerance_report(A, seed=graph)
        lam1 = estimate_spectral_norm(A, tol=conservative_tolerance(A), seed=graph)
        assert report.spectral_norm_estimate == lam1
        assert report.heuristic_spectral == heuristic_tolerance(A.n, lam1)

    def test_report_reads_only_a_converged_conservative_solve(
        self, monkeypatch, three_block_900
    ):
        A = sample_adjacency(three_block_900, seed=0)
        conservative = conservative_tolerance(A)
        with pytest.raises(DomainError):
            report_from_solve(A, truncated_eigs(A, 3, conservative / 2, seed=0))
        # this graph and seed need three restarts at the conservative tolerance
        with monkeypatch.context() as budget:
            budget.setattr(spectral_core, "DEFAULT_MAX_RESTARTS", 1)
            unconverged = truncated_eigs(A, 3, conservative, seed=0)
        with pytest.raises(NoConvergence, match="within 1 restarts"):
            report_from_solve(A, unconverged)
        dec = truncated_eigs(A, 3, conservative, seed=0)
        report = report_from_solve(A, dec)
        assert report.spectral_norm_estimate == abs(dec.values[0])
        assert report.conservative == conservative


def star_with_random_edges(seed: int = 0) -> SparseGraph:
    """A 400-vertex star plus 600 random edges among its leaves.

    The hub's degree, 399, dwarfs lambda_1 (ln ln n)^2 (about 69), so the
    spectral heuristic is looser than the conservative tolerance.
    """
    rng = np.random.default_rng(seed)
    rows, cols = np.triu_indices(399, 1)
    pick = rng.choice(rows.size, size=600, replace=False)
    leaves = np.column_stack([rows[pick], cols[pick]]) + 1
    hub = np.column_stack([np.zeros(399, dtype=np.int64), np.arange(1, 400)])
    return SparseGraph.from_edges(400, np.vstack([hub, leaves]))


class TestSolveAtHeuristic:
    @pytest.mark.parametrize("rule", HEURISTIC_RULES)
    @pytest.mark.parametrize("graph", ["three_block", "star"])
    def test_equals_fresh_solve_at_the_rule(
        self, monkeypatch, three_block_900, graph, rule
    ):
        if graph == "three_block":
            A, d = sample_adjacency(three_block_900, seed=3), 3
        else:
            A, d = star_with_random_edges(), 2
        calls = []
        matvec = graph_model.SparseGraph.matvec
        with monkeypatch.context() as counting:
            counting.setattr(
                graph_model.SparseGraph, "matvec",
                lambda self, x: calls.append(1) or matvec(self, x),
            )
            dec = solve_at_heuristic(A, d, rule, seed=5)
        assert dec.converged
        # one restart path: every product run is one the result reports
        assert len(calls) == dec.matvecs
        assert_same_result(dec, truncated_eigs(A, d, dec.tolerance_used, seed=5))
        # the heuristic reads lambda_1 off the d-dimensional conservative solve
        conservative = conservative_tolerance(A)
        lam1 = abs(truncated_eigs(A, d, conservative, seed=5).values[0])
        expected = {
            "spectral": heuristic_tolerance(A.n, lam1),
            "sqrt_n": heuristic_tolerance(A.n, float(A.n)),
            "conservative": conservative,
        }[rule]
        # the three-block graph resumes the path; the star's spectral
        # heuristic is looser, and the conservative solve already meets it
        assert (expected > conservative) == (graph == "star" and rule == "spectral")
        assert dec.tolerance_used == min(expected, conservative)

    @pytest.mark.parametrize("rule", HEURISTIC_RULES)
    def test_small_graph_fails_before_any_solve(self, monkeypatch, rule):
        monkeypatch.setattr(tolerance, "truncated_eigs", lambda *a, **k: pytest.fail())
        path = SparseGraph.from_edges(15, np.array([(i, i + 1) for i in range(14)]))
        with pytest.raises(DomainError):
            solve_at_heuristic(path, 1, rule)

    @pytest.mark.parametrize("rule", HEURISTIC_RULES)
    @pytest.mark.parametrize("seed", [None, "generator"])
    def test_any_seed_solves(self, three_block_900, rule, seed):
        # these seeds were refused: the heuristic rules continue the
        # conservative solve's path, which a new start block per call broke
        A = sample_adjacency(three_block_900, seed=3)
        if seed is None:
            assert solve_at_heuristic(A, 3, rule, seed=None).converged
            return
        dec = solve_at_heuristic(A, 3, rule, seed=np.random.default_rng(0))
        assert dec.converged
        fresh = truncated_eigs(A, 3, dec.tolerance_used, seed=np.random.default_rng(0))
        assert_same_result(dec, fresh)

    def test_unconverged_bootstrap_raises(self, monkeypatch, three_block_900):
        # this graph and seed need three restarts at the conservative tolerance
        A = sample_adjacency(three_block_900, seed=0)
        monkeypatch.setattr(spectral_core, "DEFAULT_MAX_RESTARTS", 1)
        with pytest.raises(NoConvergence):
            solve_at_heuristic(A, 3, "spectral", seed=0)
        assert not solve_at_heuristic(A, 3, "conservative", seed=0).converged

    def test_unknown_rule_rejected(self):
        with pytest.raises(DomainError):
            solve_at_heuristic(star_with_random_edges(), 1, "degree")

    def test_negative_seed_rejected(self):
        with pytest.raises(DomainError, match="seed must be non-negative"):
            solve_at_heuristic(star_with_random_edges(), 1, seed=-1)


class TestExpectedSquaredDeviation:
    def test_two_vertex_value(self):
        X = LatentPositions(np.array([[0.5], [0.5]]))
        diag = expected_squared_deviation_diagonal(FactoredProbabilityMatrix(X))
        assert np.abs(diag - 0.25).max() <= 1e-14

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(2)
        for n in (3, 4):
            Xr = rng.random((n, 2)) * 0.5
            P = FactoredProbabilityMatrix(LatentPositions(Xr))
            exact = exhaustive_sq_deviation(Xr @ Xr.T)
            diag = expected_squared_deviation_diagonal(P)
            assert np.abs(diag - np.diag(exact)).max() <= 1e-12
            off = exact - np.diag(np.diag(exact))
            assert np.abs(off).max() <= 1e-12

    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(3)
        Xr = rng.random((6, 2)) * 0.6
        P = FactoredProbabilityMatrix(LatentPositions(Xr))
        mc, se = monte_carlo_sq_deviation(Xr @ Xr.T, samples=2000, seed=9)
        diag = expected_squared_deviation_diagonal(P)
        tol = 5.0 * np.maximum(np.diag(se), 1e-12)
        assert np.all(np.abs(diag - np.diag(mc)) <= tol)


class TestSamplingErrorConstant:
    def test_two_vertex_unit_constant(self):
        X = LatentPositions(np.array([[0.5], [0.5]]))
        assert abs(sampling_error_constant(FactoredProbabilityMatrix(X), 1) - 1.0) <= 1e-12

    def test_deterministic_edges_reduce_to_diagonal_term(self):
        # two orthogonal unit blocks: every p_ij is 0 or 1, all Bernoulli
        # variance vanishes and only the hollow-diagonal p_ii^2 term remains
        n1, n2 = 3, 5
        rows = np.zeros((n1 + n2, 2))
        rows[:n1, 0] = 1.0
        rows[n1:, 1] = 1.0
        P = FactoredProbabilityMatrix(LatentPositions(rows))
        expected = math.sqrt(1.0 / n1**2 + 1.0 / n2**2)
        assert abs(sampling_error_constant(P, 2) - expected) <= 1e-12

    def test_orthogonal_invariance(self):
        rng = np.random.default_rng(4)
        Xr = rng.random((30, 3)) * 0.3
        W, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        a = sampling_error_constant(FactoredProbabilityMatrix(LatentPositions(Xr)), 3)
        b = sampling_error_constant(FactoredProbabilityMatrix(LatentPositions(Xr @ W)), 3)
        assert abs(a - b) <= 1e-10

    def test_rank_deficient_rejected(self):
        rows = np.full((4, 2), 0.4)
        with pytest.raises(DomainError, match="eigenvalue 2 is numerically zero"):
            sampling_error_constant(FactoredProbabilityMatrix(LatentPositions(rows)), 2)
        # a d past the factor's width is a rank below d as well
        with pytest.raises(DomainError, match="eigenvalue 3 is numerically zero"):
            sampling_error_constant(FactoredProbabilityMatrix(LatentPositions(rows)), 3)

    def test_dimension_checked_as_the_solver_checks_it(self):
        # True computed d = 1, and a float d raised IndexError
        P = FactoredProbabilityMatrix(sbm_to_latent(SbmSpec([[0.5, 0.1], [0.1, 0.5]], (4, 4))))
        for d in (0, True, np.True_, 1.5, 2.0, "2", None, P.n):
            with pytest.raises(DimensionMismatch, match="need an integer 1 <= d < n"):
                sampling_error_constant(P, d)

    def test_rank_threshold_shared_with_check_assumptions(self):
        # orthogonal columns give lambda_1 = n / 4 and lambda_2 = n e^2, so
        # lambda_2 / lambda_1 = 4 e^2 = 1e-9: below the rank threshold
        e = math.sqrt(2.5e-10)
        rows = np.array([[0.5, e], [0.5, -e], [0.5, e], [0.5, -e]])
        P = FactoredProbabilityMatrix(LatentPositions(rows))
        values, _ = P.eigendecomposition()
        assert values[1] / values[0] == pytest.approx(1e-9, rel=1e-6)
        assert check_assumptions(P, 2).rank == 1
        with pytest.raises(DomainError, match="eigenvalue 2 is numerically zero"):
            sampling_error_constant(P, 2)

