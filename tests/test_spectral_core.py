"""Solver correctness against the dense oracle and its own invariants."""
from __future__ import annotations

import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectol import (
    DimensionMismatch,
    DomainError,
    FactoredProbabilityMatrix,
    NoConvergence,
    RestartPath,
    SbmSpec,
    SparseGraph,
    canonical_angles,
    dense_eig_oracle,
    estimate_spectral_norm,
    residual_norm,
    sample_adjacency,
    sbm_to_latent,
    spectral_core,
    truncated_eigs,
)
from spectol.graph_model import DENSE_LIMIT

from conftest import assert_same_result
from oracles import column_major_solve, ritz_gap_rho

K2 = SparseGraph.from_edges(2, np.array([[0, 1]]))
K5 = SparseGraph.from_edges(5, np.array([(i, j) for i in range(5) for j in range(i + 1, 5)]))


def random_graph(n: int, p: float, seed: int) -> SparseGraph:
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((n, n)) < p, 1)
    rows, cols = np.nonzero(upper)
    return SparseGraph.from_edges(n, np.column_stack([rows, cols]))


class TestMatvec:
    def test_single_edge_swap(self):
        assert np.array_equal(K2.matvec(np.array([1.0, 0.0])), [0.0, 1.0])

    def test_empty_graph(self):
        empty = SparseGraph(3, np.zeros(4, dtype=np.int64), np.zeros(0, dtype=np.int64))
        assert np.array_equal(empty.matvec(np.array([1.0, 2.0, 3.0])), np.zeros(3))

    def test_matches_dense_product(self):
        A = random_graph(200, 0.1, seed=3)
        Ad = A.to_dense()
        rng = np.random.default_rng(0)
        for _ in range(5):
            v = rng.standard_normal(200)
            assert np.abs(A.matvec(v) - Ad @ v).max() <= 1e-12

    def test_wrong_length(self):
        with pytest.raises(DimensionMismatch):
            K2.matvec(np.ones(3))


class TestEstimateSpectralNorm:
    def test_single_edge(self):
        assert abs(estimate_spectral_norm(K2) - 1.0) <= 1e-6

    def test_complete_graph(self):
        K4 = SparseGraph.from_edges(4, np.array([(i, j) for i in range(4) for j in range(i + 1, 4)]))
        assert abs(estimate_spectral_norm(K4) - 3.0) <= 1e-6

    def test_block_model_against_oracle(self):
        B = np.full((3, 3), 0.02)
        np.fill_diagonal(B, 0.05)
        P = FactoredProbabilityMatrix(sbm_to_latent(SbmSpec(B, (300, 300, 300))))
        A = sample_adjacency(P, seed=4)
        lam1 = float(dense_eig_oracle(A.to_dense())[0][0])
        assert abs(estimate_spectral_norm(A, tol=1e-8) - lam1) <= 1e-6 * lam1

    def test_spent_budget_raises(self, monkeypatch):
        monkeypatch.setattr(spectral_core, "DEFAULT_MAX_RESTARTS", 1)
        with pytest.raises(NoConvergence, match="within 1 restarts") as excinfo:
            estimate_spectral_norm(random_graph(200, 0.1, seed=11), tol=1e-12)
        assert excinfo.value.max_iters == 1


class TestTruncatedEigs:
    def test_single_edge_pair(self):
        dec = truncated_eigs(K2, 1, 1e-10)
        assert dec.converged
        assert abs(dec.values[0] - 1.0) <= 1e-9
        v = dec.vectors[:, 0]
        target = np.ones(2) / np.sqrt(2.0)
        assert min(np.abs(v - target).max(), np.abs(v + target).max()) <= 1e-8
        assert dec.residual <= 1e-10 * abs(dec.values[0])

    def test_complete_graph_top_pair(self):
        dec = truncated_eigs(K5, 1, 1e-10)
        assert abs(dec.values[0] - 4.0) <= 1e-9
        v = dec.vectors[:, 0]
        target = np.ones(5) / np.sqrt(5.0)
        assert min(np.abs(v - target).max(), np.abs(v + target).max()) <= 1e-8

    def test_zero_graph_rejected(self):
        empty = SparseGraph(4, np.zeros(5, dtype=np.int64), np.zeros(0, dtype=np.int64))
        with pytest.raises(DomainError, match="adjacency matrix is identically zero"):
            truncated_eigs(empty, 1, 1e-6)

    def test_negative_seed_rejected(self):
        # numpy would refuse it with a ValueError of its own
        with pytest.raises(DomainError, match="seed must be non-negative"):
            truncated_eigs(K5, 1, 0.1, seed=-1)

    @pytest.mark.parametrize("tol", [math.inf, float("1e309"), math.nan, 0.0, -0.1])
    def test_tolerance_must_be_positive_and_finite(self, tol):
        # an infinite tolerance was accepted and reported as tol=inf
        with pytest.raises(DomainError, match="positive"):
            truncated_eigs(K5, 1, tol)

    def test_dimension_bounds(self):
        with pytest.raises(DimensionMismatch):
            truncated_eigs(K2, 2, 1e-6)
        with pytest.raises(DimensionMismatch):
            truncated_eigs(K2, 0, 1e-6)

    def test_matches_oracle_small_batch(self):
        for seed in range(5):
            A = random_graph(100, 0.4, seed=seed)
            dec = truncated_eigs(A, 5, 1e-10, seed=seed)
            vals, vecs = dense_eig_oracle(A.to_dense())
            assert dec.converged
            assert np.abs(dec.values - vals[:5]).max() <= 1e-8
            _, sin_fro = canonical_angles(dec.vectors, vecs[:, :5])
            assert sin_fro <= 1e-6

    def test_matvec_count_monotone_in_tolerance(self):
        A = random_graph(150, 0.15, seed=9)
        counts = [
            truncated_eigs(A, 4, tol, seed=5).matvecs
            for tol in (2.0**-2, 2.0**-6, 2.0**-10, 2.0**-14)
        ]
        assert all(a <= b for a, b in zip(counts, counts[1:]))

    def test_deterministic_given_seed(self):
        A = random_graph(80, 0.2, seed=1)
        d1 = truncated_eigs(A, 3, 1e-8, seed=7)
        d2 = truncated_eigs(A, 3, 1e-8, seed=7)
        assert np.array_equal(d1.values, d2.values)
        assert np.array_equal(d1.vectors, d2.vectors)
        assert d1.matvecs == d2.matvecs

    def test_orthonormal_output(self):
        A = random_graph(120, 0.1, seed=2)
        dec = truncated_eigs(A, 6, 1e-8)
        gram = dec.vectors.T @ dec.vectors
        assert np.linalg.norm(gram - np.eye(6)) <= 1e-8

    def test_tight_tolerance_agreement(self):
        # graphs whose relative eigengap at the cut exceeds 1e-4
        for seed in (0, 4):
            A = random_graph(90, 0.3, seed=seed)
            vals, vecs = dense_eig_oracle(A.to_dense())
            gap = (abs(vals[2]) - abs(vals[3])) / abs(vals[0])
            if gap < 1e-4:
                continue
            dec = truncated_eigs(A, 3, 1e-12, seed=seed)
            _, sin_fro = canonical_angles(dec.vectors, vecs[:, :3])
            assert sin_fro <= 1e-8

    def test_matches_eigsh_above_dense_limit(self):
        sp = pytest.importorskip("scipy.sparse")
        eigsh = pytest.importorskip("scipy.sparse.linalg").eigsh
        # a three-block model at n = 20,000: expected degree 16 within the
        # block plus about 2 across; its planted eigenvalues (18.5, 15.1 and
        # 14.4 in expectation) clear the bulk (radius about 9).  Each block
        # pair gets a Poisson number of uniform vertex pairs, repeats merged.
        sizes = np.array([10_000, 6_000, 4_000])
        B = np.full((3, 3), 2e-4)
        B[np.diag_indices(3)] = 16.0 / sizes
        n = int(sizes.sum())
        assert n > DENSE_LIMIT
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        rng = np.random.default_rng(0)
        drawn = []
        for a in range(3):
            for c in range(a, 3):
                count = rng.poisson(B[a, c] * sizes[a] * sizes[c] / (1 + (a == c)))
                drawn.append(np.column_stack([
                    offsets[a] + rng.integers(sizes[a], size=count),
                    offsets[c] + rng.integers(sizes[c], size=count),
                ]))
        pairs = np.concatenate(drawn)
        pairs = np.sort(pairs[pairs[:, 0] != pairs[:, 1]], axis=1)
        codes = np.unique(pairs[:, 0] * n + pairs[:, 1])
        A = SparseGraph.from_edges(n, np.column_stack([codes // n, codes % n]))

        d, tol = 3, 1e-6
        dec = truncated_eigs(A, d, tol, seed=0)
        M = sp.csr_matrix((np.ones(A.indices.size), A.indices, A.indptr), shape=(n, n))
        w, V = eigsh(M, k=d + 1, which="LM", tol=0, v0=np.ones(n))
        order = np.argsort(-np.abs(w))
        w, V = w[order], V[:, order]
        # the contract: residual <= tol |theta_1| <= tol ||A||
        assert dec.converged
        assert dec.residual <= tol * abs(w[0])
        # each Ritz value lies within the residual of its eigenvalue
        # (eigsh at tol=0 is exact to rounding, a few eps ||A||)
        assert np.all(np.abs(dec.values - w[:d]) <= dec.residual + 1e-12 * abs(w[0]))
        # Davis-Kahan: the rest of the spectrum lies within |lambda_(d+1)|
        gap = np.abs(dec.values).min() - abs(w[d])
        assert gap > 0
        _, sin_fro = canonical_angles(dec.vectors, V[:, :d])
        assert sin_fro <= np.sqrt(d) * dec.residual / gap + 1e-10

    @pytest.mark.parametrize("tol", [1e-6, 1e-10])
    @pytest.mark.parametrize("seed", ["int", "sweep solver stream"])
    def test_ritz_value_at_zero_settles(self, seed, tol):
        # the 20-cycle at d = n - 1: its 19th eigenvalue by magnitude is 0,
        # tied with the 20th, and rounding moves a zero Ritz value by far
        # more than 1e-3 of itself.  The tie makes the subspace non-unique,
        # so the values are checked, not the vectors.
        n = 20
        cycle = SparseGraph.from_edges(n, np.array([(i, (i + 1) % n) for i in range(n)]))
        seed = 0 if seed == "int" else np.random.SeedSequence(0).spawn(2)[1]
        dec = truncated_eigs(cycle, n - 1, tol, seed=seed)
        assert dec.converged
        assert dec.iterations < 10
        want, _ = dense_eig_oracle(cycle.to_dense())
        assert np.abs(np.sort(dec.values) - np.sort(want[: n - 1])).max() <= 1e-12

    def test_budget_exhaustion_returns_flagged_best(self, monkeypatch):
        monkeypatch.setattr(spectral_core, "DEFAULT_MAX_RESTARTS", 1)
        A = random_graph(200, 0.1, seed=11)
        dec = truncated_eigs(A, 4, 1e-12, seed=0)
        assert not dec.converged
        assert dec.iterations == 1
        assert dec.residual > 0.0
        gram = dec.vectors.T @ dec.vectors
        assert np.linalg.norm(gram - np.eye(4)) <= 1e-8


def assert_chain_matches_fresh(A, d, tolerances, seed, path=None) -> list:
    """Solve decreasing tolerances on one restart path (a new one from
    ``seed`` unless given) and check each result against a fresh solve;
    returns the chained results."""
    if path is None:
        path = RestartPath(A, d, seed)
    chained = []
    for tol in sorted(tolerances, reverse=True):
        dec = truncated_eigs(A, d, tol, path=path)
        assert_same_result(dec, truncated_eigs(A, d, tol, seed=seed))
        chained.append(dec)
    return chained


SWEPT = tuple(2.0**-k for k in range(1, 21)) + (1e-6,)


class TestResume:
    def test_sweep_replicate(self, three_block_900):
        # replicate 0 of the n = 900 benchmark sweep, seeded as the harness does
        graph_ss, solver_ss = np.random.SeedSequence(0).spawn(2)
        A = sample_adjacency(three_block_900, graph_ss)
        chained = assert_chain_matches_fresh(A, 3, SWEPT, seed=solver_ss)
        assert all(dec.converged for dec in chained)
        # most tighter tolerances stop at a restart a looser one reached
        assert len({dec.iterations for dec in chained}) < len(chained)

    def test_path_log_holds_no_vectors(self, three_block_900):
        # only the last restart of a path keeps its n-sized arrays
        graph_ss, solver_ss = np.random.SeedSequence(0).spawn(2)
        A = sample_adjacency(three_block_900, graph_ss)
        path = RestartPath(A, 3, solver_ss)
        for tol in SWEPT[:20]:
            truncated_eigs(A, 3, tol, path=path)
        assert len(path.log) > 1 and path.log[-1].U is not None
        assert all(it.U is None and it.G is None for it in path.log[:-1])

    @pytest.mark.parametrize("repetition", [4, 6])
    def test_clustering_study_repetitions(self, three_block_900, repetition):
        # the criterion-8 graph and solver seeds, swept tolerances plus the
        # reference
        graph = sample_adjacency(three_block_900, 0)
        solver_ss = np.random.SeedSequence(repetition).spawn(2)[0]
        tols = tuple(2.0**-k for k in range(1, 13)) + (1e-6,)
        assert_chain_matches_fresh(graph, 3, tols, seed=solver_ss)

    def test_chain_ending_unconverged(self, monkeypatch):
        monkeypatch.setattr(spectral_core, "DEFAULT_MAX_RESTARTS", 3)
        A = random_graph(200, 0.1, seed=11)
        chained = assert_chain_matches_fresh(A, 4, SWEPT, seed=0)
        assert chained[0].converged and not chained[-1].converged
        assert chained[-1].iterations == 3

    def test_failed_checks_replayed(self, monkeypatch):
        # At the rounding floor the residual estimate from W = A Q can pass
        # while the exact residual fails.  A fresh solve pays d products for
        # every such failed check, so a solve on a path must count again the
        # checks its tighter tolerance still makes at logged restarts.  The
        # tolerances sit just above the smallest logged estimates (read
        # from the path's log), so every solve makes such checks.
        monkeypatch.setattr(spectral_core, "DEFAULT_MAX_RESTARTS", 40)
        A = random_graph(200, 0.1, seed=11)
        probe = RestartPath(A, 4, 0)
        truncated_eigs(A, 4, 1e-18, path=probe)
        floor = sorted(s.estimate / abs(s.theta[0]) for s in probe.log)[:8]
        tols = [f * (1.0 + 1e-9) for f in floor]
        tightest = min(tols)
        path = RestartPath(A, 4, 0)
        last = assert_chain_matches_fresh(A, 4, tols, seed=0, path=path)[-1]
        # the tightest solve did replay checks that failed before its stop
        assert any(
            s.settled and s.estimate <= tightest * abs(s.theta[0])
            for s in path.log[: last.iterations - 1]
        )

    def test_basis_fills_the_space(self):
        path6 = SparseGraph.from_edges(6, np.array([(i, i + 1) for i in range(5)]))
        chained = assert_chain_matches_fresh(
            path6, 2, tuple(2.0**-k for k in range(1, 41)), seed=3
        )
        assert chained[-1].converged
        # the first restart's basis is the whole space: its Ritz values are
        # the whole spectrum
        ritz = next(spectral_core._restarts(path6, 2, path6.n, 3)).ritz
        spectrum = np.linalg.eigvalsh(path6.to_dense())
        assert np.allclose(np.sort(ritz), spectrum, rtol=0.0, atol=1e-12)
        assert np.allclose(chained[-1].values, spectrum[[-1, 0]], rtol=0.0, atol=1e-12)

    def test_misuse_raises(self):
        A = random_graph(150, 0.15, seed=9)
        path = RestartPath(A, 3, 5)
        truncated_eigs(A, 3, 2.0**-4, path=path)
        for kwargs in (
            {"A": random_graph(150, 0.15, seed=9)},  # equal graph, other object
            {"d": 4},
            {"tol": 2.0**-3},  # looser than the path has solved
        ):
            args = {"A": A, "d": 3, "tol": 2.0**-8, **kwargs}
            with pytest.raises(DomainError, match="restart path"):
                truncated_eigs(args["A"], args["d"], args["tol"], path=path)
        # beside a path the seed is not read: the path's seed drew the start
        assert_same_result(
            truncated_eigs(A, 3, 2.0**-8, seed=6, path=path),
            truncated_eigs(A, 3, 2.0**-8, seed=5),
        )
        # the path has solved 2^-8, so 2^-6 is refused
        with pytest.raises(DomainError, match="cannot loosen"):
            truncated_eigs(A, 3, 2.0**-6, path=path)
        # the refused calls left the path usable
        assert_same_result(
            truncated_eigs(A, 3, 2.0**-12, path=path),
            truncated_eigs(A, 3, 2.0**-12, seed=5),
        )

    def test_equal_tolerance_and_int_seed(self):
        A = random_graph(80, 0.2, seed=1)
        path = RestartPath(A, 3, 7)
        first = truncated_eigs(A, 3, 1e-4, path=path)
        assert_same_result(truncated_eigs(A, 3, 1e-4, path=path), first)


class TestRestartPath:
    def test_making_a_path_runs_no_product(self, monkeypatch):
        A = random_graph(150, 0.15, seed=9)
        calls = []
        matvec = SparseGraph.matvec
        monkeypatch.setattr(SparseGraph, "matvec", lambda G, x: calls.append(1) or matvec(G, x))
        path = RestartPath(A, 3, np.random.default_rng(0))
        assert calls == [] and path.log == [] and path.m == 20
        dec = truncated_eigs(A, 3, 2.0**-6, path=path)
        assert len(calls) == dec.matvecs

    def test_inputs_checked_where_the_path_is_made(self):
        # a bool d solved d = 1, and a float one failed in a slice
        for d in (0, 5, -1, True, np.True_, 2.0, "2", None):
            with pytest.raises(DimensionMismatch, match="need an integer 1 <= d < n"):
                RestartPath(K5, d)
            with pytest.raises(DimensionMismatch, match="need an integer 1 <= d < n"):
                truncated_eigs(K5, d, 0.1)
        with pytest.raises(DomainError, match="seed must be non-negative"):
            RestartPath(K5, 1, seed=-1)
        with pytest.raises(TypeError):  # numpy's refusal, before any solve
            RestartPath(K5, 1, seed="x")

    def test_zero_operator_refused_at_the_first_restart(self):
        # making a path reads only n, so an edgeless graph gets a path; its
        # first restart has Ritz values all zero, which is refused unlogged,
        # so every later solve on the path is refused too
        empty = SparseGraph(4, np.zeros(5, dtype=np.int64), np.zeros(0, dtype=np.int64))
        path = RestartPath(empty, 1)
        for _ in range(2):
            with pytest.raises(DomainError, match="adjacency matrix is identically zero"):
                truncated_eigs(empty, 1, 1e-6, path=path)
            assert path.log == []
        assert spectral_core.excluded_extremes(empty, 1) is None

    @pytest.mark.parametrize("seed", [None, "generator"])
    def test_any_seed_continues(self, seed):
        # a path draws its start block once, so a seed that draws a new one
        # on every call still gives a chain of fresh solves: of an equal
        # generator, or of the path's own first solve for None
        A = random_graph(150, 0.15, seed=9)
        if seed is None:
            path = RestartPath(A, 3, None)
            loose = truncated_eigs(A, 3, 2.0**-4, path=path)
            tight = truncated_eigs(A, 3, 2.0**-10, path=path)
            assert tight.converged and tight.iterations >= loose.iterations
        else:
            path = RestartPath(A, 3, np.random.default_rng(3))
            for tol in (2.0**-4, 2.0**-10):
                assert_same_result(
                    truncated_eigs(A, 3, tol, path=path),
                    truncated_eigs(A, 3, tol, seed=np.random.default_rng(3)),
                )

    def test_result_does_not_hold_its_path(self):
        # the result keeps its d vectors, not the solver's basis
        A = random_graph(150, 0.15, seed=9)
        path = RestartPath(A, 3, 5)
        dec = truncated_eigs(A, 3, 2.0**-6, path=path)
        ref = weakref.ref(path)
        del path
        assert ref() is None
        assert_same_result(dec, truncated_eigs(A, 3, 2.0**-6, seed=5))


class ShiftedGraph:
    """c I - A with c the maximum degree, so that no eigenvalue is negative."""

    def __init__(self, A: SparseGraph):
        self.A, self.n, self.c = A, A.n, float(A.degrees.max())
        self.dense = self.c * np.eye(A.n) - A.to_dense()

    def matvec(self, x):
        return self.c * x - self.A.matvec(x)


class DenseOperator:
    """A dense symmetric matrix behind the two members the solver reads."""

    def __init__(self, M: np.ndarray):
        self.n, self.dense = M.shape[0], M

    def matvec(self, x):
        return self.dense @ x


def random_symmetric(n: int, seed: int) -> np.ndarray:
    G = np.random.default_rng(seed).standard_normal((n, n))
    return (G + G.T) / 2.0


OPERATORS = {
    "shifted graph": lambda: ShiftedGraph(random_graph(60, 0.2, seed=4)),
    "dense 60 x 60": lambda: DenseOperator(random_symmetric(60, seed=2)),
}


class TestOperator:
    """The solver reads only ``n`` and ``matvec``: operators that are not
    graphs against ``np.linalg.eigh`` of their dense matrix."""

    @pytest.mark.parametrize("name", OPERATORS)
    def test_path_continues_as_fresh_solves(self, name):
        op = OPERATORS[name]()
        assert_chain_matches_fresh(op, 3, (2.0**-4, 2.0**-12), seed=1)

    @pytest.mark.parametrize("name", OPERATORS)
    def test_ritz_values_within_the_residual_of_an_eigenvalue(self, name):
        op = OPERATORS[name]()
        spectrum = np.linalg.eigh(op.dense)[0]
        for tol in (2.0**-2, 2.0**-12):
            dec = truncated_eigs(op, 3, tol, seed=1)
            for theta in dec.values:
                assert np.abs(spectrum - theta).min() <= dec.residual + 1e-12

    @pytest.mark.parametrize("name", OPERATORS)
    def test_residual_norm_matches_the_dense_residual(self, name):
        op = OPERATORS[name]()
        dec = truncated_eigs(op, 3, 2.0**-3, seed=1)
        U, s = dec.vectors, dec.values
        direct = np.linalg.norm(op.dense @ U - U * s, 2)
        assert abs(residual_norm(op, U, s) - direct) <= 1e-12 * max(1.0, direct)
        assert abs(dec.residual - direct) <= 1e-12 * max(1.0, direct)

    @pytest.mark.parametrize("name", OPERATORS)
    def test_excluded_extremes_match_the_dense_spectrum(self, name):
        op = OPERATORS[name]()
        spectrum = np.linalg.eigh(op.dense)[0]
        excluded = spectrum[np.argsort(-np.abs(spectrum), kind="stable")][3:]
        bracket = spectral_core.excluded_extremes(op, 3, 0)
        if excluded.min() >= 0.0:
            # c I - A has no negative eigenvalue, so no bracket holds both signs
            assert bracket is None
            return
        assert bracket is not None
        for got, want in zip(bracket, (excluded.min(), excluded.max())):
            assert abs(got - want) <= 1e-13 * abs(want)


class TestRowMajorBasis:
    @pytest.mark.parametrize("case", ["sweep replicate", "clustering study", "path graph"])
    def test_matches_column_major_oracle(self, three_block_900, case):
        # replicate 0 of the seed-0 n = 900 sweep, repetition 4 of the
        # criterion-8 study, and a 6-vertex path whose basis fills the space
        if case == "sweep replicate":
            graph_ss, seed = np.random.SeedSequence(0).spawn(2)
            A, d = sample_adjacency(three_block_900, graph_ss), 3
            tolerances = [2.0**-k for k in range(1, 21)]
        elif case == "clustering study":
            A, d = sample_adjacency(three_block_900, 0), 3
            seed = np.random.SeedSequence(4).spawn(2)[0]
            tolerances = [2.0**-k for k in range(1, 13)] + [1e-6]
        else:
            A = SparseGraph.from_edges(6, np.array([(i, i + 1) for i in range(5)]))
            d, seed = 2, 3
            tolerances = [2.0**-k for k in range(1, 41)]
        for tol in tolerances:
            got = truncated_eigs(A, d, tol, seed=seed)
            want = column_major_solve(A, d, tol, seed=seed)
            assert (got.iterations, got.matvecs, got.converged) == (
                want["iterations"], want["matvecs"], want["converged"]
            )
            assert np.all(np.abs(got.values - want["values"])
                          <= 1e-12 * np.abs(want["values"]))
            # the two layouts sum in different orders; rounding moves a Ritz
            # vector by about eps over the relative eigengap (2e-3 here)
            signs = np.sign(np.sum(got.vectors * want["vectors"], axis=0))
            assert np.abs(got.vectors - want["vectors"] * signs).max() <= 1e-10


class TestResidualNorm:
    def test_exact_eigenpairs(self):
        A = random_graph(40, 0.3, seed=6)
        vals, vecs = dense_eig_oracle(A.to_dense())
        assert residual_norm(A, vecs[:, :4], vals[:4]) <= 1e-12

    def test_hand_computed_column(self):
        U = np.array([[1.0], [0.0]])
        assert abs(residual_norm(K2, U, np.array([0.0])) - 1.0) <= 1e-12

    def test_matches_dense_svd(self):
        A = random_graph(80, 0.25, seed=8)
        Ad = A.to_dense()
        vals, vecs = dense_eig_oracle(Ad)
        rng = np.random.default_rng(0)
        U, _ = np.linalg.qr(vecs[:, :3] + 0.01 * rng.standard_normal((80, 3)))
        s = vals[:3]
        direct = np.linalg.svd(Ad @ U - U * s, compute_uv=False)[0]
        assert abs(residual_norm(A, U, s) - direct) <= 1e-10

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            residual_norm(K2, np.ones((3, 1)), np.array([1.0]))


class TestDenseEigOracle:
    def test_diagonal_matrix(self):
        vals, vecs = dense_eig_oracle(np.diag([3.0, 1.0, 2.0]))
        assert np.array_equal(vals, [3.0, 2.0, 1.0])
        expected_cols = [0, 2, 1]
        for out_col, e_col in enumerate(expected_cols):
            col = vecs[:, out_col]
            assert abs(abs(col[e_col]) - 1.0) <= 1e-12

    def test_two_cycle(self):
        vals, vecs = dense_eig_oracle(np.array([[0.0, 1.0], [1.0, 0.0]]))
        # the +1 branch must come first on the magnitude tie
        assert np.array_equal(vals, [1.0, -1.0])
        for col, sign in ((vecs[:, 0], 1.0), (vecs[:, 1], -1.0)):
            target = np.array([1.0, sign]) / np.sqrt(2.0)
            assert min(np.abs(col - target).max(), np.abs(col + target).max()) <= 1e-12

    def test_reconstruction_residuals(self):
        rng = np.random.default_rng(12)
        M = rng.standard_normal((50, 50))
        M = M + M.T
        vals, vecs = dense_eig_oracle(M)
        assert np.linalg.norm(M - (vecs * vals) @ vecs.T) <= 1e-10 * np.linalg.norm(M)
        assert np.linalg.norm(vecs.T @ vecs - np.eye(50)) <= 1e-10

    def test_not_symmetric(self):
        with pytest.raises(DomainError, match="not symmetric within 1e-12"):
            dense_eig_oracle(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(DimensionMismatch, match="a square matrix is required"):
            dense_eig_oracle(np.zeros((2, 3)))

    def test_too_large(self):
        with pytest.raises(DomainError, match="dense oracle limited to n <= 5000"):
            dense_eig_oracle(np.zeros((5001, 5001)))


class TestRitzGapRho:
    def test_distance_to_excluded_values(self):
        # |5 - 1| = 4 and |5 - (-2)| = 7, so the minimum is 4
        assert ritz_gap_rho(np.array([5.0]), np.array([5.0, 1.0, -2.0])) == 4.0

    def test_coincident_value_gives_zero(self):
        assert ritz_gap_rho(np.array([3.0]), np.array([5.0, 3.0])) == 0.0

    def test_empty_inputs(self):
        with pytest.raises(DomainError, match="no Ritz values supplied"):
            ritz_gap_rho(np.array([]), np.array([1.0, 2.0]))
        with pytest.raises(DomainError, match="the excluded spectrum is empty"):
            ritz_gap_rho(np.array([1.0]), np.array([1.0]))

    def test_extremes_negative_seed_rejected(self):
        with pytest.raises(DomainError, match="seed must be non-negative"):
            spectral_core.excluded_extremes(K5, 1, seed=-1)

    def test_block_model_run_in_unit_band(self):
        B = np.full((3, 3), 0.02)
        np.fill_diagonal(B, 0.05)
        P = FactoredProbabilityMatrix(sbm_to_latent(SbmSpec(B, (100, 100, 100))))
        A = sample_adjacency(P, seed=2)
        dec = truncated_eigs(A, 3, 2.0**-6, seed=2)
        vals, _ = dense_eig_oracle(A.to_dense())
        rho = ritz_gap_rho(dec.values, vals)
        lam1 = abs(vals[0])
        assert 0.0 < rho / lam1 <= 1.0

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=4),
        st.lists(st.floats(min_value=-50, max_value=50), min_size=5, max_size=12),
    )
    def test_nonnegative_and_bounded(self, ritz, full):
        rho = ritz_gap_rho(np.array(ritz), np.array(full))
        assert rho >= 0.0
        spread = max(full) - min(full) + max(abs(v) for v in ritz) + 100.0
        assert rho <= spread


class TestExcludedExtremes:
    @pytest.mark.parametrize("replicate", [0, 1, 2, 3, 4, 7])
    def test_returns_the_bracket_of_the_excluded_spectrum(self, three_block_900, replicate):
        # the seed-0 benchmark sweep's graphs and extremes seeds; on
        # replicate 7 the three values past d of a d + 3 run hold one sign,
        # so the run doubles k
        graph_ss, solver_ss = np.random.SeedSequence(replicate).spawn(2)
        A = sample_adjacency(three_block_900, graph_ss)
        spectrum = np.linalg.eigvalsh(A.to_dense())
        excluded = spectrum[np.argsort(-np.abs(spectrum), kind="stable")][3:]
        bracket = spectral_core.excluded_extremes(A, 3, solver_ss)
        assert isinstance(bracket, tuple) and len(bracket) == 2
        for got, want in zip(bracket, (excluded.min(), excluded.max())):
            assert abs(got - want) <= 1e-13 * abs(want)

    @pytest.mark.parametrize("d", [0, -1, 60, True, np.True_, 2.0, "2"])
    def test_dimension_checked_before_any_product(self, monkeypatch, d):
        # d = 0 returned a "bracket" that held lambda_1, d = -1 returned
        # None, and d = True ran d = 1
        B = np.array([[0.5, 0.1], [0.1, 0.5]])
        A = sample_adjacency(FactoredProbabilityMatrix(sbm_to_latent(SbmSpec(B, (30, 30)))), 0)
        calls = []
        monkeypatch.setattr(SparseGraph, "matvec", lambda G, x: calls.append(1))
        with pytest.raises(DimensionMismatch, match="need an integer 1 <= d < n"):
            spectral_core.excluded_extremes(A, d)
        assert calls == []

    def test_stops_without_the_settling_gate(self, three_block_900, monkeypatch):
        # the run stops on its own exact test for mu_- and mu_+, so a gate
        # that never passes leaves the bracket as it was, while the d-path,
        # which reads the gate, spends its restarts on the same graph
        graph_ss, solver_ss = np.random.SeedSequence(0).spawn(2)
        A = sample_adjacency(three_block_900, graph_ss)
        want = spectral_core.excluded_extremes(A, 3, solver_ss)
        budget, full_budget = 5, spectral_core.DEFAULT_MAX_RESTARTS
        monkeypatch.setattr(spectral_core, "DEFAULT_MAX_RESTARTS", budget)
        assert truncated_eigs(A, 3, 0.5, seed=solver_ss).converged
        monkeypatch.setattr(spectral_core, "_settled", lambda it: False)
        dec = truncated_eigs(A, 3, 0.5, seed=solver_ss)
        assert not dec.converged and dec.iterations == budget
        monkeypatch.setattr(spectral_core, "DEFAULT_MAX_RESTARTS", full_budget)
        got = spectral_core.excluded_extremes(A, 3, solver_ss)
        assert got is not None and got == want

    def test_never_evaluates_the_settling_gate(self, three_block_900, monkeypatch):
        # the benchmark sweep's replicate-0 graph and extremes seed: the
        # extremes run reads no gate, so it evaluates none, while a d-path
        # solve evaluates it once per restart it logs
        graph_ss, solver_ss = np.random.SeedSequence(0).spawn(2)
        A = sample_adjacency(three_block_900, graph_ss)
        calls = []
        gate = spectral_core._settled

        def spy(it):
            calls.append(it)
            return gate(it)

        monkeypatch.setattr(spectral_core, "_settled", spy)
        assert spectral_core.excluded_extremes(A, 3, solver_ss) is not None
        assert calls == []
        path = RestartPath(A, 3, solver_ss)
        dec = truncated_eigs(A, 3, 2.0**-10, path=path)
        assert len(calls) == dec.iterations == len(path.log)
        assert all(it.H is None for it in path.log)


class TestInvariants:
    def test_near_degenerate_pair_not_accepted_unsettled(self, three_block_900):
        # The three-block model has an exactly repeated second eigenvalue, and
        # the sampled graph splits the pair by only ~0.07.  With this seed the
        # first-restart candidate's pair values are still moving (sin-theta
        # 0.16 for the block solver; a single-vector recurrence sat on a bulk
        # vector there, sin-theta 0.995).  Its residual estimate is 0.019
        # |theta_1|: at 2^-5 it passes the residual test, so the settling
        # gate must refuse it and force another restart, after which the
        # pair is resolved.
        graph = sample_adjacency(three_block_900, 0)
        _, vecs = dense_eig_oracle(graph.to_dense())
        for exponent in (5, 6):
            dec = truncated_eigs(
                graph, 3, 2.0**-exponent, seed=np.random.SeedSequence(7, spawn_key=(0,))
            )
            _, sin_fro = canonical_angles(vecs[:, :3], dec.vectors)
            assert dec.iterations >= 2
            assert sin_fro <= 0.01

    @pytest.mark.parametrize("repetition", [4, 6])
    @pytest.mark.parametrize("exponent", [6, 7])
    def test_clustering_study_solves_span_leading_subspace(
        self, three_block_900, repetition, exponent
    ):
        # Solves of the criterion-8 clustering study (same graph, same
        # solver seed derivation).  A single-vector recurrence stopped these
        # at the first restart with the bulk eigenpair near -10.31 in place
        # of the pair member at 11.78: converged, small residual, sin-theta
        # 1.00 against the leading three.
        graph = sample_adjacency(three_block_900, 0)
        dense = graph.to_dense()
        vals, vecs = dense_eig_oracle(dense)
        solver_ss = np.random.SeedSequence(repetition).spawn(2)[0]
        dec = truncated_eigs(graph, 3, 2.0**-exponent, seed=solver_ss)
        assert dec.converged
        # each returned value pairs with one of the leading three
        pairing = np.abs(np.sort(dec.values) - np.sort(vals[:3])).max()
        assert pairing <= dec.residual + 1e-10
        rho = ritz_gap_rho(dec.values, vals)
        G = dense @ dec.vectors - dec.vectors * dec.values
        _, sin_fro = canonical_angles(vecs[:, :3], dec.vectors)
        assert sin_fro <= np.linalg.norm(G) / rho + 1e-10

    def test_converged_means_residual_within_tol_of_the_norm(self, three_block_900):
        # The criterion-8 graph with the study's solver seeds, for its d = 3
        # solves and for the d = 1 solve estimate_spectral_norm runs (which
        # stops at its first restart here).  For converged to imply residual
        # <= tol ||A||, the denominator must not exceed ||A|| = 27.7; the
        # maximum degree, 43 here, does.
        graph = sample_adjacency(three_block_900, 0)
        norm = float(np.abs(np.linalg.eigvalsh(graph.to_dense())).max())
        for d in (1, 3):
            for repetition in range(10):
                solver_ss = np.random.SeedSequence(repetition).spawn(2)[0]
                for k in range(1, 5):
                    tol = 2.0**-k
                    dec = truncated_eigs(graph, d, tol, seed=solver_ss)
                    assert dec.converged
                    # a Ritz value, so at most ||A|| up to rounding
                    assert abs(dec.values[0]) <= norm * (1.0 + 1e-12)
                    assert dec.residual <= tol * norm

    def test_kahan_and_sin_theta_on_one_run(self):
        A = random_graph(100, 0.2, seed=20)
        Ad = A.to_dense()
        vals, vecs = dense_eig_oracle(Ad)
        dec = truncated_eigs(A, 4, 2.0**-8, seed=20)
        # nearest-eigenvalue matching bounded by the residual spectral norm
        for v in dec.values:
            assert np.abs(vals - v).min() <= dec.residual + 1e-10
        rho = ritz_gap_rho(dec.values, vals)
        if rho > 0:
            G = Ad @ dec.vectors - dec.vectors * dec.values
            _, sin_fro = canonical_angles(dec.vectors, vecs[:, :4])
            assert sin_fro <= np.linalg.norm(G) / rho + 1e-10
