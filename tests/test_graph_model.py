"""Model construction, sampling, and the model assumption checks."""
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
    SbmSpec,
    SparseGraph,
    check_assumptions,
    graph_model,
    sample_adjacency,
    sbm_to_latent,
)

from conftest import three_block_spec
from oracles import (
    reference_csr_error,
    reference_latent_in_range,
    reference_sample_adjacency,
)


class TestLatentPositions:
    def test_valid_rows(self):
        X = LatentPositions(np.array([[0.5, 0.0], [0.0, 0.5]]))
        assert X.n == 2 and X.d == 2

    def test_dimension_exceeds_count(self):
        with pytest.raises(DimensionMismatch):
            LatentPositions(np.array([[0.3, 0.3, 0.3]]))

    def test_dot_product_above_one(self):
        with pytest.raises(DimensionMismatch):
            LatentPositions(np.array([[1.2], [0.5]]))

    def test_negative_dot_product(self):
        with pytest.raises(DimensionMismatch):
            LatentPositions(np.array([[1.0], [-0.5]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_row(self, bad):
        # a NaN product passes every range comparison, so the finiteness
        # check must come first
        with pytest.raises(DimensionMismatch, match="latent positions must be finite"):
            LatentPositions(np.array([[0.5, 0.0], [bad, 0.0], [0.0, 0.5]]))

    def test_rows_frozen(self):
        X = LatentPositions(np.array([[0.5], [0.5]]))
        with pytest.raises(ValueError):
            X.rows[0, 0] = 0.9

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.one_of(st.integers(1, 12), st.integers(500, 1100)),
        d=st.integers(1, 3),
        distinct=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_range_verdict_matches_all_pairs_reference(self, n, d, distinct, seed):
        # a few distinct rows, repeated (past one 512-row block for the
        # larger n), scaled so that the largest dot
        # product lands within 1e-8 of 1 + 1e-9 on either side; signs
        # straddle 0, so some factors also fail the lower bound
        d = min(d, n)
        rng = np.random.default_rng(seed)
        pool = rng.uniform(-0.3, 1.0, size=(distinct, d))
        top = (pool @ pool.T).max()
        if top > 0:
            pool *= np.sqrt((1.0 + 1e-9 + rng.uniform(-1e-8, 1e-8)) / top)
        rows = pool[rng.integers(0, distinct, size=n)]
        if reference_latent_in_range(rows):
            assert np.array_equal(LatentPositions(rows).rows, rows)
        else:
            with pytest.raises(DimensionMismatch, match="pairwise dot products"):
                LatentPositions(rows)


class TestSbmSpec:
    @pytest.mark.parametrize("sizes", [(2.7, 3), (3, 0.5), (math.nan, 3), (math.inf, 3), ("x", 3)])
    def test_size_that_is_not_a_whole_number_rejected(self, sizes):
        # int() truncated 2.7 to 2 and the model kept sizes (2, 3)
        with pytest.raises(DimensionMismatch, match="whole numbers"):
            SbmSpec(0.1 * np.ones((2, 2)), sizes)
        # a whole float is kept, as an int
        spec = SbmSpec(0.1 * np.ones((2, 2)), np.array([2.0, 3.0]))
        assert spec.sizes == (2, 3) and all(type(s) is int for s in spec.sizes)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_probability_rejected(self, bad):
        # a NaN on the diagonal failed as "must be symmetric"
        B = np.array([[bad, 0.1], [0.1, 0.2]])
        with pytest.raises(DimensionMismatch, match="block probabilities must be finite"):
            SbmSpec(B, (2, 2))


class TestSbmToLatent:
    def test_diagonal_quarter(self):
        spec = SbmSpec(0.25 * np.eye(2), (1, 1))
        X = sbm_to_latent(spec)
        P = X.rows @ X.rows.T
        assert np.abs(P - 0.25 * np.eye(2)).max() <= 1e-12
        assert len({tuple(r) for r in np.round(X.rows, 9)}) == 2

    def test_rank_one_all_ones(self):
        X = sbm_to_latent(SbmSpec(np.array([[1.0]]), (3,)))
        assert np.abs(X.rows @ X.rows.T - 1.0).max() <= 1e-12
        assert np.abs(X.rows - X.rows[0]).max() == 0.0

    def test_indefinite_block_matrix(self):
        with pytest.raises(DomainError, match="below the clamp window"):
            sbm_to_latent(SbmSpec(np.array([[0.0, 0.5], [0.5, 0.0]]), (1, 1)))

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=10).flatmap(
            lambda k: st.tuples(
                st.lists(
                    st.lists(
                        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
                        min_size=k,
                        max_size=k,
                    ),
                    min_size=k,
                    max_size=k,
                ),
                st.lists(st.integers(min_value=1, max_value=4), min_size=k, max_size=k),
            )
        )
    )
    def test_round_trip_psd_blocks(self, factor_and_sizes):
        factor, sizes = factor_and_sizes
        C = np.array(factor)
        k = C.shape[0]
        # C C^T is PSD with entries in [0, 1] after row normalization; the
        # clip only shaves float noise at the upper boundary
        norms = np.maximum(np.linalg.norm(C, axis=1), 1.0)
        B = np.clip((C / norms[:, None]) @ (C / norms[:, None]).T, 0.0, 1.0)
        spec = SbmSpec(B, tuple(sizes))
        X = sbm_to_latent(spec)
        Z = np.zeros((spec.n, k))
        Z[np.arange(spec.n), np.repeat(np.arange(k), spec.sizes)] = 1.0
        assert np.abs(X.rows @ X.rows.T - Z @ B @ Z.T).max() <= 1e-12


class TestSampleAdjacency:
    def test_probability_one_gives_complete_graph(self):
        X = LatentPositions(np.ones((4, 1)))
        A = sample_adjacency(FactoredProbabilityMatrix(X), seed=0)
        assert A.m == 6
        assert np.array_equal(A.degrees, [3, 3, 3, 3])

    def test_probability_zero_gives_empty_graph(self):
        X = LatentPositions(np.zeros((5, 1)))
        A = sample_adjacency(FactoredProbabilityMatrix(X), seed=0)
        assert A.m == 0

    def test_negative_seed_rejected(self):
        P = FactoredProbabilityMatrix(LatentPositions(np.ones((4, 1))))
        with pytest.raises(DomainError, match="seed must be non-negative"):
            sample_adjacency(P, -1)

    def test_deterministic_given_seed(self):
        P = FactoredProbabilityMatrix(sbm_to_latent(three_block_spec()))
        A1 = sample_adjacency(P, seed=123)
        A2 = sample_adjacency(P, seed=123)
        assert np.array_equal(A1.indptr, A2.indptr)
        assert np.array_equal(A1.indices, A2.indices)
        A3 = sample_adjacency(P, seed=124)
        assert not np.array_equal(A1.indices, A3.indices)

    def test_mean_edge_count_matches_bernoulli_sum(self):
        # mu = 3*C(300,2)*0.05 + 3*300^2*0.02, sigma from the same Bernoulli sum
        P = FactoredProbabilityMatrix(sbm_to_latent(three_block_spec()))
        mu = 3 * math.comb(300, 2) * 0.05 + 3 * 300 * 300 * 0.02
        var = 3 * math.comb(300, 2) * 0.05 * 0.95 + 3 * 300 * 300 * 0.02 * 0.98
        replicates = 500
        counts = [sample_adjacency(P, seed=s).m for s in range(replicates)]
        spread = 4.0 * math.sqrt(var / replicates)
        assert abs(np.mean(counts) - mu) <= spread


def assert_same_draw(rows, seed) -> None:
    """sample_adjacency draws the original per-row sampler's graph."""
    got = sample_adjacency(FactoredProbabilityMatrix(LatentPositions(rows)), seed)
    want = SparseGraph.from_edges(len(rows), reference_sample_adjacency(rows, seed))
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)


def random_latent(n: int, seed: int) -> np.ndarray:
    """n rank-2 rows (rank 1 when n = 1) whose dot products lie in [0, 0.98]."""
    return np.random.default_rng(seed).uniform(0.0, 0.7, size=(n, min(2, n)))


class TestSamplerStream:
    """Row-block draws consume the per-row sampler's uniforms, edge for edge."""

    @pytest.mark.parametrize("n", [1, 2, 3, 50, 900])
    def test_matches_per_row_reference(self, n):
        for seed in range(3):
            assert_same_draw(random_latent(n, seed), seed)

    def test_matches_on_the_benchmark_model(self):
        rows = sbm_to_latent(three_block_spec()).rows
        assert_same_draw(rows, np.random.SeedSequence(0).spawn(2)[0])

    @pytest.mark.parametrize("pairs", [1, 7, 48])
    def test_blocks_ending_mid_triangle(self, monkeypatch, pairs):
        # n = 50, so 48 is n - 2: row 0 holds 49 pairs, more than any of
        # these blocks, and every block but the last ends mid-triangle
        monkeypatch.setattr(graph_model, "_PAIRS_PER_DRAW", pairs)
        for seed in range(3):
            assert_same_draw(random_latent(50, seed), seed)

    def test_products_rounding_outside_the_unit_interval(self):
        # 1 + 4e-10 within the first 100 rows, -4e-10 between them and the
        # next 100, both inside the latent check's 1e-9 slack: the first
        # block is complete and no edge crosses
        rows = np.repeat([[1.0 + 2e-10, 0.0], [-4e-10, 0.6]], 100, axis=0)
        assert rows[0] @ rows[1] > 1.0 and rows[0] @ rows[100] < 0.0
        for seed in range(3):
            assert_same_draw(rows, seed)
            A = sample_adjacency(FactoredProbabilityMatrix(LatentPositions(rows)), seed)
            assert np.array_equal(A.degrees[:100], np.full(100, 99))
            assert A.indices[: A.indptr[100]].max() < 100

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 80),
        latent_seed=st.integers(0, 2**32 - 1),
        seed=st.integers(0, 2**32 - 1),
        pairs=st.sampled_from([1, 2, 7, 64, 1 << 16]),
    )
    def test_random_rank_two_positions(self, n, latent_seed, seed, pairs):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph_model, "_PAIRS_PER_DRAW", pairs)
            assert_same_draw(random_latent(n, latent_seed), seed)


class TestMaxRowSum:
    """delta(P), the largest row sum of P, as check_assumptions reports it."""

    def test_block_model_closed_form(self):
        # 300 * 0.05 within the block plus 2 * 300 * 0.02 across
        P = FactoredProbabilityMatrix(sbm_to_latent(three_block_spec()))
        delta = check_assumptions(P, 3).delta
        assert abs(delta - 27.0) <= 1e-10

    def test_factored_matches_dense(self):
        P = FactoredProbabilityMatrix(sbm_to_latent(three_block_spec()))
        delta = check_assumptions(P, 3).delta
        assert abs(delta - float(P.dense().sum(axis=1).max())) <= 1e-10


class TestEigengapRatio:
    """gamma(P), the eigengap over delta(P), as check_assumptions reports it."""

    def test_block_model_value(self):
        P = FactoredProbabilityMatrix(sbm_to_latent(three_block_spec()))
        gamma = check_assumptions(P, 3).gamma
        assert abs(gamma - 1.0 / 3.0) <= 1e-12


class TestCheckAssumptions:
    def test_three_block_report(self):
        P = FactoredProbabilityMatrix(sbm_to_latent(three_block_spec()))
        report = check_assumptions(P, 3)
        assert report.rank == 3 and report.rank_matches
        assert report.gamma_check
        assert abs(report.gamma - 1.0 / 3.0) <= 1e-12
        # delta = 27 sits far below (ln 900)^4.5 ~ 5.6e3
        assert 5.5e3 < report.delta_threshold < 5.7e3
        assert not report.delta_check

    def test_thresholds_are_fixed(self):
        # c0 = 0.1 and a = 0.5, the thresholds `spectol check` reports against
        assert (graph_model.GAMMA_MIN, graph_model.DENSITY_MARGIN) == (0.1, 0.5)
        P = FactoredProbabilityMatrix(sbm_to_latent(three_block_spec()))
        assert check_assumptions(P, 3).delta_threshold == math.log(900) ** 4.5

    def test_full_rank_gamma_positive(self):
        X = LatentPositions(np.array([[0.6, 0.0], [0.0, 0.4], [0.0, 0.4]]))
        report = check_assumptions(FactoredProbabilityMatrix(X), 2)
        assert report.rank == 2 and report.gamma > 0.0

    def test_dimension_zero_rejected(self):
        P = FactoredProbabilityMatrix(sbm_to_latent(three_block_spec()))
        with pytest.raises(DimensionMismatch):
            check_assumptions(P, 0)

    def test_zero_matrix_fails_everything(self):
        P = FactoredProbabilityMatrix(LatentPositions(np.zeros((20, 1))))
        report = check_assumptions(P, 1)
        assert report.rank == 0
        assert not report.gamma_check and not report.delta_check

    def test_dense_rank_one_density_crossover(self):
        # delta = 0.9 n beats (ln n)^4.5 only past n ~ 5e4
        for n, expected in ((2000, False), (60000, True)):
            X = LatentPositions(np.full((n, 1), math.sqrt(0.9)))
            report = check_assumptions(FactoredProbabilityMatrix(X), 1)
            assert report.rank == 1
            assert abs(report.delta - 0.9 * n) <= 1e-8 * n
            assert report.delta_check is expected


class TestSparseGraphStructure:
    def test_rejects_self_loop(self):
        with pytest.raises(DimensionMismatch):
            SparseGraph(2, np.array([0, 1, 2]), np.array([0, 0]))

    def test_rejects_asymmetry(self):
        with pytest.raises(DimensionMismatch):
            SparseGraph(3, np.array([0, 1, 2, 2]), np.array([1, 2]))

    def test_rejects_unsorted_row(self):
        with pytest.raises(DimensionMismatch, match="sorted and unique"):
            SparseGraph(3, np.array([0, 2, 3, 4]), np.array([2, 1, 0, 0]))

    def test_rejects_duplicate_neighbor(self):
        with pytest.raises(DimensionMismatch, match="sorted and unique"):
            SparseGraph(2, np.array([0, 2, 4]), np.array([1, 1, 0, 0]))

    def test_rejects_index_out_of_range(self):
        with pytest.raises(DimensionMismatch, match="out of range"):
            SparseGraph(2, np.array([0, 1, 2]), np.array([2, 0]))

    def test_rejects_odd_entry_count(self):
        with pytest.raises(DimensionMismatch, match="even entry count"):
            SparseGraph(2, np.array([0, 1, 1]), np.array([1]))

    def test_rejects_directed_four_cycle(self):
        # 0->1->2->3->0: every in-degree equals its out-degree, so only a
        # check of the entries themselves tells it from a symmetric graph
        with pytest.raises(DimensionMismatch, match="not symmetric"):
            SparseGraph(4, np.array([0, 1, 2, 3, 4]), np.array([1, 2, 3, 0]))

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(2, 7),
        edge_bits=st.integers(0, 2**21 - 1),
        mutation=st.sampled_from(["none", "move", "swap", "flip"]),
        entry=st.integers(0, 10**6),
        target=st.integers(-1, 7),
        cells=st.lists(
            st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=1, max_size=2
        ),
    )
    def test_validation_matches_two_lexsort_reference(
        self, n, edge_bits, mutation, entry, target, cells
    ):
        # a random symmetric adjacency with at most one change: an entry
        # moved to another column or swapped with the next one in storage,
        # or one or two one-sided entries flipped (added or removed)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        A = np.zeros((n, n), dtype=int)
        for bit, (i, j) in enumerate(pairs):
            if edge_bits >> bit & 1:
                A[i, j] = A[j, i] = 1
        if mutation == "flip":
            for r, c in cells:
                A[r % n, c % n] ^= 1
        rows, cols = np.nonzero(A)
        if cols.size and mutation == "move":
            cols[entry % cols.size] = min(target, n)
        elif cols.size > 1 and mutation == "swap":
            k = entry % (cols.size - 1)
            cols[[k, k + 1]] = cols[[k + 1, k]]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        expected = reference_csr_error(n, indptr, cols)
        if expected is None:
            assert np.array_equal(SparseGraph(n, indptr, cols).indices, cols)
        else:
            with pytest.raises(DimensionMismatch) as excinfo:
                SparseGraph(n, indptr, cols)
            assert str(excinfo.value) == expected

    def test_from_edges_rejects_endpoint_out_of_range(self):
        with pytest.raises(DimensionMismatch, match="out of range"):
            SparseGraph.from_edges(3, np.array([[0, 3]]))

    def test_from_edges_rejects_what_the_constructor_rejects(self):
        # from_edges skips the constructor's check, so it refuses a self
        # loop and an empty vertex set itself, in the constructor's words
        for build in (lambda: SparseGraph(2, np.array([0, 1, 2]), np.array([0, 0])),
                      lambda: SparseGraph.from_edges(2, np.array([[0, 1], [1, 1]]))):
            with pytest.raises(DimensionMismatch, match="^self loops are not allowed$"):
                build()
        for build in (lambda: SparseGraph(0, np.array([0]), np.array([], dtype=int)),
                      lambda: SparseGraph.from_edges(0, np.empty((0, 2), dtype=int))):
            with pytest.raises(DimensionMismatch,
                               match="^a graph needs at least one vertex$"):
                build()

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(1, 12),
        edges=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=40),
    )
    def test_from_edges_passes_the_constructor_check(self, n, edges):
        # from_edges does not run the constructor's check: its arrays must
        # pass it anyway, with repeats in both orientations and vertices
        # that no edge names
        edges = np.array([(u % n, v % n) for u, v in edges if u % n != v % n],
                         dtype=np.int64).reshape(-1, 2)
        edges = np.concatenate([edges, edges[::2, ::-1], edges[1::3]])
        g = SparseGraph.from_edges(n, edges)
        checked = SparseGraph(n, g.indptr, g.indices)
        assert checked.n == g.n == n
        assert np.array_equal(checked.indptr, g.indptr)
        assert np.array_equal(checked.indices, g.indices)
        assert g.indptr.dtype == g.indices.dtype == np.int64
        assert not (g.indptr.flags.writeable or g.indices.flags.writeable)

    def test_from_edges_merges_repeated_edges(self):
        # an edge listed again, in either orientation, is one edge; vertex
        # 4 names no edge and keeps an empty row
        edges = np.array([[2, 0], [0, 1], [1, 0], [3, 0], [0, 2], [2, 0]])
        A = SparseGraph.from_edges(5, edges)
        want = SparseGraph.from_edges(5, np.array([[0, 1], [0, 2], [0, 3]]))
        assert np.array_equal(A.indptr, want.indptr)
        assert np.array_equal(A.indices, want.indices)
        assert np.array_equal(A.indptr, [0, 3, 4, 5, 6, 6])

    def test_neighbor_lists_sorted(self):
        A = SparseGraph.from_edges(4, np.array([[2, 0], [0, 1], [3, 0]]))
        assert np.array_equal(A.indices[A.indptr[0] : A.indptr[1]], [1, 2, 3])
        assert A.m == 3

    def test_sampled_graphs_validate(self):
        # the constructor's check asserts hollow symmetric structure
        P = FactoredProbabilityMatrix(sbm_to_latent(SbmSpec(np.array([[0.4]]), (40,))))
        for seed in range(5):
            A = sample_adjacency(P, seed=seed)
            assert SparseGraph(A.n, A.indptr, A.indices).n == 40
