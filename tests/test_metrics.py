"""Geometric and statistical error measures against brute-force oracles."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectol import (
    Clustering,
    DimensionMismatch,
    DomainError,
    adjusted_rand_index,
    canonical_angles,
    choose_k_by_silhouette,
    kmeans,
    procrustes_distance,
    silhouette_width,
    zhu_ghodsi_dimension,
)
from spectol import metrics
from spectol.metrics import _SILHOUETTE_BLOCK, _silhouette_widths
from oracles import (
    _reference_plus_plus_init,
    _row_major_lloyd,
    brute_force_elbow,
    brute_force_procrustes,
    brute_force_silhouette,
    pair_counting_ari,
    reference_kmeans,
    row_major_kmeans,
)


def random_orthogonal(d: int, seed: int) -> np.ndarray:
    W, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((d, d)))
    return W


class TestProcrustesDistance:
    def test_orthogonal_image_is_zero(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((40, 3))
        dist, _ = procrustes_distance(X, X @ random_orthogonal(3, 1))
        assert dist <= 1e-10

    def test_single_vector_always_alignable(self):
        X = np.array([[1.0, 0.0]])
        Y = np.array([[0.0, 1.0]])
        dist, _ = procrustes_distance(X, Y)
        assert dist <= 1e-10

    def test_matches_brute_force_search(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((50, 3))
        Y = rng.standard_normal((50, 3))
        fast, O = procrustes_distance(X, Y)
        assert abs(fast - brute_force_procrustes(X, Y)) <= 1e-6
        # the returned transform achieves the reported distance
        assert abs(np.linalg.norm(X - Y @ O) - fast) <= 1e-10
        assert np.linalg.norm(O.T @ O - np.eye(3)) <= 1e-12

    def test_symmetry(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((30, 2))
        Y = rng.standard_normal((30, 2))
        assert abs(procrustes_distance(X, Y)[0] - procrustes_distance(Y, X)[0]) <= 1e-10

    def test_bounded_by_plain_frobenius(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            X = rng.standard_normal((20, 3))
            Y = rng.standard_normal((20, 3))
            assert procrustes_distance(X, Y)[0] <= np.linalg.norm(X - Y) + 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            procrustes_distance(np.ones((3, 2)), np.ones((4, 2)))


class TestCanonicalAngles:
    def test_identical_spans(self):
        X = np.linalg.qr(np.random.default_rng(1).standard_normal((30, 3)))[0]
        angles, sin_fro = canonical_angles(X, X)
        assert np.abs(angles).max() <= 1e-7
        assert sin_fro <= 1e-7

    def test_perpendicular_lines(self):
        angles, sin_fro = canonical_angles(np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]]))
        assert abs(angles[0] - np.pi / 2) <= 1e-12
        assert abs(sin_fro - 1.0) <= 1e-12

    def test_frobenius_identity(self):
        rng = np.random.default_rng(2)
        X = np.linalg.qr(rng.standard_normal((50, 3)))[0]
        Y = np.linalg.qr(rng.standard_normal((50, 3)))[0]
        _, sin_fro = canonical_angles(X, Y)
        assert abs(sin_fro**2 - (3 - np.linalg.norm(Y.T @ X) ** 2)) <= 1e-10

    def test_range_and_order(self):
        rng = np.random.default_rng(3)
        X = np.linalg.qr(rng.standard_normal((40, 4)))[0]
        Y = np.linalg.qr(rng.standard_normal((40, 4)))[0]
        angles, _ = canonical_angles(X, Y)
        assert np.all(angles >= 0) and np.all(angles <= np.pi / 2 + 1e-12)
        assert np.all(np.diff(angles) <= 1e-12)

    def test_rejects_skew_frame(self):
        with pytest.raises(DomainError, match="first argument lacks orthonormal columns"):
            canonical_angles(np.ones((4, 2)), np.linalg.qr(np.eye(4)[:, :2])[0])


class TestKmeans:
    def test_single_cluster_is_mean(self):
        pts = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 3.0]])
        result = kmeans(pts, 1)
        assert np.abs(result.centers[0] - pts.mean(axis=0)).max() <= 1e-12
        assert set(result.labels) == {0}

    def test_recovers_separated_blobs(self):
        rng = np.random.default_rng(8)
        blob1 = rng.normal(0.0, 1.0, size=(40, 2))
        blob2 = rng.normal(0.0, 1.0, size=(40, 2)) + np.array([20.0, 0.0])
        pts = np.vstack([blob1, blob2])
        result = kmeans(pts, 2, seed=0)
        first, second = result.labels[:40], result.labels[40:]
        assert len(set(first)) == 1 and len(set(second)) == 1
        assert first[0] != second[0]

    def test_one_point_per_cluster(self):
        pts = np.array([[0.0], [5.0], [9.0]])
        result = kmeans(pts, 3)
        assert result.wcss <= 1e-12
        assert sorted(result.labels) == [0, 1, 2]

    def test_k_too_large(self):
        with pytest.raises(DomainError, match="k=3 clusters from 2 points"):
            kmeans(np.zeros((2, 1)), 3)

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        pts = rng.standard_normal((60, 2))
        a = kmeans(pts, 3, seed=4)
        b = kmeans(pts, 3, seed=4)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.centers, b.centers)

    @pytest.mark.parametrize("k", [2.5, 2.0, True, "2", None])
    def test_non_integer_k_rejected(self, k):
        # 2.5 and True raised TypeError from inside the seeding
        with pytest.raises(DomainError, match="cluster count must be an integer"):
            kmeans(np.zeros((4, 1)), k)

    def test_k_below_one_rejected(self):
        with pytest.raises(DomainError, match="k must be at least 1"):
            kmeans(np.zeros((4, 1)), 0)

    def test_numpy_integer_k(self):
        pts = np.random.default_rng(9).standard_normal((60, 2))
        result = kmeans(pts, np.int64(3), seed=4)
        assert type(result.k) is int and result.k == 3
        assert np.array_equal(result.labels, kmeans(pts, 3, seed=4).labels)

    def test_points_without_coordinates_rejected(self):
        labels = np.array([0, 1])
        clustering = Clustering(labels=labels, k=2, centers=np.zeros((2, 0)), wcss=0.0)
        with pytest.raises(DomainError, match="at least one coordinate"):
            kmeans(np.zeros((2, 0)), 2)
        with pytest.raises(DomainError, match="at least one coordinate"):
            silhouette_width(np.zeros((2, 0)), clustering)

    def test_negative_seed_rejected(self):
        # numpy's own ValueError escaped
        with pytest.raises(DomainError, match="seed must be non-negative"):
            kmeans(np.zeros((4, 1)), 2, seed=-1)


class TestKmeansMatchesReference:
    """Bit-for-bit agreement with the frozen loop version.  For 2 <= d <= 7
    numpy adds a length-d row and a column of members left to right, the
    order of the per-coordinate accumulation and of np.bincount; for d = 1
    and d >= 8 it sums pairwise, and the two can differ in the last bit."""

    @staticmethod
    def assert_matches(pts, k, seed):
        labels, centers, wcss = reference_kmeans(pts, k, seed)
        result = kmeans(pts, k, seed)
        assert np.array_equal(result.labels, labels)
        assert np.array_equal(result.centers, centers)
        assert result.wcss == wcss

    @pytest.mark.parametrize("seed", range(6))
    def test_random_points(self, seed):
        rng = np.random.default_rng(100 + seed)
        d = 2 + seed
        pts = rng.standard_normal((150, d)) * rng.uniform(0.5, 3.0, size=d)
        for k in (2, 3, 5):
            self.assert_matches(pts, k, seed)

    @pytest.mark.parametrize("seed", range(4))
    def test_duplicates_revive_empty_clusters(self, seed):
        # four distinct locations and k = 5: seeding must repeat a location,
        # argmin sends tied points to one center, and only the empty-cluster
        # revival can leave all five clusters occupied
        rng = np.random.default_rng(seed)
        locations = rng.standard_normal((4, 3))
        pts = locations[rng.integers(4, size=60)]
        self.assert_matches(pts, 5, seed)
        assert len(set(kmeans(pts, 5, seed).labels)) == 5


class TestKmeansMatchesRowMajor:
    """Bit-for-bit agreement with the frozen point-major Lloyd for every d,
    including d = 1 and d >= 8, where reference_kmeans's masked means may
    differ in the last bit: the cluster-major layout accumulates the same
    coordinates in the same order and breaks ties as argmin does."""

    @staticmethod
    def assert_matches(pts, k, seed):
        labels, centers, wcss = row_major_kmeans(pts, k, seed)
        result = kmeans(pts, k, seed)
        assert result.labels.dtype == labels.dtype
        assert np.array_equal(result.labels, labels)
        assert np.array_equal(result.centers, centers)
        assert result.wcss == wcss

    @pytest.mark.parametrize("d", range(1, 11))
    def test_random_points(self, d):
        rng = np.random.default_rng(200 + d)
        pts = rng.standard_normal((150, d)) * rng.uniform(0.5, 3.0, size=d)
        for k in (1, 2, 3, 5, 7):
            self.assert_matches(pts, k, d)

    @pytest.mark.parametrize("d", (1, 3, 9))
    @pytest.mark.parametrize("locations, k", [(4, 5), (2, 4)])
    def test_duplicates_revive_empty_clusters(self, d, locations, k):
        # fewer distinct locations than clusters: tied points all go to the
        # first of the tied centers, and only the revival of empty clusters
        # (several in one iteration when two locations feed four clusters)
        # leaves every cluster occupied
        rng = np.random.default_rng(d)
        pts = rng.standard_normal((locations, d))[rng.integers(locations, size=60)]
        self.assert_matches(pts, k, d)
        assert len(set(kmeans(pts, k, d).labels)) == k


def calls_per_start(pts, k, seed, name):
    """How often each start of ``kmeans(pts, k, seed)`` calls
    ``metrics.<name>``, counted with every start in a batch of its own."""
    counts = []
    lloyd, spied = metrics._lloyd, getattr(metrics, name)

    def lone(points, inits):
        assert len(inits) == 1
        counts.append(0)
        return lloyd(points, inits)

    def spy(*args):
        counts[-1] += 1
        return spied(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(metrics, "_SILHOUETTE_BLOCK", 2 * k)
        patch.setattr(metrics, "_lloyd", lone)
        patch.setattr(metrics, name, spy)
        kmeans(pts, k, seed)
    return counts


class TestKmeansBatch:
    """Lloyd runs the seeded starts of one call as a batch.  A start leaves
    it when its labels repeat, with what a lone run gives, so every start,
    not only the best, matches the frozen one-start-at-a-time Lloyd bit for
    bit however its batch-mates differ."""

    @staticmethod
    def assert_matches(pts, k, seed, max_iters=100):
        """Check each start of kmeans(pts, k, seed), and the start it
        keeps, against the oracle; return the sizes of its batches."""
        runs, sizes = [], []
        lloyd = metrics._lloyd

        def spy(points, inits):
            sizes.append(len(inits))
            batch = lloyd(points, inits)
            runs.extend(batch)
            return batch

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(metrics, "_lloyd", spy)
            result = kmeans(pts, k, seed)
        rng = np.random.default_rng(seed)
        assert len(runs) == 10
        for run in runs:
            init = _reference_plus_plus_init(pts, k, rng)
            labels, centers, wcss = _row_major_lloyd(pts, init, max_iters)
            assert run[0].dtype == labels.dtype
            assert np.array_equal(run[0], labels)
            assert np.array_equal(run[1], centers)
            assert run[2] == wcss
        labels, centers, wcss = row_major_kmeans(pts, k, seed, max_iters=max_iters)
        assert np.array_equal(result.labels, labels)
        assert np.array_equal(result.centers, centers)
        assert result.wcss == wcss
        return sizes

    def test_starts_stop_at_different_iterations(self, monkeypatch):
        # uncapped, some starts stop at their second iteration and some run
        # past a cap of 3, which they then hit while the others have left
        rng = np.random.default_rng(0)
        pts = np.vstack([
            rng.normal(0.0, 1.0, size=(30, 2)) + np.array([8.0 * i, 0.0])
            for i in range(3)
        ])
        iterations = calls_per_start(pts, 3, 0, "_sq_dists")
        assert min(iterations) == 2 and max(iterations) > 3
        monkeypatch.setattr(metrics, "_LLOYD_ITERS", 3)
        assert self.assert_matches(pts, 3, 0, max_iters=3) == [10]

    def test_one_start_revives_an_empty_cluster(self):
        pts = np.array([-0.8, 0.5, -2.1, -0.5, -0.2, -1.8, 0.4, -1.8, -0.5, -0.5])
        pts = pts[:, None]
        # of the ten starts, only start 1 ever finds an empty cluster
        revivals = calls_per_start(pts, 3, 2, "_revive")
        assert revivals[1] > 0 and sum(revivals) == revivals[1]
        assert self.assert_matches(pts, 3, 2) == [10]

    def test_call_split_into_batches(self, monkeypatch):
        # two distance buffers of 3 starts x 5 clusters each
        monkeypatch.setattr(metrics, "_SILHOUETTE_BLOCK", 2 * 3 * 5)
        pts = np.random.default_rng(0).standard_normal((150, 2))
        assert self.assert_matches(pts, 5, 0) == [3, 3, 3, 1]


class TestSilhouetteMatchesOracle:
    @staticmethod
    def assert_matches(pts, clustering):
        values, cluster_means, mean = brute_force_silhouette(
            pts, clustering.labels, clustering.k
        )
        result = silhouette_width(pts, clustering)
        assert np.abs(result.values - values).max() <= 1e-12
        assert np.abs(result.cluster_means - cluster_means).max() <= 1e-12
        assert abs(result.mean - mean) <= 1e-12

    @pytest.mark.parametrize("k", range(2, 8))
    def test_random_points(self, k):
        rng = np.random.default_rng(20 + k)
        pts = rng.standard_normal((90, 3))
        self.assert_matches(pts, kmeans(pts, k, seed=k))

    def test_empty_cluster_and_singleton(self):
        rng = np.random.default_rng(30)
        pts = rng.standard_normal((12, 2))
        labels = np.array([0] * 6 + [1] * 5 + [3])
        clustering = Clustering(labels=labels, k=4, centers=np.zeros((4, 2)), wcss=0.0)
        self.assert_matches(pts, clustering)
        result = silhouette_width(pts, clustering)
        assert result.values[11] == 0.0
        assert result.cluster_means[2] == 0.0

    def test_all_points_identical(self):
        pts = np.ones((10, 3))
        labels = np.array([0, 1, 2] * 3 + [0])
        clustering = Clustering(labels=labels, k=3, centers=np.ones((3, 3)), wcss=0.0)
        self.assert_matches(pts, clustering)
        assert np.array_equal(silhouette_width(pts, clustering).values, np.zeros(10))

    def test_several_row_blocks(self):
        n = 2 * _SILHOUETTE_BLOCK + 37
        rng = np.random.default_rng(31)
        blobs = np.repeat(4.0 * np.eye(3), [n // 3, n // 3, n - 2 * (n // 3)], axis=0)
        pts = rng.standard_normal((n, 3)) + blobs
        self.assert_matches(pts, kmeans(pts, 3, seed=0))


class TestSilhouetteWidth:
    def test_wide_separation_approaches_one(self):
        rng = np.random.default_rng(10)
        pts = np.vstack([
            rng.normal(0.0, 1.0, size=(30, 2)),
            rng.normal(0.0, 1.0, size=(30, 2)) + np.array([100.0, 0.0]),
        ])
        clustering = kmeans(pts, 2, seed=0)
        assert silhouette_width(pts, clustering).mean >= 0.95

    def test_identical_points_zero_by_convention(self):
        pts = np.zeros((6, 2))
        clustering = kmeans(pts, 2, seed=0)
        result = silhouette_width(pts, clustering)
        assert np.array_equal(result.values, np.zeros(6))

    def test_line_of_four_hand_case(self):
        pts = np.array([[0.0], [0.1], [10.0], [10.1]])
        clustering = kmeans(pts, 2, seed=0)
        result = silhouette_width(pts, clustering)
        # a(0) = 0.1, b(0) = mean(10, 10.1) = 10.05
        assert abs(result.values[0] - (10.05 - 0.1) / 10.05) <= 1e-12
        assert abs(result.values[0] - 0.99005) <= 1e-5

    def test_single_cluster_rejected(self):
        pts = np.zeros((4, 1))
        with pytest.raises(DomainError, match="need at least two clusters"):
            silhouette_width(pts, kmeans(pts, 1))
        with pytest.raises(DimensionMismatch, match="one label per point"):
            silhouette_width(pts[:3], kmeans(pts, 2))

    def test_values_bounded(self):
        rng = np.random.default_rng(11)
        pts = rng.standard_normal((50, 3))
        for k in (2, 4, 7):
            result = silhouette_width(pts, kmeans(pts, k, seed=1))
            assert np.all(result.values >= -1.0) and np.all(result.values <= 1.0)


class TestChooseK:
    @staticmethod
    def blobs(count: int, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        return np.vstack([
            rng.normal(0.0, 0.5, size=(30, 2)) + np.array([30.0 * i, 0.0])
            for i in range(count)
        ])

    def test_three_blobs(self):
        k, _ = choose_k_by_silhouette(self.blobs(3, 12), range(2, 7), seed=0)
        assert k == 3

    def test_two_blobs(self):
        k, _ = choose_k_by_silhouette(self.blobs(2, 13), range(2, 7), seed=0)
        assert k == 2

    def test_uniform_smoke(self):
        rng = np.random.default_rng(14)
        k, clustering = choose_k_by_silhouette(rng.random((40, 2)), (2, 3), seed=0)
        assert k in (2, 3)
        assert clustering.k == k

    def test_empty_range(self):
        with pytest.raises(DomainError, match="no candidate cluster counts"):
            choose_k_by_silhouette(np.zeros((4, 1)), (), seed=0)

    @pytest.mark.parametrize("k_range", [(2.5,), (2, True), (2, 3.0)])
    def test_non_integer_candidate_rejected(self, k_range):
        # (2.5,) silently ran k = 2
        with pytest.raises(DomainError, match="cluster count must be an integer"):
            choose_k_by_silhouette(self.blobs(2, 13), k_range, seed=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(DomainError, match="seed must be non-negative"):
            choose_k_by_silhouette(self.blobs(2, 13), (2, 3), seed=-1)


class TestChooseKOnePass:
    """choose_k_by_silhouette scores every candidate from one pass over the
    pairwise distances; it must give what a per-k loop of kmeans and
    silhouette_width gives, across several row blocks."""

    n = 2 * _SILHOUETTE_BLOCK + 37

    def points(self, seed: int) -> np.ndarray:
        rng = np.random.default_rng(40 + seed)
        sizes = [self.n // 3, self.n // 3, self.n - 2 * (self.n // 3)]
        return rng.standard_normal((self.n, 3)) + np.repeat(3.0 * np.eye(3), sizes, axis=0)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("k_range", [(2, 3), (2, 3, 4, 5, 6), (7, 3, 2, 4)])
    def test_matches_per_k_loop(self, seed, k_range):
        pts = self.points(seed)
        best_k, best, best_score = None, None, -np.inf
        for k in sorted(k_range):
            clustering = kmeans(pts, k, seed)
            score = silhouette_width(pts, clustering).mean
            if score > best_score:
                best_k, best, best_score = k, clustering, score
        k, clustering = choose_k_by_silhouette(pts, k_range, seed)
        assert k == best_k
        assert np.array_equal(clustering.labels, best.labels)
        assert np.array_equal(clustering.centers, best.centers)
        assert silhouette_width(pts, clustering).mean == best_score

    def test_one_pass_equals_separate_passes(self):
        pts = self.points(0)
        clusterings = [kmeans(pts, k, seed=k) for k in (2, 3, 5, 8)]
        for clustering, result in zip(clusterings, _silhouette_widths(pts, clusterings)):
            alone = silhouette_width(pts, clustering)
            assert np.array_equal(result.values, alone.values)
            assert np.array_equal(result.cluster_means, alone.cluster_means)
            assert result.mean == alone.mean

    def test_tie_keeps_smaller_k(self):
        # identical points score 0 under every k
        k, clustering = choose_k_by_silhouette(np.ones((20, 2)), (4, 2, 3), seed=0)
        assert k == 2 and clustering.k == 2


class TestAdjustedRandIndex:
    def test_relabeling_gives_one(self):
        labels = [0, 0, 1, 1, 2, 2, 2]
        relabeled = [5, 5, 0, 0, 9, 9, 9]
        assert adjusted_rand_index(labels, relabeled) == 1.0

    def test_all_same_vs_all_distinct(self):
        assert adjusted_rand_index([0] * 6, list(range(6))) == 0.0

    def test_matches_pair_counting(self):
        a = [1, 1, 1, 2, 2, 2, 3, 3, 3, 3]
        b = [1, 1, 2, 2, 3, 3, 3, 3, 3, 3]
        expected = pair_counting_ari(a, b)
        assert abs(adjusted_rand_index(a, b) - expected) <= 1e-12
        assert abs(expected - 8.0 / 23.0) <= 1e-12

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch, match="label vectors of length 2 and 3"):
            adjusted_rand_index([0, 1], [0, 1, 2])
        with pytest.raises(DimensionMismatch, match="empty label vectors"):
            adjusted_rand_index([], [])

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=4), min_size=2, max_size=12),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_range_and_permutation_invariance(self, labels, salt):
        rng = np.random.default_rng(salt)
        other = rng.integers(0, 3, size=len(labels))
        value = adjusted_rand_index(labels, other)
        assert -1.0 <= value <= 1.0
        perm = rng.permutation(5)
        assert abs(adjusted_rand_index([perm[v] for v in labels], other) - value) <= 1e-12


class TestZhuGhodsiDimension:
    def test_dominant_first_value(self):
        assert zhu_ghodsi_dimension((100, 1, 1, 1, 1)) == 1

    def test_three_then_drop(self):
        assert zhu_ghodsi_dimension((10, 9.5, 9, 1, 0.9, 0.8)) == 3

    def test_two_equal_values(self):
        assert zhu_ghodsi_dimension((5, 5)) == 1

    def test_matches_brute_force(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            head = np.sort(rng.uniform(5, 10, size=rng.integers(1, 4)))[::-1]
            tail = np.sort(rng.uniform(0, 1, size=rng.integers(2, 6)))[::-1]
            scree = np.concatenate([head, tail])
            assert zhu_ghodsi_dimension(scree) == brute_force_elbow(scree)

    def test_too_few_values(self):
        with pytest.raises(DomainError, match="a scree needs at least two values"):
            zhu_ghodsi_dimension((3.0,))

    def test_rejects_increasing_input(self):
        with pytest.raises(DomainError):
            zhu_ghodsi_dimension((1.0, 2.0, 3.0))
