"""Subspace distances, clustering, and dimension selection.

Everything here operates on plain arrays: embeddings as n x d matrices,
partitions as integer label vectors.  The subspace comparisons minimize over
the full orthogonal group (reflections included) since an eigenvector basis
is only defined up to such a transform.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import check_seed
from .errors import DimensionMismatch, DomainError

_ORTHONORMAL_TOL = 1e-8
# Lloyd iterations per k-means run, and seeded runs of which the best is kept
_LLOYD_ITERS = 100
_KMEANS_RESTARTS = 10
# rows of the pairwise distance matrix a silhouette pass holds at once
_SILHOUETTE_BLOCK = 256


def procrustes_distance(X: np.ndarray, Y: np.ndarray) -> tuple[float, np.ndarray]:
    """min over orthogonal O of ||X - Y O||_F, with the minimizing O.

    The optimum has the closed form O = U V^T from the SVD of Y^T X.  The
    minimum is evaluated as ||X - Y O||_F directly: the algebraically equal
    sqrt(||X||^2 + ||Y||^2 - 2 sum of singular values) cancels
    catastrophically and floors near sqrt(eps) ||X|| when the fit is exact.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.shape != Y.shape or X.ndim != 2:
        raise DimensionMismatch("both embeddings must share one n x d shape")
    U, _, Vt = np.linalg.svd(Y.T @ X)
    O = U @ Vt
    return float(np.linalg.norm(X - Y @ O)), O


def canonical_angles(X: np.ndarray, Y: np.ndarray) -> tuple[np.ndarray, float]:
    """Principal angles between two column spans, plus ||sin Psi||_F.

    Both inputs must have orthonormal columns.  The cosines are the singular
    values of Y^T X; the sines come from the complement projection
    Y - X (X^T Y), whose singular values equal them exactly and, unlike
    sqrt(1 - cos^2), keep full precision for angles near zero.  Angles come
    back in decreasing order.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.shape != Y.shape or X.ndim != 2:
        raise DimensionMismatch("both frames must share one n x d shape")
    d = X.shape[1]
    for name, F in (("first", X), ("second", Y)):
        if np.linalg.norm(F.T @ F - np.eye(d)) > _ORTHONORMAL_TOL:
            raise DomainError(f"{name} argument lacks orthonormal columns")
    cosines = np.clip(np.linalg.svd(Y.T @ X, compute_uv=False), 0.0, 1.0)
    complement = Y - X @ (X.T @ Y)
    sines = np.clip(np.linalg.svd(complement, compute_uv=False), 0.0, 1.0)
    # cosines descending and sines descending describe the same principal
    # directions traversed in opposite order
    angles = np.arctan2(sines, cosines[::-1])
    return angles, float(np.linalg.norm(sines))


@dataclass(frozen=True)
class Clustering:
    """A hard partition: labels in [0, k), cluster centers, and its cost."""

    labels: np.ndarray
    k: int
    centers: np.ndarray
    wcss: float


def _as_points(points) -> np.ndarray:
    """``points`` as a float array of n rows; a point with no coordinate is
    a ``DomainError``, since every distance starts from the first one."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[1] == 0:
        raise DomainError("points need at least one coordinate")
    return points


def _cluster_count(k) -> int:
    """``k`` as an int: a bool, a fraction or a count below 1 is a
    ``DomainError``."""
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
        raise DomainError(f"a cluster count must be an integer, got {k!r}")
    if k < 1:
        raise DomainError("k must be at least 1")
    return int(k)


def _plus_plus_init(points: np.ndarray, k: int, rng) -> np.ndarray:
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    d2 = ((points - centers[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = d2.sum()
        if total > 0.0:
            idx = rng.choice(n, p=d2 / total)
        else:
            idx = rng.integers(n)
        centers[c] = points[idx]
        d2 = np.minimum(d2, ((points - centers[c]) ** 2).sum(axis=1))
    return centers


def _sq_dists(rows: np.ndarray, points_t: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances into ``out`` (rows x points), from the
    points' coordinates held one per row (``points_t`` is d x points).  The
    sum runs one coordinate at a time through one reused temporary, so no
    rows x points x d array exists; the first square is written straight
    into ``out``, exactly 0.0 plus it."""
    np.subtract(rows[:, 0, None], points_t[0], out=out)
    out *= out
    tmp = np.empty_like(out)
    for j in range(1, rows.shape[1]):
        np.subtract(rows[:, j, None], points_t[j], out=tmp)
        tmp *= tmp
        out += tmp
    return out


def _revive(points, labels, counts, nearest, centers) -> None:
    """Give each empty cluster of one start the point farthest from its
    center, taken from a cluster that keeps at least one other member."""
    for c in np.nonzero(counts == 0)[0]:
        eligible = counts[labels] > 1
        if not eligible.any():
            break
        idx = int(np.where(eligible, nearest, -1.0).argmax())
        counts[labels[idx]] -= 1
        labels[idx] = c
        counts[c] += 1
        centers[c] = points[idx]
        nearest[idx] = 0.0  # the seized point is its cluster's new center


def _lloyd(points: np.ndarray, inits: np.ndarray) -> list:
    """Lloyd iteration from each start of ``inits`` (starts x k x d) at
    once; returns each start's (labels, centers, wcss).  Every step is the
    one a lone run takes, done on all starts still moving, and a start whose
    labels repeat leaves the batch as a lone run would stop."""
    n = points.shape[0]
    starts, k = inits.shape[:2]
    points_t = np.ascontiguousarray(points.T)
    # the weights of one bincount over (start, cluster) bins: any prefix of
    # m * n holds the coordinate once per start, points in index order
    tiled = np.tile(points_t, (1, starts))
    centers = inits.copy()
    labels = np.full((starts, n), -1)
    prev_wcss = np.full(starts, math.inf)
    live = np.arange(starts)  # the start each row of the batch belongs to
    offsets = k * live[:, None]  # row r's clusters are bins r * k to r * k + k - 1
    runs = [None] * starts
    # start-major, then cluster-major: dists[s, c] holds every point's
    # distance to center c of start s
    dists = np.empty((starts, k, n))
    for _ in range(_LLOYD_ITERS):
        m = live.size
        dist = dists[:m]
        _sq_dists(centers.reshape(m * k, -1), points_t, dist.reshape(m * k, n))
        # a running strict minimum keeps the first of tied centers, as argmin
        new_labels = np.zeros((m, n), dtype=np.intp)
        nearest = dist[:, 0].copy()
        for c in range(1, k):
            np.putmask(new_labels, dist[:, c] < nearest, c)
            np.minimum(nearest, dist[:, c], out=nearest)
        counts = np.bincount((new_labels + offsets[:m]).ravel(), minlength=m * k)
        counts = counts.reshape(m, k)
        for r in np.nonzero((counts == 0).any(axis=1))[0]:
            _revive(points, new_labels[r], counts[r], nearest[r], centers[r])
        wcss = nearest.sum(axis=1)
        bound = prev_wcss * (1.0 + 1e-9) + 1e-12
        assert np.all(wcss <= bound), "cost rose within Lloyd"
        prev_wcss = wcss
        done = (new_labels == labels).all(axis=1)
        for r in np.nonzero(done)[0]:
            runs[live[r]] = (new_labels[r].copy(), centers[r].copy(), float(wcss[r]))
        moving = ~done
        live, labels, counts = live[moving], new_labels[moving], counts[moving]
        centers, prev_wcss = centers[moving], prev_wcss[moving]
        m = live.size
        if m == 0:
            break
        filled = counts > 0
        bins = (labels + offsets[:m]).ravel()
        for j in range(points.shape[1]):
            sums = np.bincount(bins, weights=tiled[j, : m * n], minlength=m * k)
            sums = sums.reshape(m, k)
            centers[..., j][filled] = sums[filled] / counts[filled]
    for r, s in enumerate(live):
        runs[s] = (labels[r].copy(), centers[r].copy(), float(prev_wcss[r]))
    return runs


def kmeans(points: np.ndarray, k: int, seed=0) -> Clustering:
    """Lloyd iteration with D^2-weighted seeding, best of 10 seeded restarts
    of at most 100 iterations each.

    Deterministic for a fixed seed; the within-cluster sum of squares is
    checked to be non-increasing across every Lloyd iteration.  All seeds
    are drawn first; Lloyd then runs on a batch of starts at once, holding
    its distances starts x k x n, summed one coordinate at a time, and
    assigns each point to the first of its nearest centers, as argmin would.
    A batch's two distance buffers hold at most _SILHOUETTE_BLOCK rows of n
    (one start's 2k rows if k is larger), so memory stays
    O(_SILHOUETTE_BLOCK * n) as in a silhouette pass.  Each
    start gives the labels, centers and cost a lone run from its seed gives,
    and the first start of least cost is kept.
    """
    points = _as_points(points)
    n = points.shape[0]
    k = _cluster_count(k)
    if k > n:
        raise DomainError(f"k={k} clusters from {n} points")
    check_seed(seed)
    rng = np.random.default_rng(seed)
    inits = np.array([_plus_plus_init(points, k, rng) for _ in range(_KMEANS_RESTARTS)])
    batch = max(1, _SILHOUETTE_BLOCK // (2 * k))
    runs = []
    for lo in range(0, _KMEANS_RESTARTS, batch):
        runs += _lloyd(points, inits[lo : lo + batch])
    # min keeps the first of tied costs
    labels, centers, wcss = min(runs, key=lambda run: run[2])
    return Clustering(labels=labels, k=k, centers=centers, wcss=wcss)


@dataclass(frozen=True)
class SilhouetteResult:
    """Per-point widths s(i), per-cluster means, and the global mean."""

    values: np.ndarray
    cluster_means: np.ndarray
    mean: float


def silhouette_width(points: np.ndarray, clustering: Clustering) -> SilhouetteResult:
    """s(i) = (b(i) - a(i)) / max(a(i), b(i)) under Euclidean distance.

    a(i) averages over the other members of i's cluster; b(i) is the best
    mean distance to a nonempty foreign cluster.  Singleton clusters score
    0, as does the 0/0 case and a point with no nonempty foreign cluster.
    Distances are formed _SILHOUETTE_BLOCK rows at a time and folded into
    per-cluster sums at once, so memory stays O(_SILHOUETTE_BLOCK * n)
    rather than O(n^2).  choose_k_by_silhouette shares one such pass among
    all its candidate clusterings.
    """
    return _silhouette_widths(points, [clustering])[0]


def _silhouette_widths(points, clusterings) -> list[SilhouetteResult]:
    """silhouette_width of several clusterings of one point set, from one
    pass over its pairwise distances: each block of rows is formed once and
    folded into the per-cluster sums of every clustering, then released
    (its buffer is reused) before the next block is formed."""
    points = _as_points(points)
    n = points.shape[0]
    for clustering in clusterings:
        if clustering.k < 2:
            raise DomainError("silhouette widths need at least two clusters")
        if clustering.labels.shape != (n,):
            raise DimensionMismatch("one label per point is required")
    one_hots = [np.eye(c.k)[c.labels] for c in clusterings]
    # summed distance from every point to every cluster, per clustering
    sums = [np.empty((n, c.k)) for c in clusterings]
    points_t = np.ascontiguousarray(points.T)
    block = np.empty((min(_SILHOUETTE_BLOCK, n), n))
    for start in range(0, n, _SILHOUETTE_BLOCK):
        rows = points[start : start + _SILHOUETTE_BLOCK]
        dist = block[: len(rows)]
        np.sqrt(_sq_dists(rows, points_t, dist), out=dist)
        for one_hot, total in zip(one_hots, sums):
            total[start : start + len(rows)] = dist @ one_hot
    return [_widths(c.labels, c.k, total) for c, total in zip(clusterings, sums)]


def _widths(labels: np.ndarray, k: int, sums: np.ndarray) -> SilhouetteResult:
    n = labels.size
    sizes = np.bincount(labels, minlength=k)
    rows = np.arange(n)
    own = sizes[labels]
    a = sums[rows, labels] / np.maximum(own - 1, 1)
    mean_to = sums / np.maximum(sizes, 1)
    mean_to[:, sizes == 0] = np.inf
    mean_to[rows, labels] = np.inf
    b = mean_to.min(axis=1)
    top = np.maximum(a, b)
    scored = (own > 1) & np.isfinite(b) & (top > 0)
    values = np.zeros(n)
    values[scored] = (b[scored] - a[scored]) / top[scored]
    cluster_means = np.bincount(labels, weights=values, minlength=k) / np.maximum(sizes, 1)
    return SilhouetteResult(
        values=values, cluster_means=cluster_means, mean=float(values.mean())
    )


def choose_k_by_silhouette(
    points: np.ndarray, k_range, seed=0
) -> tuple[int, Clustering]:
    """Pick the cluster count maximizing mean silhouette width.

    Candidates are tried in increasing order and ties keep the smaller k.
    Every candidate's k-means runs first; their silhouette widths then come
    from one pass over the pairwise distances, not one pass per candidate,
    with the same values as ``silhouette_width`` gives each clustering.
    """
    candidates = sorted(_cluster_count(k) for k in k_range)
    if not candidates:
        raise DomainError("no candidate cluster counts")
    clusterings = [kmeans(points, k, seed) for k in candidates]
    scores = [s.mean for s in _silhouette_widths(points, clusterings)]
    # max keeps the first of tied scores, so the smaller k
    best = max(range(len(candidates)), key=scores.__getitem__)
    return candidates[best], clusterings[best]


def adjusted_rand_index(labels_a, labels_b) -> float:
    """Chance-adjusted pair-counting agreement between two partitions."""
    a = np.asarray(labels_a).reshape(-1)
    b = np.asarray(labels_b).reshape(-1)
    if a.size != b.size:
        raise DimensionMismatch(f"label vectors of length {a.size} and {b.size}")
    if a.size == 0:
        raise DimensionMismatch("empty label vectors")
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    ka, kb = ai.max() + 1, bi.max() + 1
    table = np.zeros((ka, kb), dtype=np.int64)
    np.add.at(table, (ai, bi), 1)

    def comb2(x):
        return x * (x - 1) // 2

    index = comb2(table).sum()
    sum_a = comb2(table.sum(axis=1)).sum()
    sum_b = comb2(table.sum(axis=0)).sum()
    total = comb2(np.int64(a.size))
    expected = sum_a * sum_b / total if total else 0.0
    maximum = 0.5 * (sum_a + sum_b)
    if maximum == expected:
        return 1.0
    return float((index - expected) / (maximum - expected))


def zhu_ghodsi_dimension(scree) -> int:
    """Elbow of a decreasing scree by two-segment Gaussian profile likelihood.

    Both segments share one variance (the pooled maximum-likelihood
    estimate).  A split with zero pooled variance fits perfectly and wins;
    ties go to the smaller split index.  Returns the size of the first
    segment.
    """
    x = np.asarray(scree, dtype=float).reshape(-1)
    m = x.size
    if m < 2:
        raise DomainError("a scree needs at least two values")
    scale = float(np.abs(x).max())
    if np.any(x < -1e-12 * max(1.0, scale)):
        raise DomainError("scree values must be nonnegative")
    if np.any(np.diff(x) > 1e-12 * max(1.0, scale)):
        raise DomainError("scree values must be decreasing")
    best_q, best_ll = None, -math.inf
    for q in range(1, m):
        head, tail = x[:q], x[q:]
        ss = ((head - head.mean()) ** 2).sum() + ((tail - tail.mean()) ** 2).sum()
        var = ss / m
        if var <= 1e-30 * max(1.0, scale**2):
            ll = math.inf
        else:
            ll = -0.5 * m * (math.log(2.0 * math.pi * var) + 1.0)
        if ll > best_ll:
            best_q, best_ll = q, ll
    return int(best_q)
