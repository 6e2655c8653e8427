"""Independent reference implementations used to freeze expected values.

Everything here is deliberately naive: brute force over the orthogonal
group, O(n^2) pair counting, exhaustive graph enumeration, a per-line
edge-list reader, two-lexsort adjacency checks, a latent range check over
every pair of rows, a sampler that draws one row of uniforms per call,
an O(n + m) block model edge sampler for graphs above the dense limit,
rho as the distance from Ritz values to every excluded eigenvalue,
Lloyd with its distances held one point per row, the Lanczos solver
with its basis stored one vector per column, and a sweep CSV reader that
takes each row as a dict.  None of it imports the package under test,
except its exception types, the sweep record type the reader builds, and
the fresh-solve harness references at the end: they rebuild sweep and
stability records from the package's own solver and metrics with one
independent solve per tolerance, the plain pipeline that the harness's
shared restart path must reproduce.
"""
from __future__ import annotations

import csv
import itertools
import math

import numpy as np


def _rotation_zyz(alpha: float, beta: float, gamma: float) -> np.ndarray:
    ca, sa = math.cos(alpha), math.sin(alpha)
    cb, sb = math.cos(beta), math.sin(beta)
    cg, sg = math.cos(gamma), math.sin(gamma)
    rz1 = np.array([[ca, -sa, 0.0], [sa, ca, 0.0], [0.0, 0.0, 1.0]])
    ry = np.array([[cb, 0.0, sb], [0.0, 1.0, 0.0], [-sb, 0.0, cb]])
    rz2 = np.array([[cg, -sg, 0.0], [sg, cg, 0.0], [0.0, 0.0, 1.0]])
    return rz1 @ ry @ rz2


def brute_force_procrustes(X: np.ndarray, Y: np.ndarray, rounds: int = 9) -> float:
    """min over orthogonal O of ||X - Y O||_F by grid search plus refinement.

    Covers both determinant branches; d must be 1, 2 or 3.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    d = X.shape[1]
    if d == 1:
        return min(np.linalg.norm(X - Y), np.linalg.norm(X + Y))
    if d == 2:
        best = math.inf
        grid = np.linspace(0.0, 2.0 * math.pi, 720, endpoint=False)
        for flip in (1.0, -1.0):
            center, width = math.pi, math.pi
            for _ in range(rounds):
                thetas = center + np.linspace(-width, width, 60)
                vals = []
                for t in thetas:
                    O = np.array([[math.cos(t), -math.sin(t)],
                                  [math.sin(t), math.cos(t)]])
                    O[:, 1] *= flip
                    vals.append(np.linalg.norm(X - Y @ O))
                k = int(np.argmin(vals))
                center, width = thetas[k], width * 0.12
                best = min(best, vals[k])
            for t in grid:
                O = np.array([[math.cos(t), -math.sin(t)],
                              [math.sin(t), math.cos(t)]])
                O[:, 1] *= flip
                best = min(best, np.linalg.norm(X - Y @ O))
        return best
    if d != 3:
        raise ValueError("brute force oracle only supports d <= 3")

    best = math.inf
    for flip in (1.0, -1.0):
        reflect = np.diag([1.0, 1.0, flip])
        # coarse pass over ZYZ Euler angles
        centers = None
        n_a, n_b = 24, 13
        alphas = np.linspace(0.0, 2.0 * math.pi, n_a, endpoint=False)
        betas = np.linspace(0.0, math.pi, n_b)
        local_best, local_arg = math.inf, (0.0, 0.0, 0.0)
        for a in alphas:
            for b in betas:
                for g in alphas:
                    v = np.linalg.norm(X - Y @ (_rotation_zyz(a, b, g) @ reflect))
                    if v < local_best:
                        local_best, local_arg = v, (a, b, g)
        spacing = 2.0 * math.pi / n_a
        a0, b0, g0 = local_arg
        for _ in range(rounds):
            axis = np.linspace(-spacing, spacing, 7)
            for da in axis:
                for db in axis:
                    for dg in axis:
                        v = np.linalg.norm(
                            X - Y @ (_rotation_zyz(a0 + da, b0 + db, g0 + dg) @ reflect)
                        )
                        if v < local_best:
                            local_best = v
                            a0, b0, g0 = a0 + da, b0 + db, g0 + dg
            spacing *= 0.35
        best = min(best, local_best)
    return best


def pair_counting_ari(labels_a, labels_b) -> float:
    """ARI from explicit agreement counts over all vertex pairs."""
    a = list(labels_a)
    b = list(labels_b)
    n = len(a)
    together_both = together_a_only = together_b_only = apart_both = 0
    for i in range(n):
        for j in range(i + 1, n):
            same_a = a[i] == a[j]
            same_b = b[i] == b[j]
            if same_a and same_b:
                together_both += 1
            elif same_a:
                together_a_only += 1
            elif same_b:
                together_b_only += 1
            else:
                apart_both += 1
    num = 2.0 * (apart_both * together_both - together_a_only * together_b_only)
    den = (apart_both + together_a_only) * (together_a_only + together_both) + (
        apart_both + together_b_only
    ) * (together_b_only + together_both)
    if den == 0:
        return 1.0
    return num / den


def gaussian_split_loglik(values, q: int) -> float:
    """Profile log-likelihood of a two-segment common-variance Gaussian fit,
    summed per point from the normal density."""
    x = np.asarray(values, dtype=float)
    n = x.size
    left, right = x[:q], x[q:]
    mu1, mu2 = left.mean(), right.mean()
    ss = float(((left - mu1) ** 2).sum() + ((right - mu2) ** 2).sum())
    var = ss / n
    if var <= 1e-30 * max(1.0, float(x.max()) ** 2):
        return math.inf
    ll = 0.0
    for seg, mu in ((left, mu1), (right, mu2)):
        for v in seg:
            ll += -0.5 * math.log(2.0 * math.pi * var) - (v - mu) ** 2 / (2.0 * var)
    return ll


def brute_force_elbow(values) -> int:
    x = np.asarray(values, dtype=float)
    lls = [gaussian_split_loglik(x, q) for q in range(1, x.size)]
    best = max(lls)
    for q, ll in enumerate(lls, start=1):
        if ll == best:
            return q
    raise AssertionError("unreachable")


def sample_hollow_adjacency(P: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    n = P.shape[0]
    upper = rng.random((n, n)) < P
    A = np.triu(upper, 1).astype(float)
    return A + A.T


def monte_carlo_sq_deviation(P: np.ndarray, samples: int, seed: int):
    """Mean and entrywise standard error of (A - P)^2 over sampled graphs."""
    rng = np.random.default_rng(seed)
    n = P.shape[0]
    mean = np.zeros((n, n))
    m2 = np.zeros((n, n))
    for t in range(1, samples + 1):
        A = sample_hollow_adjacency(P, rng)
        D = A - P
        sq = D @ D
        delta = sq - mean
        mean += delta / t
        m2 += delta * (sq - mean)
    se = np.sqrt(m2 / (samples - 1) / samples)
    return mean, se


def exhaustive_sq_deviation(P: np.ndarray) -> np.ndarray:
    """Exact E[(A - P)^2] by enumerating every graph on n <= 4 vertices."""
    n = P.shape[0]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    out = np.zeros((n, n))
    for bits in itertools.product((0, 1), repeat=len(pairs)):
        A = np.zeros((n, n))
        prob = 1.0
        for (i, j), present in zip(pairs, bits):
            if present:
                A[i, j] = A[j, i] = 1.0
                prob *= P[i, j]
            else:
                prob *= 1.0 - P[i, j]
        D = A - P
        out += prob * (D @ D)
    return out


def brute_force_silhouette(points, labels, k: int):
    """Per-point silhouette widths, per-cluster means and the global mean,
    one point and one foreign cluster at a time.

    Conventions: a point alone in its cluster scores 0, as does a point
    with a = b = 0 or with no nonempty foreign cluster; an empty cluster's
    mean is 0.
    """
    X = np.atleast_2d(np.asarray(points, dtype=float))
    labels = np.asarray(labels)
    n = X.shape[0]
    values = np.zeros(n)
    for i in range(n):
        dist = np.sqrt(((X - X[i]) ** 2).sum(axis=1))
        own = labels == labels[i]
        if own.sum() <= 1:
            continue
        a = dist[own].sum() / (own.sum() - 1)
        foreign = [dist[labels == c].mean() for c in range(k)
                   if c != labels[i] and (labels == c).any()]
        if not foreign:
            continue
        b = min(foreign)
        top = max(a, b)
        values[i] = (b - a) / top if top > 0 else 0.0
    cluster_means = np.array(
        [values[labels == c].mean() if (labels == c).any() else 0.0 for c in range(k)]
    )
    return values, cluster_means, float(values.mean())


def _reference_plus_plus_init(points, k, rng):
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


def _reference_lloyd(points, centers, max_iters):
    n, k = points.shape[0], centers.shape[0]
    centers = centers.copy()
    labels = np.full(n, -1)
    prev_wcss = math.inf
    for _ in range(max_iters):
        dists = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = dists.argmin(axis=1)
        counts = np.bincount(new_labels, minlength=k)
        for c in np.nonzero(counts == 0)[0]:
            eligible = counts[new_labels] > 1
            if not eligible.any():
                break
            assigned = dists[np.arange(n), new_labels]
            assigned = np.where(eligible, assigned, -1.0)
            idx = int(assigned.argmax())
            counts[new_labels[idx]] -= 1
            new_labels[idx] = c
            counts[c] += 1
            centers[c] = points[idx]
            dists[:, c] = ((points - centers[c]) ** 2).sum(axis=1)
        wcss = float(dists[np.arange(n), new_labels].sum())
        prev_wcss = wcss
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in range(k):
            members = points[labels == c]
            if members.size:
                centers[c] = members.mean(axis=0)
    return labels, centers, prev_wcss


def reference_kmeans(points, k: int, seed=0, max_iters: int = 100, restarts: int = 10):
    """k-means++ seeding then Lloyd with an n x k x d distance temporary and
    one masked mean per center: a frozen copy of the original loop version,
    kept to pin the vectorized one bit for bit.  Returns (labels, centers,
    wcss) of the best restart."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(restarts):
        init = _reference_plus_plus_init(points, k, rng)
        labels, centers, wcss = _reference_lloyd(points, init, max_iters)
        if best is None or wcss < best[2]:
            best = (labels, centers, wcss)
    return best


def _row_major_lloyd(points, centers, max_iters):
    n, k = points.shape[0], centers.shape[0]
    centers = centers.copy()
    labels = np.full(n, -1)
    prev_wcss = math.inf
    for _ in range(max_iters):
        dists = np.zeros((n, k))
        for j in range(points.shape[1]):
            dists += (points[:, j, None] - centers[None, :, j]) ** 2
        new_labels = dists.argmin(axis=1)
        counts = np.bincount(new_labels, minlength=k)
        for c in np.nonzero(counts == 0)[0]:
            eligible = counts[new_labels] > 1
            if not eligible.any():
                break
            assigned = dists[np.arange(n), new_labels]
            assigned = np.where(eligible, assigned, -1.0)
            idx = int(assigned.argmax())
            counts[new_labels[idx]] -= 1
            new_labels[idx] = c
            counts[c] += 1
            centers[c] = points[idx]
            dists[:, c] = ((points - centers[c]) ** 2).sum(axis=1)
        wcss = float(dists[np.arange(n), new_labels].sum())
        prev_wcss = wcss
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        filled = counts > 0
        for j in range(points.shape[1]):
            sums = np.bincount(labels, weights=points[:, j], minlength=k)
            centers[filled, j] = sums[filled] / counts[filled]
    return labels, centers, prev_wcss


def row_major_kmeans(points, k: int, seed=0, max_iters: int = 100, restarts: int = 10):
    """k-means++ seeding then Lloyd with its distances held point-major
    (n x k), accumulated one coordinate at a time, an argmin along each row
    and per-coordinate bincount center updates: a frozen copy of the first
    vectorized version.  Its arithmetic is the cluster-major one's in the
    same order for every d, so it pins that layout bit for bit.  Returns
    (labels, centers, wcss) of the best restart."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(restarts):
        init = _reference_plus_plus_init(points, k, rng)
        labels, centers, wcss = _row_major_lloyd(points, init, max_iters)
        if best is None or wcss < best[2]:
            best = (labels, centers, wcss)
    return best


def reference_latent_in_range(rows, block: int = 512) -> bool:
    """Whether every pairwise dot product of ``rows``, diagonal included,
    lies in [0, 1] up to 1e-9: a frozen copy of the original check, which
    forms X_i . X_j for all n^2 pairs, 512 rows at a time."""
    rows = np.asarray(rows, dtype=float)
    for start in range(0, rows.shape[0], block):
        products = rows[start : start + block] @ rows.T
        if products.min() < -1e-9 or products.max() > 1.0 + 1e-9:
            return False
    return True


def reference_sample_adjacency(rows, seed) -> np.ndarray:
    """The (m, 2) edge endpoints i < j that the original sampler drew from
    latent positions ``rows`` and ``seed``: a frozen copy of its loop, which
    draws one row's uniforms per call and compares them with that row's
    clipped products X[i + 1 :] @ X[i]."""
    X = np.asarray(rows, dtype=float)
    n = X.shape[0]
    rng = np.random.default_rng(seed)
    heads, tails = [], []
    for i in range(n - 1):
        p = np.clip(X[i + 1 :] @ X[i], 0.0, 1.0)
        u = rng.random(n - 1 - i)
        hit = np.nonzero(u < p)[0]
        if hit.size:
            heads.append(np.full(hit.size, i, dtype=np.int64))
            tails.append(hit.astype(np.int64) + i + 1)
    if not heads:
        return np.empty((0, 2), dtype=np.int64)
    return np.column_stack([np.concatenate(heads), np.concatenate(tails)])


def sample_block_edges(sizes, B, seed) -> np.ndarray:
    """The (m, 2) distinct edges u < v of one block model draw, in O(n + m).

    Each block pair draws its edge count from a binomial over its vertex
    pairs, then that many distinct pairs uniformly by rank.  Within a block
    the rank of u < v is v(v - 1)/2 + u, unranked through a float square
    root that can land one off either way."""
    rng = np.random.default_rng(seed)
    starts = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
    parts = []
    for a, b in itertools.combinations_with_replacement(range(len(sizes)), 2):
        total = sizes[a] * (sizes[a] - 1) // 2 if a == b else sizes[a] * sizes[b]
        rank = rng.choice(total, size=rng.binomial(total, B[a][b]), replace=False)
        if a == b:
            v = np.floor((1.0 + np.sqrt(1.0 + 8.0 * rank)) / 2.0).astype(np.int64)
            v -= v * (v - 1) // 2 > rank
            v += v * (v + 1) // 2 <= rank
            u = rank - v * (v - 1) // 2
        else:
            u, v = np.divmod(rank, sizes[b])
        parts.append(np.column_stack([u + starts[a], v + starts[b]]))
    return np.concatenate(parts)


def reference_csr_error(n: int, indptr, indices) -> str | None:
    """The message of the first structural rule a compressed-row adjacency
    breaks, or None: a frozen copy of the original checks, whose symmetry
    test lexsorts the entries by (row, column) and by (column, row)."""
    indptr = np.array(indptr, dtype=np.int64)
    indices = np.array(indices, dtype=np.int64)
    if n < 1:
        return "a graph needs at least one vertex"
    if indptr.shape != (n + 1,) or indptr[0] != 0 or indptr[-1] != indices.size:
        return "malformed row pointer array"
    if np.any(np.diff(indptr) < 0):
        return "row pointers must be nondecreasing"
    if indices.size % 2 != 0:
        return "a symmetric hollow graph has an even entry count"
    if indices.size:
        if indices.min() < 0 or indices.max() >= n:
            return "neighbor index out of range"
        src = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
        if np.any(src == indices):
            return "self loops are not allowed"
        same_row = src[1:] == src[:-1]
        if np.any(same_row & (np.diff(indices) <= 0)):
            return "neighbor lists must be sorted and unique"
        forward = np.lexsort((indices, src))
        backward = np.lexsort((src, indices))
        if not (
            np.array_equal(src[forward], indices[backward])
            and np.array_equal(indices[forward], src[backward])
        ):
            return "adjacency structure is not symmetric"
    return None


def reference_ingest_edge_list(path) -> dict:
    """A frozen copy of the original edge-list reader: one Python step per
    line, ``np.unique`` for id compaction and duplicate merging, and a
    lexsort compressed-row build.  Returns the graph's ``indptr`` and
    ``indices``, the ``vertex_ids`` map and the two cleaning counts."""
    from spectol.errors import DomainError, ParseError

    heads, tails = [], []
    self_loops = 0
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            parts = text.split()
            if len(parts) != 2:
                raise ParseError(lineno, f"expected two tokens, got {len(parts)}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError(lineno, f"non-integer token in {parts!r}") from None
            if u < 0 or v < 0:
                raise ParseError(lineno, "negative vertex id")
            if u >= 2**63 or v >= 2**63:
                raise ParseError(lineno, "vertex id at or above 2^63")
            if u == v:
                self_loops += 1
                continue
            heads.append(u)
            tails.append(v)
    if not heads:
        raise DomainError(f"no edges in {path}")
    u = np.asarray(heads, dtype=np.int64)
    v = np.asarray(tails, dtype=np.int64)
    vertex_ids = np.unique(np.concatenate([u, v]))
    u = np.searchsorted(vertex_ids, u)
    v = np.searchsorted(vertex_ids, v)
    n = vertex_ids.size
    lo = np.minimum(u, v)
    hi = np.maximum(u, v)
    codes = np.unique(lo * np.int64(n) + hi)
    src = np.concatenate([codes // n, codes % n])
    dst = np.concatenate([codes % n, codes // n])
    order = np.lexsort((dst, src))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return {
        "indptr": indptr,
        "indices": dst[order],
        "vertex_ids": vertex_ids,
        "self_loops_dropped": self_loops,
        "duplicates_merged": lo.size - codes.size,
    }


def _magnitude_order(values):
    # decreasing |value|, positive first within a relative 1e-12, then index
    boosted = np.abs(values) * (1.0 + 1e-12 * (values > 0))
    return np.lexsort((np.arange(values.size), -np.sign(values), -boosted))


def ritz_gap_rho(ritz_values: np.ndarray, all_values: np.ndarray) -> float:
    """Minimum distance from the Ritz values to the excluded spectrum.

    ``all_values`` is the full spectrum; the len(ritz_values) leading entries
    by magnitude are excluded and rho is the smallest |ritz - mu| over the
    rest.  Zero is possible when a Ritz value coincides with an excluded
    eigenvalue.
    """
    from spectol.errors import DomainError

    ritz = np.asarray(ritz_values, dtype=float).reshape(-1)
    full = np.asarray(all_values, dtype=float).reshape(-1)
    if ritz.size == 0:
        raise DomainError("no Ritz values supplied")
    if full.size <= ritz.size:
        raise DomainError("the excluded spectrum is empty")
    excluded = full[_magnitude_order(full)][ritz.size :]
    return float(np.abs(ritz[:, None] - excluded[None, :]).min())


def _column_orthogonalize(t, basis):
    for _ in range(2):
        t = t - basis @ (basis.T @ t)
    return t


def _column_expand(A, Q, W, j, m, b, rng):
    n = Q.shape[0]
    start = j
    while j < m:
        source = W[:, max(j - b, 0)]
        t = _column_orthogonalize(source, Q[:, :j])
        beta = np.linalg.norm(t)
        if beta <= 1e-12 * max(1.0, np.linalg.norm(source)):
            t = _column_orthogonalize(rng.standard_normal(n), Q[:, :j])
            beta = np.linalg.norm(t)
            if beta <= 1e-8 * np.sqrt(n):
                break
        Q[:, j] = t / beta
        W[:, j] = A.matvec(Q[:, j])
        j += 1
    return j, j - start


def _column_restarts(A, d, m, max_restarts, seed):
    n = A.n
    b = min(2, m)
    keep = max(d, min(d + 5, m - b))
    rng = np.random.default_rng(seed)
    Q = np.zeros((n, m + b))
    W = np.zeros((n, m + b))
    Q[:, :b] = np.linalg.qr(rng.random((n, b)))[0]
    for i in range(b):
        W[:, i] = A.matvec(Q[:, i])
    matvecs = b
    j = b
    for iteration in range(1, max_restarts + 1):
        j, used = _column_expand(A, Q, W, j, m, b, rng)
        matvecs += used
        H = Q[:, :j].T @ W[:, :j]
        H = 0.5 * (H + H.T)
        all_theta, all_Y = np.linalg.eigh(H)
        order = _magnitude_order(all_theta)
        take = order[: min(d, j)]
        theta = all_theta[take]
        Yd = all_Y[:, take]
        denom = float(np.abs(all_theta[order[0]]))
        settled = False
        if j > d:
            p = max(j - b, d)
            prev = np.linalg.eigvalsh(H[:p, :p])
            prev = prev[_magnitude_order(prev)[:d]]
            settled = bool(np.all(
                np.abs(theta - prev) <= 1e-3 * np.maximum(np.abs(theta), 1e-300)
            ))
        U = Q[:, :j] @ Yd
        G = W[:, :j] @ Yd - U * theta
        est = float(np.sqrt(max(0.0, np.linalg.eigvalsh(G.T @ G)[-1])))
        yield matvecs, settled, est, denom, U, theta
        if iteration == max_restarts:
            return
        nxt, used = _column_expand(A, Q, W, j, j + b, b, rng)
        matvecs += used
        hold = order[: min(keep, j)]
        held = hold.size
        fresh = min(nxt - j, m - held)
        for M in (Q, W):
            M[:, :held] = M[:, :j] @ all_Y[:, hold]
            M[:, held : held + fresh] = M[:, j : j + fresh]
        j = held + fresh


def column_major_solve(A, d, tol, *, seed, max_restarts: int = 400) -> dict:
    """A fresh ``truncated_eigs(A, d, tol, seed=seed)`` on the block
    thick-restart Lanczos solver as it stood with its basis stored one
    vector per column: a frozen copy of that trajectory, stopped by the
    same rule (settled, estimate, then the exact residual, against
    tol * |theta_1|).  Kept to pin the row-major solver's iteration and
    product counts exactly and its values and vectors to rounding.
    Returns ``iterations``, ``matvecs``, ``values``, ``vectors`` and
    ``converged``; an unconverged solve counts d products for measuring
    its final residual, as the solver does."""
    m = min(max(2 * d + 5, 20), A.n)
    if m <= d:
        m = min(A.n, d + 1)

    def exact_residual(U, theta):
        G = np.column_stack([A.matvec(U[:, i]) - theta[i] * U[:, i]
                             for i in range(d)])
        return float(np.sqrt(max(0.0, np.linalg.eigvalsh(G.T @ G)[-1])))

    checks = iterations = 0
    converged = False
    for matvecs, settled, est, denom, U, theta in _column_restarts(
        A, d, m, max_restarts, seed
    ):
        iterations += 1
        if settled and est <= tol * denom:
            checks += 1
            if exact_residual(U, theta) <= tol * denom:
                converged = True
                break
    return {
        "iterations": iterations,
        "matvecs": matvecs + d * (checks + (not converged)),
        "values": theta,
        "vectors": U,
        "converged": converged,
    }


def reference_read_sweep_csv(path) -> list:
    """The records of a sweep CSV, one ``csv.DictReader`` row each.

    The counts are read with int() and every other column with float(),
    which gives back a 17-significant-digit value bit for bit, NaN too."""
    from spectol.experiments import SweepRecord

    counts = {"replicate", "iterations", "matvecs"}
    with open(path, encoding="utf-8", newline="") as fh:
        return [
            SweepRecord(**{col: (int if col in counts else float)(text)
                           for col, text in row.items()})
            for row in csv.DictReader(fh)
        ]


def fresh_sweep_records(config) -> list:
    """The records of ``run_tolerance_sweep(config)`` for a block model with
    a fixed d, from one fresh solve per (replicate, tolerance).  ``rho`` is
    taken against the dense spectrum of the replicate's graph, which the
    sweep's extremes solve matches to rounding, not bit for bit."""
    from spectol import (
        FactoredProbabilityMatrix,
        procrustes_distance,
        sample_adjacency,
        sbm_to_latent,
        truncated_eigs,
    )
    from spectol.experiments import SweepRecord

    P = FactoredProbabilityMatrix(sbm_to_latent(config.model))
    sigma, V = P.eigendecomposition()
    d = config.d
    records = []
    for r in range(config.replicates):
        graph_ss, solver_ss = np.random.SeedSequence(config.seed + r).spawn(2)
        A = sample_adjacency(P, graph_ss)
        spectrum = np.linalg.eigvalsh(A.to_dense())
        for tol in config.tolerances:
            dec = truncated_eigs(A, d, tol, seed=solver_ss)
            scaled = None
            if config.scaled:
                scaled = procrustes_distance(
                    dec.vectors * np.sqrt(np.abs(dec.values)), V[:, :d] * np.sqrt(sigma[:d])
                )[0]
            records.append(SweepRecord(
                tol_exponent=-math.log2(tol),
                replicate=r,
                iterations=dec.iterations,
                matvecs=dec.matvecs,
                procrustes_error=procrustes_distance(dec.vectors, V[:, :d])[0],
                residual=dec.residual,
                rho=ritz_gap_rho(dec.values, spectrum),
                elapsed_ms=0.0,
                procrustes_error_scaled=scaled,
            ))
    return records


def dense_sweep_rhos(config) -> list[float]:
    """The rho of every cell of ``run_tolerance_sweep(config)`` with a fixed
    d, in record order, against ``np.linalg.eigvalsh`` of the replicate's
    graph.  The cell's Ritz values come from the replicate's restart path."""
    from spectol import (
        FactoredProbabilityMatrix,
        RestartPath,
        SbmSpec,
        sample_adjacency,
        sbm_to_latent,
        truncated_eigs,
    )
    from spectol.experiments import ingest_edge_list

    if isinstance(config.model, SbmSpec):
        P = FactoredProbabilityMatrix(sbm_to_latent(config.model))
    else:
        fixed = ingest_edge_list(config.model).graph
    rhos = []
    for r in range(config.replicates):
        graph_ss, solver_ss = np.random.SeedSequence(config.seed + r).spawn(2)
        A = sample_adjacency(P, graph_ss) if isinstance(config.model, SbmSpec) else fixed
        spectrum = np.linalg.eigvalsh(A.to_dense())
        path = RestartPath(A, config.d, solver_ss)
        for tol in config.tolerances:
            dec = truncated_eigs(A, config.d, tol, path=path)
            rhos.append(ritz_gap_rho(dec.values, spectrum))
    return rhos


def fresh_stability_records(graph, d, tolerances, reference_tol, seed, repetitions,
                            k_range) -> list:
    """The records of ``run_clustering_stability``, from one fresh solve and
    one fresh k-means and silhouette per (repetition, tolerance)."""
    from spectol import (
        adjusted_rand_index,
        choose_k_by_silhouette,
        kmeans,
        silhouette_width,
        truncated_eigs,
    )
    from spectol.experiments import StabilityRecord

    records = []
    for rep in range(repetitions):
        solver_ss, cluster_ss = np.random.SeedSequence(seed + rep).spawn(2)
        ref = truncated_eigs(graph, d, reference_tol, seed=solver_ss)
        ref_k, ref_clustering = choose_k_by_silhouette(ref.vectors, k_range, cluster_ss)
        prev_labels = None
        for tol in tolerances:
            vectors = truncated_eigs(graph, d, tol, seed=solver_ss).vectors
            clustering = kmeans(vectors, ref_k, seed=cluster_ss)
            records.append(StabilityRecord(
                tol_exponent=-math.log2(tol),
                repetition=rep,
                k_chosen=ref_k,
                ari_vs_reference=adjusted_rand_index(clustering.labels, ref_clustering.labels),
                ari_vs_coarser=(adjusted_rand_index(clustering.labels, prev_labels)
                                if prev_labels is not None else float("nan")),
                mean_silhouette=silhouette_width(vectors, clustering).mean,
            ))
            prev_labels = clustering.labels
    return records

