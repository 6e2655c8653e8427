"""Seeded O(n + m) stochastic block model edge lists, independent of spectol.

Each block pair draws its edge count from a binomial over its vertex pairs,
then that many distinct pairs uniformly without replacement.  The sampler
never touches the n^2 pairs one by one, so a 100,000-vertex graph with a
million edges takes under a second.  The planted eigenvectors of the
probability matrix P = Z B Z^T come in closed form from the block matrix.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np


def block_matrix(k: int, p_in: float, p_out: float) -> np.ndarray:
    return np.full((k, k), p_out) + np.eye(k) * (p_in - p_out)


def _pair_from_triangle_index(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unrank t in [0, s(s-1)/2) to the pair (j, i) with j < i, t = i(i-1)/2 + j."""
    i = np.floor((1.0 + np.sqrt(1.0 + 8.0 * t.astype(float))) / 2.0).astype(np.int64)
    # the float root can land one off for large t; correct in both directions
    i -= (i * (i - 1) // 2) > t
    i += ((i + 1) * i // 2) <= t
    return t - i * (i - 1) // 2, i


def sample_sbm_edges(sizes, B, seed) -> np.ndarray:
    """An (m, 2) array of distinct edges u < v of one SBM draw, zero-based ids."""
    sizes = np.asarray(sizes, dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    rng = np.random.default_rng(seed)
    parts = []
    for a in range(sizes.size):
        for b in range(a, sizes.size):
            pairs = sizes[a] * (sizes[a] - 1) // 2 if a == b else sizes[a] * sizes[b]
            count = rng.binomial(pairs, B[a, b])
            picks = rng.choice(pairs, size=count, replace=False)
            if a == b:
                lo, hi = _pair_from_triangle_index(picks)
            else:
                lo, hi = np.divmod(picks, sizes[b])
            parts.append(np.column_stack([lo + offsets[a], hi + offsets[b]]))
    return np.concatenate(parts)


def write_edge_list(path, edges: np.ndarray) -> None:
    """One "u v" line per edge, the format spectol's reader takes."""
    Path(path).write_text("%d %d\n" * len(edges) % tuple(edges.ravel().tolist()),
                          encoding="ascii")


def planted_eigenvectors(sizes, B) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of P = Z B Z^T (diagonal included) by decreasing magnitude.

    With D = diag(sqrt(sizes)), P = (Z D^-1)(D B D)(Z D^-1)^T and Z D^-1 has
    orthonormal columns, so the eigenvectors of the k x k matrix D B D lift
    to those of P.
    """
    sizes = np.asarray(sizes)
    root = np.sqrt(sizes.astype(float))
    values, W = np.linalg.eigh(root[:, None] * B * root[None, :])
    order = np.argsort(-np.abs(values), kind="stable")
    Z = np.repeat(np.eye(sizes.size), sizes, axis=0)
    return values[order], (Z / root) @ W[:, order]
