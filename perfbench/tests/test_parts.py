"""Tests of the benchmark's own parts.

    python3 -m pytest perfbench/tests
"""
from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import sbmgen  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_self_time_of_a_nested_span_tree():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3]
    tree = [
        spans.Span(0, "root", None, 1, 0.0, 10.0),
        spans.Span(1, "a", 0, 1, 1.0, 4.0),
        spans.Span(2, "c", 1, 1, 2.0, 3.0),
        spans.Span(3, "b", 0, 1, 5.0, 9.0),
    ]
    assert spans.self_times(tree) == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0}


def test_recorder_nests_spans_and_counts():
    recorder = spans.Recorder()
    inner = recorder.wrap("inner", lambda x: x + 1, lambda a, k, r: {"edges": r})
    outer = recorder.wrap("outer", lambda x: inner(x) * 2)
    assert outer(3) == 8
    by_name = {s.name: s for s in recorder.spans}
    assert by_name["inner"].parent == by_name["outer"].id
    assert by_name["outer"].parent is None
    assert by_name["inner"].counts == {"edges": 4}
    assert by_name["outer"].t0 <= by_name["inner"].t0 <= by_name["inner"].t1 <= by_name["outer"].t1


def test_layer_metrics_derive_rates_from_spans():
    tree = [
        spans.Span(0, "spectral_core.truncated_eigs", None, 1, 0.0, 2.0,
                   {"matvecs": 10, "restarts": 3, "nonconverged": 0}),
        spans.Span(1, "graph_model.SparseGraph.matvec", 0, 1, 0.5, 1.0, {"nnz": 100, "n": 10}),
    ]
    out = spans.layer_metrics(tree)
    assert out["spectral_core.truncated_eigs.self_s"] == pytest.approx(1.5)
    assert out["graph_model.SparseGraph.matvec.ns_per_nnz"] == pytest.approx(5e6)
    assert out["graph_model.SparseGraph.matvec.flops_computed"] == 100
    assert out["graph_model.SparseGraph.matvec.bytes_computed"] == 24 * 100 + 16 * 10
    assert out["metrics.kmeans.calls"] == 0


def test_triangle_unranking_covers_every_pair_once():
    s = 57
    t = np.arange(s * (s - 1) // 2)
    lo, hi = sbmgen._pair_from_triangle_index(t)
    assert np.all((0 <= lo) & (lo < hi) & (hi < s))
    assert np.unique(lo * s + hi).size == t.size
    # exact near the top of the range used by a 25,000-vertex block
    big = np.array([25_000 * 24_999 // 2 - 1, 24_999 * 24_998 // 2])
    lo, hi = sbmgen._pair_from_triangle_index(big)
    assert lo.tolist() == [24_998, 0] and hi.tolist() == [24_999, 24_999]


def test_generator_is_simple_symmetric_and_sized():
    sizes = (40, 60, 50)
    B = sbmgen.block_matrix(3, 0.3, 0.05)
    edges = sbmgen.sample_sbm_edges(sizes, B, seed=3)
    assert np.array_equal(edges, sbmgen.sample_sbm_edges(sizes, B, seed=3))
    n = sum(sizes)
    A = np.zeros((n, n), dtype=int)
    np.add.at(A, (edges[:, 0], edges[:, 1]), 1)
    np.add.at(A, (edges[:, 1], edges[:, 0]), 1)
    assert np.all(edges[:, 0] < edges[:, 1])
    assert A.max() == 1 and np.trace(A) == 0 and np.array_equal(A, A.T)
    # each block pair's edge count against its own binomial
    block = np.repeat(np.arange(3), sizes)
    for a in range(3):
        for b in range(a, 3):
            pairs = sizes[a] * (sizes[a] - 1) // 2 if a == b else sizes[a] * sizes[b]
            got = A[np.ix_(block == a, block == b)].sum() // (2 if a == b else 1)
            sd = np.sqrt(pairs * B[a, b] * (1 - B[a, b]))
            assert abs(got - pairs * B[a, b]) <= 5 * sd


def test_edge_list_round_trip(tmp_path):
    edges = sbmgen.sample_sbm_edges((30, 30), sbmgen.block_matrix(2, 0.2, 0.1), seed=1)
    path = tmp_path / "g.txt"
    sbmgen.write_edge_list(path, edges)
    assert np.array_equal(np.loadtxt(path, dtype=np.int64), edges)


def test_planted_eigenvectors_match_dense_eigh():
    sizes = (5, 7, 9)
    B = np.array([[0.5, 0.1, 0.2], [0.1, 0.6, 0.1], [0.2, 0.1, 0.4]])
    values, vectors = sbmgen.planted_eigenvectors(sizes, B)
    Z = np.repeat(np.eye(3), sizes, axis=0)
    P = Z @ B @ Z.T
    assert np.allclose(P @ vectors, vectors * values)
    dense = np.linalg.eigvalsh(P)
    assert np.allclose(values, dense[np.argsort(-np.abs(dense))][:3])


def test_dense_oracle_check_fails_a_perturbed_or_wrong_solve():
    rng = np.random.default_rng(0)
    V, _ = np.linalg.qr(rng.standard_normal((12, 12)))
    eig = np.array([10.0, 7.0, 5.0, 1.0, 0.5, -0.8, 0.3, -0.2, 0.1, 0.0, -0.4, 0.6])
    dense = V @ np.diag(eig) @ V.T
    tol = 1e-6
    exact = V[:, :3]
    assert workloads.dense_oracle_problems(dense, eig[:3], exact, tol) == []
    # a solve stopped early: one column tilted 1e-5 toward a bulk eigenvector
    tilted = exact.copy()
    tilted[:, 2] += 1e-5 * V[:, 3]
    tilted, _ = np.linalg.qr(tilted)
    assert tilted.T @ dense @ tilted == pytest.approx(np.diag(eig[:3]), abs=1e-8)
    assert workloads.dense_oracle_problems(dense, eig[:3], tilted, tol) != []
    # converged to the wrong invariant subspace: zero residual, wrong values
    wrong = V[:, [0, 1, 3]]
    assert workloads.dense_oracle_problems(dense, eig[[0, 1, 3]], wrong, tol) != []


def test_every_metric_name_is_valid():
    config = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in config["end_to_end"] + config["per_layer"]]
    names += [w["name"] for w in config["workloads"]]
    layer = set(spans.layer_metrics([])) | {
        "experiments.run_tolerance_sweep.speedup_2w", "trace.overhead_frac"}
    assert {m["name"] for m in config["per_layer"]} == layer
    child = {"wall_s": 1.0, "peak_rss_mb": 2.0, "accuracy": {"procrustes_err": 0.5}}
    metrics, _ = run.end_to_end([child], [0.1])
    assert {m["name"] for m in config["end_to_end"]} == set(metrics)
    for m in config["end_to_end"]:
        assert m["unit"] == metrics[m["name"]]["unit"]
    for name in names + sorted(layer):
        assert NAME.fullmatch(name), name
    assert len(set(names)) == len(names)
    for metric in config["per_layer"]:
        assert metric["unit"] == spans.unit_of(metric["name"])
