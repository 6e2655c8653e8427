"""Acceptance gate: one test per shipped guarantee, each reported as a
single PASS/FAIL line in the terminal summary (see conftest)."""
from __future__ import annotations

import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

from spectol import (
    FactoredProbabilityMatrix,
    LatentPositions,
    SbmSpec,
    SparseGraph,
    canonical_angles,
    dense_eig_oracle,
    expected_squared_deviation_diagonal,
    heuristic_tolerance,
    kmeans,
    procrustes_distance,
    run_clustering_stability,
    sample_adjacency,
    sampling_error_constant,
    sbm_to_latent,
    silhouette_width,
    truncated_eigs,
    zhu_ghodsi_dimension,
    adjusted_rand_index,
)
from conftest import record_criterion, three_block_spec
from oracles import (
    brute_force_elbow,
    brute_force_procrustes,
    monte_carlo_sq_deviation,
    pair_counting_ari,
    ritz_gap_rho,
    sample_hollow_adjacency,
)


def graph_from_dense(A: np.ndarray) -> SparseGraph:
    rows, cols = np.nonzero(np.triu(A, 1))
    return SparseGraph.from_edges(A.shape[0], np.column_stack([rows, cols]))


def three_block_model(n_per_block: int) -> FactoredProbabilityMatrix:
    B = np.full((3, 3), 0.02)
    np.fill_diagonal(B, 0.05)
    return FactoredProbabilityMatrix(
        sbm_to_latent(SbmSpec(B, (n_per_block,) * 3))
    )


@pytest.fixture(scope="module")
def oracle_runs():
    """Solver runs shared by the first three criteria.

    50 dense-verifiable random graphs at tight tolerance, plus 21 block-model
    runs spread over three coarser tolerances, each kept alongside its dense
    spectrum.
    """
    rng = np.random.default_rng(2024)
    random_runs = []
    t0 = time.perf_counter()
    for i in range(50):
        A = sample_hollow_adjacency(np.full((100, 100), 0.5), rng)
        graph = graph_from_dense(A)
        dec = truncated_eigs(graph, 5, 1e-10, seed=i)
        values, vectors = dense_eig_oracle(A)
        random_runs.append(SimpleNamespace(dec=dec, dense=A, values=values, vectors=vectors))
    random_elapsed = time.perf_counter() - t0

    sbm_runs = []
    P = three_block_model(100)
    for g in range(7):
        A = sample_adjacency(P, 500 + g)
        dense = A.to_dense()
        values, vectors = dense_eig_oracle(dense)
        for tol in (2.0**-4, 2.0**-8, 2.0**-12):
            dec = truncated_eigs(A, 3, tol, seed=g)
            sbm_runs.append(
                SimpleNamespace(dec=dec, dense=dense, values=values, vectors=vectors)
            )
    return SimpleNamespace(
        random_runs=random_runs, sbm_runs=sbm_runs, random_elapsed=random_elapsed
    )


def test_criterion_01_oracle_equivalence(oracle_runs):
    worst_value = 0.0
    worst_sin = 0.0
    for run in oracle_runs.random_runs:
        worst_value = max(
            worst_value, float(np.abs(run.dec.values - run.values[:5]).max())
        )
        worst_sin = max(
            worst_sin, canonical_angles(run.vectors[:, :5], run.dec.vectors)[1]
        )
    elapsed = oracle_runs.random_elapsed
    ok = worst_value <= 1e-8 and worst_sin <= 1e-6 and elapsed < 30.0
    record_criterion(
        1,
        "oracle equivalence",
        ok,
        f"50 runs: max value err {worst_value:.2e}, max sin-theta {worst_sin:.2e}, "
        f"{elapsed:.1f}s",
    )
    assert ok


def test_criterion_02_kahan_invariant(oracle_runs):
    runs = oracle_runs.random_runs + oracle_runs.sbm_runs
    violations = 0
    worst_margin = -math.inf
    for run in runs:
        for theta in run.dec.values:
            err = float(np.abs(run.values - theta).min())
            margin = err - (run.dec.residual + 1e-10)
            worst_margin = max(worst_margin, margin)
            if margin > 0:
                violations += 1
    ok = violations == 0
    record_criterion(
        2,
        "eigenvalue error within residual norm",
        ok,
        f"{len(runs)} runs ({len(oracle_runs.sbm_runs)} block-model), "
        f"{violations} violations, worst margin {worst_margin:.2e}",
    )
    assert ok


def test_criterion_03_sin_theta_invariant(oracle_runs):
    runs = oracle_runs.random_runs + oracle_runs.sbm_runs
    violations = 0
    checked = 0
    for run in runs:
        d = run.dec.values.size
        rho = ritz_gap_rho(run.dec.values, run.values)
        if rho == 0.0:
            continue
        checked += 1
        G = run.dense @ run.dec.vectors - run.dec.vectors * run.dec.values
        sin_f = canonical_angles(run.vectors[:, :d], run.dec.vectors)[1]
        if sin_f > np.linalg.norm(G) / rho + 1e-10:
            violations += 1
    ok = violations == 0 and checked == len(runs)
    record_criterion(
        3,
        "subspace angle within residual over gap",
        ok,
        f"{checked}/{len(runs)} runs had a positive gap, {violations} violations",
    )
    assert ok


def test_criterion_04_sweep_flattening_and_iteration_savings(benchmark_sweep):
    rows = {
        row["tol_exponent"]: row
        for row in benchmark_sweep.serial_a.summary["per_tolerance"]
    }
    err_mid, err_tight = rows[6]["mean_procrustes"], rows[20]["mean_procrustes"]
    it_mid, it_tight = rows[6]["mean_iterations"], rows[20]["mean_iterations"]
    rel = abs(err_mid - err_tight) / err_tight
    ratio = it_mid / it_tight
    elapsed = benchmark_sweep.serial_a.elapsed
    ok = rel <= 0.05 and ratio <= 0.6 and elapsed < 300.0
    record_criterion(
        4,
        "error flattening and iteration savings",
        ok,
        f"error rel diff {rel:.4f} (<=0.05), iteration ratio {ratio:.3f} (<=0.6), "
        f"{elapsed:.1f}s",
    )
    assert ok


def test_criterion_05_heuristic_values():
    big = heuristic_tolerance(1134890, 1134890)
    mid = heuristic_tolerance(900, 900)
    ok = abs(big - 3.56e-4) <= 1e-6 and 2.0**-6 <= mid <= 2.0**-5.5
    record_criterion(
        5,
        "heuristic tolerance values",
        ok,
        f"h(1134890)={big:.6e}, h(900)={mid:.6f} in [2^-6, 2^-5.5]",
    )
    assert ok


def test_criterion_06_sampling_constant_validation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    X = rng.uniform(0.15, 0.6, size=(30, 2))
    P = FactoredProbabilityMatrix(LatentPositions(X))
    closed = np.diag(expected_squared_deviation_diagonal(P))
    mc_mean, mc_se = monte_carlo_sq_deviation(P.dense(), 2000, seed=7)
    gap = np.abs(closed - mc_mean)
    allowed = 5.0 * mc_se
    entrywise_ok = bool(np.all(gap <= allowed + 1e-12))
    worst_sigma = float((gap / np.where(mc_se > 0, mc_se, np.inf)).max())

    scale_values = []
    for n_per_block in (100, 300, 900):
        model = three_block_model(n_per_block)
        lam1 = float(model.eigendecomposition()[0][0])
        scale_values.append(sampling_error_constant(model, 3) * math.sqrt(lam1))
    spread = max(scale_values) / min(scale_values)
    elapsed = time.perf_counter() - t0
    ok = entrywise_ok and spread <= 1.5 and elapsed < 120.0
    record_criterion(
        6,
        "sampling constant closed form and scaling",
        ok,
        f"MC worst dev {worst_sigma:.2f} sigma (<=5), scale spread x{spread:.3f} "
        f"(<=1.5), {elapsed:.1f}s",
    )
    assert ok


def test_criterion_07_concentration_band(three_block_900):
    V = three_block_900.eigendecomposition()[1][:, :3]
    constant = sampling_error_constant(three_block_900, 3)
    in_band = 0
    ratios = []
    for r in range(20):
        A = sample_adjacency(three_block_900, 9000 + r)
        U_A = dense_eig_oracle(A.to_dense())[1][:, :3]
        dist = procrustes_distance(U_A, V)[0]
        ratios.append(dist / constant)
        if 0.5 * constant <= dist <= 2.0 * constant:
            in_band += 1
    ok = in_band >= 18
    record_criterion(
        7,
        "frame distance concentrates at sampling scale",
        ok,
        f"{in_band}/20 in [0.5, 2]xC(P), ratio range "
        f"[{min(ratios):.3f}, {max(ratios):.3f}], C(P)={constant:.4f}",
    )
    assert ok


def test_criterion_08_clustering_stability(three_block_900):
    t0 = time.perf_counter()
    graph = sample_adjacency(three_block_900, 0)
    tolerances = tuple(2.0**-k for k in range(1, 13))
    _, summary = run_clustering_stability(
        graph, 3, tolerances, reference_tol=1e-6, seed=0, repetitions=10
    )
    heuristic = heuristic_tolerance(graph.n, graph.n)
    qualifying = [
        row for row in summary["per_tolerance"] if row["tolerance"] <= heuristic
    ]
    min_ref_ari = min(row["mean_ari_vs_reference"] for row in qualifying)
    consecutive = [
        row["mean_ari_vs_coarser"]
        for row in summary["per_tolerance"]
        if not math.isnan(row["mean_ari_vs_coarser"])
    ]
    plateau_start = None
    for i in range(len(consecutive)):
        if all(v >= 0.9 for v in consecutive[i:]):
            plateau_start = i
            break
    elapsed = time.perf_counter() - t0
    ok = (
        bool(qualifying)
        and min_ref_ari >= 0.95
        and plateau_start is not None
        and elapsed < 600.0
    )
    record_criterion(
        8,
        "clustering stable below the heuristic tolerance",
        ok,
        f"min mean ARI {min_ref_ari:.4f} over {len(qualifying)} tolerances <= "
        f"{heuristic:.5f}, plateau from consecutive pair {plateau_start}, "
        f"{elapsed:.1f}s",
    )
    assert ok


def test_criterion_09_metrics_examples():
    t0 = time.perf_counter()
    checks = []

    a = [1, 1, 1, 2, 2, 2, 3, 3, 3, 3]
    b = [1, 1, 2, 2, 3, 3, 3, 3, 3, 3]
    ari = adjusted_rand_index(a, b)
    checks.append(abs(ari - pair_counting_ari(a, b)) <= 1e-12)
    checks.append(abs(ari - 8.0 / 23.0) <= 1e-12)

    rng = np.random.default_rng(5)
    X = rng.standard_normal((50, 3))
    Y = rng.standard_normal((50, 3))
    checks.append(
        abs(procrustes_distance(X, Y)[0] - brute_force_procrustes(X, Y)) <= 1e-6
    )
    W, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    checks.append(procrustes_distance(X, X @ W)[0] <= 1e-10)

    pts = np.array([[0.0], [0.1], [10.0], [10.1]])
    s0 = silhouette_width(pts, kmeans(pts, 2, seed=0)).values[0]
    checks.append(abs(s0 - (10.05 - 0.1) / 10.05) <= 1e-12)
    checks.append(abs(s0 - 0.99005) <= 1e-5)

    checks.append(zhu_ghodsi_dimension((100, 1, 1, 1, 1)) == 1)
    checks.append(zhu_ghodsi_dimension((10, 9.5, 9, 1, 0.9, 0.8)) == 3)
    checks.append(zhu_ghodsi_dimension((5, 5)) == 1)
    elbow_rng = np.random.default_rng(15)
    for _ in range(20):
        head = np.sort(elbow_rng.uniform(5, 10, size=elbow_rng.integers(1, 4)))[::-1]
        tail = np.sort(elbow_rng.uniform(0, 1, size=elbow_rng.integers(2, 6)))[::-1]
        scree = np.concatenate([head, tail])
        checks.append(zhu_ghodsi_dimension(scree) == brute_force_elbow(scree))

    elapsed = time.perf_counter() - t0
    ok = all(checks) and elapsed < 60.0
    record_criterion(
        9,
        "metric examples against brute-force oracles",
        ok,
        f"{sum(checks)}/{len(checks)} checks passed, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_10_byte_identical_sweeps(benchmark_sweep):
    a = benchmark_sweep.serial_a.path.read_bytes()
    b = benchmark_sweep.serial_b.path.read_bytes()
    c = benchmark_sweep.threaded.path.read_bytes()
    summaries_equal = (
        benchmark_sweep.serial_a.path.with_suffix(".summary.json").read_bytes()
        == benchmark_sweep.threaded.path.with_suffix(".summary.json").read_bytes()
    )
    ok = a == b == c and summaries_equal
    record_criterion(
        10,
        "byte-identical sweep output",
        ok,
        f"serial rerun and two-worker run both match ({len(a)} bytes)",
    )
    assert ok
