"""The three workloads: inputs, the one timed call into spectol, output checks.

Each workload is a class with
  prepare(seed, work)  once per benchmark run, in the runner, untimed; returns
                       a JSON-able dict passed to every child (input files,
                       oracle values);
  setup(seed, work, prepared, workers)
                       in the child before the clock starts; builds what the
                       call needs;
  call(state)          the timed call; returns its raw outputs;
  check(state, out)    in the child after the clock stops; returns
                       (attempted, failed, problems, accuracy dict).

The checks compute distances with the benchmark's own numpy code and take
large-graph eigenvalues from scipy, so spectol's metrics never vouch for
themselves.
"""
from __future__ import annotations

import contextlib
import csv
import io
import math
import re
import time

import numpy as np

import sbmgen

SIZES_900 = (300, 300, 300)
B_900 = sbmgen.block_matrix(3, 0.05, 0.02)


def procrustes(X: np.ndarray, Y: np.ndarray) -> float:
    """min over orthogonal O of ||X - Y O||_F."""
    U, _, Vt = np.linalg.svd(Y.T @ X)
    return float(np.linalg.norm(X - Y @ (U @ Vt)))


def dense_oracle_problems(dense: np.ndarray, values: np.ndarray, vectors: np.ndarray,
                          tol: float) -> list[str]:
    """Checks a rank-d solve at ``tol`` against a dense eigendecomposition.

    The bounds follow from the solver's contract, not from its output: a
    converged solve has ||A U - U S||_2 <= tol |lambda_1|, since its stopping
    rule divides by a Ritz estimate of |lambda_1|, which cannot exceed the
    true value.  Then each Ritz value lies within that residual of its
    leading dense eigenvalue (Kahan), and Davis-Kahan with Procrustes
    <= sqrt(2) ||sin Theta||_F puts U within sqrt(2 d) tol |lambda_1| / gap
    of the leading dense eigenvectors, where gap separates the Ritz values
    from the remaining eigenvalues.
    """
    d = values.size
    eig, eigvecs = np.linalg.eigh(dense)
    order = np.argsort(-np.abs(eig), kind="stable")
    limit = tol * abs(eig[order[0]]) * (1 + 1e-9)
    residual = float(np.linalg.norm(dense @ vectors - vectors * values, 2))
    if not residual <= limit:
        return [f"residual {residual:.3e} above the tolerance's {limit:.3e}"]
    shift = float(np.abs(np.sort(values) - np.sort(eig[order[:d]])).max())
    if not shift <= limit:
        return [f"a Ritz value is {shift:.3e} from its dense eigenvalue, above {limit:.3e}"]
    gap = float(np.abs(values[:, None] - eig[order[d:]][None, :]).min())
    err = procrustes(vectors, eigvecs[:, order[:d]])
    if not err <= math.sqrt(2 * d) * limit / gap:
        return [f"embedding is {err:.3e} from dense eigh, above "
                f"{math.sqrt(2 * d) * limit / gap:.3e}"]
    return []


class CountingSolver:
    """Counts solves and non-converged solves through one call-site binding.

    The sweep and stability records carry no convergence flag, so the
    untraced run counts it here: one attribute read per solve.
    """

    def __init__(self, module) -> None:
        self.original = module.truncated_eigs
        self.solves = 0
        self.nonconverged = 0
        module.truncated_eigs = self

    def __call__(self, *args, **kwargs):
        dec = self.original(*args, **kwargs)
        self.solves += 1
        self.nonconverged += not dec.converged
        return dec


class Sweep900:
    """run_tolerance_sweep on the three-block n=900 model, 20 replicates."""

    replicates = 20

    def prepare(self, seed, work):
        return {}

    def setup(self, seed, work, prepared, workers):
        from spectol import SbmSpec, experiments

        config = experiments.SweepConfig(
            model=SbmSpec(B_900, SIZES_900), d=3, replicates=self.replicates,
            seed=seed, workers=workers, output=str(work / "sweep.csv"))
        return {"config": config, "counter": CountingSolver(experiments)}

    def call(self, state):
        from spectol.experiments import run_tolerance_sweep

        return run_tolerance_sweep(state["config"])

    def check(self, state, out):
        from spectol import FactoredProbabilityMatrix, sample_adjacency, sbm_to_latent
        from spectol.spectral_core import truncated_eigs

        records, summary = out
        config, counter = state["config"], state["counter"]
        problems = []
        with open(config.output, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        expected = len(config.tolerances) * self.replicates
        if len(rows) != expected:
            problems.append(f"CSV has {len(rows)} rows, expected {expected}")
        if not all(math.isfinite(float(x)) for row in rows for x in row):
            problems.append("CSV holds a non-finite value")
        # replicate 0 at the tightest tolerance, rebuilt from the documented
        # seeding, against a dense eigendecomposition of the same graph
        graph_ss, solver_ss, _ = np.random.SeedSequence(config.seed).spawn(3)
        P = FactoredProbabilityMatrix(sbm_to_latent(config.model))
        A = sample_adjacency(P, graph_ss)
        dec = truncated_eigs(A, 3, config.tolerances[-1], seed=solver_ss)
        tight = [r for r in records
                 if r.replicate == 0 and r.tol_exponent == -math.log2(config.tolerances[-1])]
        if len(tight) != 1 or tight[0].matvecs != dec.matvecs:
            problems.append("replicate 0 could not be rebuilt from its seed")
        problems += dense_oracle_problems(A.to_dense(), dec.values, dec.vectors,
                                          config.tolerances[-1])

        heuristic = summary["heuristic"]["mean_heuristic_spectral"]
        row = max((r for r in summary["per_tolerance"] if r["tolerance"] <= heuristic),
                  key=lambda r: r["tolerance"])
        failed = counter.solves if problems else counter.nonconverged
        return counter.solves, failed, problems, {"procrustes_err": row["mean_procrustes"]}


class Cluster900:
    """run_clustering_stability on one n=900 graph: the criterion-8 setup."""

    tolerances = tuple(2.0**-k for k in range(1, 13))
    k_range = (2, 3, 4, 5, 6)
    repetitions = 10

    def prepare(self, seed, work):
        return {}

    def setup(self, seed, work, prepared, workers):
        from spectol import (FactoredProbabilityMatrix, SbmSpec, experiments,
                             sample_adjacency, sbm_to_latent)

        P = FactoredProbabilityMatrix(sbm_to_latent(SbmSpec(B_900, SIZES_900)))
        return {"seed": seed, "workers": workers, "graph": sample_adjacency(P, seed),
                "counter": CountingSolver(experiments)}

    def call(self, state):
        from spectol.experiments import run_clustering_stability

        return run_clustering_stability(
            state["graph"], 3, self.tolerances, reference_tol=1e-6, seed=state["seed"],
            repetitions=self.repetitions, k_range=self.k_range, workers=state["workers"])

    def check(self, state, out):
        from spectol.spectral_core import truncated_eigs
        from spectol.tolerance import heuristic_tolerance

        records, summary = out
        counter, graph = state["counter"], state["graph"]
        problems = []
        if len(records) != len(self.tolerances) * self.repetitions:
            problems.append(f"{len(records)} stability records")
        aris = [r.ari_vs_reference for r in records] + [
            r.ari_vs_coarser for r in records if not math.isnan(r.ari_vs_coarser)]
        if not all(-1.0 <= a <= 1.0 for a in aris):
            problems.append("an ARI lies outside [-1, 1]")
        if not all(r.k_chosen in self.k_range for r in records):
            problems.append("a chosen k lies outside the k range")
        heuristic = heuristic_tolerance(graph.n, graph.n)
        qualifying = [r["mean_ari_vs_reference"] for r in summary["per_tolerance"]
                      if r["tolerance"] <= heuristic]
        # the study's first reference embedding, recomputed with its seed
        solver_ss, _ = np.random.SeedSequence(state["seed"]).spawn(2)
        ref = truncated_eigs(graph, 3, 1e-6, seed=solver_ss)
        _, planted = sbmgen.planted_eigenvectors(SIZES_900, B_900)
        failed = counter.solves if problems else counter.nonconverged
        return counter.solves, failed, problems, {
            "procrustes_err": procrustes(ref.vectors, planted),
            "ari_min": min(qualifying),
        }


def _run_cli(argv) -> tuple[int, str]:
    from spectol.cli import cli_main

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli_main(argv)
    return code, buffer.getvalue()


class Embed100k:
    """`spectol embed --dim 4` on a generated four-block n=100,000 edge list."""

    sizes = (25_000,) * 4
    B = sbmgen.block_matrix(4, 14.0 / 25_000, 6.0 / 75_000)

    def prepare(self, seed, work):
        import scipy.sparse
        import scipy.sparse.linalg

        t0 = time.perf_counter()
        edges = sbmgen.sample_sbm_edges(self.sizes, self.B, seed)
        path = work / "graph100k.txt"
        sbmgen.write_edge_list(path, edges)
        gen_s = time.perf_counter() - t0
        n = sum(self.sizes)
        rows = np.concatenate([edges[:, 0], edges[:, 1]])
        cols = np.concatenate([edges[:, 1], edges[:, 0]])
        A = scipy.sparse.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n))
        # the four planted eigenvalues stand clear of the bulk, so a rank-4
        # Lanczos oracle converges in well under a second
        oracle = scipy.sparse.linalg.eigsh(A, k=4, which="LM", tol=1e-10,
                                           return_eigenvectors=False)
        present = np.unique(edges)
        return {"graph": str(path), "gen_s": gen_s,
                # ingestion drops isolated vertices, and their planted rows with them
                "present": present.tolist() if present.size < n else None,
                "oracle_values": sorted(oracle.tolist())}

    def setup(self, seed, work, prepared, workers):
        import spectol.cli  # noqa: F401  the import is part of set-up

        return {"seed": seed, "prepared": prepared, "prefix": str(work / "emb")}

    def call(self, state):
        return _run_cli(["embed", "--graph", state["prepared"]["graph"], "--dim", "4",
                         "--seed", str(state["seed"]), "--out", state["prefix"]])

    def check(self, state, out):
        code, stdout = out
        if code != 0:
            return 1, 1, [f"embed exited {code}"], {}
        prefix = state["prefix"]
        values = np.loadtxt(prefix + ".values.csv", ndmin=1)
        vectors = np.loadtxt(prefix + ".vectors.csv", delimiter=",", ndmin=2)
        match = re.search(r"residual=(\S+)", stdout)
        problems = []
        if match is None or values.shape != (4,) or vectors.shape[1] != 4:
            return 1, 1, ["embed output is malformed"], {}
        # criterion 2: every Ritz value lies within the residual of an
        # eigenvalue; the residual is printed to 6 significant digits
        residual = float(match.group(1)) * (1 + 1e-5)
        oracle = np.array(state["prepared"]["oracle_values"])
        worst = max(float(np.abs(oracle - v).min()) for v in values)
        if worst > residual:
            problems.append(f"Ritz value {worst:.3e} from eigsh, residual {residual:.3e}")
        _, planted = sbmgen.planted_eigenvectors(self.sizes, self.B)
        present = state["prepared"]["present"]
        if present is not None:
            planted = planted[present]
        return 1, int(bool(problems)), problems, {
            "procrustes_err": procrustes(vectors, planted)}


WORKLOADS = {
    "sweep900": Sweep900(),
    "cluster900": Cluster900(),
    "embed100k": Embed100k(),
}
