"""Span recorder for the traced run, installed from outside the package.

Wrappers replace a function on every name a call site resolves: a function
imported with ``from .x import f`` is a separate binding in each importing
module, so every spectol module attribute that *is* the original object is
rebound.  Methods are replaced on the class.  Each span records its name,
start, end, parent and thread, plus counts taken from the call's arguments
and result.  Spans stay in memory until ``dump``.
"""
from __future__ import annotations

import functools
import json
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    t0: float
    t1: float = 0.0
    counts: dict = field(default_factory=dict)


class Recorder:
    """Collects spans with one parent stack per thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, count=None):
        """``fn`` timed as span ``name``; ``count(args, kwargs, result)``
        returns a dict of counts stored on the span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            with self._lock:
                span = Span(len(self.spans), name, stack[-1] if stack else None,
                            threading.get_ident(), 0.0)
                self.spans.append(span)
            stack.append(span.id)
            span.t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.t1 = time.perf_counter()
                stack.pop()
            if count is not None:
                span.counts = count(args, kwargs, result)
            return result

        return wrapper

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__) + "\n")


def load(path) -> list[Span]:
    with open(path, encoding="utf-8") as fh:
        return [Span(**json.loads(line)) for line in fh]


def rebind(original, replacement) -> None:
    """Point every spectol module attribute bound to ``original`` at
    ``replacement``."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or mod_name.partition(".")[0] != "spectol":
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _matvec_counts(args, kwargs, result):
    graph = args[0]
    return {"nnz": int(graph.indices.size), "n": int(graph.n)}


def _solve_counts(args, kwargs, result):
    return {"matvecs": int(result.matvecs), "restarts": int(result.iterations),
            "nonconverged": int(not result.converged)}


def _graph_edges(args, kwargs, result):
    return {"edges": int(result.m)}


def _ingest_edges(args, kwargs, result):
    return {"edges": int(result.graph.m)}


def _from_edges_entries(args, kwargs, result):
    return {"entries": int(result.indices.size)}


def install(recorder: Recorder) -> None:
    """Wrap the public entry points of every spectol layer.

    Private helpers are wrapped only where they are the unit a layer metric
    names: the embed subcommand body and the two dataclass validators.
    """
    from spectol import cli, experiments, graph_model, metrics, spectral_core, tolerance

    functions = [
        (graph_model, "sample_adjacency", _graph_edges),
        (graph_model, "sbm_to_latent", None),
        (spectral_core, "truncated_eigs", _solve_counts),
        (spectral_core, "dense_eig_oracle", None),
        (spectral_core, "residual_norm", None),
        (spectral_core, "estimate_spectral_norm", None),
        (tolerance, "tolerance_report", None),
        (metrics, "kmeans", None),
        (metrics, "silhouette_width", None),
        (metrics, "choose_k_by_silhouette", None),
        (metrics, "procrustes_distance", None),
        (metrics, "adjusted_rand_index", None),
        (experiments, "run_tolerance_sweep", None),
        (experiments, "run_clustering_stability", None),
        (experiments, "ingest_edge_list", _ingest_edges),
        (experiments, "write_records_csv", None),
    ]
    for module, attr, count in functions:
        original = getattr(module, attr)
        layer = module.__name__.rpartition(".")[2]
        rebind(original, recorder.wrap(f"{layer}.{attr}", original, count))
    rebind(cli._cmd_embed, recorder.wrap("cli.embed", cli._cmd_embed))

    graph_cls = graph_model.SparseGraph
    graph_cls.matvec = recorder.wrap(
        "graph_model.SparseGraph.matvec", graph_cls.matvec, _matvec_counts)
    graph_cls.__post_init__ = recorder.wrap(
        "graph_model.SparseGraph.validate", graph_cls.__post_init__)
    from_edges = graph_cls.__dict__["from_edges"].__func__
    graph_cls.from_edges = classmethod(recorder.wrap(
        "graph_model.SparseGraph.from_edges", from_edges, _from_edges_entries))
    latent_cls = graph_model.LatentPositions
    latent_cls.__post_init__ = recorder.wrap(
        "graph_model.LatentPositions.validate", latent_cls.__post_init__)


# bytes one bincount matvec touches per stored entry: the column index, the
# expanded row index and the gathered vector value, 8 bytes each
MATVEC_BYTES_PER_NNZ = 24
# plus reading the input vector and writing the output, 8 bytes per vertex each
MATVEC_BYTES_PER_ROW = 16


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the summed durations of its direct children."""
    own = {s.id: s.t1 - s.t0 for s in spans}
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.t1 - s.t0
    return own


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals keyed ``<module>.<function>.<measure>``.

    Every metric is present for every workload; a layer the workload never
    entered reports zeros.
    """
    own = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def total(name, key=None):
        group = by_name.get(name, [])
        if key is None:
            return sum(s.t1 - s.t0 for s in group)
        return sum(s.counts.get(key, 0) for s in group)

    def calls(name):
        return len(by_name.get(name, []))

    def self_s(name):
        return sum(own[s.id] for s in by_name.get(name, []))

    def per(value, count, scale):
        return value / count * scale if count else 0.0

    out: dict[str, float] = {}
    name = "graph_model.sample_adjacency"
    out[f"{name}.calls"] = calls(name)
    out[f"{name}.s"] = total(name)
    out[f"{name}.us_per_edge"] = per(total(name), total(name, "edges"), 1e6)
    out["graph_model.sbm_to_latent.s"] = total("graph_model.sbm_to_latent")
    out["graph_model.LatentPositions.validate.s"] = total("graph_model.LatentPositions.validate")
    name = "graph_model.SparseGraph.from_edges"
    out[f"{name}.s"] = total(name)
    out[f"{name}.ns_per_entry"] = per(total(name), total(name, "entries"), 1e9)
    out["graph_model.SparseGraph.validate.s"] = total("graph_model.SparseGraph.validate")
    name = "graph_model.SparseGraph.matvec"
    nnz = total(name, "nnz")
    out[f"{name}.calls"] = calls(name)
    out[f"{name}.s"] = total(name)
    out[f"{name}.ns_per_nnz"] = per(total(name), nnz, 1e9)
    # one addition per stored entry (the adjacency weights are all one)
    out[f"{name}.flops_computed"] = nnz
    out[f"{name}.bytes_computed"] = (
        MATVEC_BYTES_PER_NNZ * nnz + MATVEC_BYTES_PER_ROW * total(name, "n"))

    name = "spectral_core.truncated_eigs"
    durations = np.array([s.t1 - s.t0 for s in by_name.get(name, [])])
    out[f"{name}.calls"] = calls(name)
    out[f"{name}.s"] = total(name)
    out[f"{name}.self_s"] = self_s(name)
    out[f"{name}.ms_p50"] = float(np.percentile(durations, 50) * 1e3) if durations.size else 0.0
    out[f"{name}.ms_p90"] = float(np.percentile(durations, 90) * 1e3) if durations.size else 0.0
    for key in ("matvecs", "restarts", "nonconverged"):
        out[f"{name}.{key}"] = total(name, key)
    out["spectral_core.dense_eig_oracle.calls"] = calls("spectral_core.dense_eig_oracle")
    out["spectral_core.dense_eig_oracle.s"] = total("spectral_core.dense_eig_oracle")
    out["spectral_core.residual_norm.s"] = total("spectral_core.residual_norm")
    out["spectral_core.estimate_spectral_norm.s"] = total("spectral_core.estimate_spectral_norm")

    name = "tolerance.tolerance_report"
    out[f"{name}.calls"] = calls(name)
    out[f"{name}.s"] = total(name)
    out[f"{name}.self_s"] = self_s(name)

    for name in ("metrics.kmeans", "metrics.silhouette_width"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.s"] = total(name)
    out["metrics.choose_k_by_silhouette.self_s"] = self_s("metrics.choose_k_by_silhouette")
    out["metrics.procrustes_distance.s"] = total("metrics.procrustes_distance")
    out["metrics.adjusted_rand_index.s"] = total("metrics.adjusted_rand_index")

    name = "experiments.ingest_edge_list"
    out[f"{name}.s"] = total(name)
    out[f"{name}.us_per_edge"] = per(total(name), total(name, "edges"), 1e6)
    out["experiments.write_records_csv.s"] = total("experiments.write_records_csv")
    out["experiments.run_tolerance_sweep.self_s"] = self_s("experiments.run_tolerance_sweep")
    out["experiments.run_clustering_stability.self_s"] = self_s(
        "experiments.run_clustering_stability")
    out["cli.embed.self_s"] = self_s("cli.embed")
    return {k: float(v) for k, v in out.items()}


_UNITS = {"calls": "count", "s": "s", "self_s": "s", "us_per_edge": "us/edge",
          "ns_per_entry": "ns/entry", "ns_per_nnz": "ns/nnz", "flops_computed": "flop",
          "bytes_computed": "B", "ms_p50": "ms", "ms_p90": "ms", "matvecs": "count",
          "restarts": "count", "nonconverged": "count", "speedup_2w": "x",
          "overhead_frac": "1"}


def unit_of(metric: str) -> str:
    return _UNITS[metric.rpartition(".")[2]]
