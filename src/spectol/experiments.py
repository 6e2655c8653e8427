"""Experiment harness: tolerance sweeps, clustering stability, ingestion.

Runs are driven by dataclass configs, resolve all randomness from a base
seed plus the replicate index, and emit fixed-schema CSV tables whose bytes
re-emerge identically on every rerun (timing capture is off by default for
exactly that reason) plus JSON summaries.
"""
from __future__ import annotations

import json
import logging
import math
import re
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from functools import partial
from operator import attrgetter
from pathlib import Path

import numpy as np

from ._util import check_seed, write_rows
from .errors import DomainError, ParseError
from .graph_model import (
    FactoredProbabilityMatrix,
    SbmSpec,
    SparseGraph,
    sample_adjacency,
    sbm_to_latent,
)
from .metrics import (
    adjusted_rand_index,
    choose_k_by_silhouette,
    kmeans,
    procrustes_distance,
    silhouette_width,
    zhu_ghodsi_dimension,
)
from .spectral_core import RestartPath, excluded_extremes, truncated_eigs
from .tolerance import check_heuristic_n, conservative_tolerance, report_from_solve

log = logging.getLogger(__name__)

DEFAULT_TOLERANCES = tuple(2.0**-k for k in range(1, 21))
DIMENSION_SELECTION_METHOD = "profile_likelihood_equal_variance"
# relative residual of the rank-20 pilot behind d = "auto"
PILOT_TOL = 1e-2


def check_tolerances(tolerances, name: str = "tolerances") -> tuple[float, ...]:
    """``tolerances`` as floats, if they are positive, finite and strictly
    decreasing."""
    tols = tuple(float(t) for t in tolerances)
    if not tols or not all(0.0 < t < math.inf for t in tols):
        raise DomainError(f"{name} must be positive and finite")
    if any(b >= a for a, b in zip(tols, tols[1:])):
        raise DomainError(f"{name} must be strictly decreasing")
    return tols


def _fields_typed(cls, annotation: str) -> tuple[str, ...]:
    """The fields of dataclass ``cls`` annotated exactly ``annotation``
    (annotations are strings in this module)."""
    return tuple(f.name for f in fields(cls) if f.type == annotation)


def _check_runs(count: int, noun: str, workers: int, seed: int) -> None:
    if count < 1:
        raise DomainError(f"at least one {noun} is required")
    if workers < 1:
        raise DomainError("workers must be at least 1")
    check_seed(seed)


@dataclass(frozen=True)
class SweepConfig:
    """Everything one paired tolerance sweep needs.

    ``model`` is either a block model (graphs are resampled per replicate,
    spectral truth available) or a path to an edge-list file (one fixed
    graph, replicates vary the solver's starting block only).  ``d`` is an
    embedding dimension or the string "auto" for profile-likelihood
    selection on a pilot decomposition.
    """

    model: SbmSpec | str
    d: int | str = "auto"
    tolerances: tuple[float, ...] = DEFAULT_TOLERANCES
    replicates: int = 20
    seed: int = 0
    output: str | None = None
    scaled: bool = False
    record_timing: bool = False
    workers: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "tolerances", check_tolerances(self.tolerances))
        for key in _fields_typed(SweepConfig, "int"):
            object.__setattr__(self, key, _integer(getattr(self, key), key))
        _check_runs(self.replicates, "replicate", self.workers, self.seed)
        for key in _fields_typed(SweepConfig, "bool"):
            value = getattr(self, key)
            if not isinstance(value, bool):
                raise DomainError(f"{key} must be True or False, got {value!r}")
        if self.d != "auto":
            object.__setattr__(self, "d", _integer(self.d, "dimension"))
            if self.d < 1:
                raise DomainError("d must be a positive integer or 'auto'")


@dataclass(frozen=True)
class SweepRecord:
    """One (tolerance, replicate) cell of a sweep table.

    ``elapsed_ms`` is what a solve to this tolerance costs: the solver time
    of the replicate's solves up to and including it, a looser conservative
    one too, since each tolerance continues the looser one's restart path.
    It is 0.0 unless the config sets ``record_timing``.

    ``rho`` is the distance from the cell's Ritz values to the excluded
    spectrum: the smallest |v - mu| over the cell's values v and the
    bracket [mu_-, mu_+] of the replicate's extremes run
    (``excluded_extremes``), exact to rounding.  It is NaN when that run
    returned no bracket or a Ritz value of the cell lies inside it; the
    summary counts those cells as ``rho_nan_cells``.
    """

    tol_exponent: float
    replicate: int
    iterations: int
    matvecs: int
    procrustes_error: float
    residual: float
    rho: float
    elapsed_ms: float
    procrustes_error_scaled: float | None = None


@dataclass(frozen=True)
class StabilityRecord:
    """One (tolerance, repetition) cell of a clustering stability table."""

    tol_exponent: float
    repetition: int
    k_chosen: int
    ari_vs_reference: float
    ari_vs_coarser: float
    mean_silhouette: float


def resolve_dimension(d, graph: SparseGraph, seed) -> int:
    """``d``, or for "auto" the profile-likelihood elbow of a pilot
    decomposition's magnitude scree, solved from ``seed``.

    The elbow reads only the sorted magnitudes, and a Ritz value's error is
    of the order of its residual squared over the gap, so the pilot stops at
    a loose tolerance.
    """
    if d != "auto":
        return d
    rank = min(20, graph.n - 2)
    if rank < 2:
        return 1
    dec = truncated_eigs(graph, rank, PILOT_TOL, seed=seed)
    scree = np.sort(np.abs(dec.values))[::-1]
    return zhu_ghodsi_dimension(scree)


def graph_source(model: SbmSpec | str):
    """``(P, draw)`` for a model: ``draw(seed)`` samples a block model's P,
    or returns an edge list's one graph, read once here, whose P is None."""
    if isinstance(model, SbmSpec):
        P = FactoredProbabilityMatrix(sbm_to_latent(model))
        return P, partial(sample_adjacency, P)
    graph = ingest_edge_list(model).graph
    return None, lambda seed: graph


def _mean_se(values) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    arr = arr[~np.isnan(arr)]
    if arr.size == 0:
        return float("nan"), float("nan")
    mean = float(arr.mean())
    se = float(arr.std(ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else 0.0
    return mean, se


def _run_replicates(one, count: int, workers: int, tolerances, stats):
    """Run ``one(r) -> (records, extra)`` for r < count, on ``workers`` threads.

    Returns the records in replicate-major order, the extras in replicate
    order, and one summary row per tolerance: its exponent and value, then
    ``stats`` of its records across replicates.
    """
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(one, range(count)))
    else:
        results = [one(r) for r in range(count)]
    per_replicate = [recs for recs, _ in results]
    per_tolerance = [
        {"tol_exponent": -math.log2(tol), "tolerance": tol, **stats(cell)}
        for tol, cell in zip(tolerances, zip(*per_replicate))
    ]
    records = [rec for recs in per_replicate for rec in recs]
    return records, [extra for _, extra in results], per_tolerance


def summary_path(output) -> Path:
    """Where the summary JSON of a run whose records go to ``output`` is written."""
    return Path(output).with_suffix(".summary.json")


def write_run(output, records, summary: dict) -> None:
    """Write records as CSV to ``output`` and the summary to ``summary_path``."""
    write_records_csv(output, records)
    summary_path(output).write_text(
        json.dumps(summary, indent=2) + "\n", encoding="utf-8"
    )


def run_tolerance_sweep(config: SweepConfig) -> tuple[list[SweepRecord], dict]:
    """Paired sweep: one graph per replicate, every tolerance on that graph.

    Within a replicate the sampled graph and the solver's starting seed are
    held fixed across tolerances, so differences down a column are purely
    the stopping rule.  The tolerances of a replicate share one
    ``RestartPath``: each solve continues where the looser one stopped and
    returns what a fresh solve would.  The graph's conservative tolerance
    joins the path (recorded only if configured), and the summary's
    heuristics are read off its solve, as ``embed`` reads them.

    Replicate r's graph is drawn from its graph seed: a sample of the block
    model, or an edge-list model's one graph.  Replicate 0's graph is drawn
    first; under ``d="auto"`` the pilot runs on it with its graph seed.
    Every tolerance of a replicate reads rho off one extremes run of its
    graph (``excluded_extremes``), so rho is defined at every n and never
    needs the dense spectrum.  The run returns the bracket [mu_-, mu_+] that
    holds every excluded eigenvalue, exact to rounding, so the rho of Ritz
    values outside it is their smallest distance to mu_- or mu_+.  There is
    one extremes run per distinct graph, with the solver seed of the first
    replicate to draw it: an edge-list model's one graph gets replicate 0's.
    A cell with a Ritz value in the bracket, or whose run returned none,
    gets NaN, never a guess, and the summary's ``rho_nan_cells`` counts
    them.  DomainError is raised before any extremes run or replicate solve
    for a graph 0 below MIN_HEURISTIC_N vertices, before the pilot too (the
    summary reads the heuristics), and, once d is known, for a block model
    with fewer blocks than d (P has no d-dimensional eigenspace then).
    Returns the records (replicate-major order) and a summary dict; writes
    CSV and summary JSON when the config names an output path.
    """
    P, draw = graph_source(config.model)
    sigma, V = P.eigendecomposition() if P is not None else (None, None)
    # replicate 0's graph and solver streams; the pilot draws from the first
    graph0_ss, solver0_ss = np.random.SeedSequence(config.seed).spawn(2)
    graph0 = draw(graph0_ss)
    check_heuristic_n(graph0.n)  # the summary reads the heuristics
    d = resolve_dimension(config.d, graph0, graph0_ss)
    selection = DIMENSION_SELECTION_METHOD if config.d == "auto" else "fixed"
    if V is not None and d > V.shape[1]:
        raise DomainError(f"d={d} exceeds the number of blocks, {V.shape[1]}")
    bracket0 = excluded_extremes(graph0, d, solver0_ss)

    def one_replicate(r: int):
        graph_ss, solver_ss = np.random.SeedSequence(config.seed + r).spawn(2)
        A = graph0 if r == 0 else draw(graph_ss)
        bracket = bracket0 if A is graph0 else excluded_extremes(A, d, solver_ss)
        conservative = conservative_tolerance(A)
        records = []
        path = RestartPath(A, d, solver_ss)
        solve_s = 0.0
        for tol in sorted({*config.tolerances, conservative}, reverse=True):
            t0 = time.perf_counter()
            dec = truncated_eigs(A, d, tol, path=path)
            solve_s += time.perf_counter() - t0
            if tol == conservative:
                report = report_from_solve(A, dec)
            if tol not in config.tolerances:
                continue
            err = scaled_err = rho = float("nan")
            if V is not None:
                err = procrustes_distance(dec.vectors, V[:, :d])[0]
                if config.scaled:
                    left = dec.vectors * np.sqrt(np.abs(dec.values))
                    right = V[:, :d] * np.sqrt(sigma[:d])
                    scaled_err = procrustes_distance(left, right)[0]
            if bracket is not None:
                lo, hi = bracket
                if np.all((dec.values < lo) | (dec.values > hi)):
                    rho = float(np.abs(dec.values[:, None] - bracket).min())
            records.append(
                SweepRecord(
                    tol_exponent=-math.log2(tol),
                    replicate=r,
                    iterations=dec.iterations,
                    matvecs=dec.matvecs,
                    procrustes_error=err,
                    residual=dec.residual,
                    rho=rho,
                    elapsed_ms=solve_s * 1e3 if config.record_timing else 0.0,
                    procrustes_error_scaled=scaled_err if config.scaled else None,
                )
            )
        return records, report

    def stats(cell):
        mean_err, se_err = _mean_se([c.procrustes_error for c in cell])
        return {
            "mean_procrustes": mean_err,
            "se_procrustes": se_err,
            "mean_iterations": _mean_se([c.iterations for c in cell])[0],
            "mean_matvecs": _mean_se([c.matvecs for c in cell])[0],
            "mean_residual": _mean_se([c.residual for c in cell])[0],
        }

    records, reports, per_tolerance = _run_replicates(
        one_replicate, config.replicates, config.workers, config.tolerances, stats
    )
    means = {
        f"mean_{key}": _mean_se([getattr(rep, key) for rep in reports])[0]
        for key in ("heuristic_spectral", "heuristic_sqrt_n", "conservative")
    }
    summary = {
        "dimension": d,
        "dimension_selection": selection,
        "replicates": config.replicates,
        "heuristic": {
            "variant": "spectral",
            **means,
            "recommended": means["mean_heuristic_spectral"],
        },
        "rho_nan_cells": sum(math.isnan(rec.rho) for rec in records),
        "per_tolerance": per_tolerance,
    }
    if config.output:
        write_run(config.output, records, summary)
    return records, summary


def run_clustering_stability(
    graph: SparseGraph,
    d: int,
    tolerances: tuple[float, ...] = DEFAULT_TOLERANCES,
    reference_tol: float = 1e-6,
    seed: int = 0,
    *,
    repetitions: int = 10,
    k_range=(2, 3, 4, 5, 6),
    workers: int = 1,
) -> tuple[list[StabilityRecord], dict]:
    """How stable is the embed-then-cluster pipeline under the tolerance?

    Every repetition embeds the same graph at a reference tolerance and picks
    a cluster count by silhouette there, once; each swept tolerance is then
    embedded with the same starting seed and re-clustered at that count,
    so the adjusted Rand index against the reference (and between consecutive
    tolerances) isolates the embedding's movement.  Re-selecting the count
    per tolerance would instead measure silhouette flips between near-tied
    counts, which persist even for fully converged embeddings.

    A repetition solves the swept tolerances and the reference in decreasing
    order on one ``RestartPath``, each solve continuing where the looser one
    stopped, with the results of fresh solves.  The inputs are checked
    before the first solve, a bad one being a ``DomainError``: the
    tolerances and ``reference_tol`` as ``SweepConfig`` checks its
    tolerances (positive, finite and, for a list, strictly decreasing),
    ``repetitions``, ``workers`` and ``seed`` as its ``replicates``,
    ``workers`` and ``seed``, and every candidate count in ``k_range`` must
    be an integer in [2, n].

    A solve stops only at a restart, so consecutive tolerances often return
    the same embedding bit for bit.  k-means is deterministic for a fixed
    input and seed, so such a tolerance reuses the previous one's clustering
    and silhouette instead of recomputing them: each distinct embedding of
    a repetition is clustered once, with identical results.
    """
    tols = check_tolerances(tolerances)
    check_tolerances((reference_tol,), "reference_tol")
    repetitions = _integer(repetitions, "repetitions")
    workers = _integer(workers, "workers")
    seed = _integer(seed, "seed")
    _check_runs(repetitions, "repetition", workers, seed)
    k_range = tuple(_integer(k, "cluster count") for k in k_range)
    if not k_range or not all(2 <= k <= graph.n for k in k_range):
        raise DomainError(f"cluster counts must lie in [2, {graph.n}], got {k_range}")

    def one_repetition(rep: int):
        ss = np.random.SeedSequence(seed + rep)
        solver_ss, cluster_ss = ss.spawn(2)
        path = RestartPath(graph, d, solver_ss)
        embeddings = {
            tol: truncated_eigs(graph, d, tol, path=path).vectors
            for tol in sorted({*tols, float(reference_tol)}, reverse=True)
        }
        # only the vectors are clustered: free the restart path (the
        # solver's basis) before k-means runs
        del path
        ref_k, ref_clustering = choose_k_by_silhouette(
            embeddings[float(reference_tol)], k_range, cluster_ss
        )
        records = []
        prev_labels = prev_vectors = None
        for tol in tols:
            vectors = embeddings[tol]
            if prev_vectors is None or not np.array_equal(vectors, prev_vectors):
                clustering = kmeans(vectors, ref_k, seed=cluster_ss)
                sil = silhouette_width(vectors, clustering).mean
                prev_vectors = vectors
            ari_ref = adjusted_rand_index(clustering.labels, ref_clustering.labels)
            ari_prev = (
                adjusted_rand_index(clustering.labels, prev_labels)
                if prev_labels is not None
                else float("nan")
            )
            prev_labels = clustering.labels
            records.append(
                StabilityRecord(
                    tol_exponent=-math.log2(tol),
                    repetition=rep,
                    k_chosen=ref_k,
                    ari_vs_reference=ari_ref,
                    ari_vs_coarser=ari_prev,
                    mean_silhouette=sil,
                )
            )
        return records, ref_k

    def stats(cell):
        mean_ref, se_ref = _mean_se([c.ari_vs_reference for c in cell])
        return {
            "mean_ari_vs_reference": mean_ref,
            "se_ari_vs_reference": se_ref,
            "mean_ari_vs_coarser": _mean_se([c.ari_vs_coarser for c in cell])[0],
            "mean_k_chosen": _mean_se([c.k_chosen for c in cell])[0],
        }

    records, ref_ks, per_tolerance = _run_replicates(
        one_repetition, repetitions, workers, tols, stats
    )
    summary = {
        "dimension": d,
        "reference_tolerance": reference_tol,
        "repetitions": repetitions,
        "reference_k_per_repetition": [int(k) for k in ref_ks],
        "per_tolerance": per_tolerance,
    }
    return records, summary


@dataclass(frozen=True)
class IngestResult:
    """A cleaned graph plus the bookkeeping of what cleaning removed."""

    graph: SparseGraph
    vertex_ids: np.ndarray
    self_loops_dropped: int
    duplicates_merged: int


# a bulk-parsed id at or above this may be int64 parsing's saturated value
# of a longer token; its line is read again by _parse_line
_BULK_ID_LIMIT = 10**18
# vertex ids are int64s, so every id lies below this
_ID_LIMIT = 2**63
# an edge-list scan window ends at the first line break past this many bytes
_SCAN_BYTES = 1 << 20


def _parse_line(lineno: int, line: str):
    """The id pair of one edge-list line, or None for a blank or "#" comment line."""
    text = line.strip()
    if not text or text.startswith("#"):
        return None
    parts = text.split()
    if len(parts) != 2:
        raise ParseError(lineno, f"expected two tokens, got {len(parts)}")
    try:
        u, v = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError(lineno, f"non-integer token in {parts!r}") from None
    if u < 0 or v < 0:
        raise ParseError(lineno, "negative vertex id")
    if u >= _ID_LIMIT or v >= _ID_LIMIT:
        raise ParseError(lineno, "vertex id at or above 2^63")
    return u, v


def _read_id_pairs(path) -> tuple[np.ndarray, int]:
    """The (k, 2) id pairs of an edge-list file's non-loop edges, in no fixed
    order, and its self-loop count.

    The file is scanned one window of whole lines at a time, so the scan's
    temporaries do not grow with the file.  A plain line, two runs of ASCII
    digits and nothing else but spaces and tabs, is parsed with the others
    of its window in one numpy call; it cannot be a "#" comment.  Every
    other non-blank line goes through ``_parse_line`` in line order, as does
    a plain line that holds an id of 19 or more digits; so each rule and
    each error is ``_parse_line``'s.
    """
    data = Path(path).read_bytes()
    if not data.isascii():
        data.decode("utf-8")  # a file that is not UTF-8 fails as in text mode
    if b"\r" in data:
        # the line breaks text-mode reading sees (universal newlines)
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    parts, self_loops, lines, start = [np.empty((0, 2), dtype=np.int64)], 0, 0, 0
    while start < len(data):
        stop = data.find(b"\n", start + _SCAN_BYTES) + 1 or len(data)
        ids, loops, lines = _scan_window(data[start:stop], lines)
        parts.append(ids)
        self_loops += loops
        start = stop
    del data  # the file's bytes are not held beside the joined pairs
    return np.concatenate(parts), self_loops


def _scan_window(data: bytes, lines: int) -> tuple[np.ndarray, int, int]:
    """``_read_id_pairs`` on whole lines that follow a file's first ``lines``,
    and the number of lines up to their end."""
    raw = np.frombuffer(data, dtype=np.uint8)
    newline = raw == ord("\n")
    digit = raw - ord("0") <= 9
    token_start = np.empty_like(digit)
    token_start[:1] = digit[:1]
    np.greater(digit[1:], digit[:-1], out=token_start[1:])
    # token starts and line breaks in file order: a line's token count is
    # the number of token starts between its break and the one before
    events = np.flatnonzero(token_start | newline)
    at_break = np.flatnonzero(newline[events])
    tokens = np.diff(at_break, prepend=-1, append=events.size) - 1
    breaks = events[at_break]
    starts = np.concatenate([[0], breaks + 1])
    ends = np.append(breaks, raw.size)
    plain = np.ones(starts.size, dtype=bool)
    odd = ~(digit | newline | (raw == ord(" ")) | (raw == ord("\t")))
    plain[np.searchsorted(breaks, np.flatnonzero(odd))] = False
    bulk = plain & (tokens == 2)
    slow = ~bulk & ~(plain & (tokens == 0))

    bulk_lines = np.flatnonzero(bulk)
    if bulk_lines.size:
        # the bulk parse reads the window with the other lines cut out
        cut = np.flatnonzero(slow)
        pieces = zip(np.append(0, ends[cut]), np.append(starts[cut], raw.size))
        text = b"".join(data[a:b] for a, b in pieces) if cut.size else data
        ids = np.fromstring(text, dtype=np.int64, sep=" ").reshape(-1, 2)
        if ids.shape[0] != bulk_lines.size:
            raise RuntimeError("bulk edge-list parse out of step with its line scan")
        suspect = ids >= _BULK_ID_LIMIT
        requeue = suspect[:, 0] | suspect[:, 1]
        if requeue.any():
            slow[bulk_lines[requeue]] = True
            ids = ids[~requeue]
    else:
        ids = np.empty((0, 2), dtype=np.int64)
    pairs = []
    for i in np.flatnonzero(slow):
        line = data[starts[i] : ends[i]].decode("utf-8")
        pair = _parse_line(lines + int(i) + 1, line)
        if pair is not None:
            pairs.append(pair)
    if pairs:
        ids = np.concatenate([ids, np.array(pairs, dtype=np.int64)])
    loop = ids[:, 0] == ids[:, 1]
    loops = int(np.count_nonzero(loop))
    if loops:
        ids = ids[~loop]
    return ids, loops, lines + breaks.size


def ingest_edge_list(path) -> IngestResult:
    """Read a whitespace-separated edge list into a SparseGraph.

    Lines starting with "#" and blank lines are skipped; every other line
    must hold exactly two integer ids in [0, 2^63).  Self loops are dropped
    (counted and logged), and an edge listed twice, in either orientation,
    is merged (counted and logged).  The observed ids are compacted to
    0..n-1 in increasing order and returned as the map ``vertex_ids``, so a
    vertex no edge names is not a vertex of the graph.

    Every O(m) step is an array operation: plain "u v" lines are parsed in
    bulk (the line rules are ``_parse_line``'s, and a ``ParseError`` names
    the first bad line), and the edge keys are sorted once, by
    ``SparseGraph.from_edges``, which also merges repeated edges.  Ids are
    compacted through a presence table indexed by id when the largest id is
    below the number of listed ids, so the table is never larger than the
    ids themselves; sparser ids, up to 2^63, are compacted by a sort.  Both
    give the same ``vertex_ids`` and the same graph.
    """
    ids, self_loops = _read_id_pairs(path)
    if not ids.size:
        raise DomainError(f"no edges in {path}")
    listed = ids.shape[0]
    ids = ids.ravel()
    top = int(ids.max())
    if top < ids.size:
        present = np.zeros(top + 1, dtype=bool)
        present[ids] = True
        vertex_ids = np.flatnonzero(present)
        # an id's compact index is the number of present ids below it
        inverse = np.cumsum(present, dtype=np.int64)[ids]
        inverse -= 1
    else:
        # np.unique sorts when asked for an inverse; without one, recent
        # numpy takes a hash table, many times slower on int64 ids
        vertex_ids, inverse = np.unique(ids, return_inverse=True)
    del ids  # the raw ids are not held beside the graph's keys
    graph = SparseGraph.from_edges(vertex_ids.size, inverse.reshape(-1, 2))
    duplicates = listed - graph.m
    if self_loops:
        log.warning("dropped %d self loop(s) while reading %s", self_loops, path)
    if duplicates:
        log.warning("merged %d duplicate edge(s) while reading %s", duplicates, path)
    return IngestResult(
        graph=graph,
        vertex_ids=vertex_ids,
        self_loops_dropped=self_loops,
        duplicates_merged=duplicates,
    )


def write_edge_list(path, graph: SparseGraph, *, header: dict | None = None) -> None:
    """Write one "u v" line per edge (u < v), with an optional comment header."""
    src = np.repeat(np.arange(graph.n, dtype=np.int64), graph.degrees)
    mask = graph.indices > src
    edges = np.column_stack([src[mask], graph.indices[mask]])
    comment = " ".join(f"{k}={v}" for k, v in (header or {}).items())
    write_rows(path, "%d %d\n", edges, f"# {comment}\n" if comment else "")


def write_records_csv(path, records) -> None:
    """Fixed-schema CSV: one column per field of the first record that is
    not None, in field order; ``int`` fields as integers, the others as
    floats at 17 significant digits.  No record writes the sweep header."""
    kind = type(records[0]) if records else SweepRecord
    columns = [
        f.name for f in fields(kind)
        if (getattr(records[0], f.name) if records else f.default) is not None
    ]
    ints = _fields_typed(kind, "int")
    template = ",".join("%d" if col in ints else "%.17g" for col in columns) + "\n"
    # an object array hands each value to the template as the record holds it
    rows = np.array(list(map(attrgetter(*columns), records)), dtype=object)
    write_rows(path, template, rows, ",".join(columns) + "\n")


def _parse_tolerance_token(token: str) -> float:
    token = token.strip()
    match = re.fullmatch(r"2\^(-?\d+)", token)
    if match:
        return 2.0 ** int(match.group(1))
    try:
        return float(token)
    except ValueError:
        raise DomainError(f"cannot parse tolerance {token!r}") from None


def parse_tolerances(text: str) -> tuple[float, ...]:
    """Parse "2^-1..2^-20", or a comma list of floats and 2^-k tokens."""
    text = text.strip()
    span = re.fullmatch(r"2\^-(\d+)\.\.2\^-(\d+)", text)
    if span:
        lo, hi = int(span.group(1)), int(span.group(2))
        if hi < lo:
            raise DomainError("tolerance range must move toward tighter values")
        return tuple(2.0**-k for k in range(lo, hi + 1))
    return tuple(_parse_tolerance_token(tok) for tok in text.split(","))


def _parse(convert, value, what: str):
    try:
        return convert(value)
    except (TypeError, ValueError):
        raise DomainError(f"cannot parse {what} {value!r}") from None


def _integer(value, what: str) -> int:
    """``value`` as an int; a fraction or a bool, which int() takes, is an error."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise DomainError(f"cannot parse {what} {value!r}")
    return _parse(int, value, what)


def _items(value, sep: str) -> list:
    """A list's items, or the non-blank ``sep``-separated fields of a string."""
    if isinstance(value, (list, tuple)):
        return list(value)
    return [field for field in str(value).split(sep) if field.strip()]


def block_model(sizes, *, b=None, b_diag=None, b_off=None) -> SbmSpec:
    """The block model of ``sizes`` with the full block matrix ``b``, or with
    ``b_diag`` within blocks and ``b_off`` (0 when None) between them.

    Every argument may be a string, as flags and key=value files give them
    ("300,300", "0.05,0.02;0.02,0.05": rows split at ';', entries at ','),
    or numbers and lists, as JSON gives them.  A token that is not a number,
    or ``b`` beside ``b_diag`` or ``b_off``, is a ``DomainError``; ``SbmSpec``
    checks shapes and ranges.
    """
    sizes = tuple(_integer(s, "block size") for s in _items(sizes, ","))
    if b is not None:
        if b_diag is not None or b_off is not None:
            raise DomainError("a block model takes b or b_diag/b_off, not both")
        B = [
            [_parse(float, x, "block probability") for x in _items(row, ",")]
            for row in _items(b, ";")
        ]
    elif b_diag is not None:
        diag = _parse(float, b_diag, "b_diag")
        off = 0.0 if b_off is None else _parse(float, b_off, "b_off")
        k = len(sizes)
        B = np.full((k, k), off) + np.eye(k) * (diag - off)
    else:
        raise DomainError("a block model needs b or b_diag")
    return SbmSpec(block_probabilities=B, sizes=sizes)


def model_from_keys(data: dict) -> SbmSpec | str:
    """Pop ``edge_list`` and the ``block_model`` keys from ``data``, None
    meaning absent, and return the edge-list path or the block model.  An
    edge list beside a block model key, or neither an edge list nor
    ``sizes``, is a ``DomainError``."""
    edge_list = data.pop("edge_list", None)
    keys = {key: data.pop(key, None) for key in ("sizes", "b", "b_diag", "b_off")}
    given = ", ".join(key for key, value in keys.items() if value is not None)
    if edge_list is not None and given:
        raise DomainError(f"an edge list takes no block model keys, got {given}")
    if edge_list is not None:
        return str(edge_list)
    if keys["sizes"] is None:
        raise DomainError("a model needs an edge list or block sizes")
    return block_model(**keys)


def sweep_config_from_dict(data: dict) -> SweepConfig:
    """Build a SweepConfig from flat keys (strings allowed for every value).
    A key whose value is None (JSON null) counts as absent; a key that no
    field takes is refused all the same."""
    data = dict(data)

    def as_bool(x):
        text = str(x).strip().lower()  # str(True) is "True"
        if text in ("true", "1", "yes"):
            return True
        if text in ("false", "0", "no"):
            return False
        raise DomainError(f"cannot parse boolean {x!r}")

    kwargs: dict = {"model": model_from_keys(data)}
    names = {f.name for f in fields(SweepConfig)} - {"model"} | {"dim"}
    data = {key: value for key, value in data.items()
            if value is not None or key not in names}
    if "d" in data and "dim" in data:
        raise DomainError("a config takes d or dim, not both")
    if "d" in data or "dim" in data:
        kwargs["d"] = data.pop("d", data.pop("dim", None))
    if "tolerances" in data:
        raw = data.pop("tolerances")
        kwargs["tolerances"] = (
            parse_tolerances(raw)
            if isinstance(raw, str)
            # each item by the string form's token rule: str(True) is no number
            else tuple(_parse_tolerance_token(str(t)) for t in _items(raw, ","))
        )
    for key in _fields_typed(SweepConfig, "int"):
        if key in data:
            kwargs[key] = data.pop(key)
    for key in _fields_typed(SweepConfig, "bool"):
        if key in data:
            kwargs[key] = as_bool(data.pop(key))
    if "output" in data:
        kwargs["output"] = str(data.pop("output"))
    if data:
        raise DomainError(f"unknown config keys: {sorted(data)}")
    return SweepConfig(**kwargs)


def _unique_keys(pairs) -> dict:
    """A JSON object's pairs as a dict; a repeated key is a ``DomainError``."""
    data: dict = {}
    for key, value in pairs:
        if key in data:
            raise DomainError(f"repeated config key {key!r}")
        data[key] = value
    return data


def load_sweep_config(path) -> SweepConfig:
    """Load a sweep config from JSON or flat key=value text.  A key given
    twice is an error, never a silent last-one-wins."""
    text = Path(path).read_text(encoding="utf-8")
    if text.lstrip().startswith("{"):
        try:
            data = json.loads(text, object_pairs_hook=_unique_keys)
        except json.JSONDecodeError as exc:
            raise ParseError(exc.lineno, exc.msg) from None
        return sweep_config_from_dict(data)
    data: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ParseError(lineno, "expected key=value")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key in data:
            raise ParseError(lineno, f"repeated config key {key!r}")
        data[key] = value.strip()
    return sweep_config_from_dict(data)
