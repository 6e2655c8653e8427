"""Harness behavior: ingestion, sweeps, stability runs, CSV contracts, CLI."""
from __future__ import annotations

import contextlib
import csv
import dataclasses
import json
import math
import re
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectol import (
    FactoredProbabilityMatrix,
    SbmSpec,
    SparseGraph,
    check_assumptions,
    cli,
    experiments,
    sample_adjacency,
    sbm_to_latent,
    spectral_core,
    tolerance,
)
from spectol.cli import cli_main
from spectol.errors import DimensionMismatch, DomainError, ParseError
from spectol.experiments import (
    DEFAULT_TOLERANCES,
    PILOT_TOL,
    SweepConfig,
    StabilityRecord,
    SweepRecord,
    block_model,
    ingest_edge_list,
    load_sweep_config,
    model_from_keys,
    parse_tolerances,
    resolve_dimension,
    run_clustering_stability,
    run_tolerance_sweep,
    summary_path,
    sweep_config_from_dict,
    write_edge_list,
    write_records_csv,
    write_run,
)
from spectol.graph_model import DENSE_LIMIT
from spectol.metrics import zhu_ghodsi_dimension
from spectol.spectral_core import DEFAULT_MAX_RESTARTS, RestartPath, truncated_eigs
from spectol.tolerance import HEURISTIC_RULES, heuristic_tolerance

from conftest import three_block_spec
from oracles import (
    dense_sweep_rhos,
    fresh_stability_records,
    fresh_sweep_records,
    reference_ingest_edge_list,
    reference_read_sweep_csv,
    reference_write_records_csv,
    ritz_gap_rho,
    sample_block_edges,
)


def small_sbm(n_per_block: int = 100) -> SbmSpec:
    B = np.full((3, 3), 0.02)
    np.fill_diagonal(B, 0.05)
    return SbmSpec(B, (n_per_block,) * 3)


def nan_safe(records) -> list:
    """Records as tuples that compare equal when both hold nan."""
    from dataclasses import astuple

    return [tuple("nan" if v != v else v for v in astuple(r)) for r in records]


# relative distance allowed between a sweep's rho and the dense spectrum's
RHO_RTOL = 1e-12

# the CSV headers, written out: a new record field must change these first
SWEEP_HEADER = [
    "tol_exponent", "replicate", "iterations", "matvecs", "procrustes_error",
    "residual", "rho", "elapsed_ms",
]
STABILITY_HEADER = [
    "tol_exponent", "repetition", "k_chosen", "ari_vs_reference",
    "ari_vs_coarser", "mean_silhouette",
]


def assert_integer_columns(rows, header, columns) -> None:
    """The count columns of a CSV hold plain integers, never "2.0"."""
    for col in columns:
        i = header.index(col)
        assert all(re.fullmatch(r"\d+", row[i]) for row in rows[1:]), col


def spy_extremes_solves(monkeypatch) -> list:
    """The graph of every extremes run (``excluded_extremes`` call) the
    sweep runs from now on, in call order."""
    graphs = []
    extremes = experiments.excluded_extremes

    def spy(A, d, seed):
        graphs.append(A)
        return extremes(A, d, seed)

    monkeypatch.setattr(experiments, "excluded_extremes", spy)
    return graphs


def twelve_cycle() -> str:
    """The edge list of a 12-cycle: too few vertices for the heuristics."""
    return "".join(f"{i} {(i + 1) % 12}\n" for i in range(12))


def strict_json(path) -> dict:
    """The JSON document in ``path``, refusing NaN and Infinity, which JSON
    does not define."""
    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(Path(path).read_text(encoding="utf-8"), parse_constant=refuse)


def without_rho(records) -> list:
    return [dataclasses.replace(rec, rho=0.0) for rec in records]


def assert_rho_matches(got, dense) -> None:
    """Every rho is finite and within RHO_RTOL of its dense value."""
    got, dense = np.asarray(got), np.asarray(dense)
    assert got.shape == dense.shape
    assert np.all(np.abs(got - dense) <= RHO_RTOL * dense), np.max(
        np.abs(got - dense) / dense
    )


# lines the bulk parser leaves to the per-line rules: comments, blanks,
# wrong token counts, non-integers, signs, underscores, Unicode digits and
# whitespace, and an id past int64
ODD_LINES = (
    "# n=12 m=5 seed=0",
    "% a percent comment",
    "",
    "   ",
    "\t",
    "1 2 3",
    "5",
    "x y",
    "-1 2",
    "+5 3",
    "1_0 2",
    "\u0663 \u0664",
    "3\x0c4",
    "2\x1c5",
    "99999999999999999999 3",
    "1 9223372036854775808",
)


@st.composite
def edge_list_files(draw):
    """An edge-list text, mostly "u v" lines."""
    ident = st.integers(0, 12).map(str) | st.just("007")
    # half the files also draw 19-digit ids, the bulk parser's requeue limit
    # and the largest int64: ingestion compacts those ids by a sort, and
    # the small ids of a longer file through its presence table
    if draw(st.booleans()):
        ident |= st.sampled_from(["1000000000000000000", "9223372036854775807"])
    pad = st.sampled_from(["", " ", "\t"])
    plain = st.builds(
        lambda left, a, sep, b, right: f"{left}{a}{sep}{b}{right}",
        pad, ident, st.sampled_from([" ", "\t", "  ", " \t"]), ident, pad,
    )
    lines = draw(st.lists(plain | plain | st.sampled_from(ODD_LINES), max_size=25))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = newline.join(lines) + (newline if draw(st.booleans()) else "")
    return text


def assert_same_edges(result, graph) -> None:
    """An ingested edge list holds ``graph``'s edges once its ids are read
    back through ``vertex_ids``; a vertex without edges is not in it."""
    ids = result.vertex_ids
    assert np.array_equal(ids, np.flatnonzero(graph.degrees))
    assert np.array_equal(np.repeat(ids, result.graph.degrees),
                          np.repeat(np.arange(graph.n), graph.degrees))
    assert np.array_equal(ids[result.graph.indices], graph.indices)


def outcome(read, path):
    try:
        return read(path), None
    except Exception as exc:  # noqa: BLE001  compared against the reference
        return None, exc


class TestIngestEdgeList:
    @settings(max_examples=400, deadline=None)
    @given(text=edge_list_files(),
           window=st.sampled_from([1, 7, 64, experiments._SCAN_BYTES]))
    def test_matches_per_line_reference(self, text, window):
        # the reader scans windows of whole lines; any window size gives
        # the same graph, and an error the same line number
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "edges.txt"
            path.write_bytes(text.encode("utf-8"))
            want, want_exc = outcome(reference_ingest_edge_list, path)
            with mock.patch.object(experiments, "_SCAN_BYTES", window):
                got, got_exc = outcome(ingest_edge_list, path)
        if want_exc is not None:
            assert type(got_exc) is type(want_exc)
            assert str(got_exc) == str(want_exc)
            assert getattr(got_exc, "line_number", None) == getattr(
                want_exc, "line_number", None
            )
            return
        assert got_exc is None
        assert np.array_equal(got.graph.indptr, want["indptr"])
        assert np.array_equal(got.graph.indices, want["indices"])
        assert np.array_equal(got.vertex_ids, want["vertex_ids"])
        assert got.self_loops_dropped == want["self_loops_dropped"]
        assert got.duplicates_merged == want["duplicates_merged"]

    def test_path_graph(self, tmp_path):
        path = tmp_path / "path.txt"
        path.write_text("0 1\n1 2\n")
        result = ingest_edge_list(path)
        assert result.graph.n == 3
        assert result.graph.m == 2
        assert np.array_equal(result.vertex_ids, [0, 1, 2])

    def test_duplicate_edge_merged(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("0 1\n1 0\n")
        result = ingest_edge_list(path)
        assert result.graph.m == 1
        assert result.duplicates_merged == 1

    def test_self_loop_dropped_and_ids_compacted(self, tmp_path):
        path = tmp_path / "loop.txt"
        path.write_text("3 3\n3 4\n")
        result = ingest_edge_list(path)
        assert result.self_loops_dropped == 1
        assert result.graph.m == 1
        assert result.graph.n == 2
        assert np.array_equal(result.vertex_ids, [3, 4])

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "comments.txt"
        path.write_text("# header\n\n0 1\n# trailing\n1 2\n")
        assert ingest_edge_list(path).graph.m == 2

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1\nx y\n")
        with pytest.raises(ParseError) as excinfo:
            ingest_edge_list(path)
        assert excinfo.value.line_number == 2

    def test_parse_error_past_the_first_window(self, tmp_path):
        # 150,000 lines of about 13 bytes span two scan windows; the bad
        # line sits in the second, and a comment in the first
        lines = [f"{i} {i + 1}" for i in range(150_000)]
        lines[10] = "# a comment"
        lines[120_000] = "x y"
        path = tmp_path / "late.txt"
        path.write_text("\n".join(lines) + "\n")
        assert path.stat().st_size > experiments._SCAN_BYTES
        with pytest.raises(ParseError) as excinfo:
            ingest_edge_list(path)
        assert excinfo.value.line_number == 120_001
        assert str(excinfo.value) == "line 120001: non-integer token in ['x', 'y']"

    def test_scan_memory_bounded_by_its_result(self, tmp_path):
        # an edge list of five scan windows: the reader's peak
        # stays within twice its result plus a fixed number of windows,
        # however many windows the file holds
        rng = np.random.default_rng(0)
        edges = rng.integers(100_000, 1_000_000, (300_000, 2))
        path = tmp_path / "edges.txt"
        path.write_text("".join(f"{u} {v}\n" for u, v in edges.tolist()))
        assert path.stat().st_size > 4 * experiments._SCAN_BYTES
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            ids, self_loops = experiments._read_id_pairs(path)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert ids.shape[0] + self_loops == edges.shape[0]
        assert peak < 2 * ids.nbytes + 16 * experiments._SCAN_BYTES, peak

    def test_ingest_memory_bounded_by_its_ids(self, tmp_path):
        # ids below the listed count are compacted through a presence table
        # and the edge keys are sorted once: with small scan windows the
        # peak stays under four times the listed ids' bytes, repeated edges
        # merged included; a sort-based compaction of these ids, or a second
        # check of the built graph, takes it past six
        rng = np.random.default_rng(0)
        edges = rng.integers(0, 50_000, (200_000, 2))
        path = tmp_path / "edges.txt"
        path.write_text("".join(f"{u} {v}\n" for u, v in edges.tolist()))
        window = 1 << 16
        with mock.patch.object(experiments, "_SCAN_BYTES", window):
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                result = ingest_edge_list(path)
                peak = tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()
        assert result.duplicates_merged > 0
        assert peak < 4 * edges.nbytes + 16 * window, peak

    def test_wrong_token_count(self, tmp_path):
        path = tmp_path / "triple.txt"
        path.write_text("0 1 2\n")
        with pytest.raises(ParseError) as excinfo:
            ingest_edge_list(path)
        assert excinfo.value.line_number == 1

    def test_id_past_int64(self, tmp_path):
        path = tmp_path / "big.txt"
        path.write_text("9223372036854775807 1\n1 2\n99999999999999999999 1\n")
        with pytest.raises(ParseError, match="2\\^63") as excinfo:
            ingest_edge_list(path)
        assert excinfo.value.line_number == 3
        path.write_text("9223372036854775807 1\n1 2\n")
        assert ingest_edge_list(path).vertex_ids[-1] == 2**63 - 1

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# only a comment\n")
        with pytest.raises(DomainError, match="no edges in"):
            ingest_edge_list(path)

    def test_write_then_ingest_round_trip(self, tmp_path):
        from spectol import FactoredProbabilityMatrix, sample_adjacency, sbm_to_latent

        P = FactoredProbabilityMatrix(sbm_to_latent(small_sbm(40)))
        graph = sample_adjacency(P, 7)
        path = tmp_path / "rt.txt"
        write_edge_list(path, graph, header={"n": graph.n})
        assert_same_edges(ingest_edge_list(path), graph)


class TestWriteRows:
    def test_same_bytes_as_per_value_format(self, monkeypatch, tmp_path):
        from spectol import _util

        # blocks of three rows, so seven rows cross two block boundaries
        monkeypatch.setattr(_util, "_ROWS_PER_WRITE", 3)
        rng = np.random.default_rng(0)
        floats = rng.standard_normal((7, 3)) * 10.0 ** rng.integers(-300, 300, (7, 3))
        floats[0] = [np.nan, np.inf, -np.inf]
        floats[1] = [-0.0, 5e-324, 1.0 / 3.0]
        out = tmp_path / "floats.csv"
        _util.write_rows(out, "%.17g,%.17g,%.17g\n", floats)
        assert out.read_bytes().decode("utf-8") == "".join(
            ",".join(format(v, ".17g") for v in row) + "\n" for row in floats
        )
        edges = rng.integers(0, 10**12, (7, 2))
        out = tmp_path / "edges.txt"
        _util.write_rows(out, "%d %d\n", edges)
        assert out.read_bytes().decode("utf-8") == "".join(f"{a} {b}\n" for a, b in edges)

    def test_header_first_and_lf_line_ends(self, monkeypatch, tmp_path):
        from spectol import _util

        opened = []

        def spy(*args, **kw):
            opened.append(kw)
            return open(*args, **kw)

        monkeypatch.setattr(_util, "open", spy, raising=False)
        out = tmp_path / "t.csv"
        _util.write_rows(out, "%d,%.17g\n", np.array([[1, 0.5], [2, -0.0]]), "k,x\n")
        assert out.read_bytes() == b"k,x\n1,0.5\n2,-0\n"
        _util.write_rows(out, "%d\n", [], "k\n")
        assert out.read_bytes() == b"k\n"
        # a summary is a header of no rows, with null for each non-finite float
        write_run(out, [], {"x": np.nan, "y": [-np.inf, 0.5], "k": 2})
        assert summary_path(out).read_bytes() == (
            b'{\n  "x": null,\n  "y": [\n    null,\n    0.5\n  ],\n  "k": 2\n}\n'
        )
        # newline="" writes each "\n" as it is, where text mode would write
        # os.linesep, "\r\n" on Windows
        assert opened == [{"encoding": "utf-8", "newline": ""}] * 4


# the cells the record writer must format as csv.writer did: the IEEE
# specials, signed zero, subnormals, and counts past 2^53, as the Python and
# numpy scalars a record can hold
_CELL_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -2.2250738585072014e-308]),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.floats().map(np.float64),
)
_CELL_COUNTS = st.one_of(
    st.sampled_from([0, 2**52, 2**53 + 1, 2**63 - 1]),
    st.integers(0, 2**63 - 1),
    st.integers(0, 2**63 - 1).map(np.int64),
)


@st.composite
def record_lists(draw):
    """A list of sweep records, with or without the scaled column, or of
    stability records; possibly empty."""
    kind = draw(st.sampled_from([SweepRecord, StabilityRecord]))
    scaled = draw(st.booleans())

    def cell(f):
        if f.type == "int":
            return draw(_CELL_COUNTS)
        if f.default is None and not scaled:
            return None
        return draw(_CELL_FLOATS)

    count = draw(st.integers(0, 5))
    return [kind(**{f.name: cell(f) for f in dataclasses.fields(kind)}) for _ in range(count)]


class TestWriteRecordsCsv:
    @settings(max_examples=300, deadline=None)
    @given(records=record_lists())
    def test_same_bytes_as_csv_writer(self, records):
        with tempfile.TemporaryDirectory() as tmp:
            got, want = Path(tmp) / "got.csv", Path(tmp) / "want.csv"
            write_records_csv(got, records)
            reference_write_records_csv(want, records)
            assert got.read_bytes() == want.read_bytes()

    def test_no_record_writes_the_sweep_header(self, tmp_path):
        out = tmp_path / "empty.csv"
        write_records_csv(out, [])
        assert out.read_bytes() == (",".join(SWEEP_HEADER) + "\n").encode()


class TestSweepConfigValidation:
    def test_increasing_tolerances_rejected(self):
        with pytest.raises(DomainError):
            SweepConfig(model=small_sbm(), tolerances=(0.1, 0.5))

    def test_empty_tolerances_rejected(self):
        with pytest.raises(DomainError):
            SweepConfig(model=small_sbm(), tolerances=())

    @pytest.mark.parametrize("tolerances", [(math.inf, 0.5), (0.5, math.nan)])
    def test_non_finite_tolerance_rejected(self, tolerances):
        # an infinite tolerance was accepted, and its row wrote -inf
        with pytest.raises(DomainError, match="positive"):
            SweepConfig(model=small_sbm(), tolerances=tolerances)

    @pytest.mark.parametrize("tolerances", [(True,), (0.5, np.False_), ("x",)])
    def test_non_number_tolerance_rejected(self, tolerances):
        # float(True) made (True,) the tolerances (1.0,), while a JSON
        # [0.5, true] was refused
        with pytest.raises(DomainError, match="cannot parse tolerance"):
            SweepConfig(model=small_sbm(), tolerances=tolerances)

    def test_zero_replicates_rejected(self):
        with pytest.raises(DomainError):
            SweepConfig(model=small_sbm(), replicates=0)

    def test_unknown_variant_rejected(self):
        # the summary's heuristic is always the spectral one: no field or
        # config key chooses another
        with pytest.raises(TypeError):
            SweepConfig(model=small_sbm(), heuristic_variant="sqrt_n")
        with pytest.raises(DomainError, match="unknown config keys"):
            sweep_config_from_dict(
                {"sizes": "10,10", "b_diag": 0.1, "heuristic_variant": "spectral"}
            )

    def test_bad_dimension_rejected(self):
        with pytest.raises(DomainError):
            SweepConfig(model=small_sbm(), d=0)

    def test_zero_workers_rejected(self):
        with pytest.raises(DomainError):
            SweepConfig(model=small_sbm(), workers=0)

    def test_negative_seed_rejected(self):
        # numpy's SeedSequence takes no negative seed
        with pytest.raises(DomainError, match="seed must be non-negative"):
            SweepConfig(model=small_sbm(), seed=-1)

    @pytest.mark.parametrize(
        "key, value",
        [("replicates", 2.7), ("d", True), ("d", 1.5), ("seed", 0.5), ("workers", True),
         ("replicates", np.True_), ("d", np.True_), ("seed", np.False_),
         ("replicates", np.float32(2.5)), ("workers", Fraction(5, 2))],
    )
    def test_integer_field_rejects_fraction_or_boolean(self, key, value):
        # checked where the config is built, not when a later range() fails;
        # int() took np.True_ as 1 and truncated np.float32(2.5) and
        # Fraction(5, 2) to 2
        with pytest.raises(DomainError, match="cannot parse"):
            SweepConfig(model=small_sbm(), **{key: value})

    def test_integer_fields_stored_as_int(self):
        config = SweepConfig(model=small_sbm(), d=2.0, replicates=3.0, seed=np.int64(4))
        assert (config.d, config.replicates, config.seed) == (2, 3, 4)
        assert all(type(x) is int for x in (config.d, config.replicates, config.seed))

    @pytest.mark.parametrize(
        "key, value",
        [("scaled", "no"), ("record_timing", "false"), ("scaled", 1),
         ("record_timing", None)],
    )
    def test_switch_field_rejects_non_bool(self, key, value):
        # a truthy string must not switch the scaled column or timing on
        with pytest.raises(DomainError, match=key):
            SweepConfig(model=small_sbm(), **{key: value})


class TestToleranceParsing:
    def test_exponent_range(self):
        assert parse_tolerances("2^-1..2^-20") == DEFAULT_TOLERANCES

    def test_comma_list(self):
        assert parse_tolerances("0.5,0.25,1e-6") == (0.5, 0.25, 1e-6)

    def test_single_power(self):
        assert parse_tolerances("2^-6") == (2.0**-6,)

    def test_backwards_range_rejected(self):
        with pytest.raises(DomainError):
            parse_tolerances("2^-8..2^-2")

    def test_garbage_token_rejected(self):
        with pytest.raises(DomainError):
            parse_tolerances("2^-1..oops")

    @pytest.mark.parametrize(
        "value, expected",
        [
            (0.25, (0.25,)),
            (2, (2.0,)),
            (np.float64(0.1), (0.1,)),
            (["2^-1", 0.25], (0.5, 0.25)),
            (np.array([0.5, 0.25]), (0.5, 0.25)),
            (" 2^-3 , 0.1 ", (0.125, 0.1)),
            ("2^-1073..2^-1074", (2.0**-1073, 2.0**-1074)),
        ],
        ids=["bare", "bare-int", "numpy-scalar", "list", "array", "spaced", "subnormal"],
    )
    def test_accepted_forms(self, value, expected):
        tols = parse_tolerances(value)
        assert tols == expected and all(type(t) is float for t in tols)

    @pytest.mark.parametrize(
        "value",
        [
            "2^1024",
            "2^2000",
            "2^" + "9" * 5000,
            "2^-" + "9" * 5000,
            "2^-1075",
            ("x",),
            (True,),
            (0.5, True),
            True,
            None,
            [10**400],
            "0.5,,0.25",
            "2^-" + "9" * 5000 + "..2^-3",
        ],
        ids=["2^1024", "2^2000", "2^5000-digits", "2^-5000-digits", "2^-1075", "x",
             "bool", "list-bool", "bare-bool", "none", "huge-int", "blank-token",
             "huge-backwards-range"],
    )
    def test_rejected_forms(self, value):
        # the overflowing 2^k tokens and the huge int ended in an
        # OverflowError traceback, and (True,) was read as (1.0,)
        with pytest.raises(DomainError):
            parse_tolerances(value)

    @pytest.mark.parametrize(
        "text",
        ["2^-1..2^-1075", "2^-1..2^-99999999", "2^-1..2^-" + "9" * 5000],
        ids=["2^-1075", "2^-99999999", "2^-5000-digits"],
    )
    def test_range_to_zero_fails_before_it_is_built(self, monkeypatch, text):
        # 2^-1..2^-99999999 built a 10^8-entry tuple before its zeros were
        # refused; no range past the smallest subnormal may be built
        def bounded_range(*args):
            assert len(range(*args)) <= 1074, "a range past 2^-1074 was built"
            return range(*args)

        monkeypatch.setattr(experiments, "range", bounded_range, raising=False)
        with pytest.raises(DomainError, match="tolerances must be positive and finite"):
            parse_tolerances(text)
        assert parse_tolerances("2^-1..2^-1074")[-1] == 2.0**-1074

    def test_name_in_message(self):
        with pytest.raises(DomainError, match="^reference_tol must be positive"):
            parse_tolerances(-1.0, "reference_tol")
        with pytest.raises(DomainError, match="^--tol must be strictly decreasing"):
            parse_tolerances("0.25,0.5", "--tol")


class TestConfigFiles:
    JSON_CONFIG = {
        "sizes": "300,300,300",
        "b_diag": 0.05,
        "b_off": 0.02,
        "d": 3,
        "tolerances": "2^-1..2^-20",
        "replicates": 20,
        "seed": 0,
    }

    def test_from_dict(self):
        config = sweep_config_from_dict(dict(self.JSON_CONFIG))
        assert isinstance(config.model, SbmSpec)
        assert config.model.n == 900
        assert config.d == 3
        assert config.tolerances == DEFAULT_TOLERANCES
        B = config.model.block_probabilities
        assert abs(B[0, 0] - 0.05) <= 1e-12 and abs(B[0, 1] - 0.02) <= 1e-12

    def test_full_block_matrix_string(self):
        config = sweep_config_from_dict(
            {"sizes": "50,50", "b": "0.1,0.03;0.03,0.1", "d": 2}
        )
        assert np.allclose(
            config.model.block_probabilities, [[0.1, 0.03], [0.03, 0.1]]
        )

    def test_edge_list_model(self):
        config = sweep_config_from_dict({"edge_list": "graph.txt", "d": 2})
        assert config.model == "graph.txt"

    def test_unknown_key_rejected(self):
        with pytest.raises(DomainError):
            sweep_config_from_dict({"sizes": "10,10", "b_diag": 0.1, "typo": 1})

    @pytest.mark.parametrize(
        "keys",
        [{"scaled": "maybe"}, {"record_timing": "x"}, {"replicates": "x"}],
    )
    @pytest.mark.parametrize("unknown", ["typo", "model"])
    def test_unknown_key_reported_before_any_value(self, keys, unknown):
        # a malformed bool used to be reported before the unknown key
        with pytest.raises(DomainError, match=f"^unknown config keys: \\['{unknown}'\\]$"):
            sweep_config_from_dict({"sizes": "10,10", "b_diag": 0.1, unknown: 1, **keys})

    @pytest.mark.parametrize(
        "sizes, matrix, error",
        [
            ("10,10", {"b_diag": "0.1", "b_off": "y"}, DomainError),
            (",", {"b_diag": 0.1}, DimensionMismatch),
            ("10,10", {"b": "0.1,0.2;0.3"}, DimensionMismatch),
            ([10, 10], {"b": [[0.1, 0.2], [0.2]]}, DimensionMismatch),
            ("10,10", {"b": [[0.1]]}, DimensionMismatch),
        ],
    )
    def test_bad_block_model_rejected(self, sizes, matrix, error):
        with pytest.raises(error):
            block_model(sizes, **matrix)

    @pytest.mark.parametrize(
        "matrix",
        [
            {"b_diag": True, "b_off": False},
            {"b_diag": 0.1, "b_off": False},
            {"b_diag": np.bool_(True)},
            {"b": [[True, 0.0], [0.0, 0.1]]},
        ],
    )
    def test_bool_block_probability_rejected(self, matrix):
        # float() takes a bool, so a JSON true built B = [[1, 0], [0, 1]]: a
        # sweep on two cliques
        with pytest.raises(DomainError, match="cannot parse"):
            block_model("20,20", **matrix)
        with pytest.raises(DomainError, match="cannot parse"):
            sweep_config_from_dict({"sizes": "20,20", **matrix, "d": 2})

    def test_bool_block_probability_in_json_config_is_one_error_line(
        self, tmp_path, capsys, monkeypatch
    ):
        cfg = tmp_path / "bool.json"
        cfg.write_text(json.dumps({"sizes": "20,20", "b_diag": True, "b_off": 0.1, "d": 2}))
        monkeypatch.setattr(experiments, "truncated_eigs", lambda *a, **k: pytest.fail())
        assert cli_main(["sweep", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == "error: cannot parse b_diag True\n"

    @pytest.mark.parametrize(
        "keys, match",
        [
            ({"edge_list": "g.txt", "sizes": "10,10"}, "got sizes$"),
            ({"edge_list": "g.txt", "b_off": 0.02}, "got b_off$"),
            ({"sizes": "10,10", "b": "0.1,0.02;0.02,0.1", "b_diag": 0.1}, "not both"),
            ({"sizes": "10,10", "b": "0.1,0.02;0.02,0.1", "b_off": 0.02}, "not both"),
            ({"b_diag": 0.1, "d": 2}, "needs an edge list or block sizes"),
        ],
    )
    def test_contradictory_or_missing_model_rejected(self, keys, match):
        # an edge list silently dropped its block keys, and b its b_diag/b_off
        with pytest.raises(DomainError, match=match):
            model_from_keys(dict(keys))
        with pytest.raises(DomainError, match=match):
            sweep_config_from_dict(keys)

    def test_model_keys_popped_and_none_absent(self):
        data = {"edge_list": "g.txt", "sizes": None, "b_off": None, "d": 2}
        assert model_from_keys(data) == "g.txt"
        assert data == {"d": 2}

    @pytest.mark.parametrize(
        "key",
        ["d", "dim", "tolerances", "replicates", "seed", "workers", "scaled",
         "record_timing", "output", "b", "b_off", "edge_list"],
    )
    def test_null_key_is_absent(self, key):
        # null meant absent only for d, dim, the model keys and output; the
        # others failed with "cannot parse ... None"
        keys = {"sizes": "10,10", "b_diag": 0.1}
        absent = sweep_config_from_dict(keys)
        null = sweep_config_from_dict({**keys, key: None})
        assert null.model.sizes == absent.model.sizes
        assert np.array_equal(
            null.model.block_probabilities, absent.model.block_probabilities
        )
        assert dataclasses.replace(null, model=absent.model) == absent

    def test_null_unknown_key_rejected(self):
        with pytest.raises(DomainError, match="unknown config keys: \\['typo'\\]"):
            sweep_config_from_dict({"sizes": "10,10", "b_diag": 0.1, "typo": None})

    @pytest.mark.parametrize("sizes", ["500", "500,500"])
    def test_b_off_defaults_to_zero(self, sizes):
        B = block_model(sizes, b_diag=0.05).block_probabilities
        assert np.array_equal(B, 0.05 * np.eye(len(sizes.split(","))))
        assert np.array_equal(
            B, block_model(sizes, b_diag=0.05, b_off=0.0).block_probabilities
        )

    def test_json_and_key_value_files_agree(self, tmp_path):
        json_path = tmp_path / "sweep.json"
        json_path.write_text(json.dumps(self.JSON_CONFIG))
        text_path = tmp_path / "sweep.cfg"
        text_path.write_text(
            "# benchmark sweep\n"
            "sizes = 300,300,300\n"
            "b_diag = 0.05\n"
            "b_off = 0.02\n"
            "d = 3\n"
            "tolerances = 2^-1..2^-20\n"
            "replicates = 20\n"
            "seed = 0\n"
        )
        a = load_sweep_config(json_path)
        b = load_sweep_config(text_path)
        assert np.array_equal(
            a.model.block_probabilities, b.model.block_probabilities
        )
        assert a.model.sizes == b.model.sizes
        # one builder reads strings as flags and key=value files give them,
        # and numbers and lists as JSON gives them
        specs = [
            block_model("300,300", b="0.05,0.02;0.02,0.05"),
            block_model([300, 300], b=[[0.05, 0.02], [0.02, 0.05]]),
            block_model("300,300", b_diag="0.05", b_off="0.02"),
            block_model([300, 300], b_diag=0.05, b_off=0.02),
        ]
        for spec in specs:
            assert spec.sizes == (300, 300)
            assert np.array_equal(spec.block_probabilities, specs[0].block_probabilities)
        for field in (
            "d",
            "tolerances",
            "replicates",
            "seed",
            "output",
            "scaled",
            "record_timing",
            "workers",
        ):
            assert getattr(a, field) == getattr(b, field)

    @pytest.mark.parametrize(
        "key, value",
        [("replicates", 2.7), ("d", 2.5), ("dim", 1.5), ("seed", True),
         ("workers", 1.5), ("sizes", [10.5, 10]), ("replicates", float("inf")),
         ("replicates", np.True_), ("sizes", [np.True_, 10]), ("d", np.float32(1.5))],
    )
    def test_integer_key_rejects_fraction_or_boolean(self, key, value):
        data = {"sizes": "10,10", "b_diag": 0.1, key: value}
        with pytest.raises(DomainError, match="block size" if key == "sizes" else key):
            sweep_config_from_dict(data)

    def test_integer_key_takes_whole_number(self):
        config = sweep_config_from_dict(
            {"sizes": [10.0, 10], "b_diag": 0.1, "d": 2.0, "replicates": 3.0}
        )
        assert config.model.sizes == (10, 10)
        assert (config.d, config.replicates) == (2, 3)
        assert all(type(x) is int for x in (config.d, config.replicates))

    def test_flags_and_both_file_forms_build_one_config(self, tmp_path, monkeypatch):
        # one sweep as flags, as key=value lines and as JSON: the files spell
        # d as dim, give ints and bools as strings, and the JSON gives nulls
        built = []
        monkeypatch.setattr(cli, "run_tolerance_sweep", lambda c: built.append(c) or ([], {}))
        out = str(tmp_path / "s.csv")
        text = tmp_path / "s.cfg"
        text.write_text(
            "sizes = 20,20\nb_diag = 0.1\nb_off = 0.02\ndim = 2\n"
            "tolerances = 2^-1..2^-3\nreplicates = 2\nseed = 3\nscaled = yes\n"
            f"record_timing = 0\noutput = {out}\n"
        )
        json_path = tmp_path / "s.json"
        json_path.write_text(json.dumps({
            "sizes": [20, 20], "b": None, "b_diag": 0.1, "b_off": "0.02", "d": None,
            "dim": "2", "tolerances": ["2^-1", 0.25, "0.125"], "replicates": "2",
            "seed": 3, "workers": None, "scaled": "True", "record_timing": "0",
            "output": out,
        }))
        flags = ["--sizes", "20,20", "--b-diag", "0.1", "--b-off", "0.02", "--dim", "2",
                 "--tolerances", "2^-1..2^-3", "--replicates", "2", "--seed", "3",
                 "--scaled", "--out", out]
        assert cli_main(["sweep", *flags]) == 0
        for path in (text, json_path):
            assert cli_main(["sweep", "--config", str(path)]) == 0
        first = built[0]
        assert (first.d, first.replicates, first.seed, first.scaled) == (2, 2, 3, True)
        assert first.output == out and not first.record_timing
        for config in built[1:]:
            assert config.model.sizes == first.model.sizes
            assert np.array_equal(
                config.model.block_probabilities, first.model.block_probabilities
            )
            assert dataclasses.replace(config, model=first.model) == first

    def test_tolerance_list_items_read_as_tokens(self):
        # each item went through float(), so a list refused "2^-1"
        model = {"sizes": "10,10", "b_diag": "0.1"}
        listed = sweep_config_from_dict({**model, "tolerances": ["2^-1", 0.25]})
        line = sweep_config_from_dict({**model, "tolerances": "2^-1,0.25"})
        assert listed.tolerances == (0.5, 0.25)
        assert dataclasses.replace(listed, model=line.model) == line

    def test_tolerance_list_rejects_boolean(self):
        # float(True) made [true, 0.5] the tolerances (1.0, 0.5)
        with pytest.raises(DomainError, match="tolerance"):
            sweep_config_from_dict(
                {"sizes": "10,10", "b_diag": 0.1, "tolerances": [True, 0.5]}
            )

    def test_key_value_without_equals(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("sizes 10,10\n")
        with pytest.raises(ParseError):
            load_sweep_config(path)

    @pytest.mark.parametrize("keys", [{"d": 2, "dim": 3}, {"d": 2, "dim": 2}])
    def test_d_beside_dim_rejected(self, keys):
        # dim was silently dropped for d
        with pytest.raises(DomainError, match="d or dim"):
            sweep_config_from_dict({"sizes": "10,10", "b_diag": 0.1, **keys})

    def test_key_value_repeated_key_names_its_line(self, tmp_path):
        # the last b_diag won, without a word
        path = tmp_path / "twice.cfg"
        path.write_text("sizes = 10,10\nb_diag = 0.1\n# a comment\nb_diag = 0.5\n")
        with pytest.raises(ParseError, match="b_diag") as info:
            load_sweep_config(path)
        assert info.value.line_number == 4

    def test_json_repeated_key_rejected(self, tmp_path):
        path = tmp_path / "twice.json"
        path.write_text('{"sizes": "10,10", "b_diag": 0.1, "b_diag": 0.5}')
        with pytest.raises(DomainError, match="repeated config key"):
            load_sweep_config(path)


class TestToleranceSweep:
    def test_row_count_and_schema(self, benchmark_sweep):
        with open(benchmark_sweep.serial_a.path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == SWEEP_HEADER
        assert len(rows) == 1 + 20 * 20
        assert_integer_columns(rows, SWEEP_HEADER, ("replicate", "iterations", "matvecs"))

    def test_csv_round_trip_bit_exact(self, benchmark_sweep):
        back = reference_read_sweep_csv(benchmark_sweep.serial_a.path)
        assert back == list(benchmark_sweep.serial_a.records)

    def test_round_trip_preserves_nan(self, tmp_path):
        # an edge-list model has no known P, so procrustes_error is nan
        path = tmp_path / "cycle.txt"
        path.write_text("".join(f"{i} {(i + 1) % 20}\n" for i in range(20)))
        config = SweepConfig(
            model=str(path), d=2, tolerances=(0.5, 0.25), replicates=2
        )
        records, _ = run_tolerance_sweep(config)
        assert all(math.isnan(rec.procrustes_error) for rec in records)
        out = tmp_path / "tiny.csv"
        write_records_csv(out, records)
        back = reference_read_sweep_csv(out)
        for a, b in zip(back, records):
            assert math.isnan(a.procrustes_error)
            assert a.residual == b.residual and a.rho == b.rho

    def test_auto_dimension_draws_each_graph_once(self, monkeypatch, tmp_path):
        # the pilot's graph seed is replicate 0's, so replicate 0 reuses the
        # pilot's graph, and the replicates write what a fixed-d sweep writes
        seeds = []
        sample = experiments.sample_adjacency

        def spy(P, seed):
            seeds.append(seed)
            return sample(P, seed)

        monkeypatch.setattr(experiments, "sample_adjacency", spy)
        auto = SweepConfig(
            model=small_sbm(), d="auto", tolerances=(2.0**-1, 2.0**-4), replicates=3,
            output=str(tmp_path / "auto.csv"),
        )
        _, summary = run_tolerance_sweep(auto)
        assert len(seeds) == auto.replicates
        fixed = dataclasses.replace(
            auto, d=summary["dimension"], output=str(tmp_path / "fixed.csv")
        )
        _, fixed_summary = run_tolerance_sweep(fixed)
        assert (tmp_path / "auto.csv").read_bytes() == (tmp_path / "fixed.csv").read_bytes()
        assert summary.pop("dimension_selection") == experiments.DIMENSION_SELECTION_METHOD
        assert fixed_summary.pop("dimension_selection") == "fixed"
        assert summary == fixed_summary

    def test_identical_configs_are_byte_identical(self, benchmark_sweep):
        assert (
            benchmark_sweep.serial_a.path.read_bytes()
            == benchmark_sweep.serial_b.path.read_bytes()
        )

    def test_worker_count_never_changes_bytes(self, benchmark_sweep):
        assert (
            benchmark_sweep.serial_a.path.read_bytes()
            == benchmark_sweep.threaded.path.read_bytes()
        )

    def test_summary_json_deterministic(self, benchmark_sweep):
        a = benchmark_sweep.serial_a.path.with_suffix(".summary.json")
        b = benchmark_sweep.threaded.path.with_suffix(".summary.json")
        assert a.read_bytes() == b.read_bytes()

    def test_records_match_fresh_solves(self):
        # the sweep solves on one restart path per replicate; every record
        # must equal a fresh solve at its tolerance.  rho comes from the
        # replicate's extremes solve, the fresh records' from the dense
        # spectrum, so the two agree to rounding
        config = SweepConfig(
            model=three_block_spec(), d=3, replicates=3, seed=0, scaled=True
        )
        records, _ = run_tolerance_sweep(config)
        fresh = fresh_sweep_records(config)
        assert nan_safe(without_rho(records)) == nan_safe(without_rho(fresh))
        assert_rho_matches([rec.rho for rec in records], [rec.rho for rec in fresh])

    def test_elapsed_ms_is_cumulative(self):
        # a tolerance's time is what a solve to it costs, the chain so far
        config = SweepConfig(
            model=small_sbm(), d=3, replicates=2, seed=1, record_timing=True
        )
        records, _ = run_tolerance_sweep(config)
        for r in range(config.replicates):
            times = [rec.elapsed_ms for rec in records if rec.replicate == r]
            assert times[0] > 0.0
            assert all(a <= b for a, b in zip(times, times[1:]))

    def test_paired_error_non_increasing_per_replicate(self, benchmark_sweep):
        # same graph and starting vector down a column, so tightening the
        # tolerance can only move the iterate toward the converged frame;
        # the distance to the truth still jitters at the 1e-3 scale while
        # the subspace settles (measured max 1.7e-3 at this seed)
        by_rep: dict[int, list] = {}
        for rec in benchmark_sweep.serial_a.records:
            by_rep.setdefault(rec.replicate, []).append(rec)
        for recs in by_rep.values():
            errs = [r.procrustes_error for r in sorted(recs, key=lambda r: r.tol_exponent)]
            for looser, tighter in zip(errs, errs[1:]):
                assert tighter <= looser + 2e-3

    def test_elapsed_ms_suppressed_by_default(self, benchmark_sweep):
        assert all(rec.elapsed_ms == 0.0 for rec in benchmark_sweep.serial_a.records)

    def test_summary_tracks_heuristic_position(self, benchmark_sweep):
        heur = benchmark_sweep.serial_a.summary["heuristic"]
        assert heur["variant"] == "spectral"
        assert heur["recommended"] == heur["mean_heuristic_spectral"]
        assert 0 < heur["mean_heuristic_sqrt_n"] < heur["mean_heuristic_spectral"]

    def test_single_tolerance_degenerate_sweep(self):
        from spectol import FactoredProbabilityMatrix, sample_adjacency, sbm_to_latent

        spec = three_block_spec()
        config = SweepConfig(model=spec, d=3, tolerances=(2.0**-6,), replicates=20)
        records, _ = run_tolerance_sweep(config)
        assert len(records) == 20
        assert sorted(rec.replicate for rec in records) == list(range(20))
        # a run that converges before the top-eigenvalue estimate has
        # stabilized is held to tol * max_degree, the bootstrap denominator
        P = FactoredProbabilityMatrix(sbm_to_latent(spec))
        for rec in sorted(records, key=lambda r: r.replicate):
            graph_ss = np.random.SeedSequence(config.seed + rec.replicate).spawn(2)[0]
            delta = float(sample_adjacency(P, graph_ss).degrees.max())
            assert rec.iterations < DEFAULT_MAX_RESTARTS
            assert rec.residual <= 2.0**-6 * delta * (1 + 1e-9)

    def test_scaled_flag_adds_column(self, tmp_path):
        out = tmp_path / "scaled.csv"
        config = SweepConfig(
            model=small_sbm(60),
            d=3,
            tolerances=(0.5, 0.125),
            replicates=2,
            scaled=True,
            output=str(out),
        )
        records, _ = run_tolerance_sweep(config)
        assert all(rec.procrustes_error_scaled is not None for rec in records)
        with open(out, newline="") as fh:
            header = next(csv.reader(fh))
        assert header[-1] == "procrustes_error_scaled"
        back = reference_read_sweep_csv(out)
        assert back == list(records)

    @pytest.mark.parametrize("case", ["scaled", "unscaled", "empty"])
    def test_writer_takes_schema_from_records(self, tmp_path, case):
        # the scaled column follows the records; no record writes the header
        record = SweepRecord(
            tol_exponent=1.0, replicate=0, iterations=2, matvecs=10,
            procrustes_error=0.5, residual=0.25, rho=0.125, elapsed_ms=0.0,
        )
        records, columns = {
            "scaled": ([dataclasses.replace(record, procrustes_error_scaled=0.75)],
                       SWEEP_HEADER + ["procrustes_error_scaled"]),
            "unscaled": ([record], SWEEP_HEADER),
            "empty": ([], SWEEP_HEADER),
        }[case]
        out = tmp_path / "records.csv"
        write_records_csv(out, records)
        with open(out, newline="") as fh:
            assert next(csv.reader(fh)) == columns
        assert reference_read_sweep_csv(out) == records

    def test_flattening_point_beats_heuristic_across_scalings(self):
        # the same model inflated or deflated by a constant factor keeps
        # its error curve flat from well before the per-graph heuristic
        tolerances = tuple(2.0**-k for k in range(1, 13))
        for b in (0.5, 1.0, 2.0):
            B = (np.full((3, 3), 0.02) + np.eye(3) * 0.03) * b
            config = SweepConfig(
                model=SbmSpec(B, (900, 900, 900)),
                d=3,
                tolerances=tolerances,
                replicates=4,
                seed=0,
            )
            _, summary = run_tolerance_sweep(config)
            means = [row["mean_procrustes"] for row in summary["per_tolerance"]]
            tight = means[-1]
            flat_at = next(
                tol
                for tol, mean in zip(tolerances, means)
                if mean <= 1.05 * tight
            )
            assert flat_at >= summary["heuristic"]["mean_heuristic_spectral"]
            assert flat_at >= summary["heuristic"]["mean_heuristic_sqrt_n"]

    @pytest.mark.parametrize("sizes, b_off, rank", [
        pytest.param("300,300", 0.02, 2, id="300,300"),
        pytest.param("500", 0.02, 1, id="500"),
        # equal block probabilities: three blocks, but P = 0.05 J has rank 1
        pytest.param("300,300,300", 0.05, 1, id="rank-deficient"),
    ])
    def test_d_above_the_block_count_raises_before_any_solve(
        self, monkeypatch, sizes, b_off, rank
    ):
        # P has at most one eigenvector per block, so the Procrustes error of
        # a d = 3 solve failed on its shapes, after graph 0's extremes run and
        # replicate 0's first solve had run; a rank-deficient P with three
        # blocks was swept against two arbitrary null-space vectors
        calls = []
        for name in ("truncated_eigs", "excluded_extremes"):
            def spy(*args, _real=getattr(experiments, name), _name=name, **kw):
                calls.append(_name)
                return _real(*args, **kw)

            monkeypatch.setattr(experiments, name, spy)
        config = SweepConfig(model=block_model(sizes, b_diag=0.05, b_off=b_off), d=3,
                             tolerances=(0.5, 0.25), replicates=2)
        with pytest.raises(DomainError, match=f"^d=3 exceeds the rank of P, {rank}$"):
            run_tolerance_sweep(config)
        assert calls == []

    @pytest.mark.parametrize("d", [2, "auto"])
    @pytest.mark.parametrize("source", ["edge_list", "block_model"])
    def test_below_heuristic_n_raises_before_any_solve(
        self, monkeypatch, tmp_path, source, d
    ):
        # the summary reads the heuristics, defined for n >= 16: a 12-vertex
        # sweep failed on them after graph 0's extremes run and first solves
        calls = []
        for name in ("truncated_eigs", "excluded_extremes"):
            def spy(*args, _real=getattr(experiments, name), _name=name, **kw):
                calls.append(_name)
                return _real(*args, **kw)

            monkeypatch.setattr(experiments, name, spy)
        if source == "edge_list":
            model = str(tmp_path / "c12.txt")
            Path(model).write_text(twelve_cycle())
        else:
            model = block_model("6,6", b_diag=0.5, b_off=0.1)
        config = SweepConfig(model=model, d=d, tolerances=(0.5, 0.1), replicates=2)
        with pytest.raises(DomainError, match="^heuristic defined for n >= 16, got 12$"):
            run_tolerance_sweep(config)
        assert calls == []


class TestSweepRho:
    """rho from one extremes solve per replicate, against np.linalg.eigvalsh."""

    def test_every_benchmark_cell_matches_dense(self, benchmark_sweep):
        run = benchmark_sweep.serial_a
        config = SweepConfig(
            model=three_block_spec(), d=3, replicates=benchmark_sweep.replicates, seed=0
        )
        assert_rho_matches([rec.rho for rec in run.records], dense_sweep_rhos(config))
        assert run.summary["rho_nan_cells"] == 0

    def test_defined_above_the_old_dense_limit(self):
        # n = 2,700: the sweep wrote NaN above n = 1,500 before
        config = SweepConfig(
            model=block_model("900,900,900", b_diag=0.05, b_off=0.02),
            d=3,
            tolerances=(2.0**-1, 2.0**-2, 2.0**-3),
            replicates=1,
        )
        records, summary = run_tolerance_sweep(config)
        assert_rho_matches([rec.rho for rec in records], dense_sweep_rhos(config))
        assert summary["rho_nan_cells"] == 0

    def test_near_tied_leading_cluster_matches_dense(self):
        # three of the four leading eigenvalues nearly tie, where a single
        # start vector is slowest to split a cluster
        config = SweepConfig(
            model=block_model("300,300,300,300", b_diag=0.05, b_off=0.02),
            d=4,
            tolerances=tuple(2.0**-k for k in range(1, 13)),
            replicates=10,
        )
        records, summary = run_tolerance_sweep(config)
        assert_rho_matches([rec.rho for rec in records], dense_sweep_rhos(config))
        assert summary["rho_nan_cells"] == 0

    def test_matches_eigsh_above_the_dense_limit(self, tmp_path):
        # n = 20,000, four times the dense limit: scipy's eigsh is the oracle
        sparse = pytest.importorskip("scipy.sparse")
        eigsh = pytest.importorskip("scipy.sparse.linalg").eigsh
        B = np.full((4, 4), 0.0008) + np.eye(4) * 0.0032
        path = tmp_path / "sbm20k.txt"
        np.savetxt(path, sample_block_edges([5000] * 4, B, 0), fmt="%d")
        config = SweepConfig(
            model=str(path), d=4, tolerances=(2.0**-2, 2.0**-6, 2.0**-10), replicates=1
        )
        records, summary = run_tolerance_sweep(config)
        A = ingest_edge_list(path).graph
        assert A.n > DENSE_LIMIT
        M = sparse.csr_matrix((np.ones(A.indices.size), A.indices, A.indptr), shape=(A.n, A.n))
        oracle = eigsh(M, k=7, which="LM", v0=np.ones(A.n), return_eigenvectors=False)
        oracle = oracle[np.argsort(-np.abs(oracle))]
        # the three largest excluded values hold both signs, so they
        # bracket the rest and rho over these seven is exact
        assert oracle[4:].min() < 0.0 < oracle[4:].max()
        _, solver_ss = np.random.SeedSequence(0).spawn(2)
        want, path = [], RestartPath(A, 4, solver_ss)
        for tol in config.tolerances:
            dec = truncated_eigs(A, 4, tol, path=path)
            want.append(ritz_gap_rho(dec.values, oracle))
        assert_rho_matches([rec.rho for rec in records], want)
        assert summary["rho_nan_cells"] == 0

    def test_one_signed_extremes_double_k(self, monkeypatch):
        # replicate 7 of the seed-0 benchmark sweep: the three values past
        # d in a d + 3 run are all of one sign, so a d + 6 run follows
        config = SweepConfig(
            model=three_block_spec(), d=3, tolerances=(2.0**-1, 2.0**-10), replicates=1, seed=7
        )
        graph_ss, _ = np.random.SeedSequence(7).spawn(2)
        A = sample_adjacency(FactoredProbabilityMatrix(sbm_to_latent(config.model)), graph_ss)
        spectrum = np.linalg.eigvalsh(A.to_dense())
        excluded = spectrum[np.argsort(-np.abs(spectrum))][3:6]
        assert np.all(excluded > 0) or np.all(excluded < 0)

        # the widths of the trajectories each extremes run follows
        widths = []
        extremes = experiments.excluded_extremes
        trajectory = spectral_core._restarts

        def spy(A, d, seed):
            def restarts(A, width, m, seed, **kw):
                widths.append(width)
                return trajectory(A, width, m, seed, **kw)

            monkeypatch.setattr(spectral_core, "_restarts", restarts)
            try:
                return extremes(A, d, seed)
            finally:
                monkeypatch.setattr(spectral_core, "_restarts", trajectory)

        monkeypatch.setattr(experiments, "excluded_extremes", spy)
        records, summary = run_tolerance_sweep(config)
        assert widths == [6, 9]
        assert_rho_matches([rec.rho for rec in records], dense_sweep_rhos(config))
        assert summary["rho_nan_cells"] == 0

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("d", [3, "auto"])
    def test_edge_list_runs_one_extremes_solve(self, monkeypatch, tmp_path, d, workers):
        # the replicates of an edge-list sweep differ only in their start
        # block; the graph's one extremes solve runs with replicate 0's seed
        A = sample_adjacency(FactoredProbabilityMatrix(sbm_to_latent(small_sbm())), 5)
        path = tmp_path / "sbm.txt"
        write_edge_list(path, A)
        config = SweepConfig(
            model=str(path), d=d, tolerances=(2.0**-2, 2.0**-6, 2.0**-10), replicates=3,
            workers=workers, output=str(tmp_path / "el.csv"),
        )
        graphs = spy_extremes_solves(monkeypatch)
        records, summary = run_tolerance_sweep(config)
        assert len(graphs) == 1
        # an edge list has no P to compare with: its NaN errors are written null
        written = strict_json(summary_path(config.output))
        assert all(row["mean_procrustes"] is None for row in written["per_tolerance"])
        fixed = dataclasses.replace(config, d=summary["dimension"])
        assert_rho_matches([rec.rho for rec in records], dense_sweep_rhos(fixed))
        assert summary["rho_nan_cells"] == 0

    @pytest.mark.parametrize("d", [3, "auto"])
    def test_block_model_runs_one_extremes_solve_per_replicate(self, monkeypatch, d):
        # each replicate draws its own graph, so each gets one extremes solve
        config = SweepConfig(model=small_sbm(), d=d, tolerances=(0.5, 0.25), replicates=4)
        graphs = spy_extremes_solves(monkeypatch)
        records, summary = run_tolerance_sweep(config)
        assert len(graphs) == config.replicates
        assert len({id(A) for A in graphs}) == config.replicates
        fixed = dataclasses.replace(config, d=summary["dimension"])
        assert_rho_matches([rec.rho for rec in records], dense_sweep_rhos(fixed))

    def test_ritz_value_inside_the_excluded_range_is_nan(self, tmp_path):
        # d = 3 on a one-block graph asks for two bulk eigenvalues, and a
        # solve at 1/2 stops with a Ritz value not yet past the bulk's edge
        P = FactoredProbabilityMatrix(sbm_to_latent(block_model("500", b_diag=0.05)))
        A = sample_adjacency(P, 2)
        path = tmp_path / "er.txt"
        write_edge_list(path, A)
        config = SweepConfig(model=str(path), d=3, tolerances=(0.5, 1e-8), replicates=2)
        records, summary = run_tolerance_sweep(config)
        spectrum = np.linalg.eigvalsh(A.to_dense())
        excluded = spectrum[np.argsort(-np.abs(spectrum), kind="stable")][3:]
        dense = dense_sweep_rhos(config)
        inside = []
        for rec, want in zip(records, dense):
            _, solver_ss = np.random.SeedSequence(rec.replicate).spawn(2)
            values = truncated_eigs(A, 3, 2.0**-rec.tol_exponent, seed=solver_ss).values
            inside.append(bool(np.any((values >= excluded.min()) & (values <= excluded.max()))))
            if inside[-1]:
                assert math.isnan(rec.rho)
            else:
                # these gaps lie inside the bulk, hundreds of times smaller
                # than ||A||, and both spectra round at the scale of ||A||
                assert abs(rec.rho - want) <= RHO_RTOL * np.abs(spectrum).max()
        assert inside == [True, False, True, False]
        assert summary["rho_nan_cells"] == 2

    def test_d_plus_3_reaching_n_is_nan(self, tmp_path):
        # n = 20 and d = 17, so no extremes solve can run
        path = tmp_path / "cycle.txt"
        path.write_text("".join(f"{i} {(i + 1) % 20}\n" for i in range(20)))
        config = SweepConfig(model=str(path), d=17, tolerances=(0.5, 0.25), replicates=2)
        records, summary = run_tolerance_sweep(config)
        assert all(math.isnan(rec.rho) for rec in records)
        assert summary["rho_nan_cells"] == 4

    def test_unconverged_extremes_solve_is_nan(self, monkeypatch):
        # an extremes run that spent its budget returns None
        monkeypatch.setattr(experiments, "excluded_extremes", lambda A, d, seed: None)
        config = SweepConfig(model=small_sbm(), d=3, tolerances=(0.5, 0.25), replicates=2)
        records, summary = run_tolerance_sweep(config)
        assert all(math.isnan(rec.rho) for rec in records)
        assert summary["rho_nan_cells"] == 4


class TestClusteringStability:
    def test_reference_tolerance_reproduces_itself(self):
        from spectol import FactoredProbabilityMatrix, sample_adjacency, sbm_to_latent

        P = FactoredProbabilityMatrix(sbm_to_latent(small_sbm(100)))
        graph = sample_adjacency(P, 3)
        records, summary = run_clustering_stability(
            graph,
            3,
            tolerances=(1e-6,),
            reference_tol=1e-6,
            seed=0,
            repetitions=2,
            k_range=(2, 3, 4),
        )
        assert all(rec.ari_vs_reference == 1.0 for rec in records)
        assert all(math.isnan(rec.ari_vs_coarser) for rec in records)
        assert summary["per_tolerance"][0]["mean_ari_vs_reference"] == 1.0

    @pytest.mark.parametrize("reference_tol", [1e-6, 2.0**-5])
    def test_records_match_fresh_solves(self, reference_tol):
        # one restart path per repetition serves the swept tolerances and
        # the reference, also when the reference is one of them
        from spectol import FactoredProbabilityMatrix, sample_adjacency, sbm_to_latent

        graph = sample_adjacency(FactoredProbabilityMatrix(sbm_to_latent(small_sbm(100))), 3)
        tols = tuple(2.0**-k for k in range(1, 9))
        args = dict(reference_tol=reference_tol, seed=0, repetitions=3, k_range=(2, 3, 4))
        records, _ = run_clustering_stability(graph, 3, tols, **args)
        assert nan_safe(records) == nan_safe(fresh_stability_records(graph, 3, tols, **args))

    def test_increasing_tolerances_rejected(self):
        from spectol import FactoredProbabilityMatrix, sample_adjacency, sbm_to_latent

        P = FactoredProbabilityMatrix(sbm_to_latent(small_sbm(30)))
        graph = sample_adjacency(P, 0)
        with pytest.raises(DomainError):
            run_clustering_stability(graph, 2, tolerances=(0.1, 0.5))

    @pytest.mark.parametrize(
        "bad", [{"reference_tol": math.inf}, {"tolerances": (math.inf, 0.5)}]
    )
    def test_infinite_tolerance_fails_before_any_solve(self, monkeypatch, bad):
        from spectol import FactoredProbabilityMatrix, sample_adjacency, sbm_to_latent

        graph = sample_adjacency(FactoredProbabilityMatrix(sbm_to_latent(small_sbm(30))), 0)
        monkeypatch.setattr(experiments, "truncated_eigs", lambda *a, **k: pytest.fail())
        with pytest.raises(DomainError, match="positive"):
            run_clustering_stability(graph, 2, **bad)

    # the ids of the k_range cases are the ones pytest gave them when they
    # were the only cases
    @pytest.mark.parametrize(
        "bad",
        [
            pytest.param({"k_range": ()}, id="k_range0"),
            pytest.param({"k_range": (1, 2)}, id="k_range1"),
            pytest.param({"k_range": (2, 91)}, id="k_range2"),
            pytest.param({"k_range": (0,)}, id="k_range3"),
            pytest.param({"tolerances": (0.5, 0.25, -1)}, id="negative_tolerance"),
            pytest.param({"tolerances": (0.5, 0.0)}, id="zero_tolerance"),
            pytest.param({"reference_tol": 0}, id="zero_reference_tol"),
            pytest.param({"reference_tol": -1e-6}, id="negative_reference_tol"),
            pytest.param({"workers": 0}, id="workers0"),
            pytest.param({"workers": -3}, id="workers-3"),
            pytest.param({"repetitions": 0}, id="repetitions0"),
            pytest.param({"k_range": (2.7, 3.9)}, id="k_range_fraction"),
            pytest.param({"repetitions": 1.5}, id="repetitions_fraction"),
            pytest.param({"workers": 1.5}, id="workers_fraction"),
            pytest.param({"seed": 0.5}, id="seed_fraction"),
            pytest.param({"seed": -1}, id="negative_seed"),
            # each raised a ValueError, not the DomainError promised
            pytest.param({"tolerances": ("x",)}, id="unparsable_tolerance"),
            pytest.param({"reference_tol": "x"}, id="unparsable_reference_tol"),
            pytest.param({"tolerances": (True,)}, id="bool_tolerance"),
            pytest.param({"tolerances": "2^2000"}, id="overflowing_tolerance"),
            # a float or bool d raised a TypeError in the first solve, or ran
            # a d = 1 study whose summary wrote "dimension": true
            pytest.param({"d": 1.5}, id="d_fraction"),
            pytest.param({"d": True}, id="d_bool"),
            pytest.param({"d": np.True_}, id="d_numpy_bool"),
            pytest.param({"d": 0}, id="d0"),
            pytest.param({"d": -1}, id="d-1"),
            pytest.param({"d": "two"}, id="d_unparsable"),
        ],
    )
    def test_bad_k_range_rejected_before_any_solve(self, monkeypatch, bad):
        from spectol import FactoredProbabilityMatrix, sample_adjacency, sbm_to_latent
        from spectol import experiments

        graph = sample_adjacency(FactoredProbabilityMatrix(sbm_to_latent(small_sbm(30))), 0)
        assert graph.n == 90
        solves = []
        monkeypatch.setattr(experiments, "truncated_eigs", lambda *a, **kw: solves.append(a))
        # under d = "auto" every input is checked before the pilot solve too
        for d in (2, "auto"):
            with pytest.raises(DomainError):
                run_clustering_stability(graph, **{"d": d, "tolerances": (0.5, 0.25), **bad})
        assert solves == []

    @pytest.mark.parametrize("d", [2.0, "2", np.int64(2)])
    def test_whole_number_dimension_read_as_int(self, d):
        # as SweepConfig reads d: 2.0 and "2" raised a TypeError in the
        # first solve, and np.int64(2) reached the summary, which JSON
        # cannot write
        graph = sample_adjacency(FactoredProbabilityMatrix(sbm_to_latent(small_sbm(30))), 0)
        args = dict(tolerances=(0.5, 0.25), repetitions=1, k_range=(2, 3))
        records, summary = run_clustering_stability(graph, d, **args)
        assert summary["dimension"] == 2 and type(summary["dimension"]) is int
        assert nan_safe(records) == nan_safe(run_clustering_stability(graph, 2, **args)[0])

    def test_auto_dimension_is_the_pilots(self):
        # d = "auto" resolves through resolve_dimension from the study's seed
        graph = sample_adjacency(FactoredProbabilityMatrix(sbm_to_latent(small_sbm(100))), 3)
        args = dict(tolerances=(2.0**-3, 2.0**-6), seed=4, repetitions=2, k_range=(2, 3))
        d = resolve_dimension("auto", graph, 4)
        auto = run_clustering_stability(graph, "auto", **args)
        assert auto[1]["dimension"] == d
        assert nan_safe(auto[0]) == nan_safe(run_clustering_stability(graph, d, **args)[0])

    def test_each_distinct_embedding_clustered_once(self, monkeypatch):
        from spectol import FactoredProbabilityMatrix, sample_adjacency, sbm_to_latent
        from spectol import experiments, metrics
        from spectol.spectral_core import truncated_eigs

        graph = sample_adjacency(FactoredProbabilityMatrix(sbm_to_latent(small_sbm(100))), 3)
        tols = tuple(2.0**-k for k in range(1, 9))
        k_range = (2, 3, 4)
        reps = 3

        expected = fresh_stability_records(graph, 3, tols, 1e-6, 0, reps, k_range)
        distinct = 0
        for rep in range(reps):
            solver_ss, _ = np.random.SeedSequence(rep).spawn(2)
            prev = None
            for tol in tols:
                vectors = truncated_eigs(graph, 3, tol, seed=solver_ss).vectors
                distinct += prev is None or not np.array_equal(vectors, prev)
                prev = vectors
        assert distinct < reps * len(tols)

        # every silhouette pass over an embedding's pairwise distances goes
        # through metrics._silhouette_widths, whichever clusterings it scores
        calls = {"kmeans": 0, "_silhouette_widths": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            wrapper = counted(name, getattr(metrics, name))
            monkeypatch.setattr(metrics, name, wrapper)
            if hasattr(experiments, name):
                monkeypatch.setattr(experiments, name, wrapper)
        records, _ = run_clustering_stability(
            graph, 3, tols, seed=0, repetitions=reps, k_range=k_range
        )
        monkeypatch.undo()
        # choose_k_by_silhouette runs one k-means per candidate count but one
        # distance pass per repetition; each distinct embedding of the sweep
        # costs one k-means and one pass
        assert calls == {"kmeans": distinct + reps * len(k_range),
                         "_silhouette_widths": distinct + reps}

        assert nan_safe(records) == nan_safe(expected)
        threaded, _ = run_clustering_stability(
            graph, 3, tols, seed=0, repetitions=reps, k_range=k_range, workers=2
        )
        assert nan_safe(threaded) == nan_safe(records)

    def test_stability_csv_schema(self, tmp_path):
        from spectol import FactoredProbabilityMatrix, sample_adjacency, sbm_to_latent

        P = FactoredProbabilityMatrix(sbm_to_latent(small_sbm(80)))
        graph = sample_adjacency(P, 5)
        records, _ = run_clustering_stability(
            graph,
            3,
            tolerances=(2.0**-4, 2.0**-5),
            seed=0,
            repetitions=2,
            k_range=(2, 3, 4),
        )
        out = tmp_path / "stability.csv"
        write_records_csv(out, records)
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == STABILITY_HEADER
        assert len(rows) == 1 + 2 * 2
        assert_integer_columns(rows, STABILITY_HEADER, ("repetition", "k_chosen"))


class TestPilotDimension:
    # the three-block benchmark model, the two-block model CI embeds, and the
    # four-block n = 1,200 model; the elbow is the same at 1e-4, 1e-3, 1e-2
    # and 1e-1 on each
    @pytest.mark.parametrize(
        "sizes, p_in, p_out, seed, elbow",
        [
            ((300,) * 3, 0.05, 0.02, 0, 1),
            ((300,) * 3, 0.05, 0.02, 1, 1),
            ((300,) * 3, 0.05, 0.02, 2, 1),
            ((200,) * 2, 0.1, 0.02, 0, 2),
            ((200,) * 2, 0.1, 0.02, 1, 2),
            ((300,) * 4, 0.05, 0.02, 0, 1),
        ],
    )
    def test_loose_pilot_finds_the_tight_pilots_elbow(self, sizes, p_in, p_out, seed, elbow):
        spec = block_model(sizes, b_diag=p_in, b_off=p_out)
        A = sample_adjacency(FactoredProbabilityMatrix(sbm_to_latent(spec)), seed)
        tight = truncated_eigs(A, 20, 1e-4, seed=seed)
        tight_elbow = zhu_ghodsi_dimension(np.sort(np.abs(tight.values))[::-1])
        assert PILOT_TOL > 1e-4
        assert resolve_dimension("auto", A, seed) == tight_elbow == elbow


def k5_edge_list(path) -> None:
    lines = [f"{i} {j}" for i in range(5) for j in range(i + 1, 5)]
    path.write_text("\n".join(lines) + "\n")


class TestCli:
    def test_sample_writes_edge_list(self, tmp_path, capsys):
        out = tmp_path / "sampled.txt"
        code = cli_main(
            [
                "sample",
                "--sizes", "60,60",
                "--b-diag", "0.2",
                "--b-off", "0.05",
                "--seed", "1",
                "--out", str(out),
            ]
        )
        assert code == 0
        P = FactoredProbabilityMatrix(sbm_to_latent(block_model("60,60", b_diag=0.2, b_off=0.05)))
        assert_same_edges(ingest_edge_list(out), sample_adjacency(P, 1))
        assert "wrote" in capsys.readouterr().out

    def test_embed_complete_graph(self, tmp_path, capsys):
        graph_path = tmp_path / "k5.txt"
        k5_edge_list(graph_path)
        out = tmp_path / "embedding"
        code = cli_main(
            [
                "embed",
                "--graph", str(graph_path),
                "--dim", "3",
                "--tol", "1e-10",
                "--out", str(out),
            ]
        )
        assert code == 0
        values = [float(v) for v in (tmp_path / "embedding.values.csv").read_text().split()]
        assert len(values) == 3
        assert abs(values[0] - 4.0) <= 1e-8
        vectors = (tmp_path / "embedding.vectors.csv").read_text().splitlines()
        assert len(vectors) == 5
        assert len(vectors[0].split(",")) == 3
        assert "converged" in capsys.readouterr().out

    def test_embed_heuristic_needs_bigger_graph(self, tmp_path, capsys):
        graph_path = tmp_path / "k5.txt"
        k5_edge_list(graph_path)
        code = cli_main(
            ["embed", "--graph", str(graph_path), "--dim", "1",
             "--out", str(tmp_path / "e")]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("rule", HEURISTIC_RULES)
    def test_embed_small_graph_fails_before_any_solve(
        self, tmp_path, capsys, monkeypatch, rule
    ):
        graph_path = tmp_path / "k5.txt"
        k5_edge_list(graph_path)
        monkeypatch.setattr(SparseGraph, "matvec", lambda *a: pytest.fail("solved"))
        code = cli_main(
            ["embed", "--graph", str(graph_path), "--dim", "1",
             "--tol-heuristic", rule, "--out", str(tmp_path / "e")]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_embed_runs_one_restart_path(
        self, tmp_path, capsys, monkeypatch, three_block_900
    ):
        graph_path = tmp_path / "g.txt"
        write_edge_list(graph_path, sample_adjacency(three_block_900, seed=0))
        products = []
        matvec = SparseGraph.matvec
        monkeypatch.setattr(
            SparseGraph, "matvec", lambda A, x: products.append(1) or matvec(A, x)
        )
        dims = []
        solve = spectral_core.truncated_eigs
        spy = lambda A, d, tol, **kw: dims.append(d) or solve(A, d, tol, **kw)
        monkeypatch.setattr(spectral_core, "truncated_eigs", spy)
        monkeypatch.setattr(tolerance, "truncated_eigs", spy)
        code = cli_main(
            ["embed", "--graph", str(graph_path), "--dim", "3", "--out", str(tmp_path / "e")]
        )
        assert code == 0
        printed = int(re.search(r"matvecs=(\d+)", capsys.readouterr().out).group(1))
        # a conservative solve, then the heuristic resuming its path: no d = 1
        # bootstrap and no product the printed count leaves out
        assert dims == [3, 3]
        assert len(products) == printed

    @pytest.mark.parametrize(
        "command", ["embed", "sweep", "cluster-stability", "check"]
    )
    @pytest.mark.parametrize("dim", ["x", "0", "-1", "2.5"])
    def test_bad_dimension_is_usage_error(self, tmp_path, capsys, command, dim):
        graph_path = tmp_path / "k5.txt"
        k5_edge_list(graph_path)
        source = (
            ["--graph", str(graph_path)]
            if command != "check"
            else ["--sizes", "10,10", "--b-diag", "0.5"]
        )
        code = cli_main([command, *source, "--dim", dim, "--out", str(tmp_path / "e")])
        assert code == 2
        assert "argument --dim" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, flag",
        [("sweep", "--variant"), ("check", "--c0"), ("check", "--a")],
    )
    def test_removed_option_is_usage_error(self, tmp_path, capsys, command, flag):
        # the sweep's heuristic variant and check's thresholds are constants
        code = cli_main([command, "--sizes", "10,10", "--b-diag", "0.5", flag, "0.1",
                         "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("k_range", ["x", "", "1,2", "0,2", "2,,3", "2.5", "2;3"])
    def test_bad_k_range_is_usage_error(self, tmp_path, capsys, k_range):
        graph_path = tmp_path / "k5.txt"
        k5_edge_list(graph_path)
        code = cli_main(
            ["cluster-stability", "--graph", str(graph_path), "--dim", "1",
             "--k-range", k_range, "--out", str(tmp_path / "st.csv")]
        )
        assert code == 2
        assert "argument --k-range" in capsys.readouterr().err

    def test_sweep_below_heuristic_n_is_runtime_error(self, tmp_path, capsys):
        graph_path = tmp_path / "c12.txt"
        graph_path.write_text(twelve_cycle())
        code = cli_main(
            ["sweep", "--graph", str(graph_path), "--dim", "2", "--tolerances", "0.5,0.1",
             "--replicates", "2", "--out", str(tmp_path / "s.csv")]
        )
        assert code == 1
        assert capsys.readouterr().err == "error: heuristic defined for n >= 16, got 12\n"
        assert not (tmp_path / "s.csv").exists()

    def test_k_range_above_n_fails_before_any_solve(self, tmp_path, capsys, monkeypatch):
        from spectol import experiments

        graph_path = tmp_path / "k5.txt"
        k5_edge_list(graph_path)
        solves = []
        monkeypatch.setattr(experiments, "truncated_eigs", lambda *a, **kw: solves.append(a))
        code = cli_main(
            ["cluster-stability", "--graph", str(graph_path), "--dim", "1",
             "--k-range", "2, 6", "--out", str(tmp_path / "st.csv")]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error: cluster counts")
        assert solves == [] and not (tmp_path / "st.csv").exists()

    @pytest.mark.parametrize("command", ["embed", "sweep", "cluster-stability"])
    def test_non_utf8_graph_is_runtime_error(self, tmp_path, capsys, command):
        graph_path = tmp_path / "bad.txt"
        graph_path.write_bytes(b"0 1\n1 \xff2\n")
        code = cli_main(
            [command, "--graph", str(graph_path), "--dim", "1", "--out", str(tmp_path / "e")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["embed", "sweep", "cluster-stability"])
    def test_id_past_int64_is_runtime_error(self, tmp_path, capsys, command):
        graph_path = tmp_path / "big.txt"
        graph_path.write_text("99999999999999999999 1\n1 2\n")
        code = cli_main(
            [command, "--graph", str(graph_path), "--dim", "1", "--out", str(tmp_path / "e")]
        )
        assert code == 1
        assert capsys.readouterr().err == "error: line 1: vertex id at or above 2^63\n"

    @pytest.mark.parametrize(
        "command", ["sample", "embed", "sweep", "cluster-stability", "check"]
    )
    def test_negative_seed_is_usage_error(self, tmp_path, capsys, command):
        graph_path = tmp_path / "k5.txt"
        k5_edge_list(graph_path)
        source = (
            ["--sizes", "10,10", "--b-diag", "0.5"]
            if command in ("sample", "check")
            else ["--graph", str(graph_path), "--dim", "1"]
        )
        code = cli_main([command, *source, "--seed", "-1", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "argument --seed: expected an integer >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config",
        ["sizes = 10,10\nb_diag = 0.5\nseed = -1\n",
         '{"sizes": "10,10", "b_diag": 0.5, "seed": -1}'],
        ids=["key_value", "json"],
    )
    def test_negative_seed_in_config_is_runtime_error(self, tmp_path, capsys, config):
        path = tmp_path / "seed.cfg"
        path.write_text(config)
        assert cli_main(["sweep", "--config", str(path)]) == 1
        assert capsys.readouterr().err == "error: seed must be non-negative, got -1\n"

    def test_embed_missing_file(self, tmp_path, capsys):
        code = cli_main(
            ["embed", "--graph", str(tmp_path / "absent.txt"), "--dim", "1",
             "--tol", "1e-6", "--out", str(tmp_path / "e")]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_check_report_keys_and_heuristic(self, tmp_path):
        out = tmp_path / "report.json"
        code = cli_main(
            [
                "check",
                "--sizes", "300,300,300",
                "--b-diag", "0.05",
                "--b-off", "0.02",
                "--out", str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {
            "n",
            "m",
            "delta_A",
            "lambda1_hat",
            "gamma",
            "heuristic_spectral",
            "heuristic_sqrt_n",
            "conservative",
            "rank_check",
            "gamma_check",
            "delta_check",
        }
        assert payload["n"] == 900
        assert abs(payload["heuristic_sqrt_n"] - 0.01738) <= 1e-5
        assert abs(payload["heuristic_sqrt_n"] - heuristic_tolerance(900, 900)) <= 1e-15
        assert payload["rank_check"] is True
        assert payload["delta_check"] is False
        P = FactoredProbabilityMatrix(
            sbm_to_latent(block_model("300,300,300", b_diag=0.05, b_off=0.02))
        )
        assert payload["gamma"] == check_assumptions(P, 3).gamma

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--sizes", "50,50", "--b-diag", "0.3", "--b-off", "0.02", "--dim",
             "2", "--tolerances", "inf,0.5", "--replicates", "1"],
            ["cluster-stability", "--sizes", "50,50", "--b-diag", "0.3", "--b-off", "0.02",
             "--dim", "2", "--tolerances", "inf,0.5", "--repetitions", "1"],
            ["cluster-stability", "--sizes", "50,50", "--b-diag", "0.3", "--b-off", "0.02",
             "--dim", "2", "--tolerances", "2^-1..2^-2", "--reference-tol", "inf",
             "--repetitions", "1"],
            ["embed", "--graph", "TRIANGLE", "--dim", "1", "--tol", "1e309"],
            ["embed", "--graph", "TRIANGLE", "--dim", "auto", "--tol", "inf"],
        ],
        ids=["sweep", "cluster-stability", "reference-tol", "embed", "embed-auto"],
    )
    def test_infinite_tolerance_is_runtime_error(self, tmp_path, capsys, argv):
        # each exited 0: a sweep wrote a -inf row and a summary that was
        # not JSON, and embed printed "converged: d=1 tol=inf"; embed
        # also read the file, and under --dim auto ran the pilot, before
        # it checked the tolerance
        triangle = tmp_path / "tri.txt"
        triangle.write_text("0 1\n1 2\n2 0\n")
        out = tmp_path / "out.csv"
        argv = [str(triangle) if arg == "TRIANGLE" else arg for arg in argv]
        modules = {"ingest_edge_list": (cli, experiments),
                   "truncated_eigs": (cli, experiments, tolerance)}
        with contextlib.ExitStack() as stack:
            spies = [stack.enter_context(mock.patch.object(
                         module, name, wraps=getattr(module, name)))
                     for name, bound_in in modules.items() for module in bound_in]
            assert cli_main([*argv, "--out", str(out)]) == 1
        assert not any(spy.called for spy in spies)
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") and "positive" in err
        assert not list(tmp_path.glob("out*"))

    @pytest.mark.parametrize("command", ["sweep", "cluster-stability"])
    def test_empty_tolerances_is_runtime_error(self, tmp_path, capsys, command):
        out = tmp_path / "out.csv"
        code = cli_main(
            [command, "--sizes", "50,50", "--b-diag", "0.1", "--dim", "2",
             "--tolerances", "", "--out", str(out)]
        )
        assert code == 1
        assert capsys.readouterr().err == "error: cannot parse tolerance ''\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["sweep", "cluster-stability"])
    @pytest.mark.parametrize("tolerances", ["2^2000", "2^-1..2^-1075", "0.5,true"])
    def test_unusable_tolerances_are_runtime_errors(
        self, tmp_path, capsys, monkeypatch, command, tolerances
    ):
        # 2^2000 ended in an OverflowError traceback
        monkeypatch.setattr(experiments, "truncated_eigs", lambda *a, **k: pytest.fail())
        out = tmp_path / "out.csv"
        code = cli_main(
            [command, "--sizes", "50,50", "--b-diag", "0.1", "--dim", "auto",
             "--tolerances", tolerances, "--out", str(out)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags",
        [
            ["--tolerances", "0.25,0.5"],
            ["--reference-tol", "inf"],
            ["--repetitions", "0"],
            ["--k-range", "2,5000"],
        ],
        ids=["increasing", "reference-inf", "repetitions0", "k-above-n"],
    )
    def test_cluster_stability_checks_inputs_before_the_pilot(
        self, tmp_path, capsys, monkeypatch, flags
    ):
        # under the default --dim auto each sampled the graph and ran the
        # rank-20 pilot solve before it refused the value
        dims = []
        solve = experiments.truncated_eigs
        monkeypatch.setattr(experiments, "truncated_eigs",
                            lambda A, d, tol, **kw: dims.append(d) or solve(A, d, tol, **kw))
        out = tmp_path / "st.csv"
        code = cli_main(["cluster-stability", "--sizes", "50,50", "--b-diag", "0.3",
                         "--b-off", "0.02", *flags, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert dims == [] and not out.exists()

    def test_sweep_row_count_from_flags(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = cli_main(
            [
                "sweep",
                "--sizes", "80,80,80",
                "--b-diag", "0.06",
                "--b-off", "0.02",
                "--dim", "3",
                "--tolerances", "2^-1..2^-5",
                "--replicates", "3",
                "--out", str(out),
            ]
        )
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 3 * 5
        assert out.with_suffix(".summary.json").exists()

    def test_sweep_from_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "sizes = 50,50\nb_diag = 0.1\nb_off = 0.02\nd = 2\n"
            "tolerances = 2^-2..2^-4\nreplicates = 2\n"
        )
        assert cli_main(["sweep", "--config", str(cfg)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert len(summary["per_tolerance"]) == 3
        # the same keys as flags give the same bytes
        with open(cfg, "a") as fh:
            fh.write(f"output = {tmp_path / 'cfg.csv'}\n")
        assert cli_main(["sweep", "--config", str(cfg)]) == 0
        assert cli_main(
            ["sweep", "--sizes", "50,50", "--b-diag", "0.1", "--b-off", "0.02",
             "--dim", "2", "--tolerances", "2^-2..2^-4", "--replicates", "2",
             "--out", str(tmp_path / "flags.csv")]
        ) == 0
        for suffix in (".csv", ".summary.json"):
            assert (tmp_path / f"cfg{suffix}").read_bytes() == (
                tmp_path / f"flags{suffix}"
            ).read_bytes()

    def test_null_output_in_json_config_is_absent(self, tmp_path, capsys, monkeypatch):
        # JSON null leaves the key out, as it does for d: the summary goes
        # to stdout and no file named after null's string form is written
        keys = {"sizes": "50,50", "b_diag": 0.2, "b_off": 0.05, "d": 2,
                "tolerances": "2^-1..2^-2", "replicates": 1}
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({**keys, "output": None}))
        assert sweep_config_from_dict({**keys, "output": None}).output is None
        monkeypatch.chdir(tmp_path)
        assert cli_main(["sweep", "--config", str(cfg)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert len(summary["per_tolerance"]) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep.json"]

    def test_cluster_stability_smoke(self, tmp_path):
        out = tmp_path / "stability.csv"
        code = cli_main(
            [
                "cluster-stability",
                "--sizes", "100,100",
                "--b-diag", "0.1",
                "--b-off", "0.02",
                "--dim", "2",
                "--tolerances", "2^-4..2^-6",
                "--repetitions", "2",
                "--out", str(out),
            ]
        )
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 2 * 3
        # the loosest tolerance has no coarser one: its NaN ARI is written null
        per_tolerance = strict_json(summary_path(out))["per_tolerance"]
        assert per_tolerance[0]["mean_ari_vs_coarser"] is None
        assert all(row["mean_ari_vs_coarser"] is not None for row in per_tolerance[1:])

    def test_usage_error_exit_code(self, capsys):
        assert cli_main(["no-such-command"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "command, flags, config",
        [
            *[
                (command, flags, None)
                for command in ("sample", "sweep", "cluster-stability", "check")
                for flags in (
                    ["--sizes", "x", "--b-diag", "0.1"],
                    ["--sizes", "10,10", "--b", "0.1,x"],
                    ["--sizes", "10,10"],
                )
            ],
            *[
                ("sweep", None, config)
                for config in (
                    "sizes = x\nb_diag = 0.1\n",
                    "sizes = 10,10\nb = 0.1,x\n",
                    "sizes = 10,10\n",
                    "sizes = 10,10\nb_diag = 0.1\nreplicates = x\n",
                    # JSON numbers that int() would truncate or take
                    '{"sizes": "10,10", "b_diag": 0.1, "replicates": 2.7}',
                    '{"sizes": "10,10", "b_diag": 0.1, "d": 2.5}',
                    '{"sizes": "10,10", "b_diag": 0.1, "dim": 1.5}',
                    '{"sizes": "10,10", "b_diag": 0.1, "seed": 0.5}',
                    '{"sizes": "10,10", "b_diag": 0.1, "workers": true}',
                    '{"sizes": [10.5, 10], "b_diag": 0.1}',
                    # an overflowing 2^k, as a string and as a list item
                    '{"sizes": "10,10", "b_diag": 0.1, "tolerances": "2^2000"}',
                    '{"sizes": "10,10", "b_diag": 0.1, "tolerances": ["2^2000", 0.5]}',
                    "sizes = 10,10\nb_diag = 0.1\ntolerances = 2^-1..2^-1075\n",
                )
            ],
        ],
    )
    def test_bad_model_or_config_is_runtime_error(
        self, tmp_path, capsys, command, flags, config
    ):
        if config is not None:
            path = tmp_path / "bad.cfg"
            path.write_text(config)
            # no flag may sit beside --config, so it gets no --out
            flags = ["--config", str(path)]
        else:
            flags = [*flags, "--out", str(tmp_path / "o.csv")]
        code = cli_main([command, *flags])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "command, flags, message",
        [
            ("sweep", ["--graph", "GRAPH", "--sizes", "10,10"],
             "an edge list takes no block model keys, got sizes"),
            ("cluster-stability", ["--graph", "GRAPH", "--b-diag", "0.1"],
             "an edge list takes no block model keys, got b_diag"),
            ("sample", ["--sizes", "10,10", "--b", "0.1,0.02;0.02,0.1", "--b-diag", "0.9"],
             "a block model takes b or b_diag/b_off, not both"),
            ("check", ["--sizes", "10,10", "--b", "0.1,0.02;0.02,0.1", "--b-off", "0.02"],
             "a block model takes b or b_diag/b_off, not both"),
        ],
    )
    def test_contradictory_model_is_runtime_error(
        self, tmp_path, capsys, monkeypatch, command, flags, message
    ):
        # each ran a model other than the one named, and exited 0
        graph_path = tmp_path / "k5.txt"
        k5_edge_list(graph_path)
        flags = [str(graph_path) if flag == "GRAPH" else flag for flag in flags]
        monkeypatch.setattr(experiments, "truncated_eigs", lambda *a, **k: pytest.fail())
        out = tmp_path / "o.csv"
        assert cli_main([command, *flags, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_sweep_d_above_the_block_count_is_runtime_error(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = cli_main(["sweep", "--sizes", "300,300", "--b-diag", "0.05", "--b-off", "0.02",
                         "--dim", "3", "--tolerances", "2^-1..2^-4", "--replicates", "2",
                         "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "error: d=3 exceeds the rank of P, 2\n"
        assert not out.exists()

    @pytest.mark.parametrize("rule", HEURISTIC_RULES)
    def test_tol_beside_tol_heuristic_is_usage_error(self, tmp_path, capsys, rule):
        # the rule was silently dropped for --tol, also for the default rule
        graph_path = tmp_path / "k5.txt"
        k5_edge_list(graph_path)
        code = cli_main(["embed", "--graph", str(graph_path), "--dim", "2", "--tol",
                         "0.25", "--tol-heuristic", rule, "--out", str(tmp_path / "e")])
        assert code == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert not (tmp_path / "e.values.csv").exists()

    def test_missing_model_is_runtime_error(self, tmp_path, capsys):
        code = cli_main(["sample", "--out", str(tmp_path / "x.txt")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra, named",
        [
            (["--out", "x.csv", "--seed", "5"], "--out, --seed"),
            (["--seed", "0"], "--seed"),  # a flag at its default is still given
            (["--scaled", "--b-off", "0"], "--b-off, --scaled"),
        ],
    )
    def test_flag_beside_config_is_usage_error(
        self, tmp_path, capsys, monkeypatch, extra, named
    ):
        from spectol import experiments

        cfg = tmp_path / "s.cfg"
        cfg.write_text("sizes = 50,50\nb_diag = 0.1\nd = 2\nreplicates = 1\n")
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(experiments, "truncated_eigs", lambda *a, **k: pytest.fail())
        code = cli_main(["sweep", "--config", str(cfg), *extra])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1 and captured.err.startswith("error:")
        assert captured.err.rstrip().endswith(named)
        assert captured.out == "" and not (tmp_path / "x.csv").exists()


class TestOneBootstrap:
    """sweep, check and embed read lambda_1 off one d-dimensional solve."""

    def test_sweep_heuristic_is_embeds(self):
        config = SweepConfig(
            model=small_sbm(), d=3, tolerances=(0.5, 2.0**-4), replicates=3, seed=2
        )
        _, summary = run_tolerance_sweep(config)
        P = FactoredProbabilityMatrix(sbm_to_latent(config.model))
        embeds = []
        for r in range(config.replicates):
            graph_ss, solver_ss = np.random.SeedSequence(config.seed + r).spawn(2)
            A = sample_adjacency(P, graph_ss)
            dec = tolerance.solve_at_heuristic(A, 3, "spectral", seed=solver_ss)
            embeds.append(dec.tolerance_used)
        mean = summary["heuristic"]["mean_heuristic_spectral"]
        assert abs(mean - np.mean(embeds)) <= 1e-15 * mean
        assert summary["heuristic"]["recommended"] == mean

    @pytest.mark.parametrize("dim", [[], ["--dim", "2"]])
    def test_check_heuristic_is_embeds(self, tmp_path, dim):
        out = tmp_path / "report.json"
        args = ["--sizes", "100,100,100", "--b-diag", "0.06", "--b-off", "0.02", "--seed", "4"]
        assert cli_main(["check", *args, *dim, "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        graph = sample_adjacency(
            FactoredProbabilityMatrix(sbm_to_latent(block_model("100,100,100", b_diag=0.06, b_off=0.02))),
            4,
        )
        d = int(dim[1]) if dim else 3
        dec = tolerance.solve_at_heuristic(graph, d, "spectral", seed=4)
        assert payload["heuristic_spectral"] == dec.tolerance_used
        assert payload["lambda1_hat"] == abs(truncated_eigs(
            graph, d, payload["conservative"], seed=4
        ).values[0])

    def test_no_separate_norm_estimate(self, tmp_path, monkeypatch):
        import spectol

        def refuse(*args, **kwargs):
            raise AssertionError("a separate lambda_1 solve ran")

        monkeypatch.setattr(spectral_core, "estimate_spectral_norm", refuse)
        monkeypatch.setattr(spectol, "estimate_spectral_norm", refuse)
        sbm = ["--sizes", "60,60", "--b-diag", "0.2", "--b-off", "0.05"]
        assert cli_main(
            ["sweep", *sbm, "--dim", "2", "--tolerances", "2^-1..2^-3",
             "--replicates", "2", "--out", str(tmp_path / "s.csv")]
        ) == 0
        assert cli_main(["check", *sbm, "--out", str(tmp_path / "c.json")]) == 0
