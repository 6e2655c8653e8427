"""Shared fixtures plus the acceptance-criteria report printed after a run."""
from __future__ import annotations

import dataclasses
import time
from types import SimpleNamespace

import numpy as np
import pytest

from spectol import FactoredProbabilityMatrix, SbmSpec, sbm_to_latent
from spectol.experiments import SweepConfig, run_tolerance_sweep

EXPECTED_CRITERIA = list(range(1, 11))

# criterion number -> (name, passed, detail); filled by tests/test_acceptance.py
_acceptance_results: dict[int, tuple[str, bool, str]] = {}
_acceptance_ran = False


def record_criterion(number: int, name: str, passed: bool, detail: str) -> None:
    global _acceptance_ran
    _acceptance_ran = True
    _acceptance_results[number] = (name, passed, detail)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_ran:
        return
    tr = terminalreporter
    tr.section("acceptance criteria")
    for number in EXPECTED_CRITERIA:
        if number in _acceptance_results:
            name, passed, detail = _acceptance_results[number]
            verdict = "PASS" if passed else "FAIL"
            tr.write_line(f"criterion {number:2d} ({name}): {verdict} - {detail}")
        else:
            tr.write_line(f"criterion {number:2d}: FAIL - no result recorded (test errored or skipped)")


def assert_same_result(got, want) -> None:
    """Field-for-field equality of two solver results, arrays bit for bit."""
    for f in dataclasses.fields(want):
        if not f.compare:
            continue
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert np.array_equal(a, b), f.name
        else:
            assert a == b, f.name


def three_block_spec() -> SbmSpec:
    B = np.full((3, 3), 0.02)
    np.fill_diagonal(B, 0.05)
    return SbmSpec(B, (300, 300, 300))


@pytest.fixture(scope="session")
def three_block_900() -> FactoredProbabilityMatrix:
    """The n=900 three-block benchmark model used throughout."""
    return FactoredProbabilityMatrix(sbm_to_latent(three_block_spec()))


@pytest.fixture(scope="session")
def benchmark_sweep(tmp_path_factory):
    """The n=900 sweep (20 replicates, tolerances 2^-1..2^-20), run three
    times with one config: twice serially and once on two worker threads.

    Shared between the harness tests (row counts, round trips, byte
    determinism) and the acceptance module so the expensive runs happen once.
    """
    base = tmp_path_factory.mktemp("benchmark_sweep")
    runs = []
    for name, workers in (("serial_a", 1), ("serial_b", 1), ("threaded", 2)):
        out = base / f"{name}.csv"
        config = SweepConfig(
            model=three_block_spec(),
            d=3,
            replicates=20,
            seed=0,
            workers=workers,
            output=str(out),
        )
        t0 = time.perf_counter()
        records, summary = run_tolerance_sweep(config)
        elapsed = time.perf_counter() - t0
        runs.append(
            SimpleNamespace(path=out, records=records, summary=summary, elapsed=elapsed)
        )
    return SimpleNamespace(
        serial_a=runs[0], serial_b=runs[1], threaded=runs[2], replicates=20
    )
