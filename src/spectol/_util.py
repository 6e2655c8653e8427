"""Small shared helpers."""
from __future__ import annotations

import json

import numpy as np

from .errors import DimensionMismatch, DomainError


def check_seed(seed) -> None:
    """Raise DomainError for a negative integer seed, which numpy refuses."""
    if isinstance(seed, (int, np.integer)) and seed < 0:
        raise DomainError(f"seed must be non-negative, got {seed}")


def check_dimension(A, d) -> None:
    # a bool passes 1 <= d < n, and a float d would fail only where it slices a basis
    if isinstance(d, bool) or not isinstance(d, (int, np.integer)) or not 1 <= d < A.n:
        raise DimensionMismatch(f"need an integer 1 <= d < n, got d={d!r} with n={A.n}")


def order_by_magnitude(values: np.ndarray) -> np.ndarray:
    """Indices sorting ``values`` by decreasing absolute value.

    Ties in magnitude put the positive value first; remaining ties keep the
    original index order.  Magnitudes within a relative 1e-12 count as tied,
    so a +/- pair that differs only by rounding noise resolves to the
    positive member instead of whichever noise made look bigger.
    """
    values = np.asarray(values, dtype=float)
    n = values.size
    magnitudes = np.abs(values)
    boosted = magnitudes * (1.0 + 1e-12 * (values > 0))
    # lexsort uses the last key as primary
    return np.lexsort((np.arange(n), -np.sign(values), -boosted))


def json_text(document) -> str:
    """``document`` as JSON indented by two, with a final newline.  JSON has
    no NaN or Infinity token, so every non-finite float is written null."""
    finite = json.loads(json.dumps(document), parse_constant=lambda _: None)
    return json.dumps(finite, indent=2) + "\n"


# rows formatted per call: bounds the temporary tuple of Python numbers
_ROWS_PER_WRITE = 1 << 16


def write_rows(path, template: str, rows, header: str = "") -> None:
    """Write ``header``, then each row of ``rows`` through the %-format
    ``template``, to ``path``: every table and JSON file spectol writes (a
    JSON file is a header with no rows), in UTF-8 with LF line ends on
    every platform (``newline=""``).  One format call per block of rows
    gives the same bytes as formatting each value on its own, with no
    Python step per value."""
    rows = np.asarray(rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header)
        for start in range(0, len(rows), _ROWS_PER_WRITE):
            block = rows[start : start + _ROWS_PER_WRITE]
            fh.write(template * len(block) % tuple(block.ravel().tolist()))
