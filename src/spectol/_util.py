"""Small shared helpers."""
from __future__ import annotations

import numpy as np

from .errors import DomainError


def check_seed(seed) -> None:
    """Raise DomainError for a negative integer seed, which numpy refuses."""
    if isinstance(seed, (int, np.integer)) and seed < 0:
        raise DomainError(f"seed must be non-negative, got {seed}")


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


# rows formatted per call: bounds the temporary tuple of Python numbers
_ROWS_PER_WRITE = 1 << 16


def write_rows(fh, template: str, rows) -> None:
    """Write each row of ``rows`` through the %-format ``template``.

    One format call per block of rows: the same bytes as formatting every
    value on its own, with no Python step per value.
    """
    rows = np.asarray(rows)
    for start in range(0, len(rows), _ROWS_PER_WRITE):
        block = rows[start : start + _ROWS_PER_WRITE]
        fh.write(template * len(block) % tuple(block.ravel().tolist()))
