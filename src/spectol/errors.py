"""Exception types shared across the package."""


class SpectolError(Exception):
    """Base class for every package-specific error."""


class DimensionMismatch(SpectolError):
    """Array shapes are incompatible with the requested operation."""


class DomainError(SpectolError):
    """An argument lies outside the domain of the operation it is passed to:
    a tolerance formula, an edgeless or rank-deficient model, a dense
    operation above its size guard, or a clustering with too few points,
    clusters or candidate counts."""


class NoConvergence(SpectolError):
    """An iterative solve hit its restart budget before reaching tolerance."""

    def __init__(self, max_iters: int):
        self.max_iters = max_iters
        super().__init__(f"no convergence within {max_iters} restarts")


class ParseError(SpectolError):
    """A malformed line in an edge-list file."""

    def __init__(self, line_number: int, message: str):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {message}")
