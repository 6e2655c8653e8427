"""Exception types shared across the package."""


class SpectolError(Exception):
    """Base class for every package-specific error."""


class DimensionMismatch(SpectolError):
    """Array shapes are incompatible with the requested operation."""


class NotPositiveSemidefinite(SpectolError):
    """A block probability matrix has an eigenvalue below the clamp window."""


class DegenerateGraph(SpectolError):
    """The adjacency matrix is identically zero."""


class NoConvergence(SpectolError):
    """An iterative solve hit its restart budget before reaching tolerance."""

    def __init__(self, max_iters: int, message: str | None = None):
        self.max_iters = max_iters
        super().__init__(message or f"no convergence within {max_iters} restarts")


class NotSymmetric(SpectolError):
    """A dense matrix handed to the oracle is not symmetric."""


class TooLarge(SpectolError):
    """A dense operation was requested above its size guard."""


class EmptySpectrum(SpectolError):
    """A gap computation received an empty eigenvalue set."""


class DomainError(SpectolError):
    """An argument lies outside the domain of a tolerance formula."""


class EmptyGraph(SpectolError):
    """An edgeless graph where at least one edge is required."""


class RankDeficient(SpectolError):
    """A probability matrix has smaller numerical rank than requested."""


class ZeroRho(SpectolError):
    """The separation parameter must be strictly positive."""


class KTooLarge(SpectolError):
    """More clusters were requested than there are points."""


class SingleCluster(SpectolError):
    """Silhouette widths need at least two clusters."""


class EmptyRange(SpectolError):
    """A candidate cluster-count range is empty."""


class LengthMismatch(SpectolError):
    """Two label vectors differ in length."""


class TooFewValues(SpectolError):
    """A scree needs at least two values to place an elbow."""


class NotOrthonormal(SpectolError):
    """A matrix expected to have orthonormal columns does not."""


class ParseError(SpectolError):
    """A malformed line in an edge-list file."""

    def __init__(self, line_number: int, message: str):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {message}")
