"""Exception types shared across the package."""


class SphCodesError(Exception):
    """Base class for all domain errors."""


class DimensionMismatch(SphCodesError):
    pass


class DegenerateCode(SphCodesError):
    """A code is too small (or collapsed) for the requested operation."""


class PointOnAxis(SphCodesError):
    """A point lies on the projection axis, so its projection vanishes."""


class CollapseError(SphCodesError):
    """An operation would map all points to a single point."""


class DegenerateAnchor(SphCodesError):
    """The anchor point lies on the boundary where cones degenerate."""


class LambdaOutOfRange(SphCodesError):
    """The scaling parameter required by a composite pipeline is not in [0, 1]."""


class SearchBudgetExhausted(SphCodesError):
    """A randomized search ran out of trials without finding a witness."""


class BudgetExceeded(SphCodesError):
    """An enumeration visited more nodes than its budget allows."""


class InputFormatError(SphCodesError):
    """A text input file is malformed; carries a 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class CertificateError(SphCodesError):
    """A computed code misses the minimum angle its construction guarantees."""
