"""Exception types shared across the package."""


class InvalidMonomialError(ValueError):
    """A ladder operator references a mode out of range."""


class InvalidOrderError(ValueError):
    """The requested reduced-density-matrix order k is outside 1..N."""


class SymmetryViolationError(ValueError):
    """An operator expected to conserve particle number has off-sector matrix elements."""


class NormalizationError(ValueError):
    """An operator (or transformed operator) does not fit under the requested normalization."""


class ContractError(RuntimeError):
    """A recentred expectation breaks the phase oracle's contract |<A_j>| <= 2^-q."""
