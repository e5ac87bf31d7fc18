"""Error types shared across the package.

Every refusal is typed so the command line can map it to a stable exit
code: bad input (2), precision or budget refusal (3), failed verification
in check mode (4).
"""


class ThetaError(Exception):
    """Base class for all package-specific failures."""


class DomainError(ThetaError, ValueError):
    """Malformed or out-of-range input: bad rational, empty window, ..."""


class InsufficientPrecisionError(ThetaError):
    """A fixed-point time does not carry enough bits for the requested use."""


class PrecisionExhaustedError(ThetaError):
    """A digit or quotient source ran out before the target precision."""


class BudgetError(ThetaError):
    """Refused: the request exceeds a configured size budget."""


class HypothesisError(ThetaError):
    """stability_ratio's two times are not certified closer than k_bound/N^2."""


class VerificationError(ThetaError):
    """A check-mode invariant did not hold."""
