"""Exception types shared across the package."""


class PerpetuaError(Exception):
    """Base class for all package-specific errors."""


class LawValidationError(PerpetuaError):
    """A law or joint law was constructed with invalid parameters."""


class PreconditionError(PerpetuaError):
    """An operation was called outside its stated domain of validity."""


class NonConvergentError(PerpetuaError):
    """Sampling was requested for a perpetuity that does not converge."""


class DrawError(PerpetuaError):
    """One draw of a batch failed; the message names the draw's stream id."""

    def __init__(self, stream_id: int, exc: Exception):
        super().__init__(f"sample with stream id {stream_id} failed: {exc}")
