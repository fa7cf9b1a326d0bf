"""Exception taxonomy shared across the package.

Every computational failure raised by this package derives from
:class:`DebyeScreenError`, so callers (notably the CLI) can separate
"the physics/numerics refused" from genuine bugs.
"""

__all__ = ["DebyeScreenError", "ConvergenceError", "IntegrandError", "SamplerMismatchError",
           "PoleDetectedError", "InfraredDivergenceError", "StripViolationError", "ScanError"]


class DebyeScreenError(Exception):
    """Base class for all package-level computational errors."""


class ConvergenceError(DebyeScreenError):
    """A series or quadrature failed to reach the requested tolerance.

    Carries the best available estimate so callers can decide whether
    to degrade gracefully.
    """

    def __init__(self, message, estimate=None, error_estimate=None):
        super().__init__(message)
        self.estimate = estimate
        self.error_estimate = error_estimate


class IntegrandError(DebyeScreenError):
    """An integrand returned NaN/inf; names the offending abscissa."""

    def __init__(self, message, abscissa=None):
        super().__init__(message)
        self.abscissa = abscissa


class SamplerMismatchError(DebyeScreenError):
    """Importance sampler produced a zero/negative density under the integrand's support."""


class PoleDetectedError(DebyeScreenError):
    """Effective propagator denominator crossed zero; reports the momentum."""

    def __init__(self, message, p_tilde=None):
        super().__init__(message)
        self.p_tilde = p_tilde


class InfraredDivergenceError(DebyeScreenError):
    """A requested vacuum-channel integral is infrared divergent as posed."""


class StripViolationError(DebyeScreenError):
    """Imaginary-time offset outside the analyticity strip (0, beta)."""


class ScanError(DebyeScreenError):
    """A kernel scan aborted; carries the partial scan for diagnosis."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial
