"""Exception hierarchy shared across the package."""


class KapteynError(Exception):
    """Base class for all errors raised by this package."""


class OrderTooLarge(KapteynError):
    """Requested Bessel order exceeds the configured hard cap."""


class NonFinite(KapteynError):
    """An argument or a computed result that must be finite is NaN or infinite."""


class SeriesError(KapteynError):
    """Base class for series-evaluation failures."""


class DivergentDomain(SeriesError):
    """C is at or below the Kapteyn convergence boundary g(eps)."""


class OutOfRange(SeriesError):
    """Argument outside the supported interval."""


class MaxTermsExceeded(SeriesError):
    """Requested tolerance not reached within the term cap."""


class NoBracket(KapteynError):
    """Root bracketing failed; the sign change that theory guarantees is absent."""


class NoConvergence(KapteynError):
    """Iteration cap exceeded in a root-finding loop."""


class DegenerateF1(KapteynError):
    """|F1| fell below the safe-division floor (cannot occur at an interior root)."""


class BranchViolation(KapteynError):
    """Complex branch selection produced an inconsistent reconstruction."""
