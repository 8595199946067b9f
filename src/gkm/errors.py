"""Exception hierarchy shared across the package."""


class GKMError(Exception):
    """Base class for all package-specific errors."""


class InvalidParameters(GKMError, ValueError):
    """Parameter constraints (|a_i| < 1, |rho_i| < 1, c > 0, ...) violated."""


class DegenerateParameters(GKMError, ValueError):
    """Closed partial-fraction form refused: parameters too close to coincident."""


class DomainError(GKMError, ValueError):
    """Evaluation point outside the support of the density / polynomial."""


class Unsupported(GKMError, ValueError):
    """No closed form available at this order; use the numeric fallback."""


class InternalInconsistency(GKMError, ArithmeticError):
    """A cancellation that must hold analytically failed numerically."""


class NonConvergence(GKMError, ArithmeticError):
    """Quadrature evaluation budget exhausted before reaching tolerance."""


class EstimatorDisagreement(GKMError, ArithmeticError):
    """Two independent estimates of one quantity differ beyond their error
    bars.  The package raises none: the oracle reports grids that never
    agree as NonConvergence."""
