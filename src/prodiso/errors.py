"""Exception types shared across the library."""


class ProdisoError(Exception):
    """Base class for all library errors."""


class DomainError(ProdisoError):
    """Argument outside the mathematically valid range."""


class NonDifferentiablePoint(ProdisoError):
    """Second derivative of the log-density requested at a kink."""


class NoConvergence(ProdisoError):
    """Iterative procedure exceeded its budget without meeting tolerance."""


class GridTooNarrow(ProdisoError):
    """The period of a sum's spectrum is too short to hold the sum."""


class SignedWeight(ProdisoError):
    """A weight that must be nonnegative changes sign on the grid."""


class NonConvexPotential(ProdisoError):
    """Potential fails the strict convexity hypothesis."""


class OutOfBudget(ProdisoError):
    """Requested problem size exceeds the configured desk-scale budget."""


class DimensionMismatch(ProdisoError):
    """Vector/measure-list dimensions disagree."""


class HypothesisViolated(ProdisoError):
    """Input measure violates a theorem hypothesis required by the routine."""


class NotLogConcave(ProdisoError):
    """Operation is only justified for log-concave measures."""


class InfeasibleBasis(ProdisoError):
    """Bump basis cannot satisfy the strict design inequalities."""


class NonEvenBump(ProdisoError):
    """Perturbation bump must be an even function."""
