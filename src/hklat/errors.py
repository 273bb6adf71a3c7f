"""Exception types for contract violations.

Every precondition failure raises a subclass of LatticeError carrying a
human-readable message; internal invariant breakage raises AssertionError
(a bug, never a user error).
"""


class LatticeError(Exception):
    pass


class DimensionMismatch(LatticeError):
    pass


class DegenerateGram(LatticeError):
    pass


class NotAnIsometry(LatticeError):
    pass


class NotIntegral(LatticeError):
    pass


class IsotropicVector(LatticeError):
    pass


class NormMismatch(LatticeError):
    pass


class DivisibilityMismatch(LatticeError):
    pass


class NoHyperbolicPlanes(LatticeError):
    pass


class NonPrimitiveLambda(LatticeError):
    pass


class IsotropicLambda(LatticeError):
    pass


class OrientationReversing(LatticeError):
    pass


class NotGraded(LatticeError):
    pass


class EvenDimensionalGuard(LatticeError):
    pass


class NotDecomposable(LatticeError):
    pass


class ScalarInconsistency(LatticeError):
    pass


class NotConjugating(LatticeError):
    pass


class SolveFailure(LatticeError):
    pass


class BadNorm(LatticeError):
    pass


class BadDivisibility(LatticeError):
    pass


class BadMonodromy(LatticeError):
    pass


class SearchExhausted(LatticeError):
    """A bounded deterministic search ran out of budget; certified failure."""
    pass
