"""Exception types shared across the package.

Two families: precondition violations (bad input; CLI exit code 2) and
numerical failures (well-posed input, but the requested object does not
exist or the computation cannot proceed; CLI exit code 3).  A curve the
package computes that misses the unit-Wronskian gate is a numerical
failure; caller samples that miss it raise a bare ValueError.
"""


class PreconditionError(Exception):
    """Input violates a documented precondition."""


class NumericalFailure(Exception):
    """The computation is well posed but fails numerically."""


class NonMonotone(PreconditionError):
    """Angle function violates phi' > 0 somewhere on the grid."""


class ZeroParam(PreconditionError):
    """Transformation parameter must be nonzero."""


class NegativeProjective(PreconditionError):
    """Projective transformation parameter must be positive."""


class Degenerate(PreconditionError):
    """Construction requires two distinct curve points or parameters."""


class Resonant(NumericalFailure):
    """Periodic linear solve rejected: homogeneous multiplier within tolerance of 1."""


class NoRealFixedPoints(NumericalFailure):
    """Monodromy is elliptic or parabolic; no real periodic branch exists."""


class BranchSingular(NumericalFailure):
    """Requested branch is only partially defined (linearizing solution vanishes)."""


class StepUnstable(NumericalFailure):
    """Time step rejected: solution norm doubled within one step, or a period map overflowed."""


class OffUnity(NumericalFailure):
    """Constructed curve misses the unit-Wronskian gate [Gamma, Gamma'] = 1."""


class MatchFailure(NumericalFailure):
    """The labelled branch misses the predicted meeting point beyond tolerance."""


def documented(exc: BaseException) -> bool:
    """Whether exc is a failure mode the package documents: a precondition
    or a numerical failure.  Anything else, a ValueError of an argument
    check included, is the caller's error or a defect of the program."""
    return isinstance(exc, (PreconditionError, NumericalFailure))
