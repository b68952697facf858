"""Exception types shared across the package.

Two families: precondition violations (bad input; CLI exit code 2) and
numerical failures (well-posed input, but the requested object does not
exist or the computation cannot proceed; CLI exit code 3).
"""

import linecache
from pathlib import Path

_PACKAGE_DIR = Path(__file__).resolve().parent


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


class DegeneratePoints(PreconditionError):
    """Cross-ratio stencil contains coincident points or a zero offset."""


class Resonant(NumericalFailure):
    """Periodic linear solve rejected: homogeneous multiplier within tolerance of 1."""


class NoRealFixedPoints(NumericalFailure):
    """Monodromy is elliptic or parabolic; no real periodic branch exists."""


class BranchSingular(NumericalFailure):
    """Requested branch is only partially defined (linearizing solution vanishes)."""


class StepUnstable(NumericalFailure):
    """Time step rejected: solution norm doubled within one step."""


class OffUnity(NumericalFailure):
    """Constructed curve misses the unit-Wronskian gate [Gamma, Gamma'] = 1."""


class MatchFailure(NumericalFailure):
    """The labelled branch misses the predicted meeting point beyond tolerance."""


def documented(exc: BaseException) -> bool:
    """Whether exc is a failure mode the package documents.

    Those are precondition and numerical failures, and a bare ValueError
    raised by a ``raise`` statement of the package itself: its construction
    gates (such as the unit-Wronskian gate of a plane curve) and input
    checks.  numpy's ValueErrors have no such frame, even when package
    arithmetic triggers them.
    """
    if isinstance(exc, (PreconditionError, NumericalFailure)):
        return True
    if type(exc) is not ValueError or exc.__traceback__ is None:
        return False
    tb = exc.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    filename = tb.tb_frame.f_code.co_filename
    in_package = Path(filename).resolve().parent == _PACKAGE_DIR
    return in_package and linecache.getline(filename, tb.tb_lineno).lstrip().startswith("raise ")
