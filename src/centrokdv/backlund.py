"""Parameter-dependent transformations of unit-Wronskian curves.

Two pictures of the same map are implemented.  In the plane picture a
periodic solution of a quadratic first-order relation combines a curve
with its derivative into a new unit-Wronskian curve; in the projective
picture each point slides along the circle to a fixed point of a scaled
Moebius period map.  The two commute with each other in the Bianchi
sense, and the double transformation is an explicit conjugating matrix
applied to a single one at every point (superpose); both facts are
exposed here as checkable operations.
"""

from dataclasses import dataclass

import numpy as np

from . import periodic_fn as pf
from .curve_core import (
    CentroAffineCurve,
    ProjectiveCurve,
    _from_angles,
    _gated,
    curvature,
    projective_distance,
    wrap_half_pi,
)
from .errors import (
    BranchSingular,
    Degenerate,
    MatchFailure,
    NegativeProjective,
    NonMonotone,
    OffUnity,
    ZeroParam,
)
from .riccati_monodromy import (
    DEFAULT_SUBSTEPS,
    MEET_TOL,
    RiccatiBranch,
    _check_branch,
    _dominant_solution,
    _fixing_matrix,
    _reflect,
    conjugator,
    conjugator_affine,
    moebius_apply_angle,
    moebius_monodromy,
    riccati_branch,
)

# largest gap permutability_square allows between a second leg's start and its prediction
MATCH_TOL = 1e-5


@dataclass(frozen=True)
class BacklundParam:
    """The transformation constant in both guises: plane c and flow scale 1/c^2."""

    c_aff: float
    c_pr: float


def param_convert(value: float, kind: str) -> BacklundParam:
    """Build the parameter pair from either picture's constant.

    kind "affine" takes the plane constant c, nonzero with a finite nonzero
    1/c^2; kind "projective" takes the flow scale 1/c^2, which must be
    positive.  The affine constant from a projective input is the positive root.
    """
    value = float(value)
    if not np.isfinite(value):
        raise ValueError(f"{kind} parameter must be finite, got {value!r}")
    if kind == "affine":
        if value == 0.0:
            raise ZeroParam("affine parameter must be nonzero")
        try:
            c_pr = 1.0 / value**2
        except (OverflowError, ZeroDivisionError):  # c^2 overflows, or underflows to 0
            c_pr = np.inf
        if not 0.0 < c_pr < np.inf:
            raise ValueError(f"affine parameter {value!r} has no finite nonzero partner 1/c^2")
        return BacklundParam(c_aff=value, c_pr=c_pr)
    if kind == "projective":
        if value == 0.0:
            raise ZeroParam("projective parameter must be nonzero")
        if value < 0.0:
            raise NegativeProjective(f"projective parameter {value!r} < 0")
        return BacklundParam(c_aff=1.0 / np.sqrt(value), c_pr=value)
    raise ValueError(f"unknown parameter kind {kind!r}")


@dataclass(frozen=True)
class BacklundResult:
    """Transformed plane curve plus everything the construction produced."""

    image: CentroAffineCurve
    riccati: RiccatiBranch
    image_curvature: pf.PeriodicFn
    param: BacklundParam


def plane_map(Gamma: CentroAffineCurve, potential: pf.PeriodicFn, w: pf.PeriodicFn, c_aff: float):
    """Ungated build step: components w Gamma_i + c Gamma_i' and image potential p + 2 w'/c."""
    g1 = w * Gamma.gamma1 + c_aff * pf.differentiate(Gamma.gamma1)
    g2 = w * Gamma.gamma2 + c_aff * pf.differentiate(Gamma.gamma2)
    return g1, g2, potential + (2.0 / c_aff) * pf.differentiate(w)


def apply_tc(Gamma: CentroAffineCurve, c_aff: float, branch: str = "minus") -> BacklundResult:
    """Plane transformation Delta = w Gamma + c Gamma' for one branch.

    w is the periodic Riccati solution of the chosen branch; it makes
    [Gamma, Delta] = c and keeps [Delta, Delta'] = 1, and the image Hill
    potential is p + 2 w'/c.  Applying the opposite branch to the image
    returns -Gamma.  An image off unit Wronskian raises OffUnity.  w is
    riccati_branch's, shot with the module's step rule and Newton-polished.
    """
    param = param_convert(c_aff, "affine")
    pot = curvature(Gamma)
    sol = riccati_branch(pot, c_aff, branch)
    g1, g2, image_curvature = plane_map(Gamma, pot, sol.solution, c_aff)
    return BacklundResult(_gated(g1, g2, OffUnity, "image"), sol, image_curvature, param)


def _reflect_curve(gamma: ProjectiveCurve) -> ProjectiveCurve:
    """The curve with angle pi - phi(pi - t), i.e. psi(t) -> -psi(pi - t); an involution."""
    return ProjectiveCurve(pf.PeriodicFn(-_reflect(gamma.psi.samples), "periodic"))


def _shots(gamma: ProjectiveCurve, c_prs: tuple, branch: str, substeps: int) -> list:
    """apply_tc_projective's images of one curve for each constant in c_prs, one shot for all.

    The plus branch: chi(t) is the direction of F(t) v, F the fundamental
    matrix at the grid points and v its dominant fixed direction; the
    closure bound counts the shot's substeps * n RK4 steps.  The minus
    branch is the plus image of the reflected curve, reflected back.  All
    constants are one moebius_monodromy call at lambda = c_prs, one step
    c_pr h each over one field, and each image reads its own trajectory, so
    it is bit for bit the image of its constant's shot alone; a map beyond
    double range raises StepUnstable naming the first such constant.
    """
    base = gamma if branch == "plus" else _reflect_curve(gamma)
    _, trajectories = moebius_monodromy(base, np.asarray(c_prs), substeps, keep_trajectory=True)
    images = []
    for traj in trajectories:
        _, w = _dominant_solution(traj)
        try:
            image = _from_angles(np.arctan2(w[:, 0], w[:, 1]), substeps * gamma.n)
        except NonMonotone as exc:
            raise BranchSingular(f"image angle: {exc}") from exc
        images.append(image if branch == "plus" else _reflect_curve(image))
    return images


def apply_tc_projective(
    gamma: ProjectiveCurve,
    c_pr: float,
    branch: str = "minus",
    substeps: int = DEFAULT_SUBSTEPS,
) -> ProjectiveCurve:
    """Projective picture of the plane map, entirely in the angle chart.

    The image angle solves chi' = c_pr sin^2(chi - phi) / phi', started at
    the fixed point of the scaled Moebius period map chosen by branch
    label.  As in the plane picture, each branch is computed where it
    dominates: the plus branch forward along the homogeneous form
    (_shots), which closes without cancellation, and the minus branch,
    which repels forward, as R(plus image of R(gamma)), with R the
    involution psi(t) -> -psi(pi - t) that leaves the angle equation
    invariant.  An image that does not advance by exactly pi over one
    period, or whose angle stalls (it meets gamma), raises BranchSingular.
    """
    param_convert(c_pr, "projective")
    _check_branch(branch)  # a bad label fails before the integration
    return _shots(gamma, (c_pr,), branch, substeps)[0]


def pushforward_tangent(
    Gamma: CentroAffineCurve,
    c_aff: float,
    branch: str,
    f: pf.PeriodicFn,
    riccati: RiccatiBranch | None = None,
) -> pf.PeriodicFn:
    """Image profile of a tangent deformation under the plane map.

    The profile f at Gamma maps to the unique periodic solution g of
    g' - (2w/c) g = -f' - (2w/c) f.  On a hyperbolic branch the
    homogeneous multiplier is 1/mu^2 != 1, so the solve never resonates;
    it is the branch's own O(n log n) Floquet solve
    (RiccatiBranch.solve_linear).  Pass riccati to reuse an already
    computed branch; it must carry the same label and constant, else
    ValueError.  Otherwise the branch named by the label is computed alone
    (riccati_branch, shot with its step rule).  A bad label fails before any
    integration or solve.
    """
    _check_branch(branch)
    if riccati is None:
        riccati = riccati_branch(curvature(Gamma), c_aff, branch)
    elif (riccati.branch, riccati.c_aff) != (branch, c_aff):
        raise ValueError(
            f"riccati is branch {riccati.branch!r} at c = {riccati.c_aff!r}, not {branch!r} at {c_aff!r}"
        )
    kappa = (2.0 / c_aff) * riccati.solution
    return riccati.solve_linear(-pf.differentiate(f) - kappa * f)


def moebius_conjugacy_residual(gamma: ProjectiveCurve, delta: ProjectiveCurve, c_pr: float, lam: float) -> float:
    """How far the two period maps are from being conjugate at weight mu.

    For delta a transform of gamma with constant c_pr, the matrix A fixing
    gamma(0) and scaling delta(0) by mu = 1 - lam/c_pr should intertwine
    the lam-scaled period maps (DEFAULT_SUBSTEPS): M_delta A = A M_gamma.
    Returns the relative Frobenius mismatch of the two products.
    """
    mu = 1.0 - lam / c_pr
    a = conjugator(gamma, delta, mu, 0.0)
    m_g = moebius_monodromy(gamma, lam).m
    m_d = moebius_monodromy(delta, lam).m
    lhs = m_d @ a
    rhs = a @ m_g
    return float(np.linalg.norm(lhs - rhs) / max(np.linalg.norm(rhs), 1e-300))


def matching_identity_residual(base, first, second, mu) -> float:
    """Point-level identity behind the Bianchi square's meeting corner.

    For affine points (base, first, second) and the weight nu = mu/(mu - 1),
    so that 1/mu + 1/nu = 1, the matrix fixing base and scaling second by
    mu sends first to the same point as the matrix fixing base and scaling
    first by nu sends second.  Returns the normalized cross product of the
    two homogeneous results, zero when the identity holds.
    """
    nu = mu / (mu - 1.0)
    va = conjugator_affine(base, second, mu) @ np.array([first, 1.0])
    vb = conjugator_affine(base, first, nu) @ np.array([second, 1.0])
    cross = va[0] * vb[1] - va[1] * vb[0]
    return float(abs(cross) / (np.hypot(va[0], va[1]) * np.hypot(vb[0], vb[1])))


def _square_weight(c1_pr: float, c2_pr: float) -> float:
    """The weight mu = 1 - c1/c2 of a square over two projective constants; equal ones raise Degenerate."""
    param_convert(c1_pr, "projective")
    param_convert(c2_pr, "projective")
    if c1_pr == c2_pr:
        raise Degenerate("equal constants: weight mu = 0 collapses the square")
    return 1.0 - c1_pr / c2_pr


def superpose(
    gamma: ProjectiveCurve, gamma1: ProjectiveCurve, gamma2: ProjectiveCurve, c1_pr: float, c2_pr: float
) -> ProjectiveCurve:
    """The Bianchi square's fourth corner from its base and two first legs, with no shot.

    gamma1 and gamma2 are transforms of gamma with constants c1_pr and
    c2_pr.  The cross-ratio correspondence is 3D-consistent (Adler, Bobenko
    and Suris 2003; Nijhoff and Capel 1995), and on the continuous square
    this puts the double transform at A(t) gamma1(t), with A(t) the
    conjugator that fixes gamma(t) and scales gamma2(t) by mu = 1 - c1/c2,
    at every t.  It is built at the n + 1 grid points at once and closed
    by the angle builder with the roundoff bound of n points.  By the
    matching identity (matching_identity_residual) the corner is the same
    with the legs swapped and weight nu = 1 - c2/c1.  Curves on different
    grids raise ValueError; equal constants, or points of gamma and gamma2
    that meet, raise Degenerate, as conjugator does.
    """
    mu = _square_weight(c1_pr, c2_pr)
    if not gamma.n == gamma1.n == gamma2.n:
        raise ValueError(f"the corners lie on grids of {gamma.n}, {gamma1.n} and {gamma2.n} points")
    t = pf.grid(gamma.n)
    phi, phi1, phi2 = (t + curve.psi.samples for curve in (gamma, gamma1, gamma2))
    meet = np.abs(np.sin(phi - phi2)) < MEET_TOL
    if meet.any():
        raise Degenerate(f"curves meet at t = {float(t[np.argmax(meet)])!r}: no conjugator")
    fix = _fixing_matrix((np.sin(phi), np.cos(phi)), (np.sin(phi2), np.cos(phi2)), mu)
    theta = moebius_apply_angle(fix, phi1)
    return _from_angles(np.append(theta, theta[0] + np.pi), gamma.n)


@dataclass(frozen=True)
class PermutabilitySquare:
    """All four corners of a Bianchi square plus closure diagnostics.

    gamma12 is the shot second leg and gamma21 the closed-form corner
    (superpose); both_orders_distance is their sup distance over all t and
    prediction_residual their gap at t = 0.
    """

    gamma1: ProjectiveCurve
    gamma2: ProjectiveCurve
    gamma12: ProjectiveCurve
    gamma21: ProjectiveCurve
    mu: float
    nu: float
    both_orders_distance: float
    prediction_residual: float


def permutability_square(
    gamma: ProjectiveCurve,
    c1_pr: float,
    c2_pr: float,
    branches=("minus", "minus"),
    substeps: int = DEFAULT_SUBSTEPS,
    match_tol: float = MATCH_TOL,
) -> PermutabilitySquare:
    """Close the Bianchi square over two transformation constants.

    gamma1 and gamma2 are single transforms with the given branch labels,
    shot together when the labels match (one batched transfer, _shots).
    The fourth corner gamma21 is their closed-form superposition with
    weight mu = 1 - c1/c2 (superpose); nu = 1 - c2/c1 is the other order's
    weight.  One second leg is shot as the check: the period maps intertwine
    (moebius_conjugacy_residual), so its meeting point has the eigenvalue,
    and so the label, of the first leg with the same constant, and gamma12
    = T(gamma1, c2) takes branches[1].  A shot leg that starts more than
    match_tol from the corner raises MatchFailure; a match_tol that is not
    a positive number, or a bad label, raises ValueError before any
    integration, as does a branches that is not a pair of labels.  Both
    corners are returned so the caller can verify they agree at every t.
    """
    mu = _square_weight(c1_pr, c2_pr)
    if not match_tol > 0.0:  # NaN compares false, so it cannot switch the gate off
        raise ValueError(f"match_tol must be a positive number, got {match_tol!r}")
    if len(branches) != 2:
        raise ValueError(f"branches must be a pair of labels, got {branches!r}")
    for branch in branches:
        _check_branch(branch)
    if branches[0] == branches[1]:
        g1, g2 = _shots(gamma, (c1_pr, c2_pr), branches[0], substeps)
    else:
        g1, g2 = (_shots(gamma, (c,), b, substeps)[0] for c, b in zip((c1_pr, c2_pr), branches))
    g21 = superpose(gamma, g1, g2, c1_pr, c2_pr)
    g12 = apply_tc_projective(g1, c2_pr, branches[1], substeps=substeps)
    gap = abs(float(wrap_half_pi(g12.psi.samples[0] - g21.psi.samples[0])))
    if gap > match_tol:
        raise MatchFailure(f"branch {branches[1]!r} starts {gap!r} from the predicted angle > {match_tol!r}")
    return PermutabilitySquare(
        gamma1=g1,
        gamma2=g2,
        gamma12=g12,
        gamma21=g21,
        mu=mu,
        nu=1.0 - c2_pr / c1_pr,
        both_orders_distance=projective_distance(g12, g21),
        prediction_residual=gap,
    )
