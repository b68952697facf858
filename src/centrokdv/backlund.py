"""Parameter-dependent transformations of unit-Wronskian curves.

Two pictures of the same map are implemented.  In the plane picture a
periodic solution of a quadratic first-order relation combines a curve
with its derivative into a new unit-Wronskian curve; in the projective
picture each point slides along the circle to a fixed point of a scaled
Moebius period map.  The two commute with each other in the Bianchi
sense, and the meeting point of a double transformation is predicted by
an explicit conjugating matrix; both facts are exposed here as checkable
operations.
"""

from dataclasses import dataclass

import numpy as np

from . import curve_core as cc
from . import periodic_fn as pf
from .curve_core import (
    CentroAffineCurve,
    ProjectiveCurve,
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
    _BRANCHES,
    DEFAULT_SUBSTEPS,
    RiccatiBranch,
    _pick_branch,
    _reflect,
    conjugator,
    conjugator_affine,
    moebius_apply_angle,
    moebius_monodromy,
    riccati_branch,
)

# largest angle-advance defect apply_tc_projective spreads over the period
CLOSURE_TOL = 1e-6


@dataclass(frozen=True)
class BacklundParam:
    """The transformation constant in both guises: plane c and flow scale 1/c^2."""

    c_aff: float
    c_pr: float


def param_convert(value: float, kind: str) -> BacklundParam:
    """Build the parameter pair from either picture's constant.

    kind "affine" takes the plane constant c (any nonzero real); kind
    "projective" takes the flow scale 1/c^2, which must be positive.  The
    affine constant recovered from a projective input is the positive root.
    """
    value = float(value)
    if kind == "affine":
        if value == 0.0:
            raise ZeroParam("affine parameter must be nonzero")
        return BacklundParam(c_aff=value, c_pr=1.0 / value**2)
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


def gate_image(g1: pf.PeriodicFn, g2: pf.PeriodicFn) -> CentroAffineCurve:
    """Gate step of the plane map: the image curve, or OffUnity on a Wronskian miss."""
    defect = cc.wronskian_defect(g1, g2)
    if defect > cc.WRONSKIAN_TOL:
        raise OffUnity(f"image misses unit Wronskian by {defect!r} > {cc.WRONSKIAN_TOL!r}")
    return CentroAffineCurve(g1, g2)


def apply_tc(
    Gamma: CentroAffineCurve,
    c_aff: float,
    branch: str = "minus",
    substeps: int = DEFAULT_SUBSTEPS,
) -> BacklundResult:
    """Plane transformation Delta = w Gamma + c Gamma' for one branch.

    w is the periodic Riccati solution of the chosen branch; it makes
    [Gamma, Delta] = c and keeps [Delta, Delta'] = 1, and the image Hill
    potential is p + 2 w'/c.  Applying the opposite branch to the image
    returns -Gamma.
    """
    param = param_convert(c_aff, "affine")
    pot = curvature(Gamma)
    sol = riccati_branch(pot, c_aff, branch, substeps=substeps)
    g1, g2, image_curvature = plane_map(Gamma, pot, sol.solution, c_aff)
    return BacklundResult(gate_image(g1, g2), sol, image_curvature, param)


def _reflect_curve(gamma: ProjectiveCurve) -> ProjectiveCurve:
    """The curve with angle pi - phi(pi - t), i.e. psi(t) -> -psi(pi - t); an involution."""
    return ProjectiveCurve(pf.PeriodicFn(-_reflect(gamma.psi.samples), "periodic"))


def _plus_image(gamma: ProjectiveCurve, c_pr: float, substeps: int) -> ProjectiveCurve:
    """apply_tc_projective's plus branch: chi(t) is the direction of F(t) v,
    F the fundamental matrix trajectory and v its dominant fixed direction."""
    mono, traj = moebius_monodromy(gamma, c_pr, substeps=substeps, keep_trajectory=True)
    (_, v), _ = mono.eigen_system()
    w = traj @ v
    chi = np.unwrap(np.arctan2(w[:, 0], w[:, 1]))
    chi += wrap_half_pi(float(chi[0])) - chi[0]
    closure = chi[-1] - chi[0] - np.pi
    if abs(closure) > CLOSURE_TOL:
        raise BranchSingular(f"angle advance off by {closure!r}: branch not periodic")
    # distribute the residual closure defect so psi is exactly periodic
    steps = substeps * gamma.n
    chi -= closure * (np.arange(steps + 1) / steps)
    nodes = np.arange(gamma.n) * substeps
    psi = pf.PeriodicFn(chi[nodes] - gamma.psi.grid, "periodic")
    try:
        return ProjectiveCurve(psi)
    except NonMonotone as exc:
        raise BranchSingular(f"image angle stalls: {exc}") from exc


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
    (_plus_image), which closes without cancellation, and the minus branch,
    which repels forward, as R(plus image of R(gamma)), with R the
    involution psi(t) -> -psi(pi - t) that leaves the angle equation
    invariant.  An image that does not advance by exactly pi over one
    period, or whose angle stalls (it meets gamma), raises BranchSingular.
    """
    param_convert(c_pr, "projective")
    _pick_branch(_BRANCHES, branch)  # a bad label fails before the integration
    if branch == "plus":
        return _plus_image(gamma, c_pr, substeps)
    return _reflect_curve(_plus_image(_reflect_curve(gamma), c_pr, substeps))


def pushforward_tangent(
    Gamma: CentroAffineCurve,
    c_aff: float,
    branch: str,
    f: pf.PeriodicFn,
    riccati: RiccatiBranch | None = None,
    substeps: int = DEFAULT_SUBSTEPS,
) -> pf.PeriodicFn:
    """Image profile of a tangent deformation under the plane map.

    The profile f at Gamma maps to the unique periodic solution g of
    g' - (2w/c) g = -f' - (2w/c) f.  On a hyperbolic branch the
    homogeneous multiplier is 1/mu^2 != 1, so the solve never resonates;
    it is the branch's own O(n log n) Floquet solve
    (RiccatiBranch.solve_linear).  Pass riccati to reuse an already
    computed branch; it must carry the same label and constant, else
    ValueError.  Otherwise the branch named by the label is computed alone
    (riccati_branch).  A bad label fails before any integration or solve.
    """
    _pick_branch(_BRANCHES, branch)
    if riccati is None:
        riccati = riccati_branch(curvature(Gamma), c_aff, branch, substeps=substeps)
    elif (riccati.branch, riccati.c_aff) != (branch, c_aff):
        raise ValueError(
            f"riccati is branch {riccati.branch!r} at c = {riccati.c_aff!r}, not {branch!r} at {c_aff!r}"
        )
    kappa = (2.0 / c_aff) * riccati.solution
    return riccati.solve_linear(-pf.differentiate(f) - kappa * f)


def moebius_conjugacy_residual(
    gamma: ProjectiveCurve,
    delta: ProjectiveCurve,
    c_pr: float,
    lam: float,
    substeps: int = DEFAULT_SUBSTEPS,
) -> float:
    """How far the two period maps are from being conjugate at weight mu.

    For delta a transform of gamma with constant c_pr, the matrix A fixing
    gamma(0) and scaling delta(0) by mu = 1 - lam/c_pr should intertwine
    the lam-scaled period maps: M_delta A = A M_gamma.  Returns the
    relative Frobenius mismatch of the two products.
    """
    mu = 1.0 - lam / c_pr
    a = conjugator(gamma, delta, mu, 0.0)
    m_g = moebius_monodromy(gamma, lam, substeps=substeps).m
    m_d = moebius_monodromy(delta, lam, substeps=substeps).m
    lhs = m_d @ a
    rhs = a @ m_g
    return float(np.linalg.norm(lhs - rhs) / max(np.linalg.norm(rhs), 1e-300))


def matching_identity_residual(base, first, second, mu, nu=None) -> float:
    """Point-level identity behind the Bianchi square's meeting corner.

    For affine points (base, first, second) and weights with
    1/mu + 1/nu = 1, the matrix fixing base and scaling second by mu sends
    first to the same point as the matrix fixing base and scaling first by
    nu sends second.  Returns the normalized cross product of the two
    homogeneous results, zero when the identity holds.
    """
    if nu is None:
        nu = mu / (mu - 1.0)
    va = conjugator_affine(base, second, mu) @ np.array([first, 1.0])
    vb = conjugator_affine(base, first, nu) @ np.array([second, 1.0])
    cross = va[0] * vb[1] - va[1] * vb[0]
    return float(abs(cross) / (np.hypot(va[0], va[1]) * np.hypot(vb[0], vb[1])))


@dataclass(frozen=True)
class PermutabilitySquare:
    """All four corners of a Bianchi square plus closure diagnostics."""

    gamma1: ProjectiveCurve
    gamma2: ProjectiveCurve
    gamma12: ProjectiveCurve
    gamma21: ProjectiveCurve
    mu: float
    nu: float
    both_orders_distance: float
    prediction_residual: float


def _matched_step(curve, c_pr, branch, predicted, substeps, match_tol):
    """Second Bianchi leg on the given branch, and its start's gap to the predicted angle."""
    leg = apply_tc_projective(curve, c_pr, branch, substeps=substeps)
    gap = abs(wrap_half_pi(float(leg.psi.samples[0]) - predicted))
    if gap > match_tol:
        raise MatchFailure(f"branch {branch!r} starts {gap!r} from the predicted angle > {match_tol!r}")
    return leg, gap


def permutability_square(
    gamma: ProjectiveCurve,
    c1_pr: float,
    c2_pr: float,
    branches=("minus", "minus"),
    substeps: int = DEFAULT_SUBSTEPS,
    match_tol: float = 1e-5,
) -> PermutabilitySquare:
    """Close the Bianchi square over two transformation constants.

    gamma1 and gamma2 are single transforms with the given branch labels.
    The double transform's starting angle is predicted by conjugating
    matrices with weights mu = 1 - c1/c2 and nu = 1 - c2/c1.  The period
    maps intertwine (moebius_conjugacy_residual), so each second step's
    meeting point has the eigenvalue, and so the label, of the first step
    with the same constant: gamma12 takes branches[1], gamma21 branches[0].
    A start more than match_tol from its prediction raises MatchFailure.
    Both composition orders are returned so the caller can verify they
    agree.
    """
    param_convert(c1_pr, "projective")
    param_convert(c2_pr, "projective")
    if c1_pr == c2_pr:
        raise Degenerate("equal constants: weight mu = 0 collapses the square")
    g1 = apply_tc_projective(gamma, c1_pr, branches[0], substeps=substeps)
    g2 = apply_tc_projective(gamma, c2_pr, branches[1], substeps=substeps)
    mu = 1.0 - c1_pr / c2_pr
    nu = 1.0 - c2_pr / c1_pr
    pred12 = moebius_apply_angle(conjugator(gamma, g2, mu, 0.0), g1.phi(0.0))
    pred21 = moebius_apply_angle(conjugator(gamma, g1, nu, 0.0), g2.phi(0.0))
    g12, r12 = _matched_step(g1, c2_pr, branches[1], float(pred12), substeps, match_tol)
    g21, r21 = _matched_step(g2, c1_pr, branches[0], float(pred21), substeps, match_tol)
    return PermutabilitySquare(
        gamma1=g1,
        gamma2=g2,
        gamma12=g12,
        gamma21=g21,
        mu=mu,
        nu=nu,
        both_orders_distance=projective_distance(g12, g21),
        prediction_residual=max(r12, r21),
    )
