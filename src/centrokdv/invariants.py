"""Conserved quantities and pairings of unit-Wronskian curves.

The antisymmetric pairing of two tangent profiles, its curvature-weighted
companion, the quadratic moments of a plane curve, and cross-checks that
tie them together: the moments' response to tangent deformations, the
angle-chart form of both pairings, and a small-separation cross-ratio
limit that recovers the transformation constant from a curve pair.
"""

from dataclasses import dataclass

import numpy as np

from . import periodic_fn as pf
from .curve_core import CentroAffineCurve, ProjectiveCurve, curvature, tangent_field
from .errors import Degenerate

__all__ = [
    "omega_pair",
    "big_omega_pair",
    "projective_forms",
    "hamiltonians",
    "IJKTriple",
    "ijk",
    "killing_fields",
    "moment_derivative",
    "richardson_derivative",
    "sl2_hamiltonian_check",
    "cross_ratio_check",
    "invariant_report",
]

DEFORMATION_STEP = 1e-5  # finite-difference step of every deformation derivative (richardson_derivative)
CROSS_RATIO_EPS = (0.1, 0.05, 0.025)  # separations cross_ratio_check extrapolates to zero


def omega_pair(f: pf.PeriodicFn, g: pf.PeriodicFn) -> float:
    """Antisymmetric pairing (1/2) integral of f g' - f' g over a period."""
    return 0.5 * pf.integrate_period(f * pf.differentiate(g) - pf.differentiate(f) * g)


def big_omega_pair(potential: pf.PeriodicFn, f: pf.PeriodicFn, g: pf.PeriodicFn) -> float:
    """Curvature-weighted pairing of two profiles.

    Integrates (1/4)(f' g'' - f'' g') + p (f g' - f' g); the symmetry
    profiles of the curve with potential p lie in its kernel.
    """
    (df, d2f), (dg, d2g) = pf.derivatives(f, 1, 2), pf.derivatives(g, 1, 2)
    integrand = 0.25 * (df * d2g - d2f * dg) + potential * (f * dg - df * g)
    return pf.integrate_period(integrand)


def projective_forms(gamma: ProjectiveCurve, f: pf.PeriodicFn, g: pf.PeriodicFn):
    """Both pairings evaluated purely in the angle chart.

    For profiles f, g put w = f phi' and z = g phi'.  The first value
    integrates (w z' - w' z)/phi'^2 and equals 2 omega_pair(f, g); the
    second is the finite part of the weighted pairing in this chart,
    integrating (w'' z' - w' z'')/phi'^2 + 4 (w z' - w' z), and equals
    -4 big_omega_pair at the curve's potential.
    """
    fp = gamma.phi_prime
    w = f * fp
    z = g * fp
    (dw, d2w), (dz, d2z) = pf.derivatives(w, 1, 2), pf.derivatives(z, 1, 2)
    fp2 = fp * fp
    first = pf.integrate_period((w * dz - dw * z) / fp2)
    second = pf.integrate_period((d2w * dz - dw * d2z) / fp2 + 4.0 * (w * dz - dw * z))
    return float(first), float(second)


def hamiltonians(potential: pf.PeriodicFn):
    """First two conserved integrals of a potential: mean and half mean square."""
    h1 = pf.integrate_period(potential)
    h2 = 0.5 * pf.integrate_period(potential * potential)
    return float(h1), float(h2)


@dataclass(frozen=True)
class IJKTriple:
    """Quadratic moments of a plane curve and their determinant."""

    I: float
    J: float
    K: float
    discriminant: float


def ijk(Gamma: CentroAffineCurve) -> IJKTriple:
    """Moments I = int g1^2, J = int g1 g2, K = int g2^2, with I K - J^2."""
    i, j, k = (float(m) for m in _moments_of(Gamma.gamma1, Gamma.gamma2))
    return IJKTriple(I=i, J=j, K=k, discriminant=i * k - j * j)


def killing_fields(Gamma: CentroAffineCurve):
    """Profiles of the three global symmetry directions at the curve.

    Pairing the curve against itself through the trace-free generators
    gives -2 g1 g2, g1^2 - g2^2, and g1^2 + g2^2; each is the profile of a
    deformation that moves the curve inside its own symmetry orbit.
    """
    g1, g2 = Gamma.gamma1, Gamma.gamma2
    return (-2.0) * (g1 * g2), g1 * g1 - g2 * g2, g1 * g1 + g2 * g2


def _moments_of(a: pf.PeriodicFn, b: pf.PeriodicFn) -> np.ndarray:
    return np.array(
        [
            pf.integrate_period(a * a),
            pf.integrate_period(a * b),
            pf.integrate_period(b * b),
        ]
    )


def richardson_derivative(value):
    """d/de value at 0 as (4 D(eps/2) - D(eps))/3, D(e) = (value(e) - value(-e))/2e, eps = DEFORMATION_STEP."""

    def centered(e):
        return (value(e) - value(-e)) / (2.0 * e)

    return (4.0 * centered(0.5 * DEFORMATION_STEP) - centered(DEFORMATION_STEP)) / 3.0


def moment_derivative(Gamma: CentroAffineCurve, f: pf.PeriodicFn):
    """Directional derivative of (I, J, K) along the tangent field of f.

    Centered differences on the raw deformed components (the deformation
    violates the unit-Wronskian constraint only at second order), refined
    by one Richardson step (richardson_derivative).
    """
    u1, u2 = tangent_field(Gamma, f)
    return richardson_derivative(lambda e: _moments_of(Gamma.gamma1 + e * u1, Gamma.gamma2 + e * u2))


def sl2_hamiltonian_check(Gamma: CentroAffineCurve, f: pf.PeriodicFn):
    """Residuals of the identities d(I, J, K)(U_f) = 2 omega(f, moment density).

    The predicted derivatives pair f with g1^2, g1 g2, g2^2 respectively;
    returns the three absolute mismatches against finite differences.
    """
    fd = moment_derivative(Gamma, f)
    g1, g2 = Gamma.gamma1, Gamma.gamma2
    predicted = np.array(
        [
            2.0 * omega_pair(f, g1 * g1),
            2.0 * omega_pair(f, g1 * g2),
            2.0 * omega_pair(f, g2 * g2),
        ]
    )
    resid = np.abs(fd - predicted)
    return {"I": float(resid[0]), "J": float(resid[1]), "K": float(resid[2])}


def _neville(xs, ys) -> float:
    """Polynomial extrapolation of the samples (xs, ys) to x = 0."""
    vals = [float(y) for y in ys]
    n = len(vals)
    for level in range(1, n):
        for i in range(n - level):
            x0, x1 = xs[i], xs[i + level]
            vals[i] = (x1 * vals[i] - x0 * vals[i + 1]) / (x1 - x0)
    return vals[0]


def cross_ratio_check(gamma: ProjectiveCurve, delta: ProjectiveCurve, t: float) -> float:
    """Recover the transformation constant from the curve pair geometrically.

    The cross-ratio of gamma(t), gamma(t+eps), delta(t), delta(t+eps)
    grows like c_pr eps^2; dividing by eps^2 at each of CROSS_RATIO_EPS and
    extrapolating eps -> 0 returns the constant.  The chord (sine) form of
    the cross-ratio on angles keeps chart poles out of the computation.
    Raises Degenerate when the curves meet at the sample points.
    """
    vals = []
    for e in CROSS_RATIO_EPS:
        a = float(gamma.phi(t))
        b = float(gamma.phi(t + e))
        c = float(delta.phi(t))
        d = float(delta.phi(t + e))
        den = np.sin(a - c) * np.sin(b - d)
        if abs(den) < 1e-12:
            raise Degenerate(f"curves meet near t = {t!r}, cross-ratio degenerates")
        vals.append(np.sin(a - b) * np.sin(c - d) / den / e**2)
    return float(_neville(CROSS_RATIO_EPS, vals))


def invariant_report(Gamma: CentroAffineCurve) -> dict:
    """Every conserved number of a plane curve in one flat dict."""
    h1, h2 = hamiltonians(curvature(Gamma))
    trip = ijk(Gamma)
    return {
        "H1": h1,
        "H2": h2,
        "I": trip.I,
        "J": trip.J,
        "K": trip.K,
        "discriminant": trip.discriminant,
    }
