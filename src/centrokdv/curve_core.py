"""Curve types and the lift/projection between the two pictures.

A closed curve in the projective line is stored through its angle data
phi(t) = t + psi(t) with psi pi-periodic and phi' > 0; the curve point in
the affine chart is gamma(t) = tan(phi(t)).  Its unit-Wronskian plane lift
is Gamma = (cos phi, sin phi)/sqrt(phi'), antiperiodic with
[Gamma, Gamma'] = 1.  The angle storage keeps every operation finite where
gamma passes through infinity.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import periodic_fn as pf
from .errors import NonMonotone, NumericalFailure, OffUnity

__all__ = [
    "ProjectiveCurve",
    "CentroAffineCurve",
    "lift",
    "project",
    "curvature",
    "hill_potential",
    "wronskian_defect",
    "tangent_field",
    "make_circle",
    "random_projective",
    "sl2_exp",
    "random_sl2",
    "sl2_apply",
    "wrap_half_pi",
    "curve_distance",
    "projective_distance",
    "save_curve",
    "load_curve",
]

WRONSKIAN_TOL = 1e-9


def _pair(g1: pf.PeriodicFn, g2: pf.PeriodicFn) -> np.ndarray:
    """The (2, n) stack of two components of one parity, so that one transform serves both."""
    if g1.n != g2.n:
        raise ValueError("sample counts differ")
    if g1.parity != g2.parity:
        raise ValueError("components differ in parity")
    return np.stack([g1.samples, g2.samples])


def _wronskian(g1: pf.PeriodicFn, g2: pf.PeriodicFn) -> pf.PeriodicFn:
    """[Gamma, Gamma'] = g1 g2' - g2 g1', both derivatives from one rfft and one irfft."""
    d1, d2 = pf.differentiate_samples(_pair(g1, g2), g1.parity)
    return pf.PeriodicFn(g1.samples * d2 - g2.samples * d1, "periodic")


def wronskian_defect(g1: pf.PeriodicFn, g2: pf.PeriodicFn) -> float:
    """max |[Gamma, Gamma'] - 1| of components g1, g2; every gate compares it to WRONSKIAN_TOL.

    Transform budget: one rfft and one irfft (_wronskian).
    """
    return float(np.max(np.abs(_wronskian(g1, g2).samples - 1.0)))


def wrap_half_pi(x):
    """Reduce an angle difference mod pi into (-pi/2, pi/2]."""
    return x - np.pi * np.ceil((x - np.pi / 2) / np.pi)


@dataclass(frozen=True)
class ProjectiveCurve:
    """Closed curve in RP^1 with rotation number one, stored as psi = phi - t."""

    psi: pf.PeriodicFn

    def __post_init__(self):
        if self.psi.parity != "periodic":
            raise ValueError("psi must be periodic")
        # phi' > 0 is the diffeomorphism condition; check on an 8x finer grid, from the slope row
        # alone (one rfft and one irfft).  Only _reflect_curve builds a curve without this check.
        low = 1.0 + pf.periodic_slopes(self.psi.samples, 8 * self.psi.n).min()
        if low <= 0.0:
            raise NonMonotone(f"min phi' = {float(low)!r} <= 0")

    @property
    def n(self) -> int:
        return self.psi.n

    def phi(self, t):
        return np.asarray(t, dtype=float) + pf.evaluate(self.psi, t)

    @property
    def phi_prime(self) -> pf.PeriodicFn:
        return pf.differentiate(self.psi) + 1.0

    def gamma(self, t):
        """Affine-chart value tan(phi); infinite where cos(phi) = 0."""
        return np.tan(self.phi(t))

    def curvature(self) -> pf.PeriodicFn:
        """Hill potential computed from the angle data alone."""
        d1, d2, d3 = pf.derivatives(self.psi, 1, 2, 3)
        fp = d1 + 1.0
        ratio = d2 / fp
        return (-0.5) * (d3 / fp) + 0.75 * ratio * ratio - fp * fp


@dataclass(frozen=True)
class CentroAffineCurve:
    """Antiperiodic plane curve with unit Wronskian [Gamma, Gamma'] = 1; a miss raises ValueError.

    Transform budget of the gate: one rfft and one irfft (wronskian_defect).
    """

    gamma1: pf.PeriodicFn
    gamma2: pf.PeriodicFn

    def __post_init__(self):
        if self.gamma1.parity != "antiperiodic" or self.gamma2.parity != "antiperiodic":
            raise ValueError("components must be antiperiodic")
        if self.gamma1.n != self.gamma2.n:
            raise ValueError("component sample counts differ")
        err = wronskian_defect(self.gamma1, self.gamma2)
        if err > WRONSKIAN_TOL:
            raise ValueError(f"Wronskian off unity by {err!r} > {WRONSKIAN_TOL!r}")

    @property
    def n(self) -> int:
        return self.gamma1.n

    def wronskian(self) -> pf.PeriodicFn:
        return _wronskian(self.gamma1, self.gamma2)


def _gated(g1: pf.PeriodicFn, g2: pf.PeriodicFn, failure: type[NumericalFailure], what: str) -> CentroAffineCurve:
    """The curve of samples the package computed; a gate miss is that computation's failure."""
    try:
        return CentroAffineCurve(g1, g2)
    except ValueError as exc:
        raise failure(f"{what}: {exc}") from exc


def lift(gamma: ProjectiveCurve) -> CentroAffineCurve:
    """Unit-Wronskian plane lift Gamma = (cos phi, sin phi)/sqrt(phi'); OffUnity if it misses the gate."""
    t = gamma.psi.grid
    phi = t + gamma.psi.samples
    root = np.sqrt(gamma.phi_prime.samples)
    g1 = pf.PeriodicFn(np.cos(phi) / root, "antiperiodic")
    g2 = pf.PeriodicFn(np.sin(phi) / root, "antiperiodic")
    return _gated(g1, g2, OffUnity, "lifted curve")


def _reflect(samples: np.ndarray) -> np.ndarray:
    """Samples of f(pi - t) from the samples of a pi-periodic f on the same grid."""
    return np.concatenate([samples[:1], samples[:0:-1]])


def _reflect_curve(gamma: ProjectiveCurve) -> ProjectiveCurve:
    """The curve with angle pi - phi(pi - t), i.e. psi(t) -> -psi(pi - t); an involution bit for bit.

    The one construction that does not re-run ProjectiveCurve's check, as
    gamma has passed it.  R maps the 8n-point check grid onto itself and
    gives phi'_R(t) = phi'(pi - t), so the reflected curve is monotone with
    the same min phi'.  The check computed on the reflected samples would
    agree with gamma's only up to roundoff (3.7e-14 relative on the
    benchmark pools), so a curve whose min phi' lies within roundoff of 0
    may pass the one and fail the other.
    """
    curve = object.__new__(ProjectiveCurve)
    object.__setattr__(curve, "psi", pf.PeriodicFn(-_reflect(gamma.psi.samples), "periodic"))
    return curve


def _from_angles(theta: np.ndarray, steps: int) -> ProjectiveCurve:
    """Curve through raw angles theta at the n + 1 grid points k*pi/n of [0, pi].

    The angles come from a path of K = steps increments (K a multiple of n),
    and the unwrapped angle must advance by pi within pi*K*eps, the roundoff
    of K increments below pi; a winding curve, or a branch shot in its
    decaying direction, misses by more and raises NonMonotone.  psi(0) is in
    (-pi/2, pi/2].
    """
    theta = np.unwrap(theta)
    defect = theta[-1] - theta[0] - np.pi
    if not abs(defect) <= np.pi * steps * np.finfo(float).eps:  # NaN misses too
        raise NonMonotone(f"rotation number {float(1.0 + defect / np.pi)!r} != 1")
    psi = theta[:-1] - pf.grid(len(theta) - 1)
    psi += wrap_half_pi(psi[0]) - psi[0]
    return ProjectiveCurve(pf.PeriodicFn(psi, "periodic"))


def project(Gamma: CentroAffineCurve) -> ProjectiveCurve:
    """Angle data of a plane curve, the inverse of ``lift`` up to the sign of Gamma.

    Requires rotation number one; psi(0) is normalized into (-pi/2, pi/2].
    """
    # the samples at k*pi/n and the antiperiodic wrap Gamma(pi) = -Gamma(0)
    v1, v2 = (np.append(g.samples, -g.samples[0]) for g in (Gamma.gamma1, Gamma.gamma2))
    return _from_angles(np.arctan2(v2, v1), Gamma.n)


def hill_potential(g1: pf.PeriodicFn, g2: pf.PeriodicFn) -> pf.PeriodicFn:
    """[Gamma'', Gamma'] of components g1, g2, which need not have unit Wronskian.

    The products of derivatives alias roundoff into the unresolved Nyquist
    mode cos(nt), (-1)^k on the grid, which the Riccati solve would carry
    into w and the image; the potential is projected off it (Boyd,
    Chebyshev and Fourier Spectral Methods, 2001, section 11).  Transform
    budget: one rfft of both components and one irfft per order.
    """
    first, second = pf.derivatives_of_samples(_pair(g1, g2), g1.parity, 1, 2)
    p = second[0] * first[1] - second[1] * first[0]
    nyquist = pf.nyquist_mode(g1.n)
    return pf.PeriodicFn(p - np.mean(p * nyquist) * nyquist, "periodic")


def curvature(Gamma: CentroAffineCurve) -> pf.PeriodicFn:
    """Hill potential p = [Gamma'', Gamma'] (so that Gamma'' = p Gamma); one rfft and two irffts."""
    return hill_potential(Gamma.gamma1, Gamma.gamma2)


def tangent_field(Gamma: CentroAffineCurve, f: pf.PeriodicFn):
    """Wronskian-preserving deformation U_f = -1/2 f' Gamma + f Gamma'.

    Transform budget: one rfft and one irfft for f', and one of each for
    both components' derivatives.
    """
    if f.parity != "periodic":
        raise ValueError("profile must be periodic")
    if f.n != Gamma.n:
        raise ValueError("sample counts differ")
    half = pf.differentiate_samples(f.samples, "periodic") * -0.5
    G = _pair(Gamma.gamma1, Gamma.gamma2)
    u1, u2 = half * G + f.samples * pf.differentiate_samples(G, "antiperiodic")
    return pf.PeriodicFn(u1, "antiperiodic"), pf.PeriodicFn(u2, "antiperiodic")


def make_circle(n: int) -> ProjectiveCurve:
    """The unit circle: phi(t) = t, lift (cos t, sin t)."""
    return ProjectiveCurve(pf.constant(0.0, n))


def random_projective(rng, n: int, strength: float = 0.6) -> ProjectiveCurve:
    """Random band-limited angle data with a guaranteed margin phi' >= 1 - strength.

    psi = sum over k = 1..4 of alpha_k sin 2kt + beta_k cos 2kt, rescaled so
    that sum 2k(|alpha_k| + |beta_k|) = strength < 1.  The draw depends only
    on the rng state, so the same seed gives the same curve at every sample
    count n.
    """
    if not 0.0 < strength < 1.0:
        raise ValueError("strength must lie in (0, 1)")
    coeffs = [rng.normal(size=2) / k**2 for k in range(1, 5)]
    budget = sum(2 * k * (abs(a) + abs(b)) for k, (a, b) in enumerate(coeffs, start=1))
    t = pf.grid(n)
    vals = np.zeros(n)
    for k, (a, b) in enumerate(coeffs, start=1):
        vals += (strength / budget) * (a * np.sin(2 * k * t) + b * np.cos(2 * k * t))
    return ProjectiveCurve(pf.PeriodicFn(vals, "periodic"))


def sl2_exp(X: np.ndarray) -> np.ndarray:
    """Exact exponential of a traceless 2x2 matrix; det of the result is 1."""
    X = np.asarray(X, dtype=float)
    if abs(X[0, 0] + X[1, 1]) > 1e-12:
        raise ValueError("matrix must be traceless")
    q = X[0, 0] ** 2 + X[0, 1] * X[1, 0]  # X^2 = q * Id
    if q > 1e-30:
        r = np.sqrt(q)
        return np.cosh(r) * np.eye(2) + (np.sinh(r) / r) * X
    if q < -1e-30:
        r = np.sqrt(-q)
        return np.cos(r) * np.eye(2) + (np.sin(r) / r) * X
    return np.eye(2) + X


def random_sl2(rng, scale: float = 0.5) -> np.ndarray:
    """Random element of SL(2, R) near the identity, via the exponential map."""
    a, b, c = rng.normal(size=3) * scale
    return sl2_exp(np.array([[a, b], [c, -a]]))


def sl2_apply(A: np.ndarray, Gamma: CentroAffineCurve) -> CentroAffineCurve:
    """Apply a unimodular matrix to the curve componentwise; OffUnity if the image misses the gate."""
    A = np.asarray(A, dtype=float)
    det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
    if abs(det - 1.0) > 1e-9:
        raise ValueError(f"det = {float(det)!r}, need a unimodular matrix")
    g1 = A[0, 0] * Gamma.gamma1 + A[0, 1] * Gamma.gamma2
    g2 = A[1, 0] * Gamma.gamma1 + A[1, 1] * Gamma.gamma2
    return _gated(g1, g2, OffUnity, "mapped curve")


def curve_distance(a: CentroAffineCurve, b: CentroAffineCurve) -> float:
    """Sup distance between plane curves over both components."""
    if a.n != b.n:
        m = max(a.n, b.n)
        a1, a2 = pf.upsample(a.gamma1, m).samples, pf.upsample(a.gamma2, m).samples
        b1, b2 = pf.upsample(b.gamma1, m).samples, pf.upsample(b.gamma2, m).samples
    else:
        a1, a2 = a.gamma1.samples, a.gamma2.samples
        b1, b2 = b.gamma1.samples, b.gamma2.samples
    return float(max(np.max(np.abs(a1 - b1)), np.max(np.abs(a2 - b2))))


def projective_distance(a: ProjectiveCurve, b: ProjectiveCurve) -> float:
    """Sup distance between RP^1 curves as angles mod pi."""
    if a.n != b.n:
        m = max(a.n, b.n)
        da = pf.upsample(a.psi, m).samples - pf.upsample(b.psi, m).samples
    else:
        da = a.psi.samples - b.psi.samples
    return float(np.max(np.abs(wrap_half_pi(da))))


def save_curve(curve, path, meta: dict | None = None) -> None:
    """Write a curve to the JSON interchange format."""
    if isinstance(curve, ProjectiveCurve):
        doc = {"kind": "projective", "n": curve.n, "psi": curve.psi.samples.tolist()}
    elif isinstance(curve, CentroAffineCurve):
        doc = {
            "kind": "centro_affine",
            "n": curve.n,
            "gamma1": curve.gamma1.samples.tolist(),
            "gamma2": curve.gamma2.samples.tolist(),
        }
    else:
        raise TypeError(f"cannot serialize {type(curve).__name__}")
    if meta is not None:
        doc["meta"] = meta
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def _samples(doc: dict, key: str) -> np.ndarray:
    """doc[key] as a float array; ValueError naming key if it is missing or not a list of numbers."""
    value = doc.get(key)
    if isinstance(value, list):
        try:
            return np.asarray(value, dtype=float)
        except (TypeError, ValueError):
            pass
    raise ValueError(f"curve file field {key!r} is missing or not a list of numbers")


def load_curve(path):
    """Read a curve from the JSON interchange format; ValueError if the document is malformed."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"curve file must hold a JSON object, not {type(doc).__name__}")
    kind = doc.get("kind")
    if kind == "projective":
        psi = _samples(doc, "psi")
        if len(psi) != doc.get("n", len(psi)):
            raise ValueError("sample count mismatch in curve file")
        return ProjectiveCurve(pf.PeriodicFn(psi, "periodic"))
    if kind == "centro_affine":
        g1 = _samples(doc, "gamma1")
        g2 = _samples(doc, "gamma2")
        if len(g1) != doc.get("n", len(g1)):
            raise ValueError("sample count mismatch in curve file")
        return CentroAffineCurve(
            pf.PeriodicFn(g1, "antiperiodic"), pf.PeriodicFn(g2, "antiperiodic")
        )
    raise ValueError(f"unknown curve kind {kind!r}")
