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
from .errors import NonMonotone

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


def _wronskian(g1: pf.PeriodicFn, g2: pf.PeriodicFn) -> pf.PeriodicFn:
    return g1 * pf.differentiate(g2) - g2 * pf.differentiate(g1)


def wronskian_defect(g1: pf.PeriodicFn, g2: pf.PeriodicFn) -> float:
    """max |[Gamma, Gamma'] - 1| of components g1, g2; every gate compares it to WRONSKIAN_TOL."""
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
        # phi' > 0 is the diffeomorphism condition; check on an 8x finer grid
        low = 1.0 + pf.values_and_slopes_with_wrap(self.psi.samples, 8 * self.psi.n)[1].min()
        if low <= 0.0:
            raise NonMonotone(f"min phi' = {low!r} <= 0")

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
        d1 = pf.differentiate(self.psi, 1)
        d2 = pf.differentiate(self.psi, 2)
        d3 = pf.differentiate(self.psi, 3)
        fp = d1 + 1.0
        ratio = d2 / fp
        return (-0.5) * (d3 / fp) + 0.75 * ratio * ratio - fp * fp


@dataclass(frozen=True)
class CentroAffineCurve:
    """Antiperiodic plane curve with unit Wronskian [Gamma, Gamma'] = 1."""

    gamma1: pf.PeriodicFn
    gamma2: pf.PeriodicFn

    def __post_init__(self):
        if self.gamma1.parity != "antiperiodic" or self.gamma2.parity != "antiperiodic":
            raise ValueError("components must be antiperiodic")
        if self.gamma1.n != self.gamma2.n:
            raise ValueError("component sample counts differ")
        err = wronskian_defect(self.gamma1, self.gamma2)
        if err > WRONSKIAN_TOL:
            raise ValueError(f"Wronskian off unity by {err!r}")

    @property
    def n(self) -> int:
        return self.gamma1.n

    def wronskian(self) -> pf.PeriodicFn:
        return _wronskian(self.gamma1, self.gamma2)


def lift(gamma: ProjectiveCurve) -> CentroAffineCurve:
    """Unit-Wronskian plane lift Gamma = (cos phi, sin phi)/sqrt(phi')."""
    t = gamma.psi.grid
    phi = t + gamma.psi.samples
    root = np.sqrt(gamma.phi_prime.samples)
    g1 = pf.PeriodicFn(np.cos(phi) / root, "antiperiodic")
    g2 = pf.PeriodicFn(np.sin(phi) / root, "antiperiodic")
    return CentroAffineCurve(g1, g2)


def project(Gamma: CentroAffineCurve) -> ProjectiveCurve:
    """Angle data of a plane curve; psi(0) normalized into (-pi/2, pi/2].

    The inverse of ``lift`` up to the overall sign of Gamma.  Requires
    rotation number one (the angle must advance by exactly pi over a
    period); winding curves are outside the stored representation.
    """
    n = Gamma.n
    # sample at 2n+1 points including t = pi to measure the total winding
    ts = np.arange(2 * n + 1) * (np.pi / (2 * n))
    v1 = pf.values_with_wrap(Gamma.gamma1, 2 * n)
    v2 = pf.values_with_wrap(Gamma.gamma2, 2 * n)
    theta = np.unwrap(np.arctan2(v2, v1))
    winding = (theta[-1] - theta[0]) / np.pi
    if abs(winding - 1.0) > 1e-6:
        raise NonMonotone(f"rotation number {winding!r} != 1")
    psi = theta[: 2 * n : 2] - ts[: 2 * n : 2]
    psi -= np.pi * np.ceil((psi[0] - np.pi / 2) / np.pi)
    return ProjectiveCurve(pf.PeriodicFn(psi, "periodic"))


def hill_potential(g1: pf.PeriodicFn, g2: pf.PeriodicFn) -> pf.PeriodicFn:
    """[Gamma'', Gamma'] of components g1, g2, which need not have unit Wronskian."""
    return pf.differentiate(g1, 2) * pf.differentiate(g2) - pf.differentiate(g2, 2) * pf.differentiate(g1)


def curvature(Gamma: CentroAffineCurve) -> pf.PeriodicFn:
    """Hill potential p = [Gamma'', Gamma'] (so that Gamma'' = p Gamma)."""
    return hill_potential(Gamma.gamma1, Gamma.gamma2)


def tangent_field(Gamma: CentroAffineCurve, f: pf.PeriodicFn):
    """Wronskian-preserving deformation U_f = -1/2 f' Gamma + f Gamma'."""
    if f.parity != "periodic":
        raise ValueError("profile must be periodic")
    half = (-0.5) * pf.differentiate(f)
    u1 = half * Gamma.gamma1 + f * pf.differentiate(Gamma.gamma1)
    u2 = half * Gamma.gamma2 + f * pf.differentiate(Gamma.gamma2)
    return u1, u2


def make_circle(n: int) -> ProjectiveCurve:
    """The unit circle: phi(t) = t, lift (cos t, sin t)."""
    return ProjectiveCurve(pf.constant(0.0, n))


def random_projective(rng, n: int, max_mode: int = 4, strength: float = 0.6) -> ProjectiveCurve:
    """Random band-limited angle data with a guaranteed margin phi' >= 1 - strength.

    psi = sum over k of alpha_k sin 2kt + beta_k cos 2kt, rescaled so that
    sum 2k(|alpha_k| + |beta_k|) = strength < 1.  The draw depends only on
    the rng state and max_mode, so the same seed gives the same curve at
    every sample count n.
    """
    if not 0.0 < strength < 1.0:
        raise ValueError("strength must lie in (0, 1)")
    coeffs = [rng.normal(size=2) / k**2 for k in range(1, max_mode + 1)]
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
    """Apply a unimodular matrix to the curve componentwise."""
    A = np.asarray(A, dtype=float)
    det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
    if abs(det - 1.0) > 1e-9:
        raise ValueError(f"det = {det!r}, need a unimodular matrix")
    g1 = A[0, 0] * Gamma.gamma1 + A[0, 1] * Gamma.gamma2
    g2 = A[1, 0] * Gamma.gamma1 + A[1, 1] * Gamma.gamma2
    return CentroAffineCurve(g1, g2)


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


def load_curve(path):
    """Read a curve from the JSON interchange format."""
    with open(path) as fh:
        doc = json.load(fh)
    kind = doc.get("kind")
    if kind == "projective":
        psi = np.asarray(doc["psi"], dtype=float)
        if len(psi) != doc.get("n", len(psi)):
            raise ValueError("sample count mismatch in curve file")
        return ProjectiveCurve(pf.PeriodicFn(psi, "periodic"))
    if kind == "centro_affine":
        g1 = np.asarray(doc["gamma1"], dtype=float)
        g2 = np.asarray(doc["gamma2"], dtype=float)
        if len(g1) != doc.get("n", len(g1)):
            raise ValueError("sample count mismatch in curve file")
        return CentroAffineCurve(
            pf.PeriodicFn(g1, "antiperiodic"), pf.PeriodicFn(g2, "antiperiodic")
        )
    raise ValueError(f"unknown curve kind {kind!r}")
