"""Named diagnostic suites exercising every major property of the package.

Each suite computes a worst-case residual for one family of identities and
compares it against a fixed tolerance; ``_SUITES`` is the one table of both,
and the acceptance tests run it.  Stream inputs flow from a single seeded
generator, so a run is reproducible from (n, seed) alone.  Pinned anchor
inputs (curves and fields of generators with fixed seeds) do not vary with
``seed``, and drawing them leaves the stream untouched.
"""

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from . import backlund as bk
from . import curve_core as cc
from . import invariants as iv
from . import kdv_flow as kf
from . import periodic_fn as pf
from .errors import documented
from .riccati_monodromy import spectral_scan

__all__ = ["SuiteResult", "run_all", "format_report"]

# Two pinned checks hold to bounds tighter than their suite's tolerance;
# each enters the suite residual as r * (tol / bound), which passes iff r <= bound.
_SL2_DISCRIMINANT_BOUND = 1e-9  # transform_integrals: the seed-5 anchor
_MATCHING_IDENTITY_BOUND = 1e-10  # permutability: the draws of generator 11


@dataclass(frozen=True)
class SuiteResult:
    """A suite's worst residual against its tolerance.

    ``error`` names the documented failure that stopped the suite, whose
    residual is then inf.
    """

    name: str
    residual: float
    tol: float
    error: str | None = None

    @property
    def passed(self) -> bool:
        return self.residual <= self.tol

    @property
    def margin(self) -> float:
        """log10(tol / residual) in decades; negative on failure."""
        return math.inf if self.residual == 0 else math.log10(self.tol) - math.log10(self.residual)


def _scale(suite: str, bound: float) -> float:
    return next(tol for name, tol, _ in _SUITES if name == suite) / bound


def _random_field(rng, n) -> pf.PeriodicFn:
    f = pf.random_band_limited(rng, n, parity="periodic", max_mode=4)
    return (1.0 / float(np.max(np.abs(f.samples)))) * f


def _field_pairs(rng, n, count):
    return [(_random_field(rng, n), _random_field(rng, n)) for _ in range(count)]


def _anchor(seed, n) -> cc.ProjectiveCurve:
    """Pinned input: the curve of a generator seeded with seed, whatever the run's seed."""
    return cc.random_projective(np.random.default_rng(seed), n)


def _bump(n) -> cc.ProjectiveCurve:
    t = pf.grid(n)
    return cc.ProjectiveCurve(pf.PeriodicFn(0.1 * np.sin(2 * t), "periodic"))


def _suite_spectral_calculus(n, rng):
    t = pf.grid(n)
    f = pf.PeriodicFn(np.sin(2 * t), "periodic")
    r1 = np.max(np.abs(pf.differentiate(f).samples - 2.0 * np.cos(2 * t)))
    g = pf.PeriodicFn(np.sin(t), "antiperiodic")
    r2 = np.max(np.abs(pf.differentiate(g).samples - np.cos(t)))
    r3 = abs(pf.integrate_period(f * f) - np.pi / 2.0)
    h = pf.random_band_limited(rng, n, parity="periodic", max_mode=6)
    r4 = np.max(np.abs(pf.shift(pf.shift(h, 0.3), -0.3).samples - h.samples))
    return float(max(r1, r2, r3, r4))


def _suite_circle_anchors(n, rng):
    circ = cc.lift(cc.make_circle(n))
    pot = cc.curvature(circ)
    r1 = np.max(np.abs(pot.samples + 1.0))
    res = bk.apply_tc(circ, 0.5, "minus")
    r2 = np.max(np.abs(res.riccati.solution.samples - np.sqrt(3.0) / 2.0))
    r3 = np.max(np.abs(res.image_curvature.samples + 1.0))
    r4 = max(
        np.max(np.abs(img.samples - pf.shift(g, np.pi / 6.0).samples))
        for g, img in ((circ.gamma1, res.image.gamma1), (circ.gamma2, res.image.gamma2))
    )
    return float(max(r1, r2, r3, r4))


def _suite_circle_spectrum(n, rng):
    circ = cc.make_circle(max(n, 256))
    lams = np.linspace(-1.0, 1.5, 21)
    scan = spectral_scan(circ, lams, substeps=16)
    root = np.sqrt(np.abs(1.0 - lams))
    closed = np.where(
        lams < 1.0, 4.0 * np.cos(np.pi * root) ** 2, 4.0 * np.cosh(np.pi * root) ** 2
    )
    return float(np.max(np.abs(scan.tr2 - closed)))


def _suite_symplectic_invariance(n, rng):
    cases = [(cc.lift(cc.random_projective(rng, n)), _field_pairs(rng, n, 3)) for _ in range(2)]
    cases += [
        (cc.lift(_anchor(seed, n)), _field_pairs(np.random.default_rng(100 + seed), n, 10))
        for seed in range(1, 6)
    ]
    worst = 0.0
    for G, pairs in cases:
        pot = cc.curvature(G)
        res = bk.apply_tc(G, 0.5, "minus")
        for f, h in pairs:
            gf = bk.pushforward_tangent(G, 0.5, "minus", f, riccati=res.riccati)
            gh = bk.pushforward_tangent(G, 0.5, "minus", h, riccati=res.riccati)
            worst = max(worst, abs(iv.omega_pair(gf, gh) - iv.omega_pair(f, h)))
            before = iv.big_omega_pair(pot, f, h)
            after = iv.big_omega_pair(res.image_curvature, gf, gh)
            worst = max(worst, abs(after - before))
    return float(worst)


def _suite_transform_integrals(n, rng):
    # (curve generator, SL(2) generator, SL(2) maps, weight of their
    # discriminant drift): two stream curves, then the anchors of seeds 1-5
    cases = [(rng, rng, 5, 1.0)] * 2
    cases += [(np.random.default_rng(seed), None, 0, 0.0) for seed in range(1, 5)]
    sl2_weight = _scale("transform_integrals", _SL2_DISCRIMINANT_BOUND)
    cases.append((np.random.default_rng(5), np.random.default_rng(55), 10, sl2_weight))
    worst = 0.0
    for gen, sl2_gen, maps, weight in cases:
        G = cc.lift(cc.random_projective(gen, n))
        a = iv.ijk(G)
        b = iv.ijk(bk.apply_tc(G, 0.5, "minus").image)
        for x, y in ((a.I, b.I), (a.J, b.J), (a.K, b.K)):
            worst = max(worst, abs(y - x) / max(1.0, abs(x)))
        disc = a.I * a.K - a.J**2
        for _ in range(maps):
            m = iv.ijk(cc.sl2_apply(cc.random_sl2(sl2_gen), G))
            worst = max(worst, weight * (abs(m.I * m.K - m.J**2 - disc) / max(1.0, abs(disc))))
    return float(worst)


def _suite_conjugacy(n, rng):
    gamma = _bump(n)
    delta = bk.apply_tc_projective(gamma, 4.0, "minus")
    lams = np.linspace(-1.0, 1.5, 21)
    sa = spectral_scan(gamma, lams, substeps=16)
    sb = spectral_scan(delta, lams, substeps=16)
    worst = float(np.max(np.abs(sa.tr2 - sb.tr2)))
    for lam in (-1.0, 0.5, 2.0, 6.0, 9.0):
        worst = max(worst, bk.moebius_conjugacy_residual(gamma, delta, 4.0, lam))
    return float(worst)


def _matching_residuals(rng):
    """Matching-identity residuals of random draws; None where mu is within 1e-2 of 0 or 1."""
    while True:
        base, first, second = rng.normal(scale=2.0, size=3)
        mu = float(rng.normal())
        if abs(mu) < 1e-2 or abs(mu - 1.0) < 1e-2:
            yield None
        else:
            yield bk.matching_identity_residual(base, first, second, mu)


def _suite_permutability(n, rng):
    squares = [(cc.make_circle(n), 4.0, 2.0), (_bump(n), 5.0, 3.0)]
    squares += [(_anchor(seed, n), c1, c2) for seed in (1, 2, 3) for c1, c2 in ((5.0, 3.0), (4.0, 2.0))]
    worst = max(bk.permutability_square(gamma, c1, c2).both_orders_distance for gamma, c1, c2 in squares)
    for r in islice(_matching_residuals(rng), 20):
        if r is not None:
            worst = max(worst, r)
    pinned = islice((r for r in _matching_residuals(np.random.default_rng(11)) if r is not None), 100)
    return float(max(worst, _scale("permutability", _MATCHING_IDENTITY_BOUND) * max(pinned)))


def _suite_form_relations(n, rng):
    worst = 0.0
    for gen, count in ((rng, 3), (np.random.default_rng(5), 5)):
        gamma = cc.random_projective(gen, n)
        G = cc.lift(gamma)
        pot = cc.curvature(G)
        for f, g in _field_pairs(gen, n, count):
            om, bo = iv.omega_pair(f, g), iv.big_omega_pair(pot, f, g)
            first, second = iv.projective_forms(gamma, f, g)
            worst = max(worst, abs(om - 0.5 * first) / max(1.0, abs(om)))
            worst = max(worst, abs(bo + 0.25 * second) / max(1.0, abs(bo)))
            worst = max(worst, abs(iv.omega_pair(f, pf.constant(1.0, n))))
            for k in iv.killing_fields(G):
                worst = max(worst, abs(iv.big_omega_pair(pot, k, g)))
    return float(worst)


def _ladder_residual(G, fields):
    res1 = kf.recursion_check(G, 1, fields)
    res2 = kf.recursion_check(G, 2, fields)
    return max(np.max(res1["second_form"]), np.max(res1["first_form"]), np.max(res2["second_form"]))


def _suite_recursion_ladder(n, rng):
    G = cc.lift(cc.random_projective(rng, n))
    worst = _ladder_residual(G, [_random_field(rng, n) for _ in range(6)])
    for seed in (3, 4, 5):
        gen = np.random.default_rng(100 + seed)
        fields = [pf.random_band_limited(gen, n, parity="periodic", max_mode=6) for _ in range(12)]
        worst = max(worst, _ladder_residual(cc.lift(_anchor(seed, n)), fields))
    return float(worst)


def _hamiltonian_drift(G, s):
    """Largest relative change of H1 and H2 along the curve flow to time s."""
    h1a, h2a = iv.hamiltonians(cc.curvature(G))
    h1b, h2b = iv.hamiltonians(cc.curvature(kf.evolve_curve(G, s)))
    return max(abs(h1b - h1a) / abs(h1a), abs(h2b - h2a) / abs(h2a))


def _suite_kdv_conservation(n, rng):
    # moderate amplitude: the flow suites probe conservation at the default
    # step, not the step-size limits of extreme curves
    G = cc.lift(cc.random_projective(rng, n, strength=0.35))
    moved = kf.evolve_curve(G, 0.05)
    before, after = iv.invariant_report(G), iv.invariant_report(moved)
    worst = max(
        abs(after[k] - before[k]) / max(1.0, abs(before[k]))
        for k in ("H1", "H2", "I", "J", "K")
    )
    lams = np.linspace(-2.0, 0.9, 11)
    sa = spectral_scan(cc.project(G), lams)
    sb = spectral_scan(cc.project(moved), lams)
    worst = max(worst, np.max(np.abs(sa.tr2 - sb.tr2) / np.maximum(1.0, np.abs(sa.tr2))))
    for seed in (1, 2, 3):
        worst = max(worst, _hamiltonian_drift(cc.lift(_anchor(seed, n)), 0.02))
    return float(worst)


def _suite_flow_commutation(n, rng):
    worst = kf.commutation_check(cc.lift(cc.make_circle(n)), 0.5, s=0.02)
    G = cc.lift(cc.random_projective(rng, n, strength=0.35))
    worst = max(worst, kf.commutation_check(G, 0.5, s=0.02))
    for seed in (1, 2, 3):
        worst = max(worst, kf.commutation_check(cc.lift(_anchor(seed, n)), 0.5, s=0.02))
    return float(worst)


def _suite_cross_ratio_limit(n, rng):
    circ = cc.make_circle(n)
    worst = abs(iv.cross_ratio_check(circ, bk.apply_tc_projective(circ, 4.0, "minus"), 0.0) - 4.0)
    bump = _bump(n)
    delta = bk.apply_tc_projective(bump, 4.0, "minus")
    for t0 in (0.0, 1.3):
        worst = max(worst, abs(iv.cross_ratio_check(bump, delta, t0) - 4.0))
    return float(worst)


_SUITES = (
    ("spectral_calculus", 1e-10, _suite_spectral_calculus),
    ("circle_anchors", 1e-8, _suite_circle_anchors),
    ("circle_spectrum", 1e-7, _suite_circle_spectrum),
    ("symplectic_invariance", 1e-6, _suite_symplectic_invariance),
    ("transform_integrals", 1e-8, _suite_transform_integrals),
    ("conjugacy", 1e-6, _suite_conjugacy),
    ("permutability", 1e-6, _suite_permutability),
    ("form_relations", 1e-8, _suite_form_relations),
    ("recursion_ladder", 1e-6, _suite_recursion_ladder),
    ("kdv_conservation", 1e-7, _suite_kdv_conservation),
    ("flow_commutation", 1e-5, _suite_flow_commutation),
    ("cross_ratio_limit", 1e-4, _suite_cross_ratio_limit),
)


def run_all(n: int = 128, seed: int = 7) -> list[SuiteResult]:
    """Run every suite on one seeded generator; deterministic in (n, seed).

    A suite stopped by a documented failure is a FAIL with residual inf,
    and the remaining suites still run; any other exception propagates,
    an argument check's ValueError (such as an odd n) too.
    """
    rng = np.random.default_rng(seed)
    results = []
    for name, tol, fn in _SUITES:
        try:
            results.append(SuiteResult(name, fn(n, rng), tol))
        except Exception as exc:
            if not documented(exc):
                raise
            results.append(SuiteResult(name, math.inf, tol, type(exc).__name__))
    return results


def format_report(results, n: int, seed: int) -> str:
    """One line per suite: residual, tolerance, margin in decades, PASS or FAIL,
    and the class of a documented failure that stopped the suite."""
    lines = [f"selfcheck n={n} seed={seed}"]
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = f"{r.name:<{width}}  {r.residual:12.5e}  tol {r.tol:8.1e}  margin {r.margin:6.2f}  {status}"
        lines.append(line if r.error is None else f"{line}  {r.error}")
    lines.append("all passed" if all(r.passed for r in results) else "FAILURES PRESENT")
    return "\n".join(lines)
