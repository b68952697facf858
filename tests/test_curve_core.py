"""Tests for curve types, lift/projection, and curvature."""

import numpy as np
import pytest

from centrokdv import curve_core as cc
from centrokdv import periodic_fn as pf
from centrokdv.errors import NonMonotone, OffUnity


def bump_curve(n, amp=0.1):
    return cc.ProjectiveCurve(pf.from_callable(lambda t: amp * np.sin(2 * t), n))


def test_circle_lift():
    G = cc.lift(cc.make_circle(64))
    t = pf.grid(64)
    assert np.allclose(G.gamma1.samples, np.cos(t), atol=1e-14)
    assert np.allclose(G.gamma2.samples, np.sin(t), atol=1e-14)
    p = cc.curvature(G)
    assert np.allclose(p.samples, -1.0, atol=1e-11)


def test_lift_unit_wronskian():
    G = cc.lift(bump_curve(128))
    w = G.wronskian()
    assert np.max(np.abs(w.samples - 1.0)) < 1e-10


def test_nonmonotone_rejected():
    with pytest.raises(NonMonotone):
        cc.ProjectiveCurve(pf.from_callable(lambda t: 0.6 * np.sin(2 * t), 64))


def test_project_round_trip():
    gamma = bump_curve(128)
    back = cc.project(cc.lift(gamma))
    assert np.max(np.abs(back.psi.samples - gamma.psi.samples)) < 1e-10


def test_lift_project_sign_ambiguity():
    G = cc.lift(bump_curve(128))
    neg = cc.CentroAffineCurve(-1.0 * G.gamma1, -1.0 * G.gamma2)
    again = cc.lift(cc.project(neg))
    # the recovered lift is one of the two signs, exactly
    d_plus = cc.curve_distance(again, neg)
    flip = cc.CentroAffineCurve(-1.0 * again.gamma1, -1.0 * again.gamma2)
    d_minus = cc.curve_distance(flip, neg)
    assert min(d_plus, d_minus) < 1e-10
    # and project always lands psi(0) in the canonical window
    assert -np.pi / 2 < cc.project(neg).psi.samples[0] <= np.pi / 2


def off_unity_circle(n):
    """(cos t, 1.1 sin t): Wronskian 1.1, so construction raises."""
    return cc.CentroAffineCurve(
        pf.from_callable(np.cos, n, "antiperiodic"),
        pf.from_callable(lambda t: 1.1 * np.sin(t), n, "antiperiodic"),
    )


def wound_curve():
    """Unit-Wronskian plane curve with rotation number three."""
    t = pf.grid(128)
    g1 = pf.PeriodicFn(np.cos(3 * t) / np.sqrt(3.0), "antiperiodic")
    g2 = pf.PeriodicFn(np.sin(3 * t) / np.sqrt(3.0), "antiperiodic")
    return cc.CentroAffineCurve(g1, g2)


def test_project_rejects_winding_curve():
    with pytest.raises(NonMonotone):
        cc.project(wound_curve())


def test_angle_closure_bound_counts_the_path_steps_not_the_grid_points():
    # grid angles of a path of K = 8n increments: the bound is pi K eps, not pi n eps
    n, steps = 128, 8 * 128
    eps = np.finfo(float).eps
    defect = 3e-13
    assert np.pi * n * eps < defect < np.pi * steps * eps
    t = np.arange(n + 1) * (np.pi / n)
    theta = t + 0.1 * np.sin(2 * t) + 0.3
    theta[-1] += defect
    curve = cc._from_angles(theta, steps)
    assert np.max(np.abs(curve.psi.samples - (0.1 * np.sin(2 * t[:-1]) + 0.3))) <= 1e-15
    with pytest.raises(NonMonotone, match="rotation number"):
        cc._from_angles(theta, n)


@pytest.mark.parametrize(
    "build, error, prefix",
    [
        (lambda: cc.ProjectiveCurve(pf.from_callable(lambda t: 0.6 * np.sin(2 * t), 64)), NonMonotone, "min phi' = "),
        (lambda: cc.project(wound_curve()), NonMonotone, "rotation number "),
        (lambda: cc.sl2_apply(np.diag([2.0, 1.0]), cc.lift(cc.make_circle(64))), ValueError, "det = "),
        # caller samples off unit Wronskian are bad input; a computed lift that misses is a numerical failure
        (lambda: off_unity_circle(64), ValueError, "Wronskian off unity by "),
        (
            lambda: cc.lift(cc.random_projective(np.random.default_rng(7), 64)),
            OffUnity,
            "lifted curve: Wronskian off unity by ",
        ),
    ],
    ids=["min_phi_prime", "rotation_number", "sl2_apply_det", "caller_samples_off_unity", "lift_off_unity"],
)
def test_gate_messages_print_plain_numbers(build, error, prefix):
    # numpy 2 prints a numpy scalar's repr as np.float64(...); the gates cast to float first
    with pytest.raises(error) as info:
        build()
    message = str(info.value)
    assert message.startswith(prefix)
    float(message[len(prefix):].split()[0].rstrip(","))


def test_curvature_residual():
    rng = np.random.default_rng(5)
    G = cc.lift(cc.random_projective(rng, 128))
    p = cc.curvature(G)
    for comp in (G.gamma1, G.gamma2):
        resid = pf.differentiate(comp, 2) - p * comp
        assert np.max(np.abs(resid.samples)) < 1e-8


def test_curvature_from_angle_matches_components():
    rng = np.random.default_rng(6)
    gamma = cc.random_projective(rng, 128)
    p_angle = gamma.curvature()
    p_comp = cc.curvature(cc.lift(gamma))
    assert np.max(np.abs(p_angle.samples - p_comp.samples)) < 1e-9


@pytest.mark.parametrize("n", [64, 512])
def test_hill_potential_is_the_four_derivative_formula_bit_for_bit(n):
    # two forward transforms give what one derivative call per factor gave
    Gamma = cc.lift(cc.random_projective(np.random.default_rng(2), n, strength=0.35))
    g1, g2 = Gamma.gamma1, Gamma.gamma2
    p = pf.differentiate(g1, 2) * pf.differentiate(g2) - pf.differentiate(g2, 2) * pf.differentiate(g1)
    nyquist = pf.nyquist_mode(n)
    ref = p.samples - np.mean(p.samples * nyquist) * nyquist
    assert np.array_equal(cc.hill_potential(g1, g2).samples, ref)
    assert np.array_equal(cc.curvature(Gamma).samples, ref)


def test_curvature_sl2_invariant():
    rng = np.random.default_rng(7)
    G = cc.lift(cc.random_projective(rng, 128))
    p = cc.curvature(G)
    for _ in range(5):
        A = cc.random_sl2(rng)
        q = cc.curvature(cc.sl2_apply(A, G))
        assert np.max(np.abs(q.samples - p.samples)) < 1e-10


def test_affine_chart_derivative_identity():
    # gamma' = 1/Gamma_1^2 away from the chart pole
    rng = np.random.default_rng(8)
    gamma = cc.random_projective(rng, 128)
    G = cc.lift(gamma)
    for t0 in (0.1, 0.7, 2.9):
        if abs(np.cos(gamma.phi(t0))) < 0.3:
            continue
        h = 1e-6
        fd = (gamma.gamma(t0 + h) - gamma.gamma(t0 - h)) / (2 * h)
        inv = 1.0 / pf.evaluate(G.gamma1, t0) ** 2
        assert abs(fd - inv) / abs(inv) < 1e-8


def test_tangent_field_reparametrization():
    rng = np.random.default_rng(9)
    G = cc.lift(cc.random_projective(rng, 64))
    u1, u2 = cc.tangent_field(G, pf.constant(1.0, 64))
    assert np.allclose(u1.samples, pf.differentiate(G.gamma1).samples, atol=1e-12)
    assert np.allclose(u2.samples, pf.differentiate(G.gamma2).samples, atol=1e-12)


def test_tangent_field_circle_generator():
    # on the circle the field (Gamma_2, 0) is the deformation with profile -Gamma_2^2
    n = 64
    G = cc.lift(cc.make_circle(n))
    f = pf.from_callable(lambda t: -np.sin(t) ** 2, n)
    u1, u2 = cc.tangent_field(G, f)
    assert np.allclose(u1.samples, G.gamma2.samples, atol=1e-12)
    assert np.allclose(u2.samples, 0.0, atol=1e-12)


def test_tangent_field_preserves_wronskian_to_second_order():
    rng = np.random.default_rng(10)
    G = cc.lift(cc.random_projective(rng, 128))
    f = pf.random_band_limited(rng, 128, max_mode=4)
    u1, u2 = cc.tangent_field(G, f)
    errs = []
    for eps in (1e-2, 5e-3):
        g1 = G.gamma1 + eps * u1
        g2 = G.gamma2 + eps * u2
        w = g1 * pf.differentiate(g2) - g2 * pf.differentiate(g1)
        errs.append(np.max(np.abs(w.samples - 1.0)))
    assert 3.5 < errs[0] / errs[1] < 4.5


def test_random_projective_margin_and_reproducibility():
    g64 = cc.random_projective(np.random.default_rng(3), 64, strength=0.6)
    g128 = cc.random_projective(np.random.default_rng(3), 128, strength=0.6)
    assert np.max(np.abs(pf.upsample(g64.psi, 128).samples - g128.psi.samples)) < 1e-12
    fine = pf.upsample(g128.phi_prime, 1024).samples
    assert fine.min() > 0.39


def test_sl2_exp_unimodular():
    rng = np.random.default_rng(4)
    for _ in range(10):
        A = cc.random_sl2(rng, scale=0.8)
        assert abs(np.linalg.det(A) - 1.0) < 1e-12


def test_wrap_half_pi():
    assert abs(cc.wrap_half_pi(np.pi)) < 1e-15
    assert abs(cc.wrap_half_pi(0.6 * np.pi) - (-0.4 * np.pi)) < 1e-15
    assert cc.wrap_half_pi(np.pi / 2) == np.pi / 2


def test_json_round_trip(tmp_path):
    rng = np.random.default_rng(12)
    gamma = cc.random_projective(rng, 64)
    path = tmp_path / "curve.json"
    cc.save_curve(gamma, path, meta={"seed": 12})
    back = cc.load_curve(path)
    assert isinstance(back, cc.ProjectiveCurve)
    assert np.array_equal(back.psi.samples, gamma.psi.samples)

    G = cc.lift(cc.random_projective(np.random.default_rng(12), 128))
    cc.save_curve(G, path)
    back = cc.load_curve(path)
    assert isinstance(back, cc.CentroAffineCurve)
    assert np.array_equal(back.gamma1.samples, G.gamma1.samples)
    assert np.array_equal(back.gamma2.samples, G.gamma2.samples)
