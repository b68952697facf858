import numpy as np
import pytest

import centrokdv.periodic_fn as pf
import centrokdv.curve_core as cc
import centrokdv.backlund as bk
import centrokdv.invariants as iv
from centrokdv.errors import Degenerate


def bump_curve(n=128, amp=0.1):
    t = pf.grid(n)
    return cc.ProjectiveCurve(pf.PeriodicFn(amp * np.sin(2 * t), "periodic"))


def random_setup(seed=5, n=128):
    rng = np.random.default_rng(seed)
    gamma = cc.random_projective(rng, n)
    return rng, gamma, cc.lift(gamma)


def test_omega_oracle_and_antisymmetry():
    t = pf.grid(64)
    f = pf.PeriodicFn(np.sin(2 * t), "periodic")
    g = pf.PeriodicFn(np.cos(2 * t), "periodic")
    assert abs(iv.omega_pair(f, g) + np.pi) < 1e-12
    assert abs(iv.omega_pair(g, f) - np.pi) < 1e-12
    assert abs(iv.omega_pair(f, f)) < 1e-14


def test_omega_kernel_constants():
    rng = np.random.default_rng(0)
    f = pf.random_band_limited(rng, 64, parity="periodic", max_mode=5)
    one = pf.PeriodicFn(np.ones(64), "periodic")
    assert abs(iv.omega_pair(f, one)) < 1e-14
    assert abs(iv.omega_pair(one, f)) < 1e-14


def test_big_omega_oracle():
    t = pf.grid(64)
    pot = pf.PeriodicFn(-np.ones(64), "periodic")
    f = pf.PeriodicFn(np.sin(4 * t), "periodic")
    g = pf.PeriodicFn(np.cos(4 * t), "periodic")
    assert abs(iv.big_omega_pair(pot, f, g) + 12 * np.pi) < 1e-10


def test_killing_fields_circle():
    G = cc.lift(cc.make_circle(64))
    t = pf.grid(64)
    k1, k2, k3 = iv.killing_fields(G)
    assert np.allclose(k1.samples, -np.sin(2 * t), atol=1e-12)
    assert np.allclose(k2.samples, np.cos(2 * t), atol=1e-12)
    assert np.allclose(k3.samples, 1.0, atol=1e-12)


def test_killing_fields_in_big_omega_kernel():
    rng, gamma, G = random_setup()
    pot = cc.curvature(G)
    g = pf.random_band_limited(rng, 128, parity="periodic", max_mode=4)
    for k in iv.killing_fields(G):
        assert abs(iv.big_omega_pair(pot, k, g)) < 1e-8
        assert abs(iv.big_omega_pair(pot, g, k)) < 1e-8


def test_killing_fields_satisfy_linear_ode():
    # kernel membership criterion: U'' = p U componentwise
    _, gamma, G = random_setup()
    pot = cc.curvature(G)
    for f in iv.killing_fields(G):
        u1, u2 = cc.tangent_field(G, f)
        r1 = pf.differentiate(u1, 2) - pot * u1
        r2 = pf.differentiate(u2, 2) - pot * u2
        assert np.max(np.abs(r1.samples)) < 1e-8
        assert np.max(np.abs(r2.samples)) < 1e-8


def test_projective_forms_match_plane_forms():
    rng, gamma, G = random_setup()
    pot = cc.curvature(G)
    for _ in range(3):
        f = pf.random_band_limited(rng, 128, parity="periodic", max_mode=4)
        g = pf.random_band_limited(rng, 128, parity="periodic", max_mode=4)
        om = iv.omega_pair(f, g)
        bo = iv.big_omega_pair(pot, f, g)
        first, second = iv.projective_forms(gamma, f, g)
        assert abs(first - 2.0 * om) < 1e-10 * max(1.0, abs(om))
        assert abs(second + 4.0 * bo) < 1e-8 * max(1.0, abs(bo))


def test_forms_invariant_under_transformation():
    rng, gamma, G = random_setup(seed=9)
    pot = cc.curvature(G)
    res = bk.apply_tc(G, 0.5, "minus")
    for _ in range(4):
        f1 = pf.random_band_limited(rng, 128, parity="periodic", max_mode=4)
        f2 = pf.random_band_limited(rng, 128, parity="periodic", max_mode=4)
        g1 = bk.pushforward_tangent(G, 0.5, "minus", f1, riccati=res.riccati)
        g2 = bk.pushforward_tangent(G, 0.5, "minus", f2, riccati=res.riccati)
        assert abs(iv.omega_pair(g1, g2) - iv.omega_pair(f1, f2)) < 1e-6
        before = iv.big_omega_pair(pot, f1, f2)
        after = iv.big_omega_pair(res.image_curvature, g1, g2)
        assert abs(after - before) < 1e-6


def test_hamiltonians_circle():
    pot = cc.curvature(cc.lift(cc.make_circle(64)))
    h1, h2 = iv.hamiltonians(pot)
    assert abs(h1 + np.pi) < 1e-12
    assert abs(h2 - np.pi / 2) < 1e-12


def test_ijk_circle_and_report():
    G = cc.lift(cc.make_circle(64))
    trip = iv.ijk(G)
    assert abs(trip.I - np.pi / 2) < 1e-12
    assert abs(trip.J) < 1e-14
    assert abs(trip.K - np.pi / 2) < 1e-12
    assert abs(trip.discriminant - np.pi**2 / 4) < 1e-12
    rep = iv.invariant_report(G)
    assert set(rep) == {"H1", "H2", "I", "J", "K", "discriminant"}
    assert abs(rep["H1"] + np.pi) < 1e-12
    assert abs(rep["discriminant"] - np.pi**2 / 4) < 1e-12


def test_moments_invariant_under_transformation():
    _, gamma, G = random_setup(seed=11)
    before = iv.ijk(G)
    pot = cc.curvature(G)
    h_before = iv.hamiltonians(pot)
    for branch in ("plus", "minus"):
        res = bk.apply_tc(G, 0.5, branch)
        after = iv.ijk(res.image)
        scale = max(abs(before.I), abs(before.K))
        assert abs(after.I - before.I) < 1e-8 * scale
        assert abs(after.J - before.J) < 1e-8 * scale
        assert abs(after.K - before.K) < 1e-8 * scale
        h_after = iv.hamiltonians(res.image_curvature)
        assert abs(h_after[0] - h_before[0]) < 1e-7 * max(1.0, abs(h_before[0]))
        assert abs(h_after[1] - h_before[1]) < 1e-7 * max(1.0, abs(h_before[1]))


def test_discriminant_sl2_invariant():
    rng, gamma, G = random_setup(seed=13)
    base = iv.ijk(G).discriminant
    for _ in range(5):
        A = cc.random_sl2(rng)
        moved = iv.ijk(cc.sl2_apply(A, G)).discriminant
        assert abs(moved - base) < 1e-9 * max(1.0, abs(base))


def test_sl2_hamiltonian_check_circle():
    G = cc.lift(cc.make_circle(64))
    t = pf.grid(64)
    f = pf.PeriodicFn(np.sin(2 * t), "periodic")
    resid = iv.sl2_hamiltonian_check(G, f)
    assert max(resid.values()) < 1e-8
    # the K derivative itself is pi for this profile
    fd = iv.moment_derivative(G, f)
    assert abs(fd[2] - np.pi) < 1e-8


def test_sl2_hamiltonian_check_reparametrization():
    # f constant only reparametrizes, so the moments do not move
    G = cc.lift(cc.make_circle(64))
    one = pf.PeriodicFn(np.ones(64), "periodic")
    fd = iv.moment_derivative(G, one)
    assert np.max(np.abs(fd)) < 1e-9
    resid = iv.sl2_hamiltonian_check(G, one)
    assert max(resid.values()) < 1e-9


def test_sl2_hamiltonian_check_random():
    rng, gamma, G = random_setup(seed=17)
    for _ in range(3):
        f = pf.random_band_limited(rng, 128, parity="periodic", max_mode=4)
        resid = iv.sl2_hamiltonian_check(G, f)
        assert max(resid.values()) < 1e-6


def test_cross_ratio_circle():
    circle = cc.make_circle(64)
    delta = bk.apply_tc_projective(circle, 4.0, "minus")
    # frozen small-separation form: CR(eps) = 4 sin^2 eps exactly on the circle
    a = float(circle.phi(0.0))
    b = float(circle.phi(0.1))
    c = float(delta.phi(0.0))
    d = float(delta.phi(0.1))
    cr = np.sin(a - b) * np.sin(c - d) / (np.sin(a - c) * np.sin(b - d))
    assert abs(cr - 4.0 * np.sin(0.1) ** 2) < 1e-9
    got = iv.cross_ratio_check(circle, delta, 0.0)
    assert abs(got - 4.0) < 1e-5


def test_cross_ratio_generic_curve():
    gamma = bump_curve()
    delta = bk.apply_tc_projective(gamma, 4.0, "minus")
    for t0 in (0.0, 1.3, 2.2):
        got = iv.cross_ratio_check(gamma, delta, t0)
        assert abs(got - 4.0) < 1e-4


def test_cross_ratio_degenerate_inputs():
    gamma = bump_curve()
    with pytest.raises(Degenerate):
        iv.cross_ratio_check(gamma, gamma, 0.0)
