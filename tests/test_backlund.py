import numpy as np
import pytest

import centrokdv.periodic_fn as pf
import centrokdv.curve_core as cc
import centrokdv.backlund as bk
import centrokdv.kdv_flow as kf
import centrokdv.riccati_monodromy as rm
from centrokdv.errors import (
    BranchSingular,
    Degenerate,
    NegativeProjective,
    NoRealFixedPoints,
    NumericalFailure,
    OffUnity,
    ZeroParam,
)

ROOT3 = np.sqrt(3.0)


def bump_curve(n=128, amp=0.1):
    t = pf.grid(n)
    return cc.ProjectiveCurve(pf.PeriodicFn(amp * np.sin(2 * t), "periodic"))


def pair_wronskian(Gamma, Delta):
    """Cross determinant [Gamma, Delta] as a PeriodicFn."""
    return Gamma.gamma1 * Delta.gamma2 - Gamma.gamma2 * Delta.gamma1


def test_param_convert_round_trip():
    p = bk.param_convert(0.5, "affine")
    assert p.c_aff == 0.5 and p.c_pr == 4.0
    q = bk.param_convert(4.0, "projective")
    assert q.c_aff == 0.5 and q.c_pr == 4.0
    r = bk.param_convert(-0.5, "affine")
    assert r.c_pr == 4.0
    with pytest.raises(ZeroParam):
        bk.param_convert(0.0, "affine")
    with pytest.raises(ZeroParam):
        bk.param_convert(0.0, "projective")
    with pytest.raises(NegativeProjective):
        bk.param_convert(-1.0, "projective")
    with pytest.raises(ValueError):
        bk.param_convert(1.0, "spherical")


def test_circle_anchor_minus_branch():
    # c = 1/2 on the circle: w = +sqrt(3)/2 and the image is the rotation by pi/6
    Gamma = cc.lift(cc.make_circle(64))
    res = bk.apply_tc(Gamma, 0.5, "minus")
    t = pf.grid(64)
    assert np.allclose(res.riccati.solution.samples, ROOT3 / 2, atol=1e-9)
    assert np.allclose(res.image.gamma1.samples, np.cos(t + np.pi / 6), atol=1e-9)
    assert np.allclose(res.image.gamma2.samples, np.sin(t + np.pi / 6), atol=1e-9)
    assert np.allclose(res.image_curvature.samples, -1.0, atol=1e-9)


def test_circle_anchor_plus_branch():
    # the growing branch gives w = -sqrt(3)/2, image -Gamma(. - pi/6)
    Gamma = cc.lift(cc.make_circle(64))
    res = bk.apply_tc(Gamma, 0.5, "plus")
    t = pf.grid(64)
    assert np.allclose(res.riccati.solution.samples, -ROOT3 / 2, atol=1e-9)
    assert np.allclose(res.image.gamma1.samples, -np.cos(t - np.pi / 6), atol=1e-9)
    assert np.allclose(res.image.gamma2.samples, -np.sin(t - np.pi / 6), atol=1e-9)


def test_circle_elliptic_parameter_rejected():
    Gamma = cc.lift(cc.make_circle(64))
    with pytest.raises(NoRealFixedPoints):
        bk.apply_tc(Gamma, 2.0, "minus")


def test_gate_rejects_image_off_unit_wronskian():
    t = pf.grid(128)
    circle = [pf.PeriodicFn(np.cos(t), "antiperiodic"), pf.PeriodicFn(np.sin(t), "antiperiodic")]
    assert isinstance(bk.gate_image(*circle), cc.CentroAffineCurve)
    # (cos t, sin t) has Wronskian 1; scaling both by sqrt(1 + 2e-9) gives 1 + 2e-9
    g1, g2 = (np.sqrt(1.0 + 2e-9) * g for g in circle)
    assert cc.wronskian_defect(g1, g2) == pytest.approx(2e-9, rel=1e-3)
    with pytest.raises(OffUnity):
        bk.gate_image(g1, g2)
    assert issubclass(OffUnity, NumericalFailure)


def test_plane_map_builds_apply_tc_image():
    Gamma = cc.lift(cc.random_projective(np.random.default_rng(4), 128, strength=0.35))
    res = bk.apply_tc(Gamma, 0.5, "minus")
    g1, g2, pot = bk.plane_map(Gamma, cc.curvature(Gamma), res.riccati.solution, 0.5)
    assert np.array_equal(g1.samples, res.image.gamma1.samples)
    assert np.array_equal(g2.samples, res.image.gamma2.samples)
    assert np.array_equal(pot.samples, res.image_curvature.samples)


def test_pair_wronskian_and_potential_relations():
    gamma = bump_curve(128)
    Gamma = cc.lift(gamma)
    pot = cc.curvature(Gamma)
    for c in (0.5, -0.7):
        for branch in ("plus", "minus"):
            res = bk.apply_tc(Gamma, c, branch)
            w = res.riccati.solution
            cross = pair_wronskian(Gamma, res.image)
            assert np.max(np.abs(cross.samples - c)) < 1e-8
            # two expressions for the image potential must agree
            alt = (2.0 / c**2) * (w * w - 1.0) - pot
            assert np.max(np.abs(res.image_curvature.samples - alt.samples)) < 1e-8
            # mean of the potential is untouched
            assert abs(pf.integrate_period(res.image_curvature) - pf.integrate_period(pot)) < 1e-10


def test_involution_opposite_branch():
    gamma = bump_curve(128)
    Gamma = cc.lift(gamma)
    res = bk.apply_tc(Gamma, 0.5, "minus")
    # upsample between the two steps: the image's tail modes alias at 128
    img = cc.CentroAffineCurve(
        pf.upsample(res.image.gamma1, 256), pf.upsample(res.image.gamma2, 256)
    )
    back = bk.apply_tc(img, 0.5, "plus")
    flipped = cc.CentroAffineCurve(-Gamma.gamma1, -Gamma.gamma2)
    assert cc.curve_distance(back.image, flipped) < 1e-7


def test_projective_circle_both_branches():
    gamma = cc.make_circle(64)
    minus = bk.apply_tc_projective(gamma, 4.0, "minus")
    plus = bk.apply_tc_projective(gamma, 4.0, "plus")
    assert np.allclose(minus.psi.samples, np.pi / 6, atol=1e-9)
    assert np.allclose(plus.psi.samples, -np.pi / 6, atol=1e-9)


def reflect_curve(gamma):
    """The curve with angle pi - phi(pi - t): psi(t) -> -psi(pi - t)."""
    return cc.ProjectiveCurve(pf.PeriodicFn(-np.roll(gamma.psi.samples[::-1], 1), "periodic"))


def angle_equation_residual(gamma, delta, c_pr):
    """Relative sup residual of chi' = c_pr sin^2(chi - phi) / phi' on the grid, chi delta's angle."""
    rhs = c_pr * np.sin(delta.psi.samples - gamma.psi.samples) ** 2 / gamma.phi_prime.samples
    return np.max(np.abs(delta.phi_prime.samples - rhs)) / np.max(np.abs(rhs))


HYPERBOLIC_CURVES = {
    "circle": lambda: cc.make_circle(128),
    "rng2": lambda: cc.random_projective(np.random.default_rng(2), 128),
}


@pytest.mark.parametrize("c_pr", [100.0, 400.0])
@pytest.mark.parametrize("name", sorted(HYPERBOLIC_CURVES))
def test_projective_minus_branch_closes_at_large_constants(name, c_pr):
    # shot forward, the repelling branch cancels and misses closure by up to 25 radians
    gamma = HYPERBOLIC_CURVES[name]()
    minus = bk.apply_tc_projective(gamma, c_pr, "minus")
    plus = bk.apply_tc_projective(gamma, c_pr, "plus")
    _, chi_minus = rm.moebius_monodromy(gamma, c_pr).fixed_angles()
    assert abs(cc.wrap_half_pi(minus.psi.samples[0] - chi_minus)) <= 1e-10
    assert angle_equation_residual(gamma, minus, c_pr) <= 2.0 * angle_equation_residual(gamma, plus, c_pr)
    if name == "circle":  # the images are the rotations by -+arcsin(1/sqrt(c_pr)), up to RK4 error
        shift = np.arcsin(1.0 / np.sqrt(c_pr))
        rk4_error = np.max(np.abs(plus.psi.samples + shift))
        assert np.max(np.abs(minus.psi.samples - shift)) <= 1.01 * rk4_error <= 1e-10


@pytest.mark.parametrize("c_pr", [4.0, 100.0])
def test_projective_minus_branch_is_the_reflected_plus_branch(c_pr):
    gamma = cc.random_projective(np.random.default_rng(2), 128)
    minus = bk.apply_tc_projective(gamma, c_pr, "minus")
    mirrored = reflect_curve(bk.apply_tc_projective(reflect_curve(gamma), c_pr, "plus"))
    assert np.array_equal(minus.psi.samples, mirrored.psi.samples)


def test_projective_elliptic_rejected():
    gamma = cc.make_circle(64)
    with pytest.raises(NoRealFixedPoints):
        bk.apply_tc_projective(gamma, 0.5, "minus")


def test_projective_matches_plane_picture():
    gamma = bump_curve(128)
    c_pr = 4.0
    c_aff = bk.param_convert(c_pr, "projective").c_aff
    for branch in ("plus", "minus"):
        direct = bk.apply_tc_projective(gamma, c_pr, branch)
        via_plane = cc.project(bk.apply_tc(cc.lift(gamma), c_aff, branch).image)
        assert cc.projective_distance(direct, via_plane) < 1e-7


def test_pushforward_circle_oracles():
    Gamma = cc.lift(cc.make_circle(64))
    t = pf.grid(64)
    f = pf.PeriodicFn(np.sin(2 * t), "periodic")
    g = bk.pushforward_tangent(Gamma, 0.5, "minus", f)
    assert np.max(np.abs(g.samples - np.sin(2 * t + np.pi / 3))) < 1e-9
    one = pf.PeriodicFn(np.ones(64), "periodic")
    g1 = bk.pushforward_tangent(Gamma, 0.5, "minus", one)
    assert np.max(np.abs(g1.samples - 1.0)) < 1e-9


def test_pushforward_pair_relation():
    # (c/2)(f' + g') = w (g - f) ties profile pairs to the Riccati solution
    gamma = bump_curve(128)
    Gamma = cc.lift(gamma)
    rng = np.random.default_rng(7)
    plus, minus = __import__("centrokdv.riccati_monodromy", fromlist=["x"]).riccati_periodic_solutions(
        cc.curvature(Gamma), 0.5
    )
    for sol in (plus, minus):
        f = pf.random_band_limited(rng, 128, parity="periodic", max_mode=3)
        g = bk.pushforward_tangent(Gamma, 0.5, sol.branch, f, riccati=sol)
        lhs = 0.25 * (pf.differentiate(f) + pf.differentiate(g))
        rhs = sol.solution * (g - f)
        assert np.max(np.abs(lhs.samples - rhs.samples)) < 1e-8


def test_moebius_conjugacy_random_curve():
    gamma = bump_curve(128)
    c_pr = 4.0
    delta = bk.apply_tc_projective(gamma, c_pr, "minus")
    for lam in (-1.0, 0.5, 2.0, 6.0, 9.0):
        resid = bk.moebius_conjugacy_residual(gamma, delta, c_pr, lam)
        assert resid < 1e-6, (lam, resid)


def test_matching_identity_random_triples():
    rng = np.random.default_rng(11)
    for _ in range(50):
        base, first, second = rng.normal(scale=2.0, size=3)
        mu = rng.normal()
        if abs(mu) < 1e-2 or abs(mu - 1.0) < 1e-2:
            continue
        resid = bk.matching_identity_residual(base, first, second, mu)
        assert resid < 1e-12


def test_permutability_circle():
    gamma = cc.make_circle(64)
    sq = bk.permutability_square(gamma, 4.0, 2.0)
    assert abs(sq.mu + 1.0) < 1e-15
    assert abs(sq.nu - 0.5) < 1e-15
    # T_2 T_4 circle = rotation by 5 pi / 12 in the angle chart
    assert np.allclose(sq.gamma1.psi.samples, np.pi / 6, atol=1e-9)
    assert np.allclose(sq.gamma2.psi.samples, np.pi / 4, atol=1e-9)
    assert np.allclose(sq.gamma12.psi.samples, 5 * np.pi / 12, atol=1e-7)
    assert sq.both_orders_distance < 1e-7
    assert sq.prediction_residual < 1e-7


def test_permutability_random_curve():
    gamma = bump_curve(128)
    sq = bk.permutability_square(gamma, 5.0, 3.0)
    assert sq.both_orders_distance < 1e-6
    assert sq.prediction_residual < 1e-5


def test_permutability_closes_at_strongly_hyperbolic_constants():
    sq = bk.permutability_square(cc.make_circle(128), 100.0, 50.0)
    assert sq.both_orders_distance <= 1e-6


@pytest.mark.parametrize("branches", [(a, b) for a in ("plus", "minus") for b in ("plus", "minus")])
def test_permutability_second_legs_keep_the_first_legs_labels(branches):
    sq = bk.permutability_square(bump_curve(128), 5.0, 3.0, branches=branches)
    gamma12 = bk.apply_tc_projective(sq.gamma1, 3.0, branches[1])
    gamma21 = bk.apply_tc_projective(sq.gamma2, 5.0, branches[0])
    assert np.array_equal(sq.gamma12.psi.samples, gamma12.psi.samples)
    assert np.array_equal(sq.gamma21.psi.samples, gamma21.psi.samples)


def test_permutability_square_integrates_four_legs(monkeypatch):
    legs = []
    monodromy = bk.moebius_monodromy

    def counted(*args, **kw):
        if kw.get("keep_trajectory"):
            legs.append(args[1])
        return monodromy(*args, **kw)

    monkeypatch.setattr(bk, "moebius_monodromy", counted)
    bk.permutability_square(bump_curve(128), 5.0, 3.0)
    assert legs == [5.0, 3.0, 3.0, 5.0]


def test_projective_bad_label_fails_before_integrating(monkeypatch):
    def forbidden(*args, **kw):
        raise AssertionError("integrated before checking the label")

    monkeypatch.setattr(bk, "moebius_monodromy", forbidden)
    with pytest.raises(ValueError, match="branch must be"):
        bk.apply_tc_projective(bump_curve(64), 4.0, "both")


def test_apply_tc_shoots_once_at_512(monkeypatch):
    G = cc.lift(cc.random_projective(np.random.default_rng(2), 512))
    shootings = []
    shoot = rm.hill_fundamental
    monkeypatch.setattr(rm, "hill_fundamental", lambda *a, **kw: shootings.append(1) or shoot(*a, **kw))
    bk.apply_tc(G, 0.5, "minus")
    # only the requested branch is shot, in its growing direction
    assert shootings == [1]


@pytest.mark.parametrize(
    "call",
    [
        lambda G: bk.apply_tc(G, 0.5, "minus"),
        lambda G: bk.pushforward_tangent(G, 0.5, "plus", pf.random_band_limited(np.random.default_rng(3), G.n)),
        lambda G: kf.commutation_check(G, 0.5, "minus"),
    ],
    ids=["apply_tc", "pushforward_tangent", "commutation_check"],
)
def test_plane_map_makes_no_dense_solve(call, monkeypatch):
    solves = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda *a, **kw: solves.append(1) or solve(*a, **kw))
    call(cc.lift(cc.random_projective(np.random.default_rng(1), 128)))
    assert solves == []


@pytest.mark.parametrize("label", ["plus", "minus"])
@pytest.mark.parametrize("c", [0.22, 0.2, 0.1])
def test_strongly_hyperbolic_circle_has_no_false_pole(c, label):
    # the Floquet solution grows by |mu| > 1e6 over the period here, yet w is constant
    res = bk.apply_tc(cc.lift(cc.make_circle(128)), c, label)
    want = c * np.sqrt(1.0 / c**2 - 1.0) * (1.0 if label == "minus" else -1.0)
    assert np.max(np.abs(res.riccati.solution.samples - want)) <= 1e-12


def test_pushforward_rejects_a_riccati_branch_of_another_request(monkeypatch):
    G = cc.lift(cc.random_projective(np.random.default_rng(1), 128))
    f = pf.random_band_limited(np.random.default_rng(3), 128)
    plus = rm.riccati_branch(cc.curvature(G), 0.5, "plus")

    def forbidden(*args):
        raise AssertionError("solved before checking the request")

    monkeypatch.setattr(rm, "_floquet_solve", forbidden)
    for branch, c in (("both", 0.5), ("minus", 0.5), ("plus", 0.4)):
        with pytest.raises(ValueError):
            bk.pushforward_tangent(G, c, branch, f, riccati=plus)


@pytest.mark.parametrize(
    "call",
    [
        lambda G: bk.apply_tc(G, 0.5, "both"),
        lambda G: bk.pushforward_tangent(G, 0.5, "both", pf.constant(1.0, G.n)),
        lambda G: kf.commutation_check(G, 0.5, "both"),
    ],
    ids=["apply_tc", "pushforward_tangent", "commutation_check"],
)
def test_plane_bad_label_fails_before_integrating(call, monkeypatch):
    shootings = []
    shoot = rm.hill_fundamental
    monkeypatch.setattr(rm, "hill_fundamental", lambda *a, **kw: shootings.append(1) or shoot(*a, **kw))
    with pytest.raises(ValueError, match="branch must be"):
        call(cc.lift(bump_curve(64)))
    assert shootings == []


def test_permutability_equal_constants_rejected():
    gamma = cc.make_circle(64)
    with pytest.raises(Degenerate):
        bk.permutability_square(gamma, 4.0, 4.0)
