import re
import warnings

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
    StepUnstable,
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


def test_gate_rejects_image_off_unit_wronskian(monkeypatch):
    Gamma = cc.lift(cc.make_circle(128))
    assert isinstance(bk.apply_tc(Gamma, 0.5).image, cc.CentroAffineCurve)
    # the circle's image (cos, sin)(t - pi/6) has Wronskian 1 up to its own
    # roundoff (about 8e-12); scaling both components by sqrt(1 + 2e-9) gives 1 + 2e-9
    build = bk.plane_map

    def off_unity(*args):
        g1, g2, pot = build(*args)
        return np.sqrt(1.0 + 2e-9) * g1, np.sqrt(1.0 + 2e-9) * g2, pot

    monkeypatch.setattr(bk, "plane_map", off_unity)
    with pytest.raises(OffUnity) as info:
        bk.apply_tc(Gamma, 0.5)
    defect, tol = str(info.value).split(" by ")[1].split(" > ")
    assert float(defect) == pytest.approx(2e-9, abs=1e-11) and float(tol) == cc.WRONSKIAN_TOL
    assert issubclass(OffUnity, NumericalFailure)


def test_plane_map_builds_apply_tc_image():
    Gamma = cc.lift(cc.random_projective(np.random.default_rng(4), 128, strength=0.35))
    res = bk.apply_tc(Gamma, 0.5, "minus")
    g1, g2, pot = bk.plane_map(Gamma, cc.curvature(Gamma), res.riccati.solution, 0.5)
    assert np.array_equal(g1.samples, res.image.gamma1.samples)
    assert np.array_equal(g2.samples, res.image.gamma2.samples)
    assert np.array_equal(pot.samples, res.image_curvature.samples)


def test_plane_map_is_the_per_component_formula_bit_for_bit():
    rng = np.random.default_rng(5)
    Gamma = cc.lift(cc.random_projective(rng, 128, strength=0.35))
    pot, w = cc.curvature(Gamma), pf.random_band_limited(rng, 128, max_mode=4)
    g1, g2, image_pot = bk.plane_map(Gamma, pot, w, 0.5)
    for got, g in zip((g1, g2), (Gamma.gamma1, Gamma.gamma2)):
        want = w * g + 0.5 * pf.differentiate(g)
        assert got.parity == "antiperiodic" and np.array_equal(got.samples, want.samples)
    assert np.array_equal(image_pot.samples, (pot + 4.0 * pf.differentiate(w)).samples)


def test_plane_map_refuses_a_w_on_another_grid():
    # the package's own message, not numpy's broadcast error
    Gamma = cc.lift(cc.make_circle(64))
    with pytest.raises(ValueError, match="^sample counts differ$"):
        bk.plane_map(Gamma, cc.curvature(Gamma), pf.constant(1.0, 128), 0.5)


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
    mono = rm.moebius_monodromy(gamma, c_pr)
    _, chi_minus = mono.fixed_angles()
    assert abs(cc.wrap_half_pi(minus.psi.samples[0] - chi_minus)) <= 1e-10
    (mu_plus, _), (mu_minus, _) = mono.eigen_system()
    assert abs(mu_plus * mu_minus - 1.0) <= 4.0 * np.finfo(float).eps
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


LABEL_PAIRS = [(a, b) for a in ("plus", "minus") for b in ("plus", "minus")]


@pytest.mark.parametrize("branches", LABEL_PAIRS)
def test_permutability_second_legs_keep_the_first_legs_labels(branches):
    sq = bk.permutability_square(bump_curve(128), 5.0, 3.0, branches=branches)
    gamma12 = bk.apply_tc_projective(sq.gamma1, 3.0, branches[1])
    gamma21 = bk.apply_tc_projective(sq.gamma2, 5.0, branches[0])
    assert np.array_equal(sq.gamma12.psi.samples, gamma12.psi.samples)
    # the closed-form corner is the other order's shot, to the shots' own error
    assert cc.projective_distance(sq.gamma21, gamma21) <= 1e-9
    assert sq.both_orders_distance == cc.projective_distance(sq.gamma12, sq.gamma21)
    assert sq.prediction_residual == abs(cc.wrap_half_pi(sq.gamma12.psi.samples[0] - sq.gamma21.psi.samples[0]))


@pytest.mark.parametrize("branches", [("minus", "minus"), ("plus", "minus")])
def test_permutability_square_shoots_three_legs(branches, monkeypatch):
    steps = []
    transfer = rm._rk4_transfer

    def counted(b_half, h, *args, **kw):
        steps.append(h)
        return transfer(b_half, h, *args, **kw)

    monkeypatch.setattr(rm, "_rk4_transfer", counted)
    bk.permutability_square(bump_curve(128), 5.0, 3.0, branches=branches)
    h = rm._step_size(rm.DEFAULT_SUBSTEPS, 128)
    # both first legs ride one batched transfer when their labels match; the second leg is the check.
    # Every shot is a moebius_monodromy call at an array of constants, so a single shot's steps have shape (1,)
    first = [np.array([5.0 * h, 3.0 * h])] if branches[0] == branches[1] else [np.array([5.0 * h]), np.array([3.0 * h])]
    assert len(steps) == len(first) + 1
    for got, want in zip(steps, first + [np.array([3.0 * h])]):
        assert np.shape(got) == np.shape(want) and np.array_equal(got, want)


@pytest.mark.parametrize("label", ["plus", "minus"])
@pytest.mark.parametrize("substeps", [1, 3, 8])
@pytest.mark.parametrize("n", [64, 128, 2048])
def test_batched_shot_is_each_constants_single_shot_bit_for_bit(n, substeps, label):
    # each constant's entry of the batched transfer is its own shot;
    # where a single shot fails its closure gate the batch fails the same way
    gamma = cc.random_projective(np.random.default_rng(1), n, 0.35)
    base = gamma if label == "plus" else bk._reflect_curve(gamma)
    b_half = rm._angle_b_half(base, substeps)
    h = rm._step_size(substeps, n)
    batched = rm._rk4_transfer(b_half, np.array([5.0 * h, 3.0 * h]), substeps, square=0.0)
    maps, trajectories = rm.moebius_monodromy(base, [5.0, 3.0], substeps, keep_trajectory=True)
    assert trajectories.shape == (2, n + 1, 2, 2) and np.array_equal(maps, trajectories[:, -1])
    for j, c_pr in enumerate((5.0, 3.0)):
        assert np.array_equal(batched[j], rm._rk4_transfer(b_half, c_pr * h, substeps, square=0.0))
        # the entries of the batched period map are the single-constant maps and trajectories
        single, traj = rm.moebius_monodromy(base, c_pr, substeps, keep_trajectory=True)
        assert np.array_equal(maps[j], single.m) and np.array_equal(trajectories[j], traj)
    singles = []
    for c_pr in (5.0, 3.0):
        try:
            singles.append(bk.apply_tc_projective(gamma, c_pr, label, substeps=substeps).psi.samples)
        except NumericalFailure as exc:
            singles.append(exc)
    failed = [x for x in singles if isinstance(x, NumericalFailure)]
    if failed:
        with pytest.raises(type(failed[0]), match=re.escape(str(failed[0]))):
            bk._shots(gamma, (5.0, 3.0), label, substeps)
    else:
        images = bk._shots(gamma, (5.0, 3.0), label, substeps)
        assert all(np.array_equal(a.psi.samples, b) for a, b in zip(images, singles))


def square_base(curve):
    """The circle, or random_projective(default_rng(k), 128, 0.6) for curve "seed<k>"."""
    if curve == "circle":
        return cc.make_circle(128)
    return cc.random_projective(np.random.default_rng(int(curve.removeprefix("seed"))), 128, 0.6)


@pytest.mark.parametrize("branches", LABEL_PAIRS)
@pytest.mark.parametrize("curve", ["circle", "seed1", "seed2"])
def test_superposed_corner_is_the_shots_limit(curve, branches):
    # both shot second legs converge on the closed-form corner: at least 100-fold
    # from 8 to 32 substeps, where RK4's fourth order gives 256
    gamma = square_base(curve)
    gaps = []
    for substeps in (8, 32):
        sq = bk.permutability_square(gamma, 5.0, 3.0, branches=branches, substeps=substeps)
        gamma21 = bk.apply_tc_projective(sq.gamma2, 5.0, branches[0], substeps=substeps)
        gaps.append([sq.both_orders_distance, cc.projective_distance(gamma21, sq.gamma21)])
    assert all(fine <= coarse / 100.0 for coarse, fine in zip(*gaps)), gaps


@pytest.mark.parametrize("curve", ["circle", "seed1", "seed2"])
def test_three_constant_cube_closes(curve):
    # 3D consistency: each face's superposition builds the same far vertex, with no shot past the first legs
    gamma = square_base(curve)
    c = (5.0, 3.0, 2.0)
    legs = bk._shots(gamma, c, "minus", rm.DEFAULT_SUBSTEPS)
    face = {(i, j): bk.superpose(gamma, legs[i], legs[j], c[i], c[j]) for i, j in ((0, 1), (0, 2), (1, 2))}
    far = [
        bk.superpose(legs[0], face[0, 1], face[0, 2], c[1], c[2]),
        bk.superpose(legs[1], face[0, 1], face[1, 2], c[0], c[2]),
        bk.superpose(legs[2], face[0, 2], face[1, 2], c[0], c[1]),
    ]
    assert max(cc.projective_distance(a, b) for a, b in ((far[0], far[1]), (far[0], far[2]), (far[1], far[2]))) <= 1e-12


def test_superpose_refuses_meeting_points_and_mixed_grids():
    gamma = bump_curve(128)
    leg = bk.apply_tc_projective(gamma, 5.0)
    with pytest.raises(Degenerate, match=r"curves meet at t = 0\.0: no conjugator"):
        bk.superpose(gamma, leg, gamma, 5.0, 3.0)
    with pytest.raises(Degenerate, match="equal constants"):
        bk.superpose(gamma, leg, leg, 5.0, 5.0)
    with pytest.raises(ValueError, match="grids of 128, 64 and 128 points"):
        bk.superpose(gamma, bump_curve(64), leg, 5.0, 3.0)


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


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("kind", ["affine", "projective"])
def test_param_convert_rejects_non_finite_constants(kind, value):
    with pytest.raises(ValueError, match=f"{kind} parameter must be finite"):
        bk.param_convert(value, kind)


@pytest.mark.parametrize("value", [1e300, -1e300, 1e-300, 1e-160])
def test_param_convert_refuses_an_affine_constant_without_a_finite_partner(value):
    # 1/c^2 overflows to inf or underflows to 0: refused where it enters, naming the constant
    with pytest.raises(ValueError, match=re.escape(f"affine parameter {value!r} has no finite")):
        bk.param_convert(value, "affine")


@pytest.mark.parametrize("c_pr", [4.0, 100.0, 400.0])
@pytest.mark.parametrize("curve", ["circle", "seed2"])
def test_closure_gate_catches_a_branch_shot_in_its_decaying_direction(curve, c_pr, monkeypatch):
    # swapping the eigen-directions shoots the repelling one forward; cancellation
    # leaves a closure defect far above the roundoff bound of the angle builder
    gamma = cc.make_circle(128) if curve == "circle" else cc.random_projective(np.random.default_rng(2), 128)
    eigen_system = rm.MonodromyMatrix.eigen_system
    monkeypatch.setattr(rm.MonodromyMatrix, "eigen_system", lambda self: eigen_system(self)[::-1])
    with pytest.raises(BranchSingular, match="rotation number"):
        bk.apply_tc_projective(gamma, c_pr, "plus")


@pytest.mark.parametrize("match_tol", [np.nan, -1.0, 0.0])
def test_permutability_rejects_a_bad_match_tolerance_before_integrating(match_tol, monkeypatch):
    legs = []
    monkeypatch.setattr(rm, "_rk4_transfer", lambda *a, **kw: legs.append(1))
    with pytest.raises(ValueError, match="match_tol must be a positive number"):
        bk.permutability_square(cc.make_circle(64), 4.0, 9.0, match_tol=match_tol)
    assert legs == []


@pytest.mark.parametrize("branches", [("minus",), ("minus", "minus", "plus")])
def test_permutability_rejects_branches_that_are_not_a_pair_before_integrating(branches, monkeypatch):
    legs = []
    monkeypatch.setattr(rm, "_rk4_transfer", lambda *a, **kw: legs.append(1))
    with pytest.raises(ValueError, match="branches must be a pair of labels"):
        bk.permutability_square(cc.make_circle(64), 4.0, 9.0, branches=branches)
    assert legs == []


def test_permutability_equal_constants_rejected():
    gamma = cc.make_circle(64)
    with pytest.raises(Degenerate):
        bk.permutability_square(gamma, 4.0, 4.0)


def test_hill_potential_drops_its_nyquist_mode_at_512():
    # the products of derivatives used to alias 2.4e-11 into cos(512 t); the Riccati
    # solve copied it into w and the image missed the 1e-9 gate at 1.7e-9 (OffUnity)
    G = cc.lift(cc.random_projective(np.random.default_rng(7), 512))
    p = cc.curvature(G).samples
    assert abs(np.mean(p * np.resize([1.0, -1.0], 512))) <= 1e-14 * np.max(np.abs(p))
    image = bk.apply_tc(G, 0.5, "minus").image
    assert cc.wronskian_defect(image.gamma1, image.gamma2) <= 1e-9


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("n", [256, 512])
def test_apply_tc_meets_its_gate_over_strengths_and_constants(n, seed):
    # apply_tc raises OffUnity on an image off its 1e-9 unit-Wronskian gate
    for strength in (0.35, 0.6, 0.9):
        G = cc.lift(cc.random_projective(np.random.default_rng(seed), n, strength=strength))
        for c in (0.5, 0.2):
            for label in ("minus", "plus"):
                bk.apply_tc(G, c, label)


@pytest.mark.parametrize("c_pr", [3e4, 1e6])
def test_projective_map_beyond_double_range_raises_step_unstable(c_pr):
    # RuntimeWarnings are errors under this suite's filter, so none may escape either
    with pytest.raises(StepUnstable, match=rf"lambda = {re.escape(repr(c_pr))} \(RK4 step lambda h = "):
        bk.apply_tc_projective(cc.make_circle(64), c_pr, "minus")


@pytest.mark.parametrize("branches", [("minus", "minus"), ("plus", "plus"), ("minus", "plus")])
def test_square_refuses_a_first_leg_beyond_double_range_naming_its_constant(branches):
    # matched labels shoot both first legs in one batch, mixed ones one at a time; each names the constant past range
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(StepUnstable, match=r"lambda = 30000\.0 \(RK4 step lambda h = "):
            bk.permutability_square(cc.make_circle(64), 4.0, 3e4, branches=branches)


def test_projective_map_within_double_range_still_closes():
    # the circle's minus image at c_pr is the circle turned by arcsin(1/sqrt(c_pr))
    image = bk.apply_tc_projective(cc.make_circle(64), 1e4, "minus")
    assert np.max(np.abs(image.psi.samples - np.arcsin(1e-2))) <= 1e-8


def pool_images():
    """apply_tc's minus images at c = 0.5 over the transform pool, None where a gate raises OffUnity."""
    images = []
    for seed in (1, 2, 3):
        for i in range(24):
            for n in (128, 512):
                gamma = cc.random_projective(np.random.default_rng([seed, i]), n, strength=(0.35, 0.6, 0.9)[i % 3])
                try:
                    image = bk.apply_tc(cc.lift(gamma), 0.5, "minus").image
                except OffUnity:
                    image = None
                images.append(image)
    return images


@pytest.mark.parametrize("substeps", [1, 8, 16])
def test_default_shot_moves_apply_tc_images_only_at_roundoff(monkeypatch, substeps):
    # the rule's shot against shots of 1, 8 and 16 substeps: the Newton polish
    # owns the image, so every curve keeps its outcome and moves at roundoff
    rule = pool_images()
    monkeypatch.setattr(rm, "_shot_substeps", lambda n: substeps)
    shot = pool_images()
    assert [x is None for x in shot] == [x is None for x in rule]
    assert (len(rule) - rule.count(None), rule.count(None)) == (141, 3)
    worst = 0.0
    for a, b in zip(rule, shot):
        if a is not None:
            a, b = (np.stack([x.gamma1.samples, x.gamma2.samples]) for x in (a, b))
            worst = max(worst, np.max(np.abs(a - b)) / np.max(np.abs(b)))
    assert worst <= 1e-13  # measured 8.0e-15 at 1 substep, 7.8e-15 at 8 and 1.5e-14 at 16


def transform_pool():
    """Curves drawn as the transform benchmark draws them, at n = 128 and 512, with their minus images."""
    pool = []
    for i in range(6):
        for n in (128, 512):
            gamma = cc.random_projective(np.random.default_rng([3, i]), n, strength=(0.35, 0.6, 0.9)[i % 3])
            pool.append(gamma)
            try:
                pool.append(bk.apply_tc_projective(gamma, 4.0, "minus"))
            except NumericalFailure:
                pass
    return pool


def test_unchecked_reflection_is_an_involution_that_passes_the_full_check(fft_counts):
    pool = transform_pool()
    assert len(pool) > 18
    for gamma in pool:
        fft_counts.update(rfft=0, irfft=0)
        reflected = cc._reflect_curve(gamma)
        again = cc._reflect_curve(reflected)
        assert fft_counts == {"rfft": 0, "irfft": 0}  # no check re-run
        assert np.array_equal(again.psi.samples, gamma.psi.samples)
        # the public constructor, which re-runs the check, accepts the reflection at the same min phi'
        checked = cc.ProjectiveCurve(pf.PeriodicFn(reflected.psi.samples, "periodic"))
        low, low_r = (1.0 + pf.values_and_slopes_with_wrap(c.psi.samples, 8 * c.n)[1].min() for c in (gamma, checked))
        assert low > 0.0 and abs(low_r - low) <= 1e-12 * low


def test_projective_minus_branch_makes_two_transform_pairs(fft_counts):
    # one interpolation of the reflected curve for the shot and one check of the image;
    # neither reflection re-runs the check
    gamma = cc.random_projective(np.random.default_rng(1), 128, 0.35)
    fft_counts.update(rfft=0, irfft=0)
    bk.apply_tc_projective(gamma, 4, "minus")
    assert fft_counts == {"rfft": 2, "irfft": 2}
