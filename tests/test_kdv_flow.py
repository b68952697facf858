import re

import numpy as np
import pytest

import centrokdv.backlund as bk
import centrokdv.periodic_fn as pf
import centrokdv.curve_core as cc
import centrokdv.invariants as iv
import centrokdv.kdv_flow as kf
from centrokdv.errors import StepUnstable
from centrokdv.riccati_monodromy import riccati_periodic_solutions, spectral_scan


def wave_potential(n=128):
    t = pf.grid(n)
    return pf.PeriodicFn(-1.0 + 0.1 * np.cos(2 * t), "periodic")


def gentle_curve(n=128, amp=0.1):
    t = pf.grid(n)
    return cc.lift(cc.ProjectiveCurve(pf.PeriodicFn(amp * np.sin(2 * t), "periodic")))


def seeded_curve(seed, n=128):
    rng = np.random.default_rng(seed)
    return cc.lift(cc.random_projective(rng, n))


def wronskian_defect(G):
    w = G.gamma1 * pf.differentiate(G.gamma2) - G.gamma2 * pf.differentiate(G.gamma1)
    return float(np.max(np.abs(w.samples - 1.0)))


def test_rhs_of_constant_vanishes():
    out = kf.kdv_rhs(pf.constant(-1.0, 64))
    assert np.max(np.abs(out.samples)) < 1e-13


def test_rhs_matches_hand_computed():
    # p = -1 + 0.1 cos 2t gives -1/2 p''' + 3 p' p = 0.2 sin 2t - 0.03 sin 4t
    t = pf.grid(128)
    out = kf.kdv_rhs(wave_potential())
    expected = 0.2 * np.sin(2 * t) - 0.03 * np.sin(4 * t)
    assert np.max(np.abs(out.samples - expected)) < 1e-9


def test_rhs_integral_vanishes():
    rng = np.random.default_rng(3)
    p = pf.random_band_limited(rng, 128, parity="periodic", max_mode=6)
    assert abs(pf.integrate_period(kf.kdv_rhs(p))) < 1e-12


def test_rhs_rejects_antiperiodic_input():
    rng = np.random.default_rng(4)
    f = pf.random_band_limited(rng, 64, parity="antiperiodic", max_mode=3)
    with pytest.raises(ValueError):
        kf.kdv_rhs(f)


def test_potential_flow_fixes_constant():
    out = kf.evolve_potential(pf.constant(-1.0, 128), 0.05)
    assert np.max(np.abs(out.samples + 1.0)) < 1e-12


def test_potential_flow_zero_time_returns_input():
    p = wave_potential()
    assert kf.evolve_potential(p, 0.0) is p


def test_potential_flow_rejects_bad_inputs():
    rng = np.random.default_rng(4)
    f = pf.random_band_limited(rng, 64, parity="antiperiodic", max_mode=3)
    with pytest.raises(ValueError):
        kf.evolve_potential(f, 0.01)
    with pytest.raises(ValueError):
        kf.evolve_potential(wave_potential(), 0.01, ds=0.0)


@pytest.mark.parametrize(
    "s_end, ds, name",
    [
        (np.inf, 1e-4, "s_end"),
        (np.nan, 1e-4, "s_end"),
        (0.01, np.nan, "ds"),
        (0.01, np.inf, "ds"),
        # finite arguments whose step count overflows a float
        (1e308, 1e-10, "s_end / ds"),
        (-1e308, 1e-10, "s_end / ds"),
        (0.01, 5e-324, "s_end / ds"),
    ],
)
def test_flows_reject_a_non_finite_time_naming_the_argument(s_end, ds, name):
    curve = cc.lift(cc.make_circle(64))
    for flow in (
        lambda: kf.evolve_potential(wave_potential(), s_end, ds),
        lambda: kf.evolve_curve(curve, s_end, ds),
        lambda: kf.flow_trace(curve, s_end, ds),
    ):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            flow()


@pytest.mark.parametrize(
    "s_end, ds, legs",
    [(1e300, kf.DEFAULT_DS, 1), (-1e300, kf.DEFAULT_DS, 1), (1e-3, kf.DEFAULT_DS, 10**12), (2e3, kf.DEFAULT_DS, 1)],
)
def test_flows_refuse_a_pass_too_long_to_finish_before_any_transform(monkeypatch, s_end, ds, legs):
    # a finite step count beyond MAX_FLOW_STEPS would run for hours or forever
    monkeypatch.setattr(kf, "_advance_spectrum", lambda *a, **kw: pytest.fail("started the march"))
    monkeypatch.setattr(kf, "curvature", lambda *a, **kw: pytest.fail("took a curvature"))
    curve = cc.lift(cc.make_circle(64))
    flows = [lambda: kf.flow_trace(curve, s_end, ds, samples=legs)]
    if legs == 1:
        flows += [lambda: kf.evolve_potential(wave_potential(), s_end, ds), lambda: kf.evolve_curve(curve, s_end, ds)]
    message = f"s_end = {s_end!r} at ds = {ds!r} in {legs} legs takes over 10000000 steps"
    for flow in flows:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            flow()


def test_step_count_allows_max_flow_steps_over_all_legs():
    # ds = 0.5 is exact, so the counts are too
    top = 0.5 * kf.MAX_FLOW_STEPS
    assert kf._step_count(top, 0.5) == kf.MAX_FLOW_STEPS
    assert kf._step_count(top, 0.5, legs=10) == kf.MAX_FLOW_STEPS // 10
    for legs in (1, 10):
        with pytest.raises(ValueError, match=f"in {legs} legs takes over"):
            kf._step_count(top + 0.5 * legs, 0.5, legs)


def test_potential_flow_conserves_hamiltonians():
    p0 = wave_potential()
    h1a, h2a = iv.hamiltonians(p0)
    h1b, h2b = iv.hamiltonians(kf.evolve_potential(p0, 0.05))
    # the mean mode is static in both integrator pieces, so H1 is exact
    assert abs(h1b - h1a) < 1e-12
    assert abs(h2b - h2a) / abs(h2a) < 1e-8


def test_potential_flow_is_fourth_order_in_step():
    t = pf.grid(128)
    p0 = pf.PeriodicFn(-1.0 + 0.8 * np.cos(2 * t) + 0.4 * np.sin(4 * t), "periodic")
    ref = kf.evolve_potential(p0, 0.05, ds=6.25e-5)
    errs = [
        np.max(np.abs(kf.evolve_potential(p0, 0.05, ds=ds).samples - ref.samples))
        for ds in (2e-3, 1e-3)
    ]
    ratio = errs[0] / errs[1]
    assert 8.0 < ratio < 32.0


def test_potential_flow_detects_blowup():
    t = pf.grid(128)
    steep = pf.PeriodicFn(-1.0 + 20.0 * np.cos(2 * t), "periodic")
    with pytest.raises(StepUnstable):
        kf.evolve_potential(steep, 0.1, ds=0.01)


def test_potential_march_makes_eight_ffts_per_step(fft_counts):
    counts = fft_counts
    kf.evolve_potential(wave_potential(), 0.001, ds=1e-4)
    # ten steps of four stage pairs, plus the transforms in and out and the first gate
    assert counts == {"rfft": 1 + 40, "irfft": 40 + 2}


def test_curve_transport_makes_24_ffts_per_step(fft_counts):
    G = gentle_curve()
    counts = fft_counts
    # one curve or two: each transform serves the whole batch
    for curves in ((G,), (G, seeded_curve(5))):
        made = []
        for s_end in (0.001, 0.002):  # 10 and 20 curve steps
            before = dict(counts)
            kf.evolve_curve(curves, s_end, ds=1e-4)
            made.append({k: counts[k] - before[k] for k in counts})
        # per step: two half-step potential marches of four stage pairs, whose
        # gating transforms carry the driving rows, and four field derivatives
        assert {k: made[1][k] - made[0][k] for k in counts} == {"rfft": 10 * 12, "irfft": 10 * 12}


def test_driving_rows_ride_the_gating_transform_bit_for_bit(monkeypatch):
    n = 128
    cut = 3 * (n // 2 + 1) // 4
    # three potentials with modes above the cut, so the driving rows differ from the full samples
    p = np.stack([pf.random_band_limited(np.random.default_rng(s), n, max_mode=60).samples for s in (1, 2, 3)])
    v0 = np.fft.rfft(p - 1.0)
    spectra = list(kf._advance_spectrum(v0, n, 1e-4, 3))
    irfft, gated = np.fft.irfft, []

    def recorded(a, *args, **kw):
        out = irfft(a, *args, **kw)
        if np.ndim(a) == 3:  # the stacked gating transform; the stages transform (batch, modes)
            gated.append(out[0])
        return out

    monkeypatch.setattr(np.fft, "irfft", recorded)
    rows = list(kf._advance_spectrum(v0, n, 1e-4, 3, cut))
    monkeypatch.undo()
    assert len(rows) == len(gated) == len(spectra) == 4
    for v, r, g in zip(spectra, rows, gated):
        assert r.shape == (2, 3, n)
        assert np.array_equal(r, pf.interpolate_modes(v[:, :cut], n, n))
        assert np.array_equal(g, np.fft.irfft(v, n))
        assert not np.array_equal(r[0], g)


def test_driving_rows_and_spectra_outlive_later_steps():
    # the march works in buffers it reuses; what it yields must not alias them
    n = 128
    cut = 3 * (n // 2 + 1) // 4
    p = np.stack([pf.random_band_limited(np.random.default_rng(s), n, max_mode=60).samples for s in (1, 2)])
    v0 = np.fft.rfft(p - 1.0)
    for march in (kf._advance_spectrum(v0, n, 1e-4, 8, cut), kf._advance_spectrum(v0, n, 1e-4, 8)):
        held = [next(march) for _ in range(3)]  # a curve step holds start, mid and end
        kept = [x.copy() for x in held]
        for _ in range(3):
            next(march)
        for x, y in zip(held, kept):
            assert np.array_equal(x, y)


def plain_march_step(v, n, h):
    """One ETDRK4 step of the potential spectra v, written with allocating expressions.

    The reference holds the batch on the last axis, (modes, B), and the
    steppers hold it on the first: their bit-for-bit match also pins that
    the layout moves no bit.
    """
    e_full, e_half, q, f1, f2x2, f3 = (c[:, None] for c in kf._etdrk4_coeffs(n, h))
    mult = 1.5 * pf.rfft_derivative_factor(n, 1)[:, None]

    def nonlin(w):
        vals = np.fft.irfft(w, n, axis=0)
        return mult * np.fft.rfft(vals * vals, axis=0)

    nv = nonlin(v)
    a = e_half * v + q * nv
    na = nonlin(a)
    b = e_half * v + q * na
    nb = nonlin(b)
    c = e_half * a + q * (2.0 * nb - nv)
    nc = nonlin(c)
    return e_full * v + f1 * nv + f2x2 * (na + nb) + f3 * nc


def plain_field(y, p, dp):
    """The transport field 1/2 (p y' + (p y)') - p' y, written with allocating expressions."""
    n = y.shape[0]
    both = np.concatenate([y, p * y], axis=1)
    ext = np.concatenate([both, -both])
    slope = pf._derivative_factor(n, 1)[:, None, None]
    d = np.fft.irfft(slope * np.fft.rfft(ext, axis=0), 2 * n, axis=0)[:n]
    return 0.5 * (p * d[:, :2] + d[:, 2:]) - dp * y


def plain_transport(curves, h, steps):
    """RK4 curve steps driven by half-step ETDRK4 potentials, cut as the stepper cuts them."""
    n = curves[0].n
    cut = 3 * (n // 2 + 1) // 4
    v = np.fft.rfft(np.stack([cc.curvature(G).samples for G in curves], axis=1), axis=0)
    v[cut:] = 0.0

    def driver(v):
        return tuple(row.T[:, None] for row in pf.interpolate_modes(v[:cut].T, n, n))

    x = np.stack([np.stack([G.gamma1.samples, G.gamma2.samples], axis=1) for G in curves], axis=2)
    end = driver(v)
    for _ in range(steps):
        start = end
        v = plain_march_step(v, n, 0.5 * h)
        mid = driver(v)
        v = plain_march_step(v, n, 0.5 * h)
        end = driver(v)
        k1 = plain_field(x, *start)
        k2 = plain_field(x + (0.5 * h) * k1, *mid)
        k3 = plain_field(x + (0.5 * h) * k2, *mid)
        k4 = plain_field(x + h * k3, *end)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x


@pytest.mark.parametrize("batch", [1, 2, 3])
def test_steppers_match_plain_allocating_steps_bit_for_bit(batch):
    # the steppers work in buffers; any change of an operand order, which moves
    # numpy's complex products at roundoff, shows here within 50 steps
    s_end, ds = 0.005, 1e-4
    steps = kf._step_count(s_end, ds)
    assert steps == 50
    h = s_end / steps
    curves = tuple(
        cc.lift(cc.random_projective(np.random.default_rng([1, i]), 128, strength=0.35)) for i in range(batch)
    )
    moved = kf.evolve_curve(curves, s_end, ds)
    x = plain_transport(curves, h, steps)
    for b, G in enumerate(moved):
        assert np.array_equal(G.gamma1.samples, x[:, 0, b])
        assert np.array_equal(G.gamma2.samples, x[:, 1, b])
    pots = [pf.random_band_limited(np.random.default_rng([3, i]), 256, max_mode=6) for i in range(batch)]
    v = np.fft.rfft(np.stack([p.samples for p in pots], axis=1), axis=0)
    for _ in range(steps):
        v = plain_march_step(v, 256, h)
    plain = np.fft.irfft(v, 256, axis=0)
    for b, p in enumerate(pots):
        assert np.array_equal(kf.evolve_potential(p, s_end, ds).samples, plain[:, b])


def test_potential_march_gates_each_column_on_its_own():
    t = pf.grid(128)
    steep = -1.0 + 20.0 * np.cos(2 * t)  # sup 21, jumps to about 45 in one step of 0.01
    flat = np.full(128, -100.0)  # a static potential whose sup stays above that jump
    v = np.fft.rfft(np.stack([flat, steep]))
    with pytest.raises(StepUnstable, match=r"jumped 21\.0 -> 44\.9"):
        for _ in kf._advance_spectrum(v, 128, 0.01, 10):
            pass


def test_curve_flow_translates_circle():
    # constant curvature -1 reduces the transport field to -Gamma'
    circ = cc.lift(cc.make_circle(128))
    moved = kf.evolve_curve(circ, 0.03)
    expected = pf.shift(circ.gamma1, -0.03)
    assert np.max(np.abs(moved.gamma1.samples - expected.samples)) < 1e-9
    assert moved.gamma1.parity == "antiperiodic"


def test_curve_flow_zero_time_returns_input():
    G = gentle_curve()
    assert kf.evolve_curve(G, 0.0) is G
    pair = (G, seeded_curve(5))
    assert kf.evolve_curve(pair, 0.0) is pair


# three curves tell the batch axis from the (gamma1, gamma2) axis, which two would not
@pytest.mark.parametrize(
    "strengths", [(0.35, 0.35), (0.6, 0.6), (0.35, 0.6, 0.35)], ids=["0.35", "0.6", "0.35-0.6-0.35"]
)
def test_curve_batch_equals_curves_moved_alone(strengths):
    curves = tuple(
        cc.lift(cc.random_projective(np.random.default_rng([1, i]), 128, strength=strength))
        for i, strength in zip((0, 2, 4), strengths)
    )
    moved = kf.evolve_curve(curves, 0.02)
    assert isinstance(moved, tuple) and len(moved) == len(curves)
    for G, together in zip(curves, moved):
        alone = kf.evolve_curve(G, 0.02)
        assert np.array_equal(together.gamma1.samples, alone.gamma1.samples)
        assert np.array_equal(together.gamma2.samples, alone.gamma2.samples)


def test_curve_batch_gates_each_member_on_its_own():
    rng = np.random.default_rng(7)
    rough = cc.lift(cc.ProjectiveCurve(0.05 * pf.random_band_limited(rng, 128, max_mode=5)))
    circ = cc.lift(cc.make_circle(128))
    # same potential as the circle, so it moves calmly, but with sup 10
    stretched = cc.CentroAffineCurve(10.0 * circ.gamma1, 0.1 * circ.gamma2)
    # one step of 0.05 takes the rough curve's sup from 1.09 to 10.9: under
    # twice the batch's sup, over twice its own
    for pair in ((rough, stretched), (stretched, rough)):
        with pytest.raises(StepUnstable, match=r"curve sup norm jumped 1\.09\d* -> 10\.9"):
            kf.evolve_curve(pair, 0.05, ds=0.05)


def test_curve_batch_with_an_unstable_member_raises():
    good = cc.lift(cc.random_projective(np.random.default_rng([1, 0]), 128, strength=0.35))
    bad = cc.lift(cc.random_projective(np.random.default_rng([1, 3]), 128, strength=0.6))
    with pytest.raises(StepUnstable):
        kf.evolve_curve(bad, 0.02)
    for pair in ((good, bad), (bad, good)):
        with pytest.raises(StepUnstable, match="misses unit Wronskian"):
            kf.evolve_curve(pair, 0.02)


def test_each_gated_curve_computes_its_wronskian_defect_once(monkeypatch):
    G = seeded_curve(1)
    calls = []
    defect = cc.wronskian_defect
    monkeypatch.setattr(cc, "wronskian_defect", lambda g1, g2: calls.append(g1.n) or defect(g1, g2))
    bk.apply_tc(G, 0.5, "minus")
    assert len(calls) == 1  # the image
    calls.clear()
    kf.flow_trace(G, 0.01, samples=3)
    assert len(calls) == 3  # one transported curve per leg
    calls.clear()
    kf.evolve_curve((G, G), 0.01)
    assert len(calls) == 2  # one per curve of the batch


def test_curve_batch_rejects_mixed_grids():
    with pytest.raises(ValueError):
        kf.evolve_curve((gentle_curve(128), gentle_curve(256)), 0.01)


def test_curve_flow_keeps_unit_wronskian():
    moved = kf.evolve_curve(seeded_curve(5), 0.05)
    assert wronskian_defect(moved) < 1e-7


def test_curve_flow_matches_potential_flow():
    G = gentle_curve()
    moved = kf.evolve_curve(G, 0.02)
    direct = kf.evolve_potential(cc.curvature(G), 0.02)
    assert np.max(np.abs(cc.curvature(moved).samples - direct.samples)) < 1e-6


def test_curve_flow_rough_input_raises_and_refined_grid_recovers():
    rng = np.random.default_rng(7)
    psi = 0.05 * pf.random_band_limited(rng, 128, max_mode=5)
    with pytest.raises(StepUnstable):
        kf.evolve_curve(cc.lift(cc.ProjectiveCurve(psi)), 0.02)
    fine = cc.lift(cc.ProjectiveCurve(pf.upsample(psi, 256)))
    moved = kf.evolve_curve(fine, 0.02, ds=2.5e-5)
    assert wronskian_defect(moved) < 1e-9


def test_flow_preserves_invariants():
    G = seeded_curve(5)
    before = iv.invariant_report(G)
    after = iv.invariant_report(kf.evolve_curve(G, 0.05))
    for key in ("H1", "H2", "I", "J", "K"):
        rel = abs(after[key] - before[key]) / max(1.0, abs(before[key]))
        assert rel < 1e-7


def test_flow_preserves_spectrum():
    G = seeded_curve(5)
    moved = kf.evolve_curve(G, 0.05)
    lams = np.linspace(-2.0, 0.9, 21)
    before = spectral_scan(cc.project(G), lams)
    after = spectral_scan(cc.project(moved), lams)
    rel = np.abs(after.tr2 - before.tr2) / np.maximum(1.0, np.abs(before.tr2))
    assert np.max(rel) < 1e-5


def test_flow_grid_doubling_agrees():
    rng = np.random.default_rng(7)
    psi = 0.05 * pf.random_band_limited(rng, 128, max_mode=3, parity="periodic")
    coarse = kf.evolve_curve(cc.lift(cc.ProjectiveCurve(psi)), 0.02)
    fine = kf.evolve_curve(cc.lift(cc.ProjectiveCurve(pf.upsample(psi, 256))), 0.02)
    ra, rb = iv.invariant_report(coarse), iv.invariant_report(fine)
    for key in ("H1", "H2", "I", "J", "K"):
        assert abs(rb[key] - ra[key]) / max(1.0, abs(ra[key])) < 1e-8


def test_recursion_circle_residuals_vanish():
    t = pf.grid(128)
    fields = [pf.constant(1.0, 128), pf.PeriodicFn(np.sin(2 * t), "periodic")]
    circ = cc.lift(cc.make_circle(128))
    res1 = kf.recursion_check(circ, 1, fields)
    assert np.max(res1["second_form"]) < 1e-9
    assert np.max(res1["first_form"]) < 1e-9
    res2 = kf.recursion_check(circ, 2, fields)
    assert np.max(res2["second_form"]) < 1e-9
    assert res2["first_form"] is None


def test_recursion_random_curves():
    for seed in (3, 4, 5):
        rng = np.random.default_rng(100 + seed)
        G = seeded_curve(seed)
        fields = [
            pf.random_band_limited(rng, 128, parity="periodic", max_mode=6)
            for _ in range(12)
        ]
        res1 = kf.recursion_check(G, 1, fields)
        assert np.max(res1["second_form"]) < 1e-6
        assert np.max(res1["first_form"]) < 1e-6
        res2 = kf.recursion_check(G, 2, fields)
        assert np.max(res2["second_form"]) < 1e-6


def test_recursion_residual_is_linear_in_field():
    rng = np.random.default_rng(103)
    G = seeded_curve(3)
    g1 = pf.random_band_limited(rng, 128, parity="periodic", max_mode=6)
    g2 = pf.random_band_limited(rng, 128, parity="periodic", max_mode=6)
    res = kf.recursion_check(G, 1, [g1, g2, g1 + 2.0 * g2])["second_form"]
    # the pairing and the derivative are both linear, so signed residuals add
    assert res[2] <= res[0] + 2.0 * res[1] + 1e-8


def test_recursion_rejects_bad_index():
    with pytest.raises(ValueError):
        kf.recursion_check(gentle_curve(), 3, [])


def test_commutation_circle():
    assert kf.commutation_check(cc.lift(cc.make_circle(128)), 0.5) < 1e-9


def test_commutation_exemplar():
    assert kf.commutation_check(gentle_curve(amp=0.05), 0.5, s=0.02) < 1e-5


def test_commutation_seeded_curves():
    for seed in (1, 2):
        assert kf.commutation_check(seeded_curve(seed), 0.5, s=0.02) < 1e-5


def test_commutation_at_zero_time_keeps_the_branch():
    G = cc.lift(cc.random_projective(np.random.default_rng(1), 128, strength=0.35))
    for branch in ("plus", "minus"):
        assert kf.commutation_check(G, 0.5, branch, s=0.0) <= 1e-12


@pytest.mark.parametrize("anchor", [1, 2, 3, None])
def test_flow_keeps_the_branch_multipliers(anchor):
    # commutation_check picks the flowed curve's branch by label: the flow is
    # isospectral, so the Floquet multipliers behind the labels stay put
    gamma = cc.make_circle(128) if anchor is None else cc.random_projective(np.random.default_rng(anchor), 128)
    G = cc.lift(gamma)
    before = riccati_periodic_solutions(cc.curvature(G), 0.5)
    after = riccati_periodic_solutions(cc.curvature(kf.evolve_curve(G, 0.02)), 0.5)
    for a, b in zip(before, after):
        assert abs(b.multiplier - a.multiplier) <= 1e-8 * abs(a.multiplier)


def test_commutation_evolves_and_solves_the_flowed_curve_once(monkeypatch):
    calls = []
    solves = []
    evolve, solve = kf.evolve_curve, kf.riccati_branch

    def counted_evolve(Gamma, s_end, **kw):
        calls.append((Gamma, s_end))
        return evolve(Gamma, s_end, **kw)

    def counted_solve(*args, **kw):
        solves.append(args[1])
        return solve(*args, **kw)

    monkeypatch.setattr(kf, "evolve_curve", counted_evolve)
    monkeypatch.setattr(kf, "riccati_branch", counted_solve)
    G = gentle_curve(amp=0.05)
    assert kf.commutation_check(G, 0.5, s=0.02) < 1e-5
    # one pass carries the transformed curve and the curve itself, and the
    # flowed curve's branch is picked by its label from one Riccati solve
    assert [s_end for _, s_end in calls] == [0.02]
    pair = calls[0][0]
    assert isinstance(pair, tuple) and len(pair) == 2 and pair[1] is G
    assert solves == [0.5]


def test_flow_trace_states():
    G = gentle_curve()
    # five legs of 40 steps: each s_k / 1e-4 is a whole step count, so every
    # snapshot of the one pass is the curve evolved afresh to its own time
    # (with four legs, evolve_curve(G, 0.015) steps by 0.015 / 150, an ulp
    # below the pass's 1e-4)
    states = kf.flow_trace(G, 0.02, samples=5)
    assert [st.s for st in states] == [0.0, 0.004, 0.008, 0.012, 0.016, 0.02]
    assert states[0].Gamma is G
    assert np.array_equal(states[0].p.samples, cc.curvature(G).samples)
    for st in states[1:]:
        direct = kf.evolve_curve(G, st.s)
        assert np.array_equal(st.Gamma.gamma1.samples, direct.gamma1.samples)
        assert np.array_equal(st.Gamma.gamma2.samples, direct.gamma2.samples)
    h1s = [iv.hamiltonians(st.p)[0] for st in states]
    assert max(h1s) - min(h1s) < 1e-9
    drift = np.abs(states[-1].p.samples - kf.evolve_potential(states[0].p, 0.02).samples)
    assert np.max(drift) < 1e-6


def test_flow_trace_marches_the_potential_once(monkeypatch):
    calls = []
    coeffs = kf._etdrk4_coeffs

    def counted(*args):
        calls.append(args[1])
        return coeffs(*args)

    monkeypatch.setattr(kf, "_etdrk4_coeffs", counted)
    states = kf.flow_trace(gentle_curve(), 0.02, samples=4)
    assert len(states) == 5
    assert calls == [0.5e-4]  # one march at half the curve step, not one per snapshot


def test_flow_trace_rejects_bad_sample_count():
    with pytest.raises(ValueError):
        kf.flow_trace(gentle_curve(), 0.02, samples=0)


def test_flow_trace_csv(tmp_path):
    states = kf.flow_trace(gentle_curve(), 0.02, samples=4)
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    kf.flow_trace_to_csv(states, first)
    kf.flow_trace_to_csv(states, second)
    assert first.read_bytes() == second.read_bytes()
    lines = first.read_text().strip().splitlines()
    assert lines[0] == "s,H1,H2,I,J,K"
    assert len(lines) == 6
    table = np.array([[float(x) for x in row.split(",")] for row in lines[1:]])
    assert np.allclose(table[:, 0], [0.0, 0.005, 0.01, 0.015, 0.02], atol=1e-15)
    assert np.max(np.abs(table[:, 1] - table[0, 1])) < 1e-9


def test_etdrk4_coefficients_are_cached_read_only_and_bit_identical(monkeypatch):
    for c in kf._etdrk4_coeffs(128, 1e-4):
        assert not c.flags.writeable
    assert kf._etdrk4_coeffs(128, 1e-4) is kf._etdrk4_coeffs(128, 1e-4)
    p = pf.random_band_limited(np.random.default_rng(3), 256, max_mode=6)
    G = gentle_curve()
    cached = kf.evolve_potential(p, 0.005), kf.evolve_curve(G, 0.005)
    monkeypatch.setattr(kf, "_etdrk4_coeffs", kf._etdrk4_coeffs.__wrapped__)
    built = kf.evolve_potential(p, 0.005), kf.evolve_curve(G, 0.005)
    assert np.array_equal(cached[0].samples, built[0].samples)
    assert np.array_equal(cached[1].gamma1.samples, built[1].gamma1.samples)
    assert np.array_equal(cached[1].gamma2.samples, built[1].gamma2.samples)
