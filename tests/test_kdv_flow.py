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
from test_curve_core import wound_curve


def wave_potential(n=128):
    t = pf.grid(n)
    return pf.PeriodicFn(-1.0 + 0.1 * np.cos(2 * t), "periodic")


def steep_potential(n=128):
    """Sup 21, which one step of 0.01 more than doubles."""
    return pf.PeriodicFn(-1.0 + 20.0 * np.cos(2 * pf.grid(n)), "periodic")


def six_mode_potential(n):
    """A flow-workload potential: 6 modes, unit sup norm."""
    return pf.random_band_limited(np.random.default_rng([3, 0, 1]), n, max_mode=6)


def gentle_curve(n=128, amp=0.1):
    t = pf.grid(n)
    return cc.lift(cc.ProjectiveCurve(pf.PeriodicFn(amp * np.sin(2 * t), "periodic")))


def seeded_curve(seed, n=128):
    rng = np.random.default_rng(seed)
    return cc.lift(cc.random_projective(rng, n))


def wronskian_defect(G):
    w = G.gamma1 * pf.differentiate(G.gamma2) - G.gamma2 * pf.differentiate(G.gamma1)
    return float(np.max(np.abs(w.samples - 1.0)))


def relative_drift(before, after):
    return max(abs(after[k] - before[k]) / max(1.0, abs(before[k])) for k in ("H1", "H2", "I", "J", "K"))


def kdv_rhs(potential: pf.PeriodicFn) -> pf.PeriodicFn:
    """Reference right-hand side -1/2 p''' + 3 p' p of the potential flow, computed spectrally."""
    if potential.parity != "periodic":
        raise ValueError("potential must be periodic")
    d1, d3 = pf.derivatives(potential, 1, 3)
    return (-0.5) * d3 + 3.0 * d1 * potential


def test_rhs_of_constant_vanishes():
    out = kdv_rhs(pf.constant(-1.0, 64))
    assert np.max(np.abs(out.samples)) < 1e-13


def test_rhs_matches_hand_computed():
    # p = -1 + 0.1 cos 2t gives -1/2 p''' + 3 p' p = 0.2 sin 2t - 0.03 sin 4t
    t = pf.grid(128)
    out = kdv_rhs(wave_potential())
    expected = 0.2 * np.sin(2 * t) - 0.03 * np.sin(4 * t)
    assert np.max(np.abs(out.samples - expected)) < 1e-9


def test_rhs_integral_vanishes():
    rng = np.random.default_rng(3)
    p = pf.random_band_limited(rng, 128, parity="periodic", max_mode=6)
    assert abs(pf.integrate_period(kdv_rhs(p))) < 1e-12


def test_rhs_rejects_antiperiodic_input():
    rng = np.random.default_rng(4)
    f = pf.random_band_limited(rng, 64, parity="antiperiodic", max_mode=3)
    with pytest.raises(ValueError):
        kdv_rhs(f)


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


def full_grid_march(p, s_end, ds=kf.DEFAULT_DS):
    """The samples of p marched to s_end on every mode of its own grid."""
    nsteps = kf._step_count(s_end, ds)
    for v in kf._advance_spectrum(np.fft.rfft(p.samples)[None], p.n, s_end / nsteps, nsteps):
        pass
    return np.fft.irfft(v[0], p.n)


def recorded_passes(monkeypatch):
    """Patch evolve_potential's stepper to log each pass as [grid, steps run, raised StepUnstable]."""
    passes, advance = [], kf._advance_spectrum

    def recording(v, m, h, nsteps, terms=kf._potential_terms):
        entry = [m, 0, False]
        passes.append(entry)
        march = advance(v, m, h, nsteps, terms)
        yield next(march)
        try:
            for w in march:
                entry[1] += 1
                yield w
        except StepUnstable:
            entry[1:] = entry[1] + 1, True
            raise

    monkeypatch.setattr(kf, "_advance_spectrum", recording)
    return passes


# the worst relative move measured against the full-grid march: 2.3e-15 on the
# 128 flow-workload potentials of each of seeds 3 and 101 (n = 2048), 1.3e-15 here
FULL_GRID_BOUND = 5e-15


@pytest.mark.parametrize("n", [128, 512, 2048])
def test_potential_march_agrees_with_the_full_grid_march(monkeypatch, n):
    passes = recorded_passes(monkeypatch)
    identical = 0
    for seed in range(6):
        for amp in (1.0, 3.0):
            p = amp * pf.random_band_limited(np.random.default_rng([n, seed]), n, max_mode=6) - 1.0
            full = full_grid_march(p, 0.02)
            passes.clear()
            moved = kf.evolve_potential(p, 0.02).samples
            assert np.max(np.abs(moved - full)) <= FULL_GRID_BOUND * np.max(np.abs(full))
            # where each coarse pass had its one step rejected, the band fills the
            # grid before any step is accepted, and the march is the full-grid one
            if all(steps == 1 for m, steps, _ in passes[:-1]) and passes[-1][0] == n:
                assert np.array_equal(moved, full)
                identical += 1
    assert identical == (11 if n == 128 else 0)


def test_unresolved_potential_marches_on_the_callers_grid_bit_for_bit(monkeypatch):
    p = pf.PeriodicFn(0.01 * np.random.default_rng(5).normal(size=128))
    assert pf.resolved_band(np.fft.rfft(p.samples)) == 64
    passes = recorded_passes(monkeypatch)
    moved = kf.evolve_potential(p, 0.02)
    assert passes == [[128, 200, False]]
    monkeypatch.undo()
    assert np.array_equal(moved.samples, full_grid_march(p, 0.02))


def test_six_mode_potential_refines_past_its_start_grid(monkeypatch):
    p = six_mode_potential(2048)
    passes = recorded_passes(monkeypatch)
    moved = kf.evolve_potential(p, 0.02).samples
    # 3 * 6 < 32; the flow fills modes past a third of 32 and of 64 within one step
    assert [m for m, _, _ in passes] == [32, 64, 128]
    assert passes[-1] == [128, 200, False]
    monkeypatch.undo()
    full = full_grid_march(p, 0.02)
    assert np.max(np.abs(moved - full)) <= FULL_GRID_BOUND * np.max(np.abs(full))


def test_step_unstable_escapes_only_from_the_callers_grid(monkeypatch):
    passes = recorded_passes(monkeypatch)
    with pytest.raises(StepUnstable):
        kf.evolve_potential(steep_potential(), 0.1, ds=0.01)
    # the step on 16 breaks the 2/3 rule; the sup gate raises on 32 and 64 and
    # the march refines, and only the raise on the caller's grid escapes
    assert passes == [[16, 1, False], [32, 1, True], [64, 1, True], [128, 1, True]]


def test_coarse_step_unstable_refines_to_the_full_grid_march(monkeypatch):
    # a coarse gate that raises on every step leaves the input as the last
    # accepted state, so the march on the caller's grid starts from it
    advance = kf._advance_spectrum

    def coarse_unstable(v, m, h, nsteps, terms=kf._potential_terms):
        march = advance(v, m, h, nsteps, terms)
        yield next(march)
        if m < 2048:
            raise StepUnstable("coarse")
        yield from march

    p = six_mode_potential(2048)
    monkeypatch.setattr(kf, "_advance_spectrum", coarse_unstable)
    moved = kf.evolve_potential(p, 0.005).samples
    monkeypatch.undo()
    assert np.array_equal(moved, full_grid_march(p, 0.005))


@pytest.mark.parametrize("n", [16, 36, 2048])
@pytest.mark.parametrize("value", [0.0, -1.0, 2.5])
def test_constant_potentials_flow_to_their_own_samples(n, value):
    p = pf.constant(value, n)
    assert np.array_equal(kf.evolve_potential(p, 0.02).samples, p.samples)


@pytest.mark.parametrize(
    "n, band, m", [(16, 0, 16), (2048, 0, 16), (36, 0, 18), (36, 5, 18), (36, 6, 36), (2048, 6, 32), (2048, 1024, 2048)]
)
def test_march_grid_halves_to_the_coarsest_grid_of_the_two_thirds_rule(n, band, m):
    # halving stops before an odd grid (36 -> 18 -> 9) or one below MIN_SAMPLES
    assert kf._march_grid(n, band) == m


def march_calls(n, passes, finished=True):
    """The transforms of evolve_potential on n samples, (name, length) in call order.

    passes holds (m, steps) for each pass: one gating irfft on its grid m,
    then four stage pairs per step run, accepted or rejected.  The entry
    rfft and, if the march finished, the exit irfft run on n.
    """
    calls = [("rfft", n)]
    for m, steps in passes:
        calls += [("irfft", m)] + steps * 4 * [("rfft", m), ("irfft", m)]
    return calls + [("irfft", n)] * finished


def test_potential_march_makes_eight_ffts_per_step(fft_counts):
    # band 1 starts on the smallest grid, and ten steps stay within its third
    kf.evolve_potential(wave_potential(), 0.001, ds=1e-4)
    assert fft_counts.calls == march_calls(128, [(16, 10)])
    # band 6 starts on 32; one step fills the band past a third of 32, then of 64
    fft_counts.calls.clear()
    kf.evolve_potential(six_mode_potential(2048), 0.001, ds=1e-4)
    assert fft_counts.calls == march_calls(2048, [(32, 1), (64, 1), (128, 10)])
    # a step rejected by its sup gate costs the same eight; on the caller's grid the gate raises
    fft_counts.calls.clear()
    with pytest.raises(StepUnstable):
        kf.evolve_potential(steep_potential(), 0.1, ds=0.01)
    assert fft_counts.calls == march_calls(128, [(16, 1), (32, 1), (64, 1), (128, 1)], finished=False)


def test_angle_march_makes_eight_ffts_per_step(fft_counts):
    G = gentle_curve()
    counts = fft_counts
    # one curve or two: each transform serves the whole batch
    for curves in ((G,), (G, seeded_curve(5))):
        made = []
        for s_end in (0.001, 0.002):  # 10 and 20 steps
            before = dict(counts)
            kf.evolve_curve(curves, s_end, ds=1e-4)
            made.append({k: counts[k] - before[k] for k in counts})
        # per step: four stage pairs, the stacked [v, v'] irfft and the nonlinear rfft
        assert {k: made[1][k] - made[0][k] for k in counts} == {"rfft": 10 * 4, "irfft": 10 * 4}


@pytest.mark.parametrize("terms", [kf._potential_terms, kf._angle_terms], ids=["potential", "angle"])
def test_spectra_outlive_later_steps(terms):
    # the march works in buffers it reuses; what it yields must not alias them
    n = 128
    p = np.stack([pf.random_band_limited(np.random.default_rng(s), n, max_mode=6).samples for s in (1, 2)])
    march = kf._advance_spectrum(np.fft.rfft(0.2 * p), n, 1e-4, 8, terms)
    held = [next(march) for _ in range(3)]
    kept = [x.copy() for x in held]
    for _ in range(3):
        next(march)
    for x, y in zip(held, kept):
        assert np.array_equal(x, y)


def plain_potential_nonlin(w, n):
    """3/2 (p^2)' of the potential spectra w, (modes, B)."""
    vals = np.fft.irfft(w, n, axis=0)
    return 1.5 * pf.rfft_derivative_factor(n, 1)[:, None] * np.fft.rfft(vals * vals, axis=0)


def plain_angle_nonlin(w, n):
    """1/4 v'^3 - 3 v' e^{2v} of the angle spectra w, (modes, B), and mean(3/4 v'^2 e^v - e^{3v}) in the Nyquist slot."""
    modes = w.copy()
    modes[-1] = 0.0
    v = np.fft.irfft(modes, n, axis=0)
    dv = np.fft.irfft(pf.rfft_derivative_factor(n, 1)[:, None] * w, n, axis=0)
    e = np.exp(v)
    out = np.fft.rfft(dv * (0.25 * (dv * dv) - 3.0 * (e * e)), axis=0)
    out[-1] = np.ascontiguousarray((e * (0.75 * (dv * dv) - e * e)).T).mean(axis=-1)
    return out


def plain_march_step(v, n, h, nonlin=plain_potential_nonlin):
    """One ETDRK4 step of the spectra v, the potential's by default, written with allocating expressions.

    The reference holds the batch on the last axis, (modes, B), and the
    stepper holds it on the first: their bit-for-bit match also pins that
    the layout moves no bit.
    """
    e_full, e_half, q, f1, f2x2, f3 = (c[:, None] for c in kf._etdrk4_coeffs(n, h))
    nv = nonlin(v, n)
    a = e_half * v + q * nv
    na = nonlin(a, n)
    b = e_half * v + q * na
    nb = nonlin(b, n)
    c = e_half * a + q * (2.0 * nb - nv)
    nc = nonlin(c, n)
    return e_full * v + f1 * nv + f2x2 * (na + nb) + f3 * nc


@pytest.mark.parametrize("batch", [1, 2, 3])
def test_steppers_match_plain_allocating_steps_bit_for_bit(batch):
    # the steppers work in buffers; any change of an operand order, which moves
    # numpy's complex products at roundoff, shows here within 50 steps
    s_end, ds = 0.005, 1e-4
    steps = kf._step_count(s_end, ds)
    assert steps == 50
    h = s_end / steps
    angles = [pf.random_band_limited(np.random.default_rng([1, i]), 128, max_mode=6) for i in range(batch)]
    v = np.fft.rfft(np.stack([0.3 * a.samples for a in angles], axis=1), axis=0)
    v[-1] = 0.1  # the mean of the angle, in the Nyquist slot
    marched = list(kf._advance_spectrum(np.ascontiguousarray(v.T), 128, h, steps, kf._angle_terms))[-1]
    for _ in range(steps):
        v = plain_march_step(v, 128, h, plain_angle_nonlin)
    assert np.array_equal(marched, v.T)
    pots = [pf.random_band_limited(np.random.default_rng([3, i]), 256, max_mode=6) for i in range(batch)]
    v = np.fft.rfft(np.stack([p.samples for p in pots], axis=1), axis=0)
    marched = list(kf._advance_spectrum(np.ascontiguousarray(v.T), 256, h, steps))[-1]
    for _ in range(steps):
        v = plain_march_step(v, 256, h)
    assert np.array_equal(marched, v.T)


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
    strong = cc.lift(cc.random_projective(np.random.default_rng([1, 3]), 128, strength=0.6))
    # rotation number three: phi' = 3 and v = ln 3 are constant, so the march leaves v as it is
    calm = wound_curve()
    # one step of 1.0 takes the strong curve's max phi' from 1.32 to 3.11:
    # under twice the batch's max, over twice its own
    for pair in ((strong, calm), (calm, strong)):
        with pytest.raises(StepUnstable, match=r"^sup phi' jumped 1\.316\d* -> 3\.109\d* within one step of size 1\.0$"):
            kf.evolve_curve(pair, 1.0, ds=1.0)


def test_curve_batch_with_an_unstable_member_raises():
    good = cc.lift(cc.random_projective(np.random.default_rng([1, 0]), 128, strength=0.35))
    bad = cc.lift(cc.random_projective(np.random.default_rng([1, 3]), 128, strength=0.6))
    # at ds = 1e-3 the strong curve's mean phi' drifts off its rotation number past the gate
    kf.evolve_curve(good, 0.02, ds=1e-3)
    for curves in ((bad,), (good, bad), (bad, good)):
        with pytest.raises(StepUnstable) as info:
            kf.evolve_curve(curves, 0.02, ds=1e-3)
        # the message states what was measured: the step, the grid and the defect
        prefix = "flowed curve at ds = 0.001, n = 128: Wronskian off unity by "
        assert str(info.value).startswith(prefix)
        assert 1e-9 < float(str(info.value)[len(prefix):].split()[0]) < 1e-6


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


def test_curve_flow_rough_input_agrees_with_the_refined_grid():
    rng = np.random.default_rng(7)
    psi = 0.05 * pf.random_band_limited(rng, 128, max_mode=5)
    G = cc.lift(cc.ProjectiveCurve(psi))
    coarse = kf.evolve_curve(G, 0.02)
    fine = kf.evolve_curve(cc.lift(cc.ProjectiveCurve(pf.upsample(psi, 256))), 0.02, ds=2.5e-5)
    assert wronskian_defect(fine) < 1e-9
    # measured 1.8e-6, the coarse step's error, and 2.3e-8
    assert cc.curve_distance(coarse, fine) < 1e-5
    assert relative_drift(iv.invariant_report(G), iv.invariant_report(coarse)) < 1e-7


@pytest.mark.parametrize("seed", [[1, 3], [2, 9], [3, 1]], ids=["1-3", "2-9", "3-1"])
def test_strong_curves_flow_at_the_default_step(seed):
    # flow-pool curves on which the RK4 curve transport missed its Wronskian gate
    G = cc.lift(cc.random_projective(np.random.default_rng(seed), 128, 0.6))
    assert relative_drift(iv.invariant_report(G), iv.invariant_report(kf.evolve_curve(G, 0.02))) < 1e-7


def test_fine_grid_curve_flows():
    # the RK4 curve transport missed its gate here by 1.25e-9; the angle march drifts 1.7e-11
    G = cc.lift(cc.random_projective(np.random.default_rng(1), 2048, 0.35))
    assert relative_drift(iv.invariant_report(G), iv.invariant_report(kf.evolve_curve(G, 0.05))) < 1e-9


def test_rotation_three_curve_translates_exactly():
    # p = -9, so Gamma_s = -9 Gamma' moves the curve to Gamma(t - 9 s), to roundoff
    G = wound_curve()
    s = 0.02
    moved = kf.evolve_curve(G, s)
    assert cc.curve_distance(moved, cc.CentroAffineCurve(pf.shift(G.gamma1, -9 * s), pf.shift(G.gamma2, -9 * s))) < (
        G.n * np.finfo(float).eps
    )


@pytest.mark.parametrize("seed, strength", [([1, 0], 0.35), ([1, 3], 0.6)], ids=["0.35", "0.6"])
def test_angle_march_is_fourth_order_in_step(seed, strength):
    G = cc.lift(cc.random_projective(np.random.default_rng(seed), 128, strength))
    ref = kf.evolve_curve(G, 0.02, ds=6.25e-6)
    coarse, fine = (cc.curve_distance(kf.evolve_curve(G, 0.02, ds=ds), ref) for ds in (1e-4, 5e-5))
    # measured 15.8 and 13.6; a third-order march would give 8
    assert 12.0 < coarse / fine < 20.0


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


@pytest.mark.parametrize("anchor", [1, 2, 3, None])
def test_projective_transform_commutes_with_the_flow(anchor):
    # measured at most 9.6e-11 on the anchors, 2.9e-15 on the circle
    gamma = cc.make_circle(128) if anchor is None else cc.random_projective(np.random.default_rng(anchor), 128)

    def flowed(curve):
        return cc.project(kf.evolve_curve(cc.lift(curve), 0.02))

    transformed_then_flowed = flowed(bk.apply_tc_projective(gamma, 4.0, "minus"))
    flowed_then_transformed = bk.apply_tc_projective(flowed(gamma), 4.0, "minus")
    assert cc.projective_distance(transformed_then_flowed, flowed_then_transformed) <= 1e-8


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


def test_commutation_evolves_and_transforms_the_flowed_curve_once(monkeypatch):
    calls = []
    transforms = []
    evolve, transform = kf.evolve_curve, kf.apply_tc

    def counted_evolve(Gamma, s_end, **kw):
        calls.append((Gamma, s_end))
        return evolve(Gamma, s_end, **kw)

    def counted_transform(Gamma, c_aff, branch):
        transforms.append((Gamma, c_aff, branch))
        return transform(Gamma, c_aff, branch)

    monkeypatch.setattr(kf, "evolve_curve", counted_evolve)
    monkeypatch.setattr(kf, "apply_tc", counted_transform)
    G = gentle_curve(amp=0.05)
    assert kf.commutation_check(G, 0.5, s=0.02) < 1e-5
    # one pass carries the transformed curve and the curve itself, and the
    # flowed curve's image is apply_tc's, gated, on the branch of the same label
    assert [s_end for _, s_end in calls] == [0.02]
    pair = calls[0][0]
    assert isinstance(pair, tuple) and len(pair) == 2 and pair[1] is G
    assert [(c, branch) for _, c, branch in transforms] == [(0.5, "minus")] * 2
    assert transforms[0][0] is G and transforms[1][0] is not G


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


def test_flow_trace_marches_the_angle_once(monkeypatch):
    calls = []
    coeffs = kf._etdrk4_coeffs

    def counted(*args):
        calls.append(args[1])
        return coeffs(*args)

    monkeypatch.setattr(kf, "_etdrk4_coeffs", counted)
    states = kf.flow_trace(gentle_curve(), 0.02, samples=4)
    assert len(states) == 5
    assert calls == [1e-4]  # one march at the flow step, not one per snapshot


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
