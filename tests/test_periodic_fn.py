"""Tests for the spectral half-period calculus."""

import numpy as np
import pytest

from centrokdv import periodic_fn as pf
from centrokdv.errors import Resonant


def test_grid_spacing():
    t = pf.grid(32)
    assert t[0] == 0.0
    assert np.allclose(np.diff(t), np.pi / 32)
    assert t[-1] < np.pi


def test_constructor_validation():
    with pytest.raises(ValueError):
        pf.PeriodicFn(np.zeros(15))
    with pytest.raises(ValueError):
        pf.PeriodicFn(np.zeros(8))
    with pytest.raises(ValueError):
        pf.PeriodicFn(np.full(32, np.nan))
    with pytest.raises(ValueError):
        pf.PeriodicFn(np.zeros((4, 8)))
    with pytest.raises(ValueError):
        pf.PeriodicFn(np.zeros(32), parity="odd")


def test_samples_read_only():
    f = pf.constant(1.0, 32)
    with pytest.raises(ValueError):
        f.samples[0] = 2.0


def test_derivatives_exact_on_modes():
    n = 64
    f = pf.from_callable(lambda t: np.sin(2 * t), n)
    t = f.grid
    assert np.allclose(pf.differentiate(f, 1).samples, 2 * np.cos(2 * t), atol=1e-12)
    assert np.allclose(pf.differentiate(f, 2).samples, -4 * np.sin(2 * t), atol=1e-11)
    assert np.allclose(pf.differentiate(f, 3).samples, -8 * np.cos(2 * t), atol=1e-11)

    g = pf.from_callable(lambda t: np.sin(3 * t), n, parity="antiperiodic")
    assert np.allclose(pf.differentiate(g, 1).samples, 3 * np.cos(3 * t), atol=1e-12)
    assert np.allclose(pf.differentiate(g, 3).samples, -27 * np.cos(3 * t), atol=1e-10)


@pytest.mark.parametrize("parity", ["periodic", "antiperiodic"])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_differentiate_samples_matches_columnwise(parity, order):
    rng = np.random.default_rng(11)
    cols = [pf.random_band_limited(rng, 64, max_mode=5, parity=parity) for _ in range(2)]
    both = pf.differentiate_samples(np.stack([c.samples for c in cols]), parity, order)
    assert both.shape == (2, 64)
    for k, col in enumerate(cols):
        ref = pf.differentiate(col, order).samples
        # same arithmetic per row; only the FFT batching may differ
        assert np.max(np.abs(both[k] - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref)))


@pytest.mark.parametrize("order", [1, 2, 3])
def test_rfft_derivative_factor_differentiates_real_samples(order):
    # the alternating column is the Nyquist mode cos(64 t), which odd orders zero
    smooth = pf.random_band_limited(np.random.default_rng(5), 64, max_mode=5)
    samples = smooth.samples + np.resize([1.0, -1.0], 64)
    factor = pf.rfft_derivative_factor(64, order)
    assert factor.shape == (33,) and not factor.flags.writeable
    got = np.fft.irfft(factor * np.fft.rfft(samples), 64)
    ref = pf.differentiate_samples(samples, "periodic", order)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_differentiate_samples_validation():
    with pytest.raises(ValueError):
        pf.differentiate_samples(np.ones((16, 2)), "periodic", order=4)
    with pytest.raises(ValueError):
        pf.differentiate_samples(np.ones((16, 2)), "odd")


def test_derivative_matches_finite_differences():
    rng = np.random.default_rng(7)
    f = pf.random_band_limited(rng, 64, max_mode=5)
    df = pf.differentiate(f)
    t0 = 0.3
    exact = pf.evaluate(df, t0)
    errs = []
    for h in (1e-3, 5e-4):
        fd = (pf.evaluate(f, t0 + h) - pf.evaluate(f, t0 - h)) / (2 * h)
        errs.append(abs(fd - exact))
    # centered differences are second order, halving h quarters the error
    assert 3.5 < errs[0] / errs[1] < 4.5


def test_integrate_period_closed_forms():
    n = 64
    f = pf.from_callable(lambda t: np.sin(2 * t) ** 2, n)
    assert abs(pf.integrate_period(f) - np.pi / 2) < 1e-12

    g = pf.from_callable(np.sin, n, parity="antiperiodic")
    assert abs(pf.integrate_period(g) - 2.0) < 1e-12

    h = pf.from_callable(lambda t: np.exp(np.cos(2 * t)), n)
    # pi * I0(1), modified Bessel
    assert abs(pf.integrate_period(h) - 3.9774632605064224) < 1e-12


def test_evaluate_interpolates():
    n = 32
    f = pf.from_callable(lambda t: np.cos(4 * t) + 0.5 * np.sin(2 * t), n)
    ts = np.array([0.1, 1.3, 2.9])
    want = np.cos(4 * ts) + 0.5 * np.sin(2 * ts)
    assert np.allclose(pf.evaluate(f, ts), want, atol=1e-12)
    assert isinstance(pf.evaluate(f, 0.1), float)

    g = pf.from_callable(lambda t: np.sin(t) - 0.2 * np.cos(3 * t), n, parity="antiperiodic")
    want = np.sin(ts) - 0.2 * np.cos(3 * ts)
    assert np.allclose(pf.evaluate(g, ts), want, atol=1e-12)


def test_upsample_agrees_with_evaluate():
    rng = np.random.default_rng(11)
    for parity in ("periodic", "antiperiodic"):
        f = pf.random_band_limited(rng, 32, max_mode=6, parity=parity)
        up = pf.upsample(f, 96)
        assert np.allclose(up.samples, pf.evaluate(f, pf.grid(96)), atol=1e-12)
    with pytest.raises(ValueError):
        pf.upsample(f, 16)
    with pytest.raises(ValueError):
        pf.upsample(f, 33)


def test_values_with_wrap_endpoint():
    f = pf.from_callable(np.sin, 32, parity="antiperiodic")
    vals = pf.values_with_wrap(f, 64)
    assert vals.shape == (65,)
    assert abs(vals[-1] + vals[0]) < 1e-14

    g = pf.from_callable(lambda t: np.cos(2 * t), 32)
    vals = pf.values_with_wrap(g, 64)
    assert abs(vals[-1] - vals[0]) < 1e-14


def test_shift():
    n = 64
    f = pf.from_callable(np.sin, n, parity="antiperiodic")
    s = np.pi / 6
    shifted = pf.shift(f, s)
    assert np.allclose(shifted.samples, np.sin(f.grid + s), atol=1e-12)

    g = pf.from_callable(lambda t: np.cos(2 * t), n)
    shifted = pf.shift(g, 0.4)
    assert np.allclose(shifted.samples, np.cos(2 * (g.grid + 0.4)), atol=1e-12)


def test_sample_count_invariance():
    # same rng seed draws the same band-limited coefficients at any n
    f32 = pf.random_band_limited(np.random.default_rng(3), 32, max_mode=6)
    f64 = pf.random_band_limited(np.random.default_rng(3), 64, max_mode=6)
    ts = np.linspace(0.0, np.pi, 17, endpoint=False)
    assert np.allclose(pf.evaluate(f32, ts), pf.evaluate(f64, ts), atol=1e-10)
    assert np.allclose(pf.upsample(f32, 64).samples, f64.samples, atol=1e-10)


def test_parity_algebra():
    n = 32
    a = pf.from_callable(np.sin, n, parity="antiperiodic")
    b = pf.from_callable(np.cos, n, parity="antiperiodic")
    p = pf.from_callable(lambda t: np.cos(2 * t), n)

    assert (a * b).parity == "periodic"
    assert (a * p).parity == "antiperiodic"
    assert (p * p).parity == "periodic"
    assert (a + b).parity == "antiperiodic"
    assert (2.0 * a).parity == "antiperiodic"
    assert (a / p).parity == "antiperiodic"

    with pytest.raises(ValueError):
        a + p
    with pytest.raises(ValueError):
        a + 1.0
    with pytest.raises(ValueError):
        p / a

    # sin*cos = sin(2t)/2 lands on the periodic grid modes
    prod = a * b
    assert np.allclose(prod.samples, 0.5 * np.sin(2 * prod.grid), atol=1e-14)


def _every_grid_mode():
    # every mode of the 32-point grid, the unpaired Nyquist mode (-1)^k included
    return pf.random_band_limited(np.random.default_rng(5), 32, max_mode=15) + pf.PeriodicFn(np.resize([0.3, -0.3], 32))


@pytest.mark.parametrize("m", [32, 96, 256])
def test_values_and_slopes_match_values_with_wrap(m):
    # the reference is the dense evaluation of f and of differentiate(f) at the m + 1 points
    f = _every_grid_mode()
    vals, slopes = pf.values_and_slopes_with_wrap(f.samples, m)
    t = np.arange(m + 1) * (np.pi / m)
    # over rng seeds 1-8 of this construction: values within 8.8e-15, slopes within 1.2e-13 (|f'| up to 11.6)
    assert np.max(np.abs(vals - pf.evaluate(f, t))) <= 2e-14
    assert np.max(np.abs(slopes - pf.evaluate(pf.differentiate(f), t))) <= 2e-13


@pytest.mark.parametrize("m", [34, 96, 256, 512])
def test_periodic_interpolation_has_one_path(m):
    # upsample and values_with_wrap of periodic data are the value row of values_and_slopes_with_wrap,
    # bit for bit, though upsample synthesizes that row alone
    f = _every_grid_mode()
    row = pf.values_and_slopes_with_wrap(f.samples, m)[0]
    assert np.array_equal(pf.values_with_wrap(f, m), row)
    assert np.array_equal(pf.upsample(f, m).samples, row[:-1])


@pytest.mark.parametrize("m", [34, 96, 256, 512])
def test_antiperiodic_interpolation_has_the_same_path(m):
    # antiperiodic samples interpolate through the same routine, with the wrap f(pi) = -f(0);
    # over rng seeds 1-8 of this construction: values within 7.8e-15, slopes within 1.3e-13 (|g'| up to 17.7)
    g = pf.random_band_limited(np.random.default_rng(5), 32, max_mode=16, parity="antiperiodic")
    vals, slopes = pf.values_and_slopes_with_wrap(g.samples, m, "antiperiodic")
    assert np.array_equal(pf.values_with_wrap(g, m), vals)
    assert np.array_equal(pf.upsample(g, m).samples, vals[:-1])
    t = np.arange(m + 1) * (np.pi / m)
    assert np.max(np.abs(vals - pf.evaluate(g, t))) <= 2e-14
    assert np.max(np.abs(slopes - pf.evaluate(pf.differentiate(g), t))) <= 2e-13


@pytest.mark.parametrize("parity", ["periodic", "antiperiodic"])
def test_a_stack_of_rows_interpolates_and_differentiates_row_by_row(parity):
    # leading axes are a batch for either parity: the periodic n-point rfft and
    # the extension's transform both run along the last axis
    rng = np.random.default_rng(13)
    rows = [pf.random_band_limited(rng, 32, max_mode=15, parity=parity) for _ in range(3)]
    both = pf.values_and_slopes_with_wrap(np.stack([f.samples for f in rows]), 96, parity)
    assert both.shape == (2, 3, 97)
    for k, f in enumerate(rows):
        ref = pf.values_and_slopes_with_wrap(f.samples, 96, parity)
        # same arithmetic per row; only the FFT batching may differ
        assert np.max(np.abs(both[:, k] - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("parity", ["periodic", "antiperiodic"])
def test_derivatives_share_one_transform_bit_for_bit(parity):
    f = pf.random_band_limited(np.random.default_rng(7), 64, max_mode=20, parity=parity)
    for got, order in zip(pf.derivatives(f, 1, 2, 3), (1, 2, 3)):
        assert got.parity == parity
        assert np.array_equal(got.samples, pf.differentiate(f, order).samples)
    with pytest.raises(ValueError):
        pf.derivatives(f, 1, 4)


def test_resolved_band_is_the_last_mode_above_the_floor():
    row = np.zeros(9, complex)
    row[[0, 2, 5]] = [2.0, -1.0j, 0.1]
    floor = pf.BAND_TOL * 2.0
    row[7] = floor  # at the floor, not above it
    assert pf.resolved_band(row) == 5
    row[7] = 1.01 * floor
    assert pf.resolved_band(row) == 7
    # each row of a batch against its own largest; an all-zero row resolves band 0
    rows = np.stack([row, np.zeros(9), np.eye(9)[3] * 1e-300])
    assert np.array_equal(pf.resolved_band(rows), [7, 0, 3])


@pytest.mark.parametrize("parity, top", [("periodic", 12), ("antiperiodic", 7)])
def test_resolved_band_reads_rfft_and_extension_modes(parity, top):
    # 6 periodic modes e^{i nu t}, nu <= 12, are rfft modes 0..6 of n samples and
    # extension modes 0..12; 4 antiperiodic ones reach extension mode 7
    f = pf.random_band_limited(np.random.default_rng(2), 256, max_mode=6 if parity == "periodic" else 4, parity=parity)
    assert pf.resolved_band(pf._extension_modes(f.samples, parity)) == top
    if parity == "periodic":
        assert pf.resolved_band(np.fft.rfft(f.samples)) == top // 2


def test_solve_linear_periodic_constant_case():
    n = 32
    kappa = pf.constant(1.0, n)
    g = pf.solve_linear_periodic(kappa, pf.constant(1.0, n))
    assert np.allclose(g.samples, -1.0, atol=1e-12)

    rhs = pf.from_callable(lambda t: np.cos(2 * t), n)
    g = pf.solve_linear_periodic(kappa, rhs)
    want = 0.4 * np.sin(2 * g.grid) - 0.2 * np.cos(2 * g.grid)
    assert np.allclose(g.samples, want, atol=1e-12)


def test_solve_linear_periodic_residual():
    n = 64
    rng = np.random.default_rng(19)
    kappa = pf.random_band_limited(rng, n, max_mode=3) + 0.7
    rhs = pf.random_band_limited(rng, n, max_mode=4)
    g = pf.solve_linear_periodic(kappa, rhs)
    resid = pf.differentiate(g) - kappa * g - rhs
    assert np.max(np.abs(resid.samples)) < 1e-10


def test_diff_matrix_cache_owns_its_real_array():
    n = 48
    d = pf._diff_matrix(n)
    assert d.base is None and d.dtype == np.float64 and not d.flags.writeable
    assert np.array_equal(d, pf.differentiate_samples(np.eye(n), "periodic").T)


def test_solve_linear_periodic_resonant():
    n = 32
    with pytest.raises(Resonant):
        pf.solve_linear_periodic(pf.constant(0.0, n), pf.constant(1.0, n))
    # zero-mean kappa is resonant no matter its shape
    kappa = pf.from_callable(lambda t: np.sin(2 * t), n)
    with pytest.raises(Resonant):
        pf.solve_linear_periodic(kappa, pf.constant(1.0, n))


def test_random_band_limited_normalization():
    rng = np.random.default_rng(23)
    fine = pf.grid(2048)
    f = pf.random_band_limited(rng, 64, max_mode=6)
    assert abs(np.max(np.abs(pf.evaluate(f, fine))) - 1.0) < 1e-12
    g = pf.random_band_limited(rng, 64, max_mode=4, parity="antiperiodic")
    assert g.parity == "antiperiodic"
    assert abs(np.max(np.abs(pf.evaluate(g, fine))) - 1.0) < 1e-12
