"""Spectral calculus on the half-period grid t_k = k*pi/N.

A ``PeriodicFn`` stores N real samples on [0, pi) together with a parity
flag.  Parity "periodic" means f(t+pi) = f(t); parity "antiperiodic"
means f(t+pi) = -f(t).  Either way the samples extend to 2N samples
[f, +-f] of a 2pi-periodic function, and one real FFT of that extension
gives its modes e^{ijt}, j = 0..N: even j for periodic data, odd j for
antiperiodic data, and the unpaired Nyquist mode cos(Nt) last.  The
derivative multiplier (ij)^k is the same for both parities.  Periodic
interpolation reads the extension's even modes from the N-point rfft.
All operations act on the trigonometric interpolant and are exact for
band-limited data up to roundoff.  Kernels on raw arrays transform along
the last axis, the grid or the modes; any leading axes are a batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import Resonant

__all__ = [
    "PeriodicFn",
    "grid",
    "from_callable",
    "constant",
    "differentiate",
    "differentiate_samples",
    "derivatives",
    "integrate_period",
    "resolved_band",
    "evaluate",
    "upsample",
    "shift",
    "solve_linear_periodic",
    "random_band_limited",
]

MIN_SAMPLES = 16

# solve_linear_periodic refuses multipliers this close to 1 (relative) as resonant
RESONANCE_TOL = 1e-8

# resolved_band's floor, relative to a row's largest coefficient (derived there)
BAND_TOL = 1e3 * np.finfo(float).eps

# f(t + pi) = sign * f(t) for each parity
_WRAP_SIGN = {"periodic": 1.0, "antiperiodic": -1.0}


def _check_sample_count(n: int) -> None:
    """Raise ValueError unless n is an even sample count >= MIN_SAMPLES."""
    if n < MIN_SAMPLES or n % 2:
        raise ValueError(f"need an even sample count >= {MIN_SAMPLES}, got {n}")


def grid(n: int) -> np.ndarray:
    """Sample points t_k = k*pi/n, k = 0..n-1; n must be a valid sample count."""
    _check_sample_count(n)
    return np.arange(n) * (np.pi / n)


@dataclass(frozen=True)
class PeriodicFn:
    """Real function on [0, pi) represented by uniform samples and a parity."""

    samples: np.ndarray
    parity: str = "periodic"

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=float)
        if arr.ndim != 1:
            raise ValueError("samples must be a one-dimensional array")
        _check_sample_count(arr.shape[0])
        if not np.all(np.isfinite(arr)):
            raise ValueError("samples must be finite")
        if self.parity not in _WRAP_SIGN:
            raise ValueError(f"unknown parity {self.parity!r}")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)

    @property
    def n(self) -> int:
        return self.samples.shape[0]

    @property
    def grid(self) -> np.ndarray:
        return grid(self.n)

    def __call__(self, t):
        return evaluate(self, t)

    # pointwise algebra; products multiply samples (collocation), parity
    # composes as even/odd: anti * anti = periodic, anti * periodic = anti
    def __add__(self, other):
        if isinstance(other, PeriodicFn):
            if other.n != self.n:
                raise ValueError("sample counts differ")
            if other.parity != self.parity:
                raise ValueError("cannot add functions of different parity")
            return PeriodicFn(self.samples + other.samples, self.parity)
        if np.isscalar(other):
            # adding a constant only preserves parity in the periodic case
            if self.parity != "periodic" and float(other) != 0.0:
                raise ValueError("cannot add a nonzero constant to an antiperiodic function")
            return PeriodicFn(self.samples + float(other), self.parity)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, PeriodicFn) or np.isscalar(other):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, PeriodicFn):
            if other.n != self.n:
                raise ValueError("sample counts differ")
            parity = "periodic" if self.parity == other.parity else "antiperiodic"
            return PeriodicFn(self.samples * other.samples, parity)
        if np.isscalar(other):
            return PeriodicFn(self.samples * float(other), self.parity)
        return NotImplemented

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        if isinstance(other, PeriodicFn):
            if other.parity != "periodic":
                # 1/f of an antiperiodic f always has poles (f must vanish)
                raise ValueError("can only divide by a periodic function")
            if other.n != self.n:
                raise ValueError("sample counts differ")
            return PeriodicFn(self.samples / other.samples, self.parity)
        if np.isscalar(other):
            return PeriodicFn(self.samples / float(other), self.parity)
        return NotImplemented

    def __neg__(self):
        return PeriodicFn(-self.samples, self.parity)


def from_callable(fn, n: int, parity: str = "periodic") -> PeriodicFn:
    """Sample a callable on the n-point grid."""
    return PeriodicFn(np.asarray(fn(grid(n)), dtype=float), parity)


def constant(value: float, n: int) -> PeriodicFn:
    _check_sample_count(n)
    return PeriodicFn(np.full(n, float(value)), "periodic")


def _extension_modes(samples: np.ndarray, parity: str) -> np.ndarray:
    """rfft of the 2pi-periodic extension [f, +-f] on 2n points along the last axis; mode j is e^{ijt}."""
    return np.fft.rfft(np.concatenate([samples, _WRAP_SIGN[parity] * samples], axis=-1))


def _coefficients(f: PeriodicFn) -> np.ndarray:
    """a_j with f(t) = Re sum_j a_j e^{ijt}, j = 0..n: paired modes count twice, modes 0 and n once."""
    a = _extension_modes(f.samples, f.parity) / f.n
    a[[0, -1]] *= 0.5
    return a


@lru_cache(maxsize=32)
def _derivative_factor(n: int, order: int) -> np.ndarray:
    """Read-only (ij)^order on the n + 1 modes of the 2n-point extension, whatever the parity.

    Odd orders zero the unpaired Nyquist mode cos(n t), the last one: its
    odd derivatives vanish on the grid.
    """
    mult = (1j * np.arange(n + 1)) ** order
    if order % 2:
        mult[n] = 0.0
    mult.flags.writeable = False
    return mult


@lru_cache(maxsize=32)
def nyquist_mode(n: int) -> np.ndarray:
    """Read-only samples (-1)^k of the unpaired Nyquist mode cos(n t) on the n-point grid."""
    mode = np.tile([1.0, -1.0], n // 2)
    mode.flags.writeable = False
    return mode


def resolved_band(modes: np.ndarray) -> np.ndarray:
    """Per row, the highest index along the last axis whose |coefficient| exceeds BAND_TOL of the row's largest.

    BAND_TOL = 1e3 eps.  Rounding the samples and the FFT's own roundoff
    put at most about eps log2(n) of the peak into each coefficient of a
    band-limited row (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed. 2002, sec. 24.1): 11 eps at n = 2048, 20 eps at
    n = 10^6.  1e3 eps stays well over a decade above that floor, and a
    mode below it moves a sample by under 1e3 eps of the peak, less than
    the roundoff one spectral derivative of the samples carries.

    Returns an integer array of the batch shape (0-d for one row); an
    all-zero row resolves band 0.  The modes may be rfft modes of samples
    or the extension's: the rule reads magnitudes alone.
    """
    mag = np.abs(modes)
    above = mag > BAND_TOL * mag.max(axis=-1, keepdims=True)
    top = mag.shape[-1] - 1 - np.argmax(above[..., ::-1], axis=-1)
    return np.where(above.any(axis=-1), top, 0)


def rfft_derivative_factor(n: int, order: int) -> np.ndarray:
    """Read-only (i nu)^order on the n // 2 + 1 rfft modes of n periodic samples.

    These modes e^{i nu t}, nu = 2j, are the extension's even ones, so the
    factor is the even half of the extension's; odd orders zero the Nyquist mode.
    """
    return _derivative_factor(n, order)[::2]


def _check_derivative(order: int, parity: str) -> None:
    """Raise ValueError unless order is 1, 2 or 3 and parity is known."""
    if order not in (1, 2, 3) or parity not in _WRAP_SIGN:
        raise ValueError(f"need derivative order 1, 2 or 3 and a known parity, got {order!r}, {parity!r}")


def _derivative_from_modes(modes: np.ndarray, order: int) -> np.ndarray:
    """The order-th derivative's n samples from the n + 1 extension modes along the last axis."""
    n = modes.shape[-1] - 1
    return np.fft.irfft(_derivative_factor(n, order) * modes, 2 * n)[..., :n]


def derivatives_of_samples(samples: np.ndarray, parity: str, *orders: int) -> tuple:
    """differentiate_samples(samples, parity, order) for each of the orders, from one forward transform.

    Each row of a batch is transformed alone, so a stacked batch gives each
    row's derivatives bit for bit.
    """
    for order in orders:
        _check_derivative(order, parity)
    modes = _extension_modes(samples, parity)
    return tuple(_derivative_from_modes(modes, order) for order in orders)


def differentiate_samples(samples: np.ndarray, parity: str, order: int = 1) -> np.ndarray:
    """Spectral derivative of raw samples along the last axis (leading axes are a batch); order 1, 2 or 3."""
    _check_derivative(order, parity)
    return _derivative_from_modes(_extension_modes(samples, parity), order)


def differentiate(f: PeriodicFn, order: int = 1) -> PeriodicFn:
    """Spectral derivative of the interpolant; order 1, 2 or 3."""
    return PeriodicFn(differentiate_samples(f.samples, f.parity, order), f.parity)


def derivatives(f: PeriodicFn, *orders: int) -> tuple:
    """differentiate(f, order) for each of the orders, from one forward transform."""
    return tuple(PeriodicFn(d, f.parity) for d in derivatives_of_samples(f.samples, f.parity, *orders))


def integrate_period(f: PeriodicFn) -> float:
    """Integral of the interpolant over [0, pi); exact for the stored modes.

    Of the modes e^{ijt} only j = 0 (integral pi) and the odd ones (2i/j)
    integrate to nonzero, so periodic samples integrate to pi times their mean.
    """
    if f.parity == "periodic":
        return float(f.samples.mean() * np.pi)
    return float(np.sum(_coefficients(f)[1::2] * (2j / np.arange(1, f.n, 2))).real)


def evaluate(f: PeriodicFn, t):
    """Trigonometric interpolation at arbitrary points, from the modes of f's parity."""
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    first = 0 if f.parity == "periodic" else 1
    modes = np.arange(first, f.n + 1, 2)
    vals = (np.exp(1j * np.outer(t_arr, modes)) @ _coefficients(f)[first::2]).real
    return vals[0] if np.isscalar(t) or np.asarray(t).ndim == 0 else vals


def upsample(f: PeriodicFn, m: int) -> PeriodicFn:
    """Exact resampling onto an m-point grid, m even and >= n: values_and_slopes_with_wrap's value row."""
    if m == f.n:
        return f
    c = _resampling_modes(f.samples, m, f.parity)
    return PeriodicFn(np.fft.irfft(c, m if f.parity == "periodic" else 2 * m)[:m], f.parity)


def values_with_wrap(f: PeriodicFn, m: int) -> np.ndarray:
    """m+1 values on [0, pi] inclusive; the endpoint uses the parity wrap."""
    vals = upsample(f, m).samples
    return np.concatenate([vals, [_WRAP_SIGN[f.parity] * vals[0]]])


def interpolate_modes(modes: np.ndarray, n: int, m: int, parity: str = "periodic") -> np.ndarray:
    """Rows f and f' on the m-point grid from the leading modes of n samples.

    Periodic modes are the n-point rfft (the extension's even modes),
    antiperiodic ones the extension's; modes runs along the last axis,
    scaled by m / n with the Nyquist mode split if m > n, and leading axes
    are a batch; the missing modes are zero.  One irfft returns shape
    (2,) + batch + (m,); the slope zeroes the Nyquist mode.
    """
    factor, size = _derivative_factor(n, 1), 2 * m
    if parity == "periodic":
        factor, size = factor[::2], m
    return np.fft.irfft(np.stack([modes, factor[: modes.shape[-1]] * modes]), size)[..., :m]


def _resampling_modes(samples: np.ndarray, m: int, parity: str) -> np.ndarray:
    """The modes interpolate_modes takes to resample n samples of a parity onto m points.

    Periodic data use the n-point rfft, the extension's even modes at half
    the cost.  The modes are scaled by m / n, and for m > n the
    self-conjugate Nyquist coefficient cos(n t) is split between
    frequencies +-n.
    """
    n = samples.shape[-1]
    if m < n or m % 2 or parity not in _WRAP_SIGN:
        raise ValueError("target sample count must be even and >= current, and parity known")
    if parity == "periodic":
        c = np.fft.rfft(samples) * (m / n)
    else:
        c = _extension_modes(samples, parity) * (m / n)
    if m > n:
        c[..., -1] *= 0.5
    return c


def values_and_slopes_with_wrap(samples: np.ndarray, m: int, parity: str = "periodic") -> np.ndarray:
    """Rows f and f' of the interpolant at the m+1 points of [0, pi] inclusive.

    The one interpolation of samples of either parity; upsample synthesizes
    its value row alone from the same modes.
    """
    vals = interpolate_modes(_resampling_modes(samples, m, parity), samples.shape[-1], m, parity)
    return np.concatenate([vals, _WRAP_SIGN[parity] * vals[..., :1]], axis=-1)


def periodic_slopes(samples: np.ndarray, m: int) -> np.ndarray:
    """The slope row of values_and_slopes_with_wrap(samples, m), periodic, without its wrap point.

    The same modes times the n-point factor, whose Nyquist entry is zero,
    so the same m slopes bit for bit, from one irfft of the slope row alone.
    """
    factor = rfft_derivative_factor(samples.shape[-1], 1)
    return np.fft.irfft(factor * _resampling_modes(samples, m, "periodic"), m)


def shift(f: PeriodicFn, s: float) -> PeriodicFn:
    """Samples of f(t + s) on the same grid."""
    modes = _extension_modes(f.samples, f.parity) * np.exp(1j * s * np.arange(f.n + 1))
    return PeriodicFn(np.fft.irfft(modes, 2 * f.n)[: f.n], f.parity)


@lru_cache(maxsize=None)
def _diff_matrix(n: int) -> np.ndarray:
    # D transposes the derivative of the identity's rows; an owned copy, since that view
    # holds the n x 2n extension, which the cache would otherwise keep alive at twice D's size
    d = differentiate_samples(np.eye(n), "periodic").T.copy()
    d.flags.writeable = False
    return d


def solve_linear_periodic(kappa: PeriodicFn, rhs: PeriodicFn) -> PeriodicFn:
    """Solve g' - kappa*g = rhs for the unique periodic g.

    Uses spectral collocation: (D - diag(kappa)) g = rhs on the grid, one
    O(n^3) dense solve.  Uniqueness requires the homogeneous monodromy
    multiplier exp(int_0^pi kappa dt) to stay away from 1; otherwise
    ``Resonant``.  The reference solver: no package code calls it.  The
    Riccati polish and pushforward_tangent use the O(n log n) Floquet
    solve bound to their branch (riccati_monodromy.RiccatiBranch.solve_linear),
    which tests compare against this one.
    """
    if kappa.parity != "periodic" or rhs.parity != "periodic":
        raise ValueError("kappa and rhs must both be periodic")
    if kappa.n != rhs.n:
        raise ValueError("sample counts differ")
    multiplier = np.exp(integrate_period(kappa))
    if abs(multiplier - 1.0) <= RESONANCE_TOL * max(1.0, abs(multiplier)):
        raise Resonant(
            f"homogeneous multiplier {multiplier!r} within tolerance {RESONANCE_TOL!r} of 1"
        )
    n = kappa.n
    a = _diff_matrix(n) - np.diag(kappa.samples)
    g = np.linalg.solve(a, rhs.samples)
    return PeriodicFn(g, "periodic")


def random_band_limited(rng, n: int, max_mode: int = 6, parity: str = "periodic") -> PeriodicFn:
    """Random band-limited function, normalized to unit sup norm.

    For "periodic" the modes are sin/cos(2kt), k = 1..max_mode; for
    "antiperiodic" they are sin/cos((2k+1)t), k = 0..max_mode-1.
    Coefficients fall off like 1/k so the samples look like mild test data.
    """
    coeffs = [rng.normal(size=2) / k for k in range(1, max_mode + 1)]

    def synth(t):
        vals = np.zeros_like(t)
        for k, (a, b) in enumerate(coeffs, start=1):
            nu = 2 * k if parity == "periodic" else 2 * k - 1
            vals += a * np.cos(nu * t) + b * np.sin(nu * t)
        return vals

    # normalize on a fixed fine grid so the function does not depend on n
    peak = np.max(np.abs(synth(grid(2048))))
    return PeriodicFn(synth(grid(n)) / peak, parity)
