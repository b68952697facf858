"""KdV motion of Hill potentials and the induced motion of their curves.

The potential evolves by p_s = -1/2 p''' + 3 p' p.  A unit-Wronskian curve
is the lift Gamma = (cos phi, sin phi)/sqrt(phi') of its angle phi, which
advances by k pi over the period, k odd.  The transport Gamma_s = p Gamma'
- 1/2 p' Gamma, which carries the curvature by the potential flow, moves
the angle by the Schwarzian KdV phi_s = p phi' (Pinkall, Results Math. 27,
1995).  For v = ln phi', p = -1/2 v'' + 1/4 v'^2 - e^{2v} and

    v_s = -1/2 v''' + 1/4 v'^3 - 3 v' e^{2v},

while the mean m of phi - k t moves by mean(3/4 v'^2 e^v - e^{3v}).  The
linear part is the potential's, so one exponential integrator (ETDRK4;
Kassam and Trefethen, SIAM J. Sci. Comput. 26, 2005) marches both.  The
moved curve is the lift of phi = k t + m + the integral of e^v - k, with
unit Wronskian up to the drift of mean(e^v) from k, which its gate checks.

Transform budget per step, each call over the whole batch and on the
march grid: 8 FFT calls, one irfft and one rfft per ETDRK4 stage, the last
irfft gating the step; the angle's irfft gives v and v' from one call.
Each pass adds one gating irfft before its first step.  The angle marches
on the curve's grid, and rebuilding a curve takes three more.  The
potential marches on the coarsest grid n / 2^k whose band meets the 2/3
rule (evolve_potential); a step rejected there costs the same 8 calls,
and the entry rfft and exit irfft run on n.  The stepper writes every
stage into work buffers allocated once per pass, the transforms through
np.fft's out= (numpy 2.0 or later), and each product keeps the operand
order of the allocating formulas, so the results are the same bit for
bit.  Every array puts the batch first and the grid last, and every
transform runs along the last axis.
"""

import csv
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from math import ceil, isfinite

import numpy as np

from . import curve_core as cc
from . import invariants as iv
from . import periodic_fn as pf
from .backlund import apply_tc
from .curve_core import CentroAffineCurve, curvature, tangent_field
from .errors import StepUnstable

__all__ = [
    "FLOW_TRACE_HEADER",
    "FlowState",
    "commutation_check",
    "evolve_curve",
    "evolve_potential",
    "flow_trace",
    "flow_trace_to_csv",
    "recursion_check",
]

FLOW_TRACE_HEADER = ("s", "H1", "H2", "I", "J", "K")

DEFAULT_DS = 1e-4  # target flow step of evolve_potential, evolve_curve and flow_trace
# most steps of one pass over all its legs: a curve step at n = 128 takes about
# 0.1 ms (one thread, 2-CPU x86-64 host), so 10^7 of them run for about 20 minutes
MAX_FLOW_STEPS = 10**7
CONTOUR_POINTS = 32


@lru_cache(maxsize=16)
def _etdrk4_coeffs(n: int, h: float):
    """Read-only stage coefficients of the fourth-order exponential integrator.

    The linear part is -1/2 D^3 on the n // 2 + 1 rfft modes of n samples.
    The phi-function combinations are averaged over a unit circle around
    each h*L value; the mean-value property evaluates them exactly while
    dodging the removable singularity at 0.  The linear spectrum here is
    imaginary, so the contour points stay complex and so do the results.
    Returned as (e^z, e^{z/2}, q, f1, 2 f2, f3), f2 doubled as the step
    takes it.  Cached per (n, h): a flow pass and its repeats share one build.
    """
    linear = -0.5 * pf.rfft_derivative_factor(n, 3)
    z = h * linear.astype(complex)
    r = np.exp(2j * np.pi * (np.arange(1, CONTOUR_POINTS + 1) - 0.5) / CONTOUR_POINTS)
    lr = z[:, None] + r[None, :]
    elr = np.exp(lr)
    q = h * np.mean((np.exp(lr / 2.0) - 1.0) / lr, axis=1)
    f1 = h * np.mean((-4.0 - lr + elr * (4.0 - 3.0 * lr + lr**2)) / lr**3, axis=1)
    f2 = h * np.mean((2.0 + lr + elr * (lr - 2.0)) / lr**3, axis=1)
    f3 = h * np.mean((-4.0 - 3.0 * lr - lr**2 + elr * (4.0 - lr)) / lr**3, axis=1)
    coeffs = (np.exp(z), np.exp(z / 2.0), q, f1, 2.0 * f2, f3)
    for c in coeffs:
        c.flags.writeable = False
    return coeffs


def _checked_sup(sup: np.ndarray, vals: np.ndarray, h: float, what: str, work: np.ndarray) -> np.ndarray:
    """Per-member sup norms of vals after one step, the batch on the first axis.

    work is a buffer of vals' shape for |vals|.  Raises StepUnstable if any
    member's norm is not finite or more than doubled its own previous one.
    """
    new_sup = np.abs(vals, out=work).max(axis=tuple(range(1, vals.ndim)))
    held = new_sup <= 2.0 * np.maximum(sup, 1e-12)  # false for NaN and inf too
    if not held.all():
        k = int(np.argmin(held))
        raise StepUnstable(
            f"{what} jumped {float(sup[k])!r} -> {float(new_sup[k])!r} within one step of size {h!r}"
        )
    return new_sup


def _potential_terms(batch: tuple, n: int):
    """The potential's nonlinear part 3/2 (p^2)' as (what, grid, nonlinear) for _advance_spectrum.

    grid(w) returns the samples p of the spectra w, which gate the step;
    nonlinear(out) writes into out the spectrum of 3/2 (p^2)' for the
    samples grid made last.
    """
    mult = 1.5 * pf.rfft_derivative_factor(n, 1)[None]
    vals, sq = np.empty((2,) + batch + (n,))

    def grid(w):
        return np.fft.irfft(w, n, out=vals)

    def nonlinear(out):
        np.fft.rfft(np.multiply(vals, vals, out=sq), out=out)
        np.multiply(mult, out, out=out)

    return "sup norm", grid, nonlinear


def _angle_terms(batch: tuple, n: int):
    """The angle's nonlinear part 1/4 v'^3 - 3 v' e^{2v}, v = ln phi', as _potential_terms gives the potential's.

    The Nyquist slot of v's spectrum carries the mean m of phi - k t in
    place of v's unresolved Nyquist mode: the linear part is zero there, as
    at mode 0, so the stepper advances the slot with the z = 0 weights by
    what nonlinear writes into it, mean(3/4 v'^2 e^v - e^{3v}).  grid(w)
    leaves the slot out of v and returns phi' = e^v, a quantity of order
    one even where v is at roundoff, so that it can gate the step.
    """
    slope = pf.rfft_derivative_factor(n, 1)
    pair = np.empty(batch + (2, n // 2 + 1), complex)  # the modes of v and v'
    rows = np.empty(batch + (2, n))
    slopes = rows[..., 1, :]
    e, sq, e2, work = np.empty((4,) + batch + (n,))

    def grid(w):
        pair[..., 0, :] = w
        pair[..., 0, -1] = 0.0
        np.multiply(slope, w, out=pair[..., 1, :])
        np.fft.irfft(pair, n, out=rows)
        return np.exp(rows[..., 0, :], out=e)

    def nonlinear(out):
        np.multiply(slopes, slopes, out=sq)
        np.multiply(e, e, out=e2)
        # the slot's mean first, while e2 holds e^{2v}: np.mean's own pairwise sum and division
        np.subtract(np.multiply(0.75, sq, out=work), e2, out=work)
        mean = np.add.reduce(np.multiply(e, work, out=work), axis=-1) / n
        np.subtract(np.multiply(0.25, sq, out=work), np.multiply(3.0, e2, out=e2), out=work)
        np.fft.rfft(np.multiply(slopes, work, out=work), out=out)
        out[..., -1] = mean

    return "sup phi'", grid, nonlinear


def _advance_spectrum(v: np.ndarray, n: int, h: float, nsteps: int, terms=_potential_terms):
    """Yield the rfft spectra at s = 0, h, ..., nsteps * h of u_s = -1/2 u''' + N(u).

    v is (B, n//2+1), one member's spectrum per row, and every transform
    runs along the last axis.  terms(batch, n) gives N, the potential's by
    default or the angle's (_angle_terms), and the samples that gate each
    step: a step raises StepUnstable if a member's sup norm of them more
    than doubles.  Every yield after the first is a fresh array; the stages
    write into buffers allocated once per pass.
    """
    # coefficient rows stay 2-d, (1, modes), so that one member takes
    # numpy's same-shape loop rather than a broadcast
    e_full, e_half, q, f1, f2x2, f3 = (c[None] for c in _etdrk4_coeffs(n, h))
    what, grid, nonlinear = terms(v.shape[:-1], n)
    # the four nonlinear spectra, the three stage inputs, e_half v and a
    # scratch spectrum; |samples| for the gate.  Every product keeps the
    # operand order of the plain formulas: numpy's complex multiply is not
    # operand-symmetric, so a swap moves the march at roundoff.
    nv, na, nb, nc, a, b, c, ev, work = np.empty((9,) + v.shape, complex)
    mag = np.empty(v.shape[:-1] + (n,))

    # the samples that gate a step are the first stage's input to the next
    sup = np.max(np.abs(grid(v), out=mag), axis=-1)
    yield v
    for _ in range(nsteps):
        nonlinear(nv)
        np.multiply(e_half, v, out=ev)
        np.add(ev, np.multiply(q, nv, out=a), out=a)  # a = e_half v + q nv
        grid(a)
        nonlinear(na)
        np.add(ev, np.multiply(q, na, out=b), out=b)  # b = e_half v + q na
        grid(b)
        nonlinear(nb)
        np.subtract(np.multiply(2.0, nb, out=work), nv, out=work)
        np.multiply(q, work, out=work)
        np.add(np.multiply(e_half, a, out=c), work, out=c)  # c = e_half a + q (2 nb - nv)
        grid(c)
        nonlinear(nc)
        # v = e_full v + f1 nv + f2x2 (na + nb) + f3 nc, fresh since it is yielded
        v = e_full * v
        v += np.multiply(f1, nv, out=work)
        v += np.multiply(f2x2, np.add(na, nb, out=work), out=work)
        v += np.multiply(f3, nc, out=work)
        sup = _checked_sup(sup, grid(v), h, what, mag)
        yield v


def _step_count(s_end: float, ds: float, legs: int = 1) -> int:
    """Steps in each of legs equal legs of a flow to s_end with target step ds.

    Raises ValueError, naming the arguments as the caller gave them, if
    s_end or ds is not finite, ds is not positive, or the steps of all legs
    overflow or pass MAX_FLOW_STEPS.
    """
    if not isfinite(s_end):
        raise ValueError(f"s_end must be finite, got {s_end!r}")
    if not (isfinite(ds) and ds > 0.0):
        raise ValueError(f"ds must be a positive finite number, got {ds!r}")
    steps = abs(s_end / legs) / ds
    if not isfinite(steps):
        raise ValueError(f"s_end / ds must be finite, got s_end = {s_end!r}, ds = {ds!r}")
    per_leg = max(1, ceil(steps))
    if legs * per_leg > MAX_FLOW_STEPS:
        raise ValueError(f"s_end = {s_end!r} at ds = {ds!r} in {legs} legs takes over {MAX_FLOW_STEPS} steps")
    return per_leg


def _march_grid(n: int, band: int) -> int:
    """The coarsest grid m = n / 2^k on which a spectrum of band band meets the 2/3 rule, 3 band < m.

    Halving stops before an odd grid or one below pf.MIN_SAMPLES.
    """
    m = n
    while m % 4 == 0 and m // 2 >= pf.MIN_SAMPLES and 3 * band < m // 2:
        m //= 2
    return m


def _regrid(v: np.ndarray, m: int, size: int) -> np.ndarray:
    """The rfft spectra v of m samples as spectra of size samples: cut or zero-padded, scaled by size / m.

    The march regrids only spectra that meet the 2/3 rule, whose Nyquist
    entries lie below the band floor, so they need no split.
    """
    if size == m:
        return v
    out = np.zeros(v.shape[:-1] + (size // 2 + 1,), complex)
    kept = min(m, size) // 2 + 1
    out[..., :kept] = v[..., :kept] * (size / m)
    return out


def evolve_potential(potential: pf.PeriodicFn, s_end: float, ds: float = DEFAULT_DS) -> pf.PeriodicFn:
    """Evolve the potential to flow time s_end with target step ds.

    The linear part is solved exactly in the trigonometric basis, the
    nonlinear part by the fourth-order exponential stage combination; the
    mean mode has no dynamics in either piece, so the first Hamiltonian is
    conserved exactly.

    The march runs on the coarsest grid m = n / 2^k whose spectrum meets
    Orszag's 2/3 rule (J. Atmos. Sci. 28, 1971), 3 J < m for the band J
    that pf.resolved_band reads from the input's rfft; halving stops before
    an odd grid or one below pf.MIN_SAMPLES.  It starts from the first
    m / 2 + 1 modes scaled by m / n.  A step on a grid m < n whose result
    breaks the rule, or whose sup gate raises StepUnstable, is discarded
    and redone on the grid 2 m from the last accepted state, zero-padded
    (the input itself while no step is accepted); the result is
    zero-padded back to n by one irfft.  On the caller's grid the march
    is the full-grid march, and only there does StepUnstable escape.  The
    samples therefore move at roundoff against the full-grid march (under
    3e-15 of the sup norm on smooth potentials at n = 128 to 2048), and
    are the same bit for bit wherever the band fills the grid.
    """
    if potential.parity != "periodic":
        raise ValueError("potential must be periodic")
    if s_end == 0.0:
        return potential
    n = potential.n
    nsteps = _step_count(s_end, ds)
    h = s_end / nsteps
    # the last accepted state, on the grid it was computed on, and its step count
    v, on, done = np.fft.rfft(potential.samples)[None], n, 0
    m = _march_grid(n, int(pf.resolved_band(v)[0]))
    while True:
        try:
            for w in islice(_advance_spectrum(_regrid(v, on, m), m, h, nsteps - done), 1, None):
                if m < n and 3 * int(pf.resolved_band(w)[0]) >= m:
                    break
                v, on, done = w, m, done + 1
            else:
                break
        except StepUnstable:
            if m == n:
                raise
        m *= 2
    return pf.PeriodicFn(np.fft.irfft(_regrid(v, on, n)[0], n), "periodic")


def _angle_march(curves: tuple, s_end: float, ds: float, legs: int):
    """Yield the curves carried to s_end * k / legs for k = 1..legs, all from one march of their angles.

    The curves share a grid; every array holds the batch first and the grid
    last.  Each leg takes _step_count(s_end, ds, legs) steps, and every
    yielded curve has passed its own Wronskian gate; a miss raises StepUnstable.
    """
    if len({G.n for G in curves}) != 1:
        raise ValueError("need one or more curves on one grid")
    per_leg = _step_count(s_end, ds, legs)
    h = s_end / legs / per_leg
    n = curves[0].n
    t, slope = pf.grid(n), pf.rfft_derivative_factor(n, 1)
    # phi as read, so that its lift is the curve itself, sign and all
    angles, turns = zip(*map(cc._angles, curves))
    k = np.array(turns, float)[:, None]
    psi = np.stack(angles)[:, :-1] - k * t
    spectra = np.fft.rfft(np.log(k + pf.differentiate_samples(psi, "periodic")))
    spectra[:, -1] = psi.mean(axis=-1)  # m rides in the Nyquist slot (_angle_terms)
    miss = f"flowed curve at ds = {h!r}, n = {n}"
    for w in islice(_advance_spectrum(spectra, n, h, legs * per_leg, _angle_terms), per_leg, None, per_leg):
        modes = w.copy()  # the march goes on from w
        modes[:, -1] = 0.0
        v = np.fft.irfft(modes, n)
        # phi - k t - m integrates e^v - k: the spectrum of e^v over i nu, without
        # its mode 0 (mean(e^v), k up to the march's drift) and its Nyquist mode
        spectrum = np.fft.rfft(np.exp(v))
        spectrum[:, 1:-1] /= slope[1:-1]
        spectrum[:, [0, -1]] = 0.0
        phi = k * t + w[:, -1:].real + np.fft.irfft(spectrum, n)
        root = np.exp(-0.5 * v)
        yield tuple(
            cc._gated(pf.PeriodicFn(y1, "antiperiodic"), pf.PeriodicFn(y2, "antiperiodic"), StepUnstable, miss)
            for y1, y2 in zip(np.cos(phi) * root, np.sin(phi) * root)
        )


def evolve_curve(
    Gamma: CentroAffineCurve | tuple[CentroAffineCurve, ...], s_end: float, ds: float = DEFAULT_DS
) -> CentroAffineCurve | tuple[CentroAffineCurve, ...]:
    """Carry a unit-Wronskian curve, or a tuple of curves, along the flow to time s_end.

    Marches v = ln phi' of the curve's angle phi with evolve_potential's
    exponential integrator, and the mean of phi with the same stages'
    weights.  The moved curve is the lift of the moved angle, read from the
    input as it is, so that any odd rotation number flows and the input's
    sign is kept.  Its unit Wronskian holds by construction up to the
    march's drift of mean(phi'); a gate miss raises StepUnstable naming
    the defect, the step and n.

    A tuple of curves on one grid moves through one batched pass and comes
    back as a tuple of the moved curves, each equal bit for bit to the
    curve moved alone; a gate miss by any of them raises.  At s_end == 0
    the input is returned as it is.
    """
    if s_end == 0.0:
        return Gamma
    if isinstance(Gamma, tuple):
        (moved,) = _angle_march(Gamma, s_end, ds, legs=1)
        return moved
    ((moved,),) = _angle_march((Gamma,), s_end, ds, legs=1)
    return moved


@dataclass(frozen=True)
class FlowState:
    """Snapshot of the flow: the curve, its potential, and the flow time."""

    Gamma: CentroAffineCurve
    p: pf.PeriodicFn
    s: float


def flow_trace(
    Gamma: CentroAffineCurve,
    s_end: float,
    ds: float = DEFAULT_DS,
    samples: int = 5,
) -> list[FlowState]:
    """Snapshots at evenly spaced flow times from 0 to s_end inclusive.

    One march of the angle yields them all, each gated like evolve_curve;
    a pass too long to finish (_step_count) raises ValueError before any
    transform.  Each snapshot's p is its curve's curvature.
    """
    if samples < 1:
        raise ValueError("need at least one sample interval")
    legs = _angle_march((Gamma,), s_end, ds, samples)
    moved = [FlowState(G, curvature(G), s_end * k / samples) for k, (G,) in enumerate(legs, start=1)]
    return [FlowState(Gamma, curvature(Gamma), 0.0)] + moved


def flow_trace_to_csv(states, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(FLOW_TRACE_HEADER)
        for state in states:
            h1, h2 = iv.hamiltonians(state.p)
            trip = iv.ijk(state.Gamma)
            writer.writerow(
                [repr(float(x)) for x in (state.s, h1, h2, trip.I, trip.J, trip.K)]
            )


def _hamiltonian_derivative(Gamma: CentroAffineCurve, g: pf.PeriodicFn, j: int) -> float:
    """d/ds H_j along the deformation by the tangent field of profile g."""
    u1, u2 = tangent_field(Gamma, g)

    def value(e):
        q = cc.hill_potential(Gamma.gamma1 + e * u1, Gamma.gamma2 + e * u2)
        return pf.integrate_period(q if j == 1 else 0.5 * (q * q))

    return iv.richardson_derivative(value)


def recursion_check(Gamma: CentroAffineCurve, j: int, test_fields):
    """Residuals of the two ladder identities linking the pairings.

    For each test profile g the derivative of H_j along the deformation by g
    must equal both the second-order pairing against the previous ladder
    profile (1 for j = 1, the potential for j = 2) and the first-order
    pairing against the next one (the potential for j = 1; not constructed
    for j = 2), each derivative by iv.richardson_derivative.  Returns a
    dict of per-field residual arrays.
    """
    if j not in (1, 2):
        raise ValueError("ladder index must be 1 or 2")
    pot = curvature(Gamma)
    previous = pf.constant(1.0, pot.n) if j == 1 else pot
    following = pot if j == 1 else None
    second_form = []
    first_form = []
    for g in test_fields:
        dh = _hamiltonian_derivative(Gamma, g, j)
        second_form.append(abs(iv.big_omega_pair(pot, previous, g) - dh))
        if following is not None:
            first_form.append(abs(iv.omega_pair(following, g) - dh))
    return {
        "second_form": np.array(second_form),
        "first_form": np.array(first_form) if following is not None else None,
    }


def commutation_check(
    Gamma: CentroAffineCurve,
    c_aff: float,
    branch: str = "minus",
    s: float = 0.02,
) -> float:
    """Sup distance between transform-then-flow and flow-then-transform.

    The KdV flow is isospectral for the Hill operator, so the Floquet
    multipliers that label the two Riccati branches do not move along it:
    the flowed curve takes the branch with the same label.  Both images are
    apply_tc's, gated, and the flow steps by DEFAULT_DS.
    """
    first = apply_tc(Gamma, c_aff, branch)
    transformed_then_flowed, flowed = evolve_curve((first.image, Gamma), s)
    return cc.curve_distance(transformed_then_flowed, apply_tc(flowed, c_aff, branch).image)
