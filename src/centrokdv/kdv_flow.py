"""KdV motion of Hill potentials and the induced motion of their curves.

The potential evolves by p_s = -1/2 p''' + 3 p' p.  A unit-Wronskian curve
whose Hill potential is p is carried along by Gamma_s = p Gamma' - 1/2 p' Gamma,
which keeps [Gamma, Gamma'] = 1 and transports curvature by the potential
flow.  Re-deriving p from the moving curve at each step would make the
curve equation third order and explicitly unstable (mode factors nu^3),
so the integration is split: the potential moves spectrally with an
exponential integrator, and the curve samples are then carried by the
first-order transport field of the externally evolved potential, which is
non-stiff and needs only p and p'.  The curve stepper takes the potential
march's nodes as they are made, so one pass serves a whole trace, and it
carries a batch of curves, each driven by its own potential, so one pass
also serves several curves.

Transform budget per step, each call over the whole batch: a potential
step makes 8 FFT calls, one rfft and one irfft per ETDRK4 stage, the last
irfft gating the step; a curve step makes 24, 12 of each: two half-step
potential steps (16), whose gating irffts also carry the driving p and
p', and four field evaluations of one rfft/irfft pair each (8).

Both steppers write every stage into work buffers allocated once per pass,
the transforms through np.fft's out= (numpy 2.0 or later).  At n = 128 a
step is bound by per-call overhead, not arithmetic, so the buffers save
the allocations without changing the transform budget above, and each
product keeps the operand order of the allocating formulas, so the
results are the same bit for bit.  Every array puts the batch first and
the grid last, and every transform runs along the last axis, so numpy's
elementwise loops run along the n grid points, not along a batch of one
to three.
"""

import csv
from dataclasses import dataclass
from functools import lru_cache
from math import ceil, isfinite

import numpy as np

from . import curve_core as cc
from . import invariants as iv
from . import periodic_fn as pf
from .backlund import apply_tc, plane_map
from .curve_core import CentroAffineCurve, curvature, tangent_field
from .errors import StepUnstable
from .riccati_monodromy import riccati_branch

__all__ = [
    "FLOW_TRACE_HEADER",
    "FlowState",
    "commutation_check",
    "evolve_curve",
    "evolve_potential",
    "flow_trace",
    "flow_trace_to_csv",
    "kdv_rhs",
    "recursion_check",
]

FLOW_TRACE_HEADER = ("s", "H1", "H2", "I", "J", "K")

DEFAULT_DS = 1e-4  # target flow step of evolve_potential, evolve_curve and flow_trace
# most steps of one pass over all its legs: a curve step at n = 128 takes about
# 0.4 ms (one thread, 2-CPU x86-64 host), so 10^7 of them run for over an hour
MAX_FLOW_STEPS = 10**7
CONTOUR_POINTS = 32


def kdv_rhs(potential: pf.PeriodicFn) -> pf.PeriodicFn:
    """Right-hand side -1/2 p''' + 3 p' p, computed spectrally."""
    if potential.parity != "periodic":
        raise ValueError("potential must be periodic")
    d1, d3 = pf.derivatives(potential, 1, 3)
    return (-0.5) * d3 + 3.0 * d1 * potential


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


def _advance_spectrum(v: np.ndarray, n: int, h: float, nsteps: int, cut: int | None = None):
    """Yield the rfft spectra of the potentials at s = 0, h, ..., nsteps * h.

    v is (B, n//2+1), one potential's spectrum per row, and every transform
    runs along the last axis.  Given a cut, yield instead the driving rows,
    shape (2, B, n): each potential's p and p' on the grid from its modes
    below cut, the band above zero-filled.  They ride the inverse transform
    that gates the step, stacked behind its samples, so they cost no
    transform of their own.  Every yield is a fresh array; the stages write
    into buffers allocated once per pass.
    """
    # p_s = -1/2 p''' + 3/2 (p^2)': linear part -1/2 D^3, nonlinear part 3/2 D
    # coefficient rows stay 2-d, (1, modes), so that one potential takes
    # numpy's same-shape loop rather than a broadcast
    e_full, e_half, q, f1, f2x2, f3 = (c[None] for c in _etdrk4_coeffs(n, h))
    nonlin_mult = 1.5 * pf.rfft_derivative_factor(n, 1)[None]
    # stage samples, their squares, |samples| for the gate; the four nonlinear
    # spectra, the three stage inputs, e_half v and a scratch spectrum.  Every
    # product keeps the operand order of the plain formulas: numpy's complex
    # multiply is not operand-symmetric, so a swap moves the march at roundoff.
    stage, sq, mag = np.empty((3,) + v.shape[:-1] + (n,))
    nv, na, nb, nc, a, b, c, ev, work = np.empty((9,) + v.shape, complex)

    def nonlin(vals, spectrum):
        np.fft.rfft(np.multiply(vals, vals, out=sq), out=spectrum)
        np.multiply(nonlin_mult, spectrum, out=spectrum)

    def samples(w):
        return np.fft.irfft(w, n, out=stage)

    if cut is not None:
        stacked = np.zeros((3,) + v.shape, complex)  # [v, v below cut, (i nu) v below cut]
        slope = pf.rfft_derivative_factor(n, 1)[:cut]

    def gate(w):
        """The samples that gate a step, and what the step yields."""
        if cut is None:
            return samples(w), w
        stacked[0] = w
        stacked[1, :, :cut] = w[:, :cut]
        np.multiply(slope, w[:, :cut], out=stacked[2, :, :cut])
        rows = np.fft.irfft(stacked, n)  # fresh: the caller holds three nodes at once
        return rows[0], rows[1:]

    # the samples that gate a step are the first stage's input to the next
    vals, out = gate(v)
    sup = np.max(np.abs(vals, out=mag), axis=-1)
    yield out
    for _ in range(nsteps):
        nonlin(vals, nv)
        np.multiply(e_half, v, out=ev)
        np.add(ev, np.multiply(q, nv, out=a), out=a)  # a = e_half v + q nv
        nonlin(samples(a), na)
        np.add(ev, np.multiply(q, na, out=b), out=b)  # b = e_half v + q na
        nonlin(samples(b), nb)
        np.subtract(np.multiply(2.0, nb, out=work), nv, out=work)
        np.multiply(q, work, out=work)
        np.add(np.multiply(e_half, a, out=c), work, out=c)  # c = e_half a + q (2 nb - nv)
        nonlin(samples(c), nc)
        # v = e_full v + f1 nv + f2x2 (na + nb) + f3 nc, fresh since it is yielded
        v = e_full * v
        v += np.multiply(f1, nv, out=work)
        v += np.multiply(f2x2, np.add(na, nb, out=work), out=work)
        v += np.multiply(f3, nc, out=work)
        vals, out = gate(v)
        sup = _checked_sup(sup, vals, h, "sup norm", mag)
        yield out


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


def evolve_potential(potential: pf.PeriodicFn, s_end: float, ds: float = DEFAULT_DS) -> pf.PeriodicFn:
    """Evolve the potential to flow time s_end with target step ds.

    The linear part is solved exactly in the trigonometric basis, the
    nonlinear part by the fourth-order exponential stage combination; the
    mean mode has no dynamics in either piece, so the first Hamiltonian is
    conserved exactly.
    """
    if potential.parity != "periodic":
        raise ValueError("potential must be periodic")
    if s_end == 0.0:
        return potential
    n = potential.n
    nsteps = _step_count(s_end, ds)
    for v in _advance_spectrum(np.fft.rfft(potential.samples)[None], n, s_end / nsteps, nsteps):
        pass
    return pf.PeriodicFn(np.fft.irfft(v[0], n), "periodic")


def _transport(curves: tuple, s_end: float, ds: float, legs: int):
    """Yield the curves carried to s_end * k / legs for k = 1..legs, all from one pass.

    The curves share a grid and each is driven by its own potential; every
    array holds the batch first and the grid last.  Each leg takes
    _step_count(s_end, ds, legs) steps of evolve_curve's scheme, and every
    yielded curve has passed its own Wronskian gate; a miss raises StepUnstable.
    """
    if len({G.gamma1.n for G in curves}) != 1:
        raise ValueError("need one or more curves on one grid")
    per_leg = _step_count(s_end, ds, legs)
    h = s_end / legs / per_leg
    p0 = np.stack([curvature(G).samples for G in curves])
    n = p0.shape[-1]

    # curvature holds two spectral derivatives of the input samples, which
    # lift their roundoff floor by n^2 in the unresolved band; that junk
    # would sit statically in the driving potential and force matching
    # grid-scale modes on the curve.  Inputs are band-limited at the working
    # grid, so the top quarter of the driver band carries no signal: drop it.
    cut = 3 * (n // 2 + 1) // 4
    v0 = np.fft.rfft(p0)
    v0[:, cut:] = 0.0

    # work buffers of the pass: the antiperiodic extension [y, p y, -y, -p y]
    # of the field's two products, its spectrum and derivative; the four RK4
    # slopes, the stage input, a product scratch and |x| for the gate
    B = len(curves)
    ext, deriv = np.empty((2, B, 4, 2 * n))
    spec = np.empty((B, 4, n + 1), complex)
    k1, k2, k3, k4, stage, work, mag = np.empty((7, B, 2, n))
    slope = pf._derivative_factor(n, 1)

    def field(y, p, dp, k):
        """Write the field at y into k."""
        # skew-symmetric split of p y' - 1/2 p' y: the advection part
        # 1/2 (p D + D p) cannot pump grid modes, so aliasing stays inert
        ext[:, :2, :n] = y
        np.multiply(p, y, out=ext[:, 2:, :n])
        np.negative(ext[..., :n], out=ext[..., n:])
        np.fft.rfft(ext, out=spec)
        np.multiply(slope, spec, out=spec)
        d = np.fft.irfft(spec, 2 * n, out=deriv)[..., :n]
        # k = 0.5 (p d_y + d_py) - dp y
        np.add(np.multiply(p, d[:, :2], out=k), d[:, 2:], out=k)
        np.multiply(0.5, k, out=k)
        np.subtract(k, np.multiply(dp, y, out=work), out=k)

    def shifted(c, k):
        """The stage input x + c k, in the stage buffer."""
        return np.add(x, np.multiply(c, k, out=stage), out=stage)

    # each node is the driver's p and p' on the grid, (B, 1, n) each, the dropped band zero-filled
    nodes = (rows[:, :, None] for rows in _advance_spectrum(v0, n, 0.5 * h, 2 * legs * per_leg, cut))
    end = next(nodes)
    x = np.stack([np.stack([G.gamma1.samples, G.gamma2.samples]) for G in curves])
    sup = np.max(np.abs(x, out=mag), axis=(1, 2))
    miss = "transported curve misses unit Wronskian; reduce ds or refine the grid"
    for _ in range(legs):
        for _ in range(per_leg):
            start, mid, end = end, next(nodes), next(nodes)
            field(x, *start, k1)
            field(shifted(0.5 * h, k1), *mid, k2)
            field(shifted(0.5 * h, k2), *mid, k3)
            field(shifted(h, k3), *end, k4)
            # x += (h / 6) (k1 + 2 k2 + 2 k3 + k4), summed left to right in k1
            k1 += np.multiply(2.0, k2, out=k2)
            k1 += np.multiply(2.0, k3, out=k3)
            k1 += k4
            x += np.multiply(h / 6.0, k1, out=k1)
            sup = _checked_sup(sup, x, h, "curve sup norm", mag)
        yield tuple(
            cc._gated(pf.PeriodicFn(y1, "antiperiodic"), pf.PeriodicFn(y2, "antiperiodic"), StepUnstable, miss)
            for y1, y2 in x
        )


def evolve_curve(
    Gamma: CentroAffineCurve | tuple[CentroAffineCurve, ...], s_end: float, ds: float = DEFAULT_DS
) -> CentroAffineCurve | tuple[CentroAffineCurve, ...]:
    """Carry a unit-Wronskian curve, or a tuple of curves, along the flow to time s_end.

    Marches the potential at half the curve step, alongside the curve, to
    supply stage values, and moves the curve samples with classical
    Runge-Kutta through the transport field p Gamma' - 1/2 p' Gamma of that
    externally evolved potential.  With p supplied from outside, the field
    is first order in t, so the step restriction is ds * n * sup|p|, and at
    the working grid sizes the default step keeps two orders of margin to
    that stability limit.  That is no accuracy margin: the dispersive phase
    of the potential's high modes is what limits the curve's time error.

    A tuple of curves on one grid, each driven by its own potential, moves
    through one batched pass and comes back as a tuple of the moved curves,
    each equal bit for bit to the curve moved alone; a gate miss by any of
    them raises.  At s_end == 0 the input is returned as it is.
    """
    if s_end == 0.0:
        return Gamma
    if isinstance(Gamma, tuple):
        (moved,) = _transport(Gamma, s_end, ds, legs=1)
        return moved
    ((moved,),) = _transport((Gamma,), s_end, ds, legs=1)
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

    One transport pass yields them all, each gated like evolve_curve; a
    pass too long to finish (_step_count) raises ValueError before any transform.
    """
    if samples < 1:
        raise ValueError("need at least one sample interval")
    legs = _transport((Gamma,), s_end, ds, samples)
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
    the flowed curve takes the branch with the same label.  Both transforms
    shoot with riccati_branch's step rule and the flow steps by DEFAULT_DS.
    """
    first = apply_tc(Gamma, c_aff, branch)
    transformed_then_flowed, flowed = evolve_curve((first.image, Gamma), s)
    pot = curvature(flowed)
    w = riccati_branch(pot, c_aff, branch).solution
    # build the second image with the ungated plane map: the flowed curve
    # satisfies the unit-Wronskian constraint only to the flow's own
    # truncation error, and the distance measured here does not need the
    # strict construction gate that apply_tc enforces on its output
    second1, second2, _ = plane_map(flowed, pot, w, c_aff)
    return max(
        float(np.max(np.abs(transformed_then_flowed.gamma1.samples - second1.samples))),
        float(np.max(np.abs(transformed_then_flowed.gamma2.samples - second2.samples))),
    )
