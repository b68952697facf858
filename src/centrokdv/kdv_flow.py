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
"""

import csv
from dataclasses import dataclass
from math import ceil

import numpy as np

from . import curve_core as cc
from . import invariants as iv
from . import periodic_fn as pf
from .backlund import apply_tc, plane_map
from .curve_core import CentroAffineCurve, curvature, tangent_field
from .errors import StepUnstable
from .riccati_monodromy import DEFAULT_SUBSTEPS, riccati_branch

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

CONTOUR_POINTS = 32


def kdv_rhs(potential: pf.PeriodicFn) -> pf.PeriodicFn:
    """Right-hand side -1/2 p''' + 3 p' p, computed spectrally."""
    if potential.parity != "periodic":
        raise ValueError("potential must be periodic")
    return (-0.5) * pf.differentiate(potential, 3) + 3.0 * pf.differentiate(potential) * potential


def _etdrk4_coeffs(linear: np.ndarray, h: float):
    """Stage coefficients of the fourth-order exponential integrator.

    The phi-function combinations are averaged over a unit circle around
    each h*L value; the mean-value property evaluates them exactly while
    dodging the removable singularity at 0.  The linear spectrum here is
    imaginary, so the contour points stay complex and so do the results.
    """
    z = h * linear.astype(complex)
    r = np.exp(2j * np.pi * (np.arange(1, CONTOUR_POINTS + 1) - 0.5) / CONTOUR_POINTS)
    lr = z[:, None] + r[None, :]
    elr = np.exp(lr)
    q = h * np.mean((np.exp(lr / 2.0) - 1.0) / lr, axis=1)
    f1 = h * np.mean((-4.0 - lr + elr * (4.0 - 3.0 * lr + lr**2)) / lr**3, axis=1)
    f2 = h * np.mean((2.0 + lr + elr * (lr - 2.0)) / lr**3, axis=1)
    f3 = h * np.mean((-4.0 - 3.0 * lr - lr**2 + elr * (4.0 - lr)) / lr**3, axis=1)
    return np.exp(z), np.exp(z / 2.0), q, f1, f2, f3


def _checked_sup(sup: np.ndarray, vals: np.ndarray, h: float, what: str) -> np.ndarray:
    """Per-member sup norms of vals after one step, the batch on the last axis.

    Raises StepUnstable if any member's norm is not finite or more than
    doubled its own previous one.
    """
    new_sup = np.max(np.abs(vals), axis=tuple(range(vals.ndim - 1)))
    jumped = ~np.isfinite(new_sup) | (new_sup > 2.0 * np.maximum(sup, 1e-12))
    if jumped.any():
        k = int(np.argmax(jumped))
        raise StepUnstable(
            f"{what} jumped {float(sup[k])!r} -> {float(new_sup[k])!r} within one step of size {h!r}"
        )
    return new_sup


def _advance_spectrum(v: np.ndarray, n: int, h: float, nsteps: int):
    """Yield the rfft spectra of the potentials at s = 0, h, ..., nsteps * h.

    v is (n//2+1, B), one potential's spectrum per column.
    """
    # p_s = -1/2 p''' + 3/2 (p^2)': linear part -1/2 D^3, nonlinear part 3/2 D
    d1, d3 = (pf._derivative_factors(n, "periodic", k)[0][: n // 2 + 1] for k in (1, 3))
    e_full, e_half, q, f1, f2, f3 = (c[:, None] for c in _etdrk4_coeffs(-0.5 * d3, h))
    nonlin_mult = 1.5 * d1[:, None]

    def nonlin(vals):
        return nonlin_mult * np.fft.rfft(vals * vals, axis=0)

    def samples(w):
        return np.fft.irfft(w, n, axis=0)

    # the samples that gate a step are the first stage's input to the next
    vals = samples(v)
    sup = np.max(np.abs(vals), axis=0)
    yield v
    for _ in range(nsteps):
        nv = nonlin(vals)
        a = e_half * v + q * nv
        na = nonlin(samples(a))
        b = e_half * v + q * na
        nb = nonlin(samples(b))
        c = e_half * a + q * (2.0 * nb - nv)
        nc = nonlin(samples(c))
        v = e_full * v + f1 * nv + 2.0 * f2 * (na + nb) + f3 * nc
        vals = samples(v)
        sup = _checked_sup(sup, vals, h, "sup norm")
        yield v


def _step_count(s_end: float, ds: float) -> int:
    if ds <= 0.0:
        raise ValueError("ds must be positive")
    return max(1, ceil(abs(s_end) / ds))


def evolve_potential(potential: pf.PeriodicFn, s_end: float, ds: float = 1e-4) -> pf.PeriodicFn:
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
    for v in _advance_spectrum(np.fft.rfft(potential.samples)[:, None], n, s_end / nsteps, nsteps):
        pass
    return pf.PeriodicFn(np.fft.irfft(v[:, 0], n), "periodic")


def _transport(curves: tuple, s_end: float, ds: float, legs: int):
    """Yield the curves carried to s_end * k / legs for k = 1..legs, all from one pass.

    The curves share a grid and each is driven by its own potential; the
    batch rides on the last axis of every array.  Each leg takes
    _step_count(s_end / legs, ds) steps of evolve_curve's scheme, and every
    yielded curve has passed its own Wronskian gate.
    """
    if len({G.gamma1.n for G in curves}) != 1:
        raise ValueError("need one or more curves on one grid")
    p0 = np.stack([curvature(G).samples for G in curves], axis=1)
    n = p0.shape[0]
    per_leg = _step_count(s_end / legs, ds)
    h = s_end / legs / per_leg

    # curvature holds two spectral derivatives of the input samples, which
    # lift their roundoff floor by n^2 in the unresolved band; that junk
    # would sit statically in the driving potential and force matching
    # grid-scale modes on the curve.  Inputs are band-limited at the working
    # grid, so the top quarter of the driver band carries no signal: drop it.
    cut = 3 * (n // 2 + 1) // 4
    v0 = np.fft.rfft(p0, axis=0)
    v0[cut:] = 0.0

    def driver(w):
        p = np.fft.irfft(w[:cut], n, axis=0)  # irfft zero-fills the dropped band
        return p[:, None], pf.differentiate_samples(p, "periodic")[:, None]

    def field(y, p, dp):
        # skew-symmetric split of p y' - 1/2 p' y: the advection part
        # 1/2 (p D + D p) cannot pump grid modes, so aliasing stays inert
        d = pf.differentiate_samples(np.concatenate([y, p * y], axis=1), "antiperiodic")
        return 0.5 * (p * d[:, :2] + d[:, 2:]) - dp * y

    nodes = map(driver, _advance_spectrum(v0, n, 0.5 * h, 2 * legs * per_leg))
    end = next(nodes)
    x = np.stack([np.stack([G.gamma1.samples, G.gamma2.samples], axis=1) for G in curves], axis=2)
    sup = np.max(np.abs(x), axis=(0, 1))
    for _ in range(legs):
        for _ in range(per_leg):
            start, mid, end = end, next(nodes), next(nodes)
            k1 = field(x, *start)
            k2 = field(x + (0.5 * h) * k1, *mid)
            k3 = field(x + (0.5 * h) * k2, *mid)
            k4 = field(x + h * k3, *end)
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            sup = _checked_sup(sup, x, h, "curve sup norm")
        moved = []
        for b in range(len(curves)):
            g1 = pf.PeriodicFn(x[:, 0, b], "antiperiodic")
            g2 = pf.PeriodicFn(x[:, 1, b], "antiperiodic")
            defect = cc.wronskian_defect(g1, g2)
            if defect > cc.WRONSKIAN_TOL:
                raise StepUnstable(
                    f"transported curve misses unit Wronskian by {defect!r}; "
                    f"reduce ds or refine the grid"
                )
            moved.append(CentroAffineCurve(g1, g2))
        yield tuple(moved)


def evolve_curve(
    Gamma: CentroAffineCurve | tuple[CentroAffineCurve, ...], s_end: float, ds: float = 1e-4
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
    ds: float = 1e-4,
    samples: int = 5,
) -> list[FlowState]:
    """Snapshots at evenly spaced flow times from 0 to s_end inclusive.

    One transport pass yields them all, each gated like evolve_curve.
    """
    if samples < 1:
        raise ValueError("need at least one sample interval")
    states = [FlowState(Gamma, curvature(Gamma), 0.0)]
    for k, (current,) in enumerate(_transport((Gamma,), s_end, ds, samples), start=1):
        states.append(FlowState(current, curvature(current), s_end * k / samples))
    return states


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


def _hamiltonian_derivative(Gamma: CentroAffineCurve, g: pf.PeriodicFn, j: int, eps: float) -> float:
    """d/ds H_j along the deformation by the tangent field of profile g."""
    u1, u2 = tangent_field(Gamma, g)

    def value(e):
        q = cc.hill_potential(Gamma.gamma1 + e * u1, Gamma.gamma2 + e * u2)
        return pf.integrate_period(q if j == 1 else 0.5 * (q * q))

    return iv.richardson_derivative(value, eps)


def recursion_check(Gamma: CentroAffineCurve, j: int, test_fields, eps: float = 1e-5):
    """Residuals of the two ladder identities linking the pairings.

    For each test profile g the derivative of H_j along the deformation by g
    must equal both the second-order pairing against the previous ladder
    profile (1 for j = 1, the potential for j = 2) and the first-order
    pairing against the next one (the potential for j = 1; not constructed
    for j = 2).  Returns a dict of per-field residual arrays.
    """
    if j not in (1, 2):
        raise ValueError("ladder index must be 1 or 2")
    pot = curvature(Gamma)
    previous = pf.constant(1.0, pot.n) if j == 1 else pot
    following = pot if j == 1 else None
    second_form = []
    first_form = []
    for g in test_fields:
        dh = _hamiltonian_derivative(Gamma, g, j, eps)
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
    ds: float = 1e-4,
    substeps: int = DEFAULT_SUBSTEPS,
) -> float:
    """Sup distance between transform-then-flow and flow-then-transform.

    The KdV flow is isospectral for the Hill operator, so the Floquet
    multipliers that label the two Riccati branches do not move along it:
    the flowed curve takes the branch with the same label.
    """
    first = apply_tc(Gamma, c_aff, branch, substeps=substeps)
    transformed_then_flowed, flowed = evolve_curve((first.image, Gamma), s, ds=ds)
    pot = curvature(flowed)
    w = riccati_branch(pot, c_aff, branch, substeps=substeps).solution
    # build the second image with the ungated plane map: the flowed curve
    # satisfies the unit-Wronskian constraint only to the flow's own
    # truncation error, and the distance measured here does not need the
    # strict construction gate that apply_tc enforces on its output
    second1, second2, _ = plane_map(flowed, pot, w, c_aff)
    return max(
        float(np.max(np.abs(transformed_then_flowed.gamma1.samples - second1.samples))),
        float(np.max(np.abs(transformed_then_flowed.gamma2.samples - second2.samples))),
    )
