"""Monodromy machinery: Hill fundamental matrices, periodic Riccati branches,
the one-parameter family of projective period maps, and the fixed-point
conjugator.

All period maps are classical RK4 on [0, pi] with step h = pi/(substeps*N);
coefficient values at half steps come from exact trigonometric resampling,
so step-halving exhibits clean order-4 decay.  The systems are linear, so
each RK4 step is a fixed 2x2 step map, and the maps are multiplied in
pairing blocks of TRANSFER_CHUNK = 256 steps (_chunked_product), with no
loop over steps: a pairwise tree reduces each run of steps and an
inclusive prefix product the runs, where a period map's block is one run.
As many whole blocks as fit TRANSFER_ELEMENTS step-map elements are built
and reduced together, and one running matrix folds over the blocks in
order, so the result is bit for bit that of reducing one block at a
time.  Both generators, Hill's [[0, 1], [p, 0]] and the projective field,
are traceless, so each squares to a scalar, B^2 = q I (q = p for Hill, 0 for
the projective field), and one rule builds every step map
(_rk4_transfer): the RK4 step polynomial in h, whose coefficients are then
closed forms built once per field, before any step size is applied; each
step size, so each lambda of a scan, costs one Horner evaluation per step.

The transfer takes one field, and its batch is the step sizes alone (a
scan's lambdas scale the step).  So the projective period map has one
door, moebius_monodromy, at one lambda or an array of them: the scan
(its trace over a lambda grid) and every projective shot (its fixed point
at lambda = c_pr, at two constants at once for the Bianchi square) call
it.  The transfer works batch first, step last: the step coefficients
are components of shape (K,) and the step maps of shape
batch + (K,), so every Horner and product pass runs along contiguous
steps, not along the 21 lambdas of a scan, and with no batch axis the
layout is the plain step stack.  A trajectory keeps every s-th step
point, a row stride: Hill's shot keeps every step (s = 1), since its
Floquet factor integrates along them, and the projective shot keeps the
grid points (s = substeps), all its image needs.  Each run of s step maps is reduced by the tree product and the run
products by the prefix product.  For s = 2^j dividing TRANSFER_CHUNK this
is the full prefix product's own arithmetic at the kept rows: Hillis and
Steele's first j doubling passes, at the rows k = s - 1 (mod s) closing
each run, multiply exactly the tree's pairs, and their later passes at
those rows multiply only rows of the same kind, a prefix over the run
products.  So every kept row is bit for bit the row s = 1 gives.  Other
strides take blocks of s * (TRANSFER_CHUNK // s) steps, whole runs, and
their rows move at roundoff.  A trajectory is batch first too, batch +
(K/s + 1, 2, 2): each batch entry is a C-contiguous stack, off which every
shot reads its Floquet solution (_dominant_solution).
Eigen-structure of the resulting 2x2 matrices drives everything else:
branch labels, fixed points in RP^1, and spectral invariants.

The plane picture's Riccati shot is Newton-polished to its roundoff floor,
so its step count comes from what the polish needs, not from the grid: at
least SHOT_STEPS steps per period and at least SHOT_MIN_SUBSTEPS per grid
interval (_shot_substeps), 2 substeps from n = 128 on; no caller sets
the shot's substeps.  The unpolished maps (hill_fundamental,
moebius_monodromy, spectral_scan) keep DEFAULT_SUBSTEPS unless told
otherwise.

Tracelessness also puts every period map in SL(2, R), so no determinant is
computed: the trace, Hill's discriminant (Magnus & Winkler, 1966, ch. 2),
is the invariant.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from . import periodic_fn as pf
from .curve_core import ProjectiveCurve, wrap_half_pi
from .errors import BranchSingular, Degenerate, NoRealFixedPoints, StepUnstable, ZeroParam

__all__ = [
    "MonodromyMatrix",
    "RiccatiBranch",
    "SpectralScan",
    "hill_fundamental",
    "riccati_branch",
    "riccati_periodic_solutions",
    "moebius_monodromy",
    "moebius_apply_angle",
    "spectral_scan",
    "scan_to_csv",
    "scan_from_csv",
    "conjugator",
]

DEFAULT_SUBSTEPS = 8
# A plane-picture shot takes the fewest substeps that give SHOT_STEPS RK4
# steps per period, and never fewer than SHOT_MIN_SUBSTEPS (_shot_substeps).
# The Newton polish owns the accuracy of w, so the shot sets only its
# starting guess and the Floquet factor that the polish and
# RiccatiBranch.solve_linear integrate along.  Measured on random_projective
# curves (strengths 0.35-0.9, c from 0.05 to 2, both labels, n from 64 to
# 2048): from 256 steps the polish reaches its floor everywhere (worst
# defect/floor 0.98), while 1 substep below n = 128 misses it by up to 4.2x.
# The factor's quadrature needs 2 step points per grid interval: at 1
# substep solve_linear shrinks near-Nyquist residual only about 36-fold per
# pass and stops up to 12x above its floor at n >= 256; at 2 it reaches the
# floor within 5 passes at every n.
SHOT_STEPS = 256
SHOT_MIN_SUBSTEPS = 2
PARABOLIC_TOL = 1e-9
MEET_TOL = 1e-12  # |sin(chi_g - chi_d)| below which two points of RP^1 meet: no conjugator separates them
_BRANCHES = ("plus", "minus")
TRANSFER_CHUNK = 256  # RK4 steps per pairing block of the tree and prefix products
TRANSFER_ELEMENTS = 2**14  # budget of step-map elements (blocks x TRANSFER_CHUNK x batch) reduced at once; at least one block
# largest period-map entry whose squared sums (tr2, the eigenvector rows' norms) stay finite
_LARGEST_ENTRY = math.sqrt(np.finfo(float).max) / 8.0
_SOLVE_PASSES = 8  # cap on RiccatiBranch.solve_linear's defect-correction passes


def _roundoff_floor(n: int, scale: float) -> float:
    """4 n eps scale: the floor of a residual holding the spectral derivative of n samples of size scale."""
    return 4.0 * n * np.finfo(float).eps * scale


def _mul(a, b):
    """a @ b for stacks of 2x2 matrices held as component tuples (m00, m01, m10, m11).

    Written out by component: np.matmul on a stack of 2x2 blocks is several
    times slower than four contiguous multiply-adds over the stack.
    """
    a00, a01, a10, a11 = a
    b00, b01, b10, b11 = b
    r00 = a00 * b00
    r00 += a01 * b10
    r01 = a00 * b01
    r01 += a01 * b11
    r10 = a10 * b00
    r10 += a11 * b10
    r11 = a10 * b01
    r11 += a11 * b11
    return r00, r01, r10, r11


def _components(x: np.ndarray):
    return x[..., 0, 0], x[..., 0, 1], x[..., 1, 0], x[..., 1, 1]


def _tree_product(p):
    """P_{C-1} ... P_1 P_0 along the last axis of a component stack, by a pairwise tree of products.

    The leading axes hold independent products (batch entries, blocks), each
    reduced to its own.
    """
    while p[0].shape[-1] > 1:
        pairs = p[0].shape[-1] // 2
        q = _mul([x[..., 1 : 2 * pairs : 2] for x in p], [x[..., 0 : 2 * pairs : 2] for x in p])
        if p[0].shape[-1] % 2:  # the odd last step joins the last pair
            for x, y in zip(q, _mul([x[..., -1:] for x in p], [x[..., -1:] for x in q])):
                x[..., -1:] = y
        p = q
    return tuple(x[..., 0] for x in p)


def _prefix_products(p):
    """Inclusive prefix products S_k = P_k ... P_0 along the last axis, independently over the leading axes.

    Hillis-Steele: log2 C doubling passes, in place on p's arrays.
    """
    d = 1
    while d < p[0].shape[-1]:
        for x, y in zip(p, _mul([x[..., d:] for x in p], [x[..., :-d] for x in p])):
            x[..., d:] = y
        d *= 2
    return p


def _step_size(substeps: int, n: int) -> float:
    """The RK4 step pi/(substeps*n) of every period map on an n-point grid."""
    if substeps < 1:
        raise ValueError(f"substeps must be at least 1, got {substeps!r}")
    return np.pi / (substeps * n)


def _shot_substeps(n: int) -> int:
    """Substeps of a plane-picture shot on an n-point grid: the fewest that give
    SHOT_STEPS steps per period, at least SHOT_MIN_SUBSTEPS and at most DEFAULT_SUBSTEPS."""
    return min(DEFAULT_SUBSTEPS, max(SHOT_MIN_SUBSTEPS, -(-SHOT_STEPS // n)))


def _chunked_product(step_maps, steps: int, batch: tuple, stride: int | None):
    """X(t_k) = P_{k-1} ... P_0 from step maps reduced in blocks of TRANSFER_CHUNK steps.

    step_maps(lo, hi) returns fresh C-contiguous arrays, the component stack
    of P_lo, ..., P_{hi-1}, each component of shape batch + (hi - lo,): batch
    first, steps last.  Each block is cut into runs: each run of step maps
    is reduced by a pairwise tree product and the run products by an
    inclusive prefix product.  With a stride s the trajectory keeps every
    s-th step point: runs of s steps, in blocks of s * (TRANSFER_CHUNK // s)
    steps (one run if s > TRANSFER_CHUNK); steps must be a multiple of s.
    With stride None only the final matrix is kept: a block of
    TRANSFER_CHUNK steps is one run, so its prefix pass does nothing and
    the block is reduced by the tree alone.  A group of as many whole
    blocks as fit TRANSFER_ELEMENTS elements (at least one) is built and
    reduced in one set of calls, as components of shape
    batch + (blocks, runs, run steps); the ragged tail is a last group of
    one short block.  The running matrix folds over the blocks in order, so
    every product is the one a block-at-a-time reduction takes and the
    result is bit for bit the same, while memory stays flat in the step
    count.  Returns the final matrix, of shape batch + (2, 2), or the
    trajectory at every s-th step point, so at every grid point for
    s = substeps, of shape batch + (steps // s + 1, 2, 2).
    """
    running = (np.ones(batch), np.zeros(batch), np.zeros(batch), np.ones(batch))
    chunk = TRANSFER_CHUNK if stride is None else stride * max(1, TRANSFER_CHUNK // stride)
    if stride is not None:
        traj = np.empty(batch + (steps // stride + 1, 2, 2))
        traj[..., 0, :, :] = np.eye(2)
    group = chunk * max(1, TRANSFER_ELEMENTS // (chunk * math.prod(batch)))
    whole = steps - steps % chunk
    bounds = [(lo, min(lo + group, whole)) for lo in range(0, whole, group)]
    if whole < steps:
        bounds.append((whole, steps))
    for lo, hi in bounds:
        size = min(hi - lo, chunk)
        runs = 1 if stride is None else size // stride
        p = tuple(x.reshape(batch + (-1, runs, size // runs)) for x in step_maps(lo, hi))
        p = _prefix_products(_tree_product(p))
        # the running matrix entering each block; .T puts the blocks first, the batch being at most 1-d
        starts = []
        for last in zip(*(x[..., -1].T for x in p)):
            starts.append(running)
            running = _mul(last, running)
        if stride is not None:
            starts = [np.stack(x, axis=-1)[..., None] for x in zip(*starts)]
            out = traj[..., lo // stride + 1 : hi // stride + 1, :, :].reshape(batch + (-1, runs, 2, 2))
            for x, y in zip(_components(out), _mul(p, starts)):
                x[...] = y
    if stride is not None:
        return traj
    return np.stack(running, axis=-1).reshape(batch + (2, 2))


def _rk4_transfer(b_half: np.ndarray, h: float | np.ndarray, stride: int | None = None, *, square):
    """Integrate X' = B(t)X from X(0) = I across K classical RK4 steps of size h.

    ``b_half`` holds one traceless B at half-step resolution: shape
    (2K+1, 2, 2), where index 2k is the start of step k, 2k+1 its midpoint,
    2k+2 its end.  h is a scalar or a 1-d array, one step size per batch
    entry: the batch is the step sizes alone, as the lambdas of a scan.
    ``square`` is the scalar q with B^2 = q I (Cayley-Hamilton) at the K
    midpoints, a scalar or a (K,) array: Hill's p, or 0 for the projective
    field.  The caller passes it because it knows q exactly; read back from
    b_half, the projective field's zero square would carry roundoff.
    Returns the final matrix, of shape batch + (2, 2), or with a stride s
    the trajectory at every s-th of the K + 1 step points
    (_chunked_product).

    Expanding the RK4 stages in h gives the step map
    I + h C1 + h^2 C2 + h^3 C3 + h^4 C4 with C1 = (B0 + 4 Bm + B1)/6,
    C2 = (Bm B0 + Bm^2 + B1 Bm)/6, C3 = (Bm^2 B0 + B1 Bm^2)/12 and
    C4 = B1 Bm^2 B0/24 (Hairer, Norsett & Wanner, Solving ODEs I, II.1);
    with Bm^2 = q I these are closed forms.  The C do not depend on h:
    they are built once, over all K steps, and each batch entry's step
    size costs one Horner evaluation per step.  Where q is identically
    zero, C3 and C4 vanish and the polynomial is the quadratic
    I + h (C1 + h C2).  _chunked_product multiplies the step maps, held
    batch first, step last.
    """
    b0, bm, b1 = _components(b_half[:-1:2]), _components(b_half[1::2]), _components(b_half[2::2])
    q = np.asarray(square, dtype=float)
    coeffs = [
        tuple((x0 + 4.0 * xm + x1) / 6.0 for x0, xm, x1 in zip(b0, bm, b1)),
        tuple((x + y + z) / 6.0 for x, y, z in zip(_mul(bm, b0), _mul(b1, bm), (q, 0.0, 0.0, q))),
    ]
    if np.any(q):  # else C3 and C4 vanish
        coeffs.append(tuple(q * (x0 + x1) / 12.0 for x0, x1 in zip(b0, b1)))
        coeffs.append(tuple(q * x / 24.0 for x in _mul(b1, b0)))
    batch = np.shape(h)
    if batch:  # one step size per batch entry, broadcast along the steps
        h = np.reshape(h, batch + (1,))

    def step_maps(lo, hi):  # Horner: h (C1 + h (C2 + h (C3 + h C4))), each component built in one array
        p = [h * c[..., lo:hi] for c in coeffs[-1]]
        for c in coeffs[-2::-1]:
            for x, a in zip(p, c):
                x += a[..., lo:hi]
                x *= h
        p[0] += 1.0
        p[3] += 1.0
        return p

    return _chunked_product(step_maps, coeffs[0][0].shape[-1], batch, stride)


def _ranged_transfer(b_half: np.ndarray, h, stride: int | None = None, *, square, what):
    """_rk4_transfer, refusing period maps beyond double range.

    A final map that overflows, or has an entry above _LARGEST_ENTRY, where
    the squares that tr2 and eigen_system take would overflow, raises
    StepUnstable for the first batch entry k past range, naming what(k) (the
    map and its RK4 step) and the entry.  Overflow inside the product is
    silenced, since the map it reaches is refused here.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        out = _rk4_transfer(b_half, h, stride, square=square)
    largest = np.abs(out if stride is None else out[..., -1, :, :]).max(axis=(-2, -1))
    held = largest <= _LARGEST_ENTRY  # false for NaN too
    if not held.all():
        k = np.unravel_index(np.argmin(held), held.shape)
        raise StepUnstable(f"{what(k)} is beyond double range (largest entry {float(largest[k])!r})")
    return out


@dataclass(frozen=True)
class MonodromyMatrix:
    """Period map of a pi-periodic planar linear system."""

    m: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.m, dtype=float)
        if arr.shape != (2, 2):
            raise ValueError("monodromy must be 2x2")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "m", arr)

    @property
    def trace(self) -> float:
        return float(self.m[0, 0] + self.m[1, 1])

    @property
    def tr2(self) -> float:
        """Trace squared: invariant under conjugacy and under M -> -M.

        t * t, the product spectral_scan takes, so a scan entry is bit for bit
        its single-lambda map's tr2 (t**2 goes through libm pow).
        """
        t = self.trace
        return t * t

    def eigen_system(self):
        """Real eigen-decomposition ((mu_plus, v_plus), (mu_minus, v_minus)).

        mu_plus = (t + sign(t) sqrt(t^2 - 4))/2, the eigenvalue of larger
        modulus, has no cancellation; mu_minus = 1/mu_plus.  v_minus is the
        plus direction of adj M = M^-1 = [[m11, -m01], [-m10, m00]], so one
        row rule serves both.  Raises NoRealFixedPoints inside the
        elliptic/parabolic band t^2 - 4 <= PARABOLIC_TOL, and BranchSingular
        at +-I (every direction fixed, no way to pick two branches).
        """
        t = self.trace
        disc = t * t - 4.0
        if disc <= PARABOLIC_TOL:
            off = max(abs(self.m[0, 1]), abs(self.m[1, 0]), abs(self.m[0, 0] - self.m[1, 1]))
            if off < 1e-9 * max(1.0, abs(t)):
                raise BranchSingular("monodromy is a multiple of the identity")
            raise NoRealFixedPoints(f"trace {t!r}: no real eigen-directions")
        mu = 0.5 * (t + np.copysign(np.sqrt(disc), t))
        adj = np.array([[self.m[1, 1], -self.m[0, 1]], [-self.m[1, 0], self.m[0, 0]]])
        return (mu, _eigenvector(self.m, mu)), (1.0 / mu, _eigenvector(adj, mu))

    def fixed_angles(self):
        """Fixed points of the induced RP^1 map as angles in (-pi/2, pi/2].

        Returned as (plus, minus) by eigenvalue modulus; the angle chi
        stands for the projective point tan(chi).
        """
        (_, vp), (_, vm) = self.eigen_system()
        return (
            float(wrap_half_pi(np.arctan2(vp[0], vp[1]))),
            float(wrap_half_pi(np.arctan2(vm[0], vm[1]))),
        )


def _eigenvector(m: np.ndarray, mu: float) -> np.ndarray:
    """Unit null vector of m - mu I, read from the row of larger norm."""
    rows = np.array([[m[0, 1], mu - m[0, 0]], [mu - m[1, 1], m[1, 0]]])
    v = rows[np.argmax(np.linalg.norm(rows, axis=1))]
    return v / np.linalg.norm(v)


def moebius_apply_angle(m: np.ndarray, chi):
    """Action of a 2x2 matrix on RP^1 points written as angles.

    The point tan(chi) maps to tan(result); work on the homogeneous vector
    (sin chi, cos chi) so nothing blows up at the chart pole.
    """
    chi = np.asarray(chi, dtype=float)
    v1 = m[0, 0] * np.sin(chi) + m[0, 1] * np.cos(chi)
    v2 = m[1, 0] * np.sin(chi) + m[1, 1] * np.cos(chi)
    return np.arctan2(v1, v2)


def hill_fundamental(
    potential: pf.PeriodicFn, substeps: int = DEFAULT_SUBSTEPS, keep_trajectory: bool = False
):
    """Fundamental solution of u'' = potential * u over [0, pi] acting on (u, u').

    With ``keep_trajectory`` also returns the matrix at every step point
    (substeps*N + 1 of them), which downstream code uses to follow
    individual solutions across the period.  A potential that is not
    periodic raises ValueError before any integration; a map beyond double
    range raises StepUnstable naming the RK4 step h (_ranged_transfer).
    """
    if potential.parity != "periodic":
        raise ValueError("potential must be periodic")
    h = _step_size(substeps, potential.n)
    # coefficient matrices [[0, 1], [potential, 0]] at half-step resolution
    fine = pf.values_with_wrap(potential, 2 * substeps * potential.n)
    b = np.zeros((fine.shape[0], 2, 2))
    b[:, 0, 1] = 1.0
    b[:, 1, 0] = fine
    out = _ranged_transfer(
        b,
        h,
        1 if keep_trajectory else None,
        square=fine[1::2],
        what=lambda k: f"Hill period map (RK4 step h = {h!r})",
    )
    if keep_trajectory:
        return MonodromyMatrix(out[-1]), out
    return MonodromyMatrix(out)


@dataclass(frozen=True)
class _FloquetFactor:
    """A branch's shot Floquet solution u: u2 and du2 hold u^2 and (u^2)' at
    the RK4 step points of [0, pi], and u(t + pi) = mu u(t), mu the shot's
    own multiplier, the one that matches u2 in _integrate_along."""

    u2: np.ndarray
    du2: np.ndarray
    mu: float


@dataclass(frozen=True)
class RiccatiBranch:
    """One periodic solution of the quadratic relation c w' = w^2 - 1 - c^2 p,
    p the Hill potential, tagged by which Floquet branch produced it, with
    that branch's Floquet multiplier exp(-pi mean(w)/c)."""

    solution: pf.PeriodicFn
    branch: str
    multiplier: float
    c_aff: float
    _factor: _FloquetFactor = field(repr=False, compare=False)

    def solve_linear(self, rhs: pf.PeriodicFn) -> pf.PeriodicFn:
        """The periodic g of g' - (2w/c) g = rhs on the grid, w this solution.

        This is the Newton equation of the relation and the pushforward of
        tangent deformations.  Its homogeneous multiplier is 1/mu^2 for the
        branch's Floquet multiplier mu, so it never resonates on a
        hyperbolic branch.  Each pass is the O(n log n) _floquet_solve
        along the branch's Floquet solution.  A smooth rhs reaches the
        residual's roundoff floor, 4 n eps max(|rhs|, |(2w/c) g|), in one
        pass.  Nyquist content takes a few more: the algebraic Nyquist step
        leaves near-Nyquist residual of relative size |kappa - mean
        kappa| / |mean kappa|, and each further pass shrinks it 3000- to
        14000-fold at n = 128 and 9000- to 14000-fold at n = 512 (the
        default shot, two substeps; a rhs (-1)^k reaches the floor in at
        most 5 passes from n = 128 to 2048).
        """
        if rhs.parity != "periodic" or rhs.n != self.solution.n:
            raise ValueError("rhs must be periodic on the solution's grid")
        kappa = (2.0 / self.c_aff) * self.solution.samples
        r = rhs.samples
        g, residual = np.zeros_like(r), r
        for _ in range(_SOLVE_PASSES):
            g = g + _floquet_solve(self._factor, kappa, residual)
            kappa_g = kappa * g
            residual = r - pf.differentiate_samples(g, "periodic") + kappa_g
            scale = max(np.max(np.abs(r)), np.max(np.abs(kappa_g)))
            if np.max(np.abs(residual)) <= _roundoff_floor(r.shape[0], scale):
                break
        return pf.PeriodicFn(g, "periodic")


def _check_branch(branch: str) -> None:
    """Raise ValueError unless branch is "plus" or "minus"."""
    if branch not in _BRANCHES:
        raise ValueError(f"branch must be 'plus' or 'minus', got {branch!r}")


def _reflect(samples: np.ndarray) -> np.ndarray:
    """Samples of f(pi - t) from the samples of a pi-periodic f on the same grid."""
    return np.concatenate([samples[:1], samples[:0:-1]])


def _integrate_along(factor: _FloquetFactor, rhs: np.ndarray) -> np.ndarray:
    """Node values of g from u(t)^2 g(t) = u(0)^2 g(0) + int_0^t u^2 rhs.

    Periodicity fixes u(0)^2 g(0) (mu^2 - 1) = int_0^pi u^2 rhs.  The
    integral accumulates from the end where u is small (0 if |mu| > 1,
    else pi), so dividing by u(t)^2 damps the quadrature error rather than
    amplifying it.  The cumulative integral is the endpoint-corrected
    trapezoid rule, 4th order at every step point for any substep count,
    with (u^2 rhs)' from the trajectory's u' and the spectral rhs'.
    The factor holds substeps * n + 1 step points, so the n grid nodes are
    every (steps // n)-th one.
    """
    steps = factor.u2.shape[0] - 1
    h = np.pi / steps
    r_fine, dr_fine = pf.values_and_slopes_with_wrap(rhs, steps)
    f = factor.u2 * r_fine
    df = factor.du2 * r_fine + factor.u2 * dr_fine
    pieces = 0.5 * h * (f[:-1] + f[1:]) + (h * h / 12.0) * (df[:-1] - df[1:])
    cumulative = np.zeros(steps + 1)  # u^2 g - u(small end)^2 g(small end)
    if abs(factor.mu) > 1.0:
        np.cumsum(pieces, out=cumulative[1:])
        start = cumulative[-1] / (factor.mu**2 - 1.0)
    else:
        cumulative[:-1] = -np.cumsum(pieces[::-1])[::-1]
        start = cumulative[0] / (factor.mu**-2 - 1.0)
    nodes = slice(0, steps, steps // rhs.shape[0])
    return (start + cumulative[nodes]) / factor.u2[nodes]


def _floquet_solve(factor: _FloquetFactor, kappa: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Periodic g of g' - kappa g = rhs on the grid.

    kappa is 2w/c for the branch's current w, which the integrating
    factor u^2 matches up to the polish: with kappa = -2u'/u the equation
    is exactly (u^2 g)' = u^2 rhs (_integrate_along).  One
    defect-correction sweep against the spectral residual absorbs both
    the quadrature error and the gap between kappa and -2u'/u.  The
    collocation derivative zeroes the Nyquist mode cos(nt), which the
    continuous solve cannot reach (Trefethen, Spectral Methods in MATLAB,
    ch. 3), so that one coefficient is set algebraically: D g has no
    Nyquist part, so adding a (-1)^k to g moves the residual's Nyquist
    coefficient by a mean(kappa).  mean(kappa) is about -(2/pi) ln|mu|,
    nonzero on a hyperbolic branch.
    """
    g = _integrate_along(factor, rhs)
    residual = rhs - pf.differentiate_samples(g, "periodic") + kappa * g
    g = g + _integrate_along(factor, residual)
    alternating = pf.nyquist_mode(g.shape[0])
    return g - (np.mean((rhs + kappa * g) * alternating) / np.mean(kappa)) * alternating


def _dominant_solution(traj: np.ndarray):
    """(mu, traj @ v): the dominant Floquet solution along one trajectory, v and mu
    the larger eigenvalue's direction and value of its period map traj[-1]."""
    (mu, v), _ = MonodromyMatrix(traj[-1]).eigen_system()
    return mu, traj @ v


def _plus_branch(potential: pf.PeriodicFn, c_aff: float):
    """Polished node values of the plus branch's w, and its Floquet factor.

    w = -c u'/u for the dominant Floquet solution u of
    u'' = (potential + 1/c^2) u, shot forward, the direction in which it
    grows, with _shot_substeps(n) substeps.
    """
    substeps = _shot_substeps(potential.n)
    try:
        _, traj = hill_fundamental(potential + 1.0 / c_aff**2, substeps=substeps, keep_trajectory=True)
    except StepUnstable as exc:
        raise StepUnstable(f"plane shot at c = {c_aff!r}: {exc}") from None
    mu, sol = _dominant_solution(traj)
    u, du = sol[:, 0], sol[:, 1]
    if np.any(u[:-1] * u[1:] <= 0.0):
        raise BranchSingular("u vanishes on [0, pi], the solution w has a pole")
    factor = _FloquetFactor(u * u, 2.0 * u * du, float(mu))
    nodes = slice(0, u.shape[0] - 1, substeps)
    w = _polish_riccati(-c_aff * du[nodes] / u[nodes], potential.samples, c_aff, factor)
    return w, factor


def riccati_branch(potential: pf.PeriodicFn, c_aff: float, branch: str) -> RiccatiBranch:
    """The periodic Riccati solution of one branch, "plus" or "minus".

    Each branch is computed in the direction in which its Floquet solution
    grows (the dichotomy principle: Ascher, Mattheij & Russell, Numerical
    Solution of BVPs for ODEs, SIAM 1995).  The minus branch is the plus
    branch (_plus_branch) of the reflected potential p(pi - t), reflected
    back: w(t) = -w~(pi - t), Floquet solution u~(pi - t).  The shot takes
    _shot_substeps(n) substeps (the module's step rule: 4 at n = 64, 2 from
    n = 128); the Newton polish then owns the accuracy of w.  The multiplier
    is read off the polished w: w = -c u'/u, so int_0^pi w = -c ln mu, and
    u does not vanish on a branch, so mu = exp(-pi mean(w)/c) > 0.  The returned branch keeps the polish's
    O(n log n) solve as RiccatiBranch.solve_linear.  A bad label raises
    ValueError before any integration.  Raises NoRealFixedPoints for an
    elliptic (or near-parabolic) period matrix, and BranchSingular when
    this branch's u changes sign, i.e. w has a pole.
    """
    _check_branch(branch)
    if c_aff == 0.0:
        raise ZeroParam("c must be nonzero")
    if branch == "plus":
        w, factor = _plus_branch(potential, c_aff)
    else:
        w, f = _plus_branch(pf.PeriodicFn(_reflect(potential.samples), "periodic"), c_aff)
        w = -_reflect(w)
        factor = _FloquetFactor(f.u2[::-1], -f.du2[::-1], 1.0 / f.mu)
    multiplier = float(np.exp(-np.pi * np.mean(w) / c_aff))
    return RiccatiBranch(pf.PeriodicFn(w, "periodic"), branch, multiplier, c_aff, factor)


def riccati_periodic_solutions(potential: pf.PeriodicFn, c_aff: float):
    """Both periodic Riccati solutions for the given Hill potential and c.

    Returns (plus, minus) ordered by Floquet multiplier modulus; each
    member equals riccati_branch with its label, and each is shot in its
    own growing direction.  Raises NoRealFixedPoints when the period
    matrix is elliptic (or within tolerance of parabolic), and
    BranchSingular when either branch's u vanishes somewhere (that
    periodic solution has a pole there).  Callers that need one branch
    should use riccati_branch, which shoots and polishes only that one.
    Both are shot with the step rule, _shot_substeps(n).
    """
    return tuple(riccati_branch(potential, c_aff, name) for name in _BRANCHES)


def _polish_riccati(w: np.ndarray, potential: np.ndarray, c: float, factor: _FloquetFactor) -> np.ndarray:
    """Newton-correct samples of a near-solution of c w' = w^2 - 1 - c^2 p.

    The time stepper leaves an O(h^4) defect that compounds when
    transformations are stacked; spectral Newton steps push it to
    roundoff.  Each step solves delta' - (2w/c) delta = -defect with the
    O(n log n) Floquet solve of the branch (_floquet_solve).  That solve
    is inexact, since its integrating factor is the shot u, so Newton
    converges linearly; at most four steps are taken.

    The polish stops once the defect is at its roundoff floor,
    4 n eps max(1, max|w|): the spectral derivative of w carries an error
    that grows like n eps |w| (Trefethen, Spectral Methods in MATLAB,
    ch. 3), so no Newton step can push the defect below it.
    """
    floor = _roundoff_floor(w.shape[0], max(1.0, float(np.max(np.abs(w)))))
    for _ in range(4):
        defect = pf.differentiate_samples(w, "periodic") - (w * w - 1.0) / c + c * potential
        if np.max(np.abs(defect)) < floor:
            break
        w = w + _floquet_solve(factor, (2.0 / c) * w, -defect)
    return w


def _angle_b_half(gamma: ProjectiveCurve, substeps: int) -> np.ndarray:
    """lambda-independent part of the projective generator at half steps.

    The generator of the one-parameter family is
    B(t) = (lambda/phi') [[-sin phi cos phi, sin^2 phi], [-cos^2 phi, sin phi cos phi]],
    the angle-chart form of the affine-chart field (lambda/gamma')
    [[-gamma, gamma^2], [-1, gamma]]; this helper returns B/lambda.
    That is (1/phi') v w^T with v = (sin phi, cos phi) and
    w = (-cos phi, sin phi); w^T v = 0, so B^2 = 0 (square 0 in _rk4_transfer).
    """
    m = 2 * substeps * gamma.n
    psi, dpsi = pf.values_and_slopes_with_wrap(gamma.psi.samples, m)
    phi = np.arange(m + 1) * (np.pi / m) + psi
    dphi = 1.0 + dpsi
    s, c = np.sin(phi), np.cos(phi)
    b = np.empty((m + 1, 2, 2))
    np.divide(-s * c, dphi, out=b[:, 0, 0])
    np.divide(s * s, dphi, out=b[:, 0, 1])
    np.divide(-c * c, dphi, out=b[:, 1, 0])
    # (s c)/dphi, bit for bit: IEEE products and quotients are sign-symmetric
    np.negative(b[:, 0, 0], out=b[:, 1, 1])
    return b


def moebius_monodromy(
    gamma: ProjectiveCurve,
    lam,
    substeps: int = DEFAULT_SUBSTEPS,
    keep_trajectory: bool = False,
):
    """Period map of the lambda-scaled projective vector field along gamma,
    at one lambda or at each of a 1-d array of them.

    The generator is traceless, so the result is unimodular; its conjugacy
    class in PSL(2, R) is a spectral invariant of the curve (spectral_scan),
    and at lambda = c_pr its fixed point starts a transform
    (apply_tc_projective).  An RK4 step of lambda B with step h is one of B
    with step lambda h, so every lambda rides one transfer over one
    lambda-free field (_angle_b_half), whose step coefficients are built
    once, and the batch is the steps lambda h.  A number returns a
    MonodromyMatrix, an array the stacked maps, of shape lam.shape + (2, 2).
    With keep_trajectory, also return the fundamental matrix at every grid
    point (n + 1 of them, every substeps-th RK4 step point), of shape
    lam.shape + (n + 1, 2, 2).  A lambda that is not finite, or an array
    that is empty or not 1-d, raises ValueError before any field is built.
    A map beyond double range (_ranged_transfer) raises StepUnstable naming
    the first lambda past range and its RK4 step lambda h, which at such a
    lambda the grid does not resolve.
    """
    lam = np.asarray(lam, dtype=float)
    if lam.ndim > 1 or lam.size == 0 or not np.all(np.isfinite(lam)):
        raise ValueError(f"lambda must be a finite number or a non-empty 1-d array of them, got {lam!r}")
    steps = lam * _step_size(substeps, gamma.n)  # lambda scales the step, not the field

    def what(k):
        return f"projective period map at lambda = {float(lam[k])!r} (RK4 step lambda h = {float(steps[k])!r})"

    out = _ranged_transfer(
        _angle_b_half(gamma, substeps), steps, substeps if keep_trajectory else None, square=0.0, what=what
    )
    maps = out[..., -1, :, :] if keep_trajectory else out
    if not lam.ndim:
        maps = MonodromyMatrix(maps)
    return (maps, out) if keep_trajectory else maps


@dataclass(frozen=True)
class SpectralScan:
    """Trace squared of the period map sampled on a lambda grid."""

    lambdas: np.ndarray
    tr2: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float)
        tr2 = np.asarray(self.tr2, dtype=float)
        if lam.shape != tr2.shape or lam.ndim != 1:
            raise ValueError("lambda and tr2 arrays must be 1-d and congruent")
        lam = lam.copy()
        tr2 = tr2.copy()
        lam.flags.writeable = False
        tr2.flags.writeable = False
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "tr2", tr2)


def spectral_scan(
    gamma: ProjectiveCurve, lambda_grid, substeps: int = DEFAULT_SUBSTEPS
) -> SpectralScan:
    """Scan the spectral invariant over a grid of lambda values.

    The trace squared of the period maps at every grid point, all of them
    one moebius_monodromy call, which refuses a grid that is empty, not
    1-d or not finite (ValueError) and a map beyond double range
    (StepUnstable).
    """
    lam = np.atleast_1d(np.asarray(lambda_grid, dtype=float))
    m = moebius_monodromy(gamma, lam, substeps)
    tr = m[:, 0, 0] + m[:, 1, 1]
    return SpectralScan(lambdas=lam, tr2=tr * tr)


def scan_to_csv(scan: SpectralScan, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lambda", "tr2"])
        for lam, val in zip(scan.lambdas, scan.tr2):
            writer.writerow([repr(float(lam)), repr(float(val))])


def scan_from_csv(path) -> SpectralScan:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["lambda", "tr2"]:
        raise ValueError("expected header 'lambda,tr2'")
    lam = np.array([float(r[0]) for r in rows[1:]])
    tr2 = np.array([float(r[1]) for r in rows[1:]])
    return SpectralScan(lambdas=lam, tr2=tr2)


def _fixing_matrix(a, b, mu: float) -> np.ndarray:
    """P diag(1, mu) P^-1, P = [a b]: fixes homogeneous vector a, scales b by mu; det mu, trace 1 + mu."""
    (a0, a1), (b0, b1) = a, b
    return (1.0 / (a0 * b1 - a1 * b0)) * np.array(
        [[a0 * b1 - mu * a1 * b0, a0 * b0 * (mu - 1.0)], [(1.0 - mu) * a1 * b1, mu * a0 * b1 - a1 * b0]]
    )


def conjugator_affine(x: float, y: float, mu: float) -> np.ndarray:
    """Matrix fixing affine point x with eigenvalue 1 and y with eigenvalue mu.

    Explicitly (1/(x-y)) [[x - mu y, x y (mu - 1)], [1 - mu, x mu - y]],
    the fixing matrix of the homogeneous vectors (x, 1) and (y, 1).
    """
    return _fixing_matrix((x, 1.0), (y, 1.0), mu)


def conjugator(
    gamma: ProjectiveCurve, delta: ProjectiveCurve, mu: float, t: float
) -> np.ndarray:
    """The matrix fixing gamma(t) with eigenvalue 1 and scaling delta(t) by mu.

    The fixing matrix of the homogeneous vectors (sin chi, cos chi) of the
    two angles, so no chart pole enters.  Raises Degenerate when the points
    coincide in RP^1.
    """
    chi_g = float(gamma.phi(t))
    chi_d = float(delta.phi(t))
    if abs(np.sin(chi_g - chi_d)) < MEET_TOL:
        raise Degenerate(f"curves meet at t = {t!r}: no conjugator")
    return _fixing_matrix((np.sin(chi_g), np.cos(chi_g)), (np.sin(chi_d), np.cos(chi_d)), mu)
