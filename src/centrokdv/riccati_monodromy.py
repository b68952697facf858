"""Monodromy machinery: Hill fundamental matrices, periodic Riccati branches,
the one-parameter family of projective period maps, and the fixed-point
conjugator.

All period maps are classical RK4 on [0, pi] with step h = pi/(substeps*N);
coefficient values at half steps come from exact trigonometric resampling,
so step-halving exhibits clean order-4 decay.  The systems are linear, so
each RK4 step is a fixed 2x2 propagator: ``_rk4_transfer`` builds them a
chunk at a time in one vectorised pass and multiplies them by a pairwise
tree (period map) or an inclusive prefix product (fundamental-matrix
trajectory), with no loop over steps.  Eigen-structure of the resulting 2x2
matrices drives everything else: branch labels, fixed points in RP^1, and
spectral invariants.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from . import periodic_fn as pf
from .curve_core import ProjectiveCurve, wrap_half_pi
from .errors import BranchSingular, Degenerate, NoRealFixedPoints, ZeroParam

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
PARABOLIC_TOL = 1e-9
_BRANCHES = ("plus", "minus")
TRANSFER_CHUNK = 256  # RK4 steps whose propagators are built and multiplied at once
_SOLVE_PASSES = 8  # cap on RiccatiBranch.solve_linear's defect-correction passes


def _mul(a, b):
    """a @ b for stacks of 2x2 matrices held as component tuples (m00, m01, m10, m11).

    Written out by component: np.matmul on a (256, 21) stack of 2x2 blocks
    is several times slower.
    """
    a00, a01, a10, a11 = a
    b00, b01, b10, b11 = b
    return (
        a00 * b00 + a01 * b10,
        a00 * b01 + a01 * b11,
        a10 * b00 + a11 * b10,
        a10 * b01 + a11 * b11,
    )


def _components(x: np.ndarray):
    return x[..., 0, 0], x[..., 0, 1], x[..., 1, 0], x[..., 1, 1]


def _step_propagators(b0, bm, b1, h: float):
    """RK4 step maps P = I + h/6 (A1 + 2 A2 + 2 A3 + A4) of X' = B(t) X.

    A1 = B0, A2 = Bm (I + h/2 A1), A3 = Bm (I + h/2 A2), A4 = B1 (I + h A3),
    so that one RK4 step sends X to P X exactly.
    """

    def times_shifted(b, a, s):  # b @ (I + s a)
        return _mul(b, (1.0 + s * a[0], s * a[1], s * a[2], 1.0 + s * a[3]))

    a2 = times_shifted(bm, b0, 0.5 * h)
    a3 = times_shifted(bm, a2, 0.5 * h)
    a4 = times_shifted(b1, a3, h)
    p = [(h / 6.0) * (x1 + 2.0 * (x2 + x3) + x4) for x1, x2, x3, x4 in zip(b0, a2, a3, a4)]
    p[0] += 1.0
    p[3] += 1.0
    return p


def _tree_product(p):
    """P_{C-1} ... P_1 P_0 of a component stack, by a pairwise tree of products."""
    while len(p[0]) > 1:
        pairs = len(p[0]) // 2
        q = _mul([x[1 : 2 * pairs : 2] for x in p], [x[0 : 2 * pairs : 2] for x in p])
        if len(p[0]) % 2:  # the odd last step joins the last pair
            for x, y in zip(q, _mul([x[-1:] for x in p], [x[-1:] for x in q])):
                x[-1:] = y
        p = q
    return tuple(x[0] for x in p)


def _prefix_products(p):
    """Inclusive prefix products S_k = P_k ... P_0 (Hillis-Steele: log2 C doubling passes)."""
    p = tuple(np.array(x) for x in p)
    d = 1
    while d < len(p[0]):
        for x, y in zip(p, _mul([x[d:] for x in p], [x[:-d] for x in p])):
            x[d:] = y
        d *= 2
    return p


def _step_size(substeps: int, n: int) -> float:
    """The RK4 step pi/(substeps*n) of every period map on an n-point grid."""
    if substeps < 1:
        raise ValueError(f"substeps must be at least 1, got {substeps!r}")
    return np.pi / (substeps * n)


def _rk4_transfer(b_half: np.ndarray, h: float | np.ndarray, keep_trajectory: bool = False):
    """Integrate X' = B(t)X from X(0) = I across K classical RK4 steps of size h.

    ``b_half`` holds B at half-step resolution: shape (2K+1, ..., 2, 2),
    where index 2k is the start of step k, 2k+1 its midpoint, 2k+2 its end.
    Batch axes between the time axis and the matrix block are carried along;
    h may be an array broadcast over them, one step size per batch entry.
    Returns the final matrix, or the whole (K+1)-point trajectory.

    The system is linear, so step k is the fixed 2x2 propagator P_k of
    _step_propagators and X(t_k) = P_{k-1} ... P_0.  Propagators are built
    TRANSFER_CHUNK steps at a time in one vectorised pass; a chunk is
    reduced by a pairwise tree product, or, for the trajectory, by an
    inclusive prefix product, and the running matrix is carried from chunk
    to chunk, so memory stays flat in K.
    """
    steps = (b_half.shape[0] - 1) // 2
    batch = np.broadcast_shapes(b_half.shape[1:-2], np.shape(h))
    running = (np.ones(batch), np.zeros(batch), np.zeros(batch), np.ones(batch))
    traj = np.empty((steps + 1,) + batch + (2, 2)) if keep_trajectory else None
    if keep_trajectory:
        traj[0] = np.eye(2)
    for lo in range(0, steps, TRANSFER_CHUNK):
        hi = min(lo + TRANSFER_CHUNK, steps)
        b = b_half[2 * lo : 2 * hi + 1]
        p = _step_propagators(_components(b[:-1:2]), _components(b[1::2]), _components(b[2::2]), h)
        if keep_trajectory:
            chunk = _mul(_prefix_products(p), running)
            for x, y in zip(_components(traj[lo + 1 : hi + 1]), chunk):
                x[...] = y
            running = tuple(x[-1] for x in chunk)
        else:
            running = _mul(_tree_product(p), running)
    if keep_trajectory:
        return traj
    return np.stack(running, axis=-1).reshape(batch + (2, 2))


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
    def det(self) -> float:
        return float(self.m[0, 0] * self.m[1, 1] - self.m[0, 1] * self.m[1, 0])

    @property
    def tr2(self) -> float:
        """Trace squared over determinant: the conjugacy (and sign) invariant."""
        return self.trace**2 / self.det

    def eigen_system(self):
        """Real eigen-decomposition ((mu_plus, v_plus), (mu_minus, v_minus)).

        "plus" is the eigenvalue of larger modulus.  Raises
        NoRealFixedPoints inside the elliptic/parabolic band
        |trace| <= 2 sqrt(det) + tol, and BranchSingular when the matrix is
        a multiple of the identity (every direction fixed, no way to pick
        two branches).
        """
        t, d = self.trace, self.det
        disc = t * t - 4.0 * d
        if disc <= PARABOLIC_TOL * max(1.0, abs(d)):
            off = max(abs(self.m[0, 1]), abs(self.m[1, 0]), abs(self.m[0, 0] - self.m[1, 1]))
            if off < 1e-9 * max(1.0, abs(t)):
                raise BranchSingular("monodromy is a multiple of the identity")
            raise NoRealFixedPoints(f"trace {t!r}, det {d!r}: no real eigen-directions")
        root = np.sqrt(disc)
        mu_a = (t + root) / 2.0
        mu_b = (t - root) / 2.0
        if abs(mu_a) < abs(mu_b):
            mu_a, mu_b = mu_b, mu_a
        return (mu_a, self._eigenvector(mu_a)), (mu_b, self._eigenvector(mu_b))

    def _eigenvector(self, mu: float) -> np.ndarray:
        r1 = np.array([self.m[0, 1], mu - self.m[0, 0]])
        r2 = np.array([mu - self.m[1, 1], self.m[1, 0]])
        v = r1 if np.linalg.norm(r1) >= np.linalg.norm(r2) else r2
        return v / np.linalg.norm(v)

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
    individual solutions across the period.
    """
    h = _step_size(substeps, potential.n)
    # coefficient matrices [[0, 1], [potential, 0]] at half-step resolution
    fine = pf.values_with_wrap(potential, 2 * substeps * potential.n)
    b = np.zeros((fine.shape[0], 2, 2))
    b[:, 0, 1] = 1.0
    b[:, 1, 0] = fine
    if keep_trajectory:
        traj = _rk4_transfer(b, h, keep_trajectory=True)
        return MonodromyMatrix(traj[-1]), traj
    return MonodromyMatrix(_rk4_transfer(b, h))


@dataclass(frozen=True)
class _FloquetFactor:
    """A branch's Floquet solution u: u2 and du2 hold u^2 and (u^2)' at the
    RK4 step points of [0, pi], and u(t + pi) = mu u(t)."""

    u2: np.ndarray
    du2: np.ndarray
    mu: float
    substeps: int


@dataclass(frozen=True)
class RiccatiBranch:
    """One periodic solution of the quadratic relation c w' = w^2 - 1 - c^2 p,
    p the Hill potential, tagged by which Floquet branch produced it."""

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
        kappa| / |mean kappa|, and each further pass shrinks it about
        300-fold at n = 128 and 1000-fold at n = 512.
        """
        if rhs.parity != "periodic" or rhs.n != self.solution.n:
            raise ValueError("rhs must be periodic on the solution's grid")
        kappa = (2.0 / self.c_aff) * self.solution.samples
        r = rhs.samples
        eps_n = 4.0 * r.shape[0] * np.finfo(float).eps
        g, residual = np.zeros_like(r), r
        for _ in range(_SOLVE_PASSES):
            g = g + _floquet_solve(self._factor, kappa, residual)
            kappa_g = kappa * g
            residual = r - pf.differentiate_samples(g, "periodic") + kappa_g
            if np.max(np.abs(residual)) <= eps_n * max(np.max(np.abs(r)), np.max(np.abs(kappa_g))):
                break
        return pf.PeriodicFn(g, "periodic")


def _pick_branch(pair, branch: str):
    """The member of a (plus, minus) pair named by a branch label; ValueError on any other label."""
    if branch not in _BRANCHES:
        raise ValueError(f"branch must be 'plus' or 'minus', got {branch!r}")
    return pair[0] if branch == "plus" else pair[1]


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
    nodes = slice(0, steps, factor.substeps)
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
    alternating = np.resize([1.0, -1.0], g.shape[0])
    return g - (np.mean((rhs + kappa * g) * alternating) / np.mean(kappa)) * alternating


def _plus_branch(potential: pf.PeriodicFn, c_aff: float, substeps: int):
    """Polished node values of the plus branch's w, and its Floquet factor.

    w = -c u'/u for the dominant Floquet solution u of
    u'' = (potential + 1/c^2) u, shot forward, the direction in which it grows.
    """
    mono, traj = hill_fundamental(potential + 1.0 / c_aff**2, substeps=substeps, keep_trajectory=True)
    (mu, v), _ = mono.eigen_system()
    sol = traj @ v
    u, du = sol[:, 0], sol[:, 1]
    if np.any(u[:-1] * u[1:] <= 0.0):
        raise BranchSingular("u vanishes on [0, pi], the solution w has a pole")
    factor = _FloquetFactor(u * u, 2.0 * u * du, float(mu), substeps)
    nodes = slice(0, u.shape[0] - 1, substeps)
    w = _polish_riccati(-c_aff * du[nodes] / u[nodes], potential.samples, c_aff, factor)
    return w, factor


def riccati_branch(
    potential: pf.PeriodicFn, c_aff: float, branch: str, substeps: int = DEFAULT_SUBSTEPS
) -> RiccatiBranch:
    """The periodic Riccati solution of one branch, "plus" or "minus".

    Each branch is computed in the direction in which its Floquet solution
    grows (the dichotomy principle: Ascher, Mattheij & Russell, Numerical
    Solution of BVPs for ODEs, SIAM 1995).  The minus branch is the plus
    branch (_plus_branch) of the reflected potential p(pi - t), reflected
    back: w(t) = -w~(pi - t), multiplier 1/mu~, Floquet solution u~(pi - t).
    The returned branch keeps the polish's O(n log n) solve as
    RiccatiBranch.solve_linear.  A bad label raises ValueError before any
    integration.  Raises NoRealFixedPoints for an elliptic (or
    near-parabolic) period matrix, and BranchSingular when this branch's
    u changes sign, i.e. w has a pole.
    """
    _pick_branch(_BRANCHES, branch)
    if c_aff == 0.0:
        raise ZeroParam("c must be nonzero")
    if branch == "plus":
        w, factor = _plus_branch(potential, c_aff, substeps)
    else:
        w, f = _plus_branch(pf.PeriodicFn(_reflect(potential.samples), "periodic"), c_aff, substeps)
        w = -_reflect(w)
        factor = _FloquetFactor(f.u2[::-1], -f.du2[::-1], 1.0 / f.mu, substeps)
    return RiccatiBranch(pf.PeriodicFn(w, "periodic"), branch, factor.mu, c_aff, factor)


def riccati_periodic_solutions(
    potential: pf.PeriodicFn, c_aff: float, substeps: int = DEFAULT_SUBSTEPS
):
    """Both periodic Riccati solutions for the given Hill potential and c.

    Returns (plus, minus) ordered by Floquet multiplier modulus; each
    member equals riccati_branch with its label, and each is shot in its
    own growing direction.  Raises NoRealFixedPoints when the period
    matrix is elliptic (or within tolerance of parabolic), and
    BranchSingular when either branch's u vanishes somewhere (that
    periodic solution has a pole there).  Callers that need one branch
    should use riccati_branch, which shoots and polishes only that one.
    """
    return tuple(riccati_branch(potential, c_aff, name, substeps) for name in _BRANCHES)


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
    floor = 4.0 * w.shape[0] * np.finfo(float).eps * max(1.0, float(np.max(np.abs(w))))
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
    """
    m = 2 * substeps * gamma.n
    psi, dpsi = pf.values_and_slopes_with_wrap(gamma.psi.samples, m)
    phi = np.arange(m + 1) * (np.pi / m) + psi
    dphi = 1.0 + dpsi
    s, c = np.sin(phi), np.cos(phi)
    b = np.empty((m + 1, 2, 2))
    b[:, 0, 0] = -s * c
    b[:, 0, 1] = s * s
    b[:, 1, 0] = -c * c
    b[:, 1, 1] = s * c
    return b / dphi[:, None, None]


def moebius_monodromy(
    gamma: ProjectiveCurve,
    lam: float,
    substeps: int = DEFAULT_SUBSTEPS,
    keep_trajectory: bool = False,
):
    """Period map of the lambda-scaled projective vector field along gamma.

    The generator is traceless, so the result is unimodular; its conjugacy
    class in PSL(2, R) is a spectral invariant of the curve.  With
    keep_trajectory, also return the fundamental matrix at every step.
    """
    h = float(lam) * _step_size(substeps, gamma.n)  # lambda scales the step, not the field
    b = _angle_b_half(gamma, substeps)
    if keep_trajectory:
        traj = _rk4_transfer(b, h, keep_trajectory=True)
        return MonodromyMatrix(traj[-1]), traj
    return MonodromyMatrix(_rk4_transfer(b, h))


@dataclass(frozen=True)
class SpectralScan:
    """Trace-squared-over-det of the period map sampled on a lambda grid."""

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

    All grid points ride one batched integration.  An RK4 step of lambda B
    with step h is one of B with step lambda h, so the batch shares one
    lambda-free field, broadcast without copying, and lambda scales the step.
    """
    lam = np.atleast_1d(np.asarray(lambda_grid, dtype=float))
    h = _step_size(substeps, gamma.n)
    b = _angle_b_half(gamma, substeps)[:, None]
    b = np.broadcast_to(b, (b.shape[0], lam.size, 2, 2))
    m = _rk4_transfer(b, lam * h)
    tr = m[:, 0, 0] + m[:, 1, 1]
    det = m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0]
    return SpectralScan(lambdas=lam, tr2=tr * tr / det)


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


def conjugator_affine(x: float, y: float, mu: float) -> np.ndarray:
    """Matrix fixing affine point x with eigenvalue 1 and y with eigenvalue mu.

    Explicitly (1/(x-y)) [[x - mu y, x y (mu - 1)], [1 - mu, x mu - y]],
    with determinant mu and trace 1 + mu.
    """
    return (1.0 / (x - y)) * np.array(
        [[x - mu * y, x * y * (mu - 1.0)], [1.0 - mu, x * mu - y]]
    )


def conjugator(
    gamma: ProjectiveCurve, delta: ProjectiveCurve, mu: float, t: float
) -> np.ndarray:
    """The matrix fixing gamma(t) with eigenvalue 1 and scaling delta(t) by mu.

    The affine-chart formula (conjugator_affine) is chart-equivariant since
    its eigen-data pins it uniquely, so it is evaluated in the chart
    centered between the two points and rotated back.  Raises Degenerate
    when the points coincide in RP^1.
    """
    chi_g = float(gamma.phi(t))
    chi_d = float(delta.phi(t))
    gap = wrap_half_pi(chi_g - chi_d)
    if abs(np.sin(chi_g - chi_d)) < 1e-12:
        raise Degenerate(f"curves meet at t = {t!r}: no conjugator")
    theta = chi_g - gap / 2.0
    x = np.tan(gap / 2.0)
    a_mid = conjugator_affine(x, -x, mu)
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    return rot.T @ a_mid @ rot
