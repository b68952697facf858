"""Tests for Hill monodromy, Riccati branches, spectral scans, conjugator."""

import re
import warnings

import numpy as np
import pytest

from centrokdv import backlund as bk
from centrokdv import curve_core as cc
from centrokdv import periodic_fn as pf
from centrokdv import riccati_monodromy as rm
from centrokdv.errors import BranchSingular, Degenerate, NoRealFixedPoints, OffUnity, StepUnstable, ZeroParam


def circle_tr2(lam):
    lam = np.asarray(lam, dtype=float)
    out = np.empty_like(lam)
    below = lam <= 1.0
    out[below] = 4.0 * np.cos(np.pi * np.sqrt(1.0 - lam[below])) ** 2
    out[~below] = 4.0 * np.cosh(np.pi * np.sqrt(lam[~below] - 1.0)) ** 2
    return out


def sequential_rk4(b_half, h, stride=None, square=None):
    """Reference transfer: one classical RK4 step of X' = B(t) X per iteration.

    Takes what _rk4_transfer takes: one field of shape (2K+1, 2, 2) and a
    step size h, a scalar or a 1-d batch of them.  With a stride s it
    returns every s-th step point of the trajectory, batch first, as
    _rk4_transfer does.  square is accepted and ignored, so this
    can stand in for _rk4_transfer: the stages use B itself, not the closed
    form of B^2.
    """
    steps = (b_half.shape[0] - 1) // 2
    h = np.reshape(h, np.shape(h) + (1, 1))  # one step size per batch entry
    m = np.broadcast_to(np.eye(2), h.shape[:-2] + (2, 2)).copy()
    traj = [m]
    for k in range(steps):
        b0, bm, b1 = b_half[2 * k], b_half[2 * k + 1], b_half[2 * k + 2]
        k1 = b0 @ m
        k2 = bm @ (m + (0.5 * h) * k1)
        k3 = bm @ (m + (0.5 * h) * k2)
        k4 = b1 @ (m + h * k3)
        m = m + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        traj.append(m)
    return m if stride is None else np.stack(traj[::stride], axis=-3)


def smooth_coefficients(steps, seed):
    """A pi-periodic 2x2 field of three Fourier modes per entry, at the half steps of [0, pi]."""
    rng = np.random.default_rng(seed)
    t = np.arange(2 * steps + 1)[:, None, None] * (np.pi / (2 * steps))
    b = np.zeros((2 * steps + 1, 2, 2))
    for k in range(3):
        a, c = rng.normal(size=(2, 2, 2))
        b += a * np.cos(2 * k * t) + c * np.sin(2 * k * t)
    return b


def traceless_fields(steps, batch):
    """(name, b_half, h, square) of three traceless fields over `steps` RK4 steps, B^2 = square I.

    Hill's field of a curve (square p), its projective field (square 0) and
    a generic smooth field, the first two cut to their first `steps` steps.
    Every field is one (2 steps + 1, 2, 2) stack, as _rk4_transfer takes it;
    with a batch the batch is the 21 per-lambda step sizes of a scan.
    """
    gamma = cc.random_projective(np.random.default_rng(steps), 128)
    fine = pf.values_with_wrap(cc.curvature(cc.lift(gamma)), 2 * 8 * 128)[: 2 * steps + 1]
    hill = np.zeros((fine.shape[0], 2, 2))
    hill[:, 0, 1] = 1.0
    hill[:, 1, 0] = fine
    projective = rm._angle_b_half(gamma, substeps=8)[: 2 * steps + 1]
    generic = smooth_coefficients(steps, seed=steps)
    generic[:, 1, 1] = -generic[:, 0, 0]
    mid = generic[1::2]
    lam_h = (np.linspace(-1.0, 1.5, 21) if batch else 1.5) * (np.pi / steps)
    return [
        ("hill", hill, lam_h, fine[1::2]),
        ("projective", projective, lam_h, 0.0),
        ("generic", generic, lam_h, mid[:, 0, 0] ** 2 + mid[:, 0, 1] * mid[:, 1, 0]),
    ]


def assert_matches_sequential_rk4(fields, steps, batch):
    for name, b, h, square in fields:
        mid = b[1::2]
        gap = np.max(np.abs(mid @ mid - np.multiply.outer(square, np.eye(2))))
        assert gap <= 4.0 * np.finfo(float).eps * np.max(np.abs(b)) ** 2, name
        m = rm._rk4_transfer(b, h, square=square)
        ref = sequential_rk4(b, h)
        assert m.shape == batch + (2, 2), name
        assert np.max(np.abs(m - ref)) <= 1e-13 * np.max(np.abs(ref)), name
        traj = rm._rk4_transfer(b, h, 1, square=square)
        ref = sequential_rk4(b, h, 1)
        assert traj.shape == batch + (steps + 1, 2, 2), name
        assert np.array_equal(traj[..., 0, :, :], np.broadcast_to(np.eye(2), batch + (2, 2))), name
        assert np.max(np.abs(traj - ref)) <= 1e-13 * np.max(np.abs(ref)), name
        assert np.max(np.abs(traj[..., -1, :, :] - m)) <= 1e-13 * np.max(np.abs(m)), name


@pytest.mark.parametrize("batch", [(), (21,)])
@pytest.mark.parametrize("steps", [1, 3, 2 * rm.TRANSFER_CHUNK, 2 * rm.TRANSFER_CHUNK + 3])
def test_transfer_matches_sequential_rk4(steps, batch):
    fields = [f for f in traceless_fields(steps, batch) if f[0] != "projective"]
    assert_matches_sequential_rk4(fields, steps, batch)


@pytest.mark.parametrize("batch", [(), (21,)])
@pytest.mark.parametrize("steps", [1, 3, 2 * rm.TRANSFER_CHUNK, 2 * rm.TRANSFER_CHUNK + 3])
def test_quadratic_transfer_matches_sequential_rk4(steps, batch):
    # square 0: the step map is the quadratic I + h C1 + h^2 C2
    fields = [f for f in traceless_fields(steps, batch) if f[0] == "projective"]
    assert_matches_sequential_rk4(fields, steps, batch)


@pytest.mark.parametrize("batch", [(), (21,)])
def test_transfer_across_groups_matches_sequential_rk4(monkeypatch, batch):
    # a budget of two blocks: unbatched groups hold two blocks, batched ones one, and a ragged tail follows
    monkeypatch.setattr(rm, "TRANSFER_ELEMENTS", 2 * rm.TRANSFER_CHUNK)
    steps = 3 * rm.TRANSFER_CHUNK + 5
    assert_matches_sequential_rk4(traceless_fields(steps, batch), steps, batch)


def handed_to_product(monkeypatch):
    """Spy on _chunked_product: the list of (step_maps, count, block) it is handed, call by call."""
    handed = []
    product = rm._chunked_product

    def spy(step_maps, steps, batch, stride, block=None):
        handed.append((step_maps, steps, block))
        return product(step_maps, steps, batch, stride, block)

    monkeypatch.setattr(rm, "_chunked_product", spy)
    return handed


@pytest.mark.parametrize("batch", [(), (21,)])
def test_pair_maps_are_products_of_their_two_step_maps(monkeypatch, batch):
    # with no trajectory the projective field's steps are paired: pair j is the quartic in h with the
    # h-free D coefficients, P_{2j+1} P_{2j} up to a few roundings in each D and in each of Horner's
    # multiply-adds, 8 eps of |P_{2j+1}| |P_{2j}| entrywise (measured: at most 2.4 eps)
    steps = 2 * rm.TRANSFER_CHUNK + 2
    _, b, h, square = traceless_fields(steps, batch)[1]
    handed = handed_to_product(monkeypatch)
    rm._rk4_transfer(b, h, square=square)
    rm._rk4_transfer(b, h, 1, square=square)
    (pair_maps, pairs, block), (step_maps, count, _) = handed
    assert (pairs, block, count) == (steps // 2, rm.TRANSFER_CHUNK // 2, steps)
    s = step_maps(0, steps)
    even, odd = [x[..., 0::2] for x in s], [x[..., 1::2] for x in s]
    bound = 8.0 * np.finfo(float).eps * np.stack(rm._mul([abs(x) for x in odd], [abs(x) for x in even]))
    assert np.all(np.abs(np.stack(pair_maps(0, pairs)) - np.stack(rm._mul(odd, even))) <= bound)


@pytest.mark.parametrize("batch", [(), (21,)])
@pytest.mark.parametrize("steps", [1, 3, 2 * rm.TRANSFER_CHUNK + 3])
def test_an_odd_step_count_ends_in_the_last_step_map_bit_for_bit(monkeypatch, steps, batch):
    # the zero step that pads an odd count makes the last pair's D3 and D4 exact zeros and its
    # D1 and D2 the last step's C1 and C2, so Horner multiplies in the step's own order
    _, b, h, square = traceless_fields(steps, batch)[1]
    handed = handed_to_product(monkeypatch)
    rm._rk4_transfer(b, h, square=square)
    rm._rk4_transfer(b, h, 1, square=square)
    (pair_maps, pairs, _), (step_maps, _, _) = handed
    assert pairs == (steps + 1) // 2
    assert np.stack(pair_maps(pairs - 1, pairs)).tobytes() == np.stack(step_maps(steps - 1, steps)).tobytes()


def test_maps_reduce_pairs_and_trajectories_and_hill_maps_reduce_steps(monkeypatch):
    # K = 4 * 128 steps: a scan and a scalar projective map hand the product K/2 pair maps in blocks of
    # TRANSFER_CHUNK // 2; a projective trajectory and Hill's quartic step map hand it K step maps
    gamma = cc.random_projective(np.random.default_rng(2), 128)
    handed = handed_to_product(monkeypatch)
    rm.spectral_scan(gamma, np.linspace(-1.0, 1.5, 21), substeps=4)
    rm.moebius_monodromy(gamma, 4.0, substeps=4)
    rm.moebius_monodromy(gamma, np.array([4.0, 9.0]), substeps=4, keep_trajectory=True)
    rm.hill_fundamental(cc.curvature(cc.lift(gamma)), substeps=4)
    pairs, steps = (256, rm.TRANSFER_CHUNK // 2), (512, rm.TRANSFER_CHUNK)
    assert [(count, block) for _, count, block in handed] == [pairs, pairs, steps, steps]


def per_block_product(step_maps, steps, batch, stride):
    """Reference for _chunked_product: one block per iteration, reduced along the last axis.

    The block-at-a-time loop, with its own tree and prefix products over
    step maps held batch first, steps last; the grouped reduction must
    reproduce it bit for bit.  With a stride s a block holds
    s * (TRANSFER_CHUNK // s) steps, each run of s steps is reduced by the
    tree, and the trajectory row closing each run is the prefix product of
    the run products.
    """

    def tree(p):
        while p[0].shape[-1] > 1:
            pairs = p[0].shape[-1] // 2
            q = rm._mul([x[..., 1 : 2 * pairs : 2] for x in p], [x[..., 0 : 2 * pairs : 2] for x in p])
            if p[0].shape[-1] % 2:
                for x, y in zip(q, rm._mul([x[..., -1:] for x in p], [x[..., -1:] for x in q])):
                    x[..., -1:] = y
            p = q
        return tuple(x[..., 0] for x in p)

    def prefix(p):
        p = tuple(np.array(x) for x in p)
        d = 1
        while d < p[0].shape[-1]:
            for x, y in zip(p, rm._mul([x[..., d:] for x in p], [x[..., :-d] for x in p])):
                x[..., d:] = y
            d *= 2
        return p

    chunk = rm.TRANSFER_CHUNK if stride is None else stride * max(1, rm.TRANSFER_CHUNK // stride)
    running = (np.ones(batch), np.zeros(batch), np.zeros(batch), np.ones(batch))
    traj = np.empty(batch + (steps // (stride or 1) + 1, 2, 2))
    traj[..., 0, :, :] = np.eye(2)
    for lo in range(0, steps, chunk):
        hi = min(lo + chunk, steps)
        p = step_maps(lo, hi)
        if stride is None:
            running = rm._mul(tree(p), running)
            continue
        runs = tree([x.reshape(batch + (-1, stride)) for x in p])
        chunk_traj = rm._mul(prefix(runs), tuple(x[..., None] for x in running))
        for x, y in zip(rm._components(traj[..., lo // stride + 1 : hi // stride + 1, :, :]), chunk_traj):
            x[...] = y
        running = tuple(x[..., -1] for x in chunk_traj)
    return np.stack(running, axis=-1).reshape(batch + (2, 2)) if stride is None else traj


def random_step_maps(steps, batch, seed):
    """step_maps(lo, hi) of random maps near I, fresh components of shape batch + (hi - lo,)."""
    maps = np.eye(2) + 0.05 * np.random.default_rng(seed).normal(size=(steps,) + batch + (2, 2))
    return lambda lo, hi: [np.moveaxis(x, 0, -1)[..., lo:hi].copy() for x in rm._components(maps)]


@pytest.mark.parametrize("stride", [None, 1, 2, 3, 8, 16])
@pytest.mark.parametrize("batch", [(), (21,)])
@pytest.mark.parametrize("budget", ["stated", "two blocks"])
@pytest.mark.parametrize("blocks", [0, 1, 5, 65])
def test_grouped_product_is_the_block_at_a_time_product_bit_for_bit(monkeypatch, blocks, budget, batch, stride):
    # whole blocks plus a ragged tail of 3 runs (of 1 step without a trajectory);
    # 65 blocks cross an unbatched group at the stated budget; stride 3 takes blocks of 255 steps
    if budget == "two blocks":
        monkeypatch.setattr(rm, "TRANSFER_ELEMENTS", 2 * rm.TRANSFER_CHUNK)
    run = stride or 1
    steps = blocks * run * (rm.TRANSFER_CHUNK // run) + 3 * run
    step_maps = random_step_maps(steps, batch, blocks)
    got = rm._chunked_product(step_maps, steps, batch, stride)
    assert np.array_equal(got, per_block_product(step_maps, steps, batch, stride))


@pytest.mark.parametrize("batch", [(), (21,)])
@pytest.mark.parametrize("stride", [2, 4, 8, 16, rm.TRANSFER_CHUNK])
def test_strided_rows_are_every_stride_th_row_of_the_full_trajectory_bit_for_bit(stride, batch):
    # for s = 2^j dividing TRANSFER_CHUNK, Hillis-Steele's first j passes at the rows
    # closing each run are the run's tree and its later passes a prefix over the runs;
    # 9 blocks and a ragged tail of 5 runs cross an unbatched group
    steps = 9 * rm.TRANSFER_CHUNK + 5 * stride
    step_maps = random_step_maps(steps, batch, stride)
    full = rm._chunked_product(step_maps, steps, batch, 1)
    strided = rm._chunked_product(step_maps, steps, batch, stride)
    assert strided.shape == batch + (steps // stride + 1, 2, 2) and strided.flags.c_contiguous
    assert strided.tobytes() == np.ascontiguousarray(full[..., ::stride, :, :]).tobytes()


def test_callers_keep_their_transfer_shapes():
    gamma = cc.random_projective(np.random.default_rng(3), 64)
    mono, traj = rm.hill_fundamental(cc.curvature(cc.lift(gamma)), substeps=4, keep_trajectory=True)
    assert traj.shape == (4 * 64 + 1, 2, 2) and np.array_equal(mono.m, traj[-1])
    mono, traj = rm.moebius_monodromy(gamma, 1.5, substeps=4, keep_trajectory=True)
    assert traj.shape == (64 + 1, 2, 2) and np.array_equal(mono.m, traj[-1])
    assert rm.spectral_scan(gamma, np.linspace(-1.0, 1.5, 21), substeps=4).tr2.shape == (21,)


def test_trajectories_are_c_contiguous_in_their_public_layout():
    # batch first, steps last: every batch entry is a C-contiguous stack, off which the shots read their solutions
    gamma = cc.random_projective(np.random.default_rng(1), 128, strength=0.35)
    _, traj = rm.hill_fundamental(cc.curvature(cc.lift(gamma)), substeps=2, keep_trajectory=True)
    assert traj.shape == (2 * 128 + 1, 2, 2) and traj.flags.c_contiguous
    _, traj = rm.moebius_monodromy(gamma, 4.0, keep_trajectory=True)
    assert traj.shape == (128 + 1, 2, 2) and traj.flags.c_contiguous
    steps = 2 * rm.TRANSFER_CHUNK + 3
    for name, b, h, square in traceless_fields(steps, (21,)):
        traj = rm._rk4_transfer(b, h, 1, square=square)
        assert traj.shape == (21, steps + 1, 2, 2) and traj.flags.c_contiguous, name


def test_angle_field_is_the_four_quotient_field_bit_for_bit():
    # three divisions and b11 = -b00 give the quotients of all four products
    gamma = cc.random_projective(np.random.default_rng(1), 128, strength=0.9)
    m = 2 * 4 * 128
    psi, dpsi = pf.values_and_slopes_with_wrap(gamma.psi.samples, m)
    phi = np.arange(m + 1) * (np.pi / m) + psi
    s, c = np.sin(phi), np.cos(phi)
    ref = np.stack([-s * c, s * s, -c * c, s * c], axis=-1).reshape(-1, 2, 2) / (1.0 + dpsi)[:, None, None]
    assert rm._angle_b_half(gamma, 4).tobytes() == ref.tobytes()


def test_hill_free_particle_exact():
    M = rm.hill_fundamental(pf.constant(0.0, 64))
    assert np.allclose(M.m, [[1.0, np.pi], [0.0, 1.0]], atol=1e-12)


def test_hill_constant_potentials():
    M = rm.hill_fundamental(pf.constant(-1.0, 64), substeps=16)
    assert np.allclose(M.m, -np.eye(2), atol=1e-9)

    M = rm.hill_fundamental(pf.constant(1.0, 64), substeps=16)
    target = [[np.cosh(np.pi), np.sinh(np.pi)], [np.sinh(np.pi), np.cosh(np.pi)]]
    assert np.allclose(M.m, target, rtol=1e-9, atol=1e-9)
    assert abs(np.linalg.det(M.m) - 1.0) < 1e-10


def test_hill_order_four_convergence():
    rng = np.random.default_rng(21)
    p = cc.curvature(cc.lift(cc.random_projective(rng, 64)))
    ref = rm.hill_fundamental(p, substeps=64).m
    e4 = np.max(np.abs(rm.hill_fundamental(p, substeps=4).m - ref))
    e8 = np.max(np.abs(rm.hill_fundamental(p, substeps=8).m - ref))
    assert 8.0 < e4 / e8 < 32.0


def riccati_residual(branch, potential):
    w = branch.solution
    c = branch.c_aff
    resid = pf.differentiate(w) - (w * w - 1.0) / c + c * potential
    return np.max(np.abs(resid.samples))


def test_riccati_circle_constants():
    p = pf.constant(-1.0, 128)
    plus, minus = rm.riccati_periodic_solutions(p, 0.5)
    root3 = np.sqrt(3.0)
    assert np.allclose(plus.solution.samples, -root3 / 2.0, atol=1e-9)
    assert np.allclose(minus.solution.samples, root3 / 2.0, atol=1e-9)
    assert abs(plus.multiplier - np.exp(root3 * np.pi)) < 1e-6 * np.exp(root3 * np.pi)
    assert abs(minus.multiplier - np.exp(-root3 * np.pi)) < 1e-9
    assert riccati_residual(plus, p) < 1e-9
    assert riccati_residual(minus, p) < 1e-9


def test_riccati_elliptic_rejected():
    p = pf.constant(-1.0, 64)
    with pytest.raises(NoRealFixedPoints):
        rm.riccati_periodic_solutions(p, 2.0)
    # p + 1/c^2 = 0 gives a parabolic shear: also no usable fixed points
    with pytest.raises(NoRealFixedPoints):
        rm.riccati_periodic_solutions(p, 1.0)


def test_riccati_identity_monodromy_degenerate():
    # p + 1/c^2 = -1 makes the period map -Id: every direction is fixed
    p = pf.constant(-2.0, 64)
    with pytest.raises(BranchSingular):
        rm.riccati_periodic_solutions(p, 1.0)


@pytest.mark.parametrize("branch", ["plus", "minus"])
def test_riccati_branch_pole_raises(branch):
    # p + 1/c^2 = -1 + 0.4 cos 2t: the shifted Hill map is hyperbolic with
    # trace < -2, so each Floquet solution u changes sign and w has a pole
    p = pf.from_callable(lambda t: -5.0 + 0.4 * np.cos(2 * t), 128)
    assert rm.hill_fundamental(p + 4.0).trace < -2.0
    with pytest.raises(BranchSingular, match="pole"):
        rm.riccati_branch(p, 0.5, branch)


def test_riccati_zero_param():
    with pytest.raises(ZeroParam):
        rm.riccati_periodic_solutions(pf.constant(-1.0, 64), 0.0)


@pytest.mark.parametrize("n", [128, 512])
def test_riccati_branch_equals_its_member_of_the_pair(n):
    p = cc.curvature(cc.lift(cc.random_projective(np.random.default_rng(1), n)))
    pair = rm.riccati_periodic_solutions(p, 0.5)
    for label, member in zip(("plus", "minus"), pair):
        one = rm.riccati_branch(p, 0.5, label)
        assert np.array_equal(one.solution.samples, member.solution.samples)
        assert (one.branch, one.multiplier, one.c_aff) == (member.branch, member.multiplier, member.c_aff)


def test_polish_floor_keeps_a_needed_second_step(monkeypatch):
    # a shot of one RK4 substep leaves a defect that one Newton step does
    # not bring to the floor: the polish must still take a second step
    p = cc.curvature(cc.lift(cc.random_projective(np.random.default_rng(1), 128, strength=0.9)))
    solves = []
    solve = rm._floquet_solve
    monkeypatch.setattr(rm, "_floquet_solve", lambda *a: solves.append(1) or solve(*a))
    monkeypatch.setattr(rm, "_shot_substeps", lambda n: 1)
    for label in ("plus", "minus"):
        del solves[:]
        branch = rm.riccati_branch(p, 0.5, label)
        assert len(solves) >= 2
        assert riccati_residual(branch, p) <= 1e-13


def collocation_residual(branch, g, rhs):
    return np.max(np.abs((pf.differentiate(g) - (2.0 / branch.c_aff) * branch.solution * g - rhs).samples))


@pytest.mark.parametrize("n", [128, 512])
def test_floquet_solve_matches_the_dense_solve(n):
    p = cc.curvature(cc.lift(cc.random_projective(np.random.default_rng(1), n)))
    rhs = pf.random_band_limited(np.random.default_rng(3), n)
    for label in ("plus", "minus"):
        branch = rm.riccati_branch(p, 0.5, label)
        g = branch.solve_linear(rhs)
        dense = pf.solve_linear_periodic((2.0 / branch.c_aff) * branch.solution, rhs)
        assert np.max(np.abs(g.samples - dense.samples)) <= 1e-12 * np.max(np.abs(dense.samples))
        # solve_linear's own stopping rule: the residual's roundoff floor
        kappa_g = (2.0 / branch.c_aff) * branch.solution.samples * g.samples
        scale = max(np.max(np.abs(rhs.samples)), np.max(np.abs(kappa_g)))
        assert collocation_residual(branch, g, rhs) <= rm._roundoff_floor(n, scale)


def test_floquet_solve_reaches_the_nyquist_mode():
    # the collocation derivative zeroes (-1)^k, so the continuous solve alone cannot reach it
    p = cc.curvature(cc.lift(cc.random_projective(np.random.default_rng(1), 128)))
    rhs = pf.PeriodicFn(np.resize([1.0, -1.0], 128))
    for label in ("plus", "minus"):
        branch = rm.riccati_branch(p, 0.5, label)
        assert collocation_residual(branch, branch.solve_linear(rhs), rhs) <= 1e-13


def test_minus_branch_is_shot_backward():
    # on the reflected potential p(pi - t) the minus branch dominates, with multiplier 1/mu_minus
    p = cc.curvature(cc.lift(cc.random_projective(np.random.default_rng(1), 128, strength=0.9)))
    plus, minus = rm.riccati_periodic_solutions(p, 0.5)
    reflected = pf.PeriodicFn(np.roll(p.samples[::-1], 1))
    r_plus, r_minus = rm.riccati_periodic_solutions(reflected, 0.5)
    assert np.max(np.abs(minus.solution.samples + np.roll(r_plus.solution.samples[::-1], 1))) <= 1e-13
    assert np.max(np.abs(plus.solution.samples + np.roll(r_minus.solution.samples[::-1], 1))) <= 1e-13
    assert abs(minus.multiplier * r_plus.multiplier - 1.0) <= 1e-13


def test_riccati_random_curve_residuals():
    rng = np.random.default_rng(22)
    p = cc.curvature(cc.lift(cc.random_projective(rng, 128)))
    mono = rm.hill_fundamental(p + 4.0)
    assert abs(mono.trace) > 2.0
    plus, minus = rm.riccati_periodic_solutions(p, 0.5)
    assert riccati_residual(plus, p) < 1e-8
    assert riccati_residual(minus, p) < 1e-8
    assert abs(plus.multiplier * minus.multiplier - 1.0) < 1e-8


@pytest.mark.parametrize("n", [128, 512])
def test_strongly_hyperbolic_branches_stay_accurate(n, monkeypatch):
    gamma = cc.random_projective(np.random.default_rng(1), n, strength=0.9)
    p = cc.curvature(cc.lift(gamma))
    for branch in rm.riccati_periodic_solutions(p, 0.5):
        assert riccati_residual(branch, p) <= 1e-12

    gamma = cc.random_projective(np.random.default_rng(2), n, strength=0.9)
    (mu_plus, _), _ = rm.moebius_monodromy(gamma, 4.0).eigen_system()
    assert mu_plus < -2e2
    image = bk.apply_tc_projective(gamma, 4.0, "minus")
    try:  # mu near -5.4e6: the subdominant branch is at the edge of resolution
        far = bk.apply_tc_projective(gamma, 25.0, "minus")
    except BranchSingular:
        far = None
    monkeypatch.setattr(rm, "_rk4_transfer", sequential_rk4)
    ref = bk.apply_tc_projective(gamma, 4.0, "minus")
    assert np.max(np.abs(image.psi.samples - ref.psi.samples)) <= 1e-9
    if far is not None:
        ref = bk.apply_tc_projective(gamma, 25.0, "minus")
        assert np.max(np.abs(far.psi.samples - ref.psi.samples)) <= 1e-9


@pytest.mark.parametrize("substeps", [3, 16])
def test_projective_images_off_power_of_two_and_fine_substeps_match_step_by_step_rk4(substeps, monkeypatch):
    # substeps 3 take blocks of 255 steps, 16 keep every 16th step point; measured <= 1.8e-15
    curves = [cc.random_projective(np.random.default_rng(seed), 128, strength=0.9) for seed in (1, 2, 3)]
    images = [bk.apply_tc_projective(g, 4.0, label, substeps) for g in curves for label in ("plus", "minus")]
    monkeypatch.setattr(rm, "_rk4_transfer", sequential_rk4)
    refs = [bk.apply_tc_projective(g, 4.0, label, substeps) for g in curves for label in ("plus", "minus")]
    for image, ref in zip(images, refs):
        assert np.max(np.abs(image.psi.samples - ref.psi.samples)) <= 1e-14


def test_moebius_zero_lambda_identity():
    rng = np.random.default_rng(23)
    gamma = cc.random_projective(rng, 64)
    M = rm.moebius_monodromy(gamma, 0.0)
    assert np.array_equal(M.m, np.eye(2))


def test_moebius_unimodular():
    rng = np.random.default_rng(24)
    gamma = cc.random_projective(rng, 128)
    for lam in (-1.0, 0.3, 1.7, 4.0):
        assert abs(np.linalg.det(rm.moebius_monodromy(gamma, lam).m) - 1.0) < 1e-8


def test_circle_scan_closed_form():
    gamma = cc.make_circle(128)
    lams = np.linspace(0.0, 2.0, 21)
    scan = rm.spectral_scan(gamma, lams, substeps=16)
    assert np.max(np.abs(scan.tr2 - circle_tr2(lams))) < 1e-8

    # the special interior value where the trace vanishes
    M = rm.moebius_monodromy(gamma, 0.75, substeps=16)
    assert M.tr2 < 1e-12

    M4 = rm.moebius_monodromy(gamma, 4.0, substeps=16)
    assert abs(M4.tr2 - 4.0 * np.cosh(np.pi * np.sqrt(3.0)) ** 2) < 1e-6 * M4.tr2

    # strongly hyperbolic: a computed determinant would cancel to roundoff here
    lams = np.array([40.0, 120.0])
    scan = rm.spectral_scan(cc.make_circle(256), lams, substeps=16)
    assert np.max(np.abs(scan.tr2 / circle_tr2(lams) - 1.0)) <= 1e-8
    tr2 = rm.moebius_monodromy(gamma, 100.0).tr2
    assert np.isfinite(tr2) and tr2 > 0.0


def test_circle_fixed_angles_at_four():
    M = rm.moebius_monodromy(cc.make_circle(128), 4.0, substeps=16)
    plus, minus = M.fixed_angles()
    assert abs(plus + np.pi / 6.0) < 1e-9
    assert abs(minus - np.pi / 6.0) < 1e-9


def test_scan_reparametrization_invariance():
    rng = np.random.default_rng(25)
    gamma = cc.random_projective(rng, 128)
    s = 0.37
    shifted = cc.ProjectiveCurve(pf.shift(gamma.psi, s) + s)
    lams = np.linspace(0.0, 2.0, 9)
    a = rm.spectral_scan(gamma, lams)
    b = rm.spectral_scan(shifted, lams)
    assert np.max(np.abs(a.tr2 - b.tr2)) < 1e-8


def test_scan_single_point_matches_monodromy():
    # batched arithmetic is unbatched arithmetic: each scan entry is its single-lambda tr2 bit for bit.
    # Negative values and 0, and the benchmark's grid, where t**2 and t * t part at lambda = 1.125 on the last curve
    lams = np.concatenate([np.linspace(-2.0, 2.0, 21), np.linspace(-1.0, 1.5, 21)])
    for seed, n, strength, substeps in ((26, 64, 0.9, rm.DEFAULT_SUBSTEPS), (26, 512, 0.35, 16), (1, 64, 0.6, 4)):
        gamma = cc.random_projective(np.random.default_rng(seed), n, strength=strength)
        scan = rm.spectral_scan(gamma, lams, substeps=substeps)
        single = np.array([rm.moebius_monodromy(gamma, lam, substeps=substeps).tr2 for lam in lams])
        assert np.array_equal(scan.tr2, single)
        # the scan is the stacked maps' tr2, t * t as MonodromyMatrix.tr2 takes it
        maps = rm.moebius_monodromy(gamma, lams, substeps=substeps)
        assert maps.shape == lams.shape + (2, 2)
        trace = maps[:, 0, 0] + maps[:, 1, 1]
        assert np.array_equal(trace * trace, scan.tr2)


@pytest.mark.parametrize("grid", [[], [0.5, np.inf], [np.nan, 1.0], np.zeros((2, 3)), np.nan, np.inf])
def test_scan_rejects_an_empty_or_non_finite_grid(grid, monkeypatch):
    # moebius_monodromy is the one check: a bad lambda is caller input (ValueError), refused before any field is built
    built = []
    monkeypatch.setattr(rm, "_angle_b_half", lambda *a, **kw: built.append("field"))
    monkeypatch.setattr(rm, "_rk4_transfer", lambda *a, **kw: built.append("transfer"))
    message = "lambda must be a finite number or a non-empty 1-d array of them"
    for run in (rm.spectral_scan, rm.moebius_monodromy):
        with pytest.raises(ValueError, match=message):
            run(cc.make_circle(64), grid)
    assert built == []


def test_scan_refuses_a_map_beyond_double_range_naming_the_first_lambda():
    step = 1e6 * (np.pi / (rm.DEFAULT_SUBSTEPS * 64))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # the refusal comes before numpy warns
        with pytest.raises(StepUnstable, match=rf"lambda = 1000000\.0 \(RK4 step lambda h = {re.escape(repr(step))}\)"):
            rm.spectral_scan(cc.make_circle(64), [1.0, 1e6, 2e6])


@pytest.mark.parametrize("branch", ["plus", "minus"])
def test_plane_shot_refuses_a_period_map_beyond_double_range_naming_c(branch):
    # mu = e^{pi/c} near 1e193 at c = 0.007: the eigenvector's squared rows would overflow
    p = cc.curvature(cc.lift(cc.random_projective(np.random.default_rng(1), 128)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(StepUnstable, match=r"^plane shot at c = 0\.007: Hill period map .* beyond double range"):
            rm.riccati_branch(p, 0.007, branch)
        with pytest.raises(StepUnstable, match=r"^Hill period map \(RK4 step h = "):
            rm.hill_fundamental(p + 1.0 / 0.007**2)


@pytest.mark.parametrize("substeps", [0, -1])
def test_period_maps_reject_a_substep_count_below_one(substeps):
    gamma = cc.make_circle(64)
    for run in (
        lambda: rm.spectral_scan(gamma, [0.5], substeps=substeps),
        lambda: rm.moebius_monodromy(gamma, 0.5, substeps=substeps),
        lambda: rm.hill_fundamental(gamma.curvature(), substeps=substeps),
    ):
        with pytest.raises(ValueError, match="substeps must be at least 1"):
            run()


def test_hill_fundamental_rejects_an_antiperiodic_potential(monkeypatch):
    # a coordinate of a lifted curve is antiperiodic: it has no period map over [0, pi]
    potential = cc.lift(cc.make_circle(64)).gamma1
    assert potential.parity == "antiperiodic"
    monkeypatch.setattr(rm, "_rk4_transfer", lambda *a, **kw: pytest.fail("integrated an antiperiodic potential"))
    with pytest.raises(ValueError, match="potential must be periodic"):
        rm.hill_fundamental(potential)


def test_scan_csv_round_trip(tmp_path):
    scan = rm.SpectralScan(np.array([0.0, 0.5]), np.array([4.0, 1.2345678901234567]))
    path = tmp_path / "scan.csv"
    rm.scan_to_csv(scan, path)
    back = rm.scan_from_csv(path)
    assert np.array_equal(back.lambdas, scan.lambdas)
    assert np.array_equal(back.tr2, scan.tr2)


def test_conjugator_identity_at_mu_one():
    rng = np.random.default_rng(27)
    gamma = cc.random_projective(rng, 64)
    delta = cc.random_projective(rng, 64)
    A = rm.conjugator(gamma, delta, 1.0, 0.3)
    assert np.allclose(A, np.eye(2), atol=1e-12)


def test_conjugator_eigen_structure():
    rng = np.random.default_rng(28)
    gamma = cc.random_projective(rng, 64)
    delta = cc.random_projective(rng, 64, strength=0.4)
    mu, t0 = -0.7, 1.1
    A = rm.conjugator(gamma, delta, mu, t0)
    assert abs(np.linalg.det(A) - mu) < 1e-12
    assert abs(np.trace(A) - (1.0 + mu)) < 1e-12
    chi_g, chi_d = gamma.phi(t0), delta.phi(t0)
    assert abs(cc.wrap_half_pi(rm.moebius_apply_angle(A, chi_g) - chi_g)) < 1e-12
    assert abs(cc.wrap_half_pi(rm.moebius_apply_angle(A, chi_d) - chi_d)) < 1e-12


def test_conjugator_matches_affine_formula():
    # when both points are finite and separated, the fixing matrix of the
    # homogeneous angle vectors equals the plain affine-chart formula
    rng = np.random.default_rng(29)
    gamma = cc.random_projective(rng, 64)
    delta = cc.random_projective(rng, 64, strength=0.3)
    mu, t0 = 0.4, 0.2
    x = float(gamma.gamma(t0))
    y = float(delta.gamma(t0))
    direct = (1.0 / (x - y)) * np.array(
        [[x - mu * y, x * y * (mu - 1.0)], [1.0 - mu, x * mu - y]]
    )
    A = rm.conjugator(gamma, delta, mu, t0)
    assert np.allclose(A, direct, atol=1e-10)


def test_conjugator_degenerate():
    rng = np.random.default_rng(30)
    gamma = cc.random_projective(rng, 64)
    with pytest.raises(Degenerate):
        rm.conjugator(gamma, gamma, 0.5, 0.9)


def test_shot_takes_the_fewest_substeps_that_give_256_steps_per_period(monkeypatch):
    assert [rm._shot_substeps(n) for n in (16, 32, 64, 96, 100, 128, 256, 512, 2048)] == [8, 8, 4, 3, 3, 2, 2, 2, 2]
    # the shot's Hill map takes the rule's substeps, whatever the label
    seen = []
    hill = rm.hill_fundamental
    monkeypatch.setattr(rm, "hill_fundamental", lambda p, **kw: seen.append((p.n, kw)) or hill(p, **kw))
    for n in (64, 128, 512):
        for label in ("plus", "minus"):
            del seen[:]
            rm.riccati_branch(pf.constant(-1.0, n), 0.5, label)
            assert seen == [(n, {"substeps": rm._shot_substeps(n), "keep_trajectory": True})]


def shot_frame_defect(branch, potential):
    """The Riccati defect of the problem the polish solved, and its roundoff floor.

    The minus branch is polished as the plus branch of the reflected
    potential; reflection and negation are exact, so this is that polish's
    own defect.
    """
    w, p = branch.solution.samples, potential.samples
    if branch.branch == "minus":
        w, p = -rm._reflect(w), rm._reflect(p)
    c = branch.c_aff
    defect = np.max(np.abs(pf.differentiate_samples(w, "periodic") - (w * w - 1.0) / c + c * p))
    return defect, rm._roundoff_floor(w.shape[0], max(1.0, np.max(np.abs(w))))


@pytest.mark.parametrize("n", [64, 96, 100, 128, 256, 512, 2048])
def test_polish_reaches_its_floor_from_the_default_shot(n):
    # the rule's shot is coarse (two substeps from n = 128): the polish must still reach its floor
    for seed in (1, 2, 3):
        for strength in (0.35, 0.6, 0.9):
            try:
                p = cc.curvature(cc.lift(cc.random_projective(np.random.default_rng(seed), n, strength=strength)))
            except OffUnity:  # three n = 64 curves are too rough for their grid
                assert n == 64
                continue
            for c in (0.05, 0.2, 0.5, 1.0, 2.0):
                for label in ("plus", "minus"):
                    try:
                        branch = rm.riccati_branch(p, c, label)
                    except NoRealFixedPoints:
                        continue
                    defect, floor = shot_frame_defect(branch, p)
                    assert defect <= floor, (seed, strength, c, label, defect / floor)


@pytest.mark.parametrize("n", [64, 128, 512])
def test_multiplier_of_the_polished_branch_on_the_circle(n):
    # p = -1, c = 0.5: u'' = 3u, so the multipliers are exp(+-sqrt(3) pi); measured <= 2.7e-15
    p = pf.constant(-1.0, n)
    for label, sign in (("plus", 1.0), ("minus", -1.0)):
        mu = rm.riccati_branch(p, 0.5, label).multiplier
        assert abs(mu / np.exp(sign * np.sqrt(3.0) * np.pi) - 1.0) <= 1e-14


@pytest.mark.parametrize("n", [256, 512, 2048])
def test_floquet_solve_reaches_the_nyquist_mode_on_fine_grids(n):
    # the default shot's factor needs two step points per grid interval: at one,
    # each pass shrinks near-Nyquist residual only ~36-fold and 8 passes stop above the floor
    p = cc.curvature(cc.lift(cc.random_projective(np.random.default_rng(2), n)))
    rhs = pf.PeriodicFn(pf.nyquist_mode(n).copy())
    for label in ("plus", "minus"):
        branch = rm.riccati_branch(p, 0.5, label)
        g = branch.solve_linear(rhs)
        kappa_g = (2.0 / branch.c_aff) * branch.solution.samples * g.samples
        scale = max(1.0, np.max(np.abs(kappa_g)))
        assert collocation_residual(branch, g, rhs) <= rm._roundoff_floor(n, scale)
