"""
Two transformations close a square
==================================

Transforming with constant c1 and then c2 lands on the same fourth curve
as transforming with c2 and then c1, provided the second leg takes the
branch of the first leg with the same constant.  That fourth curve is a
fixed conjugating matrix applied to a single transform at every point, so
the package builds it in closed form, shoots one second leg as the check
and reports how well the shot leg meets the closed-form corner.
"""

import numpy as np

import centrokdv.backlund as bk
import centrokdv.curve_core as cc
import centrokdv.periodic_fn as pf

n = 128
t = pf.grid(n)

# On the circle every leg is a rotation, so the square closes exactly:
# the double transform advances the angle by the sum of the two rotations.
sq = bk.permutability_square(cc.make_circle(n), 4.0, 2.0)
print("circle corners (constant angles):")
print("  after c1:", float(sq.gamma1.psi.samples.mean()), "=~ pi/6")
print("  after c2:", float(sq.gamma2.psi.samples.mean()), "=~ pi/4")
print("  after both:", float(sq.gamma12.psi.samples.mean()), "=~ 5 pi/12 =", 5 * np.pi / 12)
print("  the shot leg meets the closed-form corner to", sq.both_orders_distance)

# On a generic curve the same machinery works; the weights mu and nu of
# the conjugating matrices satisfy 1/mu + 1/nu = 1.
gamma = cc.ProjectiveCurve(pf.PeriodicFn(0.1 * np.sin(2 * t), "periodic"))
sq = bk.permutability_square(gamma, 5.0, 3.0)
print("generic curve: mu =", sq.mu, "nu =", sq.nu, "1/mu + 1/nu =", 1 / sq.mu + 1 / sq.nu)
print("shot leg to closed-form corner:", sq.both_orders_distance)
print("prediction residual:", sq.prediction_residual)

# The period maps of a curve and its transform are conjugate inside the
# projective group once the spectral parameter is rescaled accordingly.
delta = bk.apply_tc_projective(gamma, 4.0, "minus")
for lam in (-1.0, 2.0, 6.0):
    resid = bk.moebius_conjugacy_residual(gamma, delta, 4.0, lam)
    print(f"conjugacy residual at lambda {lam: .1f}:", resid)
