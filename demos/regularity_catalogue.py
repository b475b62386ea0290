"""
Which laws double their odds, and at what stretch factor
=========================================================

A law F is "regular at K" when stretching the threshold by K at least
doubles the odds F(t)/(1-F(t)), for every t > 0.  This script certifies
a small catalogue of laws on the default grid, shows a failure with its
witness point, and bisects for the smallest passing K of each family.
"""

import numpy as np

from inidstat import (
    Exponential,
    HalfGaussian,
    ParetoPower,
    Uniform01,
    check_condition,
    check_measure_form,
    find_min_K,
)

# ---------------------------------------------------------------------------
# The catalogue.  Power laws with cdf 1 - t^-p on [1, inf) have odds
# t^p - 1, which K = 2^(1/p) turns into 2 t^p - 1, just over double;
# uniform needs K = 2; the two light-tailed laws certify comfortably at K = 3.
catalogue = [
    (Uniform01(), 2.0),
    (ParetoPower(p=0.5), 4.0),
    (ParetoPower(p=1.0), 2.0),
    (ParetoPower(p=2.0), 2.0**0.5),
    (ParetoPower(p=4.0), 2.0**0.25),
    (Exponential(rate=1.0), 3.0),
    (HalfGaussian(sigma=1.0), 3.0),
]

print("catalogue certification on the default grid")
for d, K in catalogue:
    cert = check_condition(d, K)
    print(f"  {d!r:38s} K={K:<8.5g} {cert.verdict:4s} worst margin {cert.margin:+.3e}")

# ---------------------------------------------------------------------------
# A failing pair carries a witness: the worst grid point with both sides
# of the inequality, so the failure can be inspected by hand.
cert = check_condition(Uniform01(), 1.5)
t, lhs, rhs = cert.witness
print(f"\nuniform at K=1.5 {cert.verdict}s: at t={t:.6g}, lhs={lhs:.6g} < rhs={rhs:.6g}")

# The mass form compares F(Kt)-F(t) against F(t)(1-F(Kt)); algebraically the
# same margin, so the verdicts agree point by point.
cert2 = check_measure_form(Uniform01(), 1.5)
print(f"mass form agrees: {cert2.verdict} with witness t={cert2.witness[0]:.6g}")

# ---------------------------------------------------------------------------
# Bisect for the smallest passing K.  The margin is nondecreasing in K at
# every fixed t, so a pass/fail bisection is sound on the probed grid.
print("\nsmallest passing K by bisection")
for d, expected in [
    (Uniform01(), 2.0),
    (ParetoPower(p=2.0), np.sqrt(2.0)),
    (Exponential(rate=1.0), 2.0),
]:
    res = find_min_K(d)
    print(f"  {d!r:30s} K = {res.K:.5f}   (exact boundary {expected:.5f})")

# Scale never matters: the condition compares F at multiplicatively related
# thresholds, so c*X passes at K exactly when X does.
for c in (0.01, 100.0):
    assert check_condition(Uniform01(scale=c), 2.0).passed
print("\nscale invariance: uniform scaled by 0.01 and 100 both certify at K=2")
