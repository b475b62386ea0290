"""
Monte Carlo cross-check of the exact engine
===========================================

The exact median of the k-th smallest comes from a counting identity and
a deterministic bracketed search.  As an independent route, simulate the model by
inverse-transform sampling and wrap the sample median in a distribution-
free order-statistic confidence interval.  The exact value should land
inside the interval at the stated level -- and every run is reproducible
bit for bit from its seed.
"""

from inidstat import (
    Exponential,
    HalfGaussian,
    OrderStatModel,
    ParetoPower,
    Uniform01,
    kmin_median,
    simulate_median,
)

model = OrderStatModel(
    components=(
        Uniform01(scale=2.0),
        Exponential(rate=1.0),
        Exponential(rate=1.0, scale=10.0),
        ParetoPower(p=2.0),
        HalfGaussian(sigma=1.5),
        Uniform01(scale=0.2),
    ),
    k=2,
)

exact = kmin_median(model)
print(f"exact median of the {model.k}-nd smallest of {model.n}: {exact:.8f}")

# ---------------------------------------------------------------------------
# 100k replicates; the CI is the pair of order statistics whose ranks give
# >= 99% coverage of the true median, no normality assumptions anywhere.
res = simulate_median(model, replicates=100_000, seed=20260813, ci_level=0.99)
print(f"\nsimulated estimate: {res.estimate:.8f}")
print(f"99% CI: [{res.ci_low:.8f}, {res.ci_high:.8f}]   ({res.elapsed:.2f}s)")
print(f"CI covers exact: {res.ci_low <= exact <= res.ci_high}")

# ---------------------------------------------------------------------------
# Reproducibility: one counter-based Philox stream is keyed by the seed, and
# replicate j reads its draws [j*n, (j+1)*n), so reruns agree exactly.
again = simulate_median(model, replicates=100_000, seed=20260813, ci_level=0.99)
print(f"\nrerun estimate identical: {again.estimate == res.estimate}")
print(f"generator: {res.generator}")

# A different seed moves the estimate but stays inside sampling noise.
other = simulate_median(model, replicates=100_000, seed=1, ci_level=0.99)
print(f"seed 1 estimate: {other.estimate:.8f} (drift {abs(other.estimate - exact):.2e})")

# ---------------------------------------------------------------------------
# Coverage sanity at a smaller replicate count: repeat with many seeds and
# count how often the 95% interval traps the exact median.
hits = 0
trials = 60
for s in range(trials):
    r = simulate_median(model, replicates=2000, seed=s, ci_level=0.95)
    hits += r.ci_low <= exact <= r.ci_high
print(f"\n95% CI coverage over {trials} seeds at R=2000: {hits}/{trials}")
