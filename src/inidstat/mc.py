"""Monte Carlo cross-validation of the exact order-statistic engine.

Sampling goes through ``dist.quantile`` (inverse transform), so the sampler
and the exact engine share one definition of every law.  Median estimates
carry a distribution-free order-statistic confidence interval.

All uniforms come from one Philox4x64 stream keyed by the seed (mod 2**64)
and read in order: replicate j owns the stream's draws [j*n, (j+1)*n), one
per component.  Replicates are processed in bounded chunks, so memory stays
O(R + chunk) floats for R replicates, and the results are reproducible bit
for bit and do not depend on the chunk size.
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass, field

import numpy as np

from ._record import Record
from .dist import Distribution
from .ostat import OrderStatModel

__all__ = [
    "SimResult",
    "sample",
    "median_ci_ranks",
    "simulate_median",
]

_MASK64 = (1 << 64) - 1
_GENERATOR_TAG = "philox4x64(key = seed mod 2**64); replicate j reads draws [j*n, (j+1)*n)"
_MIN_REPLICATES = 100
# Uniforms drawn per chunk.  Every chunk costs one ``sample`` call per
# component, so a chunk must stay large enough to amortise that call; the
# row floor keeps that true for very wide models.
_CHUNK_VARIATES = 1 << 20
_MIN_CHUNK_ROWS = 64


@dataclass(frozen=True)
class SimResult(Record):
    replicates: int
    estimate: float
    ci_low: float
    ci_high: float
    ci_level: float
    seed: int
    generator: str
    elapsed: float = field(compare=False)


def sample(d: Distribution, u):
    """Inverse-transform sample: quantile(d, u) for u in the open unit interval."""
    arr = np.asarray(u, dtype=float)
    # min and max propagate NaN, which fails both comparisons.
    if arr.size and not (arr.min() > 0.0 and arr.max() < 1.0):
        raise ValueError("u must lie strictly inside (0, 1)")
    return d.quantile(u)


def median_ci_ranks(replicates: int, ci_level: float) -> tuple[int, int]:
    """1-based order-statistic ranks (a, b) with P{X_(a) <= med <= X_(b)} >= ci_level.

    a is the largest rank whose binomial(R, 1/2) cdf at a-1 stays within
    (1 - ci_level)/2, and b = R - a + 1 by symmetry.
    """
    from scipy.special import bdtr

    R = operator.index(replicates)
    half_alpha = (1.0 - float(ci_level)) / 2.0
    # Bisect for the largest c with cdf(c) <= alpha/2, keeping
    # cdf(lo) <= alpha/2 < cdf(hi); cdf(-1) = 0 and cdf(R) = 1.
    lo, hi = -1, R
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if bdtr(mid, R, 0.5) <= half_alpha:
            lo = mid
        else:
            hi = mid
    a = max(lo + 1, 1)
    return a, R - a + 1


def simulate_median(
    model: OrderStatModel,
    replicates: int,
    seed: int = 0,
    ci_level: float = 0.99,
) -> SimResult:
    """Sample median of the k-th smallest over R independent replicates.

    Replicate j reads draws [j*n, (j+1)*n) of one Philox4x64 stream keyed by
    ``seed`` mod 2**64.  Memory: two chunk buffers of at most
    max(2**20, 64*n) floats each, plus the R selected values.
    """
    R = operator.index(replicates)
    if R < _MIN_REPLICATES:
        raise ValueError(f"need at least {_MIN_REPLICATES} replicates for a meaningful interval, got {R}")
    ci_level = float(ci_level)
    if not 0.5 < ci_level < 1.0:
        raise ValueError(f"ci_level must lie in (0.5, 1), got {ci_level!r}")
    seed = operator.index(seed)

    t0 = time.perf_counter()
    n, k = model.n, model.k
    rng = np.random.Generator(np.random.Philox(key=seed & _MASK64))
    rows = min(R, max(_CHUNK_VARIATES // n, _MIN_CHUNK_ROWS))
    # Buffers reused by every chunk; the last chunk uses their first m rows
    # of draws and first m columns of x.
    draws = np.empty((rows, n))
    x = np.empty((n, rows))
    vals = np.empty(R)
    for lo in range(0, R, rows):
        m = min(rows, R - lo)
        rng.random(out=draws[:m])
        # Component-major layout, so each component samples a contiguous row.
        # random() can emit exactly 0; nudge into the open interval.
        np.maximum(draws[:m].T, 5e-324, out=x[:, :m])
        for i, d in enumerate(model.components):
            x[i, :m] = sample(d, x[i, :m])
        x[:, :m].partition(k - 1, axis=0)
        vals[lo:lo + m] = x[k - 1, :m]

    vals.sort()
    a, b = median_ci_ranks(R, ci_level)
    estimate = float(np.median(vals))
    return SimResult(
        replicates=R,
        estimate=estimate,
        ci_low=float(vals[a - 1]),
        ci_high=float(vals[b - 1]),
        ci_level=ci_level,
        seed=seed,
        generator=_GENERATOR_TAG,
        elapsed=time.perf_counter() - t0,
    )
