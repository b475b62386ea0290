"""Monte Carlo cross-validation of the exact order-statistic engine.

Sampling is by inverse transform through ``MixtureCdf.family_quantiles``,
which runs each family's quantile formula, the code ``d.quantile`` runs, so
the sampler and the exact engine share one definition of every law.  Median
estimates carry a distribution-free order-statistic confidence interval.

All uniforms come from one Philox4x64 stream keyed by the seed (mod 2**64)
and read in order: replicate j owns the stream's draws [j*n, (j+1)*n), one
per component.  Replicates are processed in chunks of about 2**15 draws, so
memory stays O(R + chunk) floats for R replicates.  Each chunk is turned into
quantiles by ``family_quantiles``, which gathers it into component-major rows
block by block (one block per family, and one per table width of the laws
with atoms or knots), checks it once to lie strictly inside (0, 1) and calls
each block's quantile formula on runs of at most 2**12 draws; the rows are
then partitioned for the k-th smallest of each replicate.  Each draw is
``d.quantile(u)`` bit for bit, for a float u as for an array, so the results
are reproducible bit for bit and do not depend on the chunk size.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ._record import Record
from .dist import _integer, _real
from .ostat import OrderStatModel

__all__ = [
    "SimResult",
    "median_ci_ranks",
    "simulate_median",
]

_MASK64 = (1 << 64) - 1
_GENERATOR_TAG = "philox4x64(key = seed mod 2**64); replicate j reads draws [j*n, (j+1)*n)"
_MIN_REPLICATES = 100
# Uniforms drawn per chunk, or _MIN_CHUNK_ROWS rows of a very wide model.  On
# the monte-carlo benchmark chunks of 2**15 ran a round about 40% faster than
# 2**20 (2-core Xeon VM): the chunk, its gathered copy and the formula
# temporaries stay in cache.
_CHUNK_VARIATES = 1 << 15
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


def median_ci_ranks(replicates: int, ci_level: float) -> tuple[int, int]:
    """1-based order-statistic ranks (a, b) with P{X_(a) <= med <= X_(b)} >= ci_level.

    a is the largest rank whose binomial(R, 1/2) cdf at a-1 stays within
    (1 - ci_level)/2, and b = R - a + 1 by symmetry.  When even (1, R)
    covers less than ci_level, as for a few replicates, the result is (1, R).
    """
    from scipy.special import bdtr

    R = _integer(replicates, "replicates")
    if R < 1:
        raise ValueError(f"need at least one replicate, got {R}")
    ci_level = _real(ci_level, "ci_level")
    if not 0.0 < ci_level < 1.0:
        raise ValueError(f"ci_level must lie in (0, 1), got {ci_level!r}")
    half_alpha = (1.0 - ci_level) / 2.0
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


def _chunk_rows(model: OrderStatModel) -> int:
    # An odd row count keeps the column stride of the partition off multiples
    # of 4 KiB, where cache-set conflicts made it up to 3.5x slower.
    return max(_CHUNK_VARIATES // model.n, _MIN_CHUNK_ROWS) | 1


def simulate_median(
    model: OrderStatModel,
    replicates: int,
    seed: int = 0,
    ci_level: float = 0.99,
) -> SimResult:
    """Sample median of the k-th smallest over R independent replicates.

    Replicate j reads draws [j*n, (j+1)*n) of one Philox4x64 stream keyed by
    ``seed`` mod 2**64.  Memory: the R selected values, a chunk of about
    max(2**15, 64*n) draws, its gathered copy and, while a run of a block is
    sampled, a few temporaries of 2**12 draws (or of one law's draws, if
    more).
    """
    R = _integer(replicates, "replicates")
    if R < _MIN_REPLICATES:
        raise ValueError(f"need at least {_MIN_REPLICATES} replicates for a meaningful interval, got {R}")
    ci_level = _real(ci_level, "ci_level")
    if not 0.5 < ci_level < 1.0:
        raise ValueError(f"ci_level must lie in (0.5, 1), got {ci_level!r}")
    seed = _integer(seed, "seed")

    t0 = time.perf_counter()
    n, k = model.n, model.k
    rng = np.random.Generator(np.random.Philox(key=seed & _MASK64))
    rows = min(R, _chunk_rows(model))
    # Reused by every chunk; the last chunk uses its first rows.
    draws = np.empty((rows, n))
    vals = np.empty(R)
    for lo in range(0, R, rows):
        u = draws[:min(rows, R - lo)]
        rng.random(out=u)
        # random() can emit exactly 0; nudge into the open interval.
        np.maximum(u, 5e-324, out=u)
        # Rows grouped by family: the k-th smallest ignores their order.
        x = model.mixture.family_quantiles(u.T)
        x.partition(k - 1, axis=0)
        vals[lo:lo + u.shape[0]] = x[k - 1]
        # Freed now, so that it is not held while the next chunk is sampled.
        del x

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
