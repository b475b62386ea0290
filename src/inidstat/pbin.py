"""Exact law of the success count among independent heterogeneous Bernoulli trials.

Given success probabilities p_1, ..., p_n (not necessarily equal), the count
S = sum_i 1{trial i succeeds} has the Poisson binomial law.  ``pmf`` builds the
full law by the O(n^2) convolution recurrence; ``tail_at_least`` computes the
tail P{S >= k} in O(n * min(k, n - k + 1)) by truncating the recurrence to
the counts of one kind of event, with a last row that absorbs the mass past
them: successes below k, whose absorbed mass is the tail (when k is small),
or failures up to n - k, whose survivors are summed (when k is close to n).

``tail_at_least`` also takes a stack of vectors, an array of shape (..., n)
with one vector of probabilities per threshold, and returns their tails
from one pass over the n trials: the recurrence state holds one column per
vector, so the Python loop runs n times whatever the number T of vectors
is, and each step does the arithmetic of T steps in three numpy calls.  A
pass costs about n * (a + b * T * width): the fixed cost a of the calls,
paid once instead of T times, dominates at small width.  States about a
hundred times wider than T run one pass per vector instead, which is
cheaper there.  Every vector's tail equals the tail of that vector alone,
bit for bit.

A pass skips the trials that change nothing in its state, so it runs only
the steps that move mass.  On the absorbing side (small k) a trial that is
a sure failure (p = 0) in every row is skipped, and a pass with fewer than
k trials left returns exactly 0.  On the dual side (k near n) a trial that
is a sure success in every row is skipped, and the f trials that are sure
failures in every row become an offset: each shifts the state by one row,
exactly, whatever its place in the sequence, so the state starts f rows up
and holds only the failure counts f..n-k (the tail is exactly 0 when
f > n - k).  Sure successes on the absorbing side stay in the recurrence:
their absorbed mass would be added in another order.  Multiplying by 1,
adding 0 and shifting are exact, so the skipped pass gives the same tails,
bit for bit, as the full one.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import NamedTuple, Sequence, Union

import numpy as np

__all__ = [
    "SuccessVector",
    "pmf",
    "tail_at_least",
    "brute_force_tail",
    "ChebyshevGap",
    "chebyshev_bound_gap",
]

_BRUTE_FORCE_MAX_N = 20

# A pass over T thresholds updates a (width, T) state with broadcasts that
# cost numpy a fixed amount per state row; it beats T one-row passes while
# the width is below about this many state rows per threshold.
_ROW_WIDTH = 96


@dataclass(frozen=True, eq=False)
class SuccessVector:
    """An immutable vector of per-trial success probabilities in [0, 1]."""

    p: np.ndarray

    def __post_init__(self) -> None:
        arr = _checked(np.array(self.p, dtype=float, copy=True).ravel())
        arr.setflags(write=False)
        object.__setattr__(self, "p", arr)

    @property
    def n(self) -> int:
        return int(self.p.size)

    @property
    def mean_sum(self) -> float:
        """E[S] = sum of the success probabilities."""
        return float(self.p.sum())


SuccessLike = Union[SuccessVector, Sequence[float], np.ndarray]


def _checked(arr: np.ndarray) -> np.ndarray:
    """``arr``, after checking that its last axis holds at least one trial, each in [0, 1]."""
    if arr.shape[-1] == 0:
        raise ValueError("need at least one trial")
    # min and max propagate NaN, which fails both comparisons.
    if not (arr.min(initial=1.0) >= 0.0 and arr.max(initial=0.0) <= 1.0):
        raise ValueError("success probabilities must lie in [0, 1]")
    return arr


def _coerce(sv: SuccessLike) -> SuccessVector:
    return sv if isinstance(sv, SuccessVector) else SuccessVector(np.asarray(sv, dtype=float))


def _check_rank(k, n: int) -> int:
    k = operator.index(k)
    if not 0 <= k <= n + 1:
        raise ValueError(f"k must be an integer in [0, {n + 1}], got {k}")
    return k


def pmf(sv: SuccessLike) -> np.ndarray:
    """Full law of S as an array of length n + 1 indexed by the count."""
    sv = _coerce(sv)
    n = sv.n
    out = np.zeros(n + 1)
    out[0] = 1.0
    for i, pi in enumerate(sv.p):
        shifted = out[: i + 1] * pi
        out[: i + 2] *= 1.0 - pi
        out[1 : i + 2] += shifted
    return out


def tail_at_least(sv: SuccessLike, k):
    """P{S >= k} without building the full law.

    Runs the convolution recurrence over a state vector truncated to
    min(k, n - k + 1) entries, so scanning every k for one fixed vector
    costs O(n^2) overall instead of O(n^2) per tail.

    ``sv`` is a ``SuccessVector``, a sequence, or an array of shape (..., n):
    a stack of vectors of n probabilities each.  The result has shape (...),
    each tail equal bit for bit to the tail of its vector alone, or is a
    float for a single vector; a scalar is a one-trial vector.  The vectors
    share one pass over the n trials on a (min(k, n - k + 1), T) state
    updated in place, for T vectors: n Python steps of three numpy calls
    each, for T tails at once, unless the state is so wide that a pass per
    vector is cheaper.

    Trials that are sure in every vector and change nothing in the truncated
    state are skipped (see the module docstring): sure failures on the
    absorbing side and sure successes on the dual side, while dual-side sure
    failures start the state at an offset.  The side is chosen from the
    original (n, k), and every tail is still the one the full recurrence
    gives, bit for bit.
    """
    p = sv.p if isinstance(sv, SuccessVector) else _checked(np.atleast_1d(np.asarray(sv, dtype=float)))
    *stack, n = p.shape
    probs = p.reshape(-1, n)
    rows = len(probs)
    k = _check_rank(k, n)
    if k == 0:
        tails = np.ones(rows)
    elif k == n + 1:
        tails = np.zeros(rows)
    elif min(k, n - k + 1) <= _ROW_WIDTH * rows:
        tails = _truncated_tails(probs, k)
    else:
        # So wide a state that numpy's per-state-row cost of the broadcast
        # update outweighs the per-call cost one pass saves: a pass per row.
        tails = np.array([_truncated_tails(row[None, :], k)[0] for row in probs])
    return tails.reshape(stack) if stack else float(tails[0])


def _truncated_tails(probs: np.ndarray, k: int) -> np.ndarray:
    # Row i of `succ` holds trial i's success probability under every
    # threshold; the state's columns are the thresholds, and each step
    # updates it in place with three numpy calls.
    rows, n = probs.shape
    absorbing = k <= n + 1 - k
    # Only the trials that change the state take a step (see the module
    # docstring): on the absorbing side those that may succeed in some row,
    # on the dual side those that are also short of sure in some row.
    possible = probs.any(axis=0)
    succ = probs.T[possible if absorbing else possible & (probs < 1.0).any(axis=0)]
    fail = 1.0 - succ
    if absorbing:
        if succ.shape[0] < k:
            # Fewer than k trials can succeed in any row: no mass reaches k.
            return np.zeros(rows)
        # Count successes 0..k-1; the absorbed mass, at k or more, ends as
        # exactly P{S >= k}.
        size, up, stay = k, succ, fail
    else:
        # Dual recurrence on failure counts 0..n-k; runs that stay within the
        # allowance end with S >= k, so the surviving mass is the tail.  The
        # sure failures in every row shift the state up by `shift` rows.
        allowance = n - k + 1
        shift = n - int(np.count_nonzero(possible))
        if shift >= allowance:
            return np.zeros(rows)
        size, up, stay = allowance - shift, fail, succ
    # Rows 0..size-1 count the `up` events; row `size` absorbs the mass that
    # passes them and never drops back.
    state = np.zeros((size + 1, rows))
    state[0] = 1.0
    moved = np.empty((size, rows))
    below, above = state[:size], state[1:]
    for pu, ps in zip(up, stay):
        np.multiply(below, pu, out=moved)
        np.multiply(below, ps, out=below)
        np.add(above, moved, out=above)
    if absorbing:
        tails = state[size]
    else:
        # Sum each threshold's survivors along a contiguous row, pairwise,
        # exactly as a one-dimensional sum of that column would; the zeros
        # below the shift keep the pairwise grouping of the whole allowance.
        survivors = np.zeros((rows, allowance))
        survivors[:, shift:] = state[:size].T
        tails = survivors.sum(axis=1)
    return np.minimum(tails, 1.0)


def brute_force_tail(sv: SuccessLike, k) -> float:
    """P{S >= k} by enumerating all 2^n outcomes; guardrailed to n <= 20."""
    sv = _coerce(sv)
    n = sv.n
    if n > _BRUTE_FORCE_MAX_N:
        raise ValueError(f"brute-force enumeration is limited to n <= {_BRUTE_FORCE_MAX_N}, got n = {n}")
    k = _check_rank(k, n)
    probs = np.ones(1)
    counts = np.zeros(1, dtype=np.int64)
    for pi in sv.p:
        probs = np.concatenate([probs * (1.0 - pi), probs * pi])
        counts = np.concatenate([counts, counts + 1])
    return float(probs[counts >= k].sum())


class ChebyshevGap(NamedTuple):
    exact: float
    bound: float


def chebyshev_bound_gap(sv: SuccessLike, t) -> ChebyshevGap:
    """Exact P{|S - E[S]| >= t} next to the bound E[S] / t^2.

    The bound uses the mean sum rather than the variance, so it is coarser
    than the usual variance form but needs only the p_i.
    """
    sv = _coerce(sv)
    t = float(t)
    if not t > 0:
        raise ValueError(f"threshold t must be positive, got {t!r}")
    law = pmf(sv)
    mu = sv.mean_sum
    counts = np.arange(sv.n + 1)
    exact = float(law[np.abs(counts - mu) >= t].sum())
    return ChebyshevGap(exact=exact, bound=mu / (t * t))
