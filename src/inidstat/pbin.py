"""Exact law of the success count among independent heterogeneous Bernoulli trials.

Given success probabilities p_1, ..., p_n (not necessarily equal), the count
S = sum_i 1{trial i succeeds} has the Poisson binomial law.  One pass builds
every count law here.  ``tail_at_least`` computes P{S >= k} in
O(n * min(k, n - k + 1)) by truncating it to the counts of one kind of
event, with a last row that absorbs the mass past them: successes below k,
whose absorbed mass is the tail (when k is small), or failures up to n - k,
whose survivors are summed (when k is close to n).  ``pmf`` keeps all n + 1
counts of failures, so nothing passes them.

``tail_at_least`` also takes a stack of vectors, an array of shape (..., n)
with one vector of probabilities per threshold, and returns their tails
from one pass: the state holds one column per vector, so the number of
numpy calls does not grow with the number T of vectors.  Every vector's
tail equals the tail of that vector alone, bit for bit.

The pass works on blocks of consecutive trials, b of them, with b set by n
alone: one block while n <= 32, about sqrt(n) above that.  The recurrence
(``_count_laws``) builds the count law of every block at once, three numpy
calls per step, with one column per (vector, block) pair.  ``_fold`` then
folds each block's law into the state by one matrix product over a sliding
window of it, for every n; on the absorbing side the counts that reach k or
more go into the absorbed total.  That is about 3b + 3n/b numpy calls
instead of 3n.  Blocks are fixed by position, whatever the probabilities,
and the failure probabilities 1 - p_i are formed once and passed as they
are, so a tail computed from success probabilities near 1e-6 keeps its
digits.  A sure trial (p_i = 0 or 1) inside a block is an exact identity or
an exact shift of that block's law.  Every term of the pass is nonnegative,
so each tail, and each entry of ``pmf`` above the underflow range, is within
n * 2**-53 of the exact value for the same doubles.  For n <= 32 the fold of
the one block returns its law exactly, every other term of the window being
an exact zero, so the result is bit for bit the one-trial-at-a-time
recurrence.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .dist import _integer, _real

__all__ = [
    "pmf",
    "tail_at_least",
    "brute_force_tail",
    "ChebyshevGap",
    "chebyshev_bound_gap",
]

_BRUTE_FORCE_MAX_N = 20

# Passes over at most this many trials run as one block.
_ONE_BLOCK = 32


def _checked(p) -> np.ndarray:
    """``p`` as an array whose last axis holds at least one trial, each in [0, 1]; a scalar is one trial."""
    arr = np.atleast_1d(np.asarray(p, dtype=float))
    if arr.shape[-1] == 0:
        raise ValueError("need at least one trial")
    # min and max propagate NaN, which fails both comparisons.
    if not (arr.min(initial=1.0) >= 0.0 and arr.max(initial=0.0) <= 1.0):
        raise ValueError("success probabilities must lie in [0, 1]")
    return arr


def _vector(p) -> np.ndarray:
    """``_checked(p)``, refused unless it is one vector of probabilities."""
    arr = _checked(p)
    if arr.ndim > 1:
        raise ValueError(f"need one vector of probabilities, got shape {arr.shape}")
    return arr


def _check_rank(k, n: int) -> int:
    k = _integer(k, 'rank "k"')
    if not 0 <= k <= n + 1:
        raise ValueError(f"k must be an integer in [0, {n + 1}], got {k}")
    return k


def pmf(p) -> np.ndarray:
    """Full law of S as an array of length n + 1 indexed by the count, from the pass."""
    p = _vector(p)[None]
    counts, _ = _pass(p, 1.0 - p, p.shape[1] + 1, absorbing=False)
    return counts[0]


def tail_at_least(p, k):
    """P{S >= k} by a pass over min(k, n - k + 1) counts, without building the full law.

    ``p`` is a sequence or an array of shape (..., n): a stack of vectors
    of n probabilities each.  The result has shape (...), each tail equal
    bit for bit to the tail of its vector alone, or is a float for a single
    vector; a scalar is a one-trial vector.  ``k`` is an
    integer in [0, n + 1] (numpy integers are, bools are not).

    The vectors share one pass (see the module docstring).  Every tail is
    relative-accurate, exact zeros included.
    """
    p = _checked(p)
    *stack, n = p.shape
    probs = p.reshape(-1, n)
    rows = len(probs)
    k = _check_rank(k, n)
    if k == 0:
        tails = np.ones(rows)
    elif k == n + 1:
        tails = np.zeros(rows)
    else:
        tails = _truncated_tails(probs, k)
    return tails.reshape(stack) if stack else float(tails[0])


def _truncated_tails(probs: np.ndarray, k: int) -> np.ndarray:
    """P{S >= k} for each row of ``probs``, 1 <= k <= n, by the pass.

    On the absorbing side (k <= n + 1 - k) the state counts successes
    0..k-1 and the mass that reaches k is the tail; on the dual side it
    counts failures 0..n-k and the mass that stays within them is the tail.
    """
    n = probs.shape[1]
    absorbing = k <= n + 1 - k
    # The failure probabilities are formed once; on the dual side the
    # success probabilities stay as given rather than as 1 - (1 - p).
    fail = 1.0 - probs
    size, up, stay = (k, probs, fail) if absorbing else (n - k + 1, fail, probs)
    counts, past = _pass(up, stay, size, absorbing)
    return np.minimum(past if absorbing else counts.sum(axis=1), 1.0)


def _pass(up: np.ndarray, stay: np.ndarray, size: int, absorbing: bool) -> tuple[np.ndarray, np.ndarray]:
    """``_fold``'s (counts, past) after all trials, for each row of ``up`` and ``stay``.

    Trial i of row r moves a count up with probability up[r, i] and keeps
    it with stay[r, i].  The trials are cut by position into blocks of
    ``width``; each block's law is built up to the state's size and folded
    into the state in turn.  Blocks never depend on the probabilities, so
    every row's result is the same alone as in any stack.
    """
    rows, n = up.shape
    width = n if n <= _ONE_BLOCK else math.isqrt(n - 1) + 1
    blocks = -(-n // width)
    span = min(width, size)
    # Step i of block j is trial j*width + i, in column j*rows + r for row
    # r; the trials that fill up the last block never move.
    steps = np.zeros((2, blocks * width, rows))
    steps[1, n:] = 1.0
    steps[0, :n] = up.T
    steps[1, :n] = stay.T
    steps = steps.reshape(2, blocks, width, rows).transpose(0, 2, 1, 3).reshape(2, width, blocks * rows)
    laws = _count_laws(steps[0], steps[1], span)
    return _fold(laws.T.reshape(blocks, rows, span + 1), size, absorbing)


def _count_laws(up: np.ndarray, stay: np.ndarray, size: int) -> np.ndarray:
    # Row i of `up` and `stay` holds step i's probabilities in every column;
    # each step updates the (size + 1, columns) state in place with three
    # numpy calls.  Rows 0..size-1 count the `up` events; row `size` absorbs
    # the mass that passes them and never drops back.
    state = np.zeros((size + 1, up.shape[1]))
    state[0] = 1.0
    moved = np.empty((size, up.shape[1]))
    below, above = state[:size], state[1:]
    for pu, ps in zip(up, stay):
        np.multiply(below, pu, out=moved)
        np.multiply(below, ps, out=below)
        np.add(above, moved, out=above)
    return state


def _fold(laws: np.ndarray, size: int, absorbing: bool) -> tuple[np.ndarray, np.ndarray]:
    """Each row's counts 0..size-1 after the blocks in turn, and on the absorbing side the mass past them.

    ``laws[j, r]`` is block j's law of counts 0..span for row r (count span
    is "span or more" when span = size).  Each row's state sits at offset
    span in a zero-padded line, and row c of its window reads
    line[c : c + span + 1], so that window row dotted with a reversed law is
    count c after the block.  Window rows c >= size are counts past the
    state.  They land in the line's padding, which the next window reads
    only in its own rows past the state: on the absorbing side they are
    added to the past mass and the padding is cleared, on the dual side
    they are dropped.
    """
    blocks, rows, taps = laws.shape
    span = taps - 1
    line = size + 2 * span
    pads = np.zeros((2, rows, line))
    pads[0, :, span] = 1.0
    item = pads.itemsize
    windows = as_strided(pads, (2, rows, size + span, taps), (rows * line * item, line * item, item, item))
    heads, beyond = pads[:, :, span:, None], pads[:, :, span + size :]
    # Contiguous reversed laws and at least two window rows keep every row
    # on the same matrix-vector loop of numpy's, whatever the number of rows.
    reversed_laws = np.ascontiguousarray(laws[..., ::-1])[..., None]
    past = np.zeros((rows, span))
    for j in range(blocks):
        dst = 1 - j % 2
        np.matmul(windows[j % 2], reversed_laws[j], out=heads[dst])
        if absorbing:
            np.add(past, beyond[dst], out=past)
            beyond[dst].fill(0.0)
    return pads[blocks % 2, :, span : span + size], past.sum(axis=1)


def brute_force_tail(p, k) -> float:
    """P{S >= k} by enumerating all 2^n outcomes; guardrailed to n <= 20."""
    p = _vector(p)
    n = p.size
    if n > _BRUTE_FORCE_MAX_N:
        raise ValueError(f"brute-force enumeration is limited to n <= {_BRUTE_FORCE_MAX_N}, got n = {n}")
    k = _check_rank(k, n)
    probs = np.ones(1)
    counts = np.zeros(1, dtype=np.int64)
    for pi in p:
        probs = np.concatenate([probs * (1.0 - pi), probs * pi])
        counts = np.concatenate([counts, counts + 1])
    return float(probs[counts >= k].sum())


class ChebyshevGap(NamedTuple):
    exact: float
    bound: float


def chebyshev_bound_gap(p, t) -> ChebyshevGap:
    """Exact P{|S - E[S]| >= t} next to the bound E[S] / t^2.

    The bound uses the mean sum rather than the variance, so it is coarser
    than the usual variance form but needs only the p_i.
    """
    p = _vector(p)
    t = _real(t, "threshold t")
    if not t > 0:
        raise ValueError(f"threshold t must be positive, got {t!r}")
    law = pmf(p)
    mu = float(p.sum())
    counts = np.arange(p.size + 1)
    exact = float(law[np.abs(counts - mu) >= t].sum())
    return ChebyshevGap(exact=exact, bound=mu / (t * t))
