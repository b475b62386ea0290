"""An independent reference engine for checking the package's answers.

It evaluates the pool laws from their closed forms and runs its own
Poisson-binomial recurrence, batched over thresholds, so that a check never
compares the package with itself.  Everything here runs outside the timed
region.
"""

from __future__ import annotations

import math

import numpy as np

from models import EXPONENTIAL, PARETO, UNIFORM

# Absolute tolerance for probabilities, equal to the package's TAIL_TOL.
PROB_TOL = 1e-12

_erf = np.vectorize(math.erf, otypes=[float])


def component_cdfs(specs, t) -> np.ndarray:
    """(len(t), n) matrix of F_i(t) for component specs at thresholds t."""
    t = np.atleast_1d(np.asarray(t, dtype=float))[:, None]
    out = np.empty((t.shape[0], len(specs)))
    for i, (fam, scale, param) in enumerate(specs):
        x = t[:, 0] / scale
        if fam == UNIFORM:
            out[:, i] = np.clip(x, 0.0, 1.0)
        elif fam == PARETO:
            out[:, i] = np.where(x >= 1.0, 1.0 - np.maximum(x, 1.0) ** (-param), 0.0)
        elif fam == EXPONENTIAL:
            out[:, i] = np.where(x > 0.0, -np.expm1(-param * np.maximum(x, 0.0)), 0.0)
        else:
            out[:, i] = np.where(x > 0.0, _erf(np.maximum(x, 0.0) / (param * math.sqrt(2.0))), 0.0)
    return out


def count_at_least(probs: np.ndarray, k: int) -> np.ndarray:
    """P{S >= k} for each row of a (T, n) matrix of success probabilities.

    The state holds the law of the count below k; mass that reaches k is
    absorbed, so the absorbed total is the tail.
    """
    T, n = probs.shape
    state = np.zeros((T, k))
    state[:, 0] = 1.0
    absorbed = np.zeros(T)
    for i in range(n):
        p = probs[:, i : i + 1]
        absorbed += state[:, -1] * p[:, 0]
        moved = state[:, :-1] * p
        state *= 1.0 - p
        state[:, 1:] += moved
    return absorbed


def kmin_cdf(specs, k: int, t) -> np.ndarray:
    """P{k-th smallest <= t} at each threshold in t."""
    return count_at_least(component_cdfs(specs, t), k)


def mixture_cdf(specs, t) -> np.ndarray:
    return component_cdfs(specs, t).mean(axis=1)


def stopping_width(q: float) -> float:
    """The quantile search's stopping width at answer q."""
    return min(1e-12 * max(1.0, q), 1e-10 * q)


def is_left_quantile(cdf, q: float, r: float) -> bool:
    """q is the left r-quantile of a continuous cdf to the search's width.

    The cdf reaches r at q and is still below r one stopping width lower.
    ``cdf`` maps an array of thresholds to an array of probabilities.
    """
    if not (math.isfinite(q) and q > 0.0):
        return False
    below = max(q - stopping_width(q), 0.0)
    at_q, at_below = cdf(np.array([q, below]))
    return bool(at_q >= r - PROB_TOL and at_below <= r + PROB_TOL)
