"""End-to-end certification of the median sandwich and tail bounds.

For a model of n independent components each passing the odds-doubling
condition at K, write q for the mixture quantile of order (k - 1/2)/n and
Med for the median of the k-th smallest.  The certified statements are

    K^-10 * q  <=  Med  <=  K^13 * q,

together with, for thresholds expressed as multiples t of q,

    P{ k-th smallest < t*q }  <=  4 * t^( 1 / (4 ln K))   for 0 < t < K^-5,
    P{ k-th smallest > t*q }  <=  4 * t^(-1 / (6 ln K))   for t > K^5.

All logs are natural.  Exact probabilities come from the Poisson binomial
engine; nothing here is sampled or approximated beyond grid certification of
the regularity precondition.  The model computes q once, and the three
checks share it; the exact median search starts from q, as the theorem puts
Med close to it.

Each verdict rule is one private function, ``_sandwich_verdict`` or
``_tail_row``.  The powers of K used, the default grid points and the
thresholds t*q must be normal doubles: a K, count or t past that raises
ValueError.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from ._record import Record, _Verdict
from .dist import _integer, _real
from .ostat import OrderStatModel, averaged_quantile, kmin_cdf, kmin_median, kmin_strict_cdf
from .regularity import DEFAULT_GRID, GridSpec, RegularityCertificate, _LN_RANGE, _check_K, _max_power, check_condition_batch

__all__ = [
    "SANDWICH_LOWER_EXP",
    "SANDWICH_UPPER_EXP",
    "SANDWICH_REL_TOL",
    "TAIL_TOL",
    "lower_tail_bound",
    "upper_tail_bound",
    "default_lower_t_grid",
    "default_upper_t_grid",
    "TailBoundRow",
    "TheoremReport",
    "verify_theorem",
    "verify_lower_tail",
    "verify_upper_tail",
]

SANDWICH_LOWER_EXP = -10
SANDWICH_UPPER_EXP = 13
SANDWICH_REL_TOL = 1e-9
TAIL_TOL = 1e-12

Q_CONVENTION = "left-quantile"


def lower_tail_bound(t: float, K: float) -> float:
    """4 * t^(1/(4 ln K)), the lower-tail budget at threshold t*q."""
    return 4.0 * _real(t, "t", positive=True) ** (1.0 / (4.0 * math.log(_check_K(K))))


def upper_tail_bound(t: float, K: float) -> float:
    """4 * t^(-1/(6 ln K)), the upper-tail budget at threshold t*q."""
    return 4.0 * _real(t, "t", positive=True) ** (-1.0 / (6.0 * math.log(_check_K(K))))


def _K_power(K: float, e: int) -> float:
    # K**e, refused unless it is a normal double.
    sign = 1 if e > 0 else -1
    if abs(e) > _max_power(K, sign):
        limit = math.exp(_LN_RANGE[sign] / abs(e))
        raise ValueError(f"K^{e} leaves the double range: K must be at most {limit:.6g}, got {K!r}")
    return K**e


def _default_t_grid(K, count: int, sign: int) -> tuple[float, ...]:
    K = _check_K(K)
    count = _integer(count, "count")
    most = max(_max_power(K, sign) - 5, 0)
    if not 1 <= count <= most:
        point = "K^-(5+j)" if sign < 0 else "K^(5+j)"
        raise ValueError(f"count must lie in [1, {most}] at K={K:g} to keep each {point} a normal double; got {count}")
    return tuple(K ** (sign * (5 + j)) for j in range(1, count + 1))


def default_lower_t_grid(K: float, count: int = 10) -> tuple[float, ...]:
    """t = K^(-5-j) for j = 1..count, log-spaced below the K^-5 cutoff; each a normal double."""
    return _default_t_grid(K, count, -1)


def default_upper_t_grid(K: float, count: int = 10) -> tuple[float, ...]:
    """t = K^(5+j) for j = 1..count, log-spaced above the K^5 cutoff; each a finite double."""
    return _default_t_grid(K, count, 1)


@dataclass(frozen=True)
class TailBoundRow(Record, _Verdict):
    """One threshold comparison: exact tail probability against its budget."""

    t: float
    side: str
    threshold: float
    exact_prob: float
    bound: float
    verdict: str
    vacuous: bool


def _tail_row(t: float, side: str, threshold: float, exact_prob: float, bound: float) -> TailBoundRow:
    """The row for one tail comparison, judged by the tail rule.

    It passes when exact_prob <= bound + TAIL_TOL, and is vacuous when the
    bound is at least 1.
    """
    verdict = "pass" if exact_prob <= bound + TAIL_TOL else "fail"
    return TailBoundRow(t, side, threshold, exact_prob, bound, verdict, vacuous=bound >= 1.0)


@dataclass(frozen=True)
class TheoremReport(Record, _Verdict):
    """Sandwich verdict for one model at one K, with regularity evidence.

    ``verdict`` is "pass" when every component certifies and the sandwich
    holds, "precondition-failed" when some component fails regularity (the
    sandwich numbers are still reported as diagnostics, in ``sandwich_holds``),
    and "fail" when regularity holds but the sandwich does not.
    """

    K: float
    n: int
    k: int
    q: float
    med: float
    ratio: float
    lower: float
    upper: float
    verdict: str
    sandwich_holds: bool
    certificates: tuple[RegularityCertificate, ...]
    q_convention: str = Q_CONVENTION


def _sandwich_verdict(
    q: float, med: float, lower: float, upper: float, certificates: tuple[RegularityCertificate, ...]
) -> tuple[str, bool]:
    """(verdict, sandwich_holds) for lower*q <= med <= upper*q.

    Each side holds up to SANDWICH_REL_TOL relative to the larger of its two
    sides.  The verdict is "precondition-failed" unless every certificate
    passes, else "pass" or "fail" as the sandwich holds.
    """
    lo_val, hi_val = lower * q, upper * q
    holds = bool(
        lo_val <= med + SANDWICH_REL_TOL * max(lo_val, med)
        and med <= hi_val + SANDWICH_REL_TOL * max(med, hi_val)
    )
    if not all(c.passed for c in certificates):
        return "precondition-failed", holds
    return ("pass" if holds else "fail"), holds


def verify_theorem(model: OrderStatModel, K, grid_spec: GridSpec = DEFAULT_GRID) -> TheoremReport:
    """Certify the K^-10 / K^13 median sandwich for one model.

    Every component cdf is first grid-certified at K; the report keeps all
    per-component certificates so a precondition failure is attributable.
    """
    K = _check_K(K)
    upper = _K_power(K, SANDWICH_UPPER_EXP)
    lower = _K_power(K, SANDWICH_LOWER_EXP)
    certs = check_condition_batch(model.components, K, grid_spec)

    q = averaged_quantile(model)
    med = kmin_median(model)
    if q > 0.0:
        ratio = med / q
    else:
        ratio = 1.0 if med == 0.0 else math.inf

    verdict, holds = _sandwich_verdict(q, med, lower, upper, certs)
    return TheoremReport(
        K=K,
        n=model.n,
        k=model.k,
        q=q,
        med=med,
        ratio=ratio,
        lower=lower,
        upper=upper,
        verdict=verdict,
        sandwich_holds=holds,
        certificates=certs,
    )


def _tail_rows(model, K, t_grid, side) -> list[TailBoundRow]:
    K = _check_K(K)
    cutoff = _K_power(K, -5 if side == "lower" else 5)
    if t_grid is None:
        t_grid = default_lower_t_grid(K) if side == "lower" else default_upper_t_grid(K)
    ts = sorted(_real(t, "t") for t in t_grid)
    if not ts:
        raise ValueError("t_grid must hold at least one t")
    for t in ts:
        if side == "lower" and not 0.0 < t < cutoff:
            raise ValueError(f"lower-side t must lie in (0, K^-5) = (0, {cutoff:g}), got {t!r}")
        if side == "upper" and not t > cutoff:
            raise ValueError(f"upper-side t must exceed K^5 = {cutoff:g}, got {t!r}")

    q = averaged_quantile(model)
    thresholds = [t * q for t in ts]
    for t, x in zip(ts, thresholds):
        if not sys.float_info.min <= x <= sys.float_info.max:
            raise ValueError(f"threshold t*q = {x!r} at t={t!r} (q = {q!r}) is not a positive, finite, normal double")
    if side == "lower":
        exact = kmin_strict_cdf(model, thresholds).tolist()
        bounds = [lower_tail_bound(t, K) for t in ts]
    else:
        exact = (1.0 - kmin_cdf(model, thresholds)).tolist()
        bounds = [upper_tail_bound(t, K) for t in ts]
    return [_tail_row(t, side, x, p, b) for t, x, p, b in zip(ts, thresholds, exact, bounds)]


def verify_lower_tail(model: OrderStatModel, K, t_grid=None) -> list[TailBoundRow]:
    """Rows of P{k-th smallest < t*q} vs 4*t^(1/(4 ln K)) over t in (0, K^-5).

    Assumes the components already certify at K (see verify_theorem); the
    comparison itself never re-checks regularity.
    """
    return _tail_rows(model, K, t_grid, "lower")


def verify_upper_tail(model: OrderStatModel, K, t_grid=None) -> list[TailBoundRow]:
    """Rows of P{k-th smallest > t*q} vs 4*t^(-1/(6 ln K)) over t > K^5."""
    return _tail_rows(model, K, t_grid, "upper")
