"""One-at-a-time reference copies of the exact engine's batched loops.

The package evaluates many thresholds per pass: ``tail_at_least`` takes a
matrix of probability rows and ``check_condition_batch`` grid-checks many
laws per cdf call.  These are the plain loops they must reproduce bit for
bit: one probability vector per recurrence, one law per certificate.  The
count tail is bit for bit for n <= 32 only; above that the package sums in
blocks of trials, and agrees with the loop here to n * 2**-53 relative.
``left_quantile`` is plain bisection, one cdf value per call; the package's
interpolating search must meet the same left-quantile contract
(``check_left_quantile``), not return the same float.  The certificates of
every regularity form, the growth lemma's report and ``find_min_K`` are
built here from ``d.cdf`` alone, one law and one K at a time, and must equal
the package's bit for bit.
"""

import math
import sys

import numpy as np

from inidstat.regularity import (
    MARGIN_TOL,
    GrowthLemmaReport,
    MinKResult,
    RegularityCertificate,
    RegularityPreconditionError,
)

MAX_DOUBLINGS = 200
BISECT_ABS_TOL = 1e-12
BISECT_REL_TOL = 1e-10


def tail_at_least(p, k: int) -> float:
    """P{S >= k} for one vector of success probabilities, 0 <= k <= n + 1."""
    p = np.asarray(p, dtype=float)
    n = p.size
    if k == 0:
        return 1.0
    if k == n + 1:
        return 0.0
    if k <= n + 1 - k:
        state = np.zeros(k)
        state[0] = 1.0
        buf = np.empty(k)
        absorbed = 0.0
        for pi in p:
            absorbed += state[k - 1] * pi
            np.multiply(state, 1.0 - pi, out=buf)
            buf[1:] += state[: k - 1] * pi
            state, buf = buf, state
        return float(min(absorbed, 1.0))
    m = n - k
    state = np.zeros(m + 1)
    state[0] = 1.0
    buf = np.empty(m + 1)
    for pi in p:
        np.multiply(state, pi, out=buf)
        buf[1:] += state[:m] * (1.0 - pi)
        state, buf = buf, state
    return float(min(state.sum(), 1.0))


def left_quantile(cdf, r: float, candidates=()) -> float:
    """Left quantile by bracketed bisection, calling ``cdf`` on one float at a time."""
    r = float(r)
    if not 0.0 <= r <= 1.0:
        raise ValueError("quantile order must lie in [0, 1]")
    if r == 0.0 or cdf(0.0) >= r:
        return 0.0

    hi = 1.0
    if cdf(hi) >= r:
        for _ in range(MAX_DOUBLINGS):
            if hi <= 5e-324 or cdf(hi / 2.0) < r:
                lo = hi / 2.0
                break
            hi /= 2.0
        else:
            lo = 0.0
    else:
        # Doubling up to the largest finite double.
        while cdf(hi) < r:
            if hi == sys.float_info.max:
                raise ValueError(f"quantile order {r!r} not reached below t = {hi:g}")
            hi = min(2.0 * hi, sys.float_info.max)
        lo = hi / 2.0

    while hi - lo > min(BISECT_ABS_TOL * max(1.0, hi), BISECT_REL_TOL * hi):
        # Halves first where lo + hi would overflow.
        mid = 0.5 * (lo + hi) if hi < sys.float_info.max / 2.0 else 0.5 * lo + 0.5 * hi
        if mid <= lo or mid >= hi:
            break
        if cdf(mid) >= r:
            hi = mid
        else:
            lo = mid

    eps = min(BISECT_ABS_TOL * max(1.0, hi), BISECT_REL_TOL * hi)
    for c in sorted(candidates):
        if lo < c <= hi + eps and cdf(c) >= r:
            below = float(np.nextafter(c, -np.inf))
            if below <= lo or cdf(below) < r:
                return float(c)
            break
    return float(hi)


def stopping_width(x: float) -> float:
    """The search's stopping width at x."""
    return min(BISECT_ABS_TOL * max(1.0, x), BISECT_REL_TOL * x)


def check_left_quantile(cdf, r: float, got: float, candidates=()) -> None:
    """Assert that ``got`` is the left r-quantile of ``cdf`` to the stopping width.

    cdf(got) >= r, and the cdf is below r one width lower (one float lower
    where the width is below the float spacing).  ``got`` lies within the
    larger width of plain bisection's answer, and equals it exactly where
    either is a candidate: an atom or a knot.
    """
    want = left_quantile(cdf, r, candidates)
    assert type(got) is float
    assert cdf(got) >= r, (r, got)
    if got > 0.0:
        below = min(got - stopping_width(got), float(np.nextafter(got, -np.inf)))
        assert cdf(max(below, 0.0)) < r, (r, got)
    assert abs(got - want) <= max(stopping_width(got), stopping_width(want)), (r, got, want)
    if got in candidates or want in candidates:
        assert got == want, (r, got, want)


def form_sides(d, K: float, grid_spec, form: str):
    """(t, lhs, rhs, n_grid) of one form at the grid points where it applies, from d.cdf alone."""
    K = float(K)
    t = grid_spec.points_for(d)
    ft = np.asarray(d.cdf(t))
    if form == "weak-condition":
        keep = ft <= 0.5
        return t[keep], ft[keep], 2.0 * np.asarray(d.cdf(t[keep] / (K * K))), t.size
    fkt = np.asarray(d.cdf(K * t))
    if form == "condition":
        return t, fkt * (1.0 - ft), 2.0 * ft * (1.0 - fkt), t.size
    assert form == "measure-form", form
    return t, fkt - ft, ft * (1.0 - fkt), t.size


def _certificate(check: str, K: float, grid_spec, t, lhs, rhs, n_points: int) -> RegularityCertificate:
    # One law judged on its worst margin at the points t; none passes with margin inf.
    if t.size == 0:
        return RegularityCertificate(check, K, grid_spec, n_points, math.inf, "pass", None)
    margin = lhs - rhs
    i = int(np.argmin(margin))
    worst = float(margin[i])
    verdict = "pass" if worst >= -MARGIN_TOL else "fail"
    witness = (float(t[i]), float(lhs[i]), float(rhs[i])) if verdict == "fail" else None
    return RegularityCertificate(check, K, grid_spec, n_points, worst, verdict, witness)


def _form_certificate(d, K: float, grid_spec, form: str) -> RegularityCertificate:
    t, lhs, rhs, n = form_sides(d, K, grid_spec, form)
    return _certificate(form, float(K), grid_spec, t, lhs, rhs, n)


def condition_certificate(d, K: float, grid_spec) -> RegularityCertificate:
    """Grid certificate of F(Kt)*(1-F(t)) >= 2*F(t)*(1-F(Kt)) from d.cdf alone."""
    return _form_certificate(d, K, grid_spec, "condition")


def measure_form_certificate(d, K: float, grid_spec) -> RegularityCertificate:
    """Grid certificate of F(Kt) - F(t) >= F(t)*(1-F(Kt)) from d.cdf alone."""
    return _form_certificate(d, K, grid_spec, "measure-form")


def weak_condition_certificate(d, K: float, grid_spec) -> RegularityCertificate:
    """Grid certificate of F(t) >= 2*F(t/K^2) where F(t) <= 1/2, from d.cdf alone."""
    return _form_certificate(d, K, grid_spec, "weak-condition")


def growth_lemma_report(d, K: float, ell: int, gamma: float, grid_spec) -> GrowthLemmaReport:
    """The growth lemma's report from d.cdf alone, after the condition certificate at K.

    Raises RegularityPreconditionError, as the package does, when that
    certificate fails.  The inputs are taken as valid.
    """
    K = float(K)
    pre = condition_certificate(d, K, grid_spec)
    if not pre.passed:
        raise RegularityPreconditionError(
            f"growth check needs the condition to hold at K={K:g}; it fails on the grid with margin {pre.margin:.3e}",
            pre,
        )
    t = grid_spec.points_for(d)
    ft = np.asarray(d.cdf(t))
    ftl = np.asarray(d.cdf(t / K**ell))
    pow2 = 2.0**ell
    growth = _certificate("growth", K, grid_spec, t, ft, pow2 * (1.0 - ft) * ftl, t.size)
    keep = ft >= 1.0 - gamma
    share = pow2 / (pow2 * gamma + 1.0)
    survival = _certificate("survival", K, grid_spec, t[keep], 1.0 - ftl[keep], share * (1.0 - ft[keep]), t.size)
    return GrowthLemmaReport(
        K=K,
        ell=ell,
        gamma=gamma,
        grid_spec=grid_spec,
        n_points=t.size,
        n_survival_points=int(np.count_nonzero(keep)),
        margin_growth=growth.margin,
        margin_survival=survival.margin,
        verdict="pass" if growth.passed and survival.passed else "fail",
        witnesses=tuple((c.check, *c.witness) for c in (growth, survival) if c.witness is not None),
    )


def find_min_K(d, grid_spec, K_range=(1.01, 8.0), tol: float = 1e-3) -> MinKResult:
    """Plain bisection for the smallest passing K, one ``condition_certificate`` per K tried."""
    lo, hi = K_range

    def passes(K: float) -> bool:
        return condition_certificate(d, K, grid_spec).passed

    if passes(lo):
        return MinKResult(K=lo, bracket=(lo, lo), grid_spec=grid_spec)
    if not passes(hi):
        raise ValueError(f"not found in range: no K in ({lo:g}, {hi:g}] passes the condition on the grid")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if passes(mid):
            hi = mid
        else:
            lo = mid
    return MinKResult(K=hi, bracket=(lo, hi), grid_spec=grid_spec)
