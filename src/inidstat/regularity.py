"""Grid certificates for the odds-doubling growth condition on a cdf.

The central inequality, for a fixed K > 1 and all t > 0, is

    F(Kt) / (1 - F(Kt))  >=  2 * F(t) / (1 - F(t)),

checked here in the division-free form F(Kt)*(1-F(t)) >= 2*F(t)*(1-F(Kt)),
which is numerically total (no 1/0 special cases) and equivalent.  A passing
certificate is necessary evidence on finitely many grid points, not a proof
for all t > 0; every certificate carries that caveat.

Each form is a second point u(t) and its sides (``_FORMS``, and the growth
lemma's).  The one evaluator, ``_evaluate``, gives F(t) and F(u(t)) by blocks of
laws: a law with atoms or knots alone on its own grid, the plain laws together.
The one judge, ``_assemble``, rules on each law's worst margin by ``_holds``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from ._record import Record, _Verdict
from .dist import Distribution, MixtureCdf, _integer, _real

__all__ = [
    "GridSpec",
    "DEFAULT_GRID",
    "MARGIN_TOL",
    "GRID_NOTE",
    "RegularityCertificate",
    "GrowthLemmaReport",
    "MinKResult",
    "RegularityPreconditionError",
    "pointwise_margins",
    "check_condition",
    "check_condition_batch",
    "check_measure_form",
    "check_weak_condition",
    "check_lemma_growth",
    "find_min_K",
]

MARGIN_TOL = 1e-12

GRID_NOTE = "grid certificate: necessary evidence at finitely many t, not a proof for all t > 0"


@dataclass(frozen=True)
class GridSpec(Record):
    """Log-spaced evaluation grid on [t_min, t_max], endpoints included."""

    t_min: float = 1e-6
    t_max: float = 1e6
    points_per_decade: int = 64

    def __post_init__(self) -> None:
        t_min = _real(self.t_min, "t_min", positive=True)
        t_max = _real(self.t_max, "t_max", positive=True)
        if not t_min < t_max:
            raise ValueError(f"need 0 < t_min < t_max finite, got ({self.t_min!r}, {self.t_max!r})")
        ppd = _integer(self.points_per_decade, "points_per_decade")
        if ppd < 1:
            raise ValueError(f"points_per_decade must be a positive integer, got {ppd}")
        object.__setattr__(self, "t_min", t_min)
        object.__setattr__(self, "t_max", t_max)
        object.__setattr__(self, "points_per_decade", ppd)

    def points(self) -> np.ndarray:
        decades = math.log10(self.t_max) - math.log10(self.t_min)
        count = max(2, math.ceil(decades * self.points_per_decade) + 1)
        pts = np.logspace(math.log10(self.t_min), math.log10(self.t_max), count)
        pts[0] = self.t_min
        pts[-1] = self.t_max
        return pts

    def points_for(self, d: Distribution) -> np.ndarray:
        """Grid points plus the law's atoms/knots and their +-1 ulp neighbours.

        Jump points are the only places a step cdf can hide a violation
        between plain grid points, so they are probed regardless of whether
        they fall inside [t_min, t_max].
        """
        pts = [self.points()]
        for s in d.special_points():
            # Past the largest double math.nextafter gives inf, with no warning; it is dropped.
            trio = np.array([math.nextafter(s, -math.inf), s, math.nextafter(s, math.inf)])
            pts.append(trio[(trio > 0.0) & (trio < math.inf)])
        return np.unique(np.concatenate(pts))


DEFAULT_GRID = GridSpec()


@dataclass(frozen=True)
class RegularityCertificate(Record, _Verdict):
    """Outcome of one grid check: worst margin, verdict, and fail witness."""

    check: str
    K: float
    grid_spec: GridSpec
    n_points: int
    margin: float
    verdict: str
    witness: Optional[tuple[float, float, float]]
    note: str = GRID_NOTE


class RegularityPreconditionError(ValueError):
    """Raised when an operation requires a passing condition certificate."""

    def __init__(self, message: str, certificate: RegularityCertificate):
        super().__init__(message)
        self.certificate = certificate


# ln of the largest double and -ln of the smallest normal one, by the sign of
# an exponent, pulled in by 1e-12 so that no rounding carries a power past them.
_LN_RANGE = {1: math.log(sys.float_info.max) * (1 - 1e-12), -1: -math.log(sys.float_info.min) * (1 - 1e-12)}


def _max_power(K: float, sign: int = 1) -> int:
    # The largest e with K**(sign * e) a normal double, for K > 1 (one short at the very edge).
    return math.floor(_LN_RANGE[sign] / math.log(K))


def _check_K(K) -> float:
    K = _real(K, "K")
    if not K > 1.0:
        raise ValueError(f"K must be a finite real > 1, got {K!r}")
    return K


def _holds(margin):
    """The margin rule: a point passes unless it falls short by more than MARGIN_TOL."""
    return margin >= -MARGIN_TOL


def _assemble(check: str, K: float, grid_spec: GridSpec, t, lhs, rhs, applicable=None) -> list[RegularityCertificate]:
    # One certificate per row of the (laws, points) arrays lhs and rhs, each
    # judged on its worst margin over the points t where ``applicable`` holds
    # (all of them if None); a row with no such point passes with margin inf.
    margin = lhs - rhs if applicable is None else np.where(applicable, lhs - rhs, math.inf)
    at = margin.argmin(axis=1)
    certs = []
    for j, (i, worst) in enumerate(zip(at.tolist(), margin[np.arange(at.size), at].tolist())):
        witness = None if _holds(worst) else (float(t[i]), float(lhs[j, i]), float(rhs[j, i]))
        certs.append(RegularityCertificate(check, K, grid_spec, t.size, worst, "fail" if witness else "pass", witness))
    return certs


def _evaluate(laws: tuple[Distribution, ...], grid_spec: GridSpec):
    """Yield (t, at) per job of ``laws``; ``at(*points)`` yields (indices, F(u(t)) for each u) by blocks.

    The one evaluator of every form.  A law with atoms or knots is a job
    alone, on its own grid; the laws without share the plain grid as one job.
    ``at`` takes functions u of the grid t (``_same`` for F(t)) and runs the
    job's ``MixtureCdf.family_blocks`` once per u; ``indices`` index ``laws``.
    """
    special = [bool(d.special_points()) for d in laws]
    plain = [i for i, s in enumerate(special) if not s]
    for job in [[i] for i, s in enumerate(special) if s] + ([plain] if plain else []):
        # The grid is built when its job runs, so only one is held at a time.
        t = grid_spec.points_for(laws[job[0]])

        def at(*points, t=t, mixture=MixtureCdf(tuple(laws[i] for i in job)), job=np.array(job)):
            # u(t) may overflow to inf, where every cdf formula gives its right limit 1: no warning is due.
            with np.errstate(over="ignore"):
                xs = [u(t) for u in points]
            for blocks in zip(*map(mixture.family_blocks, xs)):
                yield (job[blocks[0][0]], *(values for _, values in blocks))

        yield t, at


def _same(t):
    return t


# Each form by name: its second point u(t) at K, and its sides (lhs, rhs, and
# the mask of the points where it applies, None for all) from F(t) and F(u(t)).
_FORMS = {
    "condition": (lambda K: lambda t: K * t, lambda ft, fu: (fu * (1.0 - ft), 2.0 * ft * (1.0 - fu), None)),
    "measure-form": (lambda K: lambda t: K * t, lambda ft, fu: (fu - ft, ft * (1.0 - fu), None)),
    "weak-condition": (lambda K: lambda t: t / (K * K), lambda ft, fu: (ft, 2.0 * fu, ft <= 0.5)),
}


def pointwise_margins(
    d: Distribution, K, grid_spec: GridSpec = DEFAULT_GRID, form: str = "condition"
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """(t, lhs, rhs, n_grid) of the chosen inequality at each applicable point.

    Forms: "condition" compares F(Kt)*(1-F(t)) with 2*F(t)*(1-F(Kt));
    "measure-form" compares F(Kt)-F(t) with F(t)*(1-F(Kt)); "weak-condition"
    compares F(t) with 2*F(t/K^2) restricted to points where F(t) <= 1/2.
    """
    cert, *arrays = _pointwise_certificate(d, K, grid_spec, form)
    return (*arrays, cert.n_points)


def check_condition(d: Distribution, K, grid_spec: GridSpec = DEFAULT_GRID) -> RegularityCertificate:
    """Certify F(Kt)*(1-F(t)) >= 2*F(t)*(1-F(Kt)) on the grid."""
    return check_condition_batch((d,), K, grid_spec)[0]


def check_condition_batch(
    laws: Iterable[Distribution], K, grid_spec: GridSpec = DEFAULT_GRID
) -> tuple[RegularityCertificate, ...]:
    """``check_condition`` for each law, in order; repeats share one certificate object.

    Each distinct law is certified once, with the certificate it gets alone,
    through the one evaluator ``_evaluate``.  Laws without atoms or knots share
    the plain grid: per run of a family block, one cdf formula call at t and
    one at K*t, then one subtraction and one argmin over the run's rows.  A
    law with atoms or knots is a job of its own, on its own grid.  The working
    memory stays near a few runs whatever the number of laws.
    """
    K = _check_K(K)
    laws = tuple(laws)
    distinct = tuple(dict.fromkeys(laws))
    condition, sides = _FORMS["condition"]
    certs = {}
    for t, at in _evaluate(distinct, grid_spec):
        for rows, ft, fkt in at(_same, condition(K)):
            lhs, rhs, _ = sides(ft, fkt)
            for j, cert in zip(rows.tolist(), _assemble("condition", K, grid_spec, t, lhs, rhs)):
                certs[distinct[j]] = cert
    return tuple(certs[d] for d in laws)


def check_measure_form(d: Distribution, K, grid_spec: GridSpec = DEFAULT_GRID) -> RegularityCertificate:
    """Certify the mass form F(Kt) - F(t) >= F(t)*(1 - F(Kt)) on the grid.

    Both margins rearrange to F(Kt) - 2*F(t) + F(t)*F(Kt), so pointwise
    verdicts necessarily agree with check_condition.
    """
    return _pointwise_certificate(d, K, grid_spec, "measure-form")[0]


def check_weak_condition(d: Distribution, K, grid_spec: GridSpec = DEFAULT_GRID) -> RegularityCertificate:
    """Certify F(t) >= 2*F(t/K^2) at grid points where F(t) <= 1/2."""
    return _pointwise_certificate(d, K, grid_spec, "weak-condition")[0]


def _pointwise_certificate(d: Distribution, K, grid_spec: GridSpec, form: str):
    # One law's certificate in one form, with the (t, lhs, rhs) arrays where the form applies.
    K = _check_K(K)
    if form not in _FORMS:
        raise ValueError(f"unknown inequality form {form!r}")
    second, sides = _FORMS[form]
    [(t, at)] = _evaluate((d,), grid_spec)
    [(_, ft, fu)] = at(_same, second(K))
    lhs, rhs, applicable = sides(ft, fu)
    keep = slice(None) if applicable is None else applicable[0]
    return _assemble(form, K, grid_spec, t, lhs, rhs, applicable)[0], t[keep], lhs[0, keep], rhs[0, keep]


@dataclass(frozen=True)
class GrowthLemmaReport(Record, _Verdict):
    """Joint certificate for the two iterated-growth inequalities.

    For ell >= 1 and gamma in (0, 1):
      growth:    F(t) >= 2^ell * (1 - F(t)) * F(t / K^ell)       at all grid t,
      survival:  1 - F(t/K^ell) >= (2^ell / (2^ell * gamma + 1)) * (1 - F(t))
                 at grid t where F(t) >= 1 - gamma.
    """

    K: float
    ell: int
    gamma: float
    grid_spec: GridSpec
    n_points: int
    n_survival_points: int
    margin_growth: float
    margin_survival: float
    verdict: str
    witnesses: tuple[tuple[str, float, float, float], ...]
    note: str = GRID_NOTE


def check_lemma_growth(
    d: Distribution, K, ell: int, gamma: float, grid_spec: GridSpec = DEFAULT_GRID
) -> GrowthLemmaReport:
    """Certify the iterated consequences of the condition at step count ell.

    Requires a passing condition certificate at K first; the iteration is a
    consequence of the condition and is meaningless without it.  K^ell and
    2^ell must be finite; an empty survival set passes with margin inf.
    """
    K = _check_K(K)
    ell = _integer(ell, "ell")
    most = _max_power(max(K, 2.0))
    if not 1 <= ell <= most:
        raise ValueError(f"ell must lie in [1, {most}] at K={K:g}, where K^ell and 2^ell stay finite; got {ell}")
    gamma = _real(gamma, "gamma")
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie strictly in (0, 1), got {gamma!r}")

    # One evaluation at t, K*t and t/K^ell judges the precondition, growth and survival.
    [(t, at)] = _evaluate((d,), grid_spec)
    condition, sides = _FORMS["condition"]
    [(_, ft, fkt, ftl)] = at(_same, condition(K), lambda t: t / K**ell)
    pre = _assemble("condition", K, grid_spec, t, *sides(ft, fkt))[0]
    if not pre.passed:
        raise RegularityPreconditionError(
            f"growth check needs the condition to hold at K={K:g}; it fails on the grid with margin {pre.margin:.3e}",
            pre,
        )

    pow2 = 2.0**ell
    applicable = ft >= 1.0 - gamma
    [growth] = _assemble("growth", K, grid_spec, t, ft, pow2 * (1.0 - ft) * ftl)
    [survival] = _assemble("survival", K, grid_spec, t, 1.0 - ftl, pow2 / (pow2 * gamma + 1.0) * (1.0 - ft), applicable)
    return GrowthLemmaReport(
        K=K,
        ell=ell,
        gamma=gamma,
        grid_spec=grid_spec,
        n_points=t.size,
        n_survival_points=int(np.count_nonzero(applicable)),
        margin_growth=growth.margin,
        margin_survival=survival.margin,
        verdict="pass" if growth.passed and survival.passed else "fail",
        witnesses=tuple((c.check, *c.witness) for c in (growth, survival) if c.witness is not None),
    )


@dataclass(frozen=True)
class MinKResult(Record):
    """Smallest passing K found by bisection over a K-range.

    ``assumes_monotone_in_K`` records that the bisection treats the pass
    verdict as monotone in K.  At any fixed t the cross-multiplied margin is
    nondecreasing in K, which justifies this on the probed grid, but the
    result is still grid-limited and should not be read as sharp.
    """

    K: float
    bracket: tuple[float, float]
    grid_spec: GridSpec
    assumes_monotone_in_K: bool = True


def find_min_K(
    d: Distribution, grid_spec: GridSpec = DEFAULT_GRID, K_range: tuple[float, float] = (1.01, 8.0), tol: float = 1e-3
) -> MinKResult:
    """Bisect for the smallest K in K_range whose condition check passes.

    Returns the passing end of the final bracket, so the reported K always
    certifies.  Raises ValueError when even the top of the range fails.
    """
    try:
        lo, hi = K_range
    except (TypeError, ValueError):
        raise ValueError(f"K_range must be two numbers (K_lo, K_hi), got {K_range!r}") from None
    lo, hi = _real(lo, "K_range[0]"), _real(hi, "K_range[1]")
    if not (1.0 < lo < hi):
        raise ValueError(f"K_range must satisfy 1 < K_lo < K_hi, got {K_range!r}")
    tol = _real(tol, "tol")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol!r}")

    # F(t) does not depend on K: it is evaluated once, and F(K*t) once per K tried.
    [(t, at)] = _evaluate((d,), grid_spec)
    [(_, ft)] = at(_same)
    condition, sides = _FORMS["condition"]

    def passes(K: float) -> bool:
        [(_, fkt)] = at(condition(K))
        return _assemble("condition", K, grid_spec, t, *sides(ft, fkt))[0].passed

    if passes(lo):
        return MinKResult(K=lo, bracket=(lo, lo), grid_spec=grid_spec)
    if not passes(hi):
        raise ValueError(f"not found in range: no K in ({lo:g}, {hi:g}] passes the condition on the grid")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        lo, hi = (lo, mid) if passes(mid) else (mid, hi)
    return MinKResult(K=hi, bracket=(lo, hi), grid_spec=grid_spec)
