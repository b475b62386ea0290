"""Non-negative univariate laws: cdf, left limit, survival, left quantile.

Each law is an immutable value.  The ``scale`` field multiplies the underlying
variable, so ``Exponential(rate=1.0, scale=2.0)`` is the law of ``2 * X`` with
``X`` standard exponential.  Quantiles are the left generalized inverse
``inf {t >= 0 : F(t) >= r}``; by convention ``quantile(0) == 0`` on
non-negative laws, and ``quantile(1)`` may be ``+inf`` for unbounded support.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, ClassVar, Iterable, Optional

import numpy as np
from scipy import special as sps

__all__ = [
    "Distribution",
    "Uniform01",
    "ParetoPower",
    "Exponential",
    "HalfGaussian",
    "PiecewiseLinearCdf",
    "Atomic",
    "MixtureCdf",
    "left_quantile_bisect",
]

_SQRT2 = math.sqrt(2.0)

# Bracket-doubling and bisection limits for numeric quantile inversion.  The
# stopping width is min(abs_tol * max(1, hi), rel_tol * hi) so answers stay
# accurate in relative terms even when the quantile is far below 1.
_MAX_DOUBLINGS = 200
_BISECT_ABS_TOL = 1e-12
_BISECT_REL_TOL = 1e-10

# Bisection levels per cdf call in the quantile search: a call asks for the
# 2**depth - 1 midpoints of a subtree that deep, or as many halvings or
# doublings of the bracket.
_PROBE_DEPTH = 4

# A mixture cdf call evaluates n component cdfs per point on top of a fixed
# cost; above this many components the fixed cost no longer pays for
# speculative probes (see _batches_probes).  On pool mixtures, batched and
# one-point searches take equal time at about 1000 to 1500 components.
_MIXTURE_BATCH_MAX_N = 1000


def _split(x) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def _wrap(out: np.ndarray, scalar: bool):
    return float(out) if scalar else out


@dataclass(frozen=True)
class Distribution:
    """Base class for a non-negative scalar law with a multiplicative scale.

    A parametric family names its positive real parameters in ``_params`` and
    writes its unit-scale cdf once, as ``_cdf_formula(x, *params)``.  The
    formula broadcasts over parameter arrays, so ``MixtureCdf.component_cdfs``
    evaluates every member of the family in one call to the same code; such
    families are continuous.  Other families leave ``_cdf_formula`` unset and
    override ``_unit_cdf``.
    """

    scale: float = field(default=1.0, kw_only=True)

    _params: ClassVar[tuple[str, ...]] = ()
    _cdf_formula: ClassVar[Optional[Callable[..., np.ndarray]]] = None

    def __post_init__(self) -> None:
        for name in ("scale", *self._params):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be a finite positive real, got {v!r}")
            object.__setattr__(self, name, float(v))

    # Subclass hooks, all expressed on the unit-scale law.

    def _unit_cdf(self, x: np.ndarray) -> np.ndarray:
        return self._cdf_formula(x, *(getattr(self, name) for name in self._params))

    def _unit_cdf_left(self, x: np.ndarray) -> np.ndarray:
        # Continuous laws: the left limit coincides with the cdf.
        return self._unit_cdf(x)

    def _unit_quantile(self, r: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _unit_special_points(self) -> tuple[float, ...]:
        return ()

    # Public surface.

    def cdf(self, t):
        """P{X <= t}; accepts a scalar or an array, returns the same shape."""
        x, scalar = _split(t)
        return _wrap(self._unit_cdf(x / self.scale), scalar)

    def cdf_left_limit(self, t):
        """P{X < t}, the left limit of the cdf at ``t``."""
        x, scalar = _split(t)
        return _wrap(self._unit_cdf_left(x / self.scale), scalar)

    def survival(self, t):
        """P{X > t}."""
        x, scalar = _split(t)
        return _wrap(1.0 - self._unit_cdf(x / self.scale), scalar)

    def quantile(self, r):
        """Left quantile inf{t : F(t) >= r} for r in [0, 1]."""
        x, scalar = _split(r)
        if np.any(np.isnan(x)) or np.any((x < 0.0) | (x > 1.0)):
            raise ValueError("quantile order must lie in [0, 1]")
        with np.errstate(divide="ignore"):
            out = self.scale * self._unit_quantile(x)
        out = np.where(x == 0.0, 0.0, out)
        return _wrap(out, scalar)

    def special_points(self) -> tuple[float, ...]:
        """Atom locations and cdf knots of the scaled law, ascending."""
        return tuple(self.scale * s for s in self._unit_special_points())

    def scaled(self, c: float) -> "Distribution":
        """The law of ``c * X`` for c > 0."""
        if not (math.isfinite(c) and c > 0):
            raise ValueError(f"scale factor must be a finite positive real, got {c!r}")
        return dataclasses.replace(self, scale=self.scale * float(c))


@dataclass(frozen=True)
class Uniform01(Distribution):
    """Uniform law on [0, scale]."""

    @staticmethod
    def _cdf_formula(x):
        return np.clip(x, 0.0, 1.0)

    def _unit_quantile(self, r: np.ndarray) -> np.ndarray:
        return np.asarray(r, dtype=float).copy()


@dataclass(frozen=True)
class ParetoPower(Distribution):
    """Power law F(t) = 1 - t**(-p) on [scale, inf), p > 0.

    Computed as -expm1(-p * log t): free of ``pow``, whose rounding differs
    between numpy scalars and arrays, and accurate in relative terms near
    t = 1, where 1 - t**(-p) cancels.
    """

    p: float = 1.0
    _params = ("p",)

    @staticmethod
    def _cdf_formula(x, p):
        return np.where(x >= 1.0, -np.expm1(-p * np.log(np.maximum(x, 1.0))), 0.0)

    def _unit_quantile(self, r: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return (1.0 - np.asarray(r, dtype=float)) ** (-1.0 / self.p)


@dataclass(frozen=True)
class Exponential(Distribution):
    """Exponential law with the given rate, F(t) = 1 - exp(-rate * t)."""

    rate: float = 1.0
    _params = ("rate",)

    @staticmethod
    def _cdf_formula(x, rate):
        return np.where(x > 0.0, -np.expm1(-rate * np.maximum(x, 0.0)), 0.0)

    def _unit_quantile(self, r: np.ndarray) -> np.ndarray:
        return -np.log1p(-np.asarray(r, dtype=float)) / self.rate


@dataclass(frozen=True)
class HalfGaussian(Distribution):
    """Law of |Z| for Z centered Gaussian with standard deviation sigma."""

    sigma: float = 1.0
    _params = ("sigma",)

    @staticmethod
    def _cdf_formula(x, sigma):
        return np.where(x > 0.0, sps.erf(np.maximum(x, 0.0) / (sigma * _SQRT2)), 0.0)

    def _unit_quantile(self, r: np.ndarray) -> np.ndarray:
        return self.sigma * _SQRT2 * sps.erfinv(np.asarray(r, dtype=float))


@dataclass(frozen=True)
class PiecewiseLinearCdf(Distribution):
    """Continuous cdf interpolating (t, F) knots, flat outside the knot range.

    Knots must have strictly increasing ``t >= 0`` and nondecreasing ``F``
    starting at 0 and ending at 1.  Flat F-segments are allowed and make the
    left quantile land on the left edge of the flat stretch.
    """

    knots: tuple[tuple[float, float], ...] = ((0.0, 0.0), (1.0, 1.0))

    def __post_init__(self) -> None:
        super().__post_init__()
        try:
            knots = tuple((float(t), float(f)) for t, f in self.knots)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"knots must be (t, F) pairs of reals, got {self.knots!r}") from exc
        if len(knots) < 2:
            raise ValueError("need at least two knots")
        ts = [t for t, _ in knots]
        fs = [f for _, f in knots]
        if ts[0] < 0 or not all(a < b for a, b in zip(ts, ts[1:])):
            raise ValueError("knot abscissae must be nonnegative and strictly increasing")
        if not all(a <= b for a, b in zip(fs, fs[1:])):
            raise ValueError("knot cdf values must be nondecreasing")
        if fs[0] != 0.0 or fs[-1] != 1.0:
            raise ValueError("knot cdf values must start at 0 and end at 1")
        object.__setattr__(self, "knots", knots)

    @cached_property
    def _kt(self) -> np.ndarray:
        return np.array([t for t, _ in self.knots])

    @cached_property
    def _kf(self) -> np.ndarray:
        return np.array([f for _, f in self.knots])

    def _unit_cdf(self, x: np.ndarray) -> np.ndarray:
        return np.interp(x, self._kt, self._kf, left=0.0, right=1.0)

    def _unit_quantile(self, r: np.ndarray) -> np.ndarray:
        rr = np.asarray(r, dtype=float)
        idx = np.searchsorted(self._kf, rr, side="left")
        idx = np.clip(idx, 1, self._kf.size - 1)
        lo_t, hi_t = self._kt[idx - 1], self._kt[idx]
        lo_f, hi_f = self._kf[idx - 1], self._kf[idx]
        with np.errstate(divide="ignore", invalid="ignore"):
            frac = (rr - lo_f) / (hi_f - lo_f)
        out = lo_t + np.where(hi_f > lo_f, frac, 1.0) * (hi_t - lo_t)
        # Orders at or below the first knot's cdf value resolve to that knot.
        return np.where(rr <= self._kf[0], self._kt[0], out)

    def _unit_special_points(self) -> tuple[float, ...]:
        return tuple(t for t, _ in self.knots)


@dataclass(frozen=True)
class Atomic(Distribution):
    """Purely atomic law on finitely many nonnegative points.

    ``atoms`` is a sequence of (value, weight) pairs with strictly increasing
    nonnegative values and positive weights summing to 1.
    """

    atoms: tuple[tuple[float, float], ...] = ((1.0, 1.0),)

    def __post_init__(self) -> None:
        super().__post_init__()
        try:
            atoms = tuple((float(v), float(w)) for v, w in self.atoms)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"atoms must be (value, weight) pairs of reals, got {self.atoms!r}") from exc
        if not atoms:
            raise ValueError("need at least one atom")
        vs = [v for v, _ in atoms]
        ws = [w for _, w in atoms]
        if vs[0] < 0 or not all(a < b for a, b in zip(vs, vs[1:])):
            raise ValueError("atom values must be nonnegative and strictly increasing")
        if not all(w > 0 for w in ws):
            raise ValueError("atom weights must be positive")
        if abs(math.fsum(ws) - 1.0) > 1e-9:
            raise ValueError(f"atom weights must sum to 1, got {math.fsum(ws)!r}")
        object.__setattr__(self, "atoms", atoms)

    @cached_property
    def _values(self) -> np.ndarray:
        return np.array([v for v, _ in self.atoms])

    @cached_property
    def _cumw(self) -> np.ndarray:
        c = np.cumsum([w for _, w in self.atoms])
        c[-1] = 1.0
        return c

    def _unit_cdf(self, x: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self._values, x, side="right")
        return np.where(idx > 0, self._cumw[np.maximum(idx, 1) - 1], 0.0)

    def _unit_cdf_left(self, x: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self._values, x, side="left")
        return np.where(idx > 0, self._cumw[np.maximum(idx, 1) - 1], 0.0)

    def _unit_quantile(self, r: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self._cumw, r, side="left")
        return self._values[np.minimum(idx, self._values.size - 1)]

    def _unit_special_points(self) -> tuple[float, ...]:
        return tuple(v for v, _ in self.atoms)


def left_quantile_bisect(
    cdf: Callable[[np.ndarray], np.ndarray],
    r: float,
    candidates: Iterable[float] = (),
    *,
    _batched: bool = True,
) -> float:
    """Left quantile of a nondecreasing cdf on [0, inf) by bracketed bisection.

    The bracket starts at [0, 1] and is halved or doubled until it holds the
    answer, then bisected down to a width of
    min(abs_tol * max(1, hi), rel_tol * hi).  ``candidates`` are abscissae
    where the cdf may jump or kink; after the bracket collapses, the smallest
    candidate inside it that already reaches ``r`` is returned so that atoms
    come out exact rather than within the bisection tolerance.

    ``cdf`` must accept a 1-D array of abscissae and return their cdf values
    (an array of the same shape, or one scalar for all of them), each equal
    to the value at that abscissa alone.  The search asks for many points per
    call: the next 15 halvings or doublings of the bracket, every midpoint of
    the next four levels of bisection, or every candidate in the collapsed
    bracket.  It then walks them exactly as plain one-point-per-call
    bisection would, so it returns the same value as plain bisection, from
    about a quarter of the calls.
    """
    # The package's own searches pass _batched=_batches_probes(...): a cdf
    # whose cost per point is large asks for one bisection level per call.
    r = float(r)
    if not 0.0 <= r <= 1.0:
        raise ValueError("quantile order must lie in [0, 1]")
    if r == 0.0:
        return 0.0
    depth = _PROBE_DEPTH if _batched else 1
    probes = 2**depth - 1

    known: dict[float, float] = {}

    def value(t: float, batch: Callable[[], list[float]]) -> float:
        # cdf(t); on a miss, one cdf call at t and at every point of batch().
        if t not in known:
            ts = np.array(list(dict.fromkeys([t, *batch()])), dtype=float)
            vals = np.asarray(cdf(ts))
            if vals.shape != ts.shape:
                vals = np.broadcast_to(vals, ts.shape)
            known.update(zip(ts.tolist(), vals.tolist()))
        return known[t]

    def halvings(t: float) -> list[float]:
        # The loop below probes no further once the bracket is subnormal.
        out = []
        while len(out) < probes - 1 and t > 5e-324:
            t /= 2.0
            out.append(t)
        return out

    def doublings(t: float) -> list[float]:
        out = []
        while len(out) < probes - 1:
            t *= 2.0
            out.append(t)
        return out

    def subtree() -> list[float]:
        # Every midpoint of the next ``depth`` levels of bisection of
        # [lo, hi], computed as the loop below computes them.
        level, out = [(lo, hi)], []
        for _ in range(depth):
            pairs = []
            for a, b in level:
                m = 0.5 * (a + b)
                out.append(m)
                pairs += [(a, m), (m, b)]
            level = pairs
        return out

    if value(0.0, lambda: [1.0]) >= r:
        return 0.0

    hi = 1.0
    if value(hi, lambda: []) >= r:
        # Shrink downward so the bracket, and hence the stopping tolerance,
        # tracks the magnitude of the answer.
        for _ in range(_MAX_DOUBLINGS):
            if hi <= 5e-324 or value(hi / 2.0, lambda: halvings(hi / 2.0)) < r:
                lo = hi / 2.0
                break
            hi /= 2.0
        else:
            lo = 0.0
    else:
        for _ in range(_MAX_DOUBLINGS):
            hi *= 2.0
            if value(hi, lambda: doublings(hi)) >= r:
                break
        else:
            raise ValueError(f"quantile order {r!r} not reached below t = {hi:g}")
        lo = hi / 2.0

    while hi - lo > min(_BISECT_ABS_TOL * max(1.0, hi), _BISECT_REL_TOL * hi):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if value(mid, subtree) >= r:
            hi = mid
        else:
            lo = mid

    eps = min(_BISECT_ABS_TOL * max(1.0, hi), _BISECT_REL_TOL * hi)
    inside = [float(c) for c in sorted(candidates) if lo < c <= hi + eps]
    with_below = [x for c in inside for x in (c, float(np.nextafter(c, -np.inf)))]
    for c in inside:
        if value(c, lambda: with_below) >= r:
            below = float(np.nextafter(c, -np.inf))
            if below <= lo or value(below, lambda: []) < r:
                return float(c)
            break
    return float(hi)


def _batches_probes(width: int, max_width: int) -> bool:
    """Whether a quantile search should batch probes for a cdf costing about a + b * width per point.

    Speculative probes pay while the fixed cost a of a call dominates, that
    is up to ``max_width``, which each caller measures for its own cdf;
    above it the search asks for one point per call.
    """
    return width <= max_width


@dataclass(frozen=True)
class MixtureCdf:
    """Equal-weight mixture of component laws: F(t) = (1/n) * sum_i F_i(t)."""

    components: tuple[Distribution, ...]

    def __post_init__(self) -> None:
        comps = tuple(self.components)
        if not comps:
            raise ValueError("need at least one component")
        for c in comps:
            if not isinstance(c, Distribution):
                raise TypeError(f"components must be distributions, got {type(c).__name__}")
        object.__setattr__(self, "components", comps)

    @property
    def n(self) -> int:
        return len(self.components)

    @cached_property
    def _batch(self) -> tuple[list, list]:
        # One (indices, formula, scales, parameter arrays) group per
        # parametric family, and the (index, law) pairs of the other laws.
        members: dict[type, list[int]] = {}
        others = []
        for i, d in enumerate(self.components):
            if d._cdf_formula is None:
                others.append((i, d))
            else:
                members.setdefault(type(d), []).append(i)
        groups = [
            (
                np.array(idx, dtype=np.intp),
                cls._cdf_formula,
                np.array([self.components[i].scale for i in idx]),
                [np.array([getattr(self.components[i], name) for i in idx]) for name in cls._params],
            )
            for cls, idx in members.items()
        ]
        return groups, others

    def component_cdfs(self, t, left: bool = False) -> np.ndarray:
        """F_i(t), or F_i(t-) if ``left``, as an array of shape ``shape(t) + (n,)``.

        Each parametric family is evaluated in one call of its
        ``_cdf_formula`` on stacked parameters, the same code ``d.cdf`` runs,
        so the values equal ``d.cdf(t)`` bit for bit as long as numpy's
        elementwise functions do not depend on the array's shape; the test
        suite checks that over every family.  Other laws are called one at a
        time.
        """
        t = np.asarray(t, dtype=float)
        groups, others = self._batch
        out = np.empty(t.shape + (self.n,))
        # Filling the transpose, components first, takes a plain row index,
        # and a float divides faster than a 0-d array; neither changes a bit.
        rows = out.T
        x = t[..., None] if t.ndim else float(t)
        for idx, formula, scales, params in groups:
            rows[idx] = formula(x / scales, *params).T
        for i, d in others:
            rows[i] = d.cdf_left_limit(t.T) if left else d.cdf(t.T)
        return out

    def cdf(self, t):
        # The mean over the contiguous last axis sums each row pairwise, the
        # same way for a scalar t as for every element of an array t.
        x, scalar = _split(t)
        return _wrap(self.component_cdfs(x).mean(axis=-1), scalar)

    def cdf_left_limit(self, t):
        x, scalar = _split(t)
        return _wrap(self.component_cdfs(x, left=True).mean(axis=-1), scalar)

    def survival(self, t):
        x, scalar = _split(t)
        return _wrap(1.0 - np.asarray(self.cdf(x)), scalar)

    def quantile(self, r):
        x, scalar = _split(r)
        if not scalar:
            return np.array([self.quantile(float(v)) for v in x.ravel()]).reshape(x.shape)
        r = float(x)
        if np.isnan(r) or not 0.0 <= r <= 1.0:
            raise ValueError("quantile order must lie in [0, 1]")
        if r == 0.0:
            return 0.0
        if r == 1.0:
            return float(max(c.quantile(1.0) for c in self.components))
        batched = _batches_probes(self.n, _MIXTURE_BATCH_MAX_N)
        return left_quantile_bisect(self.cdf, r, self.special_points(), _batched=batched)

    def special_points(self) -> tuple[float, ...]:
        return self._special_points

    @cached_property
    def _special_points(self) -> tuple[float, ...]:
        # Every quantile search asks for these; build them once per mixture.
        pts: set[float] = set()
        for c in self.components:
            pts.update(c.special_points())
        return tuple(sorted(pts))
