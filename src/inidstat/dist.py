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
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, ClassVar, Iterable, Iterator, Optional, Sequence

import numpy as np

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

# Quantile search limits.  The stopping width is
# min(abs_tol * max(1, hi), rel_tol * hi) so answers stay accurate in relative
# terms even when the quantile is far below 1; answers above 2**200 (200
# doublings of 1) are reported as not reached.
_BISECT_ABS_TOL = 1e-12
_BISECT_REL_TOL = 1e-10
_LIMIT = 2.0**200

# The cold bracket, in the order probed, four per call, until none is left
# inside: 0, 1, 2**-4, 2**4, 2**-8, 2**8, ..., 2**-1024, 2**200 and 5e-324.
_LADDER = tuple(dict.fromkeys([0.0, 1.0, *(2.0**e for m in range(2, 11) for e in (-(2**m), min(2**m, 200))), 5e-324]))

# Relative distances from a guess to the inner and outer points of the first call.
_GUESS_NEAR, _GUESS_FAR = 2e-3, 2e-2


def _split(x) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def _wrap(out: np.ndarray, scalar: bool):
    return float(out) if scalar else out


@dataclass(frozen=True)
class Distribution:
    """Base class for a non-negative scalar law with a multiplicative scale.

    A parametric family names its positive real parameters in ``_params`` and
    writes its unit-scale cdf and quantile once each, as
    ``_cdf_formula(x, *params)`` and ``_quantile_formula(r, *params)``.  The
    formulas broadcast over parameter arrays, so ``MixtureCdf.family_blocks``
    and ``MixtureCdf.family_quantiles`` evaluate every member of the family
    in one call to the same code; such families are continuous.  A parameter
    named in ``_scalar_params`` reaches the quantile formula as a Python
    float, never as an array: a mixture keeps one block per value of it.
    Other families leave the formulas unset and override ``_unit_cdf`` and
    ``_unit_quantile``.
    """

    scale: float = field(default=1.0, kw_only=True)

    _params: ClassVar[tuple[str, ...]] = ()
    _scalar_params: ClassVar[tuple[str, ...]] = ()
    _cdf_formula: ClassVar[Optional[Callable[..., np.ndarray]]] = None
    _quantile_formula: ClassVar[Optional[Callable[..., np.ndarray]]] = None
    # Laws with atoms or knots compute theirs once, as a cached property.
    _special_points: ClassVar[tuple[float, ...]] = ()

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
        return self._quantile_formula(r, *(getattr(self, name) for name in self._params))

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
        """P{X > t} as ``1 - cdf(t)``: accurate in absolute terms only.

        ``Exponential(1).survival(50.0)`` returns 0.0; the true value is 1.9e-22.
        """
        x, scalar = _split(t)
        return _wrap(1.0 - self._unit_cdf(x / self.scale), scalar)

    def quantile(self, r):
        """Left quantile inf{t : F(t) >= r} for r in [0, 1]."""
        x, scalar = _split(r)
        # min and max propagate NaN, which fails both comparisons.
        if not ((low := x.min(initial=1.0)) >= 0.0 and x.max(initial=0.0) <= 1.0):
            raise ValueError("quantile order must lie in [0, 1]")
        with np.errstate(divide="ignore"):
            out = self.scale * self._unit_quantile(x)
        if low == 0.0:
            out = np.where(x == 0.0, 0.0, out)
        return _wrap(out, scalar)

    def special_points(self) -> tuple[float, ...]:
        """Atom locations and cdf knots of the scaled law, ascending."""
        return self._special_points

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

    @staticmethod
    def _quantile_formula(r):
        return r


@dataclass(frozen=True)
class ParetoPower(Distribution):
    """Power law F(t) = 1 - t**(-p) on [scale, inf), p > 0.

    The cdf is computed as -expm1(-p * log t): free of ``pow``, whose
    rounding differs between numpy scalars and arrays, and accurate in
    relative terms near t = 1, where 1 - t**(-p) cancels.  The quantile
    (1 - r)**(-1/p) does use ``pow``, so p is a scalar parameter: at p = 1
    numpy computes ``array ** -1.0`` through a reciprocal only when the
    exponent is a Python float, and a broadcast exponent array differs from
    that in the last bit for about 5% of the orders.
    """

    p: float = 1.0
    _params = ("p",)
    _scalar_params = ("p",)

    @staticmethod
    def _cdf_formula(x, p):
        return np.where(x >= 1.0, -np.expm1(-p * np.log(np.maximum(x, 1.0))), 0.0)

    @staticmethod
    def _quantile_formula(r, p):
        return (1.0 - r) ** (-1.0 / p)


@dataclass(frozen=True)
class Exponential(Distribution):
    """Exponential law with the given rate, F(t) = 1 - exp(-rate * t)."""

    rate: float = 1.0
    _params = ("rate",)

    @staticmethod
    def _cdf_formula(x, rate):
        return np.where(x > 0.0, -np.expm1(-rate * np.maximum(x, 0.0)), 0.0)

    @staticmethod
    def _quantile_formula(r, rate):
        return -np.log1p(-r) / rate


@dataclass(frozen=True)
class HalfGaussian(Distribution):
    """Law of |Z| for Z centered Gaussian with standard deviation sigma."""

    sigma: float = 1.0
    _params = ("sigma",)

    @staticmethod
    def _cdf_formula(x, sigma):
        # scipy.special is loaded on first use, so laws without it start fast.
        from scipy.special import erf

        return np.where(x > 0.0, erf(np.maximum(x, 0.0) / (sigma * _SQRT2)), 0.0)

    @staticmethod
    def _quantile_formula(r, sigma):
        from scipy.special import erfinv

        return sigma * _SQRT2 * erfinv(r)


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

    @cached_property
    def _special_points(self) -> tuple[float, ...]:
        return tuple(self.scale * t for t, _ in self.knots)


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

    @cached_property
    def _special_points(self) -> tuple[float, ...]:
        return tuple(self.scale * v for v, _ in self.atoms)


def left_quantile_bisect(
    cdf: Callable[[np.ndarray], np.ndarray],
    r: float,
    candidates: Iterable[float] = (),
    guess: Optional[float] = None,
) -> float:
    """Left quantile of a nondecreasing cdf on [0, inf) by a safeguarded bracketed search.

    The bracket lo < answer <= hi narrows until it is no wider than
    min(abs_tol * max(1, hi), rel_tol * hi); the answer is hi, or a
    ``candidates`` abscissa (an atom or knot) that is the exact answer.  A
    ``guess`` makes the first call probe guess * (1 -+ 2e-3) and guess * (1
    -+ 2e-2), or the guess and the float below it if it is a candidate.
    Without one, or when it misses, the bracket grows through 0, 1, 2**-4,
    2**4, 2**-8, ... up to 2**200, as cold, so a bad guess costs one call.
    Then each call probes x and x -+ err (and the middle of a rest over half
    the bracket), on log t while hi > 2 * lo: x interpolates the inverse
    cdf through lo, hi and the nearest known points outside (regula falsi,
    then quadratic and cubic), and err is its last change.  A step that does
    not halve the bracket is followed by four evenly spaced points, or two
    and a candidate with the float below it.

    ``cdf`` must accept a 1-D array of at most four abscissae and return
    their cdf values (an array of that shape, or one scalar for all).  The
    answer agrees with plain bisection within the stopping width.
    """
    r = float(r)
    if not 0.0 <= r <= 1.0:
        raise ValueError("quantile order must lie in [0, 1]")
    if r == 0.0:
        return 0.0
    return _run_searches(cdf, [_search(r, sorted(float(c) for c in candidates), guess)])[0]


def _run_searches(cdf, searches: list) -> list[float]:
    # Runs _search generators side by side: each step is one cdf call on
    # the probes of every search still running.
    out, asks = [0.0] * len(searches), {i: next(s) for i, s in enumerate(searches)}
    while asks:
        ts = np.array([t for probes in asks.values() for t in probes])
        vals = np.asarray(cdf(ts))
        vals, pos, running = (vals if vals.shape == ts.shape else np.broadcast_to(vals, ts.shape)).tolist(), 0, {}
        for i, probes in asks.items():
            try:
                running[i] = searches[i].send(vals[pos : pos + len(probes)])
            except StopIteration as done:
                out[i] = done.value
            pos += len(probes)
        asks = running
    return out


def _width(hi: float) -> float:
    return min(_BISECT_ABS_TOL * max(1.0, hi), _BISECT_REL_TOL * hi)


def _search(r: float, candidates: Sequence[float], guess: Optional[float]):
    # The steps of left_quantile_bisect for 0 < r <= 1: yields at most four
    # abscissae, is sent their cdf values and returns the quantile.
    known: dict[float, float] = {}
    lo = hi = None  # cdf(lo) < r <= cdf(hi); None while unknown

    def ask(ts):
        # Evaluates the new points of ts; the least of ts inside the bracket
        # reaching r is then hi, and the greatest below it not reaching r lo.
        nonlocal lo, hi
        if new := [t for t in dict.fromkeys(ts) if t not in known]:
            known.update(zip(new, (yield new)))
        inside = sorted(t for t in ts if (lo is None or t > lo) and (hi is None or t < hi))
        hi = next((t for t in inside if known[t] >= r), hi)
        lo = next((t for t in reversed(inside) if known[t] < r and (hi is None or t < hi)), lo)

    if guess is not None and 0.0 < (g := float(guess)) < math.inf:
        near = [math.nextafter(g, 0.0), g] if g in candidates else [g * (1 - _GUESS_NEAR), g * (1 + _GUESS_NEAR)]
        yield from ask([min(t, _LIMIT) for t in (g * (1 - _GUESS_FAR), *near, g * (1 + _GUESS_FAR))])
    if hi is None or not lo:
        while ladder := [t for t in _LADDER if (lo is None or t > lo) and (hi is None or t < hi)][:4]:
            yield from ask(ladder)
            if known.get(0.0, 0.0) >= r:
                return 0.0
        if hi is None:
            raise ValueError(f"quantile order {r!r} not reached below t = {_LIMIT:g}")

    halve = False
    while hi - lo > _width(hi) and math.nextafter(lo, math.inf) < hi:
        v = math.log if hi > 2.0 * lo else float
        a, b = v(lo), v(hi)
        w, tol = b - a, _width(hi) / (hi if v is math.log else 1.0)
        x, err = 0.5 * (a + b), math.inf
        if not halve:
            # Neville's scheme for x(F) at F = r, one node more per order
            # while the cdf values differ; x is the highest order inside.
            outer = [max((t for t in known if 0.0 < t < lo), default=0.0), min((t for t in known if t > hi), default=0.0)]
            outer = sorted(filter(None, outer), key=lambda t: max(a - v(t), v(t) - b))
            xs, fs, est = [a], [known[lo]], []
            for t in (hi, *outer):
                if known[t] in fs:
                    break
                xs.append(v(t))
                fs.append(known[t])
                for j in range(len(fs) - 2, -1, -1):
                    xs[j] = ((r - fs[-1]) * xs[j] - (r - fs[j]) * xs[j + 1]) / (fs[j] - fs[-1])
                est.append(min(max(xs[0], a), b))
            if len(est) > 1:
                i = max((i for i, e in enumerate(est) if a < e < b), default=0)
                x, err = est[i], abs(est[i] - est[i - 1 if i else 1])
        exact = []
        if 4.0 * err < w:
            pts = [x - tol / 3.0, x + tol / 3.0] if err <= tol / 3.0 else [x - err, x, x + err]
            left, right = x - err - a, b - x - err
            if len(pts) > 2 and max(left, right) > 0.5 * w:
                pts.append(a + 0.5 * left if left > right else b - 0.5 * right)
        elif inside := candidates[bisect_right(candidates, lo) : bisect_left(candidates, hi)]:
            c = min(inside, key=lambda c: abs(v(c) - x))
            pts, exact = [a + w / 3.0, b - w / 3.0], [math.nextafter(c, 0.0), c]
        else:
            pts = [a + w * j / 5.0 for j in range(1, 5)]
        ts = [t for t in (*(math.exp(p) if v is math.log else p for p in pts), *exact) if lo < t < hi]
        yield from ask(ts or [math.nextafter(lo, math.inf)])
        halve = 4.0 * err < w and v(hi) - v(lo) > 0.5 * w

    # Snap to a candidate that is the exact answer.
    top = float(hi)
    for c in candidates[bisect_right(candidates, lo) : bisect_right(candidates, top + _width(top))]:
        yield from ask([c, math.nextafter(c, 0.0)])
        if known[c] >= r:
            return float(c) if known[math.nextafter(c, 0.0)] < r or math.nextafter(c, 0.0) <= lo else top
    return top


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
        # One (indices, family, scales, parameter arrays) group per
        # parametric family and value of its scalar parameters, and the
        # (index, law) pairs of the other laws.
        members: dict[tuple, list[int]] = {}
        others = []
        for i, d in enumerate(self.components):
            if d._cdf_formula is None:
                others.append((i, d))
            else:
                members.setdefault((type(d), *(getattr(d, name) for name in d._scalar_params)), []).append(i)
        groups = [
            (
                np.array(idx, dtype=np.intp),
                key[0],
                np.array([self.components[i].scale for i in idx]),
                [np.array([getattr(self.components[i], name) for i in idx]) for name in key[0]._params],
            )
            for key, idx in members.items()
        ]
        return groups, others

    @cached_property
    def _family_order(self) -> np.ndarray:
        # The components group by group, then the other laws.
        groups, others = self._batch
        return np.concatenate([idx for idx, *_ in groups] + [np.array([i for i, _ in others], dtype=np.intp)])

    @property
    def quantile_calls(self) -> int:
        """Formula or law calls that one ``family_quantiles`` call makes."""
        groups, others = self._batch
        return len(groups) + len(others)

    def family_blocks(
        self, t, left: bool = False, cells: Optional[int] = None
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield (indices, values): ``values[j]`` is F_i(t), or F_i(t-) if ``left``, for i = indices[j].

        ``values`` has shape ``(len(indices),) + shape(t)``, one law per row.
        Each parametric family block, one per value of the family's scalar
        parameters, is evaluated in one call of its ``_cdf_formula`` on
        stacked parameters, the same code ``d.cdf`` runs, or, if ``cells`` is
        given, in one call per run of at most ``cells // t.size`` members.
        The values equal ``d.cdf(t)`` bit for bit as long as numpy's
        elementwise functions do not depend on the array's shape; the test
        suite checks that over every family.  Other laws come one at a time.
        """
        t = np.asarray(t, dtype=float)
        groups, others = self._batch
        # A float divides faster than a 0-d array, and changes no bit.
        x = t if t.ndim else float(t)
        for idx, cls, scales, params in groups:
            step = idx.size if cells is None else max(1, cells // max(1, t.size))
            for s in range(0, idx.size, step):
                # The members' parameters as a column against the points.
                run = (slice(s, s + step),) + (None,) * t.ndim
                yield idx[run[0]], cls._cdf_formula(x / scales[run], *(p[run] for p in params))
        for i, d in others:
            yield np.array([i]), np.asarray(d.cdf_left_limit(t) if left else d.cdf(t))[None]

    def family_quantiles(self, u) -> np.ndarray:
        """The quantile of each law at its own orders, with the rows grouped by family.

        ``u`` holds one array of orders per law, shape ``(n,) + S``, row i for
        component i; every order must lie strictly inside (0, 1).  The result
        has the same shape and holds one row per component, each equal to
        ``d.quantile`` of that component at its orders bit for bit, but the
        rows come in an order fixed per mixture that puts each family block
        together: it suits uses that do not depend on the order of the laws,
        such as order statistics.  A parametric family block is evaluated in
        one call of its ``_quantile_formula``, the code ``d.quantile`` runs,
        on stacked parameters; its members share their scalar parameters,
        which the formula gets as Python floats.  Other laws come one at a
        time, so a call makes ``quantile_calls`` calls in all.
        """
        x = np.asarray(u, dtype=float)[self._family_order]
        # min and max propagate NaN, which fails both comparisons.
        if not (x.min() > 0.0 and x.max() < 1.0):
            raise ValueError("quantile orders must lie strictly inside (0, 1)")
        groups, others = self._batch
        column = (slice(None),) + (None,) * (x.ndim - 1)
        start = 0
        for idx, cls, scales, params in groups:
            rows = slice(start, start + idx.size)
            args = (float(p[0]) if name in cls._scalar_params else p[column] for name, p in zip(cls._params, params))
            x[rows] = scales[column] * cls._quantile_formula(x[rows], *args)
            start = rows.stop
        for start, (_, d) in enumerate(others, start):
            x[start:start + 1] = d.scale * d._unit_quantile(x[start:start + 1])
        return x

    def component_cdfs(self, t, left: bool = False) -> np.ndarray:
        """F_i(t), or F_i(t-) if ``left``, as an array of shape ``shape(t) + (n,)``.

        The values are those of ``family_blocks``.
        """
        t = np.asarray(t, dtype=float)
        out = np.empty(t.shape + (self.n,))
        # Filling a view with the components first takes a plain row index.
        by_component = out.transpose(t.ndim, *range(t.ndim))
        for idx, values in self.family_blocks(t, left):
            by_component[idx] = values
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
        """P{X > t} as ``1 - cdf(t)``, accurate in absolute terms only, like ``Distribution.survival``."""
        x, scalar = _split(t)
        return _wrap(1.0 - np.asarray(self.cdf(x)), scalar)

    def quantile(self, r):
        """Left quantile by the cold search of ``left_quantile_bisect``.

        The orders of an array are searched together, one cdf call per step.
        """
        x, scalar = _split(r)
        # min and max propagate NaN, which fails both comparisons.
        if not (x.min(initial=0.0) >= 0.0 and x.max(initial=0.0) <= 1.0):
            raise ValueError("quantile order must lie in [0, 1]")
        flat = x.ravel()
        out = np.zeros(flat.shape)
        if (top := flat == 1.0).any():
            out[top] = max(c.quantile(1.0) for c in self.components)
        inner = np.flatnonzero((flat > 0.0) & (flat < 1.0))
        out[inner] = _run_searches(self.cdf, [_search(v, self._special_points, None) for v in flat[inner].tolist()])
        return _wrap(out.reshape(x.shape), scalar)

    def special_points(self) -> tuple[float, ...]:
        return self._special_points

    @cached_property
    def _special_points(self) -> tuple[float, ...]:
        # Every quantile search asks for these; build them once per mixture.
        return tuple(sorted({s for c in self.components for s in c.special_points()}))
