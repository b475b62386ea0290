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
import numbers
import sys
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
# terms even when the quantile is far below 1; answers above the largest
# finite double are reported as not reached.
_BISECT_ABS_TOL = 1e-12
_BISECT_REL_TOL = 1e-10
_LIMIT = sys.float_info.max

# The cold bracket, in the order probed, four per call, until none is left
# inside: 0, 1, 2**-4, 2**4, 2**-8, 2**8, ..., 2**-1024, 2**1023, the largest
# finite double and 5e-324.
_LADDER = (0.0, 1.0, *(2.0**e for m in range(2, 11) for e in (-(2**m), min(2**m, 1023))), _LIMIT, 5e-324)

# Relative distances from a guess to the inner and outer points of the first call.
_GUESS_NEAR, _GUESS_FAR = 2e-3, 2e-2

# Cells (laws times points) per cdf formula call in MixtureCdf.family_blocks,
# which bounds the working memory of a call whatever the number of laws.
_RUN_CELLS = 1 << 15
# Orders per quantile formula call in MixtureCdf.family_quantiles: a call's
# few temporaries of this size stay well below a Monte Carlo chunk of 2**15.
_QUANTILE_RUN_CELLS = 1 << 12


def _numbers(v, what: str) -> np.ndarray:
    # Ints and floats pass, numpy's too; a bool, string, None or other object does not.
    arr = np.asarray(v)
    if arr.dtype.kind not in "iuf":
        raise ValueError(f"{what} must be an int or a float, or an array of them, got {v!r}")
    return arr.astype(float, copy=False)


def _thresholds(t) -> np.ndarray:
    # Each family reads a NaN its own way; at -inf and inf every cdf is 0 and 1.
    x = _numbers(t, "threshold t")
    if np.count_nonzero(np.isnan(x)):
        raise ValueError("threshold t must not be NaN")
    return x


def _orders(r) -> np.ndarray:
    x = _numbers(r, "quantile order")
    # min and max propagate NaN, which fails both comparisons.
    if not (x.min(initial=1.0) >= 0.0 and x.max(initial=0.0) <= 1.0):
        raise ValueError("quantile order must lie in [0, 1]")
    return x


def _on(x: np.ndarray, values, *args):
    # A scalar runs as a one-element array: numpy's scalar ``**`` rounds
    # differently from its array loop, and a scalar must get the array's bits.
    return float(values(x.reshape(1), *args)[0]) if x.ndim == 0 else values(x, *args)


def _unit(x, scale):
    # At extreme scales t / scale overflows to inf, where every cdf formula
    # gives its limit 1: the right value, so numpy's warning is dropped.
    with np.errstate(over="ignore"):
        return x / scale


class _NotAnInteger(ValueError, TypeError):
    """A number that is not an integer (a bool is not one): bad input of the wrong type."""


def _integer(v, what: str) -> int:
    """``v`` as an int if it is an integer (numpy integers are, bools and floats are not)."""
    if isinstance(v, bool) or not isinstance(v, numbers.Integral):
        raise _NotAnInteger(f"{what} must be an integer, got {v!r}")
    return int(v)


def _real(v, what: str, positive: bool = False) -> float:
    """``v`` as a float if it is a finite real (numpy scalars are, bools are not), positive if ``positive``."""
    try:
        # A plain float, the common case, skips the type tests.
        x = v if type(v) is float else float(v) if isinstance(v, numbers.Real) and not isinstance(v, bool) else math.nan
    except OverflowError:
        x = math.inf
    if not (math.isfinite(x) and (x > 0.0 or not positive)):
        raise ValueError(f"{what} must be a finite {'positive ' if positive else ''}real, got {v!r}")
    return x


def _padded(count: int, *rows) -> tuple[np.ndarray, ...]:
    # The tables of a law with ``count`` atoms or knots: each row, then copies
    # of its last entry up to the least power of two above ``count``.
    width = 1 << count.bit_length()
    return tuple(np.array([*row, *[row[-1]] * (width - len(row))]) for row in rows)


def _rank(table: np.ndarray, x, strict: bool = False) -> np.ndarray:
    """Flat index, for ``np.take``, of the last entry of each row at most x (below x if ``strict``).

    The rows lie along the last axis of ``table``, sorted, with a power-of-two
    width; the other axes broadcast against x.  The index is that of row[k-1]
    for k = ``np.searchsorted(row[:-1], x)``, side "right" ("left" if
    ``strict``), NaN above every entry; at k = 0 it reads an entry that the
    caller discards.  A fixed ladder of halvings, one probe per point and
    halving, finds it in O(size(x) * log width) time, with no temporary wider
    than the points.
    """
    width = table.shape[-1]
    at = np.arange(-1, table.size - 1, width).reshape(table.shape[:-1])
    for h in (width >> j for j in range(1, width.bit_length())):
        at = at + h
        at = at - h * (x <= np.take(table, at) if strict else x < np.take(table, at))
    return at


class _Law:
    """The surface of a law and of a mixture's averaged cdf.

    A subclass supplies ``_values(x, left)``, F(x), or F(x-) if ``left``, on a
    1-D array; ``_quantiles(x)`` on orders in [0, 1]; and ``_special_points``.
    """

    def cdf(self, t):
        """P{X <= t}; accepts a scalar or an array, returns the same shape."""
        return _on(_thresholds(t), self._values, False)

    def cdf_left_limit(self, t):
        """P{X < t}, the left limit of the cdf at ``t``."""
        return _on(_thresholds(t), self._values, True)

    def survival(self, t):
        """P{X > t} as ``1 - cdf(t)``: accurate in absolute terms only.

        ``Exponential(1).survival(50.0)`` returns 0.0; the true value is 1.9e-22.
        """
        return _on(_thresholds(t), lambda x: 1.0 - self._values(x, False))

    def quantile(self, r):
        """Left quantile inf{t : F(t) >= r} for r in [0, 1]."""
        return _on(_orders(r), self._quantiles)

    def special_points(self) -> tuple[float, ...]:
        """Atom locations and cdf knots, ascending."""
        return self._special_points


@dataclass(frozen=True)
class Distribution(_Law):
    """Base class for a non-negative scalar law with a multiplicative scale.

    Each family writes its unit-scale cdf and quantile once each, as
    ``_cdf_formula(x, *args)`` and ``_quantile_formula(r, *args)``, the
    latter for 0 < r <= 1, and a family with atoms its left limit,
    ``_cdf_left_formula``.  A law's ``_args`` are its positive real
    parameters, named in ``_params``, then its ``_tables``, which a law with
    atoms or knots sets on construction: 1-D arrays of a power-of-two width.
    Each number a law is given (scale, parameter, atom or knot entry, and
    the factor of ``scaled``) passes one rule, ``_real``: a finite real,
    numpy scalars included; a bool, string, NaN or infinity is a ValueError.
    The formulas broadcast over args stacked as a column against the points,
    so ``MixtureCdf.family_blocks`` and ``MixtureCdf.family_quantiles``
    evaluate a block of laws by the code a single law runs.  A block's laws
    share their family and the widths of their tables.
    """

    scale: float = field(default=1.0, kw_only=True)

    _params: ClassVar[tuple[str, ...]] = ()
    _tables: ClassVar[tuple[np.ndarray, ...]] = ()
    _special_points: ClassVar[tuple[float, ...]] = ()
    _cdf_formula: ClassVar[Callable[..., np.ndarray]]
    _quantile_formula: ClassVar[Callable[..., np.ndarray]]

    def __post_init__(self) -> None:
        for name in ("scale", *self._params):
            object.__setattr__(self, name, _real(getattr(self, name), name, positive=True))

    @classmethod
    def _cdf_left_formula(cls, x, *args):
        # Laws without atoms: the left limit coincides with the cdf.
        return cls._cdf_formula(x, *args)

    @property
    def _args(self) -> tuple:
        return (*(getattr(self, name) for name in self._params), *self._tables)

    def _values(self, x, left):
        formula = self._cdf_left_formula if left else self._cdf_formula
        return formula(_unit(x, self.scale), *self._args)

    def _quantiles(self, x):
        with np.errstate(divide="ignore"):
            out = self.scale * self._quantile_formula(x, *self._args)
        # The formulas hold for r > 0; quantile(0) is 0 by convention.
        return np.where(x == 0.0, 0.0, out) if x.min(initial=1.0) == 0.0 else out

    def scaled(self, c: float) -> "Distribution":
        """The law of ``c * X`` for c > 0."""
        return dataclasses.replace(self, scale=self.scale * _real(c, "scale factor", positive=True))


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
    relative terms near t = 1, where 1 - t**(-p) cancels.  The quantile is
    (1 - r)**(-1/p), a reciprocal at p = 1, so that it has the same bits
    whether p is a float or a column of a block.
    """

    p: float = 1.0
    _params = ("p",)

    @staticmethod
    def _cdf_formula(x, p):
        return np.where(x >= 1.0, -np.expm1(-p * np.log(np.maximum(x, 1.0))), 0.0)

    @staticmethod
    def _quantile_formula(r, p):
        s = 1.0 - r
        # numpy takes a reciprocal for a Python-float exponent of -1.0, but not for an exponent array.
        return np.where(p == 1.0, 1.0 / s, s ** (-1.0 / p))


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
class _TableLaw(Distribution):
    """A law given by (x, y) pairs, its atoms or knots, in the field named ``_pairs``.

    The x must be nonnegative and strictly increasing; the family's
    ``_y_row`` checks the y and builds their table.  The tables are the x
    row, then the y row, and the special points are the x row, scaled.
    """

    _pairs: ClassVar[str]

    def __post_init__(self) -> None:
        super().__post_init__()
        given = getattr(self, self._pairs)
        try:
            pairs = tuple((_real(x, "x"), _real(y, "y")) for x, y in given)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{self._pairs} must be (x, y) pairs of finite reals, got {given!r}") from exc
        xs = [x for x, _ in pairs]
        y_row = self._y_row([y for _, y in pairs])
        if xs[0] < 0 or not all(a < b for a, b in zip(xs, xs[1:])):
            raise ValueError(f"{self._pairs} must have nonnegative, strictly increasing abscissae")
        if not math.isfinite(self.scale * xs[-1]):
            raise ValueError(f"{self._pairs} scaled by {self.scale!r} pass the largest finite double")
        object.__setattr__(self, self._pairs, pairs)
        object.__setattr__(self, "_tables", _padded(len(xs), xs, y_row))
        object.__setattr__(self, "_special_points", tuple(self.scale * x for x in xs))


@dataclass(frozen=True)
class PiecewiseLinearCdf(_TableLaw):
    """Continuous cdf interpolating (t, F) knots, flat outside the knot range.

    Knots must have strictly increasing ``t >= 0`` and nondecreasing ``F``
    starting at 0 and ending at 1.  Flat F-segments are allowed and make the
    left quantile land on the left edge of the flat stretch.
    """

    knots: tuple[tuple[float, float], ...] = ((0.0, 0.0), (1.0, 1.0))
    _pairs = "knots"

    @staticmethod
    def _y_row(fs):
        if len(fs) < 2 or fs[0] != 0.0 or fs[-1] != 1.0:
            raise ValueError("need at least two knots, with cdf values starting at 0 and ending at 1")
        if not all(a <= b for a, b in zip(fs, fs[1:])):
            raise ValueError("knot cdf values must be nondecreasing")
        return fs

    @staticmethod
    def _cdf_formula(x, kt, kf):
        # numpy's interp: slope * (x - t0) + f0 on the knot interval
        # [t0, t1) holding x, f0 at a knot, 0 below the first and 1 from the last.
        at = _rank(kt, x)
        t0, t1, f0, f1 = (np.take(a, j) for a in (kt, kf) for j in (at, at + 1))
        with np.errstate(divide="ignore", invalid="ignore"):
            line = (f1 - f0) / (t1 - t0) * (x - t0) + f0
        return np.where(x < kt[..., 0], 0.0, np.where(x >= kt[..., -1], 1.0, np.where(x == t0, f0, line)))

    @staticmethod
    def _quantile_formula(r, kt, kf):
        # Between the knots around the first F reaching r; a flat stretch gives its left edge.
        at = _rank(kf, r, strict=True)
        t0, t1, f0, f1 = (np.take(a, j) for a in (kt, kf) for j in (at, at + 1))
        with np.errstate(divide="ignore", invalid="ignore"):
            frac = (r - f0) / (f1 - f0)
        return t0 + np.where(f1 > f0, frac, 1.0) * (t1 - t0)


@dataclass(frozen=True)
class Atomic(_TableLaw):
    """Purely atomic law on finitely many nonnegative points.

    ``atoms`` is a sequence of (value, weight) pairs with strictly increasing
    nonnegative values and positive weights summing to 1.
    """

    atoms: tuple[tuple[float, float], ...] = ((1.0, 1.0),)
    _pairs = "atoms"

    @staticmethod
    def _y_row(ws):
        if not ws or not all(w > 0 for w in ws):
            raise ValueError("need at least one atom, and atom weights must be positive")
        if abs(math.fsum(ws) - 1.0) > 1e-9:
            raise ValueError(f"atom weights must sum to 1, got {math.fsum(ws)!r}")
        # 0 then the cumulative weights, the last exactly 1.
        cum = np.cumsum(ws)
        cum[-1] = 1.0
        return [0.0, *cum]

    @staticmethod
    def _cdf_formula(x, values, cum):
        return np.take(cum, _rank(values, x) + 1)

    @staticmethod
    def _cdf_left_formula(x, values, cum):
        return np.take(cum, _rank(values, x, strict=True) + 1)

    @staticmethod
    def _quantile_formula(r, values, cum):
        # The first atom whose cumulative weight reaches r > 0.
        return np.take(values, _rank(cum, r, strict=True))


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
    2**4, 2**-8, 2**8, ..., 2**-1024, 2**1023, the largest finite double and
    5e-324, as cold, so a bad guess costs one call.
    Then each call probes x and x -+ err (and the middle of a rest over half
    the bracket), on log t while hi > 2 * lo: x interpolates the inverse
    cdf through lo, hi and the nearest known points outside (regula falsi,
    then quadratic and cubic), and err is its last change.  A step that does
    not halve the bracket is followed by four evenly spaced points, or two
    and a candidate with the float below it.

    ``cdf`` must accept a 1-D array of at most four abscissae and return
    their cdf values, none NaN (an array of that shape, or one scalar for
    all).  A guess of 0 or below is ignored.  The answer agrees with plain
    bisection within the stopping width.
    """
    r = float(_orders(_real(r, "quantile order")))
    candidates = sorted(_real(c, "candidate") for c in candidates)
    guess = None if guess is None else _real(guess, "guess")
    return 0.0 if r == 0.0 else _search(cdf, r, candidates, guess)


def _width(hi: float) -> float:
    return min(_BISECT_ABS_TOL * max(1.0, hi), _BISECT_REL_TOL * hi)


def _search(cdf, r: float, candidates: Sequence[float], guess: Optional[float]) -> float:
    # The steps of left_quantile_bisect for 0 < r <= 1, on sorted candidates
    # and a float or None guess: each step asks cdf for at most four points.
    known: dict[float, float] = {}
    lo = hi = None  # cdf(lo) < r <= cdf(hi); None while unknown

    def ask(ts):
        # Evaluates the new points of ts; the least of ts inside the bracket
        # reaching r is then hi, and the greatest below it not reaching r lo.
        nonlocal lo, hi
        if new := [t for t in dict.fromkeys(ts) if t not in known]:
            vals = np.asarray(cdf(np.array(new)))
            if vals.shape != (len(new),):
                vals = np.broadcast_to(vals, (len(new),))
            known.update(zip(new, vals.tolist()))
            if nan := [t for t in new if math.isnan(known[t])]:
                raise ValueError(f"cdf value at t = {nan[0]!r} is NaN")
        inside = sorted(t for t in ts if (lo is None or t > lo) and (hi is None or t < hi))
        hi = next((t for t in inside if known[t] >= r), hi)
        lo = next((t for t in reversed(inside) if known[t] < r and (hi is None or t < hi)), lo)

    if guess is not None and (g := guess) > 0.0:
        near = [math.nextafter(g, 0.0), g] if g in candidates else [g * (1 - _GUESS_NEAR), g * (1 + _GUESS_NEAR)]
        ask([min(t, _LIMIT) for t in (g * (1 - _GUESS_FAR), *near, g * (1 + _GUESS_FAR))])
    if hi is None or not lo:
        while ladder := [t for t in _LADDER if (lo is None or t > lo) and (hi is None or t < hi)][:4]:
            ask(ladder)
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
        ask(ts or [math.nextafter(lo, math.inf)])
        halve = 4.0 * err < w and v(hi) - v(lo) > 0.5 * w

    # Snap to a candidate that is the exact answer.
    top = float(hi)
    for c in candidates[bisect_right(candidates, lo) : bisect_right(candidates, top + _width(top))]:
        ask([c, math.nextafter(c, 0.0)])
        if known[c] >= r:
            return float(c) if known[math.nextafter(c, 0.0)] < r or math.nextafter(c, 0.0) <= lo else top
    return top


@dataclass(frozen=True)
class MixtureCdf(_Law):
    """Equal-weight mixture of component laws: F(t) = (1/n) * sum_i F_i(t), a law without a scale."""

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
    def _batch(self) -> list:
        # One (indices, family, scales, stacked args) block per family and
        # widths of its tables.
        members: dict[tuple, list[int]] = {}
        for i, d in enumerate(self.components):
            members.setdefault((type(d), *map(len, d._tables)), []).append(i)
        return [
            (
                np.array(idx, dtype=np.intp),
                key[0],
                np.array([self.components[i].scale for i in idx]),
                [np.array(column) for column in zip(*(self.components[i]._args for i in idx))],
            )
            for key, idx in members.items()
        ]

    @cached_property
    def _family_order(self) -> np.ndarray:
        # The components block by block.
        return np.concatenate([idx for idx, *_ in self._batch])

    def family_blocks(self, t, left: bool = False) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield (indices, values): ``values[j]`` is F_i(t), or F_i(t-) if ``left``, for i = indices[j].

        ``values`` has shape ``(len(indices),) + shape(t)``, one law per row.
        Each block of laws is evaluated by its ``_cdf_formula``
        (``_cdf_left_formula`` if ``left``) on stacked args, the code
        ``d.cdf`` runs, in one call per run of at most ``_RUN_CELLS // t.size``
        members (at least one), so that a call's temporaries stay small.  The
        values equal ``d.cdf(t)`` bit for bit as long as numpy's elementwise
        functions do not depend on the array's shape; the test suite checks
        that over every family.
        """
        t = np.asarray(t, dtype=float)
        # A float divides faster than a 0-d array, and changes no bit.
        x = t if t.ndim else float(t)
        step = max(1, _RUN_CELLS // max(1, t.size))
        for idx, cls, scales, args in self._batch:
            formula = cls._cdf_left_formula if left else cls._cdf_formula
            for s in range(0, idx.size, step):
                # The members' args as a column against the points.
                run = (slice(s, s + step),) + (None,) * t.ndim
                yield idx[run[0]], formula(_unit(x, scales[run]), *(a[run] for a in args))

    def family_quantiles(self, u) -> np.ndarray:
        """The quantile of each law at its own orders, with the rows grouped by block.

        ``u`` holds one array of orders per law, shape ``(n,) + S``, row i for
        component i; every order must lie strictly inside (0, 1).  The result
        has the same shape, one row per component equal to ``d.quantile`` at
        its orders bit for bit, but in an order fixed per mixture that puts
        each block together: it suits uses that ignore the order of the laws,
        such as order statistics.  Each block is evaluated by its
        ``_quantile_formula``, the code ``d.quantile`` runs, on stacked args,
        in one call per run of at most ``_QUANTILE_RUN_CELLS // size(S)``
        members (at least one), so that a call's temporaries stay small.
        """
        x = np.asarray(u, dtype=float)[self._family_order]
        # min and max propagate NaN, which fails both comparisons.
        if not (x.min() > 0.0 and x.max() < 1.0):
            raise ValueError("quantile orders must lie strictly inside (0, 1)")
        step = max(1, _QUANTILE_RUN_CELLS // x[0].size)
        start = 0
        for idx, cls, scales, args in self._batch:
            for s in range(0, idx.size, step):
                # The members' args as a column against their rows of orders.
                run = (slice(s, s + step),) + (None,) * (x.ndim - 1)
                rows = x[start + s : start + min(s + step, idx.size)]
                np.multiply(scales[run], cls._quantile_formula(rows, *(a[run] for a in args)), out=rows)
            start += idx.size
        return x

    def component_cdfs(self, t, left: bool = False) -> np.ndarray:
        """F_i(t), or F_i(t-) if ``left``, as an array of shape ``shape(t) + (n,)``.

        The values are those of ``family_blocks``.
        """
        t = _thresholds(t)
        out = np.empty(t.shape + (self.n,))
        # Filling a view with the components first takes a plain row index.
        by_component = out.transpose(t.ndim, *range(t.ndim))
        for idx, values in self.family_blocks(t, left):
            by_component[idx] = values
        return out

    def _values(self, x, left):
        # The mean over the contiguous last axis sums each row pairwise, the
        # same way for a scalar t as for every element of an array t.
        return self.component_cdfs(x, left).mean(axis=-1)

    def _quantiles(self, x):
        # The cold search of left_quantile_bisect, one order at a time.
        flat = x.ravel().tolist()
        sup = max(c.quantile(1.0) for c in self.components) if 1.0 in flat else None
        out = [_search(self.cdf, v, self._special_points, None) if 0.0 < v < 1.0 else sup if v else 0.0 for v in flat]
        return np.array(out, dtype=float).reshape(x.shape)

    @cached_property
    def _special_points(self) -> tuple[float, ...]:
        # Every quantile search asks for these; build them once per mixture.
        return tuple(sorted({s for c in self.components for s in c.special_points()}))
