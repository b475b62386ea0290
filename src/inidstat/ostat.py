"""Exact distribution of the k-th smallest of independent non-identical variables.

The bridge identity: for independent X_1, ..., X_n and any threshold t,

    P{ k-th smallest <= t }  =  P{ #{i : X_i <= t} >= k },

and the count on the right is a Poisson binomial variable with success
probabilities F_i(t).  Everything here is that identity plus the left
generalized inverse for quantiles.  The median search starts from the
paper's proxy, the averaged quantile q of order (k - 1/2)/n, which the
theorem puts close to the median; each model computes q once.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from functools import cached_property

from .dist import Distribution, MixtureCdf, _integer, _real, left_quantile_bisect
from .pbin import tail_at_least

__all__ = [
    "OrderStatModel",
    "kmin_cdf",
    "kmin_strict_cdf",
    "kmin_quantile",
    "kmin_median",
    "averaged_quantile",
]


@dataclass(frozen=True)
class OrderStatModel:
    """n independent component laws together with a rank k, 1 <= k <= n.

    The components are held, validated and batched by ``mixture``, their
    equal-weight mixture.
    """

    components: tuple[Distribution, ...]
    k: int
    mixture: MixtureCdf = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        mixture = MixtureCdf(self.components)
        k = _integer(self.k, 'rank "k"')
        if not 1 <= k <= mixture.n:
            raise ValueError(f"rank k must lie in [1, {mixture.n}], got {k}")
        object.__setattr__(self, "components", mixture.components)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "mixture", mixture)

    @property
    def n(self) -> int:
        return self.mixture.n

    def special_points(self) -> tuple[float, ...]:
        return self.mixture.special_points()

    def with_rank(self, k: int) -> "OrderStatModel":
        return dataclasses.replace(self, k=k)

    @cached_property
    def _averaged_quantile(self) -> float:
        # Held per model, outside the fields, so equality and repr ignore it.
        return self.mixture.quantile((self.k - 0.5) / self.n)


def _count_tail(mixture: MixtureCdf, k: int, t, left: bool = False):
    # P{#{i : X_i <= t} >= k}, or with X_i < t if ``left``, for a scalar or
    # an array t; every element of t is one vector of a single batched tail.
    return tail_at_least(mixture.component_cdfs(t, left=left), k)


def kmin_cdf(model: OrderStatModel, t):
    """P{ k-th smallest <= t } through the counting identity.

    ``t`` may be a scalar, which gives a float, or an array, which gives an
    array of its shape whose elements equal the scalar calls bit for bit.
    """
    return _count_tail(model.mixture, model.k, t)


def kmin_strict_cdf(model: OrderStatModel, t):
    """P{ k-th smallest < t }; differs from the cdf only at atoms."""
    return _count_tail(model.mixture, model.k, t, left=True)


def kmin_quantile(model: OrderStatModel, r) -> float:
    """Left quantile inf{ t : P{k-th smallest <= t} >= r } for 0 <= r <= 1.

    The median search starts from the guess ``averaged_quantile(model)``.
    """
    r = _real(r, "quantile order")
    if r == 1.0:
        # The k-th smallest is below t once at least k components are; its
        # essential sup is the k-th smallest of the component essential sups.
        tops = sorted(c.quantile(1.0) for c in model.components)
        return float(tops[model.k - 1])
    guess = averaged_quantile(model) if r == 0.5 else None
    return left_quantile_bisect(lambda t: kmin_cdf(model, t), r, model.special_points(), guess)


def kmin_median(model: OrderStatModel) -> float:
    """The canonical (smallest) median of the k-th smallest."""
    return kmin_quantile(model, 0.5)


def averaged_quantile(model: OrderStatModel) -> float:
    """Mixture quantile at order (k - 1/2) / n.

    This is the deterministic proxy that the median of the k-th smallest is
    compared against: the left quantile of the averaged cdf at the midpoint
    order for rank k.  It is computed once per model.
    """
    return model._averaged_quantile
