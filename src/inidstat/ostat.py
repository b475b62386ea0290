"""Exact distribution of the k-th smallest of independent non-identical variables.

The bridge identity: for independent X_1, ..., X_n and any threshold t,

    P{ k-th smallest <= t }  =  P{ #{i : X_i <= t} >= k },

and the count on the right is a Poisson binomial variable with success
probabilities F_i(t).  Everything here is that identity plus the left
generalized inverse for quantiles.
"""

from __future__ import annotations

import dataclasses
import operator
from dataclasses import dataclass, field

from .dist import Distribution, MixtureCdf, left_quantile_bisect
from .pbin import SuccessVector, tail_at_least

__all__ = [
    "OrderStatModel",
    "kmin_cdf",
    "kmin_strict_cdf",
    "kmin_quantile",
    "kmin_median",
    "kmax_cdf",
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
        k = operator.index(self.k)
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


def kmin_cdf(model: OrderStatModel, t) -> float:
    """P{ k-th smallest <= t } through the counting identity."""
    probs = model.mixture.component_cdfs(float(t))
    return tail_at_least(SuccessVector(probs), model.k)


def kmin_strict_cdf(model: OrderStatModel, t) -> float:
    """P{ k-th smallest < t }; differs from the cdf only at atoms."""
    probs = model.mixture.component_cdfs(float(t), left=True)
    return tail_at_least(SuccessVector(probs), model.k)


def kmin_quantile(model: OrderStatModel, r) -> float:
    """Left quantile inf{ t : P{k-th smallest <= t} >= r } for 0 <= r <= 1."""
    r = float(r)
    if not 0.0 <= r <= 1.0:
        raise ValueError("quantile order must lie in [0, 1]")
    if r == 0.0:
        return 0.0
    if r == 1.0:
        # The k-th smallest is below t once at least k components are; its
        # essential sup is the k-th smallest of the component essential sups.
        tops = sorted(c.quantile(1.0) for c in model.components)
        return float(tops[model.k - 1])
    return left_quantile_bisect(
        lambda t: kmin_cdf(model, t), r, candidates=model.special_points()
    )


def kmin_median(model: OrderStatModel) -> float:
    """The canonical (smallest) median of the k-th smallest."""
    return kmin_quantile(model, 0.5)


def kmax_cdf(model: OrderStatModel, t) -> float:
    """P{ k-th largest <= t }; the k-th largest is the (n-k+1)-th smallest."""
    return kmin_cdf(model.with_rank(model.n - model.k + 1), t)


def averaged_quantile(model: OrderStatModel) -> float:
    """Mixture quantile at order (k - 1/2) / n.

    This is the deterministic proxy that the median of the k-th smallest is
    compared against: the left quantile of the averaged cdf at the midpoint
    order for rank k.
    """
    return model.mixture.quantile((model.k - 0.5) / model.n)
