"""Seeded model generation for the benchmark, independent of the test suite.

Models are drawn as plain specs, ``(family, scale, param)`` tuples, so that
the reference engine in ``reference.py`` reads the same laws without going
through the package.  ``build`` turns specs into package objects through the
public constructors only.

The per-component draw is a copy of the acceptance pool in the test suite:
the five families that certify at K = 3, with scales log-uniform in
[1e-2, 1e2].  The benchmark keeps its own copy so that an edit to the tests
cannot silently change a workload.
"""

from __future__ import annotations

import numpy as np

from inidstat import Exponential, HalfGaussian, ParetoPower, Uniform01

UNIFORM = "uniform"
PARETO = "pareto"
EXPONENTIAL = "exponential"
HALF_GAUSSIAN = "half_gaussian"


def pool_components(rng: np.random.Generator, n: int) -> list[tuple[str, float, float]]:
    """n component specs from the acceptance pool.

    The param is the Pareto exponent p, the exponential rate, or the
    half-Gaussian sigma; uniforms carry 1.0.
    """
    specs = []
    for _ in range(n):
        fam = int(rng.integers(0, 5))
        scale = float(10.0 ** rng.uniform(-2.0, 2.0))
        if fam == 0:
            specs.append((UNIFORM, scale, 1.0))
        elif fam == 1:
            specs.append((PARETO, scale, float(rng.choice([1.0, 2.0, 4.0]))))
        elif fam == 2:
            specs.append((EXPONENTIAL, scale, 1.0))
        elif fam == 3:
            # Same law through the rate parameterization; scale*rate keeps the
            # effective spread of the law equal to `scale`.
            rate = float(rng.uniform(0.5, 2.0))
            specs.append((EXPONENTIAL, scale * rate, rate))
        else:
            specs.append((HALF_GAUSSIAN, scale, 1.0))
    return specs


def grid_sizes(n_strata: int, k_strata: int, n_max: int) -> list[tuple[int, int]]:
    """(n, k) pairs at the centres of a grid over n in 1..n_max and k/n in (0, 1].

    The n range and the k/n range are cut into ``n_strata`` and ``k_strata``
    equal slices, and every pair of slices gives the pair at its centre, in a
    fixed order.  This stands for the pool's n uniform on 1..n_max and k
    uniform on 1..n, while the work of a sweep, which grows like
    n * min(k, n - k + 1), is the same for every seed and round; only the
    component laws are drawn.
    """
    sizes = []
    for i in range(n_strata):
        n = max(1, int((i + 0.5) / n_strata * n_max + 0.5))
        for j in range(k_strata):
            sizes.append((n, min(n, max(1, int((j + 0.5) / k_strata * n + 0.5)))))
    return sizes


def build(specs):
    """Package component objects for specs, through the public constructors."""
    out = []
    for fam, scale, param in specs:
        if fam == UNIFORM:
            out.append(Uniform01(scale=scale))
        elif fam == PARETO:
            out.append(ParetoPower(p=param, scale=scale))
        elif fam == EXPONENTIAL:
            out.append(Exponential(rate=param, scale=scale))
        else:
            out.append(HalfGaussian(sigma=param, scale=scale))
    return tuple(out)
