import numpy as np
import pytest

from inidstat.dist import (
    Atomic,
    Exponential,
    HalfGaussian,
    ParetoPower,
    PiecewiseLinearCdf,
    Uniform01,
)
from inidstat.ostat import OrderStatModel

ACCEPT_SEED = 20260813

# Family/K pairs known to certify on the default grid: uniform at 2,
# power laws at 2^(1/p), exponential and half-Gaussian at 3.
CATALOGUE = (
    (Uniform01(), 2.0),
    (ParetoPower(p=0.5), 4.0),
    (ParetoPower(p=1.0), 2.0),
    (ParetoPower(p=2.0), 2.0**0.5),
    (ParetoPower(p=4.0), 2.0**0.25),
    (Exponential(rate=1.0), 3.0),
    (HalfGaussian(sigma=1.0), 3.0),
)


def random_model(rng: np.random.Generator, n_max: int) -> OrderStatModel:
    """A model over the K=3-certifying family pool with log-uniform scales.

    ParetoPower(0.5) is deliberately absent: its smallest certifying K is
    2^(1/0.5) = 4 > 3, so it cannot join a suite verified at a shared K = 3.
    """
    n = int(rng.integers(1, n_max + 1))
    comps = []
    for _ in range(n):
        fam = int(rng.integers(0, 5))
        scale = float(10.0 ** rng.uniform(-2.0, 2.0))
        if fam == 0:
            comps.append(Uniform01(scale=scale))
        elif fam == 1:
            comps.append(ParetoPower(p=float(rng.choice([1.0, 2.0, 4.0])), scale=scale))
        elif fam == 2:
            comps.append(Exponential(rate=1.0, scale=scale))
        elif fam == 3:
            # Same law through the rate parameterization; scale*rate keeps the
            # effective spread of the law equal to `scale`, inside [0.01, 100].
            rate = float(rng.uniform(0.5, 2.0))
            comps.append(Exponential(rate=rate, scale=scale * rate))
        else:
            comps.append(HalfGaussian(sigma=1.0, scale=scale))
    k = int(rng.integers(1, n + 1))
    return OrderStatModel(tuple(comps), k)


def sweep_laws(rng: np.random.Generator, n: int) -> tuple:
    """n laws from every family, with varied parameters and scales in [0.01, 100].

    About one law in five repeats the one before it, as homogeneous blocks do.
    """
    laws = []
    while len(laws) < n:
        if laws and rng.random() < 0.2:
            laws.append(laws[-1])
            continue
        scale = float(10.0 ** rng.uniform(-2.0, 2.0))
        fam = int(rng.integers(0, 6))
        if fam == 0:
            laws.append(Uniform01(scale=scale))
        elif fam == 1:
            laws.append(ParetoPower(p=float(rng.choice([0.5, 1.0, 2.0, 3.3, 4.0])), scale=scale))
        elif fam == 2:
            laws.append(Exponential(rate=float(rng.uniform(0.1, 10.0)), scale=scale))
        elif fam == 3:
            laws.append(HalfGaussian(sigma=float(rng.uniform(0.1, 10.0)), scale=scale))
        elif fam == 4:
            laws.append(PiecewiseLinearCdf(knots=((0.0, 0.0), (1.0, 0.25), (2.0, 0.25), (4.0, 1.0)), scale=scale))
        else:
            laws.append(Atomic(atoms=((0.5, 0.3), (1.5, 0.7)), scale=scale))
    return tuple(laws)


def ragged_laws(rng: np.random.Generator, n: int) -> tuple:
    """n table laws of ragged widths: Atomic with 1 to 8 atoms, PiecewiseLinearCdf with 2 to 8 knots.

    Atoms and knots lie on multiples of a unit, 0 among them; about one knot
    list in three has a flat stretch.  A quarter of the laws have scale 1, so
    that points hit the atoms and knots exactly; the rest span [1e-3, 1e3].
    """
    laws = []
    while len(laws) < n:
        scale = 1.0 if rng.random() < 0.25 else float(10.0 ** rng.uniform(-3.0, 3.0))
        unit = float(rng.choice([0.1, 0.37, 1.0, 3.0]))
        if rng.random() < 0.5:
            width = int(rng.integers(1, 9))
            values = np.sort(rng.choice(12, size=width, replace=False)) * unit
            weights = rng.random(width) + 0.05
            laws.append(Atomic(atoms=tuple(zip(values.tolist(), (weights / weights.sum()).tolist())), scale=scale))
        else:
            width = int(rng.integers(2, 9))
            ts = np.sort(rng.choice(12, size=width, replace=False)) * unit
            fs = np.sort(rng.random(width - 2))
            if width > 3 and rng.random() < 0.4:
                fs[1] = fs[0]
            laws.append(PiecewiseLinearCdf(knots=tuple(zip(ts.tolist(), [0.0, *fs.tolist(), 1.0])), scale=scale))
    return tuple(laws)


def sweep_points(rng: np.random.Generator, laws, size: int) -> np.ndarray:
    """Log-uniform t in [1e-6, 1e6], covering 1e-4..1e4 times every scale, plus the laws' jumps and knots."""
    special = sorted({s for d in laws for s in d.special_points()})
    return np.concatenate([10.0 ** rng.uniform(-6.0, 6.0, size), special])


@pytest.fixture(scope="session")
def theorem_models() -> tuple[OrderStatModel, ...]:
    rng = np.random.default_rng(ACCEPT_SEED)
    return tuple(random_model(rng, 500) for _ in range(200))


@pytest.fixture(scope="session")
def mc_models() -> tuple[OrderStatModel, ...]:
    rng = np.random.default_rng(ACCEPT_SEED + 1)
    return tuple(random_model(rng, 30) for _ in range(40))
