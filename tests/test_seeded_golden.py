"""Seeded results pinned across versions against a checked-in file, repr-exact.

The models use only Uniform01, Atomic and PiecewiseLinearCdf laws, so every
value comes from plain arithmetic, the Philox stream and the quantile search.
A change that is meant to move these numbers rewrites the file with
``PYTHONPATH=src python tests/test_seeded_golden.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

from inidstat.bounds import verify_theorem
from inidstat.dist import Atomic, PiecewiseLinearCdf, Uniform01
from inidstat.mc import simulate_median
from inidstat.ostat import OrderStatModel, averaged_quantile, kmin_cdf, kmin_median
from inidstat.regularity import GridSpec

GOLDEN = Path(__file__).parent / "golden" / "seeded_results.json"

MODELS = {
    "mixed": OrderStatModel(
        (
            Uniform01(scale=0.5),
            Uniform01(),
            Uniform01(scale=3.0),
            Atomic(atoms=((0.25, 0.5), (1.0, 0.25), (2.0, 0.25))),
            Atomic(atoms=((0.0, 0.2), (0.5, 0.8)), scale=1.5),
            PiecewiseLinearCdf(knots=((0.0, 0.0), (1.0, 0.25), (2.0, 0.25), (4.0, 1.0))),
            PiecewiseLinearCdf(knots=((0.5, 0.0), (1.0, 1.0)), scale=2.0),
        ),
        5,
    ),
    "tables": OrderStatModel(
        (
            Atomic(atoms=((0.1, 0.3), (0.7, 0.3), (1.3, 0.4)), scale=2.5),
            Atomic(atoms=((1.0, 1.0),), scale=0.9),
            PiecewiseLinearCdf(knots=((0.0, 0.0), (0.3, 0.6), (3.0, 1.0))),
            PiecewiseLinearCdf(knots=((1.0, 0.0), (2.0, 0.5), (2.5, 0.5), (3.0, 1.0)), scale=0.4),
            Uniform01(scale=1.1),
        ),
        2,
    ),
}

TS = (0.1, 0.5, 0.9, 1.0, 1.7, 3.0)
SEEDS = (11, 2**70 + 5)


def seeded_results() -> dict:
    out = {}
    for name, model in MODELS.items():
        out[name] = {
            "kmin_median": kmin_median(model),
            "averaged_quantile": averaged_quantile(model),
            "kmin_cdf": [kmin_cdf(model, t) for t in TS],
            "simulate_median": [
                [r.estimate, r.ci_low, r.ci_high]
                for r in (simulate_median(model, 1001, seed) for seed in SEEDS)
            ],
        }
    out["verify_theorem"] = verify_theorem(MODELS["mixed"], 3.0, GridSpec(1e-3, 1e3, 16)).to_dict()
    # Through JSON, as the file holds it: tuples become lists.
    return json.loads(json.dumps(out))


def test_seeded_results_match_the_golden_file():
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = seeded_results()
    assert got.keys() == want.keys()
    for key in want:
        assert repr(got[key]) == repr(want[key]), key


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(seeded_results(), indent=2) + "\n", encoding="utf-8")
