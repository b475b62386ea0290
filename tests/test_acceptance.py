"""Acceptance gate: ten end-to-end criteria, one test (and one verdict line) each.

Each test prints a single ``criterion N: PASS`` line on success; a failing
assertion surfaces as the test's FAILED line with the offending numbers.
"""

import math
import time

import numpy as np
import pytest
import scipy.stats as st

from conftest import ACCEPT_SEED, CATALOGUE
from inidstat.bounds import (
    lower_tail_bound,
    upper_tail_bound,
    verify_lower_tail,
    verify_upper_tail,
)
from inidstat.dist import Exponential, Uniform01
from inidstat.mc import simulate_median
from inidstat.ostat import (
    OrderStatModel,
    averaged_quantile,
    kmin_cdf,
    kmin_median,
    kmin_strict_cdf,
)
from inidstat.pbin import brute_force_tail, chebyshev_bound_gap, tail_at_least
from inidstat.regularity import (
    DEFAULT_GRID,
    MARGIN_TOL,
    check_condition,
    check_lemma_growth,
    pointwise_margins,
)

K_SHARED = 3.0


def test_criterion_01_regularity_catalogue():
    t0 = time.perf_counter()
    worst = math.inf
    for d, K in CATALOGUE:
        cert = check_condition(d, K)
        assert cert.passed, f"{d} at K={K}: margin {cert.margin:.3e}, witness {cert.witness}"
        assert cert.margin >= -1e-12
        worst = min(worst, cert.margin)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"catalogue certification took {elapsed:.2f}s, budget 1s"
    print(f"criterion 1: PASS — 7/7 certify, worst margin {worst:.3e}, {elapsed:.2f}s")


def test_criterion_02_condition_forms_agree():
    n_points = 0
    for d, _ in CATALOGUE:
        for K in (1.5, 2.0, 3.0):
            t1, lhs1, rhs1, _ = pointwise_margins(d, K, DEFAULT_GRID, "condition")
            t2, lhs2, rhs2, _ = pointwise_margins(d, K, DEFAULT_GRID, "measure-form")
            assert np.array_equal(t1, t2)
            v1 = (lhs1 - rhs1) >= -MARGIN_TOL
            v2 = (lhs2 - rhs2) >= -MARGIN_TOL
            mism = int(np.count_nonzero(v1 != v2))
            assert mism == 0, f"{d} K={K}: {mism} verdict mismatches"
            n_points += t1.size
    print(f"criterion 2: PASS — identical verdicts at {n_points} (law, K, t) points")


def test_criterion_03_growth_inequalities():
    checks = 0
    worst = math.inf
    for d, K in CATALOGUE:
        for ell in (1, 3, 5, 8):
            for gamma in (2.0 ** (-ell / 2.0), 0.25, 0.9):
                rep = check_lemma_growth(d, K, ell, gamma)
                assert rep.passed, f"{d} K={K} ell={ell} gamma={gamma}: {rep.witnesses}"
                assert rep.margin_growth >= -1e-12
                assert rep.margin_survival >= -1e-12
                worst = min(worst, rep.margin_growth, rep.margin_survival)
                checks += 1
    print(f"criterion 3: PASS — {checks} (law, K, ell, gamma) cases, worst margin {worst:.3e}")


def test_criterion_04_concentration_bound():
    t0 = time.perf_counter()
    rng = np.random.default_rng(ACCEPT_SEED)
    tightest = math.inf
    for _ in range(1000):
        n = int(rng.integers(1, 51))
        probs = rng.random(n)
        for t in (0.5, 1.0, 2.0, 5.0):
            gap = chebyshev_bound_gap(probs, t)
            assert gap.exact <= gap.bound, (n, t, gap)
            tightest = min(tightest, gap.bound - gap.exact)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"concentration sweep took {elapsed:.2f}s, budget 5s"
    print(f"criterion 4: PASS — 4000 comparisons, smallest slack {tightest:.3e}, {elapsed:.2f}s")


def test_criterion_05_count_engine_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(ACCEPT_SEED)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(1, 16))
        probs = rng.random(n)
        for k in range(0, n + 2):
            worst = max(worst, abs(tail_at_least(probs, k) - brute_force_tail(probs, k)))
    assert worst <= 1e-12, f"max |dp - enumeration| = {worst:.3e}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"oracle sweep took {elapsed:.2f}s, budget 30s"
    print(f"criterion 5: PASS — 500 vectors, all ranks, max diff {worst:.3e}, {elapsed:.2f}s")


def test_criterion_06_closed_forms():
    m = OrderStatModel(components=(Uniform01(),) * 3, k=2)
    med3 = kmin_median(m)
    assert abs(med3 - 0.5) <= 1e-10

    m2 = OrderStatModel(components=(Exponential(rate=1.0), Exponential(rate=2.0)), k=1)
    med_exp = kmin_median(m2)
    assert abs(med_exp - math.log(2.0) / 3.0) <= 1e-9

    worst = 0.0
    for n in (1, 2, 3, 5, 8, 13, 21, 34, 50):
        comps = (Uniform01(),) * n
        for k in range(1, n + 1):
            mk = OrderStatModel(components=comps, k=k)
            for t in np.linspace(0.1, 0.9, 9):
                ref = float(st.beta.cdf(t, k, n - k + 1))
                worst = max(worst, abs(kmin_cdf(mk, float(t)) - ref))
    assert worst <= 1e-10, f"max |cdf - beta formula| = {worst:.3e}"
    print(
        "criterion 6: PASS — med(3 uniforms, k=2) = "
        f"{med3!r}, med(two exponentials) = {med_exp!r}, iid max diff {worst:.3e}"
    )


def test_criterion_07_median_sandwich(theorem_models):
    # Component regularity at the shared K is criterion 1's ground (every pool
    # family certifies at K <= 3, and verdicts are scale-invariant), so this
    # sweep checks the sandwich itself on every model.
    t0 = time.perf_counter()
    lo = K_SHARED**-10
    hi = K_SHARED**13
    violations = 0
    for m in theorem_models:
        q = averaged_quantile(m)
        med = kmin_median(m)
        lo_val, hi_val = lo * q, hi * q
        ok = (
            lo_val <= med + 1e-9 * max(lo_val, med)
            and med <= hi_val + 1e-9 * max(med, hi_val)
            and kmin_strict_cdf(m, lo_val) < 0.5
            and kmin_cdf(m, hi_val) > 0.5
        )
        if not ok:
            violations += 1
    assert violations == 0, f"{violations}/200 models violate the sandwich"
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"sandwich sweep took {elapsed:.2f}s, budget 120s"
    print(f"criterion 7: PASS — 200 models, zero violations, {elapsed:.2f}s")


def test_criterion_08_tail_budgets(theorem_models):
    t0 = time.perf_counter()
    n_rows = 0
    for m in theorem_models:
        for row in verify_lower_tail(m, K_SHARED) + verify_upper_tail(m, K_SHARED):
            assert row.passed, (m.n, m.k, row)
            n_rows += 1
    assert n_rows == 200 * 20
    # The budgets at the decade anchors are model-free constants.
    for K in (2.0, K_SHARED):
        assert lower_tail_bound(K**-10, K) == pytest.approx(4.0 * math.exp(-2.5), rel=1e-12)
        assert upper_tail_bound(K**13, K) == pytest.approx(4.0 * math.exp(-13.0 / 6.0), rel=1e-12)
    elapsed = time.perf_counter() - t0
    print(f"criterion 8: PASS — {n_rows} tail rows, zero violations, {elapsed:.2f}s")


def test_criterion_09_monte_carlo_agreement(mc_models):
    t0 = time.perf_counter()
    covered = 0
    misses = []
    for i, m in enumerate(mc_models):
        res = simulate_median(m, replicates=100_000, seed=ACCEPT_SEED + i, ci_level=0.99)
        med = kmin_median(m)
        if res.ci_low <= med <= res.ci_high:
            covered += 1
        else:
            misses.append((i, med, res.ci_low, res.ci_high))
    assert covered >= 38, f"only {covered}/40 CIs cover the exact median: {misses}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 180.0, f"Monte Carlo sweep took {elapsed:.2f}s, budget 180s"
    print(f"criterion 9: PASS — {covered}/40 covered, {elapsed:.2f}s")


def test_criterion_10_determinism_equivariance(theorem_models, mc_models):
    # Bit-identical repetition of the stochastic path.
    for i, m in enumerate(mc_models[::10]):
        r1 = simulate_median(m, replicates=2000, seed=ACCEPT_SEED + 77 + i)
        r2 = simulate_median(m, replicates=2000, seed=ACCEPT_SEED + 77 + i)
        assert r1 == r2
        assert r1.estimate == r2.estimate and r1.ci_low == r2.ci_low

    # Exact path is trivially deterministic but pin it anyway.
    m0 = theorem_models[0]
    assert kmin_median(m0) == kmin_median(m0)

    # Scale equivariance: c * model scales med and q by c and flips no verdict.
    c = 7.3
    for m in theorem_models[::10]:
        scaled = OrderStatModel(tuple(d.scaled(c) for d in m.components), m.k)
        assert kmin_median(scaled) == pytest.approx(c * kmin_median(m), rel=1e-9)
        assert averaged_quantile(scaled) == pytest.approx(c * averaged_quantile(m), rel=1e-9)
        low = [r.verdict for r in verify_lower_tail(m, K_SHARED)]
        low_s = [r.verdict for r in verify_lower_tail(scaled, K_SHARED)]
        up = [r.verdict for r in verify_upper_tail(m, K_SHARED)]
        up_s = [r.verdict for r in verify_upper_tail(scaled, K_SHARED)]
        assert low == low_s and up == up_s
    for d, K in CATALOGUE:
        assert check_condition(d.scaled(c), K).verdict == check_condition(d, K).verdict
    print("criterion 10: PASS — bit-identical reruns; scale 7.3 equivariant, verdicts stable")
