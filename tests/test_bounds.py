import dataclasses
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import sequential_engine
from conftest import sweep_laws
from inidstat import bounds, dist, regularity
from inidstat.bounds import (
    SANDWICH_LOWER_EXP,
    SANDWICH_UPPER_EXP,
    TailBoundRow,
    TheoremReport,
    default_lower_t_grid,
    default_upper_t_grid,
    lower_tail_bound,
    upper_tail_bound,
    verify_lower_tail,
    verify_theorem,
    verify_upper_tail,
)
from inidstat.dist import Atomic, Exponential, HalfGaussian, MixtureCdf, ParetoPower, Uniform01
from inidstat.ostat import OrderStatModel, averaged_quantile, kmin_median, kmin_quantile
from inidstat.pbin import chebyshev_bound_gap
from inidstat.regularity import DEFAULT_GRID, GridSpec, check_condition, check_condition_batch


def exp_chain(n=100, k=7):
    comps = tuple(Exponential(rate=1.0).scaled(i / 10.0) for i in range(1, n + 1))
    return OrderStatModel(components=comps, k=k)


class TestBudgetFunctions:
    def test_spot_values(self):
        # At t = K^-6 the exponent is -6 ln K / (4 ln K) = -3/2 regardless of K.
        for K in (1.5, 2.0, 3.0):
            assert lower_tail_bound(K**-6, K) == pytest.approx(4.0 * math.exp(-1.5), rel=1e-12)
        # t = K^-10 gives 4 e^{-2.5}; t = K^13 gives 4 e^{-13/6}.
        assert lower_tail_bound(2.0**-10, 2.0) == pytest.approx(0.3283399944955952, rel=1e-12)
        assert upper_tail_bound(3.0**13, 3.0) == pytest.approx(0.4582353759707509, rel=1e-12)

    def test_shape(self):
        # Lower budget increases in t; upper budget decreases.
        K = 2.0
        ts = sorted(default_lower_t_grid(K))
        vals = [lower_tail_bound(t, K) for t in ts]
        assert vals == sorted(vals)
        tu = sorted(default_upper_t_grid(K))
        valsu = [upper_tail_bound(t, K) for t in tu]
        assert valsu == sorted(valsu, reverse=True)

    def test_default_grids(self):
        K = 3.0
        lo = default_lower_t_grid(K)
        hi = default_upper_t_grid(K)
        assert len(lo) == len(hi) == 10
        assert lo == tuple(K ** -(5 + j) for j in range(1, 11))
        assert hi == tuple(K ** (5 + j) for j in range(1, 11))
        assert max(lo) < K**-5
        assert min(hi) > K**5
        assert len(default_lower_t_grid(K, count=3)) == 3


class TestTheorem:
    def test_three_uniforms(self):
        m = OrderStatModel(components=(Uniform01(),) * 3, k=2)
        rep = verify_theorem(m, 2.0)
        assert rep.passed
        assert rep.verdict == "pass"
        assert rep.sandwich_holds
        # Both q and the median are exactly 1/2 here, so the ratio is 1.
        assert rep.q == pytest.approx(0.5, rel=1e-9)
        assert rep.med == pytest.approx(0.5, rel=1e-9)
        assert rep.ratio == pytest.approx(1.0, rel=1e-9)
        assert rep.lower == 2.0**SANDWICH_LOWER_EXP
        assert rep.upper == 2.0**SANDWICH_UPPER_EXP
        assert len(rep.certificates) == 3
        assert all(c.passed for c in rep.certificates)

    def test_two_exponentials(self):
        m = OrderStatModel(components=(Exponential(rate=1.0),) * 2, k=1)
        rep = verify_theorem(m, 3.0)
        assert rep.passed
        assert rep.med == pytest.approx(math.log(2.0) / 2.0, rel=1e-9)
        assert rep.lower <= rep.ratio <= rep.upper

    def test_heterogeneous_scales(self):
        rep = verify_theorem(exp_chain(), 3.0)
        assert rep.passed
        assert rep.n == 100 and rep.k == 7
        assert rep.lower <= rep.ratio <= rep.upper
        # The ratio should sit far inside the crude K^-10 / K^13 sandwich.
        assert 0.1 <= rep.ratio <= 10.0

    def test_precondition_failure_still_reports_sandwich(self):
        m = OrderStatModel(components=(Uniform01(),) * 3, k=2)
        rep = verify_theorem(m, 1.5)
        assert rep.verdict == "precondition-failed"
        assert not rep.passed
        assert any(not c.passed for c in rep.certificates)
        # The sandwich numbers themselves are unaffected by regularity.
        assert rep.sandwich_holds
        assert rep.ratio == pytest.approx(1.0, rel=1e-9)

    def test_ratio_when_q_is_zero(self):
        # Atoms at 0 put the mixture quantile at 0: the ratio is 1 when the
        # median is 0 too, and infinite when it is not.
        zero, half = Atomic(atoms=((0.0, 1.0),)), Atomic(atoms=((0.0, 0.25), (1.0, 0.75)))
        rep = verify_theorem(OrderStatModel((zero,) * 3, 2), 3.0)
        assert (rep.q, rep.med, rep.ratio) == (0.0, 0.0, 1.0)
        # (1 + 1/4 + 1/4) / 3 reaches the order 1/2, but the second smallest
        # is 0 only with probability 1 - (3/4)**2 < 1/2.
        rep = verify_theorem(OrderStatModel((zero, half, half), 2), 3.0)
        assert (rep.q, rep.med, rep.ratio) == (0.0, 1.0, math.inf)

    def test_K_domain(self):
        m = OrderStatModel(components=(Uniform01(),), k=1)
        for bad in (1.0, 0.2, math.inf, math.nan, "3", True):
            with pytest.raises(ValueError, match="K must"):
                verify_theorem(m, bad)

    def test_certificates_shared_across_repeats(self):
        m = OrderStatModel(components=(Uniform01(),) * 5, k=2)
        rep = verify_theorem(m, 2.0)
        assert len(rep.certificates) == 5
        assert len({id(c) for c in rep.certificates}) == 1
        # check_condition_batch certifies each distinct law once, from any
        # iterable, and gives the repeats that one certificate object.
        laws = [Uniform01(), Exponential(rate=2.0), Atomic(atoms=((1.0, 0.5), (2.0, 0.5)))] * 3
        for given in (laws, iter(laws)):
            certs = check_condition_batch(given, 2.0)
            assert certs == tuple(check_condition(d, 2.0) for d in laws)
            assert [id(c) for c in certs[3:]] == [id(c) for c in certs[:3]] * 2
            assert len({id(c) for c in certs}) == 3


class TestVerdictRules:
    """The private rules that every sandwich and tail verdict goes through."""

    PASS = regularity.check_condition(Uniform01(), 2.0)
    FAIL = regularity.check_condition(Uniform01(), 1.5)

    def test_sandwich_pass_fail_and_precondition(self):
        # The sandwich is [0.5, 2] * q with q = 1.
        assert bounds._sandwich_verdict(1.0, 1.5, 0.5, 2.0, (self.PASS,)) == ("pass", True)
        assert bounds._sandwich_verdict(1.0, 3.0, 0.5, 2.0, (self.PASS,)) == ("fail", False)
        assert bounds._sandwich_verdict(1.0, 0.25, 0.5, 2.0, (self.PASS,)) == ("fail", False)
        assert bounds._sandwich_verdict(1.0, 1.5, 0.5, 2.0, (self.PASS, self.FAIL)) == ("precondition-failed", True)
        assert bounds._sandwich_verdict(1.0, 3.0, 0.5, 2.0, (self.FAIL,)) == ("precondition-failed", False)

    def test_sandwich_relative_tolerance(self):
        tol = bounds.SANDWICH_REL_TOL
        # Each side holds up to tol times the larger of its two sides.
        assert bounds._sandwich_verdict(1.0, 2.0 * (1 + 0.5 * tol), 0.5, 2.0, ()) == ("pass", True)
        assert bounds._sandwich_verdict(1.0, 2.0 * (1 + 2.0 * tol), 0.5, 2.0, ()) == ("fail", False)
        assert bounds._sandwich_verdict(1.0, 0.5 * (1 - 0.5 * tol), 0.5, 2.0, ()) == ("pass", True)
        assert bounds._sandwich_verdict(1.0, 0.5 * (1 - 2.0 * tol), 0.5, 2.0, ()) == ("fail", False)

    def test_tail_row(self):
        tol = bounds.TAIL_TOL
        assert bounds._tail_row(0.1, "lower", 0.2, 0.3, 0.3 - 0.5 * tol).verdict == "pass"
        assert bounds._tail_row(0.1, "lower", 0.2, 0.3, 0.3 - 2.0 * tol).verdict == "fail"
        assert bounds._tail_row(10.0, "upper", 20.0, 0.3, 1.0).vacuous
        assert not bounds._tail_row(10.0, "upper", 20.0, 0.3, 0.99).vacuous

    def test_passed_is_one_property_and_no_field(self):
        classes = (TailBoundRow, TheoremReport, regularity.RegularityCertificate, regularity.GrowthLemmaReport)
        assert len({cls.passed for cls in classes}) == 1
        assert not any("passed" in {f.name for f in dataclasses.fields(cls)} for cls in classes)
        assert self.PASS.passed and not self.FAIL.passed and "passed" not in self.PASS.to_dict()

    def test_rules_are_not_public(self):
        assert "sandwich_verdict" not in bounds.__all__ and "tail_row" not in bounds.__all__
        assert not hasattr(bounds, "sandwich_verdict") and not hasattr(bounds, "tail_row")


M3 = OrderStatModel(components=(Uniform01(),) * 3, k=2)

# Each scalar that the number rule reads, as a call of one value.
SCALAR_INPUTS = {
    "find_min_K-K_lo": lambda v: regularity.find_min_K(Uniform01(), K_range=(v, 8.0)),
    "find_min_K-K_hi": lambda v: regularity.find_min_K(Uniform01(), K_range=(1.5, v)),
    "find_min_K-tol": lambda v: regularity.find_min_K(Uniform01(), tol=v),
    "kmin_quantile-r": lambda v: kmin_quantile(M3, v),
    "left_quantile_bisect-r": lambda v: dist.left_quantile_bisect(Uniform01().cdf, v),
    "left_quantile_bisect-guess": lambda v: dist.left_quantile_bisect(Uniform01().cdf, 0.5, guess=v),
    "left_quantile_bisect-candidate": lambda v: dist.left_quantile_bisect(Uniform01().cdf, 0.5, candidates=[v]),
    "verify_lower_tail-t": lambda v: verify_lower_tail(M3, 3.0, [1e-3, v]),
    "verify_upper_tail-t": lambda v: verify_upper_tail(M3, 3.0, [300.0, v]),
    "chebyshev_bound_gap-t": lambda v: chebyshev_bound_gap([0.5, 0.5], v),
    "lower_tail_bound-t": lambda v: lower_tail_bound(v, 3.0),
    "lower_tail_bound-K": lambda v: lower_tail_bound(0.5, v),
    "upper_tail_bound-t": lambda v: upper_tail_bound(v, 3.0),
    "upper_tail_bound-K": lambda v: upper_tail_bound(300.0, v),
    "default_lower_t_grid-count": lambda v: default_lower_t_grid(3.0, v),
    "default_upper_t_grid-count": lambda v: default_upper_t_grid(3.0, v),
}
# Strings of t inside the tail grids' ranges and a guess that is no number, and t <= 0
# and K <= 1 for the bounds.
MORE_BAD = [("verify_lower_tail-t", "1e-3"), ("verify_upper_tail-t", "300"), ("left_quantile_bisect-guess", "abc")]
MORE_BAD += [(name, bad) for name in ("lower_tail_bound-t", "upper_tail_bound-t") for bad in (0.0, -1.0)]
MORE_BAD += [(name, bad) for name in ("lower_tail_bound-K", "upper_tail_bound-K") for bad in (1.0, 0.5)]
# A count is an integer: not a float, even a whole one.
MORE_BAD += [(name, bad) for name in ("default_lower_t_grid-count", "default_upper_t_grid-count") for bad in (2.5, 2.0)]


@pytest.mark.parametrize(
    "name, bad",
    [(name, bad) for name in SCALAR_INPUTS for bad in (True, "0.5", math.nan)] + MORE_BAD,
    ids=lambda v: v if isinstance(v, str) and v in SCALAR_INPUTS else repr(v),
)
def test_scalars_follow_the_number_rule(name, bad):
    with pytest.raises(ValueError):
        SCALAR_INPUTS[name](bad)


class TestUnusableInputs:
    """Inputs that would overflow, underflow or check nothing raise ValueError."""

    M = M3

    def test_sandwich_power_overflow(self):
        with pytest.raises(ValueError, match="K\\^13 .* K must be at most"):
            verify_theorem(self.M, 1e40)

    def test_upper_cutoff_overflow(self):
        with pytest.raises(ValueError, match="K\\^5 .* K must be at most"):
            verify_upper_tail(self.M, 1e300, [1e305])

    def test_default_grid_out_of_range(self):
        with pytest.raises(ValueError, match="count must lie in \\[1, 641\\] at K=3"):
            default_upper_t_grid(3.0, 700)
        with pytest.raises(ValueError, match="count must lie in \\[1, 25\\] at K=1e\\+10"):
            default_lower_t_grid(1e10, 40)
        # The largest allowed count still gives positive, finite points.
        assert 0.0 < min(default_lower_t_grid(1e10, 25))
        assert max(default_upper_t_grid(3.0, 641)) < math.inf

    def test_thresholds_out_of_range(self):
        # t*q underflows to 0 at the lower grid's end and overflows to inf
        # at the upper grid's end; such a row would check nothing.
        tiny = OrderStatModel(components=(Uniform01(scale=1e-100),) * 3, k=2)
        with pytest.raises(ValueError, match="at t=1e-300 .* not a positive, finite, normal double"):
            verify_lower_tail(tiny, 1e10, default_lower_t_grid(1e10, 25))
        wide = OrderStatModel(components=(Uniform01(scale=10.0),) * 3, k=2)
        with pytest.raises(ValueError, match="threshold t\\*q = inf at t="):
            verify_upper_tail(wide, 3.0, default_upper_t_grid(3.0, 641))

    def test_four_families_at_the_smallest_scale_warn_of_nothing(self):
        # Grid points divided by the scale overflow to inf, where every cdf is 1.
        scale = 1e-308
        m = OrderStatModel((Uniform01(scale=scale), Exponential(scale=scale), HalfGaussian(scale=scale),
                            ParetoPower(p=2.0, scale=scale)), k=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            med = kmin_median(m)
            report = verify_theorem(m, 3.0)
        assert med / scale == pytest.approx(0.5992218605745995, rel=1e-9)
        assert report.med == med and report.passed
        assert report.ratio == pytest.approx(1.0007219521930446, rel=1e-9)

    @pytest.mark.parametrize("count", [0, -3])
    def test_count_below_one(self, count):
        for grid in (default_lower_t_grid, default_upper_t_grid):
            with pytest.raises(ValueError, match="count must lie in \\[1, 6"):
                grid(3.0, count)

    def test_empty_explicit_grid(self):
        for verify in (verify_lower_tail, verify_upper_tail):
            with pytest.raises(ValueError, match="at least one t"):
                verify(self.M, 3.0, [])


class TestSharedQuantile:
    def test_averaged_quantile_runs_once_per_model(self, monkeypatch):
        # verify_theorem, its median search and both tail checks share one
        # mixture quantile search.
        searches = []
        plain = MixtureCdf.quantile
        monkeypatch.setattr(MixtureCdf, "quantile", lambda self, r: searches.append(r) or plain(self, r))
        m = exp_chain()
        report = verify_theorem(m, 2.0)
        verify_lower_tail(m, 2.0)
        verify_upper_tail(m, 2.0)
        assert searches == [(m.k - 0.5) / m.n]
        # The cached value is left out of equality and repr.
        fresh = exp_chain()
        assert m == fresh and repr(m) == repr(fresh)
        assert report.q == averaged_quantile(fresh)


class TestBatchedCertificates:
    """Certificates from chunked family batches equal per-law check_condition."""

    def test_equal_to_per_law_checks(self):
        rng = np.random.default_rng(41)
        laws = sweep_laws(rng, 160)
        plain = {d for d in laws if not d.special_points()}
        assert any(isinstance(d, Atomic) for d in laws)
        assert any(d.special_points() and not isinstance(d, Atomic) for d in laws)
        assert len(plain) > 2 * (dist._RUN_CELLS // DEFAULT_GRID.points().size)
        verdicts = set()
        for K, grid in ((1.5, DEFAULT_GRID), (3.0, DEFAULT_GRID), (2.0, GridSpec(1e-3, 1e3, 5))):
            want = [sequential_engine.condition_certificate(d, K, grid).to_dict() for d in laws]
            assert [c.to_dict() for c in check_condition_batch(laws, K, grid)] == want
            assert [check_condition(d, K, grid).to_dict() for d in laws] == want
            verdicts.update(w["verdict"] for w in want)
        assert verdicts == {"pass", "fail"}

    def test_family_longer_than_a_block(self, monkeypatch):
        # 100 exponentials take fifteen runs of seven laws on the default
        # grid, the last one short; the one half-Gaussian among them is a
        # block of its own.
        monkeypatch.setattr(dist, "_RUN_CELLS", 7 * DEFAULT_GRID.points().size)
        rng = np.random.default_rng(43)
        laws = [Exponential(rate=float(rng.uniform(0.1, 10.0)), scale=float(10.0 ** rng.uniform(-2.0, 2.0)))
                for _ in range(100)]
        laws.insert(37, HalfGaussian(sigma=2.0))
        for K in (1.5, 3.0):
            want = tuple(sequential_engine.condition_certificate(d, K, DEFAULT_GRID) for d in laws)
            got = check_condition_batch(laws, K)
            assert got == want
            # Near t = 0 the odds grow like t, or t^2 for the half-Gaussian:
            # at K = 1.5 every law fails, each with its witness.
            assert {c.verdict for c in got} == {"fail" if K == 1.5 else "pass"}
            assert all(c.witness for c in got if not c.passed)

    def test_working_memory_is_a_few_blocks(self):
        # Peak traced memory less what the certificates keep: a few runs of
        # _RUN_CELLS doubles, not an array over all 5,000 laws (30 MB) nor
        # a grid held for each law with atoms or knots (13 MB here).
        rng = np.random.default_rng(44)
        laws = sweep_laws(rng, 5000)
        tracemalloc.start()
        try:
            certs = check_condition_batch(laws, 3.0)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(certs) == 5000
        assert peak - kept < 16 * dist._RUN_CELLS * 8

    def test_theorem_certificates_equal_per_law_checks(self):
        rng = np.random.default_rng(42)
        laws = sweep_laws(rng, 120)
        rep = verify_theorem(OrderStatModel(laws, 40), 3.0)
        want = [sequential_engine.condition_certificate(d, 3.0, DEFAULT_GRID).to_dict() for d in laws]
        assert [c.to_dict() for c in rep.certificates] == want
        first = {}
        for d, c in zip(laws, rep.certificates):
            assert first.setdefault(d, c) is c


class TestLowerTail:
    def test_three_uniforms_spot_row(self):
        m = OrderStatModel(components=(Uniform01(),) * 3, k=2)
        rows = verify_lower_tail(m, 2.0, t_grid=[2.0**-6])
        (row,) = rows
        assert row.side == "lower"
        assert row.t == 2.0**-6
        assert row.threshold == pytest.approx(0.5 * 2.0**-6, rel=1e-9)
        # P{2nd of 3 uniforms < u} = 3u^2 - 2u^3 with u = 1/128:
        assert row.exact_prob == pytest.approx(0.00018215179443359375, rel=1e-9)
        assert row.bound == pytest.approx(4.0 * math.exp(-1.5), rel=1e-12)
        assert row.passed and not row.vacuous

    def test_default_grid_all_pass(self):
        m = exp_chain(n=40, k=3)
        rows = verify_lower_tail(m, 3.0)
        assert len(rows) == 10
        assert all(r.passed for r in rows)
        assert [r.t for r in rows] == sorted(r.t for r in rows)

    def test_atomic_tail_is_exactly_zero(self):
        # All mass at 2.5: below the atom the strict cdf vanishes identically.
        m = OrderStatModel(components=(Atomic(atoms=((2.5, 1.0),)),) * 4, k=2)
        for row in verify_lower_tail(m, 2.0):
            assert row.exact_prob == 0.0
            assert row.passed

    def test_domain_is_strict(self):
        m = OrderStatModel(components=(Uniform01(),) * 3, k=2)
        with pytest.raises(ValueError):
            verify_lower_tail(m, 2.0, t_grid=[2.0**-5])
        with pytest.raises(ValueError):
            verify_lower_tail(m, 2.0, t_grid=[0.0])
        with pytest.raises(ValueError):
            verify_lower_tail(m, 2.0, t_grid=[-0.01])


class TestUpperTail:
    def test_bounded_support_is_exactly_zero(self):
        # Thresholds beyond the uniform support give survival exactly 0.
        m = OrderStatModel(components=(Uniform01(),) * 3, k=2)
        rows = verify_upper_tail(m, 2.0)
        assert len(rows) == 10
        for row in rows:
            assert row.exact_prob == 0.0
            assert row.passed

    def test_two_exponentials_vacuous_row(self):
        m = OrderStatModel(components=(Exponential(rate=1.0),) * 2, k=1)
        rows = verify_upper_tail(m, 3.0, t_grid=[3.0**6])
        (row,) = rows
        # 4 * (3^6)^(-1/(6 ln 3)) = 4/e > 1: budget holds but says nothing.
        assert row.bound == pytest.approx(4.0 * math.exp(-1.0), rel=1e-12)
        assert row.vacuous
        assert row.passed

    def test_nonvacuous_far_tail(self):
        m = OrderStatModel(components=(Exponential(rate=1.0),) * 2, k=1)
        t = 3.0**26
        rows = verify_upper_tail(m, 3.0, t_grid=[t])
        (row,) = rows
        assert not row.vacuous
        assert row.bound == pytest.approx(4.0 * math.exp(-26.0 / 6.0), rel=1e-12)
        assert row.exact_prob <= row.bound
        assert row.passed

    def test_domain_is_strict(self):
        m = OrderStatModel(components=(Uniform01(),) * 3, k=2)
        with pytest.raises(ValueError):
            verify_upper_tail(m, 2.0, t_grid=[2.0**5])
        with pytest.raises(ValueError):
            verify_upper_tail(m, 2.0, t_grid=[1.0])


class TestSerialization:
    def test_report_round_trip(self):
        rep = verify_theorem(OrderStatModel(components=(Uniform01(),) * 3, k=2), 2.0)
        assert json.loads(json.dumps(rep.to_dict())) == rep.to_dict()

    def test_failed_precondition_round_trip(self):
        rep = verify_theorem(OrderStatModel(components=(Uniform01(),) * 2, k=1), 1.5)
        assert json.loads(json.dumps(rep.to_dict())) == rep.to_dict()
        assert rep.verdict == "precondition-failed"

    def test_row_round_trip(self):
        m = OrderStatModel(components=(Exponential(rate=1.0),) * 2, k=1)
        for row in verify_upper_tail(m, 3.0) + verify_lower_tail(m, 3.0):
            assert json.loads(json.dumps(row.to_dict())) == row.to_dict()
