import math

import numpy as np
import pytest
import scipy.stats as st

import sequential_engine
from conftest import sweep_laws, sweep_points
from inidstat import ostat
from inidstat.dist import (
    Atomic,
    Exponential,
    HalfGaussian,
    ParetoPower,
    PiecewiseLinearCdf,
    Uniform01,
)
from inidstat.ostat import (
    OrderStatModel,
    averaged_quantile,
    kmin_cdf,
    kmin_median,
    kmin_quantile,
    kmin_strict_cdf,
)
from inidstat.pbin import tail_at_least


def mixed_model(k=2):
    return OrderStatModel(
        components=(
            Uniform01(),
            Exponential(rate=0.5),
            ParetoPower(p=2.0),
            HalfGaussian(sigma=2.0),
            Atomic(atoms=((0.25, 0.5), (1.5, 0.5))),
            PiecewiseLinearCdf(knots=((0.0, 0.0), (2.0, 1.0))),
        ),
        k=k,
    )


class TestModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            OrderStatModel(components=(), k=1)
        with pytest.raises(ValueError):
            OrderStatModel(components=(Uniform01(),), k=0)
        with pytest.raises(ValueError):
            OrderStatModel(components=(Uniform01(),), k=2)
        with pytest.raises(TypeError):
            OrderStatModel(components=(Uniform01(), 0.3), k=1)
        with pytest.raises(TypeError):
            OrderStatModel(components=(Uniform01(),), k=1.0)

    def test_rank_must_be_an_integer(self):
        comps = (Uniform01(),) * 3
        for bad in (True, False, 1.5, 2.0, "2", None, np.bool_(True)):
            with pytest.raises(ValueError, match='"k" must be an integer'):
                OrderStatModel(comps, bad)
        with pytest.raises(ValueError, match='"k" must be an integer'):
            OrderStatModel(comps, 2).with_rank(True)
        m = OrderStatModel(comps, np.int64(2))
        assert m.k == 2 and type(m.k) is int

    def test_with_rank(self):
        m = mixed_model(k=2)
        m5 = m.with_rank(5)
        assert m5.k == 5 and m5.components == m.components
        with pytest.raises(ValueError):
            m.with_rank(7)

    def test_special_points_union(self):
        pts = mixed_model().special_points()
        for expected in (0.25, 1.5, 0.0, 2.0):
            assert expected in pts
        assert list(pts) == sorted(pts)


class TestBridgeIdentity:
    """P{k-th smallest <= t} must equal the count tail with p_i = F_i(t)."""

    @staticmethod
    def cases():
        """(laws, thresholds, ranks): the mixed model, then a seeded sweep of every family."""
        rng = np.random.default_rng(13)
        laws = sweep_laws(rng, 25)
        return [
            (mixed_model().components, (0.0, 0.1, 0.25, 0.5, 1.0, 1.5, 2.0, 7.0), range(1, 7)),
            (laws, sweep_points(rng, laws, 400), (1, 2, 9, 13, 24, 25)),
        ]

    def test_exact_equality_mixed_families(self):
        for laws, ts, ks in self.cases():
            models = [OrderStatModel(laws, k) for k in ks]
            for t in ts:
                direct = [c.cdf(t) for c in laws]
                for m in models:
                    assert kmin_cdf(m, t) == tail_at_least(direct, m.k)

    def test_strict_version_uses_left_limits(self):
        for laws, ts, ks in self.cases():
            models = [OrderStatModel(laws, k) for k in ks]
            for t in ts:
                direct = [c.cdf_left_limit(t) for c in laws]
                for m in models:
                    assert kmin_strict_cdf(m, t) == tail_at_least(direct, m.k)
        # At a continuity point the two sides agree.
        m = mixed_model()
        assert kmin_cdf(m, 0.8) == pytest.approx(kmin_strict_cdf(m, 0.8), abs=1e-15)

    def test_array_thresholds_equal_scalar_calls(self):
        for laws, ts, ks in self.cases():
            ts = np.asarray(ts, dtype=float)
            for k in ks:
                m = OrderStatModel(laws, k)
                for f in (kmin_cdf, kmin_strict_cdf):
                    batch = f(m, ts)
                    assert batch.shape == ts.shape
                    alone = [f(m, float(t)) for t in ts]
                    assert all(type(v) is float for v in alone)
                    assert batch.tolist() == alone
                    grid = f(m, ts[:8].reshape(2, 4))
                    assert grid.tolist() == batch[:8].reshape(2, 4).tolist()

    @pytest.mark.parametrize("law", [Exponential(), Atomic(atoms=((0.5, 0.5), (1.5, 0.5))), Uniform01()],
                             ids=["exponential", "atomic", "uniform"])
    def test_nan_threshold_is_refused(self, law):
        # Each family's formula reads a NaN its own way (0, 1 or nan), so the
        # law, the mixture and the engine refuse t itself, by one rule.
        m = OrderStatModel(components=(law, Uniform01()), k=1)
        mix = m.mixture
        calls = (law.cdf, law.cdf_left_limit, law.survival, mix.cdf, mix.cdf_left_limit, mix.survival,
                 mix.component_cdfs, lambda t: kmin_cdf(m, t), lambda t: kmin_strict_cdf(m, t))
        for f in calls:
            for t in (math.nan, np.array([0.5, math.nan])):
                with pytest.raises(ValueError, match="threshold t must not be NaN"):
                    f(t)
            for t in (True, np.bool_(False), "0.5", None, [0.5, None], np.array([True]), 10**400):
                with pytest.raises(ValueError, match="threshold t must be an int or a float"):
                    f(t)
            # Every family's cdf is 0 at -inf and 1 at inf; ints are numbers.
            assert np.asarray(f(np.array([-math.inf, math.inf]))).tolist() == np.asarray(f([-1e308, 1e308])).tolist()
            assert np.asarray(f(2)).tolist() == np.asarray(f(np.int64(2))).tolist() == np.asarray(f(2.0)).tolist()

    def test_minimum_is_complement_of_product(self):
        comps = (Exponential(rate=1.0), Exponential(rate=2.0), Uniform01())
        m = OrderStatModel(components=comps, k=1)
        for t in (0.05, 0.3, 0.9):
            prod = math.prod(1.0 - c.cdf(t) for c in comps)
            assert kmin_cdf(m, t) == pytest.approx(1.0 - prod, rel=1e-14)

    def test_maximum_is_product(self):
        comps = (Exponential(rate=1.0), Exponential(rate=2.0), Uniform01())
        m = OrderStatModel(components=comps, k=3)
        for t in (0.05, 0.3, 0.9):
            prod = math.prod(c.cdf(t) for c in comps)
            assert kmin_cdf(m, t) == pytest.approx(prod, rel=1e-14)


class TestDuality:
    def test_kmax_example(self):
        # The k-th largest of n is the (n - k + 1)-th smallest.  Largest of
        # two uniforms (k = 1, rank 2): P{max <= 1/2} = 1/4.
        m = OrderStatModel(components=(Uniform01(), Uniform01()), k=2)
        assert kmin_cdf(m, 0.5) == pytest.approx(0.25, rel=1e-15)
        # The second largest (k = 2, rank 1) is the minimum: 3/4.
        assert kmin_cdf(m.with_rank(1), 0.5) == pytest.approx(0.75, rel=1e-15)


class TestIidReduction:
    def test_uniform_order_statistic_is_binomial_tail(self):
        rng = np.random.default_rng(1234)
        for n in (1, 2, 5, 17, 50):
            comps = (Uniform01(),) * n
            for t in (0.1, 0.3, 0.5, 0.7, 0.9):
                ks = range(1, n + 1) if n <= 5 else rng.integers(1, n + 1, size=6)
                for k in ks:
                    m = OrderStatModel(components=comps, k=int(k))
                    expected = st.binom.sf(k - 1, n, t)
                    assert kmin_cdf(m, t) == pytest.approx(expected, abs=1e-10)

    def test_iid_exponential_median_matches_beta_quantile(self):
        # k-th smallest of n iid U(0,1) is Beta(k, n-k+1); map through -ln(1-u).
        n, k = 9, 4
        m = OrderStatModel(components=(Exponential(rate=1.0),) * n, k=k)
        u_med = st.beta.ppf(0.5, k, n - k + 1)
        assert kmin_median(m) == pytest.approx(-math.log1p(-u_med), rel=1e-9)


class TestMedianAndQuantiles:
    def test_closed_form_median_three_uniforms(self):
        m = OrderStatModel(components=(Uniform01(),) * 3, k=2)
        assert kmin_median(m) == pytest.approx(0.5, rel=1e-9)

    @pytest.mark.parametrize("scale", [1e-300, 1e61, 1e300])
    def test_closed_form_median_three_uniforms_over_the_double_range(self, scale):
        m = OrderStatModel(components=(Uniform01(scale=scale),) * 3, k=2)
        assert averaged_quantile(m) == pytest.approx(0.5 * scale, rel=1e-10)
        assert kmin_median(m) == pytest.approx(0.5 * scale, rel=1e-9)

    def test_closed_form_median_two_exponentials(self):
        m = OrderStatModel(components=(Exponential(rate=1.0),) * 2, k=1)
        assert kmin_median(m) == pytest.approx(math.log(2.0) / 2.0, rel=1e-9)

    def test_atomic_median_is_exact(self):
        m = OrderStatModel(components=(Atomic(atoms=((2.5, 1.0),)),) * 4, k=2)
        assert kmin_median(m) == 2.5

    def test_median_defining_inequalities(self):
        models = [
            mixed_model(k=2),
            mixed_model(k=5),
            OrderStatModel(components=(Atomic(atoms=((1.0, 0.5), (3.0, 0.5))),) * 3, k=2),
            OrderStatModel(
                components=(Exponential(rate=1.0), ParetoPower(p=1.0), Uniform01()), k=2
            ),
        ]
        for m in models:
            med = kmin_median(m)
            assert kmin_cdf(m, med) >= 0.5
            assert kmin_strict_cdf(m, med) <= 0.5 + 1e-12

    def test_meets_the_quantile_contract_at_every_width(self, monkeypatch):
        # Tails of every width min(k, n - k + 1) get at most four thresholds
        # per pass, and the answer agrees with one-point bisection on
        # kmin_cdf within the stopping width.
        rng = np.random.default_rng(14)
        laws = sweep_laws(rng, 700)
        sizes = []
        for n, k in ((25, 3), (25, 13), (700, 40), (700, 320), (700, 321), (700, 690)):
            m = OrderStatModel(laws[:n], k)
            for r in (0.05, 0.5):
                monkeypatch.setattr(ostat, "kmin_cdf", lambda m, t: sizes.append(np.size(t)) or kmin_cdf(m, t))
                got = kmin_quantile(m, r)
                monkeypatch.undo()
                sequential_engine.check_left_quantile(lambda t: kmin_cdf(m, t), r, got, m.special_points())
                assert 1 <= max(sizes) <= 4, (n, k, r)
                sizes.clear()

    def test_median_search_starts_from_the_averaged_quantile(self, monkeypatch):
        # The first call brackets q; at most 8 cdf calls of at most 4 points
        # per median, at widths 3, 320, 321 and 2,500.
        rng = np.random.default_rng(15)
        laws = sweep_laws(rng, 5000)
        calls = []
        for n, k in ((25, 3), (700, 320), (700, 321), (5000, 2500)):
            m = OrderStatModel(laws[:n], k)
            monkeypatch.setattr(ostat, "kmin_cdf", lambda m, t: calls.append(np.array(t)) or kmin_cdf(m, t))
            med = kmin_median(m)
            monkeypatch.undo()
            assert len(calls) <= 8 and max(c.size for c in calls) <= 4, (n, k, len(calls))
            assert calls[0].min() < averaged_quantile(m) < calls[0].max()
            calls.clear()
            at, below = kmin_cdf(m, np.array([med, med - sequential_engine.stopping_width(med)]))
            assert at >= 0.5 > below

    def test_quantile_is_left_inverse(self):
        m = mixed_model(k=3)
        for r in (0.01, 0.2, 0.5, 0.77, 0.99):
            q = kmin_quantile(m, r)
            assert kmin_cdf(m, q) >= r
            if q > 0:
                assert kmin_cdf(m, q * (1.0 - 1e-9)) < r + 1e-12

    def test_order_zero_and_one(self):
        m = mixed_model(k=2)
        assert kmin_quantile(m, 0.0) == 0.0
        # Component essential sups sorted: (1.0, 1.5, 2.0, inf, inf, inf);
        # the k-th smallest tops out at the k-th of these.
        assert kmin_quantile(m, 1.0) == 1.5
        assert kmin_quantile(m.with_rank(3), 1.0) == 2.0
        assert kmin_quantile(m.with_rank(4), 1.0) == math.inf

    def test_order_domain(self):
        m = mixed_model()
        for bad in (-0.1, 1.1, math.nan):
            with pytest.raises(ValueError):
                kmin_quantile(m, bad)


class TestAveragedQuantile:
    def test_three_uniforms(self):
        m = OrderStatModel(components=(Uniform01(),) * 3, k=2)
        assert averaged_quantile(m) == pytest.approx(0.5, rel=1e-12)

    def test_single_exponential(self):
        m = OrderStatModel(components=(Exponential(rate=1.0),), k=1)
        assert averaged_quantile(m) == pytest.approx(math.log(2.0), rel=1e-9)

    def test_two_exponentials_closed_form(self):
        # Mixture cdf 1 - (e^{-t} + e^{-2t})/2 at order 1/4 solves a quadratic
        # in e^{-t}: e^{-t} = (sqrt(7) - 1)/2.
        m = OrderStatModel(components=(Exponential(rate=1.0), Exponential(rate=2.0)), k=1)
        expected = -math.log((math.sqrt(7.0) - 1.0) / 2.0)
        assert averaged_quantile(m) == pytest.approx(expected, rel=1e-9)

    def test_midpoint_order(self):
        m = mixed_model(k=4)
        r = (4 - 0.5) / 6
        assert averaged_quantile(m) == m.mixture.quantile(r)
