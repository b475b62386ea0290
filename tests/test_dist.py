import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import sequential_engine
from conftest import CATALOGUE, ragged_laws, sweep_laws, sweep_points
from inidstat import dist
from inidstat.dist import (
    Atomic,
    Distribution,
    Exponential,
    HalfGaussian,
    MixtureCdf,
    ParetoPower,
    PiecewiseLinearCdf,
    Uniform01,
    left_quantile_bisect,
)

ALL_FAMILIES = (
    Uniform01(),
    ParetoPower(p=0.5),
    ParetoPower(p=2.0),
    Exponential(rate=1.0),
    Exponential(rate=2.0, scale=3.0),
    HalfGaussian(sigma=1.0),
    PiecewiseLinearCdf(knots=((0.0, 0.0), (1.0, 0.25), (2.0, 0.25), (4.0, 1.0))),
    Atomic(atoms=((1.0, 0.5), (2.0, 0.5))),
)


class TestCdf:
    def test_uniform_identity(self):
        assert Uniform01().cdf(0.3) == 0.3

    def test_pareto_closed_form(self):
        assert ParetoPower(p=2.0).cdf(2.0) == 0.75

    def test_scaled_exponential_median(self):
        d = Exponential(rate=1.0, scale=2.0)
        assert d.cdf(2.0 * math.log(2.0)) == pytest.approx(0.5, rel=1e-15)

    def test_negative_abscissa_is_zero(self):
        for d in ALL_FAMILIES:
            assert d.cdf(-1.0) == 0.0
            assert d.cdf_left_limit(-1.0) == 0.0

    def test_half_gaussian_matches_erf(self):
        d = HalfGaussian(sigma=2.0)
        t = 1.7
        assert d.cdf(t) == pytest.approx(math.erf(t / (2.0 * math.sqrt(2))), rel=1e-15)

    def test_survival_complement(self):
        for d in ALL_FAMILIES:
            for t in (0.1, 1.0, 3.7):
                assert d.survival(t) == pytest.approx(1.0 - d.cdf(t), abs=1e-15)

    def test_vectorized_shape(self):
        t = np.array([0.1, 0.5, 2.0])
        for d in ALL_FAMILIES:
            out = d.cdf(t)
            assert isinstance(out, np.ndarray) and out.shape == t.shape
            assert isinstance(d.cdf(0.5), float)

    def test_monotone_on_log_grid(self):
        t = np.logspace(-8, 8, 400)
        for d in ALL_FAMILIES:
            vals = d.cdf(t)
            assert np.all(np.diff(vals) >= 0.0)
            assert np.all((vals >= 0.0) & (vals <= 1.0))

    def test_pareto_relative_accuracy_near_support_start(self):
        # 1 - x**(-p) cancels near x = 1; the cdf must keep its relative accuracy.
        for p in (0.5, 1.0, 2.0, 3.3):
            for h in 10.0 ** -np.arange(1, 13):
                h = (1.0 + h) - 1.0  # so that 1 + h is exact
                expect = -math.expm1(-p * math.log1p(h))
                assert ParetoPower(p=p).cdf(1.0 + h) == pytest.approx(expect, rel=1e-14, abs=0.0)

    def test_pareto_support_starts_at_scale(self):
        d = ParetoPower(p=1.0, scale=5.0)
        assert d.cdf(4.999) == 0.0
        assert d.cdf(5.0) == 0.0
        assert d.cdf(10.0) == 0.5


class TestLeftLimit:
    def test_continuous_families_agree(self):
        for d in ALL_FAMILIES[:7]:
            for t in (0.2, 1.0, 3.0):
                assert d.cdf_left_limit(t) == d.cdf(t)

    def test_atomic_step(self):
        d = Atomic(atoms=((1.0, 0.5), (2.0, 0.5)))
        assert d.cdf_left_limit(2.0) == 0.5
        assert d.cdf_left_limit(1.5) == 0.5
        assert d.cdf(2.0) == 1.0
        assert d.cdf(1.0) == 0.5
        assert d.cdf_left_limit(1.0) == 0.0


class TestQuantile:
    def test_uniform_inverse(self):
        assert Uniform01().quantile(0.3) == 0.3

    def test_atomic_left_quantile(self):
        d = Atomic(atoms=((1.0, 0.5), (2.0, 0.5)))
        # P{X < 1} = 0 <= 0.5 and P{X <= 1} = 0.5 >= 0.5.
        assert d.quantile(0.5) == 1.0
        assert d.quantile(0.5 + 1e-12) == 2.0
        assert d.quantile(1.0) == 2.0

    def test_mixture_of_exponentials(self):
        # Solving (e^-t + e^-2t)/2 = 0.75 through the quadratic in e^-t
        # gives e^-t = (sqrt(7) - 1)/2.
        mix = MixtureCdf((Exponential(rate=1.0), Exponential(rate=2.0)))
        expect = -math.log((math.sqrt(7.0) - 1.0) / 2.0)
        assert mix.quantile(0.25) == pytest.approx(expect, rel=1e-9)
        assert mix.quantile(0.25) == pytest.approx(0.19495017655787056, rel=1e-9)

    def test_conventions_at_zero_and_one(self):
        for d in ALL_FAMILIES:
            assert d.quantile(0.0) == 0.0
        assert ParetoPower(p=1.0).quantile(1.0) == math.inf
        assert Exponential(rate=1.0).quantile(1.0) == math.inf
        assert HalfGaussian(sigma=1.0).quantile(1.0) == math.inf
        assert Uniform01(scale=2.0).quantile(1.0) == 2.0
        assert Atomic(atoms=((1.0, 0.5), (2.0, 0.5))).quantile(1.0) == 2.0

    def test_domain_errors(self):
        for bad in (-0.1, 1.1, math.nan):
            with pytest.raises(ValueError):
                Uniform01().quantile(bad)
        for bad in (True, np.bool_(True), "0.5", None):
            with pytest.raises(ValueError, match="quantile order must be an int or a float"):
                Uniform01().quantile(bad)

    def test_scalar_orders_give_the_array_bits(self):
        # numpy's scalar ``**`` rounds differently from its array loop: at
        # p != 1 it gives about 5% of orders another last bit.
        u = np.random.default_rng(21).random(2000)
        for d in (*ALL_FAMILIES, ParetoPower(p=3.0, scale=1.7)):
            assert [d.quantile(v) for v in u.tolist()] == d.quantile(u).tolist(), d

    def test_order_zero_is_positive_zero(self):
        # Masked only when the input holds a 0 (or -0.0); the mixture too.
        mix = MixtureCdf(ALL_FAMILIES)
        for d in (*ALL_FAMILIES, ParetoPower(p=2.0, scale=3.0), mix):
            for r in (0.0, -0.0):
                assert math.copysign(1.0, d.quantile(r)) == 1.0
            got = d.quantile(np.array([[0.5, -0.0], [0.0, 0.25]]))
            assert got.shape == (2, 2) and got[0, 1] == got[1, 0] == 0.0
            assert math.copysign(1.0, got[0, 1]) == math.copysign(1.0, got[1, 0]) == 1.0
            assert got[0, 0] == d.quantile(0.5) and got[1, 1] == d.quantile(0.25)
            assert d.quantile(np.array([])).shape == (0,)

    def test_domain_errors_in_arrays(self):
        for d in (Uniform01(), ParetoPower(p=2.0), MixtureCdf(ALL_FAMILIES)):
            for bad in (-0.1, 1.1, math.nan, math.inf):
                with pytest.raises(ValueError, match="must lie in"):
                    d.quantile(np.array([0.2, bad, 0.7]))
                with pytest.raises(ValueError, match="must lie in"):
                    d.quantile(bad)
            for bad in (True, "0.5", None, [0.2, None], np.array([True, False])):
                with pytest.raises(ValueError, match="quantile order must be an int or a float"):
                    d.quantile(bad)
            # Ints are orders: 0 and 1 by the conventions.
            assert d.quantile(np.array([0, 1])).tolist() == [d.quantile(0.0), d.quantile(1.0)]

    def test_piecewise_flat_segment_lands_left(self):
        d = PiecewiseLinearCdf(knots=((0.0, 0.0), (1.0, 0.25), (2.0, 0.25), (4.0, 1.0)))
        assert d.quantile(0.25) == 1.0
        assert d.quantile(0.25 + 1e-9) == pytest.approx(2.0, abs=1e-7)
        assert d.quantile(1.0) == 4.0

    def test_galois_connection(self):
        rng = np.random.default_rng(42)
        rs = rng.random(1000)
        rs = rs[(rs > 0.0) & (rs < 1.0)]
        for d in ALL_FAMILIES:
            q = d.quantile(rs)
            assert np.all(d.cdf(q) >= rs - 1e-12)
            assert np.all(d.cdf_left_limit(q) <= rs + 1e-12)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(7)
        rs = rng.random(200)
        for d in ALL_FAMILIES:
            scaled = d.scaled(7.3)
            q1 = np.asarray(d.quantile(rs))
            q2 = np.asarray(scaled.quantile(rs))
            assert np.allclose(q2, 7.3 * q1, rtol=1e-10, atol=0.0)

    def test_round_trip_strictly_increasing(self):
        for d in (Uniform01(), Exponential(rate=1.0), HalfGaussian(sigma=0.5), ParetoPower(p=2.0)):
            for t in (0.3, 1.1, 2.5, 9.0):
                r = d.cdf(t)
                if 0.0 < r < 1.0:
                    assert d.quantile(r) == pytest.approx(t, rel=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(r=hst.floats(min_value=1e-9, max_value=1.0 - 1e-9))
    def test_galois_property_mixture(self, r):
        mix = MixtureCdf(
            (Uniform01(), Exponential(rate=2.0), Atomic(atoms=((0.5, 0.25), (1.5, 0.75))))
        )
        q = mix.quantile(r)
        assert mix.cdf(q) >= r - 1e-9
        assert mix.cdf_left_limit(q) <= r + 1e-9


class TestBisectionHelper:
    def test_matches_closed_form(self):
        d = Exponential(rate=1.0)
        got = left_quantile_bisect(lambda t: d.cdf(t), 0.5)
        assert got == pytest.approx(math.log(2.0), rel=1e-10)

    def test_snaps_to_jump(self):
        d = Atomic(atoms=((2.5, 1.0),))
        got = left_quantile_bisect(lambda t: d.cdf(t), 0.5, candidates=d.special_points())
        assert got == 2.5

    def test_small_quantiles_keep_relative_accuracy(self):
        d = Exponential(rate=1.0, scale=1e-6)
        got = left_quantile_bisect(lambda t: d.cdf(t), 0.5)
        assert got == pytest.approx(1e-6 * math.log(2.0), rel=1e-9)

    def test_unreachable_order(self):
        with pytest.raises(ValueError, match="not reached"):
            left_quantile_bisect(lambda t: 0.0, 0.5)

    def test_nan_cdf_value_is_refused(self):
        # A NaN value moves neither end of the bracket; the search names its abscissa.
        with pytest.raises(ValueError, match="cdf value at t = 0.0 is NaN"):
            left_quantile_bisect(lambda t: np.full(np.shape(t), np.nan), 0.5)
        nan_above_two = lambda t: np.where(np.asarray(t) > 2.0, np.nan, np.asarray(t) / 4.0)
        with pytest.raises(ValueError, match="cdf value at t = 16.0 is NaN"):
            left_quantile_bisect(nan_above_two, 0.75)

    def test_guess_and_candidates_are_named(self):
        # Both are read by the number rule; a guess of 0 or below is ignored.
        with pytest.raises(ValueError, match="guess must be a finite real, got 'abc'"):
            left_quantile_bisect(Uniform01().cdf, 0.5, guess="abc")
        with pytest.raises(ValueError, match="candidate must be a finite real, got nan"):
            left_quantile_bisect(Uniform01().cdf, 0.5, candidates=[0.5, math.nan])
        for guess in (0.0, -1.0):
            assert left_quantile_bisect(Uniform01().cdf, 0.5, guess=guess) == left_quantile_bisect(Uniform01().cdf, 0.5)


def _step_at(x):
    return lambda t: np.where(np.asarray(t) >= x, 1.0, 0.0)


class TestBatchedSearch:
    """The search meets the left-quantile contract from a few probes per cdf call.

    Plain bisection (``sequential_engine.left_quantile``) is the reference:
    the answers agree within the stopping width, and exactly at atoms and
    knots.
    """

    @staticmethod
    def agrees(cdf, r, candidates=(), guess=None):
        got = left_quantile_bisect(cdf, r, candidates, guess)
        sequential_engine.check_left_quantile(cdf, r, got, candidates)
        return got

    @staticmethod
    def counted(cdf):
        # cdf, and the number of points of each call made to it.
        sizes = []
        return (lambda t: sizes.append(np.size(t)) or cdf(t)), sizes

    def test_smooth_laws(self):
        rng = np.random.default_rng(31)
        laws = [Exponential(rate=1.0, scale=float(10.0 ** e)) for e in (-6, -1, 0, 3, 8)]
        laws += [d for d in sweep_laws(rng, 40) if not d.special_points()]
        for d in laws:
            for r in (1e-12, 1e-3, 0.25, 0.5, 0.9, 1.0 - 1e-9, 1.0):
                self.agrees(d.cdf, r)

    def test_atoms_and_knots_snap_like_the_plain_loop(self):
        rng = np.random.default_rng(32)
        atomic = Atomic(atoms=((0.5, 0.3), (1.5, 0.7)), scale=3.0)
        piecewise = PiecewiseLinearCdf(knots=((0.0, 0.0), (1.0, 0.25), (2.0, 0.25), (4.0, 1.0)), scale=0.7)
        mixtures = [MixtureCdf(sweep_laws(rng, 12)) for _ in range(4)]
        mixtures.append(MixtureCdf((atomic, Uniform01(), Atomic(atoms=((2.0, 1.0),)))))
        for f in (atomic, piecewise, *mixtures):
            for r in (0.1, 0.25, 0.3, 0.3 + 1e-12, 0.5, 2.0 / 3.0, 0.7, 0.999):
                self.agrees(f.cdf, r, f.special_points())
                # Candidates that the bracket does not hold are skipped alike.
                self.agrees(f.cdf, r, (1e-3, 1e3))
        assert self.agrees(atomic.cdf, 0.5, atomic.special_points()) == 4.5
        assert self.agrees(piecewise.cdf, 0.25, piecewise.special_points()) == 0.7

    def test_mixture_quantile_at_every_size(self, monkeypatch):
        # Every mixture size asks for at most four points per cdf call.
        rng = np.random.default_rng(33)
        laws = sweep_laws(rng, 1001)
        sizes = []
        plain_cdf = MixtureCdf.cdf
        for n in (3, 12, 1000, 1001):
            mix = MixtureCdf(laws[:n])
            for r in (0.01, 0.5, 0.93):
                monkeypatch.setattr(MixtureCdf, "cdf", lambda self, t: sizes.append(np.size(t)) or plain_cdf(self, t))
                got = mix.quantile(r)
                monkeypatch.undo()
                sequential_engine.check_left_quantile(mix.cdf, r, got, mix.special_points())
                assert 1 <= max(sizes) <= 4, (n, r)
                sizes.clear()

    def test_mixture_quantile_on_an_array(self, monkeypatch):
        # 2,000 orders, 0 and 1 among them, searched one at a time: each
        # element equals the scalar call (checked on every fifth), and each
        # cdf call asks for at most four points.
        rng = np.random.default_rng(34)
        mix = MixtureCdf(sweep_laws(rng, 30))
        rs = np.concatenate([[0.0, 1.0, 0.25, 0.3], rng.uniform(0.0, 1.0, 1996)]).reshape(40, 50)
        calls = []
        plain_cdf = MixtureCdf.cdf
        monkeypatch.setattr(MixtureCdf, "cdf", lambda self, t: calls.append(np.size(t)) or plain_cdf(self, t))
        got = mix.quantile(rs)
        monkeypatch.undo()
        assert got.shape == rs.shape
        assert got.ravel()[::5].tolist() == [mix.quantile(r) for r in rs.ravel()[::5].tolist()]
        assert got[0, 0] == 0.0 and got[0, 1] == max(d.quantile(1.0) for d in mix.components)
        assert max(calls) <= 4
        for r, q in zip(rs.ravel()[2:50].tolist(), got.ravel()[2:50].tolist()):
            sequential_engine.check_left_quantile(mix.cdf, r, q, mix.special_points())

    def test_answers_near_the_smallest_subnormal(self):
        # A jump just above 0: the cold bracket runs down to the smallest
        # subnormal.
        self.agrees(_step_at(5e-324), 0.5)
        self.agrees(_step_at(1e-310), 0.5)
        assert self.agrees(_step_at(1e-310), 0.5, (1e-310,)) == 1e-310
        self.agrees(Uniform01(scale=1e-300).cdf, 0.5)
        assert left_quantile_bisect(_step_at(5e-324), 0.5) == 5e-324

    def test_answers_near_the_doubling_limit(self):
        # 2**1023 < 1e308 <= the largest finite double: reached at the last
        # point of the bracket.
        assert self.agrees(_step_at(1e60), 0.5, (1e60,)) == 1e60
        assert self.agrees(_step_at(1e300), 0.5, (1e300,)) == 1e300
        assert self.agrees(_step_at(1e308), 0.5, (1e308,)) == 1e308
        self.agrees(_step_at(1e308), 0.5)
        self.agrees(Exponential(rate=1.0, scale=1e50).cdf, 0.5)
        self.agrees(Uniform01(scale=1e300).cdf, 0.5)
        for cdf in (lambda t: 0.0, lambda t: 0.4):
            for guess in (None, 1.0, 1e100):
                with pytest.raises(ValueError, match="not reached") as batched:
                    left_quantile_bisect(cdf, 0.5, guess=guess)
                with pytest.raises(ValueError) as plain:
                    sequential_engine.left_quantile(cdf, 0.5)
                assert str(batched.value) == str(plain.value)

    def test_scalar_returning_cdf(self):
        for value in (0.0, 0.4, 0.5, 1.0):
            for r in (0.0, 0.3, 0.5):
                if value >= r:
                    self.agrees(lambda t: value, r)
                    self.agrees(lambda t: value, r, guess=3.0)

    def test_probes_come_in_batches(self):
        d = Exponential(rate=1.0, scale=37.0)
        cdf, sizes = self.counted(d.cdf)
        left_quantile_bisect(cdf, 0.5)
        assert all(1 <= s <= 4 for s in sizes)
        plain = []
        sequential_engine.left_quantile(lambda t: plain.append(t) or d.cdf(t), 0.5)
        assert len(sizes) <= 8 < 40 <= len(plain)
        sizes.clear()
        left_quantile_bisect(cdf, 0.5, guess=37.0 * math.log(2.0) * 1.001)
        assert len(sizes) <= 3 and max(sizes) <= 4

    @settings(max_examples=60, deadline=None)
    @given(
        seed=hst.integers(0, 2**32 - 1),
        log_scale=hst.floats(-200.0, 50.0),
        r=hst.floats(1e-12, 1.0),
        log_miss=hst.floats(-8.0, 8.0),
    )
    def test_random_mixtures_and_guesses(self, seed, log_scale, r, log_miss):
        rng = np.random.default_rng(seed)
        mix = MixtureCdf(tuple(d.scaled(10.0**log_scale) for d in sweep_laws(rng, int(rng.integers(1, 8)))))
        try:
            q = sequential_engine.left_quantile(mix.cdf, r, mix.special_points())
        except ValueError:
            return  # not reached below 2**200
        for guess in (None, q, q * 10.0**log_miss):
            self.agrees(mix.cdf, r, mix.special_points(), guess)

    def test_adversarial_guesses(self):
        # A guess off by 1e6 either way, or of 0, costs at most one call
        # more than no guess; a guess on a flat stretch at level r, or on a
        # step, still gives the left end.
        flat = PiecewiseLinearCdf(knots=((0.0, 0.0), (1.0, 0.25), (2.0, 0.25), (4.0, 1.0)), scale=0.7)
        rng = np.random.default_rng(35)
        cases = [
            (Exponential(rate=1.0, scale=37.0).cdf, 0.5, (), 37.0 * math.log(2.0)),
            (MixtureCdf(sweep_laws(rng, 20)).cdf, 0.4, (), None),
            (flat.cdf, 0.25, flat.special_points(), 0.7),
            (_step_at(3.0), 0.5, (3.0,), 3.0),
            (_step_at(3.0), 0.5, (), 3.0),
        ]
        for cdf, r, candidates, answer in cases:
            cold, cold_sizes = self.counted(cdf)
            left_quantile_bisect(cold, r, candidates)
            answer = answer or left_quantile_bisect(cdf, r, candidates)
            for guess in (answer * 1e6, answer / 1e6, 0.0, answer):
                warm, sizes = self.counted(cdf)
                sequential_engine.check_left_quantile(cdf, r, left_quantile_bisect(warm, r, candidates, guess), candidates)
                assert len(sizes) <= len(cold_sizes) + 1, (r, guess, len(sizes), len(cold_sizes))
        # Guesses inside the flat stretch and at either end of the step.
        for guess in (0.8, 1.05, 1.4, 0.7 * 1.02):
            assert self.agrees(flat.cdf, 0.25, flat.special_points(), guess) == 0.7
            self.agrees(flat.cdf, 0.25, (), guess)
        for guess in (3.0, float(np.nextafter(3.0, 0.0)), 2.9, 3.1):
            assert self.agrees(_step_at(3.0), 0.5, (3.0,), guess) == 3.0
            self.agrees(_step_at(3.0), 0.5, (), guess)


class TestMixture:
    def test_cdf_is_average(self):
        mix = MixtureCdf((Uniform01(), Exponential(rate=1.0)))
        for t in (0.2, 0.8, 3.0):
            expect = 0.5 * (Uniform01().cdf(t) + Exponential(rate=1.0).cdf(t))
            assert mix.cdf(t) == pytest.approx(expect, rel=1e-15)

    def test_scalar_and_array_paths_agree(self):
        rng = np.random.default_rng(11)
        small = MixtureCdf((Uniform01(), Exponential(rate=1.0), HalfGaussian(sigma=2.0)))
        wide = MixtureCdf(sweep_laws(rng, 60))
        for mix, ts in ((small, np.array([0.1, 0.9, 4.0])), (wide, sweep_points(rng, wide.components, 2000))):
            for f in (mix.cdf, mix.cdf_left_limit):
                arr = f(ts)
                assert arr.tolist() == [f(float(t)) for t in ts]

    def test_component_cdfs_are_each_law_bit_for_bit(self):
        rng = np.random.default_rng(12)
        mix = MixtureCdf(sweep_laws(rng, 40))
        ts = sweep_points(rng, mix.components, 300)
        for left in (False, True):
            laws = [d.cdf_left_limit if left else d.cdf for d in mix.components]
            batch = mix.component_cdfs(ts, left=left)
            assert batch.shape == (ts.size, mix.n)
            for i, f in enumerate(laws):
                assert batch[:, i].tolist() == f(ts).tolist()
            grid = mix.component_cdfs(ts[:300].reshape(20, 15), left=left)
            assert grid.tolist() == batch[:300].reshape(20, 15, mix.n).tolist()
            for j, t in enumerate(ts):
                assert mix.component_cdfs(float(t), left=left).tolist() == [f(float(t)) for f in laws]

    def test_family_quantiles_are_each_law_bit_for_bit(self):
        # The Pareto laws form one block with p as a column, while d.quantile
        # takes p as a float: at p = 1 numpy's ``**`` takes a reciprocal path
        # for the float that a column skips, and a numpy with other fast paths
        # for a float exponent fails here.
        rng = np.random.default_rng(14)
        pareto = [ParetoPower(p=p, scale=3.0 if p == 1.0 else 1.0) for p in (1.0, 0.25, 0.5, 1.5, 2.0, 3.0, 4.0)]
        pareto += [ParetoPower(p=float(p), scale=0.5) for p in rng.uniform(0.1, 5.0, 50)]
        laws = sweep_laws(rng, 60) + tuple(pareto)
        assert len({type(d) for d in laws}) == 6
        mix = MixtureCdf(laws)
        assert sum(cls is ParetoPower for _, cls, *_ in mix._batch) == 1
        order = mix._family_order.tolist()
        assert sorted(order) == list(range(mix.n))
        for shape in ((500,), (20, 30)):
            u = np.maximum(rng.random((mix.n,) + shape), 5e-324)
            x = mix.family_quantiles(u)
            assert x.shape == u.shape
            for i, row in zip(order, x):
                assert row.tolist() == mix.components[i].quantile(u[i]).tolist()

    def test_family_quantiles_reject_orders_outside_the_open_interval(self):
        mix = MixtureCdf((Uniform01(), ParetoPower(p=2.0), Atomic(atoms=((3.0, 1.0),))))
        for bad in (0.0, 1.0, np.nan):
            u = np.full((3, 4), 0.5)
            u[2, 1] = bad
            with pytest.raises(ValueError, match="strictly inside"):
                mix.family_quantiles(u)

    def test_quantile_extremes(self):
        mix = MixtureCdf((Uniform01(), Atomic(atoms=((3.0, 1.0),))))
        assert mix.quantile(0.0) == 0.0
        assert mix.quantile(1.0) == 3.0
        unbounded = MixtureCdf((Uniform01(), Exponential(rate=1.0)))
        assert unbounded.quantile(1.0) == math.inf

    def test_left_limit_with_atoms(self):
        mix = MixtureCdf((Atomic(atoms=((1.0, 1.0),)), Uniform01()))
        assert mix.cdf(1.0) == 1.0
        assert mix.cdf_left_limit(1.0) == 0.5

    def test_needs_components(self):
        with pytest.raises(ValueError):
            MixtureCdf(())

    def test_extreme_scales_warn_of_no_overflow(self):
        # t / scale overflows to inf, where the cdf is 1, as it should be.
        d = Exponential(scale=1e-300)
        mix = MixtureCdf((d, Uniform01(scale=1e-300), Atomic(atoms=((1.0, 1.0),), scale=1e-300)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert (d.cdf(1e10), d.cdf_left_limit(1e10), d.survival(1e10)) == (1.0, 1.0, 0.0)
            assert (mix.cdf(1e10), mix.cdf_left_limit(1e10), mix.survival(1e10)) == (1.0, 1.0, 0.0)
            assert mix.component_cdfs(np.array([1e10, 0.0])).tolist() == [[1.0] * 3, [0.0] * 3]

    def test_survival_is_one_minus_the_cdf(self):
        mix = MixtureCdf((Uniform01(), Atomic(atoms=((0.5, 1.0),))))
        assert mix.survival(0.25) == 0.875 and isinstance(mix.survival(0.25), float)
        np.testing.assert_array_equal(mix.survival(np.array([0.0, 0.5, 2.0])), [1.0, 0.25, 0.0])

    def test_blocks_are_keyed_by_family_and_table_widths(self):
        laws = (
            Atomic(atoms=((1.0, 1.0),)),
            Atomic(atoms=((1.0, 0.5), (2.0, 0.5))),
            Atomic(atoms=((3.0, 1.0),), scale=2.0),
            ParetoPower(p=2.0),
            ParetoPower(p=1.0),
            ParetoPower(p=np.float32(2.0), scale=3.0),
            Exponential(rate=1.0),
            Exponential(rate=np.int64(2)),
            PiecewiseLinearCdf(knots=((0.0, 0.0), (1.0, 1.0))),
        )
        mix = MixtureCdf(laws)
        # Tables 2 wide for one atom, 4 for two atoms or two knots.
        assert [idx.tolist() for idx, *_ in mix._batch] == [[0, 2], [1], [3, 4, 5], [6, 7], [8]]
        assert len(mix._batch) == 5


class TestOneSurface:
    """A law and a mixture's averaged cdf share one definition of cdf, left limit, survival, quantile and special points."""

    def test_mixtures_and_laws_run_the_same_methods(self):
        for name in ("cdf", "cdf_left_limit", "survival", "quantile", "special_points"):
            assert getattr(MixtureCdf, name) is getattr(Distribution, name), name
            assert getattr(Atomic, name) is getattr(Distribution, name), name

    def test_a_one_law_mixture_is_its_law_bit_for_bit(self):
        rng = np.random.default_rng(51)
        laws = (*(d for d, _ in CATALOGUE), *sweep_laws(rng, 60), *ragged_laws(rng, 60))
        for d in laws:
            mix = MixtureCdf((d,))
            ts = np.concatenate([sweep_points(rng, (d,), 40), [0.0, -1.0, math.inf, -math.inf]])
            for name in ("cdf", "cdf_left_limit", "survival"):
                f, g = getattr(mix, name), getattr(d, name)
                assert bits(f(ts)) == bits(g(ts)), (d, name)
                assert bits(f(ts[:40].reshape(4, 10))) == bits(g(ts[:40].reshape(4, 10))), (d, name)
                assert bits([f(t) for t in ts.tolist()]) == bits([g(t) for t in ts.tolist()]), (d, name)
            assert mix.special_points() == d.special_points(), d


def per_law_cdf(d, t, left=False):
    """A table law's cdf by one ``searchsorted`` or ``interp`` call on its own atoms or knots."""
    x = np.asarray(t, dtype=float) / d.scale
    if isinstance(d, Atomic):
        values, cum = np.array([v for v, _ in d.atoms]), np.cumsum([w for _, w in d.atoms])
        cum[-1] = 1.0
        idx = np.searchsorted(values, x, side="left" if left else "right")
        return np.where(idx > 0, cum[np.maximum(idx, 1) - 1], 0.0)
    return np.interp(x, [t for t, _ in d.knots], [f for _, f in d.knots], left=0.0, right=1.0)


def per_law_quantile(d, r):
    """A table law's left quantile by one ``searchsorted`` call on its own cumulative weights or knots."""
    r = np.asarray(r, dtype=float)
    if isinstance(d, Atomic):
        values, cum = np.array([v for v, _ in d.atoms]), np.cumsum([w for _, w in d.atoms])
        cum[-1] = 1.0
        out = values[np.minimum(np.searchsorted(cum, r, side="left"), values.size - 1)]
    else:
        kt, kf = np.array([t for t, _ in d.knots]), np.array([f for _, f in d.knots])
        idx = np.clip(np.searchsorted(kf, r, side="left"), 1, kf.size - 1)
        lo_t, hi_t, lo_f, hi_f = kt[idx - 1], kt[idx], kf[idx - 1], kf[idx]
        with np.errstate(divide="ignore", invalid="ignore"):
            frac = (r - lo_f) / (hi_f - lo_f)
        out = np.where(r <= kf[0], kt[0], lo_t + np.where(hi_f > lo_f, frac, 1.0) * (hi_t - lo_t))
    return np.where(r == 0.0, 0.0, d.scale * out)


def bits(x) -> list:
    # The 64-bit patterns of float values: equal bits, -0.0 apart from 0.0.
    return np.asarray(x, dtype=float).reshape(-1).view(np.int64).tolist()


def table_probes(laws) -> np.ndarray:
    """Every atom and knot of the laws, their neighbours 1 ulp away, 0 and inf."""
    special = np.array(sorted({s for d in laws for s in d.special_points()}))
    return np.concatenate([special, np.nextafter(special, -np.inf), np.nextafter(special, np.inf), [0.0, math.inf]])


def table_orders(laws) -> np.ndarray:
    """Orders inside (0, 1) at every cumulative weight and knot value of the laws and 1 ulp from them."""
    levels = {1.0}
    for d in laws:
        if isinstance(d, Atomic):
            levels.update(np.cumsum([w for _, w in d.atoms])[:-1].tolist())
        else:
            levels.update(f for _, f in d.knots if f > 0.0)
    levels = np.array(sorted(levels))
    inner = np.concatenate([levels, np.nextafter(levels, 0.0), np.nextafter(levels, 2.0)])
    return inner[(inner > 0.0) & (inner < 1.0)]


def check_table_laws(laws, ts, u):
    """Every path of the table laws equals their per-law formulas bit for bit."""
    mix = MixtureCdf(tuple(laws))
    for left in (False, True):
        want = [per_law_cdf(d, ts, left) for d in laws]
        batch = mix.component_cdfs(ts, left=left)
        runs = np.empty_like(batch)
        with pytest.MonkeyPatch.context() as mp:
            # Runs of three laws each.
            mp.setattr(dist, "_RUN_CELLS", 3 * ts.size)
            for idx, values in mix.family_blocks(ts, left):
                assert idx.size <= 3
                runs[:, idx] = values.T
        for i, d in enumerate(laws):
            f = d.cdf_left_limit if left else d.cdf
            assert bits(batch[:, i]) == bits(runs[:, i]) == bits(f(ts)) == bits(want[i]), (d, left)
            assert bits([f(float(t)) for t in ts[:40]]) == bits(want[i][:40]), (d, left)
    x = mix.family_quantiles(np.tile(u, (mix.n, 1)))
    for i, row in zip(mix._family_order.tolist(), x):
        assert bits(row) == bits(per_law_quantile(laws[i], u)), laws[i]
    edges = np.concatenate([[0.0], u, [1.0]])
    for d in laws:
        assert bits(d.quantile(edges)) == bits(per_law_quantile(d, edges)), d
        assert bits([d.quantile(0.0), d.quantile(1.0)]) == bits(per_law_quantile(d, [0.0, 1.0])), d
    return mix


class TestTableLaws:
    """Atomic and PiecewiseLinearCdf laws of ragged widths in the family blocks."""

    def test_ragged_laws_match_per_law_formulas_bit_for_bit(self):
        rng = np.random.default_rng(31)
        laws = ragged_laws(rng, 80)
        widths = [len(d.atoms) for d in laws if isinstance(d, Atomic)]
        assert set(widths) == set(range(1, 9))
        assert {len(d.knots) for d in laws if isinstance(d, PiecewiseLinearCdf)} == set(range(2, 9))
        assert any(d.atoms[0][0] == 0.0 for d in laws if isinstance(d, Atomic))
        assert any(f0 == f1 for d in laws if isinstance(d, PiecewiseLinearCdf) for (_, f0), (_, f1) in zip(d.knots[1:], d.knots[2:-1]))
        ts = np.concatenate([table_probes(laws), 10.0 ** rng.uniform(-5.0, 5.0, 200)])
        inner = table_orders(laws)
        mix = check_table_laws(laws, ts, np.concatenate([inner, rng.random(200)]))
        # One block per family and table width: 2, 4, 8 or 16 entries.
        assert len(mix._batch) == len({(type(d), d._args[0].size) for d in laws}) == 7

    def test_mixed_with_the_parametric_families(self):
        rng = np.random.default_rng(32)
        laws = ragged_laws(rng, 30) + sweep_laws(rng, 30)
        mix = MixtureCdf(laws)
        ts = sweep_points(rng, laws, 200)
        batch = mix.component_cdfs(ts)
        for i, d in enumerate(laws):
            assert bits(batch[:, i]) == bits(d.cdf(ts))

    @settings(max_examples=60, deadline=None)
    @given(seed=hst.integers(0, 2**32 - 1), n=hst.integers(1, 12))
    def test_random_ragged_laws(self, seed, n):
        rng = np.random.default_rng(seed)
        laws = ragged_laws(rng, n)
        inner = table_orders(laws)
        check_table_laws(laws, table_probes(laws), np.concatenate([inner, rng.random(8)]))


class TestValidation:
    BAD_NUMBERS = pytest.mark.parametrize(
        "bad",
        [math.nan, np.float64("nan"), math.inf, -math.inf, True, np.bool_(True), "1.0", None, 10**400],
        ids=["nan", "numpy-nan", "inf", "-inf", "bool", "numpy-bool", "string", "none", "huge-int"],
    )

    @BAD_NUMBERS
    def test_atom_and_knot_entries_are_finite_reals(self, bad):
        for build in (
            lambda v: Atomic(atoms=((v, 1.0),)),
            lambda v: Atomic(atoms=((0.0, 0.5), (1.0, v))),
            lambda v: PiecewiseLinearCdf(knots=((0.0, 0.0), (v, 1.0))),
            lambda v: PiecewiseLinearCdf(knots=((0.0, 0.0), (1.0, v), (2.0, 1.0))),
        ):
            with pytest.raises(ValueError, match="pairs of finite reals"):
                build(bad)

    @BAD_NUMBERS
    def test_scale_parameters_and_factors_are_finite_reals(self, bad):
        with pytest.raises(ValueError, match="scale must be a finite positive real"):
            Uniform01(scale=bad)
        with pytest.raises(ValueError, match="rate must be a finite positive real"):
            Exponential(rate=bad)
        with pytest.raises(ValueError, match="scale factor must be a finite positive real"):
            Atomic().scaled(bad)

    def test_scaled_atoms_and_knots_stay_finite(self):
        atoms, knots = ((1.0, 0.5), (2.0, 0.5)), ((0.0, 0.0), (2.0, 1.0))
        for build in (
            lambda: Atomic(atoms=atoms, scale=1e308),
            lambda: PiecewiseLinearCdf(knots=knots, scale=1e308),
            lambda: Atomic(atoms=atoms).scaled(1e308),
            lambda: PiecewiseLinearCdf(knots=knots).scaled(1e308),
        ):
            with pytest.raises(ValueError, match="pass the largest finite double"):
                build()
        top = sys.float_info.max
        assert Atomic(atoms=((0.5, 0.5), (1.0, 0.5)), scale=top).special_points() == (top / 2, top)

    def test_scaled_refuses_a_factor_that_is_not_positive(self):
        for bad in (0.0, -2.0):
            with pytest.raises(ValueError, match="scale factor"):
                Uniform01().scaled(bad)

    def test_numpy_scalars_are_reals(self):
        for v in (np.float64(2.0), np.float32(2.0), np.int64(2), 2):
            d = Exponential(rate=v, scale=v)
            assert d == Exponential(rate=2.0, scale=2.0) and type(d.rate) is type(d.scale) is float
            assert Uniform01().scaled(v) == Uniform01(scale=2.0)
        atoms = Atomic(atoms=((np.int64(1), np.float32(0.5)), (np.float64(2.0), 0.5)))
        assert atoms == Atomic(atoms=((1.0, 0.5), (2.0, 0.5)))
        assert all(type(x) is float for pair in atoms.atoms for x in pair)
        knots = PiecewiseLinearCdf(knots=[[np.int64(0), 0], [np.float32(0.5), 1]])
        assert knots.knots == ((0.0, 0.0), (0.5, 1.0)) and knots.special_points() == (0.0, 0.5)

    def test_scale_positive(self):
        for bad in (0.0, -1.0, math.inf, math.nan, True):
            with pytest.raises(ValueError):
                Uniform01(scale=bad)

    def test_family_parameters(self):
        with pytest.raises(ValueError):
            ParetoPower(p=0.0)
        with pytest.raises(ValueError):
            Exponential(rate=-2.0)
        with pytest.raises(ValueError):
            HalfGaussian(sigma=0.0)
        # A boolean is not a number here, though Python counts it as an int.
        for law in (ParetoPower, Exponential, HalfGaussian):
            with pytest.raises(ValueError, match="finite positive real"):
                law(True)

    def test_piecewise_knots(self):
        with pytest.raises(ValueError):
            PiecewiseLinearCdf(knots=((0.0, 0.0),))
        with pytest.raises(ValueError):
            PiecewiseLinearCdf(knots=((1.0, 0.0), (0.5, 1.0)))
        with pytest.raises(ValueError):
            PiecewiseLinearCdf(knots=((0.0, 0.2), (1.0, 1.0)))
        with pytest.raises(ValueError):
            PiecewiseLinearCdf(knots=((0.0, 0.0), (1.0, 0.9)))
        with pytest.raises(ValueError, match="nondecreasing"):
            PiecewiseLinearCdf(knots=((0.0, 0.0), (1.0, 0.6), (2.0, 0.4), (3.0, 1.0)))

    def test_atoms(self):
        with pytest.raises(ValueError):
            Atomic(atoms=())
        with pytest.raises(ValueError):
            Atomic(atoms=((2.0, 0.5), (1.0, 0.5)))
        with pytest.raises(ValueError):
            Atomic(atoms=((1.0, 0.7), (2.0, 0.7)))
        with pytest.raises(ValueError):
            Atomic(atoms=((-1.0, 1.0),))

    def test_values_are_immutable(self):
        d = Exponential(rate=1.0)
        with pytest.raises(Exception):
            d.rate = 2.0


def test_special_points_scale_with_the_law():
    d = Atomic(atoms=((1.0, 0.5), (2.0, 0.5)), scale=3.0)
    assert d.special_points() == (3.0, 6.0)
    pwl = PiecewiseLinearCdf(knots=((0.0, 0.0), (2.0, 1.0)), scale=2.0)
    assert pwl.special_points() == (0.0, 4.0)
    # Built once, with the law.
    assert d.special_points() is d.special_points() and pwl.special_points() is pwl.special_points()
    assert d.scaled(2.0).special_points() == (6.0, 12.0)
