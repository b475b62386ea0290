import json
import math
import tracemalloc

import numpy as np
import pytest
import scipy.stats as st

from inidstat import mc
from inidstat.dist import (
    Atomic,
    Exponential,
    HalfGaussian,
    MixtureCdf,
    ParetoPower,
    PiecewiseLinearCdf,
    Uniform01,
)
from inidstat.mc import median_ci_ranks, simulate_median
from inidstat.ostat import OrderStatModel, kmin_median

from conftest import sweep_laws

MIXED = (
    Uniform01(scale=2.0),
    Exponential(rate=1.5, scale=0.3),
    HalfGaussian(sigma=2.0),
    ParetoPower(p=2.0, scale=0.5),
    PiecewiseLinearCdf(knots=((0.0, 0.0), (1.0, 0.25), (3.0, 1.0))),
    Atomic(atoms=((0.5, 0.3), (1.5, 0.7))),
    Exponential(rate=1.0, scale=40.0),
)

# Every family interleaved, as the sampler regroups them: atoms, knots,
# Pareto laws at several p and Exponential laws at distinct rates.
WIDE = sweep_laws(np.random.default_rng(20261018), 48)


def whole_array_oracle(model, R, seed, ci_level):
    """simulate_median written out on the full R x n array of one Philox stream."""
    u = np.random.Generator(np.random.Philox(key=seed)).random((R, model.n))
    u = np.maximum(u, 5e-324)
    x = np.empty_like(u)
    for i, d in enumerate(model.components):
        x[:, i] = d.quantile(u[:, i])
    vals = np.sort(np.partition(x, model.k - 1, axis=1)[:, model.k - 1])
    a, b = median_ci_ranks(R, ci_level)
    return float(np.median(vals)), float(vals[a - 1]), float(vals[b - 1])


def values(res):
    return res.estimate, res.ci_low, res.ci_high


class TestSample:
    # The sampler's inverse transform: each law's quantile, and a mixture's
    # family_quantiles, which takes orders strictly inside (0, 1) only.
    ATOMS = Atomic(atoms=((1.0, 0.5), (2.0, 0.5)))

    def test_examples(self):
        assert Uniform01().quantile(0.42) == pytest.approx(0.42, rel=1e-15)
        assert Exponential(rate=1.0).quantile(0.5) == pytest.approx(math.log(2.0), rel=1e-12)
        assert self.ATOMS.quantile(0.7) == 2.0
        mix = MixtureCdf((Uniform01(), Exponential(rate=1.0), self.ATOMS))
        x = mix.family_quantiles(np.array([[0.42], [0.5], [0.7]]))
        assert sorted(x[:, 0].tolist()) == [0.42, math.log(2.0), 2.0]

    def test_vectorized(self):
        u = np.array([0.1, 0.5, 0.9])
        np.testing.assert_allclose(Uniform01().quantile(u), u, rtol=1e-15)
        np.testing.assert_allclose(MixtureCdf((Uniform01(),)).family_quantiles(u[None])[0], u, rtol=1e-15)

    def test_domain(self):
        for bad in (-0.2, 1.7, math.nan):
            with pytest.raises(ValueError, match="must lie in"):
                Uniform01().quantile(bad)
        mix = MixtureCdf((Uniform01(), self.ATOMS))
        for bad in (0.0, 1.0, -0.2, 1.7, math.nan):
            with pytest.raises(ValueError, match="strictly inside"):
                mix.family_quantiles(np.array([[0.5], [bad]]))
        with pytest.raises(ValueError, match="strictly inside"):
            mix.family_quantiles(np.array([[0.5, 0.5], [0.5, 1.0]]))

    def test_matches_inverse_transform_distribution(self):
        # Empirical cdf of inverse-transform draws tracks the law itself.
        rng = np.random.default_rng(7)
        d = Exponential(rate=2.0)
        u = rng.random(20000)
        xs = d.quantile(u)
        assert MixtureCdf((d,)).family_quantiles(u[None])[0].tolist() == xs.tolist()
        for t in (0.1, 0.35, 1.0):
            emp = float(np.mean(xs <= t))
            assert emp == pytest.approx(d.cdf(t), abs=0.02)


class TestMedianCiRanks:
    def test_symmetry_and_coverage(self):
        for R in (100, 101, 1000, 99999):
            for level in (0.9, 0.95, 0.99):
                a, b = median_ci_ranks(R, level)
                assert 1 <= a <= b <= R
                assert b == R - a + 1
                # P{X_(a) <= med <= X_(b)} = P{a <= Binom(R,1/2) <= b-1} ... the
                # standard identity: coverage = cdf(b-1) - cdf(a-1).
                cover = st.binom.cdf(b - 1, R, 0.5) - st.binom.cdf(a - 1, R, 0.5)
                assert cover >= level - 1e-12

    def test_matches_binomial_quantile_rule(self):
        # The rule as first written with scipy.stats: c is the largest count
        # whose binomial(R, 1/2) cdf stays within (1 - level)/2.
        for R in (100, 101, 1000, 4096, 25_000, 50_000, 99_999, 100_000):
            for level in (0.9, 0.95, 0.99, 0.999):
                half_alpha = (1.0 - level) / 2.0
                j = int(st.binom.ppf(half_alpha, R, 0.5))
                c = j if st.binom.cdf(j, R, 0.5) <= half_alpha else j - 1
                a = max(c + 1, 1)
                assert median_ci_ranks(R, level) == (a, R - a + 1), (R, level)

    def test_tightness(self):
        # Widening a by one rank on each side must break coverage, otherwise
        # the interval is not the tightest symmetric one.
        for R in (500, 4096):
            a, b = median_ci_ranks(R, 0.95)
            cover_narrower = st.binom.cdf(b - 2, R, 0.5) - st.binom.cdf(a, R, 0.5)
            assert cover_narrower < 0.95

    @pytest.mark.parametrize("R, level, message", [
        (100, 1.5, "ci_level"),
        (100, 1.0, "ci_level"),
        (100, 0.0, "ci_level"),
        (100, -0.2, "ci_level"),
        (100, math.nan, "ci_level"),
        (0, 0.99, "replicate"),
        (-3, 0.9, "replicate"),
    ])
    def test_inputs_outside_the_domain_raise(self, R, level, message):
        with pytest.raises(ValueError, match=message):
            median_ci_ranks(R, level)

    def test_number_rule(self):
        # R is an integer (a numpy integer is, a bool is not) and ci_level a
        # finite real (a bool or string is not).
        assert median_ci_ranks(np.int64(500), np.float64(0.95)) == median_ci_ranks(500, 0.95)
        for R, level, message in ((True, 0.5, "replicates"), (500, True, "ci_level"), (500, "0.9", "ci_level")):
            with pytest.raises(ValueError, match=message):
                median_ci_ranks(R, level)

    def test_few_replicates(self):
        # Below the simulation's floor of 100 the ranks still cover, or are
        # the whole sample when even that falls short of the level.
        assert median_ci_ranks(10, 0.5) == (4, 7)
        assert median_ci_ranks(10, 0.99) == (1, 10)
        assert median_ci_ranks(5, 0.99) == (1, 5)
        assert median_ci_ranks(1, 0.5) == (1, 1)


class TestSimulateMedian:
    def test_same_seed_identical_result(self):
        m = OrderStatModel(components=(Exponential(rate=1.0),) * 5, k=2)
        r1 = simulate_median(m, replicates=500, seed=99)
        r2 = simulate_median(m, replicates=500, seed=99)
        assert r1 == r2  # elapsed is excluded from equality
        assert r1.estimate == r2.estimate
        assert r1.ci_low == r2.ci_low and r1.ci_high == r2.ci_high

    def test_different_seed_differs(self):
        m = OrderStatModel(components=(Exponential(rate=1.0),) * 5, k=2)
        r1 = simulate_median(m, replicates=500, seed=1)
        r2 = simulate_median(m, replicates=500, seed=2)
        assert r1.estimate != r2.estimate

    def test_ci_covers_exact_median(self):
        models = [
            OrderStatModel(components=(Uniform01(),) * 3, k=2),
            OrderStatModel(components=(Exponential(rate=1.0),) * 2, k=1),
            OrderStatModel(
                components=(Uniform01(), Exponential(rate=1.0), Exponential(rate=3.0)), k=2
            ),
        ]
        for i, m in enumerate(models):
            res = simulate_median(m, replicates=20000, seed=1000 + i, ci_level=0.99)
            med = kmin_median(m)
            assert res.ci_low <= med <= res.ci_high
            assert res.estimate == pytest.approx(med, rel=0.05)

    def test_atom_model_is_exactly_recovered(self):
        m = OrderStatModel(components=(Atomic(atoms=((2.5, 1.0),)),) * 4, k=2)
        res = simulate_median(m, replicates=200, seed=5)
        assert res.estimate == 2.5
        assert res.ci_low == 2.5 and res.ci_high == 2.5

    def test_result_fields(self):
        m = OrderStatModel(components=(Uniform01(),) * 2, k=1)
        res = simulate_median(m, replicates=256, seed=17, ci_level=0.9)
        assert res.replicates == 256
        assert res.seed == 17
        assert res.ci_level == 0.9
        assert "philox" in res.generator
        assert res.elapsed >= 0.0
        assert res.ci_low <= res.estimate <= res.ci_high

    def test_domain(self):
        m = OrderStatModel(components=(Uniform01(),) * 2, k=1)
        with pytest.raises(ValueError):
            simulate_median(m, replicates=99)
        with pytest.raises(ValueError):
            simulate_median(m, replicates=500, ci_level=0.5)
        with pytest.raises(ValueError):
            simulate_median(m, replicates=500, ci_level=1.0)
        with pytest.raises(TypeError):
            simulate_median(m, replicates=500.0)

    def test_number_rule(self):
        m = OrderStatModel(components=(Uniform01(),) * 2, k=1)
        for name, bad in (("replicates", True), ("seed", True), ("ci_level", True), ("ci_level", "0.9")):
            with pytest.raises(ValueError, match=name):
                simulate_median(m, **{"replicates": 200, name: bad})
        assert values(simulate_median(m, np.int64(200), np.int64(1))) == values(simulate_median(m, 200, 1))

    def test_round_trip(self):
        m = OrderStatModel(components=(Uniform01(),) * 2, k=1)
        res = simulate_median(m, replicates=128, seed=3)
        assert json.loads(json.dumps(res.to_dict())) == res.to_dict()


class TestStream:
    # (n, k) covers n = 1 and both ends k = 1 and k = n.
    @pytest.mark.parametrize("n,k", [(1, 1), (4, 1), (4, 4), (7, 3), (7, 7)])
    @pytest.mark.parametrize("R", [100, 257, 1000])
    def test_matches_whole_array_oracle(self, n, k, R):
        m = OrderStatModel(components=MIXED[:n], k=k)
        for seed in (0, 12345, 2**64 - 1):
            res = simulate_median(m, replicates=R, seed=seed, ci_level=0.95)
            assert values(res) == whole_array_oracle(m, R, seed, 0.95)

    @pytest.mark.parametrize("k", [1, 2])
    def test_pareto_powers_match_whole_array_oracle(self, k):
        # numpy computes ``array ** -1.0`` through a reciprocal that a
        # broadcast exponent array skips, and the two differ in the last bit
        # of about 5% of draws.  At k = 2 the p = 1 law is mostly the one
        # selected, and over these seeds such a sampler shifts 4 results.
        m = OrderStatModel(components=(ParetoPower(p=1.0), ParetoPower(p=4.0, scale=0.5)), k=k)
        for seed in range(12):
            res = simulate_median(m, replicates=1001, seed=seed, ci_level=0.95)
            assert values(res) == whole_array_oracle(m, 1001, seed, 0.95)

    def test_wide_interleaved_model_matches_whole_array_oracle(self):
        families = {type(d) for d in WIDE}
        assert {Atomic, PiecewiseLinearCdf, Uniform01, HalfGaussian} < families
        assert len({d.p for d in WIDE if isinstance(d, ParetoPower)}) >= 3
        assert len({d.rate for d in WIDE if isinstance(d, Exponential)}) >= 3
        m = OrderStatModel(components=WIDE, k=17)
        R = 4001
        rows = mc._chunk_rows(m)
        assert rows < R and R % rows
        for seed in (0, 77, 2**63 + 5):
            res = simulate_median(m, replicates=R, seed=seed, ci_level=0.95)
            assert values(res) == whole_array_oracle(m, R, seed, 0.95)

    @pytest.mark.parametrize("variates,min_rows", [(1, 1), (37 * 7, 1), (1, 13)])
    def test_chunk_size_does_not_change_results(self, monkeypatch, variates, min_rows):
        models = [OrderStatModel(components=MIXED, k=4), OrderStatModel(components=WIDE, k=30)]
        defaults = [simulate_median(m, replicates=1001, seed=8) for m in models]
        monkeypatch.setattr(mc, "_CHUNK_VARIATES", variates)
        monkeypatch.setattr(mc, "_MIN_CHUNK_ROWS", min_rows)
        assert [simulate_median(m, replicates=1001, seed=8) for m in models] == defaults

    def test_negative_seed_keys_by_its_64_bit_residue(self):
        m = OrderStatModel(components=MIXED[:3], k=2)
        neg = simulate_median(m, replicates=500, seed=-5)
        masked = simulate_median(m, replicates=500, seed=(-5) & (2**64 - 1))
        assert neg.seed == -5
        assert values(neg) == values(masked)

    def test_memory_is_bounded_by_chunk_and_replicates(self):
        # R * n exceeds four chunk budgets, so holding even one R x n array
        # breaks the bound.
        m = OrderStatModel(components=(Exponential(rate=1.0),) * 200, k=100)
        R = 25_000
        assert R * m.n >= 4 * mc._CHUNK_VARIATES
        chunk = max(mc._CHUNK_VARIATES // m.n, mc._MIN_CHUNK_ROWS) * m.n
        tracemalloc.start()
        try:
            simulate_median(m, replicates=R, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 8 * (chunk + R)

    def test_memory_of_one_law_blocks_is_bounded_by_chunk_and_replicates(self):
        # Pareto laws with distinct p, p = 1 among them, form one block as
        # large as the chunk; the quantile formula runs on parts of it, so
        # its temporaries stay within the bound.
        laws = tuple(ParetoPower(p=1.0 + i / 64) for i in range(300))
        m = OrderStatModel(components=laws, k=150)
        assert len(m.mixture._batch) == 1
        rows = mc._chunk_rows(m)
        chunk = rows * m.n
        assert chunk <= mc._CHUNK_VARIATES + m.n
        R = 4 * rows
        tracemalloc.start()
        try:
            simulate_median(m, replicates=R, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 8 * (chunk + R)

    def test_memory_of_a_wide_atomic_law_is_bounded_by_chunk_and_replicates(self):
        # One law of 10**4 atoms: a temporary of the chunk's draws against
        # the atoms, even of bytes, would break the bound 50 times over.
        rng = np.random.default_rng(5)
        weights = rng.random(10**4) + 0.5
        wide = Atomic(atoms=tuple(zip(np.arange(1.0, 1.0 + 10**4).tolist(), (weights / weights.sum()).tolist())))
        m = OrderStatModel(components=(wide, Exponential(rate=1.0), Uniform01(scale=10.0)), k=2)
        rows = mc._chunk_rows(m)
        R = 2 * rows
        tables = 2 * 8 * (1 << 14)
        tracemalloc.start()
        try:
            res = simulate_median(m, replicates=R, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 8 * (rows * m.n + R) + 2 * tables
        assert rows * 10**4 > 50 * (3 * 8 * (rows * m.n + R) + 2 * tables)
        assert values(res) == whole_array_oracle(m, R, 3, 0.99)
