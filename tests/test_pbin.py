import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import sequential_engine
from inidstat.pbin import (
    SuccessVector,
    brute_force_tail,
    chebyshev_bound_gap,
    pmf,
    tail_at_least,
)


class TestSuccessVector:
    def test_mean_sum(self):
        assert SuccessVector([0.1, 0.2, 0.3]).mean_sum == pytest.approx(0.6, rel=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            SuccessVector([])
        with pytest.raises(ValueError):
            SuccessVector([0.5, 1.2])
        with pytest.raises(ValueError):
            SuccessVector([-0.1])
        with pytest.raises(ValueError):
            SuccessVector([np.nan])

    def test_probabilities_are_frozen(self):
        sv = SuccessVector([0.5, 0.5])
        with pytest.raises(ValueError):
            sv.p[0] = 0.9

    def test_input_copy_is_defensive(self):
        raw = np.array([0.2, 0.4])
        sv = SuccessVector(raw)
        raw[0] = 0.9
        assert sv.p[0] == 0.2


class TestPmf:
    def test_three_trials(self):
        law = pmf([0.1, 0.2, 0.3])
        assert law == pytest.approx([0.504, 0.398, 0.092, 0.006], abs=1e-15)

    def test_sums_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            law = pmf(rng.random(int(rng.integers(1, 60))))
            assert law.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(law >= 0.0)

    def test_degenerate_trials(self):
        assert pmf([1.0, 1.0]) == pytest.approx([0.0, 0.0, 1.0], abs=0.0)
        assert pmf([0.0, 0.0]) == pytest.approx([1.0, 0.0, 0.0], abs=0.0)


class TestTail:
    def test_examples(self):
        sv = [0.1, 0.2, 0.3]
        assert tail_at_least(sv, 0) == 1.0
        assert tail_at_least(sv, 2) == pytest.approx(0.098, abs=1e-15)
        assert tail_at_least(sv, 4) == 0.0

    def test_rank_bounds(self):
        with pytest.raises(ValueError):
            tail_at_least([0.5], -1)
        with pytest.raises(ValueError):
            tail_at_least([0.5], 3)
        with pytest.raises(TypeError):
            tail_at_least([0.5], 0.5)

    def test_matches_pmf_cumsum(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            p = rng.random(int(rng.integers(1, 40)))
            law = pmf(p)
            tails = np.concatenate([np.cumsum(law[::-1])[::-1], [0.0]])
            for k in range(0, p.size + 2):
                assert tail_at_least(p, k) == pytest.approx(tails[k], abs=1e-12)

    def test_both_truncation_sides_agree_with_enumeration(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            n = int(rng.integers(1, 13))
            p = rng.random(n)
            for k in range(0, n + 2):
                assert tail_at_least(p, k) == pytest.approx(
                    brute_force_tail(p, k), abs=1e-13
                )

    def test_monotone_in_k(self):
        p = np.linspace(0.05, 0.95, 19)
        vals = [tail_at_least(p, k) for k in range(0, 21)]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))

    @settings(max_examples=150, deadline=None)
    @given(
        hst.lists(hst.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=10),
        hst.integers(min_value=0, max_value=11),
    )
    def test_tail_matches_enumeration_property(self, probs, k):
        k = min(k, len(probs) + 1)
        assert tail_at_least(probs, k) == pytest.approx(
            brute_force_tail(probs, k), abs=1e-12
        )


class TestBatchedTail:
    @staticmethod
    def rows(rng, n):
        """Probability rows with exact zeros and ones, tiny values and plain draws."""
        mixed = rng.random(n)
        mixed[::3] = 0.0
        mixed[1::3] = 1.0
        return np.array([rng.random(n), mixed, rng.random(n) ** 40, 1.0 - rng.random(n) ** 40,
                         np.zeros(n), np.ones(n)])

    @pytest.mark.parametrize("n", [1, 2, 3, 20, 200])
    def test_matrix_equals_rows_bit_for_bit(self, n):
        # Every k in 0..n+1 runs the absorbing recurrence for k <= n + 1 - k
        # and the dual one above it.
        # A (2, 3, n) stack gives a (2, 3) array of the same tails.
        rng = np.random.default_rng(n)
        probs = self.rows(rng, n)
        for k in range(n + 2):
            batch = tail_at_least(probs, k)
            assert isinstance(batch, np.ndarray) and batch.shape == (probs.shape[0],)
            alone = [tail_at_least(row, k) for row in probs]
            assert all(type(v) is float for v in alone)
            assert batch.tolist() == alone
            assert alone == [sequential_engine.tail_at_least(row, k) for row in probs]
            stack = tail_at_least(probs.reshape(2, 3, n), k)
            assert stack.shape == (2, 3) and stack.ravel().tolist() == alone
        assert tail_at_least(np.full((2, 3, 4), 0.5), 1).tolist() == [[0.9375] * 3] * 2

    def test_wide_state_few_rows(self):
        # States much wider than the number of rows take one pass per row.
        rng = np.random.default_rng(5)
        probs = self.rows(rng, 600)[:3]
        for k in (1, 2, 150, 300, 301, 302, 450, 599, 600, 601):
            want = [sequential_engine.tail_at_least(row, k) for row in probs]
            assert tail_at_least(probs, k).tolist() == want
            assert tail_at_least(probs[:1], k).tolist() == want[:1]

    @staticmethod
    def assert_rows_match(probs, k):
        # The batch, each row alone and the one-row reference, bit for bit.
        want = [sequential_engine.tail_at_least(row, k) for row in probs]
        assert tail_at_least(probs, k).tolist() == want
        assert [tail_at_least(row, k) for row in probs] == want

    def test_columns_sure_in_some_rows_only(self):
        # Zeros and ones that a column has in some rows but not all stay in
        # the recurrence; the all-zero and all-one columns are skipped.
        rng = np.random.default_rng(7)
        n = 30
        probs = rng.random((5, n))
        probs[rng.random((5, n)) < 0.3] = 0.0
        probs[rng.random((5, n)) < 0.3] = 1.0
        probs[:, 4] = 0.0
        probs[:, 9] = 1.0
        probs[:, 17] = 0.0
        for k in range(n + 2):
            self.assert_rows_match(probs, k)

    @pytest.mark.parametrize("n", [12, 40])
    def test_dual_side_sure_failures(self, n):
        # f trials fail in every row: the dual state starts f rows up, and
        # the tail is exactly 0 once f exceeds the allowance n - k.
        rng = np.random.default_rng(n)
        for f in range(0, n + 1, n // 12):
            probs = rng.random((4, n))
            probs[:, rng.permutation(n)[:f]] = 0.0
            probs[1, :] = np.where(probs[1] > 0.0, 1.0, 0.0)
            for k in range(n // 2 + 1, n + 1):
                self.assert_rows_match(probs, k)
                if f > n - k:
                    assert tail_at_least(probs, k).tolist() == [0.0] * 4

    def test_absorbing_side_rows_short_of_k_trials(self):
        # A row with fewer than k possible successes has tail exactly 0,
        # alone and next to rows that reach k.
        n = 16
        probs = np.zeros((3, n))
        probs[0, [2, 5]] = [0.5, 0.25]
        probs[1, [2, 5, 11]] = [0.5, 1.0, 0.75]
        probs[2] = np.linspace(0.0, 1.0, n)
        for k in range(1, n // 2 + 1):
            self.assert_rows_match(probs, k)
            self.assert_rows_match(probs[:2], k)
            self.assert_rows_match(probs[:1], k)
        assert tail_at_least(probs[:2], 4).tolist() == [0.0, 0.0]

    def test_absorbing_side_sure_successes_keep_their_order(self):
        # Sure successes on the absorbing side add absorbed mass at their
        # place in the sequence; the sum depends on that order to the bit.
        rng = np.random.default_rng(9)
        n = 200
        probs = rng.random((6, n)) ** 3
        probs[:, rng.permutation(n)[:25]] = 1.0
        for k in range(1, n // 2 + 1, 3):
            self.assert_rows_match(probs, k)

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_extreme_ranks(self, n):
        rng = np.random.default_rng(n + 10)
        probs = self.rows(rng, n)
        for k in {1, n}:
            self.assert_rows_match(probs, k)
            self.assert_rows_match(probs[:, ::-1], k)

    def test_single_vector_returns_float(self):
        for sv in ([0.2, 0.7], np.array([0.2, 0.7]), SuccessVector([0.2, 0.7])):
            assert type(tail_at_least(sv, 1)) is float
        assert tail_at_least(np.array([[0.2, 0.7]]), 1).tolist() == [tail_at_least([0.2, 0.7], 1)]
        # A scalar is a one-trial vector.
        for k, want in ((0, 1.0), (1, 0.3), (2, 0.0)):
            got = tail_at_least(0.3, k)
            assert type(got) is float and got == want == tail_at_least([0.3], k)

    def test_matrix_validation(self):
        with pytest.raises(ValueError):
            tail_at_least(np.array([[0.5, 1.5]]), 1)
        with pytest.raises(ValueError):
            tail_at_least(np.array([[0.5, np.nan]]), 1)
        for bad in (np.inf, -np.inf, -1e-300):
            with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
                tail_at_least(np.array([[0.5, 0.5], [0.5, bad]]), 1)
        with pytest.raises(ValueError):
            tail_at_least(np.zeros((2, 0)), 0)
        with pytest.raises(ValueError):
            tail_at_least(np.full((2, 3), 0.5), 5)
        assert tail_at_least(np.zeros((0, 3)), 2).shape == (0,)


class TestBruteForce:
    def test_guardrail(self):
        with pytest.raises(ValueError, match="n <= 20"):
            brute_force_tail([0.5] * 21, 1)

    def test_small_exact(self):
        assert brute_force_tail([0.5, 0.5], 2) == 0.25
        assert brute_force_tail([0.1, 0.2, 0.3], 2) == pytest.approx(0.098, abs=1e-16)


class TestChebyshev:
    def test_bound_uses_mean_sum(self):
        gap = chebyshev_bound_gap([0.01] * 100, 10.0)
        assert gap.bound == pytest.approx(0.01, rel=1e-12)
        assert gap.exact == pytest.approx(6.255518382834087e-09, rel=1e-9)
        assert gap.exact <= gap.bound

    def test_exact_is_two_sided(self):
        # mu = 1.0; |S - 1| >= 1 happens at S = 0 and S = 2.
        gap = chebyshev_bound_gap([0.5, 0.5], 1.0)
        assert gap.exact == pytest.approx(0.5, abs=1e-15)
        assert gap.bound == pytest.approx(1.0, rel=1e-15)

    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError):
            chebyshev_bound_gap([0.5], 0.0)
        with pytest.raises(ValueError):
            chebyshev_bound_gap([0.5], -1.0)

    def test_holds_for_random_vectors(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            p = rng.random(int(rng.integers(1, 51)))
            for t in (0.5, 1.0, 2.0, 5.0):
                gap = chebyshev_bound_gap(p, t)
                assert gap.exact <= gap.bound + 1e-12
