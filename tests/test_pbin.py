from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import sequential_engine
from inidstat.pbin import (
    brute_force_tail,
    chebyshev_bound_gap,
    pmf,
    tail_at_least,
)


def assert_matches_reference(got, probs, k):
    """``got`` against the one-trial-at-a-time recurrence on each row of ``probs``.

    Bit for bit for n <= 32, where the pass is one block that keeps those
    bits; above, the blocked pass sums in another order, and each tail
    agrees to within n * 2**-53 relative (absolute below 1e-300), exact
    zeros equal.
    """
    n = probs.shape[-1]
    want = [sequential_engine.tail_at_least(row, k) for row in probs]
    if n <= 32:
        assert got == want
        return
    for g, w in zip(got, want):
        assert (g == 0.0) == (w == 0.0), (k, g, w)
        assert abs(g - w) <= n * 2.0**-53 * max(w, 1e-300), (k, g, w)


def exact_tail(p, k) -> Fraction:
    """The tail that ``tail_at_least`` rounds, in exact rational arithmetic.

    The truncated recurrence on the same doubles: success probabilities p
    and failure probabilities 1.0 - p, each a multiple of 2**-e, so the
    state is held as integers scaled by 2**(e * step).  Absorbing side for
    k <= n + 1 - k (the mass that reaches k), dual side above (the mass of
    at most n - k failures).
    """
    pairs = [(Fraction(float(x)), Fraction(1.0 - float(x))) for x in p]
    n = len(pairs)
    e = max(v.denominator.bit_length() - 1 for pair in pairs for v in pair)
    absorbing = k <= n + 1 - k
    size = k if absorbing else n - k + 1
    state, past = [1] + [0] * (size - 1), 0
    for succ, fail in pairs:
        up, stay = (succ, fail) if absorbing else (fail, succ)
        up, stay = int(up * 2**e), int(stay * 2**e)
        past = (past << e) + state[-1] * up
        state = [state[0] * stay] + [state[j] * stay + state[j - 1] * up for j in range(1, size)]
    return Fraction(past if absorbing else sum(state), 1 << (e * n))


def exact_law(p) -> list[Fraction]:
    """The law that ``pmf`` rounds, in exact rational arithmetic, scaled as in ``exact_tail``."""
    pairs = [(Fraction(float(x)), Fraction(1.0 - float(x))) for x in p]
    e = max(v.denominator.bit_length() - 1 for pair in pairs for v in pair)
    law = [1]
    for succ, fail in pairs:
        up, stay = int(succ * 2**e), int(fail * 2**e)
        law = [a * stay + b * up for a, b in zip(law + [0], [0] + law)]
    return [Fraction(c, 1 << (e * len(pairs))) for c in law]


def assert_relative_to_exact(got, probs, k):
    # Relative error of at most n * 2**-53 against the exact tail, per row.
    n = probs.shape[-1]
    for g, row in zip(got, probs):
        exact = exact_tail(row, k)
        assert abs(Fraction(g) - exact) <= Fraction(n, 2**53) * exact, (k, g, float(exact))


# Each pbin entry as a call of one probability vector.
ENTRIES = {
    "pmf": pmf,
    "tail_at_least": lambda p: tail_at_least(p, 1),
    "brute_force_tail": lambda p: brute_force_tail(p, 1),
    "chebyshev_bound_gap": lambda p: chebyshev_bound_gap(p, 1.0),
}


class TestInputs:
    def test_validation(self):
        for entry, call in ENTRIES.items():
            for bad in ([], [0.5, 1.2], [-0.1], [np.nan], np.array([0.5, np.inf])):
                with pytest.raises(ValueError):
                    call(bad)
            # Only tail_at_least takes a stack of vectors.
            if entry != "tail_at_least":
                with pytest.raises(ValueError, match="one vector"):
                    call(np.full((2, 3), 0.5))
            # A list, an array and a scalar are read alike, and the input is left as it was.
            probs = np.array([0.2, 0.4])
            assert np.array_equal(call([0.2, 0.4]), call(probs)), entry
            assert np.array_equal(call(0.3), call([0.3])), entry
            assert probs.tolist() == [0.2, 0.4]


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

    @pytest.mark.parametrize("n", [33, 64, 100])
    def test_relative_to_exact_law(self, n):
        # Within n * 2**-53 of the exact law of the same doubles, entry by
        # entry; below 1e-290 the pass meets subnormal terms, so absolute.
        p = np.random.default_rng(n).random(n)
        for probs in (p, p**12, 1.0 - p**12):
            for c, (got, want) in enumerate(zip(pmf(probs), exact_law(probs))):
                err = abs(Fraction(float(got)) - want)
                assert err <= n * Fraction(2) ** -53 * max(want, Fraction(1e-290)), (c, got, float(want))

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

    def test_rank_is_an_integer(self):
        # One rank rule with OrderStatModel: bools and floats are refused,
        # numpy integers are accepted.
        for f in (tail_at_least, brute_force_tail):
            for bad in (True, False, 1.0, 0.5, np.bool_(True), "1", None):
                with pytest.raises(ValueError, match='rank "k" must be an integer'):
                    f([0.5, 0.5], bad)
            assert f([0.5, 0.5], np.int64(1)) == f([0.5, 0.5], 1) == 0.75

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
            assert_matches_reference(alone, probs, k)
            stack = tail_at_least(probs.reshape(2, 3, n), k)
            assert stack.shape == (2, 3) and stack.ravel().tolist() == alone
        assert tail_at_least(np.full((2, 3, 4), 0.5), 1).tolist() == [[0.9375] * 3] * 2

    def test_wide_state_few_rows(self):
        # A state much wider than the number of rows, across 25 blocks.
        rng = np.random.default_rng(5)
        probs = self.rows(rng, 600)[:3]
        for k in (1, 2, 150, 300, 301, 302, 450, 599, 600, 601):
            got = tail_at_least(probs, k).tolist()
            assert_matches_reference(got, probs, k)
            assert tail_at_least(probs[:1], k).tolist() == got[:1]

    @staticmethod
    def assert_rows_match(probs, k):
        # The batch and each row alone bit for bit, and the one-row reference.
        got = tail_at_least(probs, k).tolist()
        assert [tail_at_least(row, k) for row in probs] == got
        assert_matches_reference(got, probs, k)

    def test_columns_sure_in_some_rows_only(self):
        # Zeros and ones in some rows of a column, and columns of zeros or
        # ones in every row.
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
        # f trials fail in every row: the tail is exactly 0 once f exceeds
        # the allowance n - k.
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

    def test_blocks_batch_alone_and_stack_bit_for_bit(self):
        # n = 100 runs as 10 blocks of 10 trials; columns are sure in some
        # rows only, or in every row, and the blocks stay the same alone.
        rng = np.random.default_rng(13)
        n = 100
        probs = rng.random((6, n))
        probs[rng.random((6, n)) < 0.25] = 0.0
        probs[rng.random((6, n)) < 0.25] = 1.0
        probs[:, 7] = 0.0
        probs[:, 55] = 1.0
        probs[:3, 90:] = 0.0
        probs[3:, :15] = 1.0
        for k in range(n + 2):
            batch = tail_at_least(probs, k).tolist()
            assert [tail_at_least(row, k) for row in probs] == batch
            assert tail_at_least(probs.reshape(3, 2, n), k).ravel().tolist() == batch
            assert tail_at_least(probs[::-2], k).tolist() == batch[::-2]

    @pytest.mark.parametrize("n", [40, 100])
    def test_dual_side_tiny_success_probabilities(self, n):
        # Success probabilities near 1e-6 on the dual side: the pass uses
        # them as given, so tails from 1e-70 down to 1e-289 keep their
        # digits, where 1 - (1 - p) would lose about 8 of them.
        rng = np.random.default_rng(n)
        probs = 1e-6 * rng.uniform(0.5, 2.0, (3, n))
        probs[1, ::5] = 0.5
        ks = range(n // 2 + 1, n + 1) if n <= 40 else (51, 52, 53, 54)
        for k in ks:
            got = tail_at_least(probs, k).tolist()
            assert 0.0 < min(got) and max(got) < 1e-70
            assert_relative_to_exact(got, probs, k)

    def test_absorbing_side_tiny_tails(self):
        rng = np.random.default_rng(17)
        n = 200
        probs = 1e-6 * rng.uniform(0.5, 2.0, (2, n))
        probs[1, 100:] = rng.random(100) ** 8
        for k in (1, 2, 5, 20, 40):
            got = tail_at_least(probs, k).tolist()
            assert 0.0 < min(got) and (k < 5 or got[0] < 1e-20)
            assert_relative_to_exact(got, probs, k)

    def test_wide_state_against_exact(self):
        # n = 600 runs as 25 blocks of 24 trials, for 1 to 3 rows.
        probs = np.random.default_rng(19).uniform(0.05, 0.95, (3, 600))
        for k in (2, 300, 450):
            got = tail_at_least(probs, k).tolist()
            assert_relative_to_exact(got, probs, k)
            for rows in (1, 2):
                assert tail_at_least(probs[:rows], k).tolist() == got[:rows]

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_extreme_ranks(self, n):
        rng = np.random.default_rng(n + 10)
        probs = self.rows(rng, n)
        for k in {1, n}:
            self.assert_rows_match(probs, k)
            self.assert_rows_match(probs[:, ::-1], k)

    def test_single_vector_returns_float(self):
        for p in ([0.2, 0.7], np.array([0.2, 0.7])):
            assert type(tail_at_least(p, 1)) is float
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
