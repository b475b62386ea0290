import json
import math
import sys
import warnings

import numpy as np
import pytest

import sequential_engine
from conftest import CATALOGUE, sweep_laws
from inidstat import regularity
from inidstat.dist import Atomic, Exponential, MixtureCdf, ParetoPower, PiecewiseLinearCdf, Uniform01
from inidstat.regularity import (
    DEFAULT_GRID,
    GRID_NOTE,
    MARGIN_TOL,
    GridSpec,
    RegularityPreconditionError,
    check_condition,
    check_condition_batch,
    check_lemma_growth,
    check_measure_form,
    check_weak_condition,
    find_min_K,
    pointwise_margins,
)


class TestGridSpec:
    def test_default(self):
        assert DEFAULT_GRID == GridSpec(1e-6, 1e6, 64)
        pts = DEFAULT_GRID.points()
        assert pts[0] == 1e-6 and pts[-1] == 1e6
        assert pts.size == 12 * 64 + 1
        assert np.all(np.diff(pts) > 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(0.0, 1.0, 8)
        with pytest.raises(ValueError):
            GridSpec(2.0, 1.0, 8)
        with pytest.raises(ValueError):
            GridSpec(1.0, 2.0, 0)

    def test_number_rule(self):
        # t_min and t_max are finite positive reals, points_per_decade an
        # integer of at least 1: numpy numbers are accepted, bools, floats
        # for the integer and strings are refused with ValueError.
        for bad in (
            (True, 10.0, True),
            (True, 10.0, 4),
            (1e-3, True, 4),
            (1e-3, 1e3, True),
            (1e-3, 1e3, 1.5),
            (1e-3, 1e3, 4.0),
            (1e-3, 1e3, -2),
            (np.nan, 1.0, 4),
            (1e-3, np.inf, 4),
            ("0.001", 1e3, 4),
        ):
            with pytest.raises(ValueError):
                GridSpec(*bad)
        grid = GridSpec(np.float64(1e-3), 1000, np.int64(4))
        assert grid == GridSpec(1e-3, 1e3, 4)
        assert type(grid.t_max) is float and type(grid.points_per_decade) is int

    def test_special_points_are_probed(self):
        d = Atomic(atoms=((3.1415, 1.0),))
        pts = GridSpec(1.0, 2.0, 4).points_for(d)
        assert 3.1415 in pts
        assert np.nextafter(3.1415, -np.inf) in pts
        assert np.nextafter(3.1415, np.inf) in pts
        # Everything stays strictly positive even for an atom near zero.
        tiny = Atomic(atoms=((0.0, 0.5), (1.0, 0.5)))
        assert np.all(GridSpec(1.0, 2.0, 4).points_for(tiny) > 0.0)


class TestCondition:
    def test_catalogue_passes(self):
        for d, K in CATALOGUE:
            cert = check_condition(d, K)
            assert cert.passed, (d, K, cert.margin)
            assert cert.margin >= -MARGIN_TOL
            assert cert.witness is None

    def test_uniform_fails_below_two(self):
        # On [0.08, 0.1] the margin t*(1.5t - 0.5) is decreasing, so the
        # worst grid point is exactly t = 0.1.
        cert = check_condition(Uniform01(), 1.5, GridSpec(0.08, 0.1, 16))
        assert not cert.passed
        t, lhs, rhs = cert.witness
        assert t == 0.1
        assert lhs == pytest.approx(0.15 * 0.9, rel=1e-12)
        assert rhs == pytest.approx(2.0 * 0.1 * 0.85, rel=1e-12)
        assert cert.margin == pytest.approx(lhs - rhs, rel=1e-12)

    def test_point_mass_passes_any_K(self):
        d = Atomic(atoms=((1.0, 1.0),))
        for K in (1.1, 2.0, 7.0):
            assert check_condition(d, K).passed

    def test_two_atom_law_fails(self):
        d = Atomic(atoms=((1.0, 0.5), (100.0, 0.5)))
        cert = check_condition(d, 2.0)
        assert not cert.passed

    def test_K_domain(self):
        for bad in (1.0, 0.5, math.inf, math.nan, "3", True):
            with pytest.raises(ValueError, match="K must"):
                check_condition(Uniform01(), bad)

    def test_unknown_form(self):
        with pytest.raises(ValueError, match="unknown inequality form 'strong'"):
            pointwise_margins(Uniform01(), 2.0, form="strong")

    def test_scale_invariance_of_verdicts(self):
        for d, K in CATALOGUE[:5]:
            base = check_condition(d, K).verdict
            for c in (0.01, 100.0):
                assert check_condition(d.scaled(c), K).verdict == base
        # Same for a failing pair.
        for c in (0.01, 1.0, 100.0):
            assert check_condition(Uniform01(scale=c), 1.5).verdict == "fail"


class TestMeasureForm:
    def test_equivalence_on_catalogue(self):
        for d, _ in CATALOGUE:
            for K in (1.5, 2.0, 3.0):
                t1, lhs1, rhs1, _ = pointwise_margins(d, K, DEFAULT_GRID, "condition")
                t2, lhs2, rhs2, _ = pointwise_margins(d, K, DEFAULT_GRID, "measure-form")
                assert np.array_equal(t1, t2)
                v1 = (lhs1 - rhs1) >= -MARGIN_TOL
                v2 = (lhs2 - rhs2) >= -MARGIN_TOL
                assert np.array_equal(v1, v2), (d, K)

    def test_examples(self):
        assert check_measure_form(Uniform01(), 2.0).passed
        assert check_measure_form(Exponential(rate=1.0), 3.0).passed
        cert = check_measure_form(Uniform01(), 1.5, GridSpec(0.08, 0.1, 16))
        assert not cert.passed
        assert cert.witness[0] == 0.1


class TestWeakCondition:
    def test_examples(self):
        assert check_weak_condition(Uniform01(), 2.0).passed
        assert check_weak_condition(Exponential(rate=1.0), 3.0).passed
        assert check_weak_condition(Atomic(atoms=((1.0, 1.0),)), 2.0).passed

    def test_implied_by_condition(self):
        for d, K in CATALOGUE:
            assert check_weak_condition(d, K).passed

    def test_restricted_to_lower_half(self):
        t, lhs, _, n_total = pointwise_margins(Uniform01(), 2.0, DEFAULT_GRID, "weak-condition")
        assert t.size < n_total
        assert np.all(lhs <= 0.5)


class TestGrowthLemma:
    def test_uniform_example(self):
        rep = check_lemma_growth(Uniform01(), 2.0, 1, 0.5)
        assert rep.passed
        assert rep.witnesses == ()
        assert rep.margin_growth >= -MARGIN_TOL
        assert rep.margin_survival >= -MARGIN_TOL

    def test_exponential_proof_pairing(self):
        rep = check_lemma_growth(Exponential(rate=1.0), 3.0, 5, 2.0**-2.5)
        assert rep.passed

    def test_pareto_example(self):
        assert check_lemma_growth(ParetoPower(p=1.0), 2.0, 3, 0.25).passed

    def test_catalogue_sweep(self):
        for d, K in CATALOGUE:
            for ell in (1, 3):
                for gamma in (2.0 ** (-ell / 2.0), 0.9):
                    rep = check_lemma_growth(d, K, ell, gamma)
                    assert rep.passed, (d, K, ell, gamma, rep.witnesses)

    def test_precondition_rejection(self):
        with pytest.raises(RegularityPreconditionError) as err:
            check_lemma_growth(Uniform01(), 1.5, 1, 0.5)
        assert err.value.certificate.verdict == "fail"
        assert err.value.certificate.K == 1.5

    def test_parameter_domains(self):
        with pytest.raises(ValueError):
            check_lemma_growth(Uniform01(), 2.0, 0, 0.5)
        with pytest.raises(ValueError):
            check_lemma_growth(Uniform01(), 2.0, 1, 0.0)
        with pytest.raises(ValueError):
            check_lemma_growth(Uniform01(), 2.0, 1, 1.0)

    def test_number_rule(self):
        # ell is an integer (a numpy integer is, a bool is not) and gamma a
        # finite real (a bool or string is not).
        d = Exponential(rate=1.0)
        assert check_lemma_growth(d, 3.0, np.int64(1), np.float64(0.9)) == check_lemma_growth(d, 3.0, 1, 0.9)
        for ell, gamma, message in ((True, 0.9, "ell"), (1.0, 0.9, "ell"), (1, "0.9", "gamma"), (1, True, "gamma")):
            with pytest.raises(ValueError, match=message):
                check_lemma_growth(d, 3.0, ell, gamma)

    def test_ell_overflow(self):
        with pytest.raises(ValueError, match="ell must lie in \\[1, 1023\\] at K=2"):
            check_lemma_growth(Uniform01(), 2.0, 2000, 0.5)
        # K^ell binds before 2^ell once K > 2.
        with pytest.raises(ValueError, match="ell must lie in \\[1, 646\\] at K=3"):
            check_lemma_growth(Exponential(rate=1.0), 3.0, 647, 0.5)
        assert check_lemma_growth(Uniform01(), 2.0, 1023, 0.5).passed

    # Coarse grids miss the condition's failures, and there the lemma's own
    # inequalities can fail.  Both reports are pinned as first computed.
    COARSE = GridSpec(1e-3, 1e3, 1)

    def test_growth_witness(self):
        d = PiecewiseLinearCdf(knots=(
            (0, 0), (0.027803820057333208, 0.22469891067846148),
            (0.06399453231933833, 0.23905317343430266), (0.06659366578060014, 1.0),
        ))
        assert check_condition(d, 3.0, self.COARSE).passed
        rep = check_lemma_growth(d, 3.0, 1, 0.2, self.COARSE)
        assert rep.to_dict() == {
            "K": 3.0, "ell": 1, "gamma": 0.2,
            "grid_spec": {"t_min": 0.001, "t_max": 1000.0, "points_per_decade": 1},
            "n_points": 17, "n_survival_points": 8,
            "margin_growth": -0.023309724057585413, "margin_survival": 0.0, "verdict": "fail",
            "witnesses": [["growth", 0.06399453231933833, 0.23905317343430266, 0.26236289749188807]],
            "note": GRID_NOTE,
        }

    def test_survival_witness(self):
        # A flat stretch at F = 0.6 just shorter than a factor K, reached by a
        # rise whose failing points fall between the grid's decades.
        d = PiecewiseLinearCdf(knots=((0, 0), (2, 0.4), (3, 0.6), (8.85, 0.6), (8.9, 1.0)))
        assert check_condition(d, 3.0, self.COARSE).passed
        assert not check_condition(d, 3.0).passed
        rep = check_lemma_growth(d, 3.0, 1, 0.45, self.COARSE)
        assert rep.to_dict() == {
            "K": 3.0, "ell": 1, "gamma": 0.45,
            "grid_spec": {"t_min": 0.001, "t_max": 1000.0, "points_per_decade": 1},
            "n_points": 20, "n_survival_points": 12,
            "margin_growth": 0.0, "margin_survival": -0.011052631578947203, "verdict": "fail",
            "witnesses": [["survival", 8.849999999999998, 0.41000000000000014, 0.42105263157894735]],
            "note": GRID_NOTE,
        }

    def test_no_survival_points_pass(self):
        # F(t) <= 0.1 on the grid, so F(t) >= 1 - gamma holds nowhere.
        rep = check_lemma_growth(Uniform01(scale=100.0), 2.0, 1, 0.5, GridSpec(0.1, 10.0, 4))
        assert rep.n_survival_points == 0
        assert rep.margin_survival == math.inf and rep.passed


class TestMinK:
    def test_uniform_boundary(self):
        res = find_min_K(Uniform01())
        assert res.K == pytest.approx(2.0, abs=2e-3)
        assert check_condition(Uniform01(), res.K).passed
        assert res.assumes_monotone_in_K

    def test_pareto_boundary(self):
        res = find_min_K(ParetoPower(p=2.0))
        assert res.K == pytest.approx(math.sqrt(2.0), abs=2e-3)

    def test_exponential_below_three(self):
        res = find_min_K(Exponential(rate=1.0))
        assert res.K <= 3.0
        assert res.K == pytest.approx(2.0, abs=2e-3)

    def test_passing_lower_end_is_the_answer(self):
        res = find_min_K(Uniform01(), K_range=(2.5, 8.0))
        assert res.K == 2.5 and res.bracket == (2.5, 2.5)

    def test_not_found(self):
        d = Atomic(atoms=((1.0, 0.5), (100.0, 0.5)))
        with pytest.raises(ValueError, match="not found in range"):
            find_min_K(d)

    def test_k_range_validation(self):
        with pytest.raises(ValueError):
            find_min_K(Uniform01(), K_range=(0.9, 8.0))
        # K_range is exactly two numbers: no third is ignored.
        for bad in ((1.5, 8.0, 0.5), (1.5,), 1.5, ()):
            with pytest.raises(ValueError, match="K_range"):
                find_min_K(Uniform01(), K_range=bad)
        with pytest.raises(ValueError):
            find_min_K(Uniform01(), tol=0.0)

    def test_bracket_width_within_tol(self):
        res = find_min_K(Uniform01(), tol=1e-4)
        lo, hi = res.bracket
        assert hi - lo <= 1e-4 + 1e-12
        assert res.K == hi

    def test_bracket_stops_at_adjacent_doubles(self):
        # A tol below the spacing of doubles near K ends the bisection when no double lies between the ends.
        res = find_min_K(Exponential(), tol=1e-300)
        lo, hi = res.bracket
        assert hi == math.nextafter(lo, math.inf)
        assert res.K == hi == pytest.approx(2.0, abs=2e-3)


class TestSerialization:
    def test_certificate_round_trip(self):
        for cert in (
            check_condition(Uniform01(), 2.0),
            check_condition(Uniform01(), 1.5),
            check_weak_condition(Exponential(rate=2.0), 3.0, GridSpec(0.1, 10.0, 8)),
        ):
            assert json.loads(json.dumps(cert.to_dict())) == cert.to_dict()

    def test_growth_report_round_trip(self):
        rep = check_lemma_growth(Uniform01(), 2.0, 2, 0.5)
        assert json.loads(json.dumps(rep.to_dict())) == rep.to_dict()

    def test_min_k_round_trip(self):
        res = find_min_K(ParetoPower(p=1.0))
        assert json.loads(json.dumps(res.to_dict())) == res.to_dict()


FORMS = ("condition", "measure-form", "weak-condition")


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


class TestOneEvaluator:
    """Every form, through the one evaluator, equals its per-law d.cdf reference."""

    LAWS = (
        *(d for d, _ in CATALOGUE),
        *dict.fromkeys(sweep_laws(np.random.default_rng(47), 40)),
        Atomic(((0.0, 1e-13), (1.0, 1.0 - 1e-13))),
        Exponential(scale=1e20),
        Exponential(scale=1e-20),
    )

    @pytest.mark.parametrize("grid", [DEFAULT_GRID, GridSpec(1e-3, 1e3, 5)], ids=["default", "coarse"])
    def test_every_form_equals_the_per_law_reference(self, grid):
        assert any(isinstance(d, PiecewiseLinearCdf) for d in self.LAWS)
        verdicts, raised = set(), 0
        for K in (2.0**0.25, 1.5, 2.0, 3.0):
            for d in self.LAWS:
                for got, want in (
                    (check_condition(d, K, grid), sequential_engine.condition_certificate(d, K, grid)),
                    (check_measure_form(d, K, grid), sequential_engine.measure_form_certificate(d, K, grid)),
                    (check_weak_condition(d, K, grid), sequential_engine.weak_condition_certificate(d, K, grid)),
                ):
                    assert repr(got) == repr(want)
                    verdicts.add(got.verdict)
                for form in FORMS:
                    got = pointwise_margins(d, K, grid, form)
                    want = sequential_engine.form_sides(d, K, grid, form)
                    assert [_bits(a) for a in got[:3]] == [_bits(a) for a in want[:3]] and got[3] == want[3]
                for ell, gamma in ((1, 0.5), (3, 0.25)):
                    try:
                        want = sequential_engine.growth_lemma_report(d, K, ell, gamma, grid)
                    except RegularityPreconditionError as e:
                        raised += 1
                        with pytest.raises(RegularityPreconditionError) as got:
                            check_lemma_growth(d, K, ell, gamma, grid)
                        assert str(got.value) == str(e) and repr(got.value.certificate) == repr(e.certificate)
                    else:
                        assert repr(check_lemma_growth(d, K, ell, gamma, grid)) == repr(want)
        assert verdicts == {"pass", "fail"} and raised
        for d in self.LAWS:
            try:
                want = sequential_engine.find_min_K(d, grid)
            except ValueError as e:
                with pytest.raises(ValueError, match="not found in range") as got:
                    find_min_K(d, grid)
                assert str(got.value) == str(e)
            else:
                assert repr(find_min_K(d, grid)) == repr(want)

    @staticmethod
    def _count(monkeypatch, name, owner):
        calls = []
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return calls

    def test_work_is_shared(self, monkeypatch):
        blocks = self._count(monkeypatch, "family_blocks", MixtureCdf)
        judged = self._count(monkeypatch, "_assemble", regularity)
        # The lemma evaluates F once at t, K*t and t/K^ell, and judges the
        # precondition, growth and survival from them.
        check_lemma_growth(Exponential(), 3.0, 2, 0.25)
        assert len(blocks) == 3 and len(judged) == 3
        # find_min_K evaluates F(t) once and F(K*t) once per K tried, each
        # judged once.
        for d, K_range in ((Exponential(), (1.01, 8.0)), (Uniform01(), (2.5, 8.0)), (ParetoPower(p=4.0), (1.01, 8.0))):
            del blocks[:], judged[:]
            find_min_K(d, DEFAULT_GRID, K_range)
            assert len(judged) >= 1 and len(blocks) == 1 + len(judged)
        # The condition over many laws: one call at t and one at K*t per job.
        del blocks[:]
        laws = sweep_laws(np.random.default_rng(48), 60)
        check_condition_batch(laws, 2.0)
        jobs = 1 + sum(1 for d in dict.fromkeys(laws) if d.special_points())
        assert len(blocks) == 2 * jobs

    def test_top_of_the_double_range(self):
        # Warnings are errors here: no grid point is inf, and K*t may
        # overflow to inf, where the cdf is 1, without a warning.
        top = sys.float_info.max
        edge = Atomic(((1.0, 0.5), (top, 0.5)))
        near = Atomic(((1.0, 0.5), (1e308, 0.5)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t = DEFAULT_GRID.points_for(edge)
            assert t[-2:].tolist() == [np.nextafter(top, 0.0), top] and np.isfinite(t).all()
            for d in (edge, near):
                for form in FORMS:
                    assert np.isfinite(pointwise_margins(d, 2.0, DEFAULT_GRID, form)[0]).all()
                cert = check_condition(d, 2.0)
                # Between the atoms F(t) = F(2t) = 1/2, so the odds do not double.
                assert (cert.verdict, cert.margin, cert.witness) == ("fail", -0.25, (1.0, 0.25, 0.5))
                assert not check_measure_form(d, 2.0).passed
                assert check_weak_condition(d, 2.0).margin == -0.5
                with pytest.raises(RegularityPreconditionError):
                    check_lemma_growth(d, 2.0, 1, 0.5)
                with pytest.raises(ValueError, match="not found in range"):
                    find_min_K(d)
