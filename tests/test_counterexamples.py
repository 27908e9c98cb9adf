"""The borderline family: summable and bounded, yet outside L_{1,q} for q < 1."""

from __future__ import annotations

import math

import numpy as np
import pytest

from rinorms import (
    INF,
    LorentzParams,
    SpaceDescriptor,
    estimate_boyd_indices,
    lorentz_norm,
    sequence_report,
    step_function_report,
)
from rinorms.counterexamples import (
    SequenceReport,
    report_rows,
    sequence_terms,
    step_function,
    weight_exponent,
)


class TestSequence:
    def test_weight_exponent_between_one_and_reciprocal(self):
        for q in (0.2, 0.5, 0.9):
            alpha = weight_exponent(q)
            assert 1.0 < alpha < 1.0 / q

    def test_terms_positive_and_decreasing(self):
        terms = sequence_terms(0.5, 10_000)
        assert np.all(terms > 0.0)
        assert np.all(np.diff(terms) < 0.0)

    def test_small_n(self):
        rep = sequence_report(0.5, 2)
        assert 0.0 < rep.l1_partial < INF
        assert 0.0 < rep.l1q_partial < INF
        assert rep.alpha == 1.5

    def test_invalid_arguments(self):
        for q in (0.0, 1.0, 1.5, -0.5):
            with pytest.raises(ValueError):
                sequence_report(q, 100)
        with pytest.raises(ValueError):
            sequence_report(0.5, 1)

    def test_report_rejects_negative_partial_sums(self):
        with pytest.raises(ValueError) as err:
            SequenceReport(n=2, l1_partial=-1.0, l1q_partial=0.0, q=0.5)
        assert str(err.value) == "partial sums must be nonnegative"

    def test_partials_monotone_in_n(self):
        reps = [sequence_report(0.5, n) for n in (10, 100, 1000)]
        l1s = [r.l1_partial for r in reps]
        l1qs = [r.l1q_partial for r in reps]
        assert l1s == sorted(l1s)
        assert l1qs == sorted(l1qs)

    def test_growth_matches_integral_oracle(self):
        # for q = 1/2 the divergent part behaves like 4 (ln N)**(1/4):
        # increment over [1e3, 1e6] computed by the antiderivative
        r3 = sequence_report(0.5, 10**3)
        r6 = sequence_report(0.5, 10**6)
        growth = r6.l1q_partial - r3.l1q_partial
        oracle = 4.0 * (math.log(10**6) ** 0.25 - math.log(10**3) ** 0.25)
        assert growth == pytest.approx(oracle, rel=0.01)
        assert growth >= 1.0

    def test_l1_tail_below_integral_bound(self):
        # sum_{k>N} f_k <= int_N^inf dx/(x ln(x)**(3/2)) = 2 ln(N)**(-1/2)
        r3 = sequence_report(0.5, 10**3)
        r6 = sequence_report(0.5, 10**6)
        bound = 2.0 * math.log(10**3) ** -0.5
        assert r6.l1_partial - r3.l1_partial <= bound


class TestStepFunction:
    def test_function_is_its_own_rearrangement(self):
        f = step_function(0.5, 500)
        assert f.rearrange() is f

    def test_sup_norm_is_first_term(self):
        f, norms = step_function_report(0.5, 300)
        assert norms["linf"] == sequence_terms(0.5, 2)[0]

    def test_l1_norm_equals_partial_sum(self):
        # unit-width pieces: the integral is the plain partial sum
        n = 400
        _, norms = step_function_report(0.5, n)
        rep = sequence_report(0.5, n)
        assert norms["l1"] == pytest.approx(rep.l1_partial, rel=1e-12)

    def test_l1q_norm_dominates_weighted_partial_sum(self):
        # int_{k-1}^k t**(q-1) dt >= k**(q-1) termwise, so the function's
        # quasi-norm power dominates the sequence partial
        n = 400
        q = 0.5
        _, norms = step_function_report(q, n)
        rep = sequence_report(q, n)
        assert norms["l1q"] ** q >= rep.l1q_partial * (1.0 - 1e-12)

    def test_l1q_norm_grows_without_stabilising(self):
        qs = [lorentz_norm(step_function(0.5, n), LorentzParams(1.0, 0.5)) for n in (100, 10_000)]
        l1s = [lorentz_norm(step_function(0.5, n), LorentzParams(1.0, 1.0)) for n in (100, 10_000)]
        assert qs[1] > qs[0] * 1.4  # quasi-norm keeps climbing
        assert l1s[1] < l1s[0] + 1.0  # integral has nearly converged


class TestBoydOfTargetSpace:
    def test_indices_are_one(self, small_corpus):
        space = SpaceDescriptor.for_lorentz(LorentzParams(1.0, 0.5))
        lower, upper = estimate_boyd_indices(
            space, [2.0, 2.0**5, 2.0**10, 2.0**20], list(small_corpus)[:40]
        )
        assert lower == pytest.approx(1.0, abs=0.05)
        assert upper == pytest.approx(1.0, abs=0.05)


class TestReportRows:
    def test_rows_shape_and_monotonicity(self):
        rows = report_rows(0.5, [100, 1000, 10000])
        assert [r[0] for r in rows] == [100, 1000, 10000]
        assert [r[1] for r in rows] == sorted(r[1] for r in rows)
        assert [r[2] for r in rows] == sorted(r[2] for r in rows)
