"""Lorentz quasi-norms: closed forms, space axioms, dilation and Boyd behaviour."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rinorms import (
    INF,
    LorentzParams,
    SpaceDescriptor,
    StepFunction,
    aoki_rolewicz_kappa,
    dilation_operator_norm,
    estimate_boyd_indices,
    estimate_dilation_norm,
    estimate_quasi_triangle_constant,
    generate_pairs,
    is_nontrivial,
    lorentz_norm,
    weighted_power_integral,
)
from rinorms.lorentz import _weighted_sup

from conftest import edge_step_functions, loop_weighted_sup, outcome, quad_lorentz_norm, windows

NONTRIVIAL_GRID = [
    LorentzParams(p, q)
    for p, q in itertools.product((0.5, 1.0, 2.0), (0.5, 1.0, 2.0, INF))
] + [LorentzParams(INF, INF)]


class TestNontriviality:
    def test_finite_p(self):
        assert is_nontrivial(LorentzParams(2.0, 1.0))

    def test_sup_space(self):
        assert is_nontrivial(LorentzParams(INF, INF))

    def test_degenerate(self):
        assert not is_nontrivial(LorentzParams(INF, 2.0))

    def test_invalid_exponents(self):
        for p, q in ((0.0, 1.0), (-1.0, 1.0), (1.0, math.nan)):
            with pytest.raises(ValueError):
                LorentzParams(p, q)


class TestNormValues:
    def test_indicator_l21(self, unit_indicator):
        # int_0^1 t**(-1/2) dt = 2, frozen from the quadrature oracle
        assert lorentz_norm(unit_indicator, LorentzParams(2.0, 1.0)) == pytest.approx(
            2.0, rel=1e-12
        )

    def test_indicator_weak_l2(self, unit_indicator):
        assert lorentz_norm(unit_indicator, LorentzParams(2.0, INF)) == 1.0

    def test_degenerate_norm_is_infinite(self, unit_indicator):
        assert lorentz_norm(unit_indicator, LorentzParams(INF, 1.0)) == INF

    def test_zero_function_everywhere(self):
        for prm in NONTRIVIAL_GRID + [LorentzParams(INF, 0.5)]:
            assert lorentz_norm(StepFunction.zero(), prm) == 0.0

    def test_p_equals_q_is_lebesgue_norm(self, small_corpus):
        for f in list(small_corpus)[:15]:
            for p in (0.5, 1.0, 2.0):
                direct = weighted_power_integral(f.rearrange(), 1.0, p) ** (1.0 / p)
                assert lorentz_norm(f, LorentzParams(p, p)) == pytest.approx(
                    direct, rel=1e-12
                )

    def test_sup_norm_is_max_value(self, small_corpus):
        for f in small_corpus:
            assert lorentz_norm(f, LorentzParams(INF, INF)) == f.rearrange().max_value()

    def test_positive_tail_is_infinite_for_finite_p(self):
        f = StepFunction((1.0,), (2.0,), 1.0)
        assert lorentz_norm(f, LorentzParams(2.0, 2.0)) == INF
        assert lorentz_norm(f, LorentzParams(2.0, INF)) == INF
        assert lorentz_norm(f, LorentzParams(INF, INF)) == 2.0

    def test_overflowing_integral_is_rescaled(self):
        # (1e200)**2 overflows; ||c f|| = c ||f|| with c a power of two
        f = StepFunction((1.0,), (1e200,))
        assert lorentz_norm(f, LorentzParams(2.0, 2.0)) == 1e200
        assert lorentz_norm(f.dilate(0.25), LorentzParams(2.0, 2.0)) == 2e200
        assert lorentz_norm(StepFunction((1.0,), (1.7e308,)), LorentzParams(2.0, 2.0)) == 1.7e308
        # the rescaled path keeps divergence and agrees with the direct one on
        # scaled-down input; x**(1/q) with a rounded 1/q moves by about
        # |scale exponent| * 2**-53 between the two scales
        assert lorentz_norm(StepFunction((1.0,), (1e200,), 1.0), LorentzParams(2.0, 2.0)) == INF
        for f in (StepFunction((1.0, 3.0), (2.0**600, 2.0**599)), StepFunction((0.5, 4.0), (3.0 * 2.0**700, 2.0**690))):
            small = f.scale(2.0**-700)
            for prm in (LorentzParams(2.0, 2.0), LorentzParams(1.0, 3.0), LorentzParams(3.0, 1.5)):
                assert lorentz_norm(f, prm) == pytest.approx(
                    math.ldexp(lorentz_norm(small, prm), 700), rel=1e-12
                )

    def test_rescaling_keeps_the_terms_of_small_values(self):
        # the scale follows the largest term, not the largest value: 0.99 on
        # (1, 1e30] carries most of the norm although 2**600 dwarfs it
        f = StepFunction((1e-154, 1.0, 1e30), (2.0**600, 1.0, 0.99))
        b0, b1, b2 = (Fraction(x) for x in f.breakpoints)
        exact = (Fraction(2) ** 1200 * b0**2 + (b1**2 - b0**2) + Fraction(0.99) ** 2 * (b2**2 - b1**2)) / 2
        assert lorentz_norm(f, LorentzParams(1.0, 2.0)) == pytest.approx(math.sqrt(exact), rel=1e-12)
        # a value whose term is far below the last bit leaves the norm alone
        prm = LorentzParams(2.0, 2.0)
        for small in (StepFunction((1.0, 2.0), (1e200, 1e-300)), StepFunction((1.0, 1e300), (1e200, 1e-200))):
            assert lorentz_norm(small, prm) == lorentz_norm(StepFunction((1.0,), (1e200,)), prm) == 1e200
        # an overflowing product v**q * part, not an OverflowError, is rescaled too
        assert lorentz_norm(StepFunction((1e200,), (1e150,)), prm) == pytest.approx(1e250, rel=1e-12)

    def test_underflowing_integral_is_rescaled(self):
        # v**2 underflows to 0, so the unscaled integral reads 0 for a
        # nonzero function; 1e-200 on (0, 1e300] has norm 1e-200 * 1e150
        # (abs=0: approx's default absolute slack would accept 0)
        prm = LorentzParams(2.0, 2.0)
        assert lorentz_norm(StepFunction((1.0,), (1e-170,)), prm) == pytest.approx(1e-170, rel=1e-12, abs=0.0)
        assert lorentz_norm(StepFunction((1e300,), (1e-200,)), prm) == pytest.approx(1e-50, rel=1e-12, abs=0.0)
        # a sub-normal integral keeps only a few bits: (1e-160)**2 = 1e-320
        assert lorentz_norm(StepFunction((1.0,), (1e-160,)), prm) == pytest.approx(1e-160, rel=1e-12, abs=0.0)
        # the rescaled path agrees with the direct one on scaled-up input
        f = StepFunction((0.5, 4.0), (3.0 * 2.0**-700, 2.0**-690))
        for prm in (LorentzParams(2.0, 2.0), LorentzParams(1.0, 3.0), LorentzParams(3.0, 1.5)):
            assert lorentz_norm(f, prm) == pytest.approx(
                math.ldexp(lorentz_norm(f.scale(2.0**700), prm), -700), rel=1e-12, abs=0.0
            )

    def test_norm_out_of_float_reach_raises(self):
        # the only integral underflows, or overflows although its term is 0.5
        for f in (StepFunction((1e-300,), (1e200,)), StepFunction((1e300,), (1e-300,))):
            with pytest.raises(ValueError, match="the Lorentz norm of f cannot be computed in floating point"):
                lorentz_norm(f, LorentzParams(1.0, 2.0))
        # at the scale of 1e200, (4e45)**2 falls below the normal range, yet
        # its term over (1, 1.5e308] is about 2.4e399, as large as 1e200**2
        with pytest.raises(ValueError, match="cannot be computed in floating point"):
            lorentz_norm(StepFunction((1.0, 1.5e308), (1e200, 4e45)), LorentzParams(2.0, 2.0))
        # hi / lo overflows on the second piece of each; anchored at hi, the
        # integral is finite
        f = StepFunction((1e-300, 1e20), (2.0, 1.0))
        assert lorentz_norm(f, LorentzParams(0.5, 1.0)) == pytest.approx(5e39, rel=1e-15, abs=0.0)
        f = StepFunction((1e-300, 1e60), (1e300, 1e-30))
        assert lorentz_norm(f, LorentzParams(1.0, 1.0)) == pytest.approx(1e30, rel=1e-15, abs=0.0)

    def test_norm_beyond_the_float_range_raises(self):
        with pytest.raises(ValueError, match="the Lorentz norm of f overflows the float range"):
            lorentz_norm(StepFunction((1e100,), (1e300,)), LorentzParams(2.0, 2.0))
        with pytest.raises(ValueError, match="the Lorentz norm of f overflows the float range"):
            lorentz_norm(StepFunction((1e10,), (1e300,)), LorentzParams(1.0, 1.0))  # 1e310 as a product
        # the integral over (2**-1000, 2**1000] overflows on its own: the norm is about 2**1999
        with pytest.raises(ValueError, match="the Lorentz norm of f overflows the float range"):
            lorentz_norm(StepFunction((2.0**-1000, 2.0**1000), (2.0, 1.0)), LorentzParams(0.5, 1.0))
        # the integral 1e100 * 1e200 is a float; its 1/q-th power, 1e600, is not
        with pytest.raises(ValueError, match="^the Lorentz norm of f overflows the float range$"):
            lorentz_norm(StepFunction((1e200,), (1e200,)), LorentzParams(0.5, 0.5))

    def test_matches_quadrature_oracle(self, small_corpus):
        for f in list(small_corpus)[:20]:
            for prm in (LorentzParams(2.0, 1.0), LorentzParams(0.5, 2.0), LorentzParams(3.0, 0.5)):
                assert lorentz_norm(f, prm) == pytest.approx(
                    quad_lorentz_norm(f, prm.p, prm.q), rel=1e-8
                )


class TestWeightedSup:
    """``_weighted_sup`` against the piece loop it replaces."""

    @given(st.data(), edge_step_functions())
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_to_the_piece_loop(self, data, f):
        try:
            fs = f.rearrange()
        except ValueError:  # the lengths sum past the largest float
            return
        lo, hi = data.draw(windows(fs))
        expo = data.draw(st.sampled_from([0.0, 0.5, 1.0, 2.0]))
        assert outcome(_weighted_sup, fs, expo, lo, hi) == outcome(loop_weighted_sup, fs, expo, lo, hi)

    def test_sup_norm_past_the_float_range(self):
        # lorentz_norm turns the OverflowError of b**(1/p) into a ValueError:
        # the norm 1e400 overflows; 1e-300 * (1e200)**2 = 1e100 does not,
        # but its weight does
        l_half_inf = LorentzParams(0.5, INF)
        with pytest.raises(ValueError, match="the Lorentz norm of f overflows the float range"):
            lorentz_norm(StepFunction((1e200,), (1.0,)), l_half_inf)
        with pytest.raises(ValueError, match="cannot be computed in floating point"):
            lorentz_norm(StepFunction((1e200,), (1e-300,)), l_half_inf)
        # a positive tail makes t**(1/p) f*(t) unbounded, whatever overflows first
        assert lorentz_norm(StepFunction((1.0, 1e250), (3.0, 2.0), 1.0), l_half_inf) == INF


class TestSpaceAxioms:
    @pytest.mark.parametrize("prm", NONTRIVIAL_GRID, ids=str)
    def test_homogeneity(self, prm, small_corpus):
        for f in list(small_corpus)[:10]:
            n = lorentz_norm(f, prm)
            for lam in (0.5, 3.0):
                scaled = lorentz_norm(f.scale(lam), prm)
                if n == INF:
                    assert scaled == INF
                else:
                    assert scaled == pytest.approx(lam * n, rel=1e-12)

    def test_homogeneity_bit_exact_for_l_p1(self, dyadic_corpus):
        # q = 1 norms are plain weighted sums; doubling scales them exactly
        prm = LorentzParams(2.0, 1.0)
        for f in list(dyadic_corpus)[:10]:
            assert lorentz_norm(f.scale(2.0), prm) == 2.0 * lorentz_norm(f, prm)

    @pytest.mark.parametrize("prm", NONTRIVIAL_GRID, ids=str)
    def test_lattice_property(self, prm, small_corpus):
        for f in list(small_corpus)[:10]:
            g = StepFunction(
                f.breakpoints,
                tuple(v * m for v, m in zip(f.values, itertools.cycle((1.0, 0.5, 0.25)))),
                f.tail * 0.5,
            )
            assert lorentz_norm(g, prm) <= lorentz_norm(f, prm) * (1.0 + 1e-12)

    @pytest.mark.parametrize("prm", NONTRIVIAL_GRID, ids=str)
    def test_fatou_along_truncations_finite(self, prm, small_corpus):
        for f in list(small_corpus)[:6]:
            n = lorentz_norm(f, prm)
            prev = 0.0
            for k in (1.0, 4.0, 16.0, 2.0**12):
                fk = f.minimum(k).restrict(k)
                nk = lorentz_norm(fk, prm)
                assert nk >= prev * (1.0 - 1e-12)
                assert nk <= n * (1.0 + 1e-12)
                prev = nk
            # tail-free corpus: truncation at 2**12 already reproduces f
            assert prev == pytest.approx(n, rel=1e-12)

    def test_fatou_along_truncations_infinite(self):
        f = StepFunction((1.0,), (4.0,), 1.0)  # positive tail: infinite L_2 norm
        prm = LorentzParams(2.0, 2.0)
        assert lorentz_norm(f, prm) == INF
        norms = [lorentz_norm(f.minimum(k).restrict(k), prm) for k in (2.0**j for j in range(1, 14))]
        assert all(a <= b * (1 + 1e-12) for a, b in zip(norms, norms[1:]))
        assert norms[-1] > 2.0**5  # grows without bound like sqrt(k)

    @pytest.mark.parametrize("prm", NONTRIVIAL_GRID, ids=str)
    def test_finite_measure_indicators_have_finite_norm(self, prm):
        for a, b in ((0.0, 1.0), (0.5, 2.0), (3.0, 1000.0)):
            assert lorentz_norm(StepFunction.indicator(a, b), prm) < INF

    def test_rearrangement_invariance_bit_exact(self, dyadic_corpus):
        # permuting dyadic pieces preserves all norms exactly
        for f in list(dyadic_corpus)[:15]:
            if len(f.values) < 2:
                continue
            lengths = [b - a for a, b, _ in f.pieces()][:-1]
            perm = list(reversed(range(len(lengths))))
            bps, acc = [], 0.0
            for i in perm:
                acc += lengths[i]
                bps.append(acc)
            g = StepFunction(tuple(bps), tuple(f.values[i] for i in perm), f.tail)
            assert g.rearrange() == f.rearrange()
            for prm in (LorentzParams(1.0, 1.0), LorentzParams(2.0, 0.5), LorentzParams(INF, INF)):
                assert lorentz_norm(f, prm) == lorentz_norm(g, prm)


class TestDilation:
    def test_exact_value(self):
        assert dilation_operator_norm(LorentzParams(2.0, 1.0), 4.0) == 0.5
        assert dilation_operator_norm(LorentzParams(2.0, 2.0), 4.0) == 0.5

    def test_identity_dilation(self):
        for prm in NONTRIVIAL_GRID:
            assert dilation_operator_norm(prm, 1.0) == 1.0

    def test_sup_norm_invariant(self):
        assert dilation_operator_norm(LorentzParams(INF, INF), 7.0) == 1.0

    def test_degenerate_space_rejected(self):
        with pytest.raises(ValueError):
            dilation_operator_norm(LorentzParams(INF, 2.0), 2.0)

    @pytest.mark.parametrize("a", [0.0, -1.0, math.nan, INF])
    def test_invalid_factor_rejected(self, a):
        with pytest.raises(ValueError, match=r"dilation factor must be in \(0, inf\)"):
            dilation_operator_norm(LorentzParams(2.0, 2.0), a)

    def test_estimate_matches_exact(self, small_corpus):
        for p, q in ((2.0, 2.0), (3.0, 1.0), (0.5, 1.0), (INF, INF)):
            space = SpaceDescriptor.for_lorentz(LorentzParams(p, q))
            for a in (0.25, 4.0, 100.0):
                est = estimate_dilation_norm(space, a, small_corpus)
                assert est == pytest.approx(dilation_operator_norm(space.params, a), rel=1e-10)

    def test_contraction_for_large_a(self, small_corpus):
        space = SpaceDescriptor.for_lorentz(LorentzParams(2.0, 1.0))
        for a in (1.0, 2.0, 10.0):
            assert estimate_dilation_norm(space, a, small_corpus) <= 1.0 + 1e-12

    def test_submultiplicative_on_grid(self, small_corpus):
        space = SpaceDescriptor.for_lorentz(LorentzParams(1.5, 3.0))
        grid = (0.5, 2.0, 8.0)
        est = {a: estimate_dilation_norm(space, a, small_corpus) for a in grid}
        for a in grid:
            for b in grid:
                ab = estimate_dilation_norm(space, a * b, small_corpus)
                assert ab <= est[a] * est[b] * (1.0 + 1e-12)

    def test_empty_corpus_rejected(self):
        space = SpaceDescriptor.for_lorentz(LorentzParams(2.0, 2.0))
        with pytest.raises(ValueError):
            estimate_dilation_norm(space, 2.0, [])

    def test_members_with_infinite_norm_are_skipped(self, unit_indicator):
        space = SpaceDescriptor.for_lorentz(LorentzParams(2.0, 2.0))
        positive_tail = StepFunction((1.0,), (2.0,), 1.0)  # its L(2,2) norm is infinite
        est = estimate_dilation_norm(space, 2.0, [positive_tail, unit_indicator])
        assert est == estimate_dilation_norm(space, 2.0, [unit_indicator])
        assert est == pytest.approx(2.0**-0.5, rel=1e-12)


class TestBoydIndices:
    S_GRID = [2.0, 2.0**5, 2.0**10, 2.0**20]

    def test_lorentz_indices_recovered(self, small_corpus):
        space = SpaceDescriptor.for_lorentz(LorentzParams(3.0, 1.0))
        lower, upper = estimate_boyd_indices(space, self.S_GRID, small_corpus)
        assert lower == pytest.approx(3.0, abs=0.05)
        assert upper == pytest.approx(3.0, abs=0.05)

    def test_sup_space_indices_infinite(self, small_corpus):
        space = SpaceDescriptor.for_lorentz(LorentzParams(INF, INF))
        assert estimate_boyd_indices(space, self.S_GRID, small_corpus) == (INF, INF)

    def test_ordering(self, small_corpus):
        for prm in (LorentzParams(0.5, 2.0), LorentzParams(2.0, 0.5)):
            space = SpaceDescriptor.for_lorentz(prm)
            lower, upper = estimate_boyd_indices(space, self.S_GRID, small_corpus)
            assert lower <= upper + 0.05

    def test_invalid_s_values(self, small_corpus):
        space = SpaceDescriptor.for_lorentz(LorentzParams(2.0, 2.0))
        with pytest.raises(ValueError):
            estimate_boyd_indices(space, [0.5, 2.0], small_corpus)


class TestAokiRolewicz:
    def test_normed_case(self):
        assert aoki_rolewicz_kappa(1.0) == 1.0

    def test_powers_of_two(self):
        assert aoki_rolewicz_kappa(2.0) == 0.5
        assert aoki_rolewicz_kappa(8.0) == 0.25

    def test_domain_error(self):
        with pytest.raises(ValueError):
            aoki_rolewicz_kappa(0.5)


class TestQuasiTriangle:
    def test_hilbert_case_is_normed(self):
        pairs = generate_pairs(3, 200)
        assert estimate_quasi_triangle_constant(LorentzParams(2.0, 2.0), pairs) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_lp_normed_for_p_at_least_one(self):
        pairs = generate_pairs(3, 200)
        for p in (1.0, 1.5):
            assert estimate_quasi_triangle_constant(LorentzParams(p, p), pairs) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_l1_half_estimate_in_range(self):
        pairs = generate_pairs(11, 500)
        c = estimate_quasi_triangle_constant(LorentzParams(1.0, 0.5), pairs)
        assert 1.0 <= c <= 2.0

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            estimate_quasi_triangle_constant(LorentzParams(2.0, 2.0), [])

    def test_pairs_with_a_zero_function_are_skipped(self):
        params = LorentzParams(1.0, 0.5)
        f, g = StepFunction((1.0,), (1.0,)), StepFunction((1.0, 2.0), (0.0, 1.0))
        c = estimate_quasi_triangle_constant(params, [(f, StepFunction.zero()), (f, g)])
        assert c == estimate_quasi_triangle_constant(params, [(f, g)]) > 1.0


class TestSpaceDescriptor:
    def test_lorentz_descriptor(self):
        d = SpaceDescriptor.for_lorentz(LorentzParams(2.0, 1.0))
        assert (d.boyd_lower, d.boyd_upper) == (2.0, 2.0)
        assert d.quasi_triangle_bound == 1.0  # 1 <= q <= p: an actual norm

    def test_quasi_norm_bound_exceeds_one(self):
        d = SpaceDescriptor.for_lorentz(LorentzParams(1.0, 0.5))
        assert d.quasi_triangle_bound >= 2.0
        assert aoki_rolewicz_kappa(d.quasi_triangle_bound) <= 0.5

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            SpaceDescriptor.for_lorentz(LorentzParams(INF, 1.0))

    def test_invalid_indices_rejected(self):
        with pytest.raises(ValueError):
            SpaceDescriptor(LorentzParams(2.0, 2.0), 3.0, 2.0, 1.0)

    @pytest.mark.parametrize("bound", [0.5, math.nan])
    def test_invalid_quasi_triangle_bound_rejected(self, bound):
        with pytest.raises(ValueError, match="quasi-triangle bound must be >= 1"):
            SpaceDescriptor(LorentzParams(2.0, 2.0), 2.0, 2.0, bound)
