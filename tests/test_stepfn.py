"""Step-function calculus: construction, rearrangement, algebra, exact integrals."""

from __future__ import annotations

import json
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rinorms import INF, StepFunction, power_integral, weighted_power_integral
from rinorms.stepfn import _LEVEL_SET_ARRAY_MIN, _json_number

from conftest import (
    edge_step_functions,
    excess,
    in_fresh_process,
    loop_canonical,
    loop_sorted_above_tail,
    loop_weighted_power_integral,
    outcome,
    quad_weighted_power,
    windows,
)


def dyadic_steps(max_pieces: int = 5):
    """Strategy: step functions on a dyadic grid, where float sums are exact."""

    @st.composite
    def build(draw):
        n = draw(st.integers(0, max_pieces))
        bps = draw(
            st.lists(st.integers(1, 4096), min_size=n, max_size=n, unique=True)
        )
        vals = draw(st.lists(st.integers(0, 512), min_size=n, max_size=n))
        tail = draw(st.sampled_from([0, 0, 0, 1, 7]))
        return StepFunction(
            tuple(b / 256.0 for b in sorted(bps)),
            tuple(v / 64.0 for v in vals),
            tail / 64.0,
        )

    return build()


def _outcome(build):
    """The fields ``build()`` returns, with 0.0/-0.0 and NaN told apart, or
    the type and message of what it raises."""
    try:
        return repr(build())
    except (TypeError, ValueError, OverflowError) as e:
        return type(e), str(e)


def _fields(f: StepFunction) -> tuple:
    return f.breakpoints, f.values, f.tail


def _assert_matches_reference(args) -> None:
    assert _outcome(lambda: _fields(StepFunction(*args))) == _outcome(
        lambda: loop_canonical(*args)
    )


_GOOD = [0.0, -0.0, 0.5, 1.0, 2.0, 3]
_BAD = [-1.0, math.nan, math.inf, -math.inf]


@st.composite
def raw_fields(draw):
    """Constructor arguments: runs of equal values, trailing runs equal to the
    tail, -0.0, and NaN/inf/negative entries at random positions."""
    n = draw(st.integers(0, 8))
    widths = draw(st.lists(st.sampled_from([0.25, 0.5, 1.0, 3.0]), min_size=n, max_size=n))
    bps = [float(b) for b in np.cumsum(widths)]
    tail = draw(st.sampled_from(_GOOD))
    vals = draw(st.lists(st.sampled_from(_GOOD + [tail] * 3), min_size=n, max_size=n))
    for seq, bad in ((bps, _BAD + [0.0, "dup"]), (vals, _BAD)):
        for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2])) if seq else 0):
            i = draw(st.integers(0, len(seq) - 1))
            b = draw(st.sampled_from(bad))
            seq[i] = seq[i - 1] if b == "dup" else b
    if draw(st.integers(0, 5)) == 0:
        tail = draw(st.sampled_from(_BAD))
    if draw(st.integers(0, 7)) == 0:
        vals = vals + [1.0] if draw(st.booleans()) else vals[:-1]
    return tuple(bps), tuple(vals), tail


class TestConstruction:
    @given(raw_fields())
    @settings(max_examples=400, deadline=None)
    def test_matches_loop_reference(self, args):
        _assert_matches_reference(args)

    @given(
        st.lists(st.floats(), max_size=6),
        st.lists(st.floats(), max_size=6),
        st.floats(),
        st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_loop_reference_on_any_floats(self, bps, vals, tail, sort):
        args = (tuple(sorted(bps) if sort else bps), tuple(vals), tail)
        _assert_matches_reference(args)

    @pytest.mark.parametrize(
        "args",
        [
            ((1.0, "x"), (1.0, 2.0), 0.0),
            ((1.0, None, math.nan), (1.0, 2.0, 3.0), 0.0),
            ((math.nan, None), (1.0, 2.0), 0.0),
            ((1.0,), ("1.5",), 0.0),
            ((1.0,), (1.0,), None),
            (3, (1.0,), 0.0),
            ((1.0,), (10**400,), 0.0),
            ((1.0, 2.0, 3.0), (1.0, math.inf, -1.0), 0.0),  # first bad value named
            ((1.0, 2.0), (-0.0, 0.0), -0.0),
        ],
    )
    def test_edge_cases_match_loop_reference(self, args):
        _assert_matches_reference(args)


    def test_canonical_merges_adjacent_equal_values(self):
        f = StepFunction((1.0, 2.0, 3.0), (2.0, 2.0, 1.0))
        assert f == StepFunction((2.0, 3.0), (2.0, 1.0))

    def test_canonical_absorbs_trailing_tail_values(self):
        f = StepFunction((1.0, 2.0), (3.0, 0.5), 0.5)
        assert f == StepFunction((1.0,), (3.0,), 0.5)

    def test_zero_function(self):
        assert StepFunction.zero().is_zero
        assert StepFunction((1.0,), (0.0,), 0.0).is_zero

    @pytest.mark.parametrize(
        "bps,vals,tail",
        [
            ((2.0, 1.0), (1.0, 1.0), 0.0),  # not increasing
            ((0.0,), (1.0,), 0.0),  # breakpoint at 0
            ((1.0,), (-1.0,), 0.0),  # negative value
            ((1.0,), (1.0,), -0.5),  # negative tail
            ((1.0,), (math.nan,), 0.0),
            ((math.inf,), (1.0,), 0.0),
        ],
    )
    def test_invalid_inputs_rejected(self, bps, vals, tail):
        with pytest.raises(ValueError):
            StepFunction(bps, vals, tail)

    def test_value_count_mismatch(self):
        with pytest.raises(ValueError):
            StepFunction((1.0, 2.0), (1.0,))


class TestEvaluate:
    def test_indicator_inside(self, unit_indicator):
        assert unit_indicator(0.5) == 1.0

    def test_indicator_outside(self, unit_indicator):
        assert unit_indicator(2.0) == 0.0

    def test_piece_lookup(self):
        f = StepFunction((1.0, 2.0), (1.0, 3.0))
        assert f(1.5) == 3.0
        assert f(1.0) == 1.0  # pieces are half-open (lo, hi]
        g = StepFunction((1.0, 2.0, 4.0), (5.0, 1.0, 3.0), 0.5)
        ts = np.array([0.25, 1.0, 1.5, 2.0, np.nextafter(2.0, 3.0), 4.0, 9.0])
        out = g(ts)
        assert isinstance(out, np.ndarray)
        assert out.tolist() == [g(t) for t in ts]  # breakpoints included
        assert out.tolist() == [5.0, 5.0, 1.0, 1.0, 3.0, 3.0, 0.5]
        assert StepFunction.constant(2.0)(ts).tolist() == [2.0] * ts.size

    def test_rejects_nonpositive_argument(self, unit_indicator):
        for t in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                unit_indicator(t)
            with pytest.raises(ValueError):
                unit_indicator(np.array([0.5, t, 2.0]))


class TestDistribution:
    def test_indicator_levels(self, unit_indicator):
        assert unit_indicator.distribution(0.5) == 1.0
        assert unit_indicator.distribution(1.0) == 0.0

    def test_positive_tail_gives_infinite_measure(self):
        f = StepFunction((1.0,), (5.0,), 2.0)
        assert f.distribution(1.0) == INF
        assert f.distribution(2.0) == 1.0
        assert f.distribution(5.0) == 0.0

    def test_negative_level_rejected(self, unit_indicator):
        with pytest.raises(ValueError):
            unit_indicator.distribution(-1.0)


class TestRearrange:
    def test_sorts_pieces_by_value(self):
        f = StepFunction((1.0, 2.0), (1.0, 3.0))
        assert f.rearrange() == StepFunction((1.0, 2.0), (3.0, 1.0))

    def test_identity_on_nonincreasing(self):
        f = StepFunction((1.0, 2.0), (3.0, 1.0), 0.5)
        assert f.rearrange() is f

    def test_tail_dominates_small_pieces(self):
        f = StepFunction((1.0,), (5.0,), 2.0)
        fs = f.rearrange()
        assert fs == StepFunction((1.0,), (5.0,), 2.0)
        for lam in (0.0, 1.0, 2.0, 3.0, 5.0, 6.0):
            assert f.distribution(lam) == fs.distribution(lam)

    def test_equal_values_merge(self):
        f = StepFunction((1.0, 2.0, 3.0), (1.0, 3.0, 1.0))
        assert f.rearrange() == StepFunction((1.0, 3.0), (3.0, 1.0))

    def test_level_set_lost_to_rounding_adds_no_piece(self):
        # the value-1 piece is 2**-58 long and vanishes when added to the
        # value-2 piece's length 1; keeping it would repeat the breakpoint 1.0
        f = StepFunction((2.0**-6, 2.0**-6 + 2.0**-58, 3.0, 4.0), (0.0, 1.0, 0.0, 2.0))
        fs = f.rearrange()
        assert fs == StepFunction((1.0,), (2.0,))
        for lam in (0.0, 0.5, 1.0, 1.5, 2.0):
            assert f.distribution(lam) == fs.distribution(lam)

    def test_overflowing_total_length_raises_as_validation(self):
        # the lengths of the value-1 pieces sum past the largest float
        f = StepFunction(
            (5.0290436835405955e306, 8.236073572984123e307, sys.float_info.max), (1.0, 3.0, 1.0)
        )
        with pytest.raises(ValueError) as got:
            f.rearrange()
        with pytest.raises(ValueError) as validated:
            StepFunction((7.733169204630063e307, math.inf), (3.0, 1.0))
        assert str(got.value) == str(validated.value)

    def test_output_equals_validated_construction(self, small_corpus, dyadic_corpus):
        lost = StepFunction((2.0**-6, 2.0**-6 + 2.0**-58, 3.0, 4.0), (0.0, 1.0, 0.0, 2.0))
        for f in [lost, *small_corpus, *dyadic_corpus]:
            fs = f.rearrange()
            assert repr(_fields(fs)) == repr(_fields(StepFunction(*_fields(fs))))

    @given(raw_fields())
    @settings(max_examples=300, deadline=None)
    def test_output_equals_validated_construction_property(self, args):
        try:
            f = StepFunction(*args)
        except ValueError:
            return
        for g in (f, f + f.dilate(3.0)):
            fs = g.rearrange()
            assert repr(_fields(fs)) == repr(_fields(StepFunction(*_fields(fs))))

    def test_distribution_equality_is_bit_exact(self, small_corpus):
        for f in small_corpus:
            fs = f.rearrange()
            levels = {0.0, f.tail, *f.values}
            levels.update(0.5 * (a + b) for a, b in zip(sorted(levels), sorted(levels)[1:]))
            for lam in levels:
                assert f.distribution(lam) == fs.distribution(lam)

    def test_idempotent_exactly(self, small_corpus):
        for f in small_corpus:
            fs = f.rearrange()
            assert fs.rearrange() == fs
            assert fs.is_nonincreasing()

    @given(st.one_of(dyadic_steps(), edge_step_functions(max_pieces=60)))
    @settings(max_examples=200, deadline=None)
    def test_is_nonincreasing_is_the_elementwise_test(self, f):
        seq = f.values + (f.tail,)
        assert f.is_nonincreasing() == all(a >= b for a, b in zip(seq, seq[1:]))

    @given(st.one_of(dyadic_steps(), edge_step_functions(max_pieces=60)))
    @settings(max_examples=200, deadline=None)
    def test_max_value_is_that_of_the_rearrangement(self, f):
        try:
            fs = f.rearrange()
        except ValueError:  # the lengths sum past the largest float
            return
        assert f.max_value() == fs.max_value()

    def test_dilation_anticommutes_at_grid(self, small_corpus):
        # f*(a t) <= f*(t) for a >= 1 at sample points
        for f in list(small_corpus)[:20]:
            fs = f.rearrange()
            for t in np.geomspace(1e-3, 1e3, 25):
                assert fs(2.0 * t) <= fs(t)


@st.composite
def level_set_cases(draw):
    """Functions on both sides of the array level-set piece count: repeated
    values, values at or below a positive tail, and breakpoints from 2**-60
    to 2**8, so short pieces near 0 lose their length when added after
    long ones."""
    n = draw(st.sampled_from([1, 12, _LEVEL_SET_ARRAY_MIN - 1, _LEVEL_SET_ARRAY_MIN, 1000]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bps = np.unique(2.0 ** rng.uniform(-60.0, 8.0, n))
    pool = 2.0 ** rng.uniform(-8.0, 8.0, draw(st.sampled_from([1, 3, 8, n])))
    vals = pool[rng.integers(0, pool.size, bps.size)]
    tail = float(pool[rng.integers(0, pool.size)]) if draw(st.booleans()) else 0.0
    return StepFunction(tuple(bps.tolist()), tuple(vals.tolist()), tail)


class TestLevelSets:
    """``_sorted_above_tail`` against the dict loop, on both sides of the piece count."""

    @given(level_set_cases())
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_to_the_dict_loop(self, f):
        assert repr(f._sorted_above_tail()) == repr(loop_sorted_above_tail(f))

    def test_level_set_lost_to_rounding_past_the_array_piece_count(self):
        # the lost-length case of TestRearrange, padded with alternating
        # pieces of value 0 and 2 past 4.0
        pad = range(1, 2 * _LEVEL_SET_ARRAY_MIN)
        f = StepFunction(
            (2.0**-6, 2.0**-6 + 2.0**-58, 3.0, 4.0, *(4.0 + k for k in pad)),
            (0.0, 1.0, 0.0, 2.0, *(2.0 * (k % 2) for k in pad)),
        )
        assert len(f.values) >= _LEVEL_SET_ARRAY_MIN
        assert repr(f._sorted_above_tail()) == repr(loop_sorted_above_tail(f))
        fs = f.rearrange()
        assert fs == StepFunction((_LEVEL_SET_ARRAY_MIN + 1.0,), (2.0,))
        for lam in (0.0, 0.5, 1.0, 1.5, 2.0):
            assert f.distribution(lam) == fs.distribution(lam)

    @pytest.mark.parametrize("seed", range(4))
    def test_distribution_of_a_shuffled_function_matches_its_rearrangement(self, seed):
        # ten levels of about 100 pieces each, with lengths at every scale
        # from 2**-30 up, so the order of the additions shows in the sums
        rng = np.random.default_rng(seed)
        bps = np.unique(2.0 ** rng.uniform(-30.0, 8.0, 1000))
        vals = rng.permutation(np.repeat(2.0 ** rng.uniform(-8.0, 8.0, 10), 100))[: bps.size]
        f = StepFunction(tuple(bps.tolist()), tuple(vals.tolist()), float(vals.min()) / 2.0)
        fs = f.rearrange()
        assert len(f.values) >= _LEVEL_SET_ARRAY_MIN and fs.breakpoints
        assert repr(f._sorted_above_tail()) == repr(loop_sorted_above_tail(f))
        levels = sorted({0.0, f.tail, *f.values})
        levels += [0.5 * (a + b) for a, b in zip(levels, levels[1:])]
        for lam in levels:
            assert repr(f.distribution(lam)) == repr(fs.distribution(lam))


class TestDilate:
    def test_indicator(self, unit_indicator):
        assert unit_indicator.dilate(2.0) == StepFunction.indicator(0.0, 0.5)

    def test_identity(self, small_corpus):
        for f in small_corpus:
            assert f.dilate(1.0) == f

    def test_rejects_bad_factor(self, unit_indicator):
        for a in (0.0, -2.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                unit_indicator.dilate(a)

    @pytest.mark.parametrize(
        "f,a",
        [
            (StepFunction.indicator(1e10, 2e10), 1e-300),  # overflow to inf
            (StepFunction.indicator(1e-30, 2e-30), 1e300),  # underflow to 0
            (StepFunction.indicator(2e-323, 2.5e-323), 2.0),  # subnormals collapse
        ],
    )
    def test_out_of_float_range_names_factor(self, f, a):
        with pytest.raises(ValueError) as e:
            f.dilate(a)
        assert str(e.value).startswith(f"dilation factor {a} takes breakpoints in [")
        assert "out of the float range" in str(e.value)

    def test_commutes_with_rearrangement_exactly_for_pow2(self, small_corpus):
        # powers of two scale breakpoints without rounding, so the identity
        # D_a f* = (D_a f)* holds bit for bit
        for f in small_corpus:
            for a in (0.25, 2.0, 64.0):
                assert f.dilate(a).rearrange() == f.rearrange().dilate(a)

    @given(dyadic_steps(), st.floats(0.1, 10.0, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_commutes_with_rearrangement_approximately(self, f, a):
        left = f.dilate(a).rearrange()
        right = f.rearrange().dilate(a)
        assert left.values == right.values
        assert left.tail == right.tail
        for x, y in zip(left.breakpoints, right.breakpoints):
            assert x == pytest.approx(y, rel=1e-12)


class TestAlgebra:
    def test_add_overlapping_indicators(self, unit_indicator):
        g = StepFunction.indicator(0.0, 2.0)
        assert unit_indicator + g == StepFunction((1.0, 2.0), (2.0, 1.0))

    def test_scale_to_zero(self, small_corpus):
        for f in small_corpus:
            assert f.scale(0.0).is_zero

    def test_minimum_and_excess_decompose(self, small_corpus):
        # f = min(f, lam) + (f - lam)_+ exactly, for lam at a piece value
        for f in list(small_corpus)[:20]:
            lam = max(f.values)
            assert f.minimum(lam) + excess(f, lam) == f

    def test_restrict(self):
        f = StepFunction((1.0,), (2.0,), 1.0)
        assert f.restrict(3.0) == StepFunction((1.0, 3.0), (2.0, 1.0), 0.0)

    @given(dyadic_steps(), dyadic_steps())
    @settings(max_examples=60, deadline=None)
    def test_add_matches_pointwise_evaluation(self, f, g):
        h = f + g
        for t in (1e-3, 0.5, 1.0, 7.0 / 256.0, 3.0, 4096.0):
            assert h(t) == f(t) + g(t)


class TestWeightedPowerIntegral:
    def test_square_root_weight(self, unit_indicator):
        # quadrature oracle value for int_0^1 t**(-1/2) dt is 2
        oracle = quad_weighted_power(unit_indicator, 0.5, 1.0, 0.0, 1.0)
        assert oracle == pytest.approx(2.0, rel=1e-12)
        assert weighted_power_integral(unit_indicator, 0.5, 1.0, 0.0, 1.0) == pytest.approx(
            oracle, rel=1e-12
        )

    def test_log_divergence_at_zero(self, unit_indicator):
        assert weighted_power_integral(unit_indicator, 0.0, 1.0, 0.0, 1.0) == INF

    def test_zero_function(self):
        assert weighted_power_integral(StepFunction.zero(), 0.5, 1.0) == 0.0

    def test_positive_tail_diverges(self):
        f = StepFunction((1.0,), (1.0,), 0.5)
        assert weighted_power_integral(f, 1.0, 1.0) == INF

    def test_zero_pieces_never_poison_divergent_windows(self):
        f = StepFunction.indicator(1.0, 2.0)  # vanishes near 0
        assert weighted_power_integral(f, -1.0, 1.0) == pytest.approx(0.5, rel=1e-12)

    def test_matches_quadrature_on_corpus(self, small_corpus):
        for f in list(small_corpus)[:25]:
            top = f.rearrange().breakpoints[-1]
            for gamma, w in ((1.0, 1.0), (0.5, 2.0), (1.5, 0.5)):
                exact = weighted_power_integral(f, gamma, w, 0.0, top)
                oracle = quad_weighted_power(f, gamma, w, 0.0, top)
                assert exact == pytest.approx(oracle, rel=1e-10)

    def test_invalid_ranges(self, unit_indicator):
        with pytest.raises(ValueError):
            weighted_power_integral(unit_indicator, 1.0, 1.0, 2.0, 1.0)
        with pytest.raises(ValueError):
            weighted_power_integral(unit_indicator, 1.0, 0.0)


class TestPieceIterator:
    """``weighted_power_integral`` against the piece loop it replaces."""

    @given(st.data(), edge_step_functions())
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_to_the_piece_loop(self, data, f):
        a, b = data.draw(windows(f))
        gamma = data.draw(st.sampled_from([-2.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.5]))
        w = data.draw(st.sampled_from([0.5, 1.0, 2.0, 3.0]))
        for g in (f, f.scale(0.5)):
            assert outcome(weighted_power_integral, g, gamma, w, a, b) == outcome(
                loop_weighted_power_integral, g, gamma, w, a, b
            )

    def test_first_infinite_part_hides_later_overflows(self):
        # the head diverges for gamma <= 0; (1e-200)**-2 would overflow
        f = StepFunction((1e-200, 1.0), (1.0, 2.0))
        assert weighted_power_integral(f, -2.0, 1.0) == INF
        assert loop_weighted_power_integral(f, -2.0, 1.0) == INF

    @pytest.mark.parametrize(
        "f, gamma, w",
        [
            (StepFunction((1.0, 1e200, 2e200), (0.0, 1.0, 3.0)), 2.0, 1.0),  # expm1 overflows
            (StepFunction((1.0, 2.0), (3.0, 1e200)), 1.0, 2.0),  # (1e200)**2 overflows
            (StepFunction((1e150, 2e200), (1.0, 3.0)), 2.5, 1.0),  # (1e150)**2.5 overflows
        ],
    )
    def test_overflow_raises_where_the_loop_raises(self, f, gamma, w):
        want = outcome(loop_weighted_power_integral, f, gamma, w, 0.0, INF)
        assert want.startswith("OverflowError")
        assert outcome(weighted_power_integral, f, gamma, w) == want


class TestPowerIntegral:
    @pytest.mark.parametrize(
        "alpha,lo,hi,expected",
        [
            (1.0, 0.0, 2.0, 2.0),
            (2.0, 1.0, 3.0, 4.0),
            (0.0, 1.0, math.e, 1.0),
            (-1.0, 2.0, INF, 0.5),
            (0.0, 0.0, 1.0, INF),
            (1.0, 1.0, INF, INF),
            (0.5, 0.5, 0.5, 0.0),
            # hi / lo passes the largest float
            (1.0, 1e-300, 1e60, 1e60),
            (0.0, 1e-300, 1e60, 360.0 * math.log(10.0)),
            (-1.0, 1e-300, 1e60, 1e300),
        ],
    )
    def test_values(self, alpha, lo, hi, expected):
        assert power_integral(alpha, lo, hi) == pytest.approx(expected, rel=1e-12)

    def test_narrow_interval_precision(self):
        # ((1+eps)**3 - 1)/3 ~ eps; the expm1 form keeps the cancellation benign
        lo, hi = 1.0, 1.0 + 1e-9
        assert power_integral(3.0, lo, hi) == pytest.approx(1e-9, rel=1e-6)


class TestJson:
    def test_round_trip(self, small_corpus):
        for f in small_corpus:
            assert StepFunction.from_json(f.to_json()) == f

    def test_format_fields(self, unit_indicator):
        d = json.loads(unit_indicator.to_json())
        assert d == {"breakpoints": [1.0], "values": [1.0], "tail": 0.0}

    @pytest.mark.parametrize(
        "payload",
        [
            "not json",
            '{"breakpoints": [2, 1], "values": [1, 1], "tail": 0}',
            '{"breakpoints": [1], "values": [-1], "tail": 0}',
            '{"breakpoints": [1], "values": [1], "tail": 0, "bogus": 1}',
            '{"breakpoints": 3, "values": [1], "tail": 0}',
            '{"breakpoints": [null], "values": [1], "tail": 0}',
            '{"breakpoints": [1, [2]], "values": [1, 1], "tail": 0}',
            '{"breakpoints": [1], "values": [{}], "tail": 0}',
            '{"breakpoints": [1], "values": [true], "tail": 0}',
            '{"breakpoints": [1], "values": ["1"], "tail": 0}',
            '{"breakpoints": [1], "values": [1], "tail": null}',
            '{"breakpoints": [1], "values": [1], "tail": [0]}',
            '{"breakpoints": [1], "values": [1], "tail": false}',
            '{"breakpoints": [1], "values": [1e999], "tail": 0}',
        ],
    )
    def test_invalid_payloads(self, payload):
        with pytest.raises(ValueError):
            StepFunction.from_json(payload)

    @pytest.mark.parametrize(
        "payload,message",
        [
            ('{"breakpoints": [1, null], "values": [1, 2]}', "breakpoints[1] must be a number, got null"),
            ('{"breakpoints": [1], "values": [[1]]}', "values[0] must be a number, got [1]"),
            ('{"breakpoints": [1], "values": [1], "tail": true}', "tail must be a number, got true"),
            ('{"breakpoints": [1' + "0" * 400 + '], "values": [1]}', "breakpoints[0] is out of the float range"),
        ],
        ids=["null", "array", "bool", "huge-int"],
    )
    def test_non_numbers_named_by_field_and_index(self, payload, message):
        with pytest.raises(ValueError) as e:
            StepFunction.from_json(payload)
        assert str(e.value) == message


# one-entry faults: each sets a drawn entry of a drawn field to one of these
_ENTRY_FAULTS = {
    "nan": [math.nan],
    "infinity": [math.inf, -math.inf],
    "negative": [-1.0, -2.0**-1074],
    "bool": [True, False],
    "string": ["1.0"],
    "null": [None],
    "int": [0, 3],  # a valid entry, through the mixed-type path
    "huge-int": [10**400],
}
# the other faults; the last three are valid, merged or absorbed
_SHAPE_FAULTS = ["none", "length", "zero-breakpoint", "non-increasing", "equal-neighbours", "signed-zeros", "last-is-tail"]


@st.composite
def large_function_texts(draw, fault: str):
    """JSON of a valid canonical function of ``_LEVEL_SET_ARRAY_MIN`` pieces
    or more, with ``fault`` injected at a drawn index."""
    n = draw(st.integers(_LEVEL_SET_ARRAY_MIN, _LEVEL_SET_ARRAY_MIN + 50))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bps = np.cumsum(rng.uniform(2.0**-10, 2.0**-2, n)).tolist()
    vals = np.exp(rng.uniform(-6.0, 6.0, n)).tolist()
    if draw(st.booleans()):
        vals.sort(reverse=True)
    d = {"breakpoints": bps, "values": vals, "tail": draw(st.sampled_from([0.0, -0.0, min(vals) / 2]))}
    i = draw(st.sampled_from([0, n - 1]) | st.integers(0, n - 1))
    if fault in _ENTRY_FAULTS:
        entry = draw(st.sampled_from(_ENTRY_FAULTS[fault]))
        field = draw(st.sampled_from(["breakpoints", "values", "tail"]))
        if field == "tail":
            d["tail"] = entry
        else:
            d[field][i] = entry
    elif fault == "length":
        d[draw(st.sampled_from(["breakpoints", "values"]))].pop(i)
    elif fault == "zero-breakpoint":
        bps[0] = draw(st.sampled_from([0.0, -0.0]))
    elif fault == "non-increasing":
        i = max(i, 1)
        bps[i] = draw(st.sampled_from([bps[i - 1], bps[i - 1] / 2]))
    elif fault == "equal-neighbours":
        i = max(i, 1)
        vals[i] = vals[i - 1]
    elif fault == "signed-zeros":
        i = max(i, 1)
        vals[i - 1], vals[i] = 0.0, -0.0
    elif fault == "last-is-tail":
        vals[-1] = d["tail"]
    return json.dumps(d)


def _elementwise_from_json(text: str) -> tuple:
    """The fields of a function file, each entry converted and checked on its own."""
    d = json.loads(text)
    bps, vals = ([_json_number(x, f"{k}[{i}]") for i, x in enumerate(d[k])] for k in ("breakpoints", "values"))
    return loop_canonical(bps, vals, _json_number(d["tail"], "tail"))


class TestJsonBulkValidation:
    """Large function files are checked in bulk; whatever the bulk check
    refuses goes through the constructor, so the stored fields and the
    error messages are those of an entry-by-entry load."""

    @pytest.mark.parametrize("fault", [*_ENTRY_FAULTS, *_SHAPE_FAULTS])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_the_elementwise_reference(self, fault, data):
        text = data.draw(large_function_texts(fault))
        assert _outcome(lambda: _fields(StepFunction.from_json(text))) == _outcome(
            lambda: _elementwise_from_json(text)
        )


def _stdlib_from_json(text: str) -> StepFunction:
    """``from_json`` as it reads with the stdlib decoder alone."""
    try:
        d = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(f"malformed step function JSON: {e}") from e
    return StepFunction.from_dict(d)


_MAX_DIGITS_INT = 10**309 - 1
# integers orjson reads as floats (past the 64-bit range) and the edges of that range
_BIG_INTS = st.sampled_from([2**63, 2**64, -(2**63), -(2**64)]).flatmap(lambda b: st.integers(b - 3, b + 3))
_POSITIVE = st.one_of(
    st.integers(1, 2**64 + 3),
    st.integers(1, _MAX_DIGITS_INT),
    st.floats(min_value=2.0**-1074, max_value=2.0**-1022),  # subnormals
    st.floats(min_value=2.0**-1074, allow_infinity=False),
)


_NUMBER_TOKENS = st.one_of(
    (_BIG_INTS | st.integers(-_MAX_DIGITS_INT, _MAX_DIGITS_INT) | st.integers(-10, 10)).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.builds(  # 25-digit mantissas, some past the float range either way
        lambda sign, digits, exp: f"{sign}{digits[0]}.{digits[1:]}e{exp}",
        st.sampled_from(["", "-"]),
        st.text("0123456789", min_size=25, max_size=25),
        st.integers(-345, 330),
    ),
    st.sampled_from(
        ["-0", "-0.0", "0", "NaN", "Infinity", "-Infinity", "1e999", "-1e999", "1e-400", "1" + "0" * 400]
    ),
)
_OTHER_TOKENS = st.sampled_from(
    ["null", "true", '"1.0"', '"\\ud800"', '"\ud800"', "[18446744073709551616]", "[-0]", '{"a": 1e999}']
)
_ENTRIES = _NUMBER_TOKENS | _OTHER_TOKENS


@st.composite
def function_texts(draw):
    """JSON texts of step functions, valid or not, that the two decoders may
    read differently: big and out-of-range numbers, non-standard constants,
    lone surrogates, a BOM, trailing data and duplicate keys."""
    if draw(st.booleans()):  # valid fields, up to float rounding of the breakpoints
        bps = sorted(draw(st.lists(_POSITIVE, max_size=6, unique=True)))
        n = len(bps)
        vals = draw(st.lists(_POSITIVE | st.just(0), min_size=n, max_size=n))
        bps, vals, tail = map(repr, bps), map(repr, vals), repr(draw(_POSITIVE | st.just(0)))
    else:
        bps, vals, tail = draw(st.lists(_ENTRIES, max_size=5)), draw(st.lists(_ENTRIES, max_size=5)), draw(_ENTRIES)
    fields = [("breakpoints", f"[{', '.join(bps)}]"), ("values", f"[{', '.join(vals)}]"), ("tail", tail)]
    if draw(st.booleans()):
        fields.append(("tail", draw(_NUMBER_TOKENS)))
    fields = draw(st.permutations(fields))[draw(st.sampled_from([0, 0, 1, 2])) :]
    text = "{" + ", ".join(f'"{k}": {v}' for k, v in fields) + "}"
    prefix = draw(st.just("") | st.sampled_from(["\ufeff", " \n"]))
    return prefix + text + draw(st.just("") | st.sampled_from(["\n", " x", "{}", ",1"]))


class TestJsonDecoders:
    """``from_json`` decodes with orjson and leaves what orjson or the field
    checks refuse to the stdlib decoder, so it stores the fields and raises
    the messages of a stdlib-only decode."""

    @given(text=function_texts())
    @example(text=f'{{"breakpoints": [1, {2**64 + 1}, {10**308 + 1}], "values": [{2**63 + 1}, 2, 1]}}')
    @example(text=f'{{"values": [], "tail": [{2**64}]}}')  # message quotes the integer's digits
    @settings(max_examples=600, deadline=None)
    def test_matches_the_stdlib_decoder(self, text):
        assert _outcome(lambda: _fields(StepFunction.from_json(text))) == _outcome(
            lambda: _fields(_stdlib_from_json(text))
        )

    @pytest.mark.parametrize("opening, closing", [("[", "]"), ('{"a": ', "}")])
    def test_deep_nesting_raises_as_the_stdlib_does(self, opening, closing):
        # a text nested 200,000 deep overflows the C stack of orjson 3.8.3
        code = (
            "from rinorms import StepFunction\n"
            f"text = {opening!r} * 200_000 + '1' + {closing!r} * 200_000\n"
            "try:\n"
            "    StepFunction.from_json(text)\n"
            "except ValueError as e:\n"
            "    print(e)\n"
        )
        kind = "array" if opening == "[" else "object"
        assert in_fresh_process(code).startswith(
            f"malformed step function JSON: maximum recursion depth exceeded while decoding a JSON {kind}"
        )

    @pytest.mark.parametrize(
        "text",
        ["[" * 100_000 + "]" * 100_000, '{"breakpoints": ' + "[" * 5_000 + "]" * 5_000 + ', "values": []}'],
        ids=["top-level", "in-breakpoints"],
    )
    def test_deep_nesting_is_a_malformed_text(self, text):
        with pytest.raises(ValueError, match="malformed step function JSON: maximum recursion depth"):
            StepFunction.from_json(text)

    def test_orjson_is_imported_only_to_decode(self):
        code = (
            "import os, sys\n"
            "import rinorms\n"
            "from rinorms.cli import main\n"
            "seen = ['orjson' in sys.modules]\n"
            "main(['verify', 'kprops', '--seed', '7', '--corpus-size', '12', '--output', os.devnull])\n"
            "seen.append('orjson' in sys.modules)\n"
            "rinorms.StepFunction.from_json('{}')\n"
            "print(seen, 'orjson' in sys.modules)\n"
        )
        assert in_fresh_process(code) == "[False, False] True\n"


class TestConcurrencySafety:
    def test_operations_do_not_mutate(self, unit_indicator):
        before = unit_indicator.to_json()
        unit_indicator.rearrange()
        unit_indicator.dilate(2.0)
        unit_indicator + unit_indicator
        unit_indicator.scale(3.0)
        assert unit_indicator.to_json() == before
