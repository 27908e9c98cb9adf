"""Hardy averaging operators: closed forms, envelope bracketing, norm enclosures."""

from __future__ import annotations

import dataclasses
import functools
import gc
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rinorms import (
    INF,
    Enclosure,
    GridSpec,
    LorentzParams,
    SpaceDescriptor,
    StepFunction,
    envelope_norm,
    functor_norm,
    hardy_lower,
    hardy_upper,
    predicted_bounded,
    weighted_power_integral,
)
from rinorms import generate_corpus
from rinorms.hardy import (
    _MAX_WINDOW_POINTS,
    _NORM_OVERFLOW,
    DEFAULT_GRID,
    PowerLaw,
    _add_block,
    _Block,
    _lower_block,
    _norm_block,
    _Pieces,
    _scale_block,
    _upper_block,
)
from rinorms.interp import FunctorParams, LorentzCouple, _functor_block

from conftest import (
    edge_step_functions,
    envelope_lower,
    envelope_upper,
    ref_add_envelopes,
    ref_envelope_norm,
    ref_functor_norm,
    ref_grid,
    ref_hardy_lower,
    ref_hardy_upper,
)

CHI = StepFunction.indicator(0.0, 1.0)
COARSE = GridSpec(points_per_decade=16, span=2.0**12)


class TestUpperClosedForms:
    def test_classical_double_average_of_indicator(self):
        # f**(t) = 1 on (0,1], 1/t beyond: direct integral of the indicator
        env = hardy_upper(CHI, 1.0, 1.0)
        for t in (0.01, 0.5, 1.0):
            assert env(t) == pytest.approx(1.0, rel=1e-12)
        for t in (2.0, 100.0):
            assert env(t) == pytest.approx(1.0 / t, rel=1e-12)

    def test_sup_form_of_indicator(self):
        env = hardy_upper(CHI, 1.0, INF)
        assert env(0.5) == 1.0
        assert env(4.0) == 0.25

    def test_alias_u_power_average(self, small_corpus):
        # upper(u, u) is the u-th power average (t**-1 int_0^t f*(v)**u dv)**(1/u)
        for f in list(small_corpus)[:5]:
            env = hardy_upper(f, 2.0, 2.0, COARSE)
            fs = f.rearrange()
            for t in (0.3, 1.7, 42.0):
                direct = (weighted_power_integral(fs, 1.0, 2.0, 0.0, t) / t) ** 0.5
                assert env(t) == pytest.approx(direct, rel=1e-12)

    def test_classical_alias_via_integral(self, small_corpus):
        # upper(1/alpha, 1) is t**-alpha int_0^t v**(alpha-1) f*(v) dv
        alpha = 0.5
        for f in list(small_corpus)[:5]:
            env = hardy_upper(f, 1.0 / alpha, 1.0, COARSE)
            fs = f.rearrange()
            for t in (0.3, 1.7, 42.0):
                direct = t ** (-alpha) * weighted_power_integral(fs, alpha, 1.0, 0.0, t)
                assert env(t) == pytest.approx(direct, rel=1e-12)

    def test_zero_function(self):
        env = hardy_upper(StepFunction.zero(), 1.0, 1.0)
        assert env(1.0) == 0.0
        assert envelope_norm(env, LorentzParams(2.0, 2.0)).hi == 0.0

    def test_constant_function(self):
        env = hardy_upper(StepFunction.constant(3.0), 2.0, 1.0)
        # inner integral is exactly c * (u/w) * t**(w/u); the average is constant
        assert env(0.5) == pytest.approx(3.0 * 2.0, rel=1e-12)
        assert env(7.0) == pytest.approx(3.0 * 2.0, rel=1e-12)
        assert env.bracket_decay is None  # a constant has no power-law bracket

    def test_invalid_exponents(self):
        for u, w in ((0.0, 1.0), (-1.0, 1.0), (INF, 1.0), (1.0, 0.0)):
            with pytest.raises(ValueError):
                hardy_upper(CHI, u, w)


class TestLowerClosedForms:
    def test_indicator_value(self):
        env = hardy_lower(CHI, 2.0, 1.0)
        for t in (0.04, 0.25, 0.81):
            assert env(t) == pytest.approx(2.0 * (t**-0.5 - 1.0), rel=1e-12)
        assert env(1.0) == 0.0
        assert env(5.0) == 0.0

    def test_sup_form(self):
        env = hardy_lower(CHI, 3.0, INF)
        for t in (0.1, 0.9):
            assert env(t) == pytest.approx(t ** (-1.0 / 3.0) * 1.0, rel=1e-12)
        assert env(2.0) == 0.0

    def test_zero_function(self):
        env = hardy_lower(StepFunction.zero(), 2.0, 1.0)
        assert env(1.0) == 0.0
        assert env.bracket_decay is None

    def test_positive_tail_diverges_everywhere(self):
        f = StepFunction((1.0,), (2.0,), 1.0)
        env = hardy_lower(f, 2.0, 1.0)
        assert env.diverged
        # f's own grid, infinite on it and off it
        assert np.array_equal(env.grid, GridSpec().build(f.rearrange().breakpoints))
        assert np.all(env.values == INF)
        assert env.bracket_decay is None
        assert env(0.5) == INF
        assert np.all(env(np.array([1e-300, 1.0, 1e300])) == INF)
        assert envelope_norm(env, LorentzParams(2.0, 2.0)).lo == INF


class TestEnvelopeInvariants:
    @pytest.mark.parametrize(
        "build",
        [
            lambda f: hardy_upper(f, 1.0, 1.0, COARSE),
            lambda f: hardy_upper(f, 2.0, 0.5, COARSE),
            lambda f: hardy_upper(f, 1.0, INF, COARSE),
            lambda f: hardy_lower(f, 2.0, 1.0, COARSE),
            lambda f: hardy_lower(f, 3.0, INF, COARSE),
        ],
    )
    def test_bracketing_and_monotonicity(self, build, small_corpus):
        for f in list(small_corpus)[:8]:
            env = build(f)
            vals = env.values
            assert np.all(np.diff(vals) <= vals[:-1] * 1e-12 + 1e-300)  # non-increasing
            lower, upper = envelope_lower(env), envelope_upper(env)
            for i in (0, len(env.grid) // 2, len(env.grid) - 1):
                t = float(env.grid[i])
                assert lower(t) <= vals[i] * (1.0 + 1e-12)
                assert upper(t) >= vals[i] * (1.0 - 1e-12)
            assert lower.is_nonincreasing()
            assert upper.is_nonincreasing()

    @pytest.mark.parametrize(
        "build",
        [
            lambda f: hardy_upper(f, 1.0, 1.0, COARSE),
            lambda f: hardy_upper(f, 1.0, INF, COARSE),
            lambda f: hardy_lower(f, 2.0, 1.0, COARSE),
            lambda f: hardy_lower(f, 3.0, INF, COARSE),
        ],
    )
    def test_head_tail_descriptors_match_boundary(self, build, small_corpus):
        # the tight side of each analytic descriptor reproduces the exact
        # evaluation at the window boundary
        for f in list(small_corpus)[:8]:
            env = build(f)
            g0, gm = float(env.grid[0]), float(env.grid[-1])
            head = max(env.head_lo(g0), 0.0), env.head_hi(g0)
            assert head[0] <= env.values[0] * (1.0 + 1e-12)
            assert head[1] >= env.values[0] * (1.0 - 1e-12)
            tight_head = min(abs(h - env.values[0]) for h in head)
            assert tight_head <= 1e-12 * max(1.0, env.values[0])
            tail = env.tail_lo(gm), env.tail_hi(gm)
            tight_tail = min(abs(h - env.values[-1]) for h in tail)
            assert tight_tail <= 1e-12 * max(1.0, env.values[-1])

    def test_upper_head_covers_a_bounded_head_constant(self):
        # a constant head bound one ulp above the first grid value sets the
        # upper bound there; a power-law head leaves the grid value
        env = hardy_upper(CHI, 1.0, 1.0, COARSE)
        assert env.head_hi.decay.tolist() == [0.0]
        above = float(np.nextafter(env.values[0], INF))
        bumped = dataclasses.replace(env, head_hi=PowerLaw(above, 0.0))
        assert bumped.upper_on_grid()[0] == above == envelope_upper(bumped)(float(env.grid[0]))
        assert list(bumped.upper_on_grid()[1:]) == list(env.values[:-1])
        decaying = dataclasses.replace(env, head_hi=PowerLaw(above, 0.5))
        assert decaying.upper_on_grid()[0] == env.values[0]

    def test_eval_beyond_window_matches_descriptors(self, small_corpus):
        f = list(small_corpus)[0]
        env = hardy_upper(f, 1.0, 1.0, COARSE)
        far = float(env.grid[-1]) * 16.0
        assert env(far) == pytest.approx(env.tail_hi(far), rel=1e-12)


# its average passes the largest float in the direct form past the grid
_FAR_TAIL = StepFunction(
    (1.2795958482785108, 1.8305788584036908),
    (4.6920762324727775e197, 3.227452208009678e201),
    4.6920762324727775e197,
)


def _within_ulps(x: float, lo: float, hi: float, n: int = 4) -> bool:
    return lo - n * math.ulp(lo) <= x <= hi + n * math.ulp(hi)


class TestOffGridEvaluation:
    """A block of one evaluated anywhere in [2**-1000, 2**1000] is never
    NaN, is finite where its off-grid laws at t are, stays inside its tail
    bracket past the grid and, for the upper family, equals its head
    constant before it, without a numpy warning.

    The tail bracket is checked where it is one at the last grid point.
    Where the tables underflow (``f*`` times the breakpoints, or the w-th
    powers of tiny values, below the float range) the grid values read 0,
    so ``tail_hi`` falls below ``tail_lo`` and no evaluation is inside."""

    @settings(max_examples=300, deadline=None)
    @given(
        f=edge_step_functions(max_pieces=60),
        kind=st.sampled_from(["upper", "lower"]),
        order=st.sampled_from([0.25, 0.5, 1.0, 2.0]),
        w=st.sampled_from([1.0, 2.0, INF]),
        ts=st.lists(st.floats(2.0**-1000, 2.0**1000), min_size=1, max_size=8),
    )
    @example(f=CHI, kind="upper", order=0.5, w=1.0, ts=[1e-200])
    @example(f=CHI, kind="upper", order=0.25, w=2.0, ts=[1e-200, 1e-41])
    @example(f=_FAR_TAIL, kind="upper", order=1.0, w=1.0, ts=[1e300])
    @example(f=StepFunction((1.0, 2.0), (3.0, 1.0)), kind="lower", order=0.5, w=1.0, ts=[1e-300])
    @example(f=StepFunction((1.0,), (2e-202,)), kind="lower", order=0.25, w=2.0, ts=[1e-301])
    def test_never_nan_and_inside_its_laws(self, f, kind, order, w, ts):
        try:
            env = (hardy_upper if kind == "upper" else hardy_lower)(f, order, w)
        except ValueError:  # a window or an average past the float range
            assume(False)
        first, last = float(env.grid[0]), float(env.grid[-1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bracket = env.tail_lo(last) <= env.tail_hi(last)
            for t in ts:
                x = env(t)
                assert not math.isnan(x), t
                if env.diverged[0]:  # its laws are zero: the average is inf everywhere
                    assert x == INF
                    continue
                if first <= t <= last:
                    continue
                lo, hi = (env.head_lo(t), env.head_hi(t)) if t < first else (env.tail_lo(t), env.tail_hi(t))
                if hi < INF:
                    assert x < INF, (t, lo, hi)
                if t > last and bracket:
                    assert _within_ulps(x, lo, hi), (t, x, lo, hi)
                elif t < first and kind == "upper":
                    assert _within_ulps(x, hi, hi), (t, x, hi)

    @pytest.mark.parametrize(
        "t,message",
        [
            (math.nan, "t must not be NaN"),
            (np.array([1.0, math.nan]), "t must not be NaN"),
            (-1.0, "evaluation point must be in (0, inf), got -1.0"),
            (0.0, "evaluation point must be in (0, inf), got 0.0"),
            (INF, "evaluation point must be in (0, inf), got inf"),
            (np.array([1.0, -1.0, 0.5]), "evaluation point must be in (0, inf), got [ 1.  -1.   0.5]"),
        ],
        ids=["nan", "nan-in-array", "negative", "zero", "inf", "negative-in-array"],
    )
    @pytest.mark.parametrize(
        "evaluator",
        [
            "upper", "lower", "law", "function", "upper.eval", "lower.eval", "upper-sup.eval",
            "lower-sup.eval", "constant.eval", "zero-upper.eval", "zero-lower.eval", "diverged.eval",
        ],
    )
    def test_points_outside_the_half_line_raise_as_for_a_step_function(self, t, message, evaluator):
        # unchecked, an envelope reads f* outside its domain (NaN would index
        # past its table) and a law's power turns complex or divides by 0;
        # an envelope's eval is as public as its call, and checks as it does
        f = StepFunction((1.0, 2.0), (3.0, 1.0))
        evaluate = {
            "upper": lambda: hardy_upper(f, 1.0, 1.0),
            "lower": lambda: hardy_lower(f, 2.0, 1.0),
            "law": lambda: PowerLaw(2.0, 0.5),
            "function": lambda: f,
            "upper.eval": lambda: hardy_upper(f, 1.0, 1.0).eval,
            "lower.eval": lambda: hardy_lower(f, 2.0, 1.0).eval,
            "upper-sup.eval": lambda: hardy_upper(f, 1.0, INF).eval,
            "lower-sup.eval": lambda: hardy_lower(f, 2.0, INF).eval,
            "constant.eval": lambda: hardy_upper(StepFunction.constant(2.0), 1.0, 1.0).eval,
            "zero-upper.eval": lambda: hardy_upper(StepFunction.zero(), 1.0, 1.0).eval,
            "zero-lower.eval": lambda: hardy_lower(StepFunction.zero(), 2.0, 1.0).eval,
            "diverged.eval": lambda: hardy_lower(f + StepFunction.constant(0.5), 2.0, 1.0).eval,
        }[evaluator]()
        with pytest.raises(ValueError) as err:
            evaluate(t)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "f, kind, order, w",
        [
            (StepFunction((1.0, 2.0), (3.0, 1.0)), "upper", 1.0, 1.0),
            (StepFunction((1.0, 2.0), (3.0, 1.0)), "lower", 2.0, 1.0),
            (StepFunction((1.0, 2.0), (3.0, 1.0)), "upper", 1.0, INF),
            (StepFunction((1.0, 2.0), (3.0, 1.0)), "lower", 2.0, INF),
            (StepFunction.constant(2.0), "upper", 1.0, 1.0),
            (StepFunction.zero(), "upper", 1.0, 1.0),
            (StepFunction.zero(), "lower", 2.0, 1.0),
            (StepFunction((1.0, 2.0), (3.0, 1.0), 0.5), "lower", 2.0, 1.0),
        ],
        ids=["upper", "lower", "upper-sup", "lower-sup", "constant", "zero-upper", "zero-lower", "diverged"],
    )
    def test_eval_is_the_call_at_points_of_the_half_line(self, f, kind, order, w):
        env = (hardy_upper if kind == "upper" else hardy_lower)(f, order, w)
        ts = np.array([1e-300, 0.1, 1.0, 1.5, 2.0, 3.0, 1e10, 1e300])
        assert repr(env.eval(ts).tolist()) == repr(env(ts).tolist())


class TestEnvelopeNorm:
    def test_double_average_l2_calibration(self):
        enc = envelope_norm(hardy_upper(CHI, 1.0, 1.0), LorentzParams(2.0, 2.0))
        assert enc.contains(math.sqrt(2.0), slack=1e-12)
        assert enc.width <= 1e-3

    def test_zero_envelope(self):
        enc = envelope_norm(hardy_upper(StepFunction.zero(), 1.0, 1.0), LorentzParams(2.0, 2.0))
        assert (enc.lo, enc.hi) == (0.0, 0.0)

    def test_divergence_at_matching_exponent(self):
        # u equal to the Boyd index: the tail integral of the enclosure diverges
        enc = envelope_norm(hardy_upper(CHI, 2.0, 1.0), LorentzParams(2.0, 2.0))
        assert enc.hi == INF

    def test_weak_norm_enclosure(self):
        # sup_t t**(1/2) f**(t): exactly 1 on the flat part... the decaying part
        # contributes sup t**(1/2)/t -> 1 at t=1; total sup is 1
        enc = envelope_norm(hardy_upper(CHI, 1.0, 1.0), LorentzParams(2.0, INF))
        assert enc.contains(1.0, slack=1e-12)
        assert enc.relative_width <= 1e-6

    def test_sup_space_enclosure_exact(self, small_corpus):
        for f in list(small_corpus)[:6]:
            enc = envelope_norm(hardy_upper(f, 1.0, 1.0, COARSE), LorentzParams(INF, INF))
            top = f.rearrange().max_value()
            assert enc.contains(top, slack=1e-12 * top)
            assert enc.relative_width <= 1e-12

    def test_degenerate_space_infinite_for_nonzero(self):
        enc = envelope_norm(hardy_upper(CHI, 1.0, 1.0), LorentzParams(INF, 2.0))
        assert enc.lo == INF and enc.hi == INF

    def test_enclosure_contains_high_resolution_value(self, small_corpus):
        # refining the grid shrinks the window and the coarse enclosure
        # always contains the finer one
        f = list(small_corpus)[1]
        prm = LorentzParams(2.0, 2.0)
        coarse = envelope_norm(hardy_upper(f, 1.0, 1.0, COARSE), prm)
        fine = envelope_norm(
            hardy_upper(f, 1.0, 1.0, GridSpec(points_per_decade=128, span=2.0**12)), prm
        )
        assert coarse.lo <= fine.lo * (1 + 1e-12) and fine.hi <= coarse.hi * (1 + 1e-12)
        assert fine.width < coarse.width or coarse.width < 1e-12


class TestPointwiseLowerBounds:
    def test_upper_chain_against_rearrangement(self, small_corpus):
        # H^(u,w) f >= H^(u,inf) f >= f* pointwise for w <= u
        for f in list(small_corpus)[:8]:
            fs = f.rearrange()
            for u, w in ((1.0, 1.0), (2.0, 1.0)):
                env_w = hardy_upper(f, u, w, COARSE)
                env_s = hardy_upper(f, u, INF, COARSE)
                star = np.array([fs(t) for t in env_w.grid])
                assert np.all(env_w.values >= env_s.values * (1.0 - 1e-12))
                assert np.all(env_s.values >= star * (1.0 - 1e-12))

    def test_lower_bound_with_doubled_argument_sup_form(self, small_corpus):
        for f in list(small_corpus)[:8]:
            fs = f.rearrange()
            env = hardy_lower(f, 3.0, INF, COARSE)
            star2 = np.array([fs(2.0 * t) for t in env.grid])
            assert np.all(env.values >= star2 * (1.0 - 1e-12))

    def test_lower_bound_constant_is_sharp_below_one(self):
        # For w < v the doubled-argument bound only holds with the constant
        # ((v/w)(2**(w/v)-1))**(1/w) < 1: at t=0.46 the indicator violates
        # the constant-free inequality.  This documents why the literal
        # pointwise check fails for (v, w) = (2, 1).
        env = hardy_lower(CHI, 2.0, 1.0)
        t = 0.46
        value = env(t)
        assert value == pytest.approx(2.0 * (t**-0.5 - 1.0), rel=1e-12)
        assert value < CHI.rearrange()(2.0 * t) == 1.0
        kappa = (2.0 / 1.0) * (2.0 ** (1.0 / 2.0) - 1.0)
        assert value >= kappa * 1.0 * (1.0 - 1e-12)


class TestEnvelopeAlgebra:
    def test_add_envelopes_pointwise(self, small_corpus):
        f = list(small_corpus)[2]
        e1 = hardy_upper(f, 1.0, 1.0, COARSE)
        e2 = hardy_lower(f, 4.0, 4.0, COARSE)
        s = _add_block(e1, e2)
        assert np.all(s.values == e1.values + e2.values)
        for t, value in list(zip(s.grid.tolist(), s.values.tolist()))[::40]:
            assert value == pytest.approx(e1(t) + e2(t), rel=1e-12)
        # beyond the grid the sum stays inside its tail bracket
        for t in (float(s.grid[-1]) * 2.0, float(s.grid[-1]) * 64.0):
            assert s.tail_lo(t) * (1 - 1e-12) <= e1(t) + e2(t) <= s.tail_hi(t) * (1 + 1e-12)

    def test_sum_envelope_norm_brackets_true_value(self, small_corpus):
        f = list(small_corpus)[2]
        blk = _Block([f.rearrange()], COARSE)
        e = _add_block(_upper_block(blk, 1.0, 1.0), _lower_block(blk, 4.0, 4.0))
        enc = envelope_norm(e, LorentzParams(2.0, 2.0))
        # Riemann check on a fine grid stays inside the certified enclosure
        ts = np.geomspace(float(e.grid[0]), float(e.grid[-1]), 20000)
        mids = np.sqrt(ts[:-1] * ts[1:])
        true = hardy_upper(f, 1.0, 1.0, COARSE)(mids) + hardy_lower(f, 4.0, 4.0, COARSE)(mids)
        riemann = float(np.sum(true**2 * np.diff(ts)))
        head = e.head_lo(float(ts[0])) ** 2 * ts[0]
        inside = math.sqrt(riemann + head)
        assert enc.lo * (1 - 1e-6) <= inside <= enc.hi * (1 + 1e-6)

    def test_scaled_block_pointwise(self, small_corpus):
        # t**-0.5 f**(t) = t**-1.5 integral_0^t f*, on the grid and by the tail law beyond it
        fs = list(small_corpus)[2].rearrange()
        assert fs.tail == 0.0
        e = _upper_block(_Block([fs], COARSE), 1.0, 1.0)
        scaled = _scale_block(e, 0.5)
        for t, value in list(zip(scaled.grid.tolist(), scaled.values.tolist()))[::40]:
            assert value == pytest.approx(t**-1.5 * weighted_power_integral(fs, 1.0, 1.0, 0.0, t), rel=1e-12)
        far = float(scaled.grid[-1]) * 16.0
        assert scaled.tail_hi(far) == pytest.approx(far**-1.5 * weighted_power_integral(fs, 1.0, 1.0), rel=1e-12)
        assert scaled.bracket_decay == e.bracket_decay + 0.5

    def test_power_scale(self, small_corpus):
        f = list(small_corpus)[2]
        e = hardy_upper(f, 1.0, 1.0, COARSE)
        scaled = _scale_block(e, 0.5)
        for t, value in list(zip(scaled.grid.tolist(), scaled.values.tolist()))[::40]:
            assert value == pytest.approx(e(t) * t**-0.5, rel=1e-12)
        far = float(e.grid[-1]) * 16.0
        assert scaled.tail_hi(far) == pytest.approx(e.tail_hi(far) * far**-0.5, rel=1e-12)

    def test_scale_equivariance_of_norm(self, small_corpus):
        f = list(small_corpus)[2]
        prm = LorentzParams(2.0, 2.0)
        enc1 = envelope_norm(hardy_upper(f, 1.0, 1.0, COARSE), prm)
        enc2 = envelope_norm(hardy_upper(f.scale(2.0), 1.0, 1.0, COARSE), prm)
        assert enc2.lo == pytest.approx(2.0 * enc1.lo, rel=1e-12)
        assert enc2.hi == pytest.approx(2.0 * enc1.hi, rel=1e-12)


class TestBoundednessPrediction:
    L22 = SpaceDescriptor.for_lorentz(LorentzParams(2.0, 2.0))

    def test_upper_bounded(self):
        assert predicted_bounded(self.L22, "upper", 1.0, 1.0)

    def test_upper_boundary_unbounded(self):
        assert not predicted_bounded(self.L22, "upper", 2.0, 1.0)

    def test_lower_bounded(self):
        assert predicted_bounded(self.L22, "lower", 3.0, 1.0)

    def test_lower_boundary_unbounded(self):
        assert not predicted_bounded(self.L22, "lower", 2.0, 1.0)

    def test_sup_space(self):
        linf = SpaceDescriptor.for_lorentz(LorentzParams(INF, INF))
        assert predicted_bounded(linf, "upper", 100.0, 2.0)
        assert not predicted_bounded(linf, "lower", 3.0, 2.0)

    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            predicted_bounded(self.L22, "sideways", 1.0, 1.0)


class TestGridSpecValidation:
    @pytest.mark.parametrize("points", [1, 0, math.nan, INF])
    def test_invalid_points_per_decade_rejected(self, points):
        with pytest.raises(ValueError, match=r"points per decade must be in \[2, inf\)"):
            GridSpec(points_per_decade=points)

    @pytest.mark.parametrize("span", [1.0, 0.5, math.nan, INF])
    def test_invalid_span_rejected(self, span):
        with pytest.raises(ValueError, match=r"span factor must be in \(1, inf\)"):
            GridSpec(span=span)


_GRID_ANCHORS = {
    "none": (),
    "one": (1.0,),
    "one-far": (3.7e-200,),
    "whole-float-range": (1e-300, 1e300),
    "corpus-member": generate_corpus(7, 1).functions[0].rearrange().breakpoints,
}


class TestGridBuilder:
    """``GridSpec.build_many`` against one ``np.geomspace`` per grid."""

    @pytest.mark.parametrize("spec", [COARSE, GridSpec(points_per_decade=256)], ids=["coarse", "256-per-decade"])
    @pytest.mark.parametrize("anchors", list(_GRID_ANCHORS.values()), ids=list(_GRID_ANCHORS))
    def test_one_grid_equals_geomspace(self, spec, anchors):
        want = ref_grid(spec, anchors)
        assert np.array_equal(spec.build(anchors), want)
        (grid,) = spec.build_many([anchors])
        assert grid.dtype == want.dtype and np.array_equal(grid, want)

    @pytest.mark.parametrize("spec", [COARSE, DEFAULT_GRID, GridSpec(points_per_decade=256)], ids=str)
    def test_many_grids_equal_geomspace_each(self, spec):
        # windows of every width in one call
        sets = [tuple(sorted(a)) for a in _GRID_ANCHORS.values()]
        sets += [f.rearrange().breakpoints for f in generate_corpus(11, 30, positive_tail=True)]
        got = spec.build_many(sets)
        assert len(got) == len(sets)
        for anchors, grid in zip(sets, got):
            assert np.array_equal(grid, ref_grid(spec, anchors)), anchors
        # a window outside the float range makes the whole call raise, wherever it sits
        for bad in [(5e-324, 1.0), (1.0, 1.7e308)]:
            for at in (0, len(sets) // 2, len(sets)):
                with pytest.raises(ValueError, match="leaves the float range"):
                    spec.build_many(sets[:at] + [bad] + sets[at:])

    def test_no_anchor_sets(self):
        assert DEFAULT_GRID.build_many([]) == []

    @settings(max_examples=60, deadline=None)
    @given(f=edge_step_functions(), spec=st.sampled_from([COARSE, DEFAULT_GRID]))
    @example(f=StepFunction.zero(), spec=DEFAULT_GRID)  # no anchors: the window around 1
    def test_window_is_the_grid_window(self, f, spec):
        # the window a block counts its points by is the one its grid fills
        anchors = f.breakpoints
        try:
            grid = spec.build(anchors)
        except ValueError as err:
            with pytest.raises(ValueError) as got:
                spec._window(anchors)
            assert str(got.value) == str(err)
            return
        lo, hi, n = spec._window(anchors)
        assert (lo, hi) == (grid[0], grid[-1])
        # n log-spaced points merged with the anchors (the point 1 when there are none)
        assert grid.size <= n + max(len(anchors), 1)


class TestGridAtFloatRangeEnds:
    def test_window_wider_than_the_float_range_builds(self):
        # hi / lo overflows: the decades are counted from the logs instead
        g = GridSpec().build([1e-300, 1e300])
        assert np.isfinite(g).all() and np.all(np.diff(g) > 0.0)
        assert 1e-300 in g and 1e300 in g
        decades = math.log10(g[-1]) - math.log10(g[0])
        assert g.size >= decades * GridSpec().points_per_decade

    @pytest.mark.parametrize("anchors", [(5e-324, 1.0), (1.0, 1.7e308)], ids=["lo-underflows", "hi-overflows"])
    def test_window_outside_the_float_range_is_rejected(self, anchors):
        with pytest.raises(ValueError, match=re.escape(f"anchors [{anchors[0]!r}, {anchors[1]!r}] with span")):
            GridSpec().build(anchors)


    def test_window_past_the_point_limit_is_refused(self, monkeypatch):
        # refused from the window's size alone: nothing is allocated
        monkeypatch.setattr("rinorms.hardy._offsets", None)
        spec = GridSpec(points_per_decade=10**9)
        with pytest.raises(ValueError, match=r"takes \d+ points at 1000000000 points per decade, past the limit"):
            spec._window([1.0, 2.0])
        with pytest.raises(ValueError, match=r"the grid window \[9\.5367431640625e-07, 2097152\.0\]"):
            spec.build_many([np.array([1.0, 2.0])])

    def test_widest_window_at_the_default_resolution_is_in_the_limit(self):
        lo, hi, n = GridSpec()._window([2.0**-1002, 2.0**1003])
        assert n < _MAX_WINDOW_POINTS // 100


_HUGE = StepFunction((1.0,), (1e200,))
_NEAR_MAX = StepFunction((1.0, 2.0), (1.7e308, 1.0))


class TestOverflow:
    @pytest.mark.parametrize(
        "hardy, f, order, w",
        [
            (hardy_upper, _HUGE, 2.0, 2.0),
            (hardy_lower, _HUGE, 2.0, 2.0),
            (hardy_upper, _NEAR_MAX, 2.0, 1.0),
            (hardy_lower, _NEAR_MAX, 2.0, 1.0),
            (hardy_lower, _NEAR_MAX, 2.0, INF),
            # the head factor (u/w)**(1/w) = 1e400, or a constant times it, overflows
            (hardy_upper, CHI, 100.0, 0.01),
            (hardy_upper, StepFunction.constant(1.0), 100.0, 0.01),
            (hardy_upper, StepFunction.constant(1.7e308), 2.0, 1.0),
        ],
    )
    def test_average_beyond_the_float_range_raises(self, hardy, f, order, w):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning may escape
            with pytest.raises(ValueError, match="the Hardy average of f overflows the float range"):
                hardy(f, order, w)

    def test_envelope_norm_beyond_the_float_range_raises(self):
        # the L(2,2) norm of H^(1,1) f is sqrt(3.4) * 1e308, past the largest float
        env = hardy_upper(StepFunction((1.7,), (1e308,)), 1.0, 1.0)
        with pytest.raises(ValueError, match="the envelope norm overflows the float range"):
            envelope_norm(env, LorentzParams(2.0, 2.0))
        # at u = p_E = 2 the tail law of H^(2,1) f diverges, and the head
        # coefficient 2e200, whose square overflows, does not hide it
        enc = envelope_norm(hardy_upper(_HUGE, 2.0, 1.0), LorentzParams(2.0, 2.0))
        assert (enc.lo, enc.hi) == (INF, INF)

    def test_overflowed_interval_terms_are_not_a_divergence(self):
        # the norm of H^(1,1) f is sqrt(2) * 1e100, but the interval terms
        # square values near 1e200 past the largest float while the head and
        # tail terms stay finite: [inf, inf] would be a false bracket
        env = hardy_upper(StepFunction((1e200,), (1.0,)), 1.0, 1.0)
        with pytest.raises(ValueError, match="the envelope norm overflows the float range"):
            envelope_norm(env, LorentzParams(2.0, 2.0))
        # the same in the sup form: sup t**2 H_(2,inf) f(t) is about 1e330,
        # finite, and only the interval maxima pass the largest float
        env = hardy_lower(StepFunction((1.0, 1e100), (1e200, 1e130)), 2.0, INF)
        with pytest.raises(ValueError, match="the envelope norm overflows the float range"):
            envelope_norm(env, LorentzParams(0.5, INF))
        assert envelope_norm(env, LorentzParams(1.0, INF)).hi < INF
        # and where the head term itself, 1e180 * grid[0]**1.5, passes it
        env = hardy_lower(StepFunction((1e100,), (1e130,)), 2.0, INF)
        with pytest.raises(ValueError, match="the envelope norm overflows the float range"):
            envelope_norm(env, LorentzParams(0.5, INF))

    def test_overflowed_law_terms_are_not_a_divergence(self):
        # the L(2,2) norm of H^(1,1) f is at most 2 ||f|| = 2e180, but its
        # head term, 1e260 * grid[0], passes the largest float
        env = hardy_upper(StepFunction((1e100,), (1e130,)), 1.0, 1.0)
        with pytest.raises(ValueError, match="the envelope norm overflows the float range"):
            envelope_norm(env, LorentzParams(2.0, 2.0))
        # in L(1.01, 2) the head and interval terms (about 12 c**2) and the
        # tail term (about 38 c**2) are finite; only their sum overflows
        env = hardy_upper(StepFunction((1.0,), (2e153,)), 1.0, 1.0)
        with pytest.raises(ValueError, match="the envelope norm overflows the float range"):
            envelope_norm(env, LorentzParams(1.01, 2.0))

    def test_overflowing_interval_sum_raises_without_a_warning(self):
        # the interval terms square values near 1.2e154 past the largest float
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning may escape
            with pytest.raises(ValueError, match="the envelope norm overflows the float range"):
                envelope_norm(hardy_upper(StepFunction((1.0,), (1.2e154,)), 1, 1), LorentzParams(2.0, 2.0))

    def test_divergent_norm_is_still_infinite(self):
        # a positive tail makes the tail term of H^(1,1) f diverge in L(2,2),
        # also where the head term (coefficient 1e200, squared) overflows
        for f in (StepFunction((1e200,), (2.0,), 1.0), StepFunction((1.0,), (1e200,), 1.0)):
            enc = envelope_norm(hardy_upper(f, 1.0, 1.0), LorentzParams(2.0, 2.0))
            assert (enc.lo, enc.hi) == (INF, INF)
        # t**2 times the 1/t tail of H^(1,1) f is unbounded in L(1/2, inf);
        # that the head term 1e130 * grid[0]**2 overflows does not hide it
        env = hardy_upper(StepFunction((1e100,), (1e130,)), 1.0, 1.0)
        enc = envelope_norm(env, LorentzParams(0.5, INF))
        assert (enc.lo, enc.hi) == (INF, INF)

    def test_diverged_lower_average_is_not_an_overflow(self):
        f = StepFunction((1.0,), (1e200,), 1.0)
        assert hardy_lower(f, 2.0, 2.0).diverged

    @settings(max_examples=60, deadline=None)
    @given(
        bps=st.lists(st.floats(2.0**-10, 2.0**10), max_size=6, unique=True).map(sorted),
        vals=st.lists(st.floats(0.0, 1e300), min_size=6, max_size=6),
        tail=st.floats(2.0**-8, 1e300),
        u=st.sampled_from([0.5, 1.0, 2.0, 3.0]),
        w=st.sampled_from([0.5, 1.0, 2.0, INF]),
    )
    @example(bps=[1.0], vals=[1e200] * 6, tail=1.0, u=1.0, w=1.0)
    def test_a_positive_tail_diverges_however_large_the_head(self, bps, vals, tail, u, w):
        # the tail law of the upper average of a positive tail is a
        # constant, which diverges in every L(p,q) with p < inf
        f = StepFunction(tuple(bps), tuple(vals[: len(bps)]), tail)
        try:
            env = hardy_upper(f, u, w)
        except ValueError as err:
            assert str(err) == "the Hardy average of f overflows the float range"
            return
        for p in NORM_PARAMS:
            if p.p < INF:
                assert envelope_norm(env, p).hi == INF


class TestReferenceCycles:
    def test_queries_leave_nothing_for_the_cyclic_collector(self):
        # a block keeps its envelopes, so an envelope's evaluator must not
        # keep its block: what a query builds is freed when it returns
        rng = np.random.default_rng(3)
        n = 10_000
        f = StepFunction(
            tuple(np.cumsum(rng.uniform(2.0**-10, 2.0**-2, n)).tolist()),
            tuple(np.exp(rng.uniform(-6.0, 6.0, n)).tolist()),
        )
        queries = {
            "hardy_upper": lambda: hardy_upper(f, 1.0, 1.0),
            "hardy_lower": lambda: hardy_lower(f, 2.0, 1.0),
            "envelope_norm": lambda: envelope_norm(hardy_upper(f, 1.0, 1.0), LorentzParams(2.0, 2.0)),
            "functor_norm": lambda: functor_norm(f, *FUNCTORS[1]),
        }
        gc.collect()
        gc.disable()
        try:
            for name, query in queries.items():
                query()
                assert gc.collect() == 0, name
        finally:
            gc.enable()


# Step functions; zero, constant and positive-tail ones are among them.
_levels = st.floats(2.0**-8, 2.0**8) | st.just(0.0)
step_functions = st.builds(
    lambda bps, vals, tail: StepFunction(tuple(bps), tuple(vals[: len(bps)]), tail),
    st.lists(st.floats(2.0**-10, 2.0**10), max_size=8, unique=True).map(sorted),
    st.lists(_levels, min_size=8, max_size=8),
    _levels,
)


CORPUS_KINDS = {
    "default": {},
    "dyadic": {"dyadic": True},
    "positive-tail": {"positive_tail": True},
    "dyadic-positive-tail": {"dyadic": True, "positive_tail": True},
}
NORM_PARAMS = [LorentzParams(*pq) for pq in ((2.0, 2.0), (3.0, 1.0), (1.0, 0.5), (2.0, INF), (0.5, INF), (INF, INF))]
L22 = SpaceDescriptor.for_lorentz(LorentzParams(2.0, 2.0))
FUNCTORS = [
    (FunctorParams(4.0 / 3.0, 1.0, L22), LorentzCouple(LorentzParams(1.0, 1.0), LorentzParams(4.0, 4.0))),
    (FunctorParams(1.0, 1.0, L22), LorentzCouple(LorentzParams(1.0, 2.0), LorentzParams(INF, INF))),
    # r < p0: the sum is rescaled by a power of t
    (FunctorParams(1.0, 1.0, L22), LorentzCouple(LorentzParams(2.0, 1.0), LorentzParams(4.0, 4.0))),
]


def _outcome(build):
    """``repr`` of a reference result, or of the exception it raises; an
    arithmetic error is the public ``ValueError`` of an overflowing norm."""
    try:
        return repr(build())
    except ValueError as err:
        return repr(err)
    except ArithmeticError:
        return repr(ValueError(_NORM_OVERFLOW))


def _block_member(envs, i: int = 0) -> str:
    """The fields of function ``i`` of an envelope block."""
    if envs.diverged[i]:
        return repr(("diverged", envs.label))
    lo, hi = envs.goff[i], envs.goff[i + 1]
    laws = [
        (float(l.coef[i]), float(l.decay[i]))
        for l in (envs.head_lo, envs.head_hi, envs.tail_lo, envs.tail_hi)
    ]
    beta = None if envs.flat[i] else envs.bracket_decay
    return repr((envs.grid[lo:hi].tolist(), envs.values[lo:hi].tolist(), laws, beta, envs.label))


def _reference_or_error(build):
    try:
        return build()
    except ValueError as err:
        return err


def _block_outcomes(fss, spec, order, w) -> dict:
    """Every block kernel on the block of ``fss`` on grids of ``spec``: per
    kernel, one string per member (its fields or its norm), or the ``repr``
    of the ``ValueError`` the kernel raises."""
    blk = _Block(fss, spec)

    @functools.cache
    def env(name):
        if name == "both":
            return _add_block(env("upper"), env("lower"))
        return (_upper_block if name == "upper" else _lower_block)(blk, order, w)

    runs = {}
    for name in ("upper", "lower", "both"):
        runs[name] = lambda name=name: [_block_member(env(name), i) for i in range(blk.size)]
        for p in NORM_PARAMS:
            runs[name, p] = lambda name=name, p=p: [repr(x) for x in _norm_block(env(name), p)]
    for j, (fp, couple) in enumerate(FUNCTORS):
        runs["functor", j] = lambda fp=fp, couple=couple: [repr(x) for x in _functor_block(blk, fp, couple)]
    out = {}
    for key, run in runs.items():
        try:
            out[key] = run()
        except ValueError as err:
            out[key] = repr(err)
    return out


class TestBlockKernels:
    """The block kernels against the per-member reference in conftest, bit for bit."""

    def check_block(self, fss, spec, order, w):
        """Each member in a block of its own against the reference; in one
        shared block the members that do not raise keep their bits, and
        with one member that raises the block raises that member's error."""
        grids = [spec.build(fs.breakpoints) for fs in fss]
        singles = [_block_outcomes([fs], spec, order, w) for fs in fss]
        for fs, grid, single in zip(fss, grids, singles):
            own = {key: x if isinstance(x, str) else x[0] for key, x in single.items()}
            ref_up = _reference_or_error(lambda: ref_hardy_upper(fs, order, w, grid))
            ref_lo = _reference_or_error(lambda: ref_hardy_lower(fs, order, w, grid))
            for name, ref in (("upper", ref_up), ("lower", ref_lo)):
                if isinstance(ref, ValueError):
                    assert own[name] == repr(ref)
                    continue
                assert own[name] == _block_member(ref)
                for p in NORM_PARAMS:
                    assert own[name, p] == _outcome(lambda: ref_envelope_norm(ref, p))
            if not isinstance(ref_up, ValueError) and not isinstance(ref_lo, ValueError):
                ref_both = ref_add_envelopes(ref_up, ref_lo)
                if not ref_both.diverged:
                    assert own["both"] == _block_member(ref_both)
                for p in NORM_PARAMS:
                    assert own["both", p] == _outcome(lambda: ref_envelope_norm(ref_both, p))
            if not fs.is_zero:
                for j, (fp, couple) in enumerate(FUNCTORS):
                    assert own["functor", j] == _outcome(lambda: ref_functor_norm(fs, fp, couple, grid))
        block_of = functools.cache(  # the outcomes of the block of the members at these indices
            lambda members: _block_outcomes([fss[i] for i in members], spec, order, w)
        )
        for key in singles[0]:
            fine = tuple(i for i, single in enumerate(singles) if not isinstance(single[key], str))
            if fine:
                assert block_of(fine)[key] == [singles[i][key][0] for i in fine]
            for i in set(range(len(fss))) - set(fine):
                assert block_of(tuple(sorted((*fine, i))))[key] == singles[i][key]

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(sorted(CORPUS_KINDS)),
        points_per_decade=st.sampled_from([8, 16, 64]),
        order=st.sampled_from([1.0, 2.0, 3.0]),
        w=st.sampled_from([1.0, 2.0, INF]),
        extra=st.lists(step_functions, max_size=3),
    )
    def test_corpus_blocks_match_the_reference(self, seed, kind, points_per_decade, order, w, extra):
        corpus = generate_corpus(seed, 5, **CORPUS_KINDS[kind])
        fss = [f.rearrange() for f in list(corpus) + extra]
        self.check_block(fss, GridSpec(points_per_decade=points_per_decade), order, w)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("w", [1.0, 2.0, INF])
    def test_overflowing_and_degenerate_members_only_mark_themselves(self, w):
        fss = [
            f.rearrange()
            for f in (CHI, _HUGE, StepFunction.zero(), _NEAR_MAX, StepFunction.constant(1.7e308),
                      StepFunction.constant(3.0), StepFunction((1.0,), (1e200,), 1.0), CHI.scale(2.0),
                      StepFunction((1e100,), (1e130,)))
        ]
        self.check_block(fss, COARSE, 2.0, w)

    @settings(max_examples=40, deadline=None)
    @given(
        f=step_functions,
        order=st.sampled_from([0.5, 1.0, 2.0, 3.0]),
        w=st.sampled_from([0.5, 1.0, 2.0, INF]),
        points_per_decade=st.sampled_from([8, 16, 64]),
    )
    @example(f=StepFunction.zero(), order=1.0, w=1.0, points_per_decade=16)
    @example(f=StepFunction.constant(3.0), order=2.0, w=0.5, points_per_decade=16)
    @example(f=StepFunction((1.0, 2.0), (1.0, 3.0), 0.5), order=3.0, w=INF, points_per_decade=16)
    def test_public_functions_match_the_reference(self, f, order, w, points_per_decade):
        spec = GridSpec(points_per_decade=points_per_decade)
        fs = f.rearrange()
        grid = spec.build(fs.breakpoints)
        pairs = (
            (hardy_upper(f, order, w, spec), ref_hardy_upper(fs, order, w, grid)),
            (hardy_lower(f, order, w, spec), ref_hardy_lower(fs, order, w, grid)),
        )
        ts = np.concatenate([grid[:: max(1, grid.size // 7)] * 1.3, [1e-300, 1e300]])
        for public, ref in pairs:
            assert _block_member(public) == _block_member(ref)
            assert public.diverged == ref.diverged
            with np.errstate(all="ignore"):
                assert repr(public(ts).tolist()) == repr(ref.eval(ts).tolist())
            for p in NORM_PARAMS:
                assert repr(envelope_norm(public, p)) == repr(ref_envelope_norm(ref, p))


@st.composite
def _members_with_points(draw):
    """An ``f*`` (a constant, a corpus ``f*`` or one with breakpoints up to
    ``2**±1000``) and sorted points for it: its ends, points next to and
    past them, ``inf`` (an overflowing ``2t``), or none at all."""
    kind = draw(st.sampled_from(["constant", "corpus", "wide"]))
    if kind == "constant":
        fs = StepFunction.constant(draw(st.sampled_from([0.0, 3.0])))
    elif kind == "corpus":
        corpus = generate_corpus(draw(st.integers(0, 2**16)), 1, positive_tail=draw(st.booleans()))
        fs = corpus.functions[0].rearrange()
    else:
        exps = draw(st.lists(st.floats(-1000.0, 1000.0), min_size=1, max_size=12))
        bps = sorted({2.0**x for x in exps})
        vals = draw(st.lists(st.floats(0.0, 2.0**8), min_size=len(bps), max_size=len(bps)))
        fs = StepFunction(tuple(bps), tuple(vals), draw(st.sampled_from([0.0, 0.5]))).rearrange()
    pool = [5e-324, 1.0, 1e300, INF]
    for b in fs.breakpoints:
        pool += [b, math.nextafter(b, 0.0), math.nextafter(b, INF), 2.0 * b]
    return fs, sorted(draw(st.lists(st.sampled_from(pool), max_size=10)))


class TestPieceIndex:
    @settings(max_examples=150, deadline=None)
    @given(members=st.lists(_members_with_points(), min_size=1, max_size=8))
    @example(members=[(StepFunction.zero(), [])])
    @example(members=[(CHI, [INF, INF]), (StepFunction.constant(3.0), [1.0, INF]), (CHI, [1.0])])
    def test_each_function_finds_its_entries_by_searchsorted(self, members):
        fss = [fs for fs, _ in members]
        pcs = _Pieces(fss)
        assert pcs.ends.tolist() == [x for fs in fss for x in (*fs.breakpoints, INF)]
        assert pcs.f_star.tolist() == [x for fs in fss for x in (*fs.values, fs.tail)]
        toff = np.zeros(len(members) + 1, dtype=np.intp)
        np.cumsum([len(points) for _, points in members], out=toff[1:])
        K = pcs.piece_index(np.array([x for _, points in members for x in points], dtype=float), toff)
        assert K.size == toff[-1]
        first = 0  # the entry of the function's first piece
        for (fs, points), lo, hi in zip(members, toff.tolist(), toff[1:].tolist()):
            ends = np.array([*fs.breakpoints, INF])
            expected = np.searchsorted(ends, np.array(points, dtype=float), "left") + first
            assert K[lo:hi].tolist() == expected.tolist()
            first += ends.size


class TestEnclosure:
    @pytest.mark.parametrize(
        "lo,hi,message",
        [
            (math.nan, 1.0, "enclosure endpoints must not be NaN"),
            (2.0, 1.0, "need 0 <= lo <= hi, got [2.0, 1.0]"),
        ],
    )
    def test_rejects_nan_and_inverted_endpoints(self, lo, hi, message):
        with pytest.raises(ValueError) as err:
            Enclosure(lo, hi)
        assert str(err.value) == message

    def test_relative_width_of_zero_and_unbounded_enclosures(self):
        assert Enclosure(0.0, 0.0).relative_width == 0.0
        assert Enclosure(1.0, INF).relative_width == INF
