"""K-functionals, Holmstedt's expression, admissibility and the functor norm."""

from __future__ import annotations

import bisect
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rinorms import (
    INF,
    FunctorParams,
    GridSpec,
    LorentzCouple,
    LorentzParams,
    SpaceDescriptor,
    StepFunction,
    functor_admissible,
    functor_norm,
    generate_corpus,
    hardy_upper,
    holmstedt_k,
    intersection_norm,
    k_exact_l1_linf,
    k_upper_oracle,
    lorentz_norm,
    min_power_norm_finite,
    interp,
    power_integral,
    select_parameters,
    weighted_power_integral,
)
from rinorms.lorentz import _NORM_UNRESOLVED

from conftest import (
    edge_step_functions,
    fraction_k_l1_linf,
    loop_k_l1_linf,
    loop_k_upper_oracle,
    ref_k_l1_linf_block,
    reference_levels,
    windows,
)

CHI = StepFunction.indicator(0.0, 1.0)
L1_LINF = LorentzCouple(LorentzParams(1.0, 1.0), LorentzParams(INF, INF))
L22 = SpaceDescriptor.for_lorentz(LorentzParams(2.0, 2.0))
T_GRID = np.geomspace(2.0**-6, 2.0**6, 25)


class TestExactK:
    def test_indicator_small_t(self):
        assert k_exact_l1_linf(CHI, 0.25) == pytest.approx(0.25, rel=1e-12)

    def test_indicator_saturates(self):
        assert k_exact_l1_linf(CHI, 2.0) == pytest.approx(1.0, rel=1e-12)

    def test_rejects_bad_t(self):
        # f = 3 on (0,1], 1 on (1,2]: K tends to 4.0 as t grows, but at
        # t = inf the truncation cost gives inf and Holmstedt's form NaN
        f = StepFunction((1.0, 2.0), (3.0, 1.0))
        for t in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="t must be in"):
                k_exact_l1_linf(f, t)
            with pytest.raises(ValueError, match="t must be in"):
                k_upper_oracle(f, t, L1_LINF)
            with pytest.raises(ValueError, match="t must be in"):
                holmstedt_k(f, t, L1_LINF, 1.0)


class TestTruncationOracle:
    def test_indicator_value(self):
        # K(t, chi; L1, Linf) = min(t, 1); the truncation at the piece value
        # realises it exactly
        assert k_upper_oracle(CHI, 0.5, L1_LINF) == pytest.approx(0.5, rel=1e-12)

    def test_zero_function(self):
        assert k_upper_oracle(StepFunction.zero(), 1.0, L1_LINF) == 0.0

    def test_monotone_in_t(self, small_corpus):
        for f in list(small_corpus)[:10]:
            assert k_upper_oracle(f, 1.0, L1_LINF) >= k_upper_oracle(f, 0.5, L1_LINF) - 1e-12

    def test_agrees_with_exact_k(self, small_corpus):
        fs = list(small_corpus)
        for i in range(200):
            f = fs[i % len(fs)]
            t = float(T_GRID[i % T_GRID.size])
            exact = k_exact_l1_linf(f, t)
            oracle = k_upper_oracle(f, t, L1_LINF)
            assert abs(exact - oracle) <= 1e-9 * max(1.0, exact)

    def test_upper_bound_for_other_couples(self, small_corpus):
        couple = LorentzCouple(LorentzParams(1.0, 1.0), LorentzParams(4.0, 4.0))
        for f in list(small_corpus)[:10]:
            k = k_upper_oracle(f, 1.0, couple)
            # lam = 0 assigns everything to X0, so the oracle never exceeds it
            assert k <= lorentz_norm(f, couple.params0) * (1.0 + 1e-12)

    def test_empty_level_grid_rejected(self):
        with pytest.raises(ValueError):
            k_upper_oracle(CHI, 1.0, L1_LINF, levels=[])
        with pytest.raises(ValueError):
            k_upper_oracle(CHI, 1.0, L1_LINF, levels=np.array([]))

    def test_bad_levels_rejected(self):
        with pytest.raises(ValueError, match=r"level must be >= 0, got -1\.0"):
            k_upper_oracle(CHI, 1.0, L1_LINF, levels=[0.5, -1.0, math.nan])
        with pytest.raises(ValueError, match="level must not be NaN"):
            k_upper_oracle(CHI, 1.0, L1_LINF, levels=np.array([0.5, math.nan, -1.0]))

    def test_array_levels_accepted(self):
        for levels in (np.array([0.0, 1.0, 2.0]), [0.0, 1.0, 2.0], iter((0.0, 1.0, 2.0))):
            assert k_upper_oracle(CHI, 0.5, L1_LINF, levels=levels) == pytest.approx(
                0.5, rel=1e-12
            )

    @pytest.mark.parametrize("order", ["shuffled", "sorted"])
    @pytest.mark.parametrize("n", [2000, 10**5])
    def test_agrees_with_exact_k_at_many_pieces(self, n, order):
        rng = np.random.default_rng(2000)
        bps = np.cumsum(rng.uniform(2.0**-4, 2.0**4, n))
        vals = np.exp(rng.uniform(-8.0, 8.0, n))
        vals = np.sort(vals)[::-1] if order == "sorted" else rng.permutation(vals)
        fs = StepFunction(tuple(bps), tuple(vals)).rearrange()
        assert len(fs.values) == n
        for t in (bps[0] / 3.0, bps[n // 2], 0.5 * (bps[3 * n // 4] + bps[3 * n // 4 + 1]), 2.0 * bps[-1]):
            exact = k_exact_l1_linf(fs, t)
            assert k_upper_oracle(fs, t, L1_LINF) == pytest.approx(exact, rel=1e-11)


_ORACLE_COUPLES = [
    LorentzCouple(LorentzParams(p0, q0), LorentzParams(p1, q1))
    for p0, q0, p1, q1 in (
        (1.0, 1.0, INF, INF),  # p1 = q1 = inf
        (1.0, 1.0, 4.0, 4.0),  # finite q on both sides
        (1.0, 2.0, INF, INF),
        (2.0, INF, 4.0, 0.5),  # sup form on X0, q < 1 on X1
        (0.5, 3.0, 3.0, INF),  # sup form on X1
        (INF, INF, 2.0, 1.0),
        (2.0, INF, 4.0, INF),
        (2.0, 1.0, INF, INF),
        (1.0, 1.0, 3.0, 1.0),  # q = 1 on both sides, finite p
        (0.5, 1.0, INF, INF),  # q = 1 with p < 1: the weights grow like b**2
    )
]
# the couples above whose truncation costs are piecewise linear in the
# level, with kinks at values of f* (each side q = 1 or p = q = inf)
_PIECEWISE_LINEAR = [
    LorentzCouple(LorentzParams(p0, q0), LorentzParams(p1, q1))
    for p0, q0, p1, q1 in (
        (1.0, 1.0, INF, INF),
        (INF, INF, 2.0, 1.0),
        (2.0, 1.0, INF, INF),
        (1.0, 1.0, 3.0, 1.0),
        (0.5, 1.0, INF, INF),
    )
]


@st.composite
def oracle_steps(draw, max_pieces: int = 8):
    """Step functions with arbitrary float breakpoints and values, tails and constants included."""
    n = draw(st.integers(0, max_pieces))
    bps = draw(
        st.lists(st.floats(2.0**-6, 2.0**6), min_size=n, max_size=n, unique=True)
    )
    vals = draw(
        st.lists(
            st.one_of(st.just(0.0), st.floats(2.0**-10, 2.0**6)), min_size=n, max_size=n
        )
    )
    tail = draw(st.sampled_from([0.0, 0.0, 2.0**-3, 1.5, 2.0**6]))
    return StepFunction(tuple(sorted(bps)), tuple(vals), tail)


@st.composite
def corpus_members(draw):
    """One member of a default, dyadic and/or positive-tail corpus."""
    kwargs = draw(
        st.sampled_from(
            [{}, {"dyadic": True}, {"positive_tail": True}, {"dyadic": True, "positive_tail": True}]
        )
    )
    return generate_corpus(draw(st.integers(0, 2**20)), 1, **kwargs).functions[0]


class TestOracleAgainstLoopReference:
    """The oracle against the per-level StepFunction reference loop."""

    @given(
        st.one_of(oracle_steps(), corpus_members()),
        st.floats(2.0**-8, 2.0**8),
        st.sampled_from(_ORACLE_COUPLES),
        st.one_of(
            st.none(),
            st.lists(st.floats(0.0, 2.0**9), min_size=1, max_size=12),
        ),
        st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, f, t, couple, levels, as_array):
        if levels is not None and as_array:
            levels = np.array(levels)
        got = k_upper_oracle(f, t, couple, levels)
        want = loop_k_upper_oracle(f, t, couple, levels)
        # relative agreement; math.isclose also demands identical infinities
        assert math.isclose(got, want, rel_tol=1e-12), (got, want)

    @given(
        edge_step_functions(max_pieces=60),
        st.floats(2.0**-8, 2.0**8),
        st.sampled_from(_ORACLE_COUPLES),
        st.one_of(st.none(), st.lists(st.floats(0.0, 2.0**9), min_size=1, max_size=12)),
    )
    @settings(max_examples=300, deadline=None)
    @example(  # hi / lo overflows on the second piece of f*, whose L(4, 0.5) weight is finite
        StepFunction(
            (1.3850779625197533e-264, 2.305842330918357e44, 5.559295189487001e182),
            (7.926856530984124e199, 0.0, 4.763292485221007e199),
        ),
        1.0,
        _ORACLE_COUPLES[3],
        [1.0],
    )
    @pytest.mark.filterwarnings("error::RuntimeWarning")  # numpy overflow is silenced, never shown
    def test_matches_reference_at_the_edges(self, f, t, couple, levels):
        try:
            f.rearrange()
        except ValueError:  # the lengths sum past the largest float
            return
        got = k_upper_oracle(f, t, couple, levels)
        try:
            want = loop_k_upper_oracle(f, t, couple, levels)
            bound = loop_k_upper_oracle(f, t, couple, levels, rescaled=True)
        except ValueError as err:
            if str(err) != _NORM_UNRESOLVED:
                raise
            return  # a norm lorentz_norm refuses to compute
        assert math.isclose(got, want, rel_tol=1e-12), (got, want)
        # a level whose powers overflow costs inf: never below the true norms
        assert got >= bound * (1.0 - 1e-12), (got, bound)

    @pytest.mark.parametrize("couple", _ORACLE_COUPLES, ids=str)
    def test_matches_reference_at_many_pieces(self, couple):
        # 10^3 pieces, with a positive tail and without; the levels fall
        # among the values of f*, past the largest and at 0
        rng = np.random.default_rng(1000)
        bps = tuple(np.cumsum(rng.uniform(2.0**-4, 2.0**4, 1000)).tolist())
        vals = tuple(np.exp(rng.uniform(-8.0, 8.0, 1000)).tolist())
        for tail in (0.0, 2.0**-12):
            f = StepFunction(bps, vals, tail)
            top = f.max_value()
            levels = [0.0, 2.0**-10, 1.0, top / 2.0, 2.0 * top]
            got = k_upper_oracle(f, 0.75, couple, levels)
            want = loop_k_upper_oracle(f, 0.75, couple, levels)
            assert math.isclose(got, want, rel_tol=1e-12), (tail, got, want)

    @pytest.mark.parametrize("couple", _ORACLE_COUPLES, ids=str)
    def test_levels_above_max_and_constants(self, couple):
        for f in (
            StepFunction.constant(2.5),
            StepFunction((1.0, 2.0), (3.0, 1.0), 0.5),
            StepFunction((0.5, 4.0), (0.0, 2.0)),
        ):
            for levels in (None, [0.0, 10.0, 1e6], [f.rearrange().max_value() * 2.0]):
                got = k_upper_oracle(f, 0.75, couple, levels)
                want = loop_k_upper_oracle(f, 0.75, couple, levels)
                assert math.isclose(got, want, rel_tol=1e-12), (f, levels, got, want)

    @pytest.mark.parametrize("couple", _ORACLE_COUPLES, ids=str)
    def test_powers_past_the_float_range(self, couple):
        # v**q overflows for q > 1.54, though every norm is below 2e200: a
        # level whose powers overflow costs inf, so the bound only loosens
        f = StepFunction((1.0, 2.0), (1e200, 1e199))
        got = k_upper_oracle(f, 0.75, couple)
        want = loop_k_upper_oracle(f, 0.75, couple)
        assert math.isclose(got, want, rel_tol=1e-12), (got, want)
        assert got >= loop_k_upper_oracle(f, 0.75, couple, rescaled=True)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_power_past_the_float_range_on_a_weight_below_it(self):
        # X0 = L_{1/2,3}: v**3 overflows and the weight b**6 / 6 of (0, b]
        # underflows to 0, so the X0 cost at levels below v is NaN and those
        # levels are skipped, as at the per-level reference, without a warning
        f = StepFunction((8.260382689557011e-159,), (1.0701302394601777e199,))
        couple = LorentzCouple(LorentzParams(0.5, 3.0), LorentzParams(3.0, INF))
        got = k_upper_oracle(f, 1.0, couple)
        assert math.isclose(got, loop_k_upper_oracle(f, 1.0, couple), rel_tol=1e-12), got

    def test_values_across_the_float_range(self):
        # f* falls from 1e300 to 1e-30, the last two pieces a hair apart so
        # that no weight overflows: the level 1e-30 costs 1e300 * 1e-300 in
        # L_1 plus 0.75 * sqrt(1e-60 + 1e-60 * 1e60) in L_{2,2}.  The small
        # values must keep their share there, though their ratio to the
        # largest value is below the float range
        f = StepFunction((1e-300, 1.0, 1e60), (1e300, 1e-30, math.nextafter(1e-30, 0.0)))
        couple = LorentzCouple(LorentzParams(1.0, 1.0), LorentzParams(2.0, 2.0))
        got = k_upper_oracle(f, 0.75, couple)
        assert math.isclose(got, 1.75, rel_tol=1e-12), got
        for rescaled in (False, True):
            want = loop_k_upper_oracle(f, 0.75, couple, rescaled=rescaled)
            assert math.isclose(got, want, rel_tol=1e-12), (rescaled, got, want)

    @pytest.mark.parametrize(
        "couple,want",
        [
            # levels 3 and 2 cost 0 + 0.75 * 3 and 1 * 0.5 + 0.75 * 2; level 0
            # puts the piece of infinite weight into X0
            (LorentzCouple(LorentzParams(0.5, 1.0), LorentzParams(INF, INF)), 2.0),
            # only level 0 keeps the piece of infinite weight out of X1
            (LorentzCouple(LorentzParams(INF, INF), LorentzParams(0.5, 1.0)), 3.0),
        ],
        ids=str,
    )
    def test_weight_past_the_float_range(self, couple, want):
        # p = 0.5: the weight of (1, 1e200] is about 1e400 / 2; the kernel
        # raises OverflowError there, and the weight counts as inf
        f = StepFunction((1.0, 1e200), (3.0, 2.0))
        with pytest.raises(OverflowError):
            power_integral(2.0, 1.0, 1e200)
        assert k_upper_oracle(f, 0.75, couple) == want
        assert k_upper_oracle(f, 0.75, couple, [0.0, 2.0, 3.0]) == want

    def test_one_overflowing_weight_leaves_the_others_bits(self):
        # in L(0.5, 1) the last of 400 pieces, (about 1e6, 1e200], has a
        # weight of about 1e400 / 2; every other weight is the kernel's
        rng = np.random.default_rng(21)
        bps = (*np.unique(rng.uniform(1.0, 1e6, 400)).tolist(), 1e200)
        fs = StepFunction(bps, tuple(np.linspace(2.0, 1.0, len(bps)).tolist()))
        want = [power_integral(2.0, lo, hi) for lo, hi in zip((0.0, *bps), bps[:-1])]
        assert interp._weights(fs, LorentzParams(0.5, 1.0)) == [*want, INF, INF]


class TestOracleLevelCut:
    """The default level grid against the full grid every couple got before."""

    @given(
        st.one_of(oracle_steps(), corpus_members()),
        st.floats(2.0**-8, 2.0**8),
        st.sampled_from(_ORACLE_COUPLES),
    )
    @settings(max_examples=400, deadline=None)
    def test_default_grid_matches_the_full_grid(self, f, t, couple):
        got = k_upper_oracle(f, t, couple)
        want = k_upper_oracle(f, t, couple, levels=reference_levels(f.rearrange()))
        if couple in _PIECEWISE_LINEAR:
            # the minimum sits at a value of f* or 0; only the rounding of
            # the weighted sums moves with the number of levels scored
            assert math.isclose(got, want, rel_tol=1e-12), (got, want)
        else:
            assert repr(got) == repr(want)

    @pytest.mark.parametrize(
        "couple,cut",
        [
            (L1_LINF, True),
            (LorentzCouple(LorentzParams(2.0, 1.0), LorentzParams(INF, INF)), True),
            (LorentzCouple(LorentzParams(1.0, 1.0), LorentzParams(4.0, 4.0)), False),
            (LorentzCouple(LorentzParams(2.0, INF), LorentzParams(4.0, INF)), False),
        ],
        ids=str,
    )
    def test_levels_scored(self, couple, cut, monkeypatch):
        # the levels the oracle actually scores: every X0 cost goes through
        # the closure _excess_norm returns, one call per level
        scored = []
        excess_norm = interp._excess_norm

        def spy_norm(*args):
            cost = excess_norm(*args)

            def spied(k, lam):
                scored.append(lam)
                return cost(k, lam)

            return spied

        monkeypatch.setattr(interp, "_excess_norm", spy_norm)
        for f in generate_corpus(5, 12, positive_tail=True):
            scored.clear()
            k_upper_oracle(f, 0.75, couple)
            fs = f.rearrange()
            if cut:
                assert scored == sorted(set(fs.values) | {fs.tail, 0.0})
            else:
                assert scored == reference_levels(fs) and len(scored) >= 200


# corpus keyword sets for the prefix-table differential test; "wide" spans
# most of the float range, so whole-piece integrals can overflow to inf
_K_CORPORA = {
    "default": {},
    "dyadic": {"dyadic": True},
    "positive-tail": {"positive_tail": True},
    "dyadic-positive-tail": {"dyadic": True, "positive_tail": True},
    "wide": {"bp_range": (2.0**-1000, 2.0**1000), "positive_tail": True},
}
_MAX_FLOAT = sys.float_info.max
_TINY_AND_HUGE_T = (5e-324, 1e-310, 2.0**-1022, 1e300, _MAX_FLOAT)


def _draw_ts(draw, fs: StepFunction) -> list[float]:
    """A shuffled list of finite t values for ``fs``: breakpoints and their
    float neighbours, t below the first and past the last breakpoint,
    subnormal and huge t, and arbitrary t."""
    bps = fs.breakpoints
    ts = list(_TINY_AND_HUGE_T)
    ts += draw(st.lists(st.floats(5e-324, sys.float_info.max), max_size=6))
    if bps:
        ts += [bps[0] / 3.0, bps[-1] * 2.0, math.nextafter(bps[-1], INF)]
        for i in draw(st.lists(st.integers(0, len(bps) - 1), max_size=8)) + [0, len(bps) - 1]:
            ts += [bps[i], math.nextafter(bps[i], 0.0), math.nextafter(bps[i], INF)]
    # t stays finite, as the kernel's callers check
    return draw(st.permutations([min(t, _MAX_FLOAT) for t in ts]))


@st.composite
def k_table_cases(draw):
    """``f*`` of a corpus member (up to 2,000 pieces) and a t list (:func:`_draw_ts`)."""
    kind = draw(st.sampled_from(sorted(_K_CORPORA)))
    max_pieces = draw(st.sampled_from([1, 12, 2000]))
    seed = draw(st.integers(0, 2**20))
    fs = generate_corpus(seed, 1, max_pieces=max_pieces, **_K_CORPORA[kind]).functions[0].rearrange()
    if draw(st.booleans()) and fs.breakpoints and fs.tail == 0.0:
        fs = StepFunction(fs.breakpoints, fs.values, fs.values[-1] / 2.0)
    return fs, _draw_ts(draw, fs)


# the hi / lo of its second piece passes the largest float, so the
# piecewise integral is inf there; every K of it is a power of two
WIDE = StepFunction((2.0**-1000, 2.0**1000), (2.0, 1.0))


def _thousand_pieces(seed: int) -> StepFunction:
    """An ``f*`` of 10^3 pieces, with a positive tail for odd seeds."""
    rng = np.random.default_rng(seed)
    values = np.sort(rng.uniform(2.0**-8, 2.0**8, 1000))[::-1]
    bps = np.cumsum(rng.uniform(2.0**-10, 2.0**-2, 1000))
    return StepFunction(tuple(bps.tolist()), tuple(values.tolist()), values[-1] / 2.0 if seed % 2 else 0.0)


@st.composite
def k_block_members(draw):
    """One member of a K block and its t list (:func:`_draw_ts`): a constant
    with no breakpoints, a 1- or 12-piece corpus ``f*`` with or without a
    positive tail, ``WIDE`` or a 10^3-piece ``f*``."""
    kind = draw(st.sampled_from(["constant", "member", "tail", "wide", "thousand"]))
    seed = draw(st.integers(0, 2**20))
    if kind == "constant":
        fs = StepFunction.constant(draw(st.sampled_from([0.0, 0.5, 3.0])))
    elif kind == "wide":
        fs = WIDE
    elif kind == "thousand":
        fs = _thousand_pieces(seed)
    else:
        max_pieces = draw(st.sampled_from([1, 12]))
        fs = generate_corpus(seed, 1, max_pieces=max_pieces).functions[0].rearrange()
        if kind == "tail" and fs.breakpoints:
            fs = StepFunction(fs.breakpoints, fs.values, fs.values[-1] / 2.0)
    return fs, _draw_ts(draw, fs)


_MAX = Fraction(_MAX_FLOAT)


def assert_rounding_bound(fs: StepFunction, ts, ks) -> None:
    """Each ``K(t)`` of ``ks`` against the exact value: within ``(n + 2) *
    2**-53`` of it for the ``n`` terms summed (the whole pieces before t and
    the part of t's piece; each term is one rounded difference and one
    rounded product), plus ``2**-1075`` per term where a product falls
    below the normal float range; ``inf`` only where that bound reaches
    past the largest float."""
    for t, k, exact in zip(ts, ks, fraction_k_l1_linf(fs, ts)):
        n = bisect.bisect_left(fs.breakpoints, t) + 1
        slack = (n + 2) * Fraction(2) ** -53 * exact + n * Fraction(2) ** -1075
        if k == INF:
            assert exact + slack > _MAX, (t, exact)
        else:
            assert abs(Fraction(k) - exact) <= slack, (t, k, float(exact))


def assert_close(got, want, rel: float = 1e-13) -> None:
    """``got`` within ``rel`` of ``want`` wherever ``want`` is finite."""
    for g, w in zip(got, want):
        if w < INF:
            assert abs(g - w) <= rel * w, (g, w)


class TestKBlockKernel:
    """``interp._k_l1_linf_block`` on a block of members, each with its own t
    row, against each member alone (bit for bit) and exact arithmetic."""

    @staticmethod
    def check(members):
        got = interp._k_l1_linf_block([fs for fs, _ in members], [ts for _, ts in members]).tolist()
        at = 0
        for fs, ts in members:
            row = got[at : at + len(ts)]
            at += len(ts)
            assert list(map(repr, row)) == list(map(repr, interp._k_l1_linf_block([fs], [ts]).tolist()))
            assert_rounding_bound(fs, ts, row)
        assert at == len(got)

    @given(st.lists(k_block_members(), min_size=1, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_block_matches_each_member_alone(self, members):
        self.check(members)

    def test_thousand_pieces_next_to_one_piece(self):
        one = generate_corpus(3, 4, max_pieces=1).functions
        ts = [0.5, 1.0, 2.0, 1e300]
        big = _thousand_pieces(7)
        members = [(one[0].rearrange(), ts), (big, [*big.breakpoints[::97], *ts]), (one[1].rearrange(), [])]
        members += [(f.rearrange(), ts[::-1]) for f in one[2:]] + [(WIDE, [2.0**999, 2.0**1001])]
        self.check(members)
        assert interp._k_l1_linf_block([WIDE], [[2.0**999, 2.0**1001]]).tolist() == [2.0**999, 2.0**1000]


# its sums pass the largest float from the second piece on; a positive tail
OVERFLOWING = StepFunction((1.0, 2.0**1000), (_MAX_FLOAT, 2.0**23), 1.0)


def _corpus_star(seed: int, max_pieces: int, kind: str) -> StepFunction:
    return generate_corpus(seed, 1, max_pieces=max_pieces, **_K_CORPORA[kind]).functions[0].rearrange()


corpus_stars = st.builds(
    _corpus_star, st.integers(0, 2**20), st.sampled_from([1, 12, 200]), st.sampled_from(sorted(_K_CORPORA))
)


@st.composite
def ref_block_members(draw):
    """One member of a K block and its t row: the ``f*`` of an edge
    function, of a corpus member (positive tails included) or
    ``OVERFLOWING``; the row is a shuffled :func:`_draw_ts` list cut to a
    random length, so rows are unsorted, ragged and sometimes empty."""
    kind = draw(st.sampled_from(["edge", "corpus", "overflowing"]))
    if kind == "edge":
        try:
            fs = draw(edge_step_functions(max_pieces=60)).rearrange()
        except ValueError:  # the lengths sum past the largest float
            assume(False)
    else:
        fs = draw(corpus_stars) if kind == "corpus" else OVERFLOWING
    ts = _draw_ts(draw, fs)
    return fs, ts[: draw(st.integers(0, len(ts)))]


class TestKKernelAgainstRunLayout:
    """``interp._k_l1_linf_block`` on the Hardy piece table gives the floats
    of the run layout with its own prefix sums that it replaced
    (``conftest.ref_k_l1_linf_block``), bit for bit, and K is ``t`` times
    the Hardy average ``f** = hardy_upper(f, 1, 1)``."""

    @staticmethod
    def check(fss, rows) -> list[float]:
        got = interp._k_l1_linf_block(fss, rows).tolist()
        assert list(map(repr, got)) == list(map(repr, ref_k_l1_linf_block(fss, rows).tolist()))
        return got

    @given(st.lists(ref_block_members(), min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_same_floats_as_the_run_layout(self, members):
        self.check([fs for fs, _ in members], [ts for _, ts in members])

    def test_tails_ragged_rows_and_overflow(self):
        tail = StepFunction((1.0, 2.0), (3.0, 2.0), 0.5)
        fss = [tail, CHI, OVERFLOWING, StepFunction.constant(3.0), tail]
        rows = [[4.0, 1.0, 0.5, 2.0], [], [2.0**999, 1.0, 2.0, 2.0**1001], [_MAX_FLOAT], [0.25]]
        got = self.check(fss, rows)
        assert got == [6.0, 3.0, 1.5, 5.0, INF, _MAX_FLOAT, _MAX_FLOAT, INF, INF, 0.75]

    @given(st.data(), st.one_of(edge_step_functions(max_pieces=60), corpus_stars))
    @settings(max_examples=100, deadline=None)
    def test_k_is_t_times_the_hardy_average(self, data, f):
        try:
            env = hardy_upper(f, 1.0, 1.0)
        except ValueError:  # a window or an average past the float range
            assume(False)
        fs = f.rearrange()
        ts = [t for t in _draw_ts(data.draw, fs) if 2.0**-1000 <= t <= 2.0**1000]
        for t, k in zip(ts, interp._k_l1_linf(fs, ts)):
            if not sys.float_info.min <= k < INF:
                continue
            h = env(t)
            # relative rounding holds while both stay normal floats
            if h >= sys.float_info.min:
                assert abs(k - t * h) <= 4 * 2.0**-52 * k, (t, k, h)


class TestPrefixTableK:
    """``interp._k_l1_linf`` against the piecewise sum of
    ``weighted_power_integral`` and exact arithmetic."""

    @given(k_table_cases())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_piecewise_sum(self, case):
        fs, ts = case
        got = interp._k_l1_linf(fs, ts)
        assert_close(got, [weighted_power_integral(fs, 1.0, 1.0, 0.0, t) for t in ts])
        assert_rounding_bound(fs, ts, got)
        assert [repr(k_exact_l1_linf(fs, t)) for t in ts[:3]] == list(map(repr, got[:3]))

    def test_tail_and_overflow_branches(self):
        # past the last breakpoint a positive tail keeps adding; on WIDE
        # hi / lo overflows, and the integral is anchored at hi
        f = StepFunction((1.0, 2.0), (3.0, 2.0), 0.5)
        assert interp._k_l1_linf(f, [4.0, 0.5, 2.0]) == [3.0 + 2.0 + 1.0, 1.5, 5.0]
        assert interp._k_l1_linf(WIDE, [2.0**999, 2.0**1001]) == [2.0**999, 2.0**1000]
        assert weighted_power_integral(WIDE, 1.0, 1.0, 0.0, 2.0**999) == 2.0**999
        # a sum past the largest float is inf
        big = StepFunction((2.0,), (_MAX_FLOAT,))
        assert interp._k_l1_linf(big, [0.5, 1.0, 1.5]) == [_MAX_FLOAT / 2.0, _MAX_FLOAT, INF]

    def test_empty_t_list_and_constants(self):
        assert interp._k_l1_linf(CHI, []) == []
        assert interp._k_l1_linf(StepFunction.constant(2.0), [0.25, 3.0]) == [0.5, 6.0]
        assert interp._k_l1_linf(StepFunction.zero(), [1.0]) == [0.0]


class TestKTableLoop:
    """``interp._k_l1_linf`` against the table loop over ``power_integral``
    it replaced."""

    @given(k_table_cases())
    @settings(max_examples=25, deadline=None)
    def test_corpus_functions(self, case):
        fs, ts = case
        got = interp._k_l1_linf(fs, ts)
        assert_close(got, loop_k_l1_linf(fs, ts))
        # one t at a time: a table of one partial piece, or none
        assert repr([interp._k_l1_linf(fs, [t])[0] for t in ts]) == repr(got)

    @given(st.data(), edge_step_functions())
    @settings(max_examples=40, deadline=None)
    def test_edge_functions(self, data, f):
        try:
            fs = f.rearrange()
        except ValueError:  # the lengths sum past the largest float
            return
        ts = [t for t in data.draw(windows(fs)) if 0.0 < t < INF] + list(_TINY_AND_HUGE_T)
        ts = data.draw(st.permutations(ts + list(fs.breakpoints[:3])))
        got = interp._k_l1_linf(fs, ts)
        assert_close(got, loop_k_l1_linf(fs, ts))
        assert_rounding_bound(fs, ts, got)


class TestKExactArithmetic:
    """K against ``conftest.fraction_k_l1_linf``, the integral in rationals."""

    @given(st.integers(0, 2**20), st.sampled_from([1, 12, 200]))
    @settings(max_examples=40, deadline=None)
    def test_exact_on_dyadic_corpora(self, seed, max_pieces):
        # breakpoints on 2**-10, values on 2**-8 and t on 2**-12 (up to
        # 2**21): every width, product and sum is a float
        corpus = generate_corpus(seed, 4, max_pieces=max_pieces, dyadic=True, positive_tail=True)
        for f in corpus.functions:
            fs = f.rearrange()
            bps = fs.breakpoints
            ts = [2.0**k for k in range(-12, 22)] + [*bps, *(3.25 * b for b in bps[-1:])]
            ts += [(a + b) / 2.0 for a, b in zip((0.0, *bps), bps)]
            want = fraction_k_l1_linf(fs, ts)
            assert list(map(Fraction, interp._k_l1_linf(fs, ts))) == want
            assert [Fraction(k_exact_l1_linf(f, t)) for t in ts[::7]] == want[::7]

    @given(st.data(), edge_step_functions())
    @settings(max_examples=60, deadline=None)
    def test_rounding_bound_on_edge_functions(self, data, f):
        try:
            fs = f.rearrange()
        except ValueError:  # the lengths sum past the largest float
            return
        ts = _draw_ts(data.draw, fs)
        assert_rounding_bound(fs, ts, interp._k_l1_linf(fs, ts))

    def test_float_range_pins(self):
        # hi / lo of the second piece is 1e320: K needs only b - lo
        f = StepFunction((1e-300, 1e20), (2.0, 1.0))
        assert k_exact_l1_linf(f, 1e10) == 1e10 == k_upper_oracle(f, 1e10, L1_LINF)
        assert holmstedt_k(f, 1e10, L1_LINF, 1.0) == 2e10

    def test_holmstedt_first_term_is_k(self, small_corpus):
        # for (L_1, L_inf) Holmstedt's first term is K itself, so the
        # expression is never below K, not even by a rounding
        for f in list(small_corpus)[:20]:
            for t in [*T_GRID.tolist(), *f.breakpoints]:
                assert holmstedt_k(f, t, L1_LINF, 1.0) >= k_exact_l1_linf(f, t)


class TestKShapeProperties:
    def test_monotone_and_concave(self, small_corpus):
        for f in list(small_corpus)[:10]:
            ks = np.array([k_exact_l1_linf(f, t) for t in T_GRID])
            assert np.all(np.diff(ks) >= -1e-12 * ks[:-1])
            over_t = ks / T_GRID
            assert np.all(np.diff(over_t) <= 1e-12 * over_t[:-1])
            mids = [
                k_exact_l1_linf(f, 0.5 * (a + b)) for a, b in zip(T_GRID, T_GRID[1:])
            ]
            assert np.all(np.array(mids) >= 0.5 * (ks[:-1] + ks[1:]) * (1 - 1e-12))

    def test_sandwich_bounds(self, small_corpus):
        for f in list(small_corpus)[:10]:
            k1 = k_exact_l1_linf(f, 1.0)
            cap = intersection_norm(f, L1_LINF)
            for t in T_GRID:
                k = k_exact_l1_linf(f, float(t))
                assert k >= min(1.0, t) * k1 * (1 - 1e-12)
                assert k <= min(1.0, t) * cap * (1 + 1e-12)

    def test_subadditive_exactly(self, small_corpus):
        fs = list(small_corpus)
        for i in range(20):
            f, g = fs[i], fs[(i + 7) % len(fs)]
            for t in (0.1, 1.0, 10.0):
                lhs = k_exact_l1_linf(f + g, t)
                rhs = k_exact_l1_linf(f, t) + k_exact_l1_linf(g, t)
                assert lhs <= rhs * (1 + 1e-12)


class TestHolmstedt:
    def test_indicator_value(self):
        # both terms integrate in closed form: 1/4 + 1/4
        assert holmstedt_k(CHI, 0.25, L1_LINF, 1.0) == pytest.approx(0.5, rel=1e-12)

    def test_zero_function(self):
        assert holmstedt_k(StepFunction.zero(), 1.0, L1_LINF, 1.0) == 0.0

    def test_ratio_to_exact_k_within_two(self, small_corpus):
        lo, hi = INF, -INF
        for f in list(small_corpus)[:20]:
            for t in T_GRID:
                k = k_exact_l1_linf(f, float(t))
                if k == 0.0:
                    continue
                r = holmstedt_k(f, float(t), L1_LINF, 1.0) / k
                lo, hi = min(lo, r), max(hi, r)
                assert 1.0 - 1e-12 <= r <= 2.0 + 1e-12
        assert hi == pytest.approx(2.0, abs=1e-9)  # flat top attains the bound

    def test_finite_couple_regime(self, small_corpus):
        couple = LorentzCouple(LorentzParams(1.0, 1.0), LorentzParams(4.0, 4.0))
        f = list(small_corpus)[0]
        val = holmstedt_k(f, 1.0, couple, 4.0 / 3.0)
        assert 0.0 < val < INF

    def test_theta_tolerance_same_in_both_regimes(self):
        c14 = LorentzCouple(LorentzParams(1.0, 1.0), LorentzParams(4.0, 4.0))
        for couple, theta in ((c14, 4.0 / 3.0), (L1_LINF, 1.0)):
            assert holmstedt_k(CHI, 1.0, couple, theta) > 0.0
            with pytest.raises(ValueError, match="theta"):
                holmstedt_k(CHI, 1.0, couple, theta * (1.0 + 1e-10))

    def test_zero_second_term_and_overflow(self):
        # X0 = L(1/2, inf), X1 = L_inf at theta = 1/2: f* vanishes past t, so
        # the second term is 0 and t**2 = 1e400 is never taken
        couple = LorentzCouple(LorentzParams(0.5, INF), LorentzParams(INF, INF))
        f = StepFunction((1.0,), (1e300,))
        assert holmstedt_k(f, 1e200, couple, 0.5) == 1e300
        # the first term, sup s**2 f*(s) over (0, 1e200), is 1e400
        with pytest.raises(ValueError, match="Holmstedt's expression of f overflows"):
            holmstedt_k(StepFunction((1e200,), (1.0,)), 1e200, couple, 0.5)

    def test_theta_consistency_enforced(self):
        couple = LorentzCouple(LorentzParams(1.0, 1.0), LorentzParams(4.0, 4.0))
        with pytest.raises(ValueError):
            holmstedt_k(CHI, 1.0, couple, 2.0)
        with pytest.raises(ValueError):
            holmstedt_k(CHI, 1.0, L1_LINF, 3.0)


class TestSumAndIntersection:
    def test_intersection_of_indicator(self):
        assert intersection_norm(CHI, L1_LINF) == 1.0

    def test_sum_below_intersection(self, small_corpus):
        # the sum-space norm is K(1, f); for (L_1, L_inf) the oracle attains it
        for f in list(small_corpus)[:10]:
            assert k_upper_oracle(f, 1.0, L1_LINF) <= intersection_norm(f, L1_LINF) * (1 + 1e-12)


class TestAdmissibility:
    def test_basic_true(self):
        assert functor_admissible(FunctorParams(1.0, 1.0, L22))

    def test_r_too_large(self):
        assert not functor_admissible(FunctorParams(1.0, 3.0, L22))

    def test_sup_space_branch(self):
        linf = SpaceDescriptor.for_lorentz(LorentzParams(INF, INF))
        assert functor_admissible(FunctorParams(2.0, 2.0, linf))
        assert not functor_admissible(FunctorParams(3.0, 2.0, linf))

    def test_theta_condition_binding(self):
        # r < p_E but 1/theta + 1/q_E <= 1/r
        space = SpaceDescriptor.for_lorentz(LorentzParams(4.0, 4.0))
        assert not functor_admissible(FunctorParams(8.0, 2.0, space))
        assert functor_admissible(FunctorParams(2.0, 2.0, space))

    def test_admissible_implies_finite_min_power_norm(self):
        thetas = (0.5, 1.0, 4.0 / 3.0, 2.0, 8.0)
        rs = (0.5, 1.0, 2.0, 3.0)
        grids = [LorentzParams(p, q) for p in (0.5, 1.0, 2.0, 4.0) for q in (0.5, 1.0, 2.0, INF)]
        grids.append(LorentzParams(INF, INF))
        for prm in grids:
            space = SpaceDescriptor.for_lorentz(prm)
            for theta in thetas:
                for r in rs:
                    fp = FunctorParams(theta, r, space)
                    if functor_admissible(fp):
                        assert min_power_norm_finite(prm, theta, r), (prm, theta, r)

    @pytest.mark.parametrize("field", ["theta", "r"])
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, INF, "x"])
    def test_invalid_theta_or_r_rejected(self, field, bad):
        kwargs = {"theta": 1.0, "r": 1.0, field: bad}
        with pytest.raises(ValueError):
            FunctorParams(space=L22, **kwargs)

    def test_theta_and_r_stored_as_floats(self):
        fp = FunctorParams(2, 1, L22)
        assert (type(fp.theta), type(fp.r)) == (float, float)

    def test_min_power_norm_degenerate(self):
        assert not min_power_norm_finite(LorentzParams(INF, 2.0), 1.0, 1.0)


class TestFunctorNorm:
    def test_calibration_sqrt_two(self):
        couple = L1_LINF
        enc = functor_norm(CHI, FunctorParams(1.0, 1.0, L22), couple, GridSpec(points_per_decade=256))
        assert enc.contains(math.sqrt(2.0), slack=1e-12)
        assert enc.width <= 1e-3

    def test_zero_function(self):
        enc = functor_norm(StepFunction.zero(), FunctorParams(1.0, 1.0, L22), L1_LINF)
        assert (enc.lo, enc.hi) == (0.0, 0.0)

    def test_scale_equivariance(self, small_corpus):
        f = list(small_corpus)[0]
        fp = FunctorParams(1.0, 1.0, L22)
        grid = GridSpec(points_per_decade=16, span=2.0**12)
        e1 = functor_norm(f, fp, L1_LINF, grid)
        e2 = functor_norm(f.scale(2.0), fp, L1_LINF, grid)
        assert e2.lo == pytest.approx(2.0 * e1.lo, rel=1e-12)
        assert e2.hi == pytest.approx(2.0 * e1.hi, rel=1e-12)

    def test_finite_couple_regime(self, small_corpus):
        couple = LorentzCouple(LorentzParams(1.0, 1.0), LorentzParams(4.0, 4.0))
        fp = FunctorParams(4.0 / 3.0, 1.0, L22)
        grid = GridSpec(points_per_decade=32, span=2.0**16)
        for f in list(small_corpus)[:6]:
            enc = functor_norm(f, fp, couple, grid)
            n = lorentz_norm(f, L22.params)
            assert 0.0 < enc.lo <= enc.hi < INF
            assert 1.0 - 1e-9 <= enc.hi / n <= 8.0  # equivalence with small constants

    def test_inadmissible_rejected_with_condition_in_message(self):
        with pytest.raises(ValueError, match="r < p_E"):
            functor_norm(CHI, FunctorParams(1.0, 3.0, L22), L1_LINF)

    def test_r_beyond_p0_rejected(self):
        with pytest.raises(ValueError, match="r <= p0"):
            functor_norm(CHI, FunctorParams(1.0, 1.5, L22), L1_LINF)

    def test_smaller_r_supported(self, small_corpus):
        # theta = 1 is pinned by the couple; r in (2/3, 1) stays admissible
        f = list(small_corpus)[0]
        grid = GridSpec(points_per_decade=16, span=2.0**12)
        enc = functor_norm(f, FunctorParams(1.0, 0.75, L22), L1_LINF, grid)
        assert 0.0 < enc.lo <= enc.hi < INF

    def test_normed_output_triangle_not_refuted(self, small_corpus):
        # for the normed couple (L1, Linf) and normed E the functor norm is
        # subadditive; enclosures must not certify a violation
        fs = list(small_corpus)
        fp = FunctorParams(1.0, 1.0, L22)
        grid = GridSpec(points_per_decade=16, span=2.0**12)
        for i in range(5):
            f, g = fs[i], fs[i + 5]
            ef = functor_norm(f, fp, L1_LINF, grid)
            eg = functor_norm(g, fp, L1_LINF, grid)
            esum = functor_norm(f + g, fp, L1_LINF, grid)
            assert esum.lo <= (ef.hi + eg.hi) * (1 + 1e-9)


class TestEmbeddingChain:
    COUPLE = LorentzCouple(LorentzParams(1.0, 1.0), LorentzParams(4.0, 4.0))

    def test_intersection_inside_space_inside_sum(self, small_corpus):
        # members of X0 ∩ X1 land in E and in X0 + X1: finiteness cascades
        # (the oracle at t = 1 bounds the sum-space norm K(1, f) from above)
        for f in list(small_corpus)[:15]:
            assert intersection_norm(f, self.COUPLE) < INF
            assert lorentz_norm(f, L22.params) < INF
            assert k_upper_oracle(f, 1.0, self.COUPLE) < INF

    def test_positive_tail_escapes_all_three(self):
        f = StepFunction((1.0,), (3.0,), 1.0)
        assert intersection_norm(f, self.COUPLE) == INF
        assert lorentz_norm(f, L22.params) == INF
        assert k_upper_oracle(f, 1.0, self.COUPLE) == INF


class TestSelectParameters:
    def test_l22(self):
        assert select_parameters(L22) == (1.0, 4.0, pytest.approx(4.0 / 3.0, rel=1e-12))

    def test_sup_space(self):
        linf = SpaceDescriptor.for_lorentz(LorentzParams(INF, INF))
        assert select_parameters(linf) == (1.0, INF, 1.0)

    def test_always_admissible_with_r_p0(self):
        for p, q in ((0.5, 2.0), (1.0, 1.0), (2.0, 0.5), (3.0, 1.0), (INF, INF)):
            space = SpaceDescriptor.for_lorentz(LorentzParams(p, q))
            p0, p1, theta = select_parameters(space)
            assert 0.0 < p0 < p1
            assert functor_admissible(FunctorParams(theta, p0, space))
            assert p0 < space.boyd_lower
            assert p1 > space.boyd_upper or p1 == INF


class TestCoupleValidation:
    def test_degenerate_member_rejected(self):
        with pytest.raises(ValueError):
            LorentzCouple(LorentzParams(1.0, 1.0), LorentzParams(INF, 2.0))

    def test_functor_params_validation(self):
        with pytest.raises(ValueError):
            FunctorParams(0.0, 1.0, L22)
        with pytest.raises(ValueError):
            FunctorParams(1.0, INF, L22)
