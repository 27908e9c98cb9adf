"""Corpus generation and verification drivers: determinism, pass semantics, reports."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rinorms import (
    INF,
    Enclosure,
    LorentzCouple,
    LorentzParams,
    RatioReport,
    SpaceDescriptor,
    StepFunction,
    generate_corpus,
    generate_pairs,
    lorentz_norm,
    verify_hardy_equivalence,
    verify_hardy_pointwise,
    verify_interpolation_identity,
    verify_k_properties,
)
from rinorms import hardy, harness, interp, lorentz, stepfn
from rinorms.harness import (
    DEFAULT_GRID,
    GridSpec,
    default_check_reports,
    reports_to_csv,
    reports_to_json,
)
from rinorms.interp import FunctorParams, _check_functor

from conftest import (
    golden,
    in_fresh_process,
    loop_verify_k_properties,
    ref_envelope_norm,
    ref_functor_norm,
    ref_hardy_lower,
    ref_hardy_upper,
)

COARSE = GridSpec(points_per_decade=16, span=2.0**12)
L22 = SpaceDescriptor.for_lorentz(LorentzParams(2.0, 2.0))


class TestCorpus:
    def test_reproducible_from_seed(self):
        assert generate_corpus(5, 40).functions == generate_corpus(5, 40).functions

    def test_different_seeds_differ(self):
        assert generate_corpus(5, 40).functions != generate_corpus(6, 40).functions

    def test_size_zero_rejected(self):
        with pytest.raises(ValueError):
            generate_corpus(1, 0)

    def test_max_pieces_zero_rejected(self):
        with pytest.raises(ValueError) as err:
            generate_corpus(7, 10, max_pieces=0)
        assert str(err.value) == "max_pieces must be >= 1"

    def test_report_rejects_an_inverted_ratio_range(self):
        with pytest.raises(ValueError) as err:
            RatioReport("lemma10", "cfg", 1, 2.0, 1.0, 0.0, 0, True)
        assert str(err.value) == "min_ratio must not exceed max_ratio"

    def test_all_members_nonzero(self, small_corpus):
        assert all(not f.is_zero for f in small_corpus)

    def test_compact_support_members_have_finite_norms(self, small_corpus):
        for f in small_corpus:
            for prm in (LorentzParams(2.0, 2.0), LorentzParams(0.5, 1.0)):
                assert 0.0 < lorentz_norm(f, prm) < INF

    def test_positive_tail_flag(self):
        corpus = generate_corpus(3, 40, positive_tail=True)
        assert any(f.tail > 0.0 for f in corpus)

    def test_dyadic_members_have_dyadic_data(self, dyadic_corpus):
        for f in dyadic_corpus:
            assert all((b * 1024.0).is_integer() for b in f.breakpoints)
            assert all((v * 256.0).is_integer() for v in f.values)


class TestPointwiseDriver:
    def test_upper_configs_pass(self, small_corpus):
        for cfg in ({"u": 1.0, "w": 1.0}, {"u": 1.0, "w": INF}, {"u": 2.0, "w": 1.0}):
            rep = verify_hardy_pointwise(small_corpus, grid_spec=COARSE, **cfg)
            assert rep.passed and rep.violations == 0
            assert rep.min_ratio >= 1.0 - 1e-12

    def test_lower_sup_config_passes(self, small_corpus):
        rep = verify_hardy_pointwise(small_corpus, v=3.0, w=INF, grid_spec=COARSE)
        assert rep.passed

    def test_lower_integral_config_reports_sharp_violations(self, small_corpus):
        # the doubled-argument bound fails without its constant for w < v;
        # the driver must surface that honestly, witness included
        rep = verify_hardy_pointwise(small_corpus, v=2.0, w=1.0, grid_spec=COARSE)
        assert not rep.passed and rep.violations > 0
        assert rep.min_ratio >= 2.0 * (math.sqrt(2.0) - 1.0) - 1e-9
        witness = json.loads(rep.witness)
        f = StepFunction.from_dict(witness["function"])
        from rinorms import hardy_lower

        assert hardy_lower(f, 2.0, 1.0)(witness["t"]) < f.rearrange()(2.0 * witness["t"])

    def test_requires_exactly_one_kind(self, small_corpus):
        with pytest.raises(ValueError):
            verify_hardy_pointwise(small_corpus, u=1.0, v=2.0, w=1.0)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            verify_hardy_pointwise([], u=1.0, w=1.0)


class TestEquivalenceDriver:
    def test_bounded_configs_pass(self, small_corpus):
        for cfg in ({"u": 1.0, "w": 1.0}, {"v": 3.0, "w": 2.0}):
            rep = verify_hardy_equivalence(small_corpus, L22, grid_spec=COARSE, **cfg)
            assert rep.passed
            assert 1.0 - 1e-6 <= rep.min_ratio
            assert rep.max_ratio < 64.0
            assert rep.extras["diverged"] == 0

    def test_boundary_divergence_detected(self, small_corpus):
        rep = verify_hardy_equivalence(small_corpus, L22, u=2.0, w=1.0, grid_spec=COARSE)
        assert rep.passed
        assert rep.extras["diverged"] == rep.size
        # the second member's head coefficient 2e200, whose square
        # overflows, does not hide that its tail law diverges
        corpus = [StepFunction((1.0, 2.0), (3.0, 1.0)), StepFunction((1.0,), (1e200,))]
        rep = verify_hardy_equivalence(corpus, L22, u=2.0, w=1.0)
        assert rep.passed
        assert rep.extras["diverged"] == 2

    def test_boundary_builds_no_interval_terms(self, small_corpus, monkeypatch):
        # every member diverges on both sides, so neither side's interval
        # terms are worth building
        monkeypatch.setattr(hardy, "_split_terms", None)
        rep = verify_hardy_equivalence(small_corpus, L22, u=2.0, w=1.0, grid_spec=COARSE)
        assert rep.extras["diverged"] == rep.size

    def test_ratio_bound_enforced(self, small_corpus):
        rep = verify_hardy_equivalence(
            small_corpus, L22, u=1.0, w=1.0, ratio_bound=1.01, grid_spec=COARSE
        )
        assert not rep.passed


class TestInterpolationDriver:
    def test_identity_configs_pass(self, small_corpus):
        couple = LorentzCouple(LorentzParams(1.0, 1.0), LorentzParams(4.0, 4.0))
        rep = verify_interpolation_identity(
            small_corpus, L22, couple, 4.0 / 3.0, grid_spec=COARSE
        )
        assert rep.passed
        assert rep.extras["spread"] <= 64.0

    def test_calibration_runs(self, small_corpus):
        couple = LorentzCouple(LorentzParams(1.0, 1.0), LorentzParams(INF, INF))
        rep = verify_interpolation_identity(
            list(small_corpus)[:10], L22, couple, 1.0, grid_spec=COARSE, calibrate=True
        )
        assert rep.passed
        assert "calibration" in rep.extras

    def test_calibration_is_evaluated_once_per_configuration(self, small_corpus, monkeypatch):
        calls = []
        functor_norm = harness.functor_norm

        def counting(f, fp, couple, grid_spec):
            calls.append(grid_spec)
            return functor_norm(f, fp, couple, grid_spec)

        monkeypatch.setattr(harness, "functor_norm", counting)
        couple = LorentzCouple(LorentzParams(1.0, 1.0), LorentzParams(INF, INF))
        corpus = list(small_corpus)[:4]
        reports = [
            verify_interpolation_identity(corpus, L22, couple, 1.0, grid_spec=grid, calibrate=True)
            for grid in (COARSE, COARSE, GridSpec(points_per_decade=8, span=COARSE.span), DEFAULT_GRID)
        ]
        assert calls == [GridSpec(points_per_decade=256, span=span) for span in (COARSE.span, DEFAULT_GRID.span)]
        assert len({r.extras["calibration"] for r in reports[:3]}) == 1


class TestVerdictBranches:
    """Verdict paths of thm11 and thm15 that no real corpus reaches, forced
    with patched kernels on a two-member corpus whose real reports pass:
    the pass cell, the violation count and the witness."""

    CORPUS = (StepFunction.indicator(0.0, 1.0), StepFunction((1.0, 2.0), (3.0, 1.0)))
    C11_INF = LorentzCouple(LorentzParams(1.0, 1.0), LorentzParams(INF, INF))

    def equivalence(self):
        return verify_hardy_equivalence(self.CORPUS, L22, u=1.0, w=1.0, grid_spec=COARSE)

    def interpolation(self):
        return verify_interpolation_identity(self.CORPUS, L22, self.C11_INF, 1.0, grid_spec=COARSE, calibrate=True)

    def test_the_real_reports_pass(self):
        assert self.equivalence().passed and self.interpolation().passed

    def test_thm11_infinite_enclosure_where_predicted_bounded(self, monkeypatch):
        monkeypatch.setattr(harness, "_norm_block", lambda env, params: [Enclosure(1.0, INF)] * env.goff[:-1].size)
        rep = self.equivalence()
        assert rep.extras["expected_bounded"] and rep.extras["diverged"] == 2
        assert not rep.passed and rep.violations == 2
        f = self.CORPUS[0]
        assert json.loads(rep.witness) == {"function": f.to_dict(), "norm": lorentz_norm(f, L22.params)}

    def test_thm11_floor_note(self, monkeypatch):
        norm_block = harness._norm_block

        def halved(env, params):
            return [Enclosure(e.lo / 2.0, e.hi / 2.0) for e in norm_block(env, params)]

        monkeypatch.setattr(harness, "_norm_block", halved)
        rep = self.equivalence()
        assert rep.min_ratio < 1.0 - harness.EQUIV_FLOOR_SLACK
        assert not rep.passed and rep.violations == 0
        assert json.loads(rep.witness) == {"floor": rep.min_ratio}

    @pytest.mark.parametrize("enc", [Enclosure(1.0, INF), Enclosure(0.0, 0.0)], ids=["infinite", "zero"])
    def test_thm15_infinite_or_zero_enclosure(self, monkeypatch, enc):
        monkeypatch.setattr(harness, "_functor_block", lambda blk, fp, couple: [enc] * blk.size)
        rep = self.interpolation()
        assert not rep.passed and rep.violations == 2
        assert json.loads(rep.witness) == {"function": self.CORPUS[0].to_dict(), "enclosure": str(enc)}

    def test_thm15_calibration_failure(self, monkeypatch):
        off = Enclosure(1.0, 1.0)  # misses sqrt(2)
        monkeypatch.setattr(harness, "_calibration", lambda fp, couple, span: off)
        rep = self.interpolation()
        assert not rep.passed and rep.violations == 0
        assert rep.extras["calibration"] == str(off)
        assert json.loads(rep.witness) == {"calibration": str(off)}


class TestKDriver:
    def test_battery_passes(self, small_corpus):
        rep = verify_k_properties(list(small_corpus), n_pairs=60)
        assert rep.passed and rep.violations == 0
        assert rep.min_ratio >= 1.0 - 1e-12
        assert rep.max_ratio <= 2.0 + 1e-12

    @pytest.mark.parametrize("n_pairs", [0, -3])
    def test_empty_battery_rejected(self, small_corpus, n_pairs):
        with pytest.raises(ValueError, match="n_pairs must be positive"):
            verify_k_properties(list(small_corpus), n_pairs=n_pairs)

    @pytest.mark.parametrize("n_pairs", [0, -2])
    def test_generate_pairs_names_its_argument(self, n_pairs):
        with pytest.raises(ValueError, match=f"^n_pairs must be positive, got {n_pairs}$"):
            generate_pairs(0, n_pairs)

    @pytest.mark.parametrize("dyadic", [False, True], ids=["positive-tail", "dyadic-positive-tail"])
    def test_positive_tail_golden(self, dyadic):
        # Pinned report bytes on corpora with positive tails, where K at t
        # past the last breakpoint keeps the tail's term (the two corpora
        # give the same bytes).  Recorded on Python 3.11 with numpy 2.4.
        corpus = generate_corpus(7, 60, positive_tail=True, dyadic=dyadic)
        text = reports_to_json([verify_k_properties(corpus, n_pairs=120)])
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "08f3167598809dc0ee22b5b3e64802b1f7a7fda1cfcb6410980301fbecd46e18"
        )

    def test_k_at_one_is_a_grid_point(self, small_corpus, monkeypatch):
        # K(1, f) is read at grid point 16, which np.geomspace gives as
        # exactly 1.0; a numpy that moves it stops the battery
        assert np.geomspace(2.0**-8, 2.0**8, 33)[16] == 1.0
        geomspace = np.geomspace
        monkeypatch.setattr(harness.np, "geomspace", lambda *args: np.nextafter(geomspace(*args), 2.0))
        with pytest.raises(RuntimeError, match=r"np.geomspace\(2\*\*-8, 2\*\*8, 33\)\[16\] is 1.0000000000000002"):
            verify_k_properties(list(small_corpus), n_pairs=5)

    def test_one_k_table_per_function_and_no_piecewise_k(self, small_corpus, monkeypatch):
        # each block of pairs makes one K kernel call, at one shared row
        # (the grid, which holds 1 and each pair's t, and its midpoints),
        # for its members and the f + g of its pairs; the piecewise
        # integral runs only inside the member records' norms, never for K
        # itself nor for Holmstedt's first term, which is the K the rows
        # already hold
        calls = []
        kernel = interp._k_l1_linf_block

        def counting_kernel(fss, ts):
            calls.append((len(fss), len(ts)))
            return kernel(fss, ts)

        monkeypatch.setattr(interp, "_k_l1_linf_block", counting_kernel)
        monkeypatch.setattr(harness, "_k_l1_linf_block", counting_kernel)
        monkeypatch.setattr(harness, "_PAIR_BLOCK", 16)
        inside = [0]
        callers = Counter()
        norm = harness._Member.norm

        def entered(*args, **kwargs):
            inside[0] += 1
            try:
                return norm(*args, **kwargs)
            finally:
                inside[0] -= 1

        monkeypatch.setattr(harness._Member, "norm", entered)
        integral = stepfn.weighted_power_integral

        def counting_integral(*args, **kwargs):
            callers["norms" if inside[0] else "elsewhere"] += 1
            return integral(*args, **kwargs)

        for module in (stepfn, lorentz, interp):
            monkeypatch.setattr(module, "weighted_power_integral", counting_integral)
        n_pairs = 40
        rep = verify_k_properties(list(small_corpus), n_pairs=n_pairs)
        assert rep.passed
        blocks = -(-n_pairs // 16)
        assert len(calls) == blocks
        assert [points for _, points in calls] == [33 + 32] * blocks
        # a block's functions: its pairs' f and the last pair's g, then f + g per pair
        assert sum(functions for functions, _ in calls) == 2 * n_pairs + blocks
        assert callers["elsewhere"] == 0 and callers["norms"] >= n_pairs


# corpus keyword sets on which the batched K battery must match the pair loop
_K_CORPORA = {"default": {}, "dyadic": {"dyadic": True}, "positive-tail": {"positive_tail": True}}


class TestBatchedKBattery:
    """The batched K battery against the pair-by-pair loop in conftest, byte for byte."""

    @pytest.fixture(params=[None, 1, 7], ids=["one-block", "blocks-of-1", "blocks-of-7"])
    def pair_block(self, request, monkeypatch):
        if request.param is not None:
            monkeypatch.setattr(harness, "_PAIR_BLOCK", request.param)

    @staticmethod
    def both(corpus, **kwargs):
        got = reports_to_json([verify_k_properties(corpus, **kwargs)])
        want = reports_to_json([loop_verify_k_properties(corpus, **kwargs)])
        return got, want

    @pytest.mark.parametrize("kind", sorted(_K_CORPORA))
    @pytest.mark.parametrize("seed,size,n_pairs", [(7, 60, 200), (11, 5, 70)])
    def test_report_matches_the_pair_loop(self, pair_block, kind, seed, size, n_pairs):
        corpus = generate_corpus(seed, size, **_K_CORPORA[kind])
        got, want = self.both(corpus, n_pairs=n_pairs)
        assert got == want

    @pytest.mark.parametrize(
        "kwargs",
        [{"oracle_tol": -1.0}, {"slack": -0.25}, {"slack": -1e-3}, {"oracle_tol": -1.0, "slack": -1e-3}],
        ids=str,
    )
    def test_forced_violations_match_the_pair_loop(self, pair_block, kwargs):
        corpus = generate_corpus(9, 40, positive_tail=True)
        got, want = self.both(corpus, n_pairs=90, **kwargs)
        assert json.loads(got)[0]["violations"] >= 90  # at least one per pair
        assert got == want

    # the pair loop checks b2's infinite K values before its norms raise
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("order", ["norm-first", "sum-first", "same-pair"])
    def test_first_exception_matches_the_pair_loop(self, pair_block, monkeypatch, order):
        # huge's L_1 norm overflows (raised at the norms of its pair); b + c
        # overflows (raised at K of f + g in b's pair); in b2's pair both
        # would raise, and the norms come first
        base = list(generate_corpus(3, 16))
        huge = StepFunction((1e10,), (1e300,))
        b, c = StepFunction((1e-10,), (1.5e308,)), StepFunction((2e-10,), (1.2e308,))
        b2 = StepFunction((1e10,), (1.5e308,))
        first, second = {
            "norm-first": ([huge], [b, c]),
            "sum-first": ([b, c], [huge]),
            "same-pair": ([b2, c], []),
        }[order]
        corpus = base[:11] + first + base[11:] + second
        calls = []
        kernel = harness._k_l1_linf_block
        monkeypatch.setattr(harness, "_k_l1_linf_block", lambda *args: calls.append(1) or kernel(*args))
        messages = []
        for driver in (verify_k_properties, loop_verify_k_properties):
            with pytest.raises(ValueError) as info:
                driver(corpus, n_pairs=40, slack=-1e-3)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert ("Lorentz norm" in messages[0]) == (order != "sum-first")
        # pair 11 raises in its block's pair loop, before that block's one
        # kernel call; every block before it made its call
        assert len(calls) == 11 // harness._PAIR_BLOCK


class TestReports:
    def test_csv_shape_and_determinism(self, small_corpus):
        reps = [
            verify_hardy_pointwise(small_corpus, u=1.0, w=1.0, grid_spec=COARSE),
            verify_k_properties(list(small_corpus), n_pairs=20),
        ]
        text = reports_to_csv(reps)
        again = reports_to_csv(reps)
        assert text == again
        rows = list(csv.DictReader(io.StringIO(text)))
        assert [r["check"] for r in rows] == ["lemma10", "kprops"]
        assert rows[0]["pass"] == "True"

    def test_json_round_trip(self, small_corpus):
        reps = [verify_k_properties(list(small_corpus), n_pairs=20)]
        payload = json.loads(reports_to_json(reps))
        assert payload[0]["check"] == "kprops"
        assert payload[0]["pass"] is True

    def test_default_check_registry(self):
        reports = default_check_reports("kprops", seed=3, size=30)
        assert len(reports) == 1 and reports[0].check == "kprops"
        with pytest.raises(ValueError):
            default_check_reports("nonsense", seed=3, size=30)

    def test_deterministic_across_runs(self):
        a = reports_to_csv(default_check_reports("kprops", seed=3, size=30))
        b = reports_to_csv(default_check_reports("kprops", seed=3, size=30))
        assert a == b

    def test_all_checks_golden(self):
        # Pinned report bytes for `verify all --seed 7 --corpus-size 40`; any
        # refactor of the drivers must reproduce them exactly.  The digests
        # were recorded on Python 3.11 with numpy 2.4.
        reports = default_check_reports("all", seed=7, size=40)
        text = reports_to_csv(reports)
        assert text == GOLDEN_ALL_SEED7_SIZE40
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "63160e1b1d6cae1ddda3e33cd7daa8d9be0fb067caa817cef0c8582ffa21a3c1"
        )
        assert hashlib.sha256(reports_to_json(reports).encode()).hexdigest() == (
            "d15b322bb7f64aa6a82338f75972db5f5e8faf7944f6e4b352180d53eaea0c08"
        )

    def test_all_checks_golden_on_a_finer_grid(self):
        # Pinned report bytes on a non-default grid: per-grid work that the
        # scans share must stay keyed by its GridSpec.  Recorded on Python
        # 3.11 with numpy 2.4.
        reports = default_check_reports("all", seed=11, size=300, grid_spec=GridSpec(points_per_decade=16))
        assert reports_to_csv(reports) == golden("verify_all_seed11_size300_grid16.csv")
        assert reports_to_json(reports) == golden("verify_all_seed11_size300_grid16.json")


def _capture_corpus(monkeypatch, **kwargs) -> list:
    """Make ``default_check_reports`` hand back the corpus it draws, drawn
    with ``kwargs`` added."""
    drawn = []
    generate = harness.generate_corpus

    def capturing(*args, **more):
        drawn.append(generate(*args, **more, **kwargs))
        return drawn[-1]

    monkeypatch.setattr(harness, "generate_corpus", capturing)
    return drawn


class TestSharedMemberWork:
    """``default_check_reports`` does each member's f*, grid and norm once."""

    def test_one_rearrangement_per_member(self, monkeypatch):
        drawn = _capture_corpus(monkeypatch)
        receivers = Counter()
        rearrange = StepFunction.rearrange

        def counting(self):
            receivers[id(self)] += 1
            return rearrange(self)

        monkeypatch.setattr(StepFunction, "rearrange", counting)
        default_check_reports("all", seed=5, size=12, grid_spec=COARSE)
        (corpus,) = drawn
        # a member that is its own f* also receives the norms' own
        # fs.rearrange() calls, so only the others are counted
        moved = [f for f in corpus if rearrange(f) is not f]
        assert moved
        assert [receivers[id(f)] for f in moved] == [1] * len(moved)

    @pytest.mark.parametrize("tails", [False, True], ids=["default", "positive-tail"])
    def test_one_grid_per_member_and_grid_spec(self, monkeypatch, tails):
        drawn = _capture_corpus(monkeypatch, positive_tail=tails)
        builds = Counter()
        build_many = GridSpec.build_many  # GridSpec.build is its one-set case

        def counting(self, anchor_sets):
            for anchors in anchor_sets:
                builds[(self, tuple(sorted(map(float, anchors))))] += 1
            return build_many(self, anchor_sets)

        monkeypatch.setattr(GridSpec, "build_many", counting)
        default_check_reports("all", seed=5, size=12, grid_spec=COARSE)
        (corpus,) = drawn
        # each set of members the checks take walks its own blocks, so a
        # member's grid is built once per set that holds it; a member of a
        # positive-tail corpus with infinite norm in E sits out the checks on E
        records = [harness._Member(f) for f in corpus]
        spaces = [None, harness._L22()] + [space for space, *_ in harness._interpolation_configs()]
        taken = {tuple(m.takes_part(space) for m in records) for space in spaces}
        expected = Counter(
            (COARSE, m.fs.breakpoints) for members in taken for m, take in zip(records, members) if take
        )
        assert len(taken) == (2 if tails else 1)
        # the calibration instance: the unit indicator on its own fine grid
        expected[(GridSpec(points_per_decade=256, span=COARSE.span), (1.0,))] += 1
        assert builds == expected

    @pytest.mark.parametrize("w, inner", [(INF, [INF]), (1.0, [1.0, INF])])
    def test_pointwise_upper_builds_each_envelope_once(self, small_corpus, monkeypatch, w, inner):
        # one upper-family kernel call per inner exponent and block, and the
        # blocks cover the corpus once, in order
        calls = []
        upper_block = hardy._upper_block

        def counting(blk, u, w):
            calls.append((w, blk.grid.tobytes()))
            return upper_block(blk, u, w)

        monkeypatch.setattr(hardy, "_upper_block", counting)
        monkeypatch.setattr(harness, "_BLOCK_POINTS", 2000)
        verify_hardy_pointwise(small_corpus, u=1.0, w=w, grid_spec=COARSE)
        blocks = [g for x, g in calls if x == inner[0]]
        assert calls == [(x, g) for g in blocks for x in inner]
        assert 1 < len(blocks) < len(small_corpus)
        grids = [COARSE.build(f.rearrange().breakpoints) for f in small_corpus]
        assert b"".join(blocks) == np.concatenate(grids).tobytes()
        # a block closes at the member whose window count brings it to 2000
        # points or more
        sizes = iter((g.size, COARSE._window(f.rearrange().breakpoints)[2]) for f, g in zip(small_corpus, grids))
        for j, block in enumerate(blocks):
            members = []
            while 8 * sum(size for size, _ in members) < len(block):
                members.append(next(sizes))
            counts = [n for _, n in members]
            assert sum(counts[:-1]) < 2000
            assert sum(counts) >= 2000 or j == len(blocks) - 1

    @pytest.mark.parametrize("check", ["lemma10", "thm11", "thm15"])
    def test_one_block_and_one_envelope_per_block_for_all_configurations(self, monkeypatch, check):
        # every default configuration takes every member of this corpus, so
        # they form one group: its blocks cover the corpus once, in order,
        # and each Hardy average is computed once per block however many
        # configurations read it (thm15's H^(1,1) serves four of its five)
        drawn = _capture_corpus(monkeypatch)
        monkeypatch.setattr(harness, "_BLOCK_POINTS", 2000)
        blocks = []
        block = harness._Block

        def counting_block(fss, grid_spec):
            blk = block(fss, grid_spec)
            blocks.append(blk.grid.tobytes())
            return blk

        averages = Counter()
        kernels = {"upper": hardy._upper_block, "lower": hardy._lower_block}

        def counting(kind):
            def kernel(blk, order, w):
                averages[(kind, order, w, blk.grid.tobytes())] += 1
                return kernels[kind](blk, order, w)

            return kernel

        monkeypatch.setattr(harness, "_Block", counting_block)
        for kind in kernels:
            monkeypatch.setattr(hardy, f"_{kind}_block", counting(kind))
        default_check_reports(check, seed=5, size=40, grid_spec=COARSE)
        (corpus,) = drawn
        assert 1 < len(blocks) < len(corpus)
        assert b"".join(blocks) == np.concatenate([COARSE.build(f.rearrange().breakpoints) for f in corpus]).tobytes()
        assert set(averages.values()) == {1}
        per_block = Counter(key[:3] for key in averages if key[3] in blocks)
        assert set(per_block.values()) == {len(blocks)}
        if check == "thm15":
            assert ("upper", 1.0, 1.0) in per_block

    def test_passing_scans_build_one_scan(self, small_corpus, monkeypatch):
        scans = []
        scan = harness._Scan

        def spy(*args, **kwargs):
            scans.append(scan(*args, **kwargs))
            return scans[-1]

        monkeypatch.setattr(harness, "_Scan", spy)
        c11_inf = LorentzCouple(LorentzParams(1.0, 1.0), LorentzParams(INF, INF))
        runs = [
            lambda: verify_hardy_pointwise(small_corpus, u=1.0, w=1.0, grid_spec=COARSE),
            lambda: verify_hardy_pointwise(small_corpus, v=2.0, w=1.0, grid_spec=COARSE),
            lambda: verify_hardy_equivalence(small_corpus, L22, v=3.0, w=2.0, grid_spec=COARSE),
            lambda: verify_interpolation_identity(small_corpus, L22, c11_inf, 1.0, grid_spec=COARSE),
        ]
        for run in runs:
            scans.clear()
            run()
            assert len(scans) == 1


def _traced_peak(run) -> int:
    """The tracemalloc peak, in bytes, of ``run()``."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestScanFootprint:
    """What a Hardy scan costs besides its arithmetic: memory, page faults, imports."""

    def test_memory_grows_by_the_member_records_only(self):
        # grids live with their block: what grows with the corpus is f, f*
        # and the norms of each member (a grid of the default spec is ~7 KB)
        small, large = 250, 1000
        peaks = [_traced_peak(lambda n=n: default_check_reports("thm11", 7, n)) for n in (small, large)]
        assert (peaks[1] - peaks[0]) / (large - small) < 3000

    @pytest.mark.skipif(harness._glibc_mallopt() is None, reason="glibc malloc only")
    def test_repeated_scans_reuse_the_freed_heap(self):
        # a fresh process, as `rinorms verify` runs: here the test runner's
        # own live allocations would pin the heap top, trimmed or not
        code = (
            "import resource\n"
            "from rinorms.harness import default_check_reports\n"
            "default_check_reports('thm15', 7, 12)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "default_check_reports('thm15', 7, 12)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        assert int(in_fresh_process(code)) < 100

    def test_heap_thresholds_are_set_through_mallopt(self, monkeypatch):
        calls = []
        want = default_check_reports("thm11", 7, 12)
        monkeypatch.setattr(harness, "_glibc_mallopt", lambda: lambda param, value: calls.append((param, value)))
        assert default_check_reports("thm11", 7, 12) == want
        # M_TRIM_THRESHOLD, then M_MMAP_THRESHOLD, once for the one group walk
        assert calls == [(-1, 64 << 20), (-3, 32 << 20)]
        # another C library: nothing is set and the reports stay
        monkeypatch.setattr(harness, "_glibc_mallopt", lambda: None)
        assert default_check_reports("thm11", 7, 12) == want
        assert len(calls) == 2

    @pytest.mark.parametrize("answer", [None, ValueError, OSError], ids=["unset", "unknown-name", "unsupported"])
    def test_no_mallopt_off_glibc(self, monkeypatch, answer):
        def confstr(name):
            if answer is None:
                return None
            raise answer(name)

        monkeypatch.setattr(os, "confstr", confstr)
        assert harness._glibc_mallopt() is None

    @pytest.mark.parametrize("check", ["lemma10", "thm11", "thm15"])
    def test_scans_leave_numpy_ma_unimported(self, check):
        # np.unique imports numpy.ma on its first call, which costs a fresh
        # process more than 10 ms
        code = (
            "import sys\n"
            "from rinorms.harness import default_check_reports\n"
            f"default_check_reports({check!r}, 7, 12)\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        assert in_fresh_process(code) == "False\n"


def _public_reports(corpus, grid_spec, check: str = "all") -> list:
    """The default configurations of ``check``, each run by its public
    driver on a plain corpus, one after another."""
    l22 = SpaceDescriptor.for_lorentz(LorentzParams(2.0, 2.0))
    reports = []
    if check in ("lemma10", "all"):
        reports += [
            verify_hardy_pointwise(corpus, grid_spec=grid_spec, **cfg)
            for cfg in harness._POINTWISE_CONFIGS
        ]
    if check in ("thm11", "all"):
        reports += [
            verify_hardy_equivalence(corpus, l22, grid_spec=grid_spec, **cfg)
            for cfg in harness._EQUIVALENCE_CONFIGS
        ]
    if check in ("thm15", "all"):
        reports += [
            verify_interpolation_identity(corpus, space, couple, theta, grid_spec=grid_spec, calibrate=cal)
            for space, couple, theta, cal in harness._interpolation_configs()
        ]
    if check in ("kprops", "all"):
        reports.append(verify_k_properties(corpus))
    return reports


class TestSharedPathMatchesPublicDrivers:
    @pytest.mark.parametrize("grid_spec", [DEFAULT_GRID, GridSpec(points_per_decade=16)], ids=["default-grid", "16-per-decade"])
    @pytest.mark.parametrize(
        "kind", [{}, {"dyadic": True}, {"positive_tail": True}], ids=["default", "dyadic", "positive-tail"]
    )
    def test_reports_equal_field_by_field(self, monkeypatch, kind, grid_spec):
        corpus = generate_corpus(7, 16, **kind)
        monkeypatch.setattr(harness, "generate_corpus", lambda seed, size: corpus)
        shared = default_check_reports("all", seed=7, size=16, grid_spec=grid_spec)
        # dataclass equality: every field, the witness and extras included
        assert _public_reports(tuple(corpus), grid_spec) == shared

    def test_positive_tail_corpus_exercises_divergence_and_filtering(self):
        corpus = generate_corpus(7, 16, positive_tail=True)
        assert any(f.tail > 0.0 for f in corpus)
        reports = _public_reports(tuple(corpus), COARSE)
        # lemma10's lower configurations meet diverged envelopes; members of
        # infinite L(2,2) norm are left out of thm11
        thm11 = [r for r in reports if r.check == "thm11"]
        assert all(r.size < len(corpus) for r in thm11)
        assert any(r.max_ratio == INF for r in reports if r.check == "lemma10" and r.config.startswith("v="))


def _reference_pointwise(corpus, grid_spec, u=None, v=None, w=None):
    """lemma10, one member at a time on the conftest reference."""
    kind, order = harness._averaging_kind(u, v)
    scan, records = harness._Scan(), harness._records(corpus)
    a, b = float(order), float(w)
    for m in records:
        fs, grid = m.fs, grid_spec.build(m.fs.breakpoints)
        if kind == "upper":
            env_w = ref_hardy_upper(fs, a, b, grid)
            lhs_inf = env_w.values if b == INF else ref_hardy_upper(fs, a, INF, grid).values
            checks = [(env_w.values, lhs_inf), (lhs_inf, fs(grid))]
        else:
            env = ref_hardy_lower(fs, a, b, grid)
            checks = [(env.values, fs(2.0 * grid))]
        for lhs, low in checks:
            mask = low > 0.0
            if mask.any():
                ratios = lhs[mask] / low[mask]
                scan.observe(float(ratios.min()), float(ratios.max()))
            bad = lhs < low * (1.0 - harness.POINTWISE_SLACK)
            if bad.any():
                t_bad = float(grid[np.argmax(bad)])
                scan.violation(int(bad.sum()), function=m.f.to_dict(), t=t_bad)
    label = "u" if kind == "upper" else "v"
    return scan.report("lemma10", f"{label}={order},w={w}", size=len(records))


def _reference_members(scan, records, space):
    for m in records:
        n = m.norm(space.params)
        if 0.0 < n < INF:
            scan.used += 1
            yield m, n
    if not scan.used:
        raise ValueError("corpus has no member with finite nonzero norm in E")


def _reference_equivalence(corpus, space, grid_spec, u=None, v=None, w=None):
    """thm11, one member at a time on the conftest reference."""
    kind, order = harness._averaging_kind(u, v)
    scan, records = harness._Scan(empty_ratio=INF), harness._records(corpus)
    expected = harness.predicted_bounded(space, kind, order, w)
    boundary = kind == "upper" and w < INF and order == space.boyd_lower
    diverged, min_ratio_lo = 0, INF
    for m, n in _reference_members(scan, records, space):
        grid = grid_spec.build(m.fs.breakpoints)
        if kind == "upper":
            env = ref_hardy_upper(m.fs, float(order), float(w), grid)
        else:
            env = ref_hardy_lower(m.fs, float(order), float(w), grid)
        enc = ref_envelope_norm(env, space.params)
        if enc.hi == INF:
            diverged += 1
            if not boundary and expected:
                scan.violation(function=m.f.to_dict(), norm=n)
            continue
        scan.observe(enc.hi / n, enc.hi / n, enc.relative_width)
        min_ratio_lo = min(min_ratio_lo, enc.lo / n)
    min_r, max_r = scan.ratio_range()
    if boundary:
        passed = diverged == scan.used
    else:
        floor_ok = min_r >= 1.0 - harness.EQUIV_FLOOR_SLACK
        passed = expected and scan.violations == 0 and diverged == 0 and floor_ok and max_r <= 64.0
        if not floor_ok:
            scan.note(floor=min_r)
    extras = {"diverged": diverged, "min_ratio_lo": min_ratio_lo, "expected_bounded": expected}
    return scan.report("thm11", f"E={space},{kind} {order},w={w}", size=scan.used, passed=passed, extras=extras)


def _reference_interpolation(corpus, space, couple, theta, grid_spec, calibrate):
    """thm15, one member at a time on the conftest reference."""
    scan, records = harness._Scan(empty_ratio=INF), harness._records(corpus)
    fp = FunctorParams(theta=theta, r=couple.params0.p, space=space)
    _check_functor(fp, couple)
    for m, n in _reference_members(scan, records, space):
        enc = ref_functor_norm(m.fs, fp, couple, grid_spec.build(m.fs.breakpoints))
        if enc.hi == INF or enc.lo <= 0.0:
            scan.violation(function=m.f.to_dict(), enclosure=str(enc))
            continue
        scan.observe(enc.lo / n, enc.hi / n, enc.relative_width)
    min_r, max_r = scan.ratio_range()
    spread = max_r / min_r if 0.0 < min_r < INF else INF
    passed = scan.violations == 0 and spread <= 64.0
    extras = {"spread": spread}
    if calibrate:
        spec = GridSpec(points_per_decade=256, span=grid_spec.span)
        chi = StepFunction.indicator(0.0, 1.0)
        enc = ref_functor_norm(chi, fp, couple, spec.build(chi.breakpoints))
        extras["calibration"] = str(enc)
        if not (enc.contains(math.sqrt(2.0), slack=1e-12) and enc.width <= 1e-3):
            passed = False
            scan.note(calibration=str(enc))
    return scan.report("thm15", f"E={space},couple={couple},theta={theta}", size=scan.used, passed=passed, extras=extras)


def _reference_hardy_reports(corpus, grid_spec) -> list:
    """The default lemma10, thm11 and thm15 configurations on the per-member reference."""
    reports = [_reference_pointwise(corpus, grid_spec, **cfg) for cfg in harness._POINTWISE_CONFIGS]
    reports += [_reference_equivalence(corpus, L22, grid_spec, **cfg) for cfg in harness._EQUIVALENCE_CONFIGS]
    reports += [
        _reference_interpolation(corpus, space, couple, theta, grid_spec, cal)
        for space, couple, theta, cal in harness._interpolation_configs()
    ]
    return reports


def _scan_outcome(run) -> str:
    """``repr`` of ``run()``, or the type and message of the ``ValueError`` it raises."""
    try:
        return repr(run())
    except ValueError as err:
        return f"{type(err).__name__}: {err}"


_CORPUS_KINDS = {
    "default": {},
    "dyadic": {"dyadic": True},
    "positive-tail": {"positive_tail": True},
    "dyadic-positive-tail": {"dyadic": True, "positive_tail": True},
}


class TestBlockDrivers:
    """The block drivers against the per-member reference, report by report."""

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(sorted(_CORPUS_KINDS)),
        points_per_decade=st.sampled_from([8, 16, 64]),
        block_points=st.sampled_from([300, 1000, harness._BLOCK_POINTS]),
    )
    # every member has a positive tail, so infinite L(2,2) norm: thm11 takes
    # no member and both sides raise
    @example(seed=298, kind="dyadic-positive-tail", points_per_decade=8, block_points=300)
    def test_reports_match_the_reference(self, seed, kind, points_per_decade, block_points):
        corpus = generate_corpus(seed, 10, **_CORPUS_KINDS[kind])
        grid_spec = GridSpec(points_per_decade=points_per_decade)
        want = _scan_outcome(lambda: _reference_hardy_reports(tuple(corpus), grid_spec))
        with pytest.MonkeyPatch.context() as mp:
            # blocks end inside and between members' grids
            mp.setattr(harness, "_BLOCK_POINTS", block_points)
            mp.setattr(harness, "generate_corpus", lambda seed, size: corpus)
            got = _scan_outcome(
                lambda: [r for r in default_check_reports("all", seed, 10, grid_spec) if r.check != "kprops"]
            )
        assert got == want

    def test_first_witness_in_corpus_order_across_blocks(self, monkeypatch):
        # the known-false lemma10 row has violations in many members: the
        # witness stays the first member's however the corpus is blocked
        corpus = tuple(generate_corpus(7, 40))
        want = _reference_pointwise(corpus, COARSE, v=2.0, w=1.0)
        assert want.violations > 0
        for block_points in (50, 700, 5000):
            monkeypatch.setattr(harness, "_BLOCK_POINTS", block_points)
            assert repr(verify_hardy_pointwise(corpus, v=2.0, w=1.0, grid_spec=COARSE)) == repr(want)

    def test_violations_are_counted_per_member_from_its_first_grid_point(self):
        # bad points at member 1's first grid point and inside it, and at
        # member 2's last; member 0 has none
        blk = harness._Block([f.rearrange() for f in generate_corpus(7, 3)], COARSE)
        goff = blk.goff.tolist()
        low = np.ones(blk.grid.size)
        lhs = low.copy()
        lhs[[goff[1], goff[1] + 5, goff[3] - 1]] = 0.5
        counts, first = harness._violations(blk, lhs, low, harness.POINTWISE_SLACK)
        assert counts == [0, 2, 1]
        assert first == [None, blk.grid[goff[1]], blk.grid[goff[3] - 1]]

    def test_errors_surface_in_corpus_order(self, monkeypatch):
        # a member whose grid leaves the float range and members whose
        # averages overflow: the first in corpus order raises, as one at a
        # time, whichever block they share
        good = StepFunction((1.0, 2.0), (3.0, 1.0))
        far = StepFunction((1e303,), (1.0,))
        huge = StepFunction((1.0,), (1e200,))
        monkeypatch.setattr(harness, "_BLOCK_POINTS", 10**6)
        with pytest.raises(ValueError, match="overflows the float range"):
            verify_hardy_pointwise([good, huge, far], u=2.0, w=2.0)
        with pytest.raises(ValueError, match="leaves the float range"):
            verify_hardy_pointwise([good, far, huge], u=2.0, w=2.0)
        edge = StepFunction((1e302,), (1.0,))  # its grid ends within a factor 2 of the largest float
        with pytest.raises(ValueError, match="2t leaves the float range"):
            verify_hardy_pointwise([good, edge, huge], v=2.0, w=2.0)
        with pytest.raises(ValueError, match="overflows the float range"):
            verify_hardy_pointwise([good, huge, edge], v=2.0, w=2.0)
        # a diverged lower average is checked on its own grid, like any other
        with pytest.raises(ValueError, match="2t leaves the float range"):
            verify_hardy_pointwise([good, edge + StepFunction.constant(0.5), huge], v=2.0, w=2.0)
        # the norm path: huge's envelope norm overflows in L(3,3) (its head
        # coefficient 2e200 is cubed) and near_max's average does
        near_max = StepFunction((1.0,), (1.7e308,))
        l33 = SpaceDescriptor.for_lorentz(LorentzParams(3.0, 3.0))
        with pytest.raises(ValueError, match="the envelope norm overflows"):
            verify_hardy_equivalence([good, huge, near_max], l33, u=2.0, w=1.0)
        with pytest.raises(ValueError, match="the Hardy average of f overflows"):
            verify_hardy_equivalence([good, near_max, huge], l33, u=2.0, w=1.0)

    @pytest.mark.parametrize(
        "fails, calls, message",
        [
            # every check passes on its own: the grouped walk's error stands
            (lambda checks, block_points: len(checks) > 1, [(2, "full"), (1, "full"), (1, "full")], "walk 1"),
            # the first check raises on full blocks but not member by member:
            # its own full-block error surfaces
            (lambda checks, block_points: block_points != 1, [(2, "full"), (1, "full"), (1, 1)], "walk 2"),
        ],
        ids=["grouped-walk-only", "full-blocks-only"],
    )
    def test_a_walk_error_that_no_member_by_member_walk_repeats(self, monkeypatch, fails, calls, message):
        # no known corpus makes these walks disagree: a stand-in raises on some of them
        walk, seen = harness._walk, []

        def stand_in(records, checks, block_points):
            seen.append((len(checks), "full" if block_points == harness._BLOCK_POINTS else block_points))
            if fails(checks, block_points):
                raise ValueError(f"walk {len(seen)}")
            return walk(records, checks, block_points)

        monkeypatch.setattr(harness, "_walk", stand_in)
        records = harness._records([StepFunction((1.0, 2.0), (3.0, 1.0))])
        checks = [harness._pointwise_check(u=1.0, w=1.0), harness._pointwise_check(u=2.0, w=1.0)]
        with pytest.raises(ValueError, match=f"^{message}$"):
            harness._reports(records, checks)
        assert seen == calls

    @pytest.mark.parametrize("check", ["lemma10", "thm11", "thm15", "all"])
    def test_grouped_checks_raise_as_the_public_drivers_in_turn(self, monkeypatch, check):
        # the corpora of test_errors_surface_in_corpus_order: the grouped
        # walk raises, and the error is that of the first configuration that
        # raises when each runs on its own, at its first failing member
        good = StepFunction((1.0, 2.0), (3.0, 1.0))
        far, huge = StepFunction((1e303,), (1.0,)), StepFunction((1.0,), (1e200,))
        edge, near_max = StepFunction((1e302,), (1.0,)), StepFunction((1.0,), (1.7e308,))
        corpora = [
            (good, huge, far),
            (good, far, huge),
            (good, edge, huge),
            (good, huge, edge),
            (good, edge + StepFunction.constant(0.5), huge),
            (good, huge, near_max),
            (good, near_max, huge),
        ]
        monkeypatch.setattr(harness, "_BLOCK_POINTS", 10**6)
        for corpus in corpora:
            monkeypatch.setattr(harness, "generate_corpus", lambda seed, size: corpus)
            with pytest.raises(ValueError) as want:
                _public_reports(corpus, DEFAULT_GRID, check)
            with pytest.raises(ValueError) as got:
                default_check_reports(check, seed=0, size=len(corpus))
            assert repr(got.value) == repr(want.value), corpus

    @pytest.mark.parametrize("gap", [0, 70], ids=["next-member", "70-members-later"])
    def test_a_member_whose_norm_raises_waits_its_turn(self, monkeypatch, gap):
        # bad's norm in L(2,2) raises, after huge, whose envelope norm
        # under H^(1,1) overflows: huge's error surfaces, whether or not
        # bad's norm is computed before huge's block is scored
        good, huge = StepFunction((1.0, 2.0), (3.0, 1.0)), StepFunction((1.0,), (1e200,))
        bad = StepFunction((4.0,), (1.7e308,))
        with pytest.raises(ValueError, match="the Lorentz norm of f overflows"):
            lorentz_norm(bad, L22.params)
        corpus = (good, huge, *[good] * gap, bad)
        monkeypatch.setattr(harness, "_BLOCK_POINTS", 10**6)
        monkeypatch.setattr(harness, "generate_corpus", lambda seed, size: corpus)
        with pytest.raises(ValueError, match="the envelope norm overflows"):
            verify_hardy_equivalence(corpus, L22, u=1.0, w=1.0)
        with pytest.raises(ValueError, match="the envelope norm overflows"):
            default_check_reports("thm11", seed=0, size=len(corpus))
        # under "all", lemma10 runs first, and bad's average overflows there
        with pytest.raises(ValueError) as want:
            _public_reports(corpus, DEFAULT_GRID)
        with pytest.raises(ValueError) as got:
            default_check_reports("all", seed=0, size=len(corpus))
        assert repr(got.value) == repr(want.value)

    @pytest.mark.parametrize("block_points", [300, 16384, 10**6])
    @pytest.mark.parametrize(
        "bad, kind, match",
        [
            (StepFunction((1e303,), (1.0,)), {"u": 2.0}, "leaves the float range"),
            (StepFunction((1e302,), (1.0,)), {"v": 2.0}, "2t leaves the float range"),
            # its average overflows before 2t is read on its grid
            (StepFunction((1e302,), (1e300,)), {"v": 2.0}, "the Hardy average of f overflows"),
        ],
        ids=["grid-window", "2t", "average-before-2t"],
    )
    def test_a_failing_member_raises_its_own_error_from_any_block(self, monkeypatch, block_points, bad, kind, match):
        # the grid builder and lemma10's 2t check raise for the whole block;
        # the re-run at one member per block names the member
        with pytest.raises(ValueError, match=match) as alone:
            verify_hardy_pointwise([bad], w=2.0, **kind)
        corpus = list(generate_corpus(3, 70))
        corpus[40] = bad
        monkeypatch.setattr(harness, "_BLOCK_POINTS", block_points)
        with pytest.raises(ValueError) as got:
            verify_hardy_pointwise(corpus, w=2.0, **kind)
        assert str(got.value) == str(alone.value)

    def test_one_shot_corpus_raises_as_a_tuple_does(self, monkeypatch):
        # the member-by-member run after a failing block run reads the
        # corpus again: an iterator must give the error a tuple gives
        good, huge = StepFunction((1.0, 2.0), (3.0, 1.0)), StepFunction((1.0,), (1e200,))
        far, edge = StepFunction((1e303,), (1.0,)), StepFunction((1e302,), (1.0,))
        near_max = StepFunction((1.0,), (1.7e308,))
        monkeypatch.setattr(harness, "_BLOCK_POINTS", 10**6)
        scans = [
            (lambda c: verify_hardy_pointwise(c, u=2.0, w=2.0), [good, huge, far]),
            (lambda c: verify_hardy_pointwise(c, u=2.0, w=2.0), [good, far, huge]),
            (lambda c: verify_hardy_pointwise(c, v=2.0, w=2.0), [good, edge, huge]),
            (lambda c: verify_hardy_equivalence(c, L22, u=2.0, w=1.0), [good, huge, near_max]),
            (lambda c: verify_hardy_equivalence(c, L22, u=2.0, w=1.0), [good, near_max, huge]),
        ]
        for scan, members in scans:
            errors = []
            for corpus in (tuple(members), iter(members)):
                with pytest.raises(ValueError) as err:
                    scan(corpus)
                errors.append(repr(err.value))
            assert errors[0] == errors[1]


GOLDEN_ALL_SEED7_SIZE40 = """\
check,config,size,min_ratio,max_ratio,max_width,violations,pass
lemma10,"u=1.0,w=1.0",40,0.9999999999999998,12863.92043620183,0.0,0,True
lemma10,"u=1.0,w=inf",40,1.0,12863.92043620183,0.0,0,True
lemma10,"u=2.0,w=1.0",40,1.0,13716.303567719688,0.0,0,True
lemma10,"v=2.0,w=1.0",40,0.8285882718934788,942544.9183772199,0.0,148,False
lemma10,"v=3.0,w=inf",40,1.2599576554808933,17596.254268831603,0.0,0,True
thm11,"E=L(2.0,2.0),upper 1.0,w=1.0",40,1.414213562373095,1.6884508642785847,0.005208022947407306,0,True
thm11,"E=L(2.0,2.0),lower 3.0,w=2.0",40,1.7371470172650332,1.7372080020508813,0.005958110914303285,0,True
thm11,"E=L(2.0,2.0),upper 2.0,w=1.0",40,inf,inf,0.0,0,True
thm15,"E=L(2.0,2.0),couple=(L(1.0,1.0), L(4.0,4.0)),theta=1.3333333333333333",40,2.38480481054347,2.7442378729423575,0.01739928539310728,0,True
thm15,"E=L(2.0,2.0),couple=(L(1.0,2.0), L(inf,inf)),theta=1.0",40,0.9984145471726918,1.0016403584868756,0.003220528492938194,0,True
thm15,"E=L(3.0,1.0),couple=(L(1.0,1.0), L(inf,inf)),theta=1.0",40,1.4972280229545707,1.5028219779764658,0.003722300514547557,0,True
thm15,"E=L(inf,inf),couple=(L(1.0,1.0), L(inf,inf)),theta=1.0",40,1.0,1.0000000000000002,0.0,0,True
thm15,"E=L(2.0,2.0),couple=(L(1.0,1.0), L(inf,inf)),theta=1.0",40,1.414213562373095,1.6884508642785847,0.005208022947407306,0,True
kprops,"couple=(L(1.0,1.0), L(inf,inf)),pairs=200",200,1.0,2.0,0.0,0,True
"""
