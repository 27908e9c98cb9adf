"""Command-line and package surface: subcommands, file I/O, determinism, exit codes, exports."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rinorms
from rinorms import GridSpec, StepFunction, cli, hardy_lower, hardy_upper
from rinorms.cli import main

from conftest import envelope_lower, envelope_upper, golden

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture()
def chi_file(tmp_path):
    path = tmp_path / "unit_indicator.json"
    path.write_text(StepFunction.indicator(0.0, 1.0).to_json())
    return str(path)


def run_cli(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


PACKAGE_SURFACE = [
    "Corpus", "Enclosure", "FunctorParams", "GridSpec", "INF", "LorentzCouple", "LorentzParams",
    "MonotoneEnvelope", "PowerLaw", "RatioReport", "SequenceReport", "SpaceDescriptor", "StepFunction",
    "aoki_rolewicz_kappa", "default_check_reports", "dilation_operator_norm", "envelope_norm",
    "estimate_boyd_indices", "estimate_dilation_norm", "estimate_quasi_triangle_constant",
    "functor_admissible", "functor_norm", "generate_corpus", "generate_pairs", "hardy_lower", "hardy_upper",
    "holmstedt_k", "intersection_norm", "is_nontrivial", "k_exact_l1_linf", "k_upper_oracle", "lorentz_norm",
    "min_power_norm_finite", "power_integral", "predicted_bounded", "select_parameters", "sequence_report",
    "step_function_report", "verify_hardy_equivalence", "verify_hardy_pointwise",
    "verify_interpolation_identity", "verify_k_properties", "weighted_power_integral",
]


def test_package_surface_is_pinned():
    # a name leaves or joins the public API only together with this list
    assert sorted(rinorms.__all__) == PACKAGE_SURFACE
    for name in rinorms.__all__:
        assert getattr(rinorms, name) is not None


class TestNorm:
    def test_unit_indicator_l21(self, capsys, chi_file):
        code, out = run_cli(capsys, "norm", "--p", "2", "--q", "1", "--input", chi_file)
        assert code == 0
        assert float(out) == pytest.approx(2.0, rel=1e-12)

    def test_degenerate_space_prints_inf(self, capsys, chi_file):
        code, out = run_cli(capsys, "norm", "--p", "inf", "--q", "1", "--input", chi_file)
        assert code == 0 and out.strip() == "inf"

    def test_invalid_exponent_rejected(self, chi_file):
        with pytest.raises(SystemExit):
            main(["norm", "--p", "-2", "--q", "1", "--input", chi_file])

    def test_malformed_json_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(SystemExit, match="invalid function file"):
            main(["norm", "--p", "2", "--q", "1", "--input", str(bad)])

    def test_deeply_nested_json_rejected(self, tmp_path):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        with pytest.raises(SystemExit, match="invalid function file .*malformed step function JSON"):
            main(["norm", "--p", "2", "--q", "2", "--input", str(deep)])

    def test_missing_file_rejected(self):
        with pytest.raises(SystemExit, match="cannot read"):
            main(["norm", "--p", "2", "--q", "1", "--input", "/nonexistent.json"])

    def test_norm_past_the_float_range_exits_1_without_traceback(self, tmp_path):
        # ||f||_{2,2} = 1e300 * sqrt(1e100): the direct integral overflows and
        # so does the rescaled norm
        big = tmp_path / "big.json"
        big.write_text(StepFunction((1e100,), (1e300,)).to_json())
        env = {**os.environ, "PYTHONPATH": SRC}
        done = subprocess.run(
            [sys.executable, "-m", "rinorms.cli", "norm", "--p", "2", "--q", "2", "--input", str(big)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        assert "the Lorentz norm of f overflows the float range" in done.stderr

    def test_norm_with_an_overflowing_integral(self, capsys, tmp_path):
        huge = tmp_path / "huge.json"
        huge.write_text(StepFunction((1.0,), (1e200,)).to_json())
        code, out = run_cli(capsys, "norm", "--p", "2", "--q", "2", "--input", str(huge))
        assert (code, out) == (0, "1e+200\n")

    def test_non_number_entry_exits_1_without_traceback(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"breakpoints": [1, null], "values": [1, 2], "tail": 0}')
        env = {**os.environ, "PYTHONPATH": SRC}
        done = subprocess.run(
            [sys.executable, "-m", "rinorms.cli", "norm", "--p", "2", "--q", "1", "--input", str(bad)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        assert "breakpoints[1] must be a number, got null" in done.stderr


    def test_oversized_grid_window_exits_with_a_message(self):
        env = {**os.environ, "PYTHONPATH": SRC}
        done = subprocess.run(
            [sys.executable, "-m", "rinorms.cli", "verify", "thm11", "--seed", "7", "--corpus-size", "2",
             "--grid-per-decade", "1000000000"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        assert "points at 1000000000 points per decade, past the limit of 16777216" in done.stderr


class TestRearrangeAndDilate:
    def test_rearrange_round_trip(self, capsys, tmp_path):
        f = StepFunction((1.0, 2.0), (1.0, 3.0))
        src = tmp_path / "f.json"
        src.write_text(f.to_json())
        code, out = run_cli(capsys, "rearrange", "--input", str(src))
        assert code == 0
        assert StepFunction.from_json(out) == f.rearrange()

    def test_dilate_writes_output_file(self, capsys, tmp_path, chi_file):
        dest = tmp_path / "out.json"
        code, _ = run_cli(capsys, "dilate", "--a", "2", "--input", chi_file, "--output", str(dest))
        assert code == 0
        assert StepFunction.from_json(dest.read_text()) == StepFunction.indicator(0.0, 0.5)


class TestHardy:
    def test_csv_columns_and_norm_row(self, capsys, chi_file):
        code, out = run_cli(
            capsys,
            "hardy",
            "--U", "1", "--W", "1",
            "--p", "2", "--q", "2",
            "--grid-per-decade", "8",
            "--input", chi_file,
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["t", "value", "lower", "upper"]
        assert rows[-1][0] == "norm_enclosure"
        lo, hi = float(rows[-1][1]), float(rows[-1][2])
        assert lo <= math.sqrt(2.0) <= hi + 1e-12
        body = rows[1:-1]
        assert all(float(r[2]) <= float(r[1]) + 1e-12 for r in body)

    def test_requires_exactly_one_operator_kind(self, chi_file):
        with pytest.raises(SystemExit):
            main(["hardy", "--U", "1", "--V", "2", "--input", chi_file])

    @pytest.mark.parametrize("flag", ["--p", "--q"])
    def test_norm_needs_both_p_and_q(self, chi_file, flag):
        with pytest.raises(SystemExit, match="needs both --p and --q") as e:
            main(["hardy", "--U", "1", flag, "2", "--input", chi_file])
        assert e.value.code != 0

    def test_lower_family_with_positive_tail_says_why(self, tmp_path):
        src = tmp_path / "f.json"
        src.write_text(StepFunction((1.0, 2.0), (1.0, 3.0), 0.5).to_json())
        with pytest.raises(SystemExit, match="diverges: f has a positive tail") as e:
            main(["hardy", "--V", "2", "--input", str(src)])
        assert e.value.code != 0

    @pytest.mark.parametrize("family", ["--U", "--V"])
    def test_overflow_exits_cleanly(self, tmp_path, family):
        src = tmp_path / "f.json"
        src.write_text(StepFunction((1.0,), (1e200,)).to_json())
        with pytest.raises(SystemExit, match="overflows the float range"):
            with np.errstate(over="ignore", invalid="ignore"):
                main(["hardy", family, "2", "--W", "2", "--input", str(src)])

    def test_overflowing_norm_exits_cleanly(self, tmp_path):
        # the L(2,2) norm of the average is sqrt(3.4) * 1e308, past the largest float
        src = tmp_path / "f.json"
        src.write_text(StepFunction((1.7,), (1e308,)).to_json())
        with pytest.raises(SystemExit, match="the envelope norm overflows the float range"):
            main(["hardy", "--U", "1", "--W", "1", "--p", "2", "--q", "2", "--input", str(src)])

    @pytest.mark.parametrize("w", [1.0, 3.0, math.inf])
    @pytest.mark.parametrize("family", ["U", "V"])
    def test_bound_columns_equal_envelope_step_functions(self, capsys, tmp_path, small_corpus, family, w):
        grid = GridSpec(points_per_decade=16)
        functions = list(small_corpus)[:8]
        if family == "U":  # the lower family diverges on a positive tail
            functions += [f + StepFunction.constant(0.3) for f in functions]
        for f in functions:
            src = tmp_path / "f.json"
            src.write_text(f.to_json())
            code, out = run_cli(
                capsys, "hardy", f"--{family}", "2", "--W", repr(w),
                "--grid-per-decade", "16", "--input", str(src),
            )
            assert code == 0
            env = (hardy_upper if family == "U" else hardy_lower)(f, 2.0, w, grid)
            rows = list(csv.reader(io.StringIO(out)))[1:]
            assert [r[2] for r in rows] == [repr(float(x)) for x in envelope_lower(env)(env.grid)]
            assert [r[3] for r in rows] == [repr(float(x)) for x in envelope_upper(env)(env.grid)]


class TestKfunAndFunctor:
    def test_kfun_exact_and_oracle_agree(self, capsys, chi_file):
        code, out = run_cli(
            capsys,
            "kfun",
            "--p0", "1", "--q0", "1", "--p1", "inf", "--q1", "inf",
            "--t", "0.25", "--theta", "1",
            "--input", chi_file,
        )
        assert code == 0
        got = dict(line.split() for line in out.strip().splitlines())
        assert float(got["exact"]) == pytest.approx(0.25, rel=1e-12)
        assert float(got["oracle_upper"]) == pytest.approx(0.25, rel=1e-9)
        assert float(got["holmstedt"]) == pytest.approx(0.5, rel=1e-12)

    def test_kfun_sorts_a_shuffled_input_once(self, capsys, tmp_path, monkeypatch):
        # the oracle, the exact K and Holmstedt's form share one f*
        sorts = []
        sorted_above_tail = StepFunction._sorted_above_tail

        def counting(self):
            sorts.append(len(self.values))
            return sorted_above_tail(self)

        monkeypatch.setattr(StepFunction, "_sorted_above_tail", counting)
        src = tmp_path / "shuffled.json"
        TestGoldenOutputs.write_function(src, "shuffled")
        code, _ = run_cli(capsys, *TestGoldenOutputs.QUERIES["kfun"], "--input", str(src))
        assert code == 0
        assert sorts == [2000]

    def test_kfun_oracle_at_1e5_pieces(self, capsys, tmp_path):
        # the (L1, Linf) oracle on 10^5 shuffled pieces, at t inside the
        # support and past its end, against the exact K
        rng = np.random.default_rng(10**5)
        bps = np.cumsum(rng.uniform(2.0**-10, 2.0**-2, 10**5))
        vals = np.exp(rng.uniform(-6.0, 6.0, 10**5))
        src = tmp_path / "large.json"
        src.write_text(json.dumps({"breakpoints": bps.tolist(), "values": vals.tolist(), "tail": 0.0}))
        for t in ("0.7", "1e5"):
            code, out = run_cli(
                capsys,
                "kfun",
                "--p0", "1", "--q0", "1", "--p1", "inf", "--q1", "inf",
                "--t", t,
                "--input", str(src),
            )
            assert code == 0
            got = dict(line.split() for line in out.strip().splitlines())
            assert float(got["oracle_upper"]) == pytest.approx(float(got["exact"]), rel=1e-9)

    def test_kfun_rejects_infinite_t(self, chi_file):
        with pytest.raises(SystemExit, match=r"t must be in \(0, inf\), got inf"):
            main(
                [
                    "kfun",
                    "--p0", "1", "--q0", "1", "--p1", "inf", "--q1", "inf",
                    "--t", "inf",
                    "--input", chi_file,
                ]
            )

    def test_functor_norm_calibration(self, capsys, chi_file):
        code, out = run_cli(
            capsys,
            "functor-norm",
            "--p0", "1", "--q0", "1", "--p1", "inf", "--q1", "inf",
            "--p", "2", "--q", "2", "--theta", "1",
            "--grid-per-decade", "64",
            "--input", chi_file,
        )
        assert code == 0
        lo, hi = (float(x) for x in out.split())
        assert lo <= math.sqrt(2.0) + 1e-12
        assert hi >= math.sqrt(2.0) - 1e-12

    def test_inadmissible_parameters_name_the_condition(self, chi_file):
        with pytest.raises(SystemExit, match="r < p_E"):
            main(
                [
                    "functor-norm",
                    "--p0", "1", "--q0", "1", "--p1", "inf", "--q1", "inf",
                    "--p", "2", "--q", "2", "--theta", "1", "--r", "3",
                    "--input", chi_file,
                ]
            )


class TestParamsAndBoyd:
    def test_parameter_selection(self, capsys):
        code, out = run_cli(capsys, "params", "--p", "2", "--q", "2")
        assert code == 0
        assert out.startswith("p0=1.0 p1=4.0 theta=1.333333333333333")

    def test_boyd_estimates(self, capsys):
        code, out = run_cli(capsys, "boyd", "--p", "3", "--q", "1", "--corpus-size", "30")
        assert code == 0
        got = dict(line.split() for line in out.strip().splitlines())
        assert float(got["boyd_lower_estimate"]) == pytest.approx(3.0, abs=0.05)
        assert float(got["boyd_upper_estimate"]) == pytest.approx(3.0, abs=0.05)


class TestExample18:
    def test_csv_rows(self, capsys):
        code, out = run_cli(capsys, "example18", "--q", "0.5", "--max-decade", "4")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["N", "l1_partial", "l1q_partial"]
        ns = [int(r[0]) for r in rows[1:]]
        assert ns == [100, 1000, 10000]
        l1q = [float(r[2]) for r in rows[1:]]
        assert l1q == sorted(l1q)

    def test_rejects_q_outside_unit_interval(self):
        with pytest.raises(SystemExit, match="q in \\(0, 1\\)"):
            main(["example18", "--q", "2"])

    @pytest.mark.parametrize("decade", ["1", "8", "-3", "six"])
    def test_rejects_max_decade_outside_its_range(self, capsys, decade):
        # 1 once crashed on an empty row list, and 10**d floats are allocated
        with pytest.raises(SystemExit) as e:
            main(["example18", "--q", "0.5", "--max-decade", decade, "--with-norms"])
        assert e.value.code == 2
        assert f"argument --max-decade: must be an integer in 2..7, got {decade}" in capsys.readouterr().err

    def test_smallest_max_decade_with_norms(self, capsys):
        code, out = run_cli(capsys, "example18", "--q", "0.5", "--max-decade", "2", "--with-norms")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert [r[0] for r in rows] == ["N", "100", "norms"]


class TestVerify:
    def test_kprops_passes_with_exit_zero(self, capsys):
        code, out = run_cli(
            capsys, "verify", "kprops", "--seed", "3", "--corpus-size", "30"
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows[0]["check"] == "kprops" and rows[0]["pass"] == "True"

    def test_json_format(self, capsys):
        code, out = run_cli(
            capsys, "verify", "kprops", "--seed", "3", "--corpus-size", "30",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload[0]["pass"] is True

    def test_byte_identical_across_runs(self, capsys):
        _, out1 = run_cli(capsys, "verify", "kprops", "--seed", "9", "--corpus-size", "25")
        _, out2 = run_cli(capsys, "verify", "kprops", "--seed", "9", "--corpus-size", "25")
        assert out1 == out2

    def test_thm11_passes(self, capsys):
        code, out = run_cli(
            capsys, "verify", "thm11", "--seed", "3", "--corpus-size", "40",
            "--grid-per-decade", "16",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 3 and all(r["pass"] == "True" for r in rows)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_all_checks_golden_at_1000_members(self, capsys, fmt):
        # many grid batches and blocks per walk; exit 1 from the two known-false targets
        code, out = run_cli(
            capsys, "verify", "all", "--seed", "7", "--corpus-size", "1000", "--format", fmt
        )
        assert code == 1
        assert out == golden(f"verify_all_seed7_size1000.{fmt}")

    def test_unknown_check_rejected(self):
        with pytest.raises(SystemExit):
            main(["verify", "everything"])


class TestExtremeInputs:
    """One-shot queries on functions at the ends of the float range: each
    prints a value or exits with a message, never a traceback."""

    FUNCTIONS = {
        # K(1e10) is 1e10; the old piece integral's hi / lo overflowed
        "float-range-k": StepFunction((1e-300, 1e20), (2.0, 1.0)),
        "wide": StepFunction((2.0**-1000, 2.0**1000), (2.0, 1.0)),
        # the L(1/2, inf) norm is 1e400; the L(2, 2) norm of H^(1,1) f is finite
        "sup-overflow": StepFunction((1e200,), (1.0,)),
        # the L(1/2, inf) norm is inf, but b**2 at 1e250 overflows first
        "sup-overflow-tail": StepFunction((1.0, 1e250), (3.0, 2.0), 1.0),
        "huge-value": StepFunction((1.0,), (1e300,)),
        "largest-breakpoint": StepFunction((1.7e308,), (1.0,)),
    }
    QUERIES = {
        "norm-sup": ["norm", "--p", "0.5", "--q", "inf"],
        "norm-q1": ["norm", "--p", "0.5", "--q", "1"],
        "hardy": ["hardy", "--U", "1", "--W", "1", "--p", "2", "--q", "2"],
        "kfun-sup": [
            "kfun", "--p0", "0.5", "--q0", "inf", "--p1", "inf", "--q1", "inf", "--t", "1e200", "--theta", "0.5",
        ],
        "kfun-l1-linf": ["kfun", "--p0", "1", "--q0", "1", "--p1", "inf", "--q1", "inf", "--t", "1e10", "--theta", "1"],
        "functor-norm": [
            "functor-norm", "--p0", "1", "--q0", "1", "--p1", "inf", "--q1", "inf",
            "--p", "2", "--q", "2", "--theta", "1",
        ],
        "dilate": ["dilate", "--a", "1e-10"],
        "rearrange": ["rearrange"],
    }

    @pytest.mark.parametrize("query", sorted(QUERIES))
    @pytest.mark.parametrize("name", sorted(FUNCTIONS))
    def test_value_or_message(self, capsys, tmp_path, name, query):
        src = tmp_path / f"{name}.json"
        src.write_text(self.FUNCTIONS[name].to_json())
        try:
            code, _ = run_cli(capsys, *self.QUERIES[query], "--input", str(src))
        except SystemExit as e:
            assert isinstance(e.code, str) and e.code
        else:
            assert code == 0

    def test_values_at_the_float_range_ends(self, capsys, tmp_path):
        src = tmp_path / "f.json"
        src.write_text(self.FUNCTIONS["float-range-k"].to_json())
        _, out = run_cli(capsys, *self.QUERIES["kfun-l1-linf"], "--input", str(src))
        assert out == "exact 10000000000.0\noracle_upper 10000000000.0\nholmstedt 20000000000.0\n"
        src.write_text(self.FUNCTIONS["sup-overflow-tail"].to_json())
        assert run_cli(capsys, *self.QUERIES["norm-sup"], "--input", str(src)) == (0, "inf\n")
        src.write_text(self.FUNCTIONS["huge-value"].to_json())
        _, out = run_cli(capsys, *self.QUERIES["kfun-sup"], "--input", str(src))
        assert out.splitlines()[-1] == "holmstedt 1e+300"


class TestGoldenOutputs:
    """Pinned output bytes of the one-shot queries on 2,000-piece functions.

    Any change to construction, rearrangement or the CSV writer must
    reproduce them exactly.  The digests were recorded on Python 3.11 with
    numpy 2.4.
    """

    QUERIES = {
        "rearrange": ["rearrange"],
        "norm-q1": ["norm", "--p", "2", "--q", "1"],
        "norm-qinf": ["norm", "--p", "2", "--q", "inf"],
        "hardy": ["hardy", "--U", "1", "--W", "1", "--p", "2", "--q", "2"],
        "functor-norm": [
            "functor-norm", "--p0", "1", "--q0", "1", "--p1", "inf", "--q1", "inf",
            "--p", "2", "--q", "2", "--theta", "1",
        ],
        "kfun": ["kfun", "--p0", "1", "--q0", "1", "--p1", "inf", "--q1", "inf", "--t", "0.7", "--theta", "1"],
        # t past the last breakpoint (about 256): the tail's term enters
        "kfun-past-end": ["kfun", "--p0", "1", "--q0", "1", "--p1", "inf", "--q1", "inf", "--t", "1000", "--theta", "1"],
    }
    DIGESTS = {
        ("shuffled-tail", "rearrange"): "3c4f18297bc31ea7d3e3c221a9af21a70e7115562cd6130152a56eb0db39fd36",
        ("shuffled-tail", "norm-q1"): "d574121d0bbf27357c5b4a69bc6f0a958e966fe811c213345d96407395ba9141",
        ("shuffled-tail", "norm-qinf"): "d574121d0bbf27357c5b4a69bc6f0a958e966fe811c213345d96407395ba9141",
        ("shuffled-tail", "hardy"): "c4b621f33c7917b877478fefae64ea9cfbae877d795120423185e15d0fd3178c",
        ("shuffled-tail", "functor-norm"): "8dde342aada92cfdd2723dbac77dd52250dc9cd2d8103a0973cf87fa2880dfff",
        ("shuffled-tail", "kfun"): "5c2f83a9bd51d742c0343aebf1a12c014ff3bbe0566fc15db29a07484c32cb63",
        ("shuffled-tail", "kfun-past-end"): "d6b6723be080b7a9f79fc2aff220e14e297de6c8b29bde6d0b7e43c502516c88",
        ("shuffled", "rearrange"): "2dfb2bbb78499afc8c082da03b32d01b2de7abf225715697c5b180f4d527091b",
        ("shuffled", "norm-q1"): "d10f80d6295d68fa9d1b8799d6e4b1e38c9d2da547423096a0883a36460945a9",
        ("shuffled", "norm-qinf"): "25babc489bbe1b35434327eb5234d2d0439dcf85c63ab67f61b3a83fe8e6636a",
        ("shuffled", "hardy"): "b251df45130591035d37166ac2d72e5537b3a34a2ef233c28d86759da99f9d71",
        ("shuffled", "functor-norm"): "fe81b41ede4a232c487dd0b0f90c6ff2ed91f7e3d7fcfe02859a709e4a1343f2",
        ("shuffled", "kfun"): "5c2f83a9bd51d742c0343aebf1a12c014ff3bbe0566fc15db29a07484c32cb63",
        ("shuffled", "kfun-past-end"): "51bcbb144b94def8080abec1cf61f0260087dcb122c50197b472ae78b918a40e",
        ("sorted", "rearrange"): "56519f2f37c203ea91ddf5c7fdf2cee1d1b6f31b24e38b6c126c1362dccd239d",
        ("sorted", "norm-q1"): "5b5da291c2866bb6f53420fcd4005956f5d3e5ef90cbf65a17a04aa74ce2cf89",
        ("sorted", "norm-qinf"): "909a8edbdec9e46bf7764cde17b42e7622d15214a1d098b14909f9bbaf023f27",
        ("sorted", "hardy"): "7e6156cd481b9317b32acf71a5bf43514951e83891365fb4cab72e8b587fa8f3",
        ("sorted", "functor-norm"): "ea4961e4326856694eeb7926ca38c05a08307043ab4efbfb909da95f5b3d2e0b",
        ("sorted", "kfun"): "c4df9d43a2fca1651820b4203bcea58618cdf8c69e2562ffe4a960b8c09d932c",
        ("sorted", "kfun-past-end"): "c8faa4563511619b07477e88f8765c8e2999d32f0d710e87ca4d747a823d20ef",
    }

    @staticmethod
    def write_function(path, kind: str) -> None:
        """2,000 seeded pieces; shuffled values, with or without a positive
        tail, or sorted non-increasing (the rearrangement fast path)."""
        shuffled = kind != "sorted"
        rng = np.random.default_rng(20240 + shuffled)
        bps = np.cumsum(rng.uniform(2.0**-10, 2.0**-2, 2000))
        vals = np.exp(rng.uniform(-6.0, 6.0, 2000))
        tail = float(vals.min() / 2) if kind == "shuffled-tail" else 0.0
        if not shuffled:
            vals = -np.sort(-vals)
        path.write_text(json.dumps({"breakpoints": bps.tolist(), "values": vals.tolist(), "tail": tail}))

    @pytest.mark.parametrize("kind", ["shuffled-tail", "shuffled", "sorted"])
    def test_digests(self, capsys, tmp_path, kind):
        src = tmp_path / f"{kind}.json"
        self.write_function(src, kind)
        for name, argv in self.QUERIES.items():
            code, out = run_cli(capsys, *argv, "--input", str(src))
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == self.DIGESTS[kind, name], name


class TestParserReuse:
    def test_a_rejected_argv_leaves_the_shared_parser_as_it_was(self, capsys, tmp_path):
        src = tmp_path / "f.json"
        TestGoldenOutputs.write_function(src, "shuffled-tail")
        good = ["hardy", "--input", str(src), "--U", "1", "--p", "2", "--q", "2"]
        cli._parser.cache_clear()
        first = run_cli(capsys, *good)  # builds the parser
        with pytest.raises(SystemExit) as exc:
            main(["hardy", "--input", str(src), "--grid-per-decade", "8", "--U", "1", "--W", "-1"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert run_cli(capsys, *good) == first
        assert cli._parser() is cli._parser()
        assert cli.build_parser() is not cli.build_parser()
