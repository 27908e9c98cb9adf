"""Command-line surface: subcommands, file I/O, determinism, exit codes."""

from __future__ import annotations

import csv
import io
import json
import math

import pytest

from rinorms import StepFunction
from rinorms.cli import main


@pytest.fixture()
def chi_file(tmp_path):
    path = tmp_path / "unit_indicator.json"
    path.write_text(StepFunction.indicator(0.0, 1.0).to_json())
    return str(path)


def run_cli(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


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

    def test_missing_file_rejected(self):
        with pytest.raises(SystemExit, match="cannot read"):
            main(["norm", "--p", "2", "--q", "1", "--input", "/nonexistent.json"])


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

    def test_unknown_check_rejected(self):
        with pytest.raises(SystemExit):
            main(["verify", "everything"])
