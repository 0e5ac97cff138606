import importlib.util
import json
import os
import re
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from mzvkit import finite_sums as fs
from mzvkit import numeric as num
from mzvkit import regularization as reg
from mzvkit.cli import SHUFFLE_COST_CAP, _parse_schedule, _shuffle_cost, main, parse_operand
from mzvkit.algebra import Index, LinComb, Word
from mzvkit.errors import DomainError
from mzvkit.finite_sums import zeta_lt


class TestOperandParsing:
    def test_binary_strings_are_words(self):
        assert parse_operand("110") == LinComb.of_word(Word.parse("110"))
        assert parse_operand("10") == LinComb.of_word(Word.parse("10"))

    def test_comma_strings_are_indices(self):
        assert parse_operand("1,2") == LinComb.of_index(Index((1, 2)))
        assert parse_operand("2") == LinComb.of_index(Index((2,)))

    def test_explicit_prefixes(self):
        assert parse_operand("index:10") == LinComb.of_index(Index((10,)))
        assert parse_operand("word:10") == LinComb.of_word(Word.parse("10"))

    def test_empty_string_is_the_unit(self):
        assert parse_operand("") == LinComb.unit()


class TestSchedules:
    def test_doubling(self):
        assert _parse_schedule("16:128") == (16, 32, 64, 128)

    def test_rejects_bad_bounds(self):
        with pytest.raises(DomainError):
            _parse_schedule("1:8")
        with pytest.raises(DomainError):
            _parse_schedule("nope")


class TestCommands:
    def test_product(self, capsys):
        assert main(["product", "--op", "harmonic", "1", "10"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert ["1/1", "110"] in data and ["1/1", "101"] in data and ["1/1", "100"] in data

    def test_sum_kinds(self, capsys):
        assert main(["sum", "--kind", "flat", "2", "--n", "5"]) == 0
        assert capsys.readouterr().out.strip() == "205/144"
        assert main(["sum", "--kind", "r", "2,1;0,0", "--n", "5"]) == 0
        assert capsys.readouterr().out.strip() == "17/32"

    def test_sum_prints_every_digit(self, capsys):
        assert main(["sum", "--kind", "plain", "2", "--n", "5000"]) == 0
        numerator, denominator = capsys.readouterr().out.strip().split("/")
        assert len(denominator) > 4300  # past Python's default int -> str limit
        # int(str) has the same digit limit; int(Decimal) does not
        assert Fraction(int(Decimal(numerator)), int(Decimal(denominator))) == zeta_lt(Index((2,)), 5000)

    def test_sum_past_the_n_cap_is_refused(self, capsys):
        assert main(["sum", "--kind", "flat", "1,2", "--n", "100000"]) == 2
        out, err = capsys.readouterr()
        assert (
            "refused: N^2 * prefix exponent sums = 60000000000 at N=100000 (cap 600000000)" in err
            and "Traceback" not in out + err
        )

    def test_sum_cap_counts_the_weight(self, capsys):
        # the flat (1,2) cap at N = 10^4 is 6 * 10^8; a deep index reaches it at a smaller N
        assert main(["sum", "--kind", "plain", "1,1,1,1,1,1", "--n", "10000"]) == 2
        out, err = capsys.readouterr()
        assert "refused: N^2 * prefix exponent sums = 2100000000 at N=10000" in err and "Traceback" not in out + err
        assert main(["sum", "--kind", "plain", "1,1,1,1,1,1", "--n", "7071"]) == 2  # 21 * 7071^2
        assert "refused: N^2 * prefix exponent sums = 1049979861 at N=7071" in capsys.readouterr().err
        assert main(["sum", "--kind", "r", "2,2;0,1", "--n", "10000"]) == 2  # prefix sums 2 and 5
        assert "refused: N^2 * prefix exponent sums = 700000000 at N=10000" in capsys.readouterr().err
        assert main(["sum", "--kind", "plain", "2", "--n", "5000"]) == 0
        assert "/" in capsys.readouterr().out

    def test_sum_cap_refuses_before_building_the_chain(self, capsys, monkeypatch):
        # a flat or natural chain takes one step per unit of weight: 10^9 steps here
        for kind in ("flat", "natural"):
            monkeypatch.setitem(fs.VARIANTS, kind, lambda k: pytest.fail("chain built before the cap check"))
            assert main(["sum", "--kind", kind, "1000000000", "--n", "2"]) == 2
            err = capsys.readouterr().err
            assert "refused: N^2 * prefix exponent sums = 2000000002000000000 at N=2" in err, err

    def test_regularize(self, capsys):
        assert main(["regularize", "--op", "sh", "2,1"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data == [[0, [["-2/1", "110"]]], [1, [["1/1", "10"]]]]

    def test_deep_star_regularization_is_refused(self, capsys, monkeypatch):
        monkeypatch.setattr(reg, "z_star_polynomial", lambda k: pytest.fail("decomposed before the cap check"))
        assert main(["regularize", "--op", "star", ",".join(["1"] * 20)]) == 2
        assert "star regularization refused" in capsys.readouterr().err

    # an admissible index costs about nothing on the star side, at any weight
    @pytest.mark.parametrize(
        "op, index", [("star", "1,1,1,1,1,1"), ("sh", ",".join(["1"] * 20)), ("star", "1," * 20 + "2")]
    )
    def test_regularize_under_the_cap_prints(self, op, index, capsys):
        assert main(["regularize", "--op", op, index]) == 0
        assert json.loads(capsys.readouterr().out)

    def test_deep_shuffle_regularization_is_refused(self, capsys, monkeypatch):
        # (2^10,1^10) costs 7.1 * 10^6 units: about 4 s and 290 MB
        monkeypatch.setattr(reg, "z_shuffle_polynomial", lambda k: pytest.fail("decomposed before the cap check"))
        assert main(["regularize", "--op", "sh", ",".join(["2"] * 10 + ["1"] * 10)]) == 2
        assert capsys.readouterr().err.startswith("error: shuffle regularization refused: index (2,2,")

    def test_shuffle_regularization_under_the_cap_prints(self, capsys):
        # (2^8,1^8) costs 3.9 * 10^5 units: about 0.2 s
        assert main(["regularize", "--op", "sh", ",".join(["2"] * 8 + ["1"] * 8)]) == 0
        assert json.loads(capsys.readouterr().out)

    @pytest.mark.parametrize(
        "parts, cost",
        [
            ((), 0),
            ((1,) * 20, 0),
            ((2,), 2),
            ((2, 1), 6),
            ((3,) * 7 + (1,) * 7, 3581424),
            ((2,) * 7 + (1,) * 14, 4476780),
        ],
    )
    def test_shuffle_cost(self, parts, cost):
        assert _shuffle_cost(Index(parts)) == cost

    def test_shuffle_cost_cap_admits_3_7_1_7_and_refuses_2_7_1_14(self):
        admitted, refused = Index((3,) * 7 + (1,) * 7), Index((2,) * 7 + (1,) * 14)
        assert _shuffle_cost(admitted) <= SHUFFLE_COST_CAP < _shuffle_cost(refused)

    def test_mzv(self, capsys):
        assert main(["mzv", "2", "--tol", "1e-9"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert abs(float(data["value"]) - 1.6449340668482264) < 1e-9

    def test_domain_error_exit_code(self, capsys):
        assert main(["mzv", "2,1"]) == 2
        assert "error" in capsys.readouterr().err

    def test_uncertified_deep_index_is_an_error_not_a_traceback(self, capsys):
        # at depth 601 no tier of the half-point series certifies its tail
        assert main(["mzv", ",".join(["1"] * 600 + ["2"])]) == 2
        assert capsys.readouterr().err.startswith("error: could not reach tolerance 1e-07 for index (1,1,")

    def test_uncertified_deep_index_is_an_error_at_infinite_tolerance(self, capsys):
        assert main(["mzv", ",".join(["1"] * 600 + ["2"]), "--tol", "inf"]) == 2
        assert capsys.readouterr().err.startswith("error: could not reach tolerance inf for index (1,1,")

    def test_usage_error_exit_code(self):
        assert main(["sum", "--kind", "bogus", "2", "--n", "5"]) == 2

    def test_verify_single_claim(self, tmp_path, capsys):
        code = main(
            [
                "verify",
                "thm-msw",
                "--max-weight",
                "2",
                "--out",
                str(tmp_path),
                "--seed",
                "42",
            ]
        )
        assert code == 0
        report = json.loads((tmp_path / "thm-msw.json").read_text())
        assert report["verdict"] == "pass"

    @pytest.mark.parametrize("claim, other_side", [("thm-edsr-star", "reg_shuffle"), ("thm-edsr-sh", "reg_star")])
    def test_verify_edsr_claim_checks_only_its_side(self, claim, other_side, tmp_path, capsys, monkeypatch):
        def refuse(x):
            raise AssertionError(f"{claim} computed the other regularization")

        monkeypatch.setattr(reg, other_side, refuse)
        assert main(["verify", claim, "--max-weight", "2", "--out", str(tmp_path)]) == 0
        assert [p.name for p in tmp_path.iterdir()] == [f"{claim}.json"]
        assert f"{claim}: PASS" in capsys.readouterr().out

    def test_verify_out_of_scope_claim(self, capsys):
        assert main(["verify", "thm-regularization-rho"]) == 2
        assert "out of scope" in capsys.readouterr().err

    def test_verify_has_no_tolerance(self, capsys):
        # EDSR cases are judged by their own certified error bounds
        assert main(["verify", "thm-edsr-star", "--tol", "1e-3"]) == 2

    def test_nan_tolerances_are_usage_errors(self, capsys):
        assert main(["mzv", "2", "--tol", "nan"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-a-file"])
    def test_out_naming_a_file_fails_before_any_campaign(self, under, tmp_path, capsys, monkeypatch):
        import mzvkit.verification as ver

        def refuse(cfg):
            raise AssertionError("a campaign ran before the report directory was made")

        monkeypatch.setattr(ver, "CAMPAIGNS", tuple((name, refuse, claims) for name, _, claims in ver.CAMPAIGNS))
        taken = tmp_path / "taken"
        taken.write_text("")
        out = taken / "reports" if under else taken
        for claim in ("thm-msw", "all"):
            assert main(["verify", claim, "--max-weight", "2", "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and "Traceback" not in err

    def test_claim_without_cases_fails(self, tmp_path, capsys):
        assert main(["verify", "thm-main", "--max-weight", "1", "--out", str(tmp_path)]) == 1
        assert "thm-main: FAIL (0 cases" in capsys.readouterr().out
        report = json.loads((tmp_path / "thm-main.json").read_text())
        assert report["verdict"] == "fail" and report["cases"] == []

    def test_capped_polylog_series_fails_the_claim_without_a_traceback(self, tmp_path, capsys, monkeypatch):
        # at z = 1 - 2^-14 and the campaign tol, (1,1) sums 26 chunks of 2^14 terms, (1) 23 and (2) 12
        monkeypatch.setattr(num, "LI_TERM_CAP", 24 << 14)
        assert main(["verify", "prop-asymp-Li", "--max-weight", "2", "--out", str(tmp_path)]) == 1
        out, err = capsys.readouterr()
        assert "prop-asymp-Li: FAIL (4 cases" in out and "Traceback" not in out + err
        report = json.loads((tmp_path / "prop-asymp-Li.json").read_text())
        assert [c["case"] for c in report["cases"] if not c["passed"]] == ["k=(1,1)"]

    def test_polylog_grid_to_z_one_minus_two_to_minus_22_passes(self, capsys):
        assert main(["verify", "prop-asymp-Li", "--max-weight", "1", "--n-schedule", "16:4194304"]) == 0
        assert "prop-asymp-Li: PASS (2 cases" in capsys.readouterr().out

    def test_verify_asymp_shuffle_past_the_brute_force_cap(self, capsys):
        assert main(["verify", "prop-asymp-shuffle", "--max-weight", "4", "--n-schedule", "16:256"]) == 0
        assert "prop-asymp-shuffle: PASS" in capsys.readouterr().out

    def test_verify_unknown_claim(self, tmp_path, capsys):
        out = tmp_path / "d"
        assert main(["verify", "no-such-claim", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()  # the claim is looked up before the report directory is made

    def test_one_claim_prints_the_line_of_the_full_run(self, tmp_path, capsys):
        def lines(claim):
            assert main(["verify", claim, "--max-weight", "2", "--out", str(tmp_path / claim)]) == 0
            return [re.sub(r"\d+ ms\)$", "ms)", line) for line in capsys.readouterr().out.splitlines()]

        full = lines("all")
        for claim in ("thm-edsr-sh", "lemma-R-ii"):
            assert lines(claim) == [line for line in full if line.startswith(f"{claim}: ")]

    def test_verify_all_small(self, tmp_path, capsys):
        code = main(
            [
                "verify",
                "all",
                "--max-weight",
                "2",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "thm-msw: PASS" in out and "OUT-OF-SCOPE" in out
        assert "(0 cases" not in out
        assert (tmp_path / "summary.json").exists()

    def test_closed_pipe_exits_quietly(self, tmp_path):
        # like `mzvkit verify all | head -1`; unbuffered, so that each line
        # reaches the pipe as it is printed and the second one finds it closed
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONUNBUFFERED": "1"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.Popen(
            [sys.executable, "-c", "import sys; from mzvkit.cli import main; sys.exit(main())",
             "verify", "all", "--max-weight", "2", "--out", str(tmp_path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True,
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 1
        assert first.startswith("thm-msw: PASS")
        assert "Traceback" not in err and "BrokenPipeError" not in err, err


def _residual_decay():
    path = Path(__file__).resolve().parent.parent / "scripts" / "residual_decay.py"
    spec = importlib.util.spec_from_file_location("residual_decay", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestResidualDecayScript:
    def test_bad_schedules_are_usage_errors(self, capsys):
        script = _residual_decay()
        for lo in ("0", "-4", "1"):
            assert script.main(["--lo", lo]) == 2
        assert script.main(["--lo", "16", "--hi", "64"]) == 2  # three points are too few to fit
        assert capsys.readouterr().err.count("error") == 4

    def test_small_range_prints_the_table_and_exponent(self, capsys):
        assert _residual_decay().main(["--lo", "16", "--hi", "1024"]) == 0
        out = capsys.readouterr().out
        assert all(f"{n:>8}  " in out for n in (16, 32, 64, 128, 256, 512, 1024))
        assert "fitted exponent a = " in out

    def test_no_qualifying_exponent_exits_1(self, capsys):
        # (1) * (1): a non-admissible right operand, whose defect does not decay like N^-1 log^a N
        assert _residual_decay().main(["--w1", "1", "--w0", "1", "--lo", "16", "--hi", "1024"]) == 1
        assert "no exponent qualified" in capsys.readouterr().out
