"""Command-line surface: rendering, exit codes, json round-trips."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vdwkit
from vdwkit.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_json_round_trips(out: str):
    payload = json.loads(out)
    assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == out
    return payload


class TestRadixCommand:
    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "radix", "--value", "1132", "--base", "6")
        assert code == 0
        assert "digits 5 1 2 4" in out
        assert "exponent 3" in out
        assert "1132 = 5*6^3 + 1*6^2 + 2*6^1 + 4*6^0" in out

    def test_single_digit(self, capsys):
        code, out, _ = run(capsys, "radix", "--value", "1", "--base", "2")
        assert code == 0 and "digits 1\n" in out

    def test_json_round_trips(self, capsys):
        code, out, _ = run(
            capsys, "radix", "--value", "178", "--base", "5", "--format", "json"
        )
        assert code == 0
        payload = assert_json_round_trips(out)
        assert payload["digits"] == [1, 2, 0, 3]

    def test_csv(self, capsys):
        code, out, _ = run(
            capsys, "radix", "--value", "35", "--base", "4", "--format", "csv"
        )
        assert code == 0
        assert out.splitlines() == ["value,base,digits,exponent", "35,4,2 0 3,2"]

    def test_invalid_input_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, "radix", "--value", "0", "--base", "2")
        assert code == 2 and "error" in err


class TestTableCommand:
    def test_table1_text_has_all_rows(self, capsys):
        code, out, _ = run(capsys, "table", "--which", "1")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 8  # header + 7 rows
        assert lines[0].split()[:4] == ["r", "k", "n", "W"]

    def test_table2_csv(self, capsys):
        code, out, _ = run(capsys, "table", "--which", "2", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 8
        assert lines[4] == "2,6,3.316,10,0.6931,1.7917,2^10,1132,2^11,2^36"

    def test_tables_json_round_trips(self, capsys):
        for which in ("1", "2"):
            code, out, _ = run(
                capsys, "table", "--which", which, "--format", "json"
            )
            assert code == 0
            payload = assert_json_round_trips(out)
            assert len(payload) == 7

    def test_places_flag(self, capsys):
        code, out, _ = run(capsys, "table", "--which", "1", "--places", "2")
        assert code == 0 and "3.17" in out

    def test_unknown_table_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["table", "--which", "3"])
        assert info.value.code == 2

    def test_registry_file_extends_the_table(self, capsys, tmp_path):
        path = tmp_path / "extra.txt"
        path.write_text("5 3 125 user-supplied\n")
        code, out, _ = run(
            capsys, "table", "--which", "1", "--registry-file", str(path)
        )
        assert code == 0
        assert len(out.splitlines()) == 9
        assert any(line.startswith("5  3") for line in out.splitlines())

    def test_extension_row_past_the_square_bound_prints(self, capsys, tmp_path):
        # the file test_false_conclusion_exits_one uses: n + 1 = 10 > 9
        path = tmp_path / "big.txt"
        path.write_text("5 3 2000000 user-supplied\n")
        code, out, _ = run(
            capsys, "table", "--which", "2", "--registry-file", str(path), "--format", "csv"
        )
        assert code == 0
        assert out.splitlines()[-1] == "5,3,3.162,9,1.6094,1.0986,5^9,2000000,5^10,5^9"

    def test_bad_registry_file_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("this is not a record\n")
        code, _, err = run(
            capsys, "table", "--which", "1", "--registry-file", str(path)
        )
        assert code == 2 and "junk.txt:1" in err


class TestTheoremCommand:
    def test_all_conditions_true(self, capsys):
        code, out, _ = run(capsys, "theorem", "--r", "2", "--k", "6", "--k-prime", "3")
        assert code == 0
        assert "condition1 (larger value, larger k): true" in out
        assert "condition3 (k' in [3, sqrt(n+1))): true" in out
        assert "conclusion W < 2^11 <= 2^36: true" in out

    def test_vacuous_interval(self, capsys):
        code, out, _ = run(capsys, "theorem", "--r", "2", "--k", "3")
        assert code == 0
        assert "condition3 (k' in [3, sqrt(n+1))): vacuous" in out

    def test_json_round_trips(self, capsys):
        code, out, _ = run(
            capsys, "theorem", "--r", "2", "--k", "6", "--k-prime", "3",
            "--format", "json",
        )
        assert code == 0
        payload = assert_json_round_trips(out)
        assert payload["conclusion_holds"] is True
        assert payload["condition3_display"] == "true"

    def test_csv_header_and_row(self, capsys):
        code, out, _ = run(
            capsys, "theorem", "--r", "2", "--k", "6", "--k-prime", "3",
            "--format", "csv",
        )
        assert code == 0
        report = vdwkit.check_theorem(2, 6, 3)
        assert out.splitlines() == [
            ",".join(report.as_dict()),
            "2,6,3,1132,9,10,3,True,True,True,true,True,True",
        ]

    def test_k_prime_not_below_k_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, "theorem", "--r", "2", "--k", "6", "--k-prime", "7")
        assert code == 2 and "k_prime < k" in err

    @pytest.mark.parametrize("k_prime", ["0", "2"])
    def test_k_prime_below_three_is_a_usage_error(self, capsys, k_prime):
        code, _, err = run(capsys, "theorem", "--r", "2", "--k", "6", "--k-prime", k_prime)
        assert code == 2 and f"k_prime={k_prime}" in err

    def test_non_integer_k_prime_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            run(capsys, "theorem", "--r", "2", "--k", "6", "--k-prime", "3.0")
        assert info.value.code == 2
        assert "--k-prime" in capsys.readouterr().err

    def test_false_conclusion_exits_one(self, capsys, tmp_path):
        # an extension value with floor log 9 breaks n+1 <= 9 for k = 3
        path = tmp_path / "big.txt"
        path.write_text("5 3 2000000 user-supplied\n")
        code, out, _ = run(
            capsys, "theorem", "--r", "5", "--k", "3", "--registry-file", str(path)
        )
        assert code == 1
        assert "conclusion W < 5^10 <= 5^9: false" in out


class TestRatioCommand:
    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "ratio", "--r", "2", "--k", "4")
        assert code == 0
        assert "= 178/35" in out
        assert "gap 1" in out
        assert "residual 89/35" in out

    def test_json_round_trips(self, capsys):
        code, out, _ = run(capsys, "ratio", "--r", "3", "--k", "3", "--format", "json")
        assert code == 0
        payload = assert_json_round_trips(out)
        assert payload["exact"] == {
            "numerator": 293,
            "denominator": 27,
            "decimal": "10.851852",
        }
        assert payload["gap"] == 1

    def test_csv_flattens_rationals(self, capsys):
        code, out, _ = run(capsys, "ratio", "--r", "2", "--k", "4", "--format", "csv")
        assert code == 0
        header, row = out.splitlines()
        fields = dict(zip(header.split(","), row.split(",")))
        assert fields["exact"] == "178/35"
        assert fields["alpha"] == "+2"

    def test_missing_pair_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, "ratio", "--r", "2", "--k", "6")
        assert code == 2 and "W(2, 7)" in err

    # a 41-digit extension value: its 38-digit ratio still prints exactly
    def test_values_past_the_guard_digits_print(self, capsys, tmp_path):
        path = tmp_path / "big.txt"
        path.write_text(f"2 7 {10**40} user-supplied\n")
        code, out, _ = run(
            capsys, "ratio", "--r", "2", "--k", "6", "--registry-file", str(path)
        )
        assert code == 0
        assert f"= {10**40 // 4}/283 = 8833922261484098939929328621908127208.480565" in out


class TestSearchCommand:
    def test_exact_search_with_certificate(self, capsys, tmp_path):
        cert_path = tmp_path / "out.crt"
        code, out, err = run(
            capsys, "search", "--r", "2", "--k", "4",
            "--engine", "python", "--cert", str(cert_path),
        )
        assert code == 0
        assert "W(2, 4) = 35 (exact)" in out
        assert f"certificate written to {cert_path}" in err
        verify_code, verify_out, _ = run(capsys, "verify", str(cert_path))
        assert verify_code == 0
        assert "valid certificate: W(2, 4) > 34" in verify_out

    def test_json_round_trips(self, capsys):
        code, out, _ = run(
            capsys, "search", "--r", "2", "--k", "3",
            "--engine", "python", "--format", "json",
        )
        assert code == 0
        payload = assert_json_round_trips(out)
        assert payload["status"] == "exact" and payload["value"] == 9

    def test_budget_exhaustion_exits_three(self, capsys):
        code, out, _ = run(
            capsys, "search", "--r", "2", "--k", "6",
            "--engine", "python", "--max-nodes", "2000",
        )
        assert code == 3
        assert "budget-exhausted" in out

    def test_budget_certificate_is_still_written(self, capsys, tmp_path):
        cert_path = tmp_path / "partial.crt"
        code, _, _ = run(
            capsys, "search", "--r", "2", "--k", "6",
            "--engine", "python", "--max-nodes", "2000", "--cert", str(cert_path),
        )
        assert code == 3
        verify_code, verify_out, _ = run(capsys, "verify", str(cert_path))
        assert verify_code == 0 and "valid certificate" in verify_out

    def test_max_length_exits_three(self, capsys):
        code, out, _ = run(
            capsys, "search", "--r", "2", "--k", "3",
            "--engine", "python", "--max-length", "5",
        )
        assert code == 3 and "lower-bound-only" in out

    def test_domain_error_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, "search", "--r", "1", "--k", "3")
        assert code == 2 and "r=1" in err

    @pytest.mark.parametrize(
        "extra, fragment",
        [
            (("--workers", "0"), "workers=0"),
            (("--workers", "0", "--engine", "python"), "workers=0"),
            (("--max-nodes", "-1"), "max_nodes=-1"),
            (("--max-seconds", "-2"), "max_seconds=-2"),
        ],
    )
    def test_bad_search_argument_is_a_usage_error(self, capsys, extra, fragment):
        code, _, err = run(capsys, "search", "--r", "2", "--k", "3", *extra)
        assert code == 2 and fragment in err

    def test_canonical_mode_is_selectable(self, capsys):
        code, out, _ = run(
            capsys, "search", "--r", "2", "--k", "3", "--mode", "canonical",
            "--engine", "python", "--format", "json",
        )
        assert code == 0
        payload = assert_json_round_trips(out)
        assert payload["certificate"]["colors"] == [0, 0, 1, 1, 0, 0, 1, 1]

    def test_missing_compiler_warns_and_still_answers(self, tmp_path):
        # no compiler on PATH and an empty kernel cache: the compiled
        # kernel cannot be built, so the search must say so on stderr
        # and answer with the Python reference
        empty = tmp_path / "bin"
        empty.mkdir()
        env = dict(os.environ, PATH=str(empty))
        env["VDWKIT_CACHE_DIR"] = str(tmp_path / "cache")
        env.pop("CC", None)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(vdwkit.__file__).parents[1]), env.get("PYTHONPATH", "")]
        )
        proc = subprocess.run(
            [sys.executable, "-m", "vdwkit", "search", "--r", "3", "--k", "3"],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "W(3, 3) = 27 (exact)" in proc.stdout
        assert "RuntimeWarning" in proc.stderr
        assert "compiled search kernel unavailable" in proc.stderr


class TestVerifyCommand:
    def test_invalid_certificate_exits_one(self, capsys, tmp_path):
        path = tmp_path / "planted.crt"
        path.write_text("2 3 9\n0 0 1 1 0 1 1 0 0\n")
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 1
        assert "monochromatic progression at positions" in out

    def test_malformed_certificate_exits_two(self, capsys, tmp_path):
        path = tmp_path / "short.crt"
        path.write_text("2 3 9\n0 0 1\n")
        code, _, err = run(capsys, "verify", str(path))
        assert code == 2 and "expected 9 colors, found 3" in err

    def test_missing_file_exits_two(self, capsys, tmp_path):
        code, _, err = run(capsys, "verify", str(tmp_path / "nope.crt"))
        assert code == 2 and "error" in err

    def test_json_verdict(self, capsys, tmp_path):
        path = tmp_path / "ok.crt"
        path.write_text("2 3 8\n0 0 1 1 0 0 1 1\n")
        code, out, _ = run(capsys, "verify", str(path), "--format", "json")
        assert code == 0
        payload = assert_json_round_trips(out)
        assert payload["valid"] is True and payload["problems"] == []
