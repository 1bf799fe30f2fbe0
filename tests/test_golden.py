"""Golden command-line output: stdout and exit code, byte for byte.

Each case runs one command in process and compares its whole stdout
with the file tests/golden/<name>.out, so a change to any digit, key,
column or line of the analysis commands shows here.  After a deliberate
change to the output, rewrite the files with

    PYTHONPATH=src python tests/test_golden.py

and review the diff before committing it.
"""
import contextlib
import io
import sys
from pathlib import Path

import pytest

from vdwkit.cli import main

GOLDEN = Path(__file__).parent / "golden"

# name -> (argv, exit code); every name is run in each of its formats
COMMANDS = {
    "radix-1132-6": (["radix", "--value", "1132", "--base", "6"], 0),
    "radix-178-5": (["radix", "--value", "178", "--base", "5"], 0),
    "table-1": (["table", "--which", "1"], 0),
    "table-2": (["table", "--which", "2"], 0),
    "theorem-2-6": (["theorem", "--r", "2", "--k", "6"], 0),
    "theorem-2-6-4": (["theorem", "--r", "2", "--k", "6", "--k-prime", "4"], 0),
    "theorem-2-4-3": (["theorem", "--r", "2", "--k", "4", "--k-prime", "3"], 0),
    "ratio-2-3": (["ratio", "--r", "2", "--k", "3"], 0),
    "ratio-2-4": (["ratio", "--r", "2", "--k", "4"], 0),
    "ratio-2-5": (["ratio", "--r", "2", "--k", "5"], 0),
    "ratio-3-3": (["ratio", "--r", "3", "--k", "3"], 0),
    "verify-valid": (["verify", str(GOLDEN / "valid.crt")], 0),
    "verify-invalid": (["verify", str(GOLDEN / "invalid.crt")], 1),
}

CASES = {
    f"{name}.{fmt}": (argv + ["--format", fmt], code)
    for name, (argv, code) in COMMANDS.items()
    for fmt in (("text", "json") if argv[0] == "verify" else ("text", "json", "csv"))
}


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_matches_golden(case):
    argv, expected_code = CASES[case]
    code, out = _run(argv)
    assert code == expected_code
    assert out.encode() == (GOLDEN / f"{case}.out").read_bytes()


if __name__ == "__main__":
    for case, (argv, expected_code) in sorted(CASES.items()):
        code, out = _run(argv)
        if code != expected_code:
            sys.exit(f"{case}: exit {code}, expected {expected_code}")
        (GOLDEN / f"{case}.out").write_bytes(out.encode())
