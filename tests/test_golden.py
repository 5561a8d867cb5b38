"""Golden CLI outputs: the stdout and exit code of fixed commands, byte for byte.

The files under tests/golden/ hold the reference outputs; `exit_codes.json`
maps each file name to its exit code.  A difference is a change to the CLI
contract.  To record them again from the build in src/, run
``PYTHONPATH=src python tests/test_golden.py``.
"""
import contextlib
import io
import json
from pathlib import Path

import pytest

from rumer.cli import main

GOLDEN = Path(__file__).parent / "golden"
EXIT_CODES = GOLDEN / "exit_codes.json"
#: Seven pairwise-crossing diameters on 14 points.
DIAMETERS = "".join(f"[{i},{i + 7}]" for i in range(1, 8))

CASES = {
    "verify_n2-5_m0-4.txt": ["verify", "--n", "2..5", "--m", "0..4"],
    "verify_n2-5_m0-4.json": ["verify", "--n", "2..5", "--m", "0..4", "--format", "json"],
    "enumerate_n6_m5.json": ["enumerate", "--n", "6", "--m", "5", "--format", "json"],
    "enumerate_multidegree_112233.txt": ["enumerate", "--multidegree", "1,1,2,2,3,3"],
    "count_n8_m5_all.json": ["count", "--n", "8", "--m", "5", "--method", "all", "--format", "json"],
    "straighten_diameters7.txt": ["straighten", DIAMETERS, "--n", "14"],
    "straighten_diameters7_verify.json": [
        "straighten", DIAMETERS, "--n", "14", "--verify", "--format", "json",
    ],
    "straighten_signed.txt": ["straighten", "2*[3,1][2,4] - [4,2]", "--n", "4"],
}


def replay(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    code, out = replay(CASES[name])
    assert code == json.loads(EXIT_CODES.read_text())[name]
    assert out.encode() == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for name, argv in sorted(CASES.items()):
        codes[name], out = replay(argv)
        (GOLDEN / name).write_bytes(out.encode())
    EXIT_CODES.write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")
