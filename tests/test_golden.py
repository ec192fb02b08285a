"""Golden `--format json` outputs of every subcommand.

Each command's stdout must match the recorded output byte for byte, with
the wall-clock fields zeroed, and exit with the recorded code. This pins
the extremal witnesses, the node and leaf counts, the engine's
lexicographically least witnesses and counts, each extractor's witness,
the constructions and the exit codes.

Regenerate after an intended change with `python tests/test_golden.py`.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
from pathlib import Path

import pytest

from zerosum.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")

COMMANDS = [
    ["constant", "--group", "Z/2^2", "--t", "2"],
    ["constant", "--group", "Z/4", "--t", "4"],
    ["constant", "--group", "Z/6", "--t", "6"],
    ["constant", "--group", "Z/2^3", "--t", "2"],
    ["verify", "--suite", "egz", "--n", "2..5"],
    ["verify", "--suite", "reiher", "--n", "2"],
    ["verify", "--suite", "lemma3n", "--n", "2,3"],
    ["verify", "--suite", "por2p", "--n", "2"],
    ["verify", "--suite", "cyclic", "--n", "2..5", "--t", "1,2"],
    ["verify", "--suite", "square", "--n", "2,3"],
    ["verify", "--suite", "conjecture", "--n", "1..3"],
    ["verify", "--suite", "por2p", "--n", "2,3", "--samples", "50", "--seed", "4"],
    ["verify", "--suite", "lemma3n", "--n", "4", "--samples", "20", "--seed", "2"],
    ["verify", "--suite", "egz", "--n", "2..6", "--workers", "2"],
    ["detect", "--group", "Z/10", "--seq", "0^3 1^4 2^2 3^2 5 6^2 7^3 9^2", "--k", "10"],
    ["detect", "--group", "Z/3", "--seq", "1^2 2^2", "--k", "3"],
    ["detect", "--group", "Z/3^2", "--seq", "(0,0)^2 (0,2) (1,0) (1,1)^3 (1,2)^2 (2,0) (2,1) (2,2)", "--k", "6"],
    ["detect", "--group", "Z/3000", "--seq", "1 2 3 2994", "--k", "4"],
    ["count", "--group", "Z/10", "--seq", "0^3 1^4 2^2 3^2 5 6^2 7^3 9^2", "--k", "10"],
    ["count", "--group", "Z/10", "--seq", "0^3 1^4 2^2 3^2 5 6^2 7^3 9^2", "--k", "10", "--mod", "10"],
    ["count", "--group", "Z/3^2", "--seq", "(0,0)^2 (0,2) (1,0) (1,1)^3 (1,2)^2 (2,0) (2,1) (2,2)", "--k", "6"],
    ["count", "--group", "Z/3000", "--seq", "1 2 3 2994", "--k", "4"],
    ["extract", "--group", "Z/6", "--seq", "0^3 1 2 3^2 4 5", "--t", "6"],
    ["extract", "--group", "Z/6", "--seq", "0^5 1^2 2 3^3 4^3 5", "--t", "2", "--method", "nt"],
    ["extract", "--group", "Z/12", "--seq", "0^4 1 2^2 3^2 4 6^2 8^2 9^5 10^2", "--t", "12", "--method", "block"],
    ["extract", "--group", "Z/4^2", "--seq", "(0,0) (0,1) (0,2)^2 (1,0) (1,1) (1,2) (2,1) (2,3) (3,2) (3,3)^2", "--t", "4", "--method", "square3n"],
    ["extract", "--group", "Z/6^2", "--seq", "(0,2) (0,4)^2 (0,5) (2,1) (2,4) (2,5)^2 (3,0) (3,1) (3,2) (3,3) (3,4) (3,5) (4,0) (4,2) (4,3) (4,4)", "--t", "6", "--method", "square3n"],
    ["extract", "--group", "Z/6^2", "--seq", "(0,1) (0,3) (0,5) (1,3) (1,4) (2,0) (2,1)^2 (2,5)^2 (3,0) (3,2) (3,3) (3,4)^2 (3,5) (5,0) (5,1) (5,2) (5,3) (5,4)^2", "--t", "6", "--method", "squareblock"],
    ["extract", "--group", "Z/6^2", "--seq", "(0,1)^2 (0,3) (1,1)^2 (1,5) (2,2) (2,4) (3,2) (3,3) (3,4) (3,5) (4,1) (4,2) (4,3) (4,4) (5,0) (5,1) (5,3)^2 (5,5)", "--t", "6"],
    ["extract", "--group", "Z/10", "--seq", "0^3 1^4 2^2 3^2 5 6^2 7^3 9^2", "--t", "10", "--method", "dp"],
    ["extract", "--group", "Z/10", "--seq", "0^3 1^4 2^2 3^2 5 6^2 7^3 9^2", "--t", "7"],
    ["construct", "--family", "cyclic", "--n", "6", "--t", "2"],
    ["construct", "--family", "square", "--n", "4"],
    ["construct", "--family", "power2", "--r", "3"],
]


def run_json(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["--format", "json", *argv])
    return code, re.sub(r'"wall_ms": \d+', '"wall_ms": 0', out.getvalue())


def _records() -> dict[str, dict]:
    return {" ".join(r["argv"]): r for r in json.loads(GOLDEN.read_text(encoding="utf-8"))}


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_golden_json(argv):
    expected = _records()[" ".join(argv)]
    code, out = run_json(argv)
    assert code == expected["exit_code"]
    assert out == json.dumps(expected["output"], sort_keys=True, indent=2) + "\n"


if __name__ == "__main__":
    records = []
    for argv in COMMANDS:
        code, out = run_json(argv)
        records.append({"argv": argv, "exit_code": code, "output": json.loads(out)})
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
