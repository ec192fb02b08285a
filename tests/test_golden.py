"""Golden `--format json` outputs of `constant` and `verify`.

Each command's stdout must match the recorded output byte for byte, with
the wall-clock fields zeroed, and exit with the recorded code. This pins
the extremal witnesses, the node and leaf counts and the exit codes.

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
