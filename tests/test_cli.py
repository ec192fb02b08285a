"""CLI behavior: subcommands, formats, exit codes, error prefixes."""

import json
import os
import random
import subprocess
import sys
import time

import pytest

import zerosum.cli as cli
import zerosum.search as search
from zerosum import (
    PropertyReport,
    Sequence,
    make_group,
    min_nondivisor,
    parse_sequence,
    serialize_sequence,
)

from conftest import random_zero_sum


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_detect_found(capsys):
    code, out, _ = run(capsys, "detect", "--group", "Z/3", "--seq", "1^2 2^2", "--k", "2")
    assert code == 0
    assert out.strip() == "Z/3: 1 2"


def test_detect_none(capsys):
    code, out, _ = run(capsys, "detect", "--group", "Z/3", "--seq", "1^2 2^2", "--k", "3")
    assert code == 0
    assert out.strip() == "none"


def test_count_spec_example(capsys):
    code, out, _ = run(
        capsys, "count", "--group", "Z/2^2", "--seq", "(0,0) (0,1) (1,0) (1,1)", "--k", "2"
    )
    assert code == 0
    assert out.strip() == "0"


def test_count_refuses_a_table_too_wide_to_build(capsys):
    code, out, err = run(capsys, "count", "--group", "Z/1", "--seq", "0^100000", "--k", "50000")
    assert (code, out) == (2, "")
    assert err.startswith("ERROR:usage:") and "exceeds the supported size" in err


def test_count_modular(capsys):
    code, out, _ = run(
        capsys, "count", "--group", "Z/3", "--seq", "1^2 2^2", "--k", "2", "--mod", "3"
    )
    assert code == 0
    assert out.strip() == "1"  # 4 mod 3


def test_extract_nt_spec_example(capsys):
    # For the named nt method --t is the multiplier: witness length is n*t.
    code, out, _ = run(
        capsys, "extract", "--group", "Z/3", "--seq", "0^4 1^2 2^2", "--t", "2",
        "--method", "nt",
    )
    assert code == 0
    witness = parse_sequence(out.strip())
    assert witness.length == 6 and witness.is_zero_sum()


def test_extract_auto_target_length(capsys):
    # auto keeps --t as the witness length, picking nt when n divides it.
    code, out, _ = run(
        capsys, "--format", "json", "extract", "--group", "Z/3",
        "--seq", "0^4 1^2 2^2", "--t", "6",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["method_used"] == "nt"
    assert parse_sequence(payload["witness"]).length == 6


def test_extract_named_method_fails_loudly(capsys):
    # square3n on a cyclic group is a precondition violation, not a fallback.
    code, _, err = run(
        capsys, "extract", "--group", "Z/3", "--seq", "0^4 1^2 2^2", "--t", "3",
        "--method", "square3n",
    )
    assert code == 2
    assert err.startswith("ERROR:precondition:")


@pytest.mark.parametrize(
    "group, seq, method, message",
    [
        ("Z/6", "0^13", "block", "shorter than 2n = 12, got length 13"),
        ("Z/6", "0^12", "block", "shorter than 2n = 12, got length 12"),
        ("Z/6^2", "(0,0)^25", "squareblock", "shorter than 4n = 24, got length 25"),
        ("Z/6^2", "(0,0)^24", "squareblock", "shorter than 4n = 24, got length 24"),
    ],
)
def test_extract_block_refuses_an_over_long_sequence(capsys, group, seq, method, message):
    # The block methods read the length as 2n - d (4n - d) with d >= 1, so a
    # longer sequence is refused for its length, not for the d it implies.
    code, out, err = run(
        capsys, "extract", "--group", group, "--seq", seq, "--t", "6", "--method", method
    )
    assert code == 2
    assert out == ""
    assert err.startswith("ERROR:precondition:")
    assert message in err and "d = " not in err


def test_extract_auto_dispatch(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "extract", "--group", "Z/2^2",
        "--seq", "(0,0)^2 (0,1)^2 (1,0)^2", "--t", "2",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["method_used"] == "square3n"
    assert parse_sequence(payload["witness"]).length == 2


def test_extract_dp_fallback(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "extract", "--group", "Z/5",
        "--seq", "1^2 4^2", "--t", "2",
    )
    payload = json.loads(out)
    assert payload["method_used"] == "dp"
    assert code == 0


def test_construct_cyclic(capsys):
    code, out, _ = run(capsys, "construct", "--family", "cyclic", "--n", "6", "--t", "1")
    assert code == 0
    assert out.splitlines()[0] == "Z/6: 1^4 2^4"
    assert "valid=True" in out


def test_construct_square_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "construct", "--family", "square", "--n", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["validation"]["valid"] is True
    assert payload["sequence"] == "Z/3^2: (1,1)^2 (1,2)^2 (2,1)^2 (2,2)^2"


def test_construct_power2_degenerate(capsys):
    code, _, err = run(capsys, "construct", "--family", "power2", "--r", "1")
    assert code == 2
    assert err.startswith("ERROR:usage:")


def test_constant_with_formula(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "constant", "--group", "Z/4", "--t", "4",
        "--claimed-from", "formula",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["computed_value"] == 6
    assert payload["report"]["claimed_value"] == 6
    assert payload["report"]["status"] == "OK"


def test_constant_csv(capsys):
    code, out, _ = run(
        capsys, "--format", "csv", "constant", "--group", "Z/3", "--t", "3",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("group,t,claimed,computed")
    assert lines[1].startswith("Z/3,3,,5")


def test_verify_square_text(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "square", "--n", "2..3")
    assert code == 0
    assert "all ok" in out


def test_verify_json_schema(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "verify", "--suite", "egz", "--n", "2..4"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert len(payload["reports"]) == 3
    assert all(r["passed"] for r in payload["reports"])


def test_verify_failure_exit_code(capsys, monkeypatch):
    failing = PropertyReport(
        name="egz", params={"n": 2}, passed=False, checked=1, violations=1
    )
    monkeypatch.setattr(cli, "verify_theorem", lambda *a, **k: [failing])
    code, out, _ = run(capsys, "verify", "--suite", "egz")
    assert code == 1
    assert "FAILURES PRESENT" in out


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "detect", "--group", "Z/x", "--seq", "1", "--k", "1")
    assert code == 2
    assert err.startswith("ERROR:parse:")

    code, _, err = run(capsys, "detect", "--group", "Z/3", "--seq", "7", "--k", "1")
    assert code == 2
    assert err.startswith("ERROR:parse:")


def test_lenient_flag(capsys):
    code, out, _ = run(
        capsys, "--lenient", "detect", "--group", "Z/3", "--seq", "7 -1", "--k", "2"
    )
    assert code == 0
    assert out.strip() == "Z/3: 1 2"


def test_budget_exit_code(capsys):
    code, _, err = run(
        capsys, "constant", "--group", "Z/8", "--t", "16", "--budget", "500"
    )
    assert code == 3
    assert err.startswith("ERROR:budget:")


@pytest.mark.parametrize("budget", [419, 420, 421])
def test_budget_line_when_the_cap_falls_inside_a_chunk_prefix(capsys, budget):
    # Z/8 at t=16: chunk 3 starts after 419 nodes with a prefix of 3 copies
    # of the top element. A cap at or inside it reports the first node past
    # the cap, as a walk that adds those copies one at a time would.
    deadline = time.monotonic() + 900
    assert search._profile((8,), 16, 15 * 8, None, 10**8, deadline, range(3)).nodes == 419
    code, out, err = run(capsys, "constant", "--group", "Z/8", "--t", "16", "--budget", str(budget))
    assert (code, out) == (3, "")
    assert err == f"ERROR:budget: node budget exhausted: {budget + 1} nodes, {budget} allowed\n"


def test_infinite_constant_exit_code(capsys):
    # s'(Z/4, 2) is infinite: 4 does not divide 2. The refusal is immediate.
    start = time.monotonic()
    code, out, err = run(capsys, "constant", "--group", "Z/4", "--t", "2")
    assert code == 2
    assert out == ""
    assert err.startswith("ERROR:precondition:")
    assert time.monotonic() - start < 1.0


def test_usage_errors(capsys):
    code, _, err = run(capsys, "detect", "--seq", "1", "--k", "1")
    assert code == 2
    assert err.startswith("ERROR:usage:")

    code, _, err = run(capsys, "constant", "--group", "Z/4", "--t", "3",
                       "--claimed-from", "formula")
    assert code == 2
    assert err.startswith("ERROR:usage:")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suite", "nope"],
        ["detect", "--group", "Z/3", "--seq", "1"],
        ["frobnicate"],
    ],
    ids=["unknown-suite", "missing-k", "unknown-subcommand"],
)
def test_argparse_errors_are_one_usage_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("ERROR:usage:") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["detect", "count", "extract", "construct", "constant", "verify"])
def test_subcommand_help_exits_0(capsys, command):
    code, out, err = run(capsys, command, "--help")
    assert (code, err) == (0, "")
    assert out.startswith(f"usage: zerosum {command}")


@pytest.mark.parametrize("suite", ["square", "egz", "conjecture"])
def test_verify_t_is_a_usage_error_outside_the_cyclic_suite(capsys, suite):
    code, out, err = run(capsys, "verify", "--suite", suite, "--n", "2", "--t", "2")
    assert (code, out) == (2, "")
    assert err.startswith("ERROR:usage:") and "cyclic suite" in err


@pytest.mark.parametrize(
    "group, t, claimed",
    [("Z/3^2", "3", 9), ("Z/2^3", "2", 9), ("Z/3^2", "6", None), ("Z/2xZ/4", "4", None)],
)
def test_constant_claimed_from_formula(capsys, group, t, claimed):
    # The square theorem, the conjectured value for (Z/2)^r, and two targets
    # with no closed form, refused before any search.
    code, out, err = run(
        capsys, "--format", "json", "constant", "--group", group, "--t", t,
        "--claimed-from", "formula",
    )
    if claimed is None:
        assert (code, out) == (2, "")
        assert err.startswith("ERROR:usage: no closed form")
        return
    report = json.loads(out)["report"]
    assert code == 0
    assert report["claimed_value"] == report["computed_value"] == claimed


def test_seq_file_roundtrip(tmp_path, capsys):
    path = tmp_path / "seq.txt"
    path.write_text("Z/6: 1^4 2^4\n", encoding="utf-8")
    code, out, _ = run(capsys, "detect", "--seq-file", str(path), "--k", "8")
    assert code == 0
    assert out.strip() == "Z/6: 1^4 2^4"

    jpath = tmp_path / "seq.json"
    jpath.write_text(
        json.dumps({"group": {"moduli": [6]}, "counts": [[[1], 4], [[2], 4]]}),
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "detect", "--seq-file", str(jpath), "--k", "8")
    assert code == 0
    assert out.strip() == "Z/6: 1^4 2^4"


@pytest.mark.parametrize(
    "text",
    [
        '{"group": {"moduli": [6]}, "counts": [[5, 1]]}',
        '{"group": {"moduli": [6]}, "counts": 7}',
        '{"group": {"moduli": [6]}, "counts": [[[1], 2.5]]}',
        '{"group": {"moduli": [6]}, "counts": [[[1], true]]}',
        '{"group": {"moduli": [6]}, "counts": [[[1], "x"]]}',
        '{"group": {"moduli": [0]}, "counts": []}',
        '{"group": {"moduli": [5000, 5000]}, "counts": []}',
        '{"group": {"moduli": [6]}, "counts": [[[1], 2]',
    ],
)
def test_malformed_json_seq_file_is_a_parse_error(tmp_path, capsys, text):
    path = tmp_path / "seq.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "detect", "--seq-file", str(path), "--k", "1")
    assert (code, out) == (2, "")
    assert err.startswith("ERROR:parse:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "seq, message",
    [
        ("(1,)", "element '(1,)' has a coordinate that is not an integer"),
        ("(a,b)", "element '(a,b)' has a coordinate that is not an integer"),
    ],
)
def test_non_integer_coordinate_is_a_parse_error(capsys, seq, message):
    code, out, err = run(capsys, "detect", "--group", "Z/3^2", "--seq", seq, "--k", "1")
    assert (code, out, err) == (2, "", f"ERROR:parse: {message}\n")


def test_unreadable_seq_file_is_a_usage_error(tmp_path, capsys):
    # A missing file or a directory is the user's input, not a fault in the
    # program: one ERROR:usage: line with the reason, and exit code 2.
    missing = tmp_path / "missing.txt"
    for path, reason in ((missing, "No such file or directory"), (tmp_path, "Is a directory")):
        code, out, err = run(capsys, "detect", "--seq-file", str(path), "--k", "2")
        assert (code, out) == (2, "")
        assert err == f"ERROR:usage: cannot read --seq-file {path}: {reason}\n"


def test_witness_revalidates_through_detect(capsys):
    # A printed witness re-validates when piped back through detect.
    code, out, _ = run(
        capsys, "extract", "--group", "Z/6", "--seq", "0^5 1^2 2^2", "--t", "6",
    )
    assert code == 0
    witness = parse_sequence(out.strip())
    body = " ".join(
        f"{el[0]}^{m}" if m > 1 else str(el[0]) for el, m in witness.items()
    )
    code2, out2, _ = run(
        capsys, "detect", "--group", "Z/6", "--seq", body, "--k", str(witness.length)
    )
    assert code2 == 0
    assert out2.strip() != "none"


def test_internal_fault_exits_4_with_one_line(capsys, monkeypatch):
    # A fault in the program is neither a violated property (exit 1) nor a
    # usage error (exit 2): one ERROR:internal: line, exit code 4.
    monkeypatch.setattr(search, "_square_3n", lambda *args: None)
    code, out, err = run(capsys, "verify", "--suite", "lemma3n", "--n", "2")
    assert code == 4
    assert out == ""
    assert err == "ERROR:internal: AssertionError: guaranteed block selection not found\n"


def test_failed_check_of_a_found_witness_is_an_internal_fault(capsys, monkeypatch):
    # A witness the program found that fails its own check is a fault in the
    # program, not a usage error: exit 4 with the check's message.
    monkeypatch.setattr(search, "_find", lambda *args: {})
    code, out, err = run(capsys, "verify", "--suite", "lemma3n", "--n", "2")
    assert (code, out) == (4, "")
    assert err == "ERROR:internal: AssertionError: witness has length 0, expected 2\n"


def test_env_workers(capsys, monkeypatch):
    monkeypatch.setenv("ZEROSUM_WORKERS", "2")
    code, out, _ = run(
        capsys, "--format", "json", "verify", "--suite", "cyclic", "--n", "2..3"
    )
    assert code == 0
    payload = json.loads(out)
    assert all(r["status"] == "OK" for r in payload["reports"])


def test_import_loads_no_pool_module():
    # Only a run with more than one worker needs the process pool's modules.
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import zerosum.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('concurrent', 'multiprocessing')))"
    )
    out = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_env_budget(capsys, monkeypatch):
    monkeypatch.setenv("ZEROSUM_BUDGET", "500")
    code, _, err = run(capsys, "constant", "--group", "Z/8", "--t", "16")
    assert code == 3
    assert err.startswith("ERROR:budget:")
    # An explicit flag overrides the environment.
    monkeypatch.setenv("ZEROSUM_BUDGET", "500")
    code, out, _ = run(
        capsys, "constant", "--group", "Z/2", "--t", "2", "--budget", "100000"
    )
    assert code == 0


@pytest.mark.parametrize(
    "argv, env",
    [
        (["verify", "--suite", "lemma3n", "--n", "4", "--samples", "0"], None),
        (["verify", "--suite", "lemma3n", "--n", "4", "--samples", "-5"], None),
        (["constant", "--group", "Z/4", "--t", "4", "--budget", "-3"], None),
        (["constant", "--group", "Z/4", "--t", "4", "--time-limit", "-1"], None),
        (["constant", "--group", "Z/4", "--t", "4", "--time-limit", "0"], None),
        (["constant", "--group", "Z/4", "--t", "4"], "0"),
    ],
)
def test_numeric_flags_out_of_range_are_usage_errors(capsys, monkeypatch, argv, env):
    if env is not None:
        monkeypatch.setenv("ZEROSUM_BUDGET", env)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("ERROR:usage:")


def test_por2p_needs_a_prime(capsys):
    code, out, err = run(capsys, "verify", "--suite", "por2p", "--n", "4", "--samples", "20")
    assert code == 2
    assert out == ""
    assert err.startswith("ERROR:precondition:")


def _auto_sequence(moduli, length, zero_sum):
    """A seeded sequence of the given length, zero-sum or not, as --seq text."""
    g = make_group(moduli)
    rng = random.Random(length)
    if zero_sum:
        seq = random_zero_sum(rng, g, length)
    else:
        # A zero-sum sequence plus one nonzero element sums to that element.
        seq = random_zero_sum(rng, g, length - 1)
        one = (1,) + (0,) * (len(moduli) - 1)
        seq = Sequence(g, {**seq.counts, one: seq.counts.get(one, 0) + 1})
        assert not seq.is_zero_sum()
    return serialize_sequence(seq).split(": ", 1)[1]


def _edges(moduli, target, length, method):
    """At the hypothesis length the extractor runs; one below it, or on a
    sequence that is not zero-sum, auto falls back to dp."""
    return [
        (moduli, target, length, True, method),
        (moduli, target, length - 1, True, "dp"),
        (moduli, target, length, False, "dp"),
    ]


@pytest.mark.parametrize(
    "moduli, target, length, zero_sum, method",
    [
        case
        for n in (6, 12)
        for t in (1, 2)
        for case in _edges((n,), n * t, (t + 1) * n - min_nondivisor(n, 1) + 1, "nt")
    ]
    + _edges((6, 6), 6, 18, "square3n")
    + _edges((6, 6), 6, 4 * 6 - min_nondivisor(6, 4) + 1, "squaren"),
)
def test_extract_auto_defers_to_extractor_hypotheses(capsys, moduli, target, length, zero_sum, method):
    group = "x".join(f"Z/{m}" for m in moduli)
    code, out, _ = run(
        capsys, "--format", "json", "extract", "--group", group,
        "--seq", _auto_sequence(moduli, length, zero_sum), "--t", str(target),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["method_used"] == method
    if method != "dp":
        assert payload["found"]
    if payload["found"]:
        witness = parse_sequence(payload["witness"])
        assert witness.length == target and witness.is_zero_sum()
