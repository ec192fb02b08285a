"""Refusals: every CLI usage and precondition error, and the public library
checks at the boundary, each with its exact type and text."""

import pytest

import zerosum.cli as cli
from zerosum import (
    Sequence,
    Witness,
    brute_force_modified_constant,
    build_power2_extremal,
    check_lemma_3n,
    check_lemma_por2p,
    conjecture_value,
    enumerate_multisets,
    formula_modified_square,
    has_zero_sum_in_lengths,
    make_group,
    min_nondivisor,
    parse_elements,
    parse_group,
    verify_theorem,
)
from zerosum.groups import GroupParseError
from zerosum.sequences import SequenceParseError

Z3_FILE = "<Z/3 file>"  # stands for a --seq-file holding "Z/3: 1 2"


@pytest.mark.parametrize("argv, line", [
    (["verify", "--suite", "egz", "--n", "5..3"], "ERROR:usage: empty range '5..3'"),
    (["detect", "--group", "Z/3", "--seq", "1 2", "--seq-file", Z3_FILE, "--k", "2"],
     "ERROR:usage: give either --seq or --seq-file, not both"),
    (["detect", "--group", "Z/4", "--seq-file", Z3_FILE, "--k", "2"],
     "ERROR:usage: --group Z/4 does not match the file's group Z/3"),
    (["detect", "--group", "Z/3", "--k", "2"], "ERROR:usage: a sequence is required (--seq or --seq-file)"),
    (["constant", "--group", "Z/3", "--t", "3", "--workers", "0"], "ERROR:usage: workers must be >= 1, got 0"),
    (["--format", "csv", "detect", "--group", "Z/3", "--seq", "1 2", "--k", "2"],
     "ERROR:usage: --format csv is not supported for detect"),
    (["extract", "--group", "Z/2^2", "--seq", "(0,1) (1,0)", "--t", "2", "--method", "block"],
     "ERROR:precondition: method block needs a cyclic group, got Z/2^2"),
    (["extract", "--group", "Z/4", "--seq", "1 2", "--t", "2", "--method", "block"],
     "ERROR:precondition: block method extracts length n = 4, got t = 2"),
    (["extract", "--group", "Z/3^2", "--seq", "(0,1)^9", "--t", "2", "--method", "square3n"],
     "ERROR:precondition: method square3n extracts length n = 3, got t = 2"),
    (["construct", "--family", "cyclic"], "ERROR:usage: construct --family cyclic needs --n"),
    (["construct", "--family", "square"], "ERROR:usage: construct --family square needs --n"),
    (["construct", "--family", "power2"], "ERROR:usage: construct --family power2 needs --r"),
    (["construct", "--family", "power2", "--r", "3", "--n", "3"],
     "ERROR:usage: the power2 family is only defined for n = 2"),
    (["constant", "--group", "Z/2^3", "--t", "4", "--claimed-from", "formula"],
     "ERROR:usage: no conjectured value for target 4 over Z/2^3"),
    (["constant", "--group", "Z/1000xZ/1000", "--t", "1000", "--budget", "1000", "--time-limit", "0.5"],
     "ERROR:usage: DP state space of 1001000000 bits (|G| = 1000000, k = 1000) exceeds the supported size"),
    (["verify", "--suite", "egz", "--n", ","], "ERROR:usage: empty list ','"),
    (["verify", "--suite", "cyclic", "--t", ","], "ERROR:usage: empty list ','"),
])
def test_cli_refusal_is_one_line_and_exit_2(tmp_path, capsys, argv, line):
    seq_file = tmp_path / "seq.txt"
    seq_file.write_text("Z/3: 1 2\n", encoding="utf-8")
    argv = [str(seq_file) if arg == Z3_FILE else arg for arg in argv]
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", line + "\n")


Z6 = make_group([6])


@pytest.mark.parametrize("call, error, message", [
    (lambda: build_power2_extremal(1, 0), ValueError, "r must be >= 1, got 0"),
    (lambda: has_zero_sum_in_lengths(Sequence(Z6, {(1,): 2}), [2, -1]), ValueError,
     "target lengths must be >= 0: [-1, 2]"),
    (lambda: min_nondivisor(0), ValueError, "n must be >= 1, got 0"),
    (lambda: min_nondivisor(6, 0), ValueError, "lower_bound must be >= 1, got 0"),
    (lambda: parse_group("Z/1000xZ/1001"), GroupParseError, "group order 1001000 exceeds the cap 1000000"),
    (lambda: formula_modified_square(0), ValueError, "need n >= 1, got 0"),
    (lambda: conjecture_value(2, 0), ValueError, "need n >= 1 and r >= 1, got n=2, r=0"),
    (lambda: enumerate_multisets(Z6, -1, print), ValueError, "length must be >= 0, got -1"),
    (lambda: brute_force_modified_constant(Z6, 0), ValueError, "target length must be >= 1, got 0"),
    (lambda: check_lemma_3n(0), ValueError, "n must be >= 1, got 0"),
    (lambda: check_lemma_3n(4, samples=0), ValueError, "samples must be >= 1, got 0"),
    (lambda: check_lemma_3n(2, samples=-1), ValueError, "samples must be >= 1, got -1"),
    (lambda: check_lemma_por2p(3, count=0), ValueError, "count must be >= 1, got 0"),
    (lambda: check_lemma_por2p(2, count=-5), ValueError, "count must be >= 1, got -5"),
    (lambda: verify_theorem("lemma3n", samples=0), ValueError, "samples must be >= 1, got 0"),
    (lambda: verify_theorem("por2p", samples=-2), ValueError, "samples must be >= 1, got -2"),
    (lambda: Sequence(Z6, {(1,): 0}), ValueError, "multiplicity for (1,) must be >= 1, got 0"),
    (lambda: Witness(Z6, {(3,): 2}).validate_against(Sequence(make_group([2]), {(1,): 2})), ValueError,
     "witness group does not match parent group"),
    (lambda: parse_elements(Z6, "1 x 2"), SequenceParseError, "unexpected text ' x '"),
], ids=["power2-r0", "negative-length", "nondivisor-n0", "nondivisor-bound0", "order-cap",
        "square-n0", "conjecture-r0", "enumerate-negative", "constant-t0", "lemma3n-n0",
        "lemma3n-samples0", "lemma3n-exhaustive-samples-negative", "por2p-count0",
        "por2p-exhaustive-count-negative", "verify-lemma3n-samples0", "verify-por2p-samples-negative",
        "multiplicity0", "other-group", "stray-text"])
def test_library_refusal(call, error, message):
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is error and str(info.value) == message
