"""Acceptance criteria: every theorem check at its stated tolerance.

Each test prints one pass/fail line (visible with pytest -s). Runtime caps
from the criteria are asserted where stated.
"""

import json
import random
import time

import zerosum.cli as cli
from zerosum import (
    brute_force_modified_constant,
    build_cyclic_extremal,
    build_square_extremal,
    check_all_have_witness,
    check_lemma_3n,
    check_lemma_por2p,
    conjecture_value,
    extract_cyclic_block,
    extract_cyclic_nt,
    extract_square_block,
    extract_square_n,
    formula_modified_cyclic,
    formula_modified_square,
    make_group,
    min_nondivisor,
    parse_sequence,
    validate_extremal,
)

from conftest import random_zero_sum


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_ac01_cyclic_theorem_t1():
    start = time.monotonic()
    mismatches = []
    for n in range(2, 11):
        expected = formula_modified_cyclic(n, 1)
        report = brute_force_modified_constant(make_group([n]), n)
        if report.computed_value != expected:
            mismatches.append((n, report.computed_value, expected))
    elapsed = time.monotonic() - start
    ok = not mismatches and elapsed < 300
    _report(1, "cyclic t=1, n=2..10", ok, f"mismatches={mismatches} elapsed={elapsed:.1f}s")


def test_ac02_cyclic_theorem_t2():
    start = time.monotonic()
    mismatches = []
    for n in range(2, 9):
        expected = formula_modified_cyclic(n, 2)
        report = brute_force_modified_constant(make_group([n]), 2 * n)
        if report.computed_value != expected:
            mismatches.append((n, report.computed_value, expected))
    elapsed = time.monotonic() - start
    ok = not mismatches and elapsed < 600
    _report(2, "cyclic t=2, n=2..8", ok, f"mismatches={mismatches} elapsed={elapsed:.1f}s")


def test_ac03_square_theorem(capsys):
    start = time.monotonic()
    mismatches = []
    for n in (2, 3):
        expected = formula_modified_square(n)
        report = brute_force_modified_constant(make_group([n, n]), n)
        if report.computed_value != expected:
            mismatches.append((n, report.computed_value, expected))
    # n = 4 runs behind the CLI's --extended flag.
    code = cli.main(
        ["--format", "json", "verify", "--suite", "square", "--extended"]
    )
    payload = json.loads(capsys.readouterr().out)
    rows = {r["group"]: r for r in payload["reports"]}
    if rows["Z/4^2"]["computed_value"] != 12 or rows["Z/4^2"]["status"] != "OK":
        mismatches.append(("extended-4", rows["Z/4^2"]["computed_value"], 12))
    elapsed = time.monotonic() - start
    ok = code == 0 and not mismatches and elapsed < 900
    with capsys.disabled():
        _report(3, "square theorem n=2,3 and extended n=4", ok,
                f"mismatches={mismatches} elapsed={elapsed:.1f}s")


def test_ac04_extremal_constructions():
    start = time.monotonic()
    violations = []
    for n in range(2, 51):
        ell = min_nondivisor(n, 1)
        for t in (1, 2, 3):
            seq = build_cyclic_extremal(n, t)
            rep = validate_extremal(seq, [n * t])
            if not rep.valid or rep.length != (t + 1) * n - ell:
                violations.append(("cyclic", n, t))
    for n in range(2, 31):
        seq = build_square_extremal(n)
        rep = validate_extremal(seq, [n])
        if not rep.valid or rep.length != 4 * n - min_nondivisor(n, 4):
            violations.append(("square", n))
    elapsed = time.monotonic() - start
    ok = not violations and elapsed < 60
    _report(4, "extremal constructions", ok, f"violations={violations} elapsed={elapsed:.1f}s")


def test_ac05_egz_exhaustive():
    start = time.monotonic()
    failures = []
    for n in range(2, 11):
        rep = check_all_have_witness(make_group([n]), 2 * n - 1, n, name="egz")
        if not rep.passed:
            failures.append((n, rep.counterexample))
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 120
    _report(5, "EGZ exhaustive n<=10", ok, f"failures={failures} elapsed={elapsed:.1f}s")


def test_ac06_reiher_exhaustive():
    start = time.monotonic()
    failures = []
    for n in (2, 3):
        rep = check_all_have_witness(make_group([n, n]), 4 * n - 3, n, name="reiher")
        if not rep.passed:
            failures.append((n, rep.counterexample))
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 120
    _report(6, "Reiher exhaustive n=2,3", ok, f"failures={failures} elapsed={elapsed:.1f}s")


def test_ac07_lemma_3n():
    failures = []
    for n in (2, 3):
        rep = check_lemma_3n(n)
        if not (rep.passed and rep.params["mode"] == "exhaustive"):
            failures.append((n, rep.counterexample))
    for n in (4, 6):
        rep = check_lemma_3n(n, samples=1000, seed=0)
        if not (rep.passed and rep.checked >= 1000):
            failures.append((n, rep.counterexample))
    _report(7, "length-3n lemma", not failures, f"failures={failures}")


def test_ac08_por2p_congruence():
    failures = []
    rep = check_lemma_por2p(2)
    if not rep.passed:
        failures.append((2, rep.counterexample))
    rep = check_lemma_por2p(3, count=10000, seed=0)
    if not (rep.passed and rep.checked >= 20000):
        failures.append((3, rep.counterexample, rep.checked))
    _report(8, "p-vs-2p congruence", not failures, f"failures={failures}")


def test_ac09_extractor_oracle_agreement():
    rng = random.Random(2024)
    runs = 10000
    failures = []

    def trial_cyclic_block():
        n = rng.randint(2, 10)
        d = rng.choice([x for x in range(1, n + 1) if n % x == 0])
        seq = random_zero_sum(rng, make_group([n]), 2 * n - d)
        w = extract_cyclic_block(seq, d)
        w.validate_against(seq, size=n)

    def trial_cyclic_nt():
        n = rng.randint(2, 8)
        t = rng.randint(1, 3)
        length = (t + 1) * n - min_nondivisor(n, 1) + 1 + rng.randint(0, 2)
        seq = random_zero_sum(rng, make_group([n]), length)
        w = extract_cyclic_nt(seq, t)
        w.validate_against(seq, size=n * t)

    def trial_square_block():
        n = rng.randint(2, 6)
        d = rng.choice([x for x in range(1, n + 1) if n % x == 0])
        seq = random_zero_sum(rng, make_group([n, n]), 4 * n - d)
        w = extract_square_block(seq, d)
        w.validate_against(seq, size=n)

    def trial_square_n():
        n = rng.randint(2, 6)
        length = 4 * n - min_nondivisor(n, 4) + 1 + rng.randint(0, 2)
        seq = random_zero_sum(rng, make_group([n, n]), length)
        w = extract_square_n(seq)
        w.validate_against(seq, size=n)

    for name, trial in (
        ("cyclic_block", trial_cyclic_block),
        ("cyclic_nt", trial_cyclic_nt),
        ("square_block", trial_square_block),
        ("square_n", trial_square_n),
    ):
        for i in range(runs):
            try:
                trial()
            except Exception as exc:  # noqa: BLE001 - any failure is a violation
                failures.append((name, i, repr(exc)))
                break
    _report(9, "extractor/oracle agreement 4x10^4", not failures, f"failures={failures}")


def test_ac10_conjecture_small_case():
    start = time.monotonic()
    group = make_group([2, 2, 2])
    report = brute_force_modified_constant(group, 2)
    expected = conjecture_value(2, 3)
    witness = parse_sequence(report.extremal_witness)
    elapsed = time.monotonic() - start
    ok = (
        report.computed_value == expected == 9
        and witness.length == 8
        and len(witness.counts) == 8
        and all(m == 1 for m in witness.counts.values())
        and elapsed < 60
    )
    _report(10, "conjecture (Z/2)^3 t=2", ok,
            f"computed={report.computed_value} witness={report.extremal_witness} "
            f"elapsed={elapsed:.1f}s")


def _strip_wall(obj):
    if isinstance(obj, dict):
        return {k: _strip_wall(v) for k, v in obj.items() if k != "wall_ms"}
    if isinstance(obj, list):
        return [_strip_wall(v) for v in obj]
    return obj


def test_ac11_worker_determinism(capsys):
    # Cyclic n = 2..6 walk too few nodes to start the pool; Z/12 at t = 12
    # walks 215,157, so its pooled run hands chunks to worker processes. The
    # witness check egz n = 12 hands 6 chunks to them; reiher n = 5 walks
    # 21,250 nodes under the cap chain, fewer than start the pool.
    same = {}
    for suite, n in (("cyclic", "2..6"), ("cyclic", "12"), ("egz", "12"), ("reiher", "5")):
        outputs = []
        for workers in ("1", "8"):
            code = cli.main(
                ["--format", "json", "verify", "--suite", suite, "--n", n,
                 "--workers", workers]
            )
            assert code == 0
            outputs.append(json.loads(capsys.readouterr().out))
        a, b = (json.dumps(_strip_wall(o), sort_keys=True) for o in outputs)
        same[f"{suite} {n}"] = a == b
    ok = all(same.values())
    with capsys.disabled():
        _report(11, "worker-count determinism", ok,
                f"byte-identical modulo wall-time: {same}")
