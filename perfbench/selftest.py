"""Self-tests of the independent checkers: each accepts a correct output and
rejects corrupted ones. Needs neither zerosum nor pytest.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import copy
import itertools
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checkers as ck  # noqa: E402
import workloads as wl  # noqa: E402


def rejects(fn, *args) -> bool:
    try:
        fn(*args)
    except ck.CheckFailed:
        return True
    return False


def brute_count(moduli, counts, k):
    items = [el for el, m in counts.items() for _ in range(m)]
    return sum(
        1
        for combo in itertools.combinations(items, k)
        if not any(sum(e[a] for e in combo) % q for a, q in enumerate(moduli))
    )


def brute_constant(moduli, t, top):
    """s'(G, t) from the definition, scanning zero-sum multisets up to length top."""
    last_fail = 0
    for length in range(1, top + 1):
        for combo in itertools.combinations_with_replacement(ck.all_elements(moduli), length):
            counts = {el: combo.count(el) for el in set(combo)}
            if ck.is_zero_sum(moduli, counts) and ck.count_zero_sum(moduli, counts, t) == 0:
                last_fail = length
                break
    return last_fail + 1


def test_closed_forms():
    for moduli, t in [((2,), 2), ((3,), 3), ((4,), 4), ((5,), 5), ((3,), 6), ((2, 2), 2), ((2, 2, 2), 2)]:
        value = ck.expected_constant(moduli, t)
        assert brute_constant(moduli, t, value + 2) == value, (moduli, t)
    assert [ck.expected_constant(*c) for c in [((2,) * 4, 2), ((4, 4), 4), ((8,), 16)]] == [17, 12, 22]


def test_witness_checker():
    moduli, parent = (4,), {(1,): 3, (2,): 2, (3,): 1}
    ck.check_witness(moduli, parent, {(1,): 2, (2,): 1}, 3)
    assert rejects(ck.check_witness, moduli, parent, {(1,): 4}, 4)  # not contained
    assert rejects(ck.check_witness, moduli, parent, {(1,): 2, (2,): 1}, 4)  # wrong length
    assert rejects(ck.check_witness, moduli, parent, {(1,): 3}, 3)  # not zero-sum


def test_counting_dp():
    cases = [((5,), {(0,): 2, (1,): 3, (4,): 3}, 5), ((3, 3), {(0, 1): 2, (1, 2): 2, (2, 0): 3, (1, 1): 1}, 3)]
    for moduli, counts, k in cases:
        exact = brute_count(moduli, counts, k)
        assert ck.count_zero_sum(moduli, counts, k) == exact
        assert ck.count_zero_sum(moduli, counts, k, modulus=moduli[0]) == exact % moduli[0]


def test_multiset_counter():
    for moduli, size in [((2, 2), 6), ((3, 3), 4), ((4,), 5)]:
        elems = ck.all_elements(moduli)
        combos = list(itertools.combinations_with_replacement(elems, size))
        zero = sum(1 for c in combos if not any(sum(e[a] for e in c) % q for a, q in enumerate(moduli)))
        assert ck.count_multisets(moduli, size, zero_sum_only=False) == len(combos)
        assert ck.count_multisets(moduli, size, zero_sum_only=True) == zero


def test_sequence_reader():
    assert ck.parse_sequence_text("Z/4^2: (0,2)^2 (1,1)^3") == ((4, 4), {(0, 2): 2, (1, 1): 3})
    assert ck.parse_sequence_text("Z/8: 2^15 3^6") == ((8,), {(2,): 15, (3,): 6})
    assert rejects(ck.parse_sequence_text, "Z/8: 2^15 9")  # out of range
    assert rejects(ck.parse_sequence_text, "Z/8: 2^15 x")  # unread text


def test_constant_check():
    (op,) = [o for o in wl.scan_ops(None, None, 1) if "Z/8" in o.name]
    good = {"exit_code": 0, "report": {"computed_value": 22, "claimed_value": 22, "extremal_witness": "Z/8: 2^15 3^6"}}
    op.check(good)
    corruptions = [
        ("computed_value", 21),
        ("claimed_value", 23),
        ("extremal_witness", "Z/8: 2^14 3^7"),  # not zero-sum
        ("extremal_witness", "Z/8: 2^14 3^6"),  # too short
        ("extremal_witness", "Z/8: 0^16 2^3 3^2"),  # zero-sum, length 21, has 0^16
    ]
    for key, value in corruptions:
        bad = copy.deepcopy(good)
        bad["report"][key] = value
        assert rejects(op.check, bad), (key, value)


def test_extract_check():
    moduli, counts, k = (6,), {(0,): 3, (1,): 4, (2,): 3, (5,): 1}, 6
    op = wl._extract_op(None, "self-test", moduli, counts, k, None)
    witness = next(
        dict((el, c.count(el)) for el in set(c))
        for c in itertools.combinations([el for el, m in counts.items() for _ in range(m)], k)
        if sum(e[0] for e in c) % 6 == 0
    )
    exact = brute_count(moduli, counts, k)
    good = (witness, witness, exact, exact % 6)
    op.check(good)
    for bad in [
        (None, witness, exact, exact % 6),
        (witness, None, exact, exact % 6),  # a "none" where one exists
        (witness, witness, exact + 1, exact % 6),
        (witness, witness, exact, (exact + 1) % 6),
        ({(1,): 4, (2,): 1}, witness, exact, exact % 6),  # 4 + 2 = 6 but length 5
    ]:
        assert rejects(op.check, bad), bad


def test_extremal_check():
    op = wl._extremal_op(None, "cyclic n=6 t=1", (6,), None, 6, ck.closed_form_cyclic(6, 1))
    counts = {(1,): 4, (2,): 4}  # zero-sum, length 8 = s'(Z/6, 6) - 1, no zero-sum 6-subset
    op.check((counts, True, False, True, None))
    for bad in [
        ({(1,): 4, (2,): 3}, True, False, True, None),  # too short
        ({(1,): 5, (2,): 3}, True, False, True, None),  # not zero-sum
        ({(0,): 6, (1,): 2}, True, False, True, None),  # has 0^6
        (counts, True, True, False, None),  # validation disagrees
        (counts, True, False, True, {(0,): 6}),  # a witness where none exists
    ]:
        assert rejects(op.check, bad), bad


def test_lemma_checks():
    good = {"exit_code": 0, "reports": [{"passed": True, "violations": 0, "checked": 2710, "vacuous": None}]}
    wl._check_lemma3n(3, good)
    bad = copy.deepcopy(good)
    bad["reports"][0]["checked"] = 2709
    assert rejects(wl._check_lemma3n, 3, bad)
    bad = copy.deepcopy(good)
    bad["reports"][0]["violations"] = 1
    assert rejects(wl._check_lemma3n, 3, bad)
    por = {"exit_code": 0, "reports": [{"passed": True, "violations": 0, "checked": 1, "vacuous": 90}]}
    wl._check_por2p(2, por)
    bad = copy.deepcopy(por)
    bad["reports"][0]["vacuous"] = 89
    assert rejects(wl._check_por2p, 2, bad)
    bad = copy.deepcopy(por)
    bad["reports"][0]["checked"] = 0
    bad["reports"][0]["vacuous"] = 91
    assert rejects(wl._check_por2p, 2, bad)


def main() -> int:
    failures = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"PASS {name}")
            except AssertionError as exc:
                failures += 1
                print(f"FAIL {name}: {exc!r}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
