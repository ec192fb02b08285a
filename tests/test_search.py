"""Constants search: formulas, enumeration, brute force, and suite checks."""

import itertools
import json
import re
import time
from concurrent.futures import ProcessPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zerosum import (
    BudgetExceeded,
    ConstantReport,
    PreconditionError,
    SearchBudget,
    brute_force_modified_constant,
    check_all_have_witness,
    check_lemma_3n,
    check_lemma_por2p,
    conjecture_value,
    count_zero_sum_subseqs,
    enumerate_multisets,
    formula_modified_cyclic,
    formula_modified_square,
    harborth_bounds,
    has_zero_sum_of_length,
    make_group,
    Sequence,
    parse_sequence,
    reports_to_csv,
    verify_theorem,
)

from zerosum.search import _profile

from conftest import oracle_exists


def test_formula_cyclic_examples():
    assert formula_modified_cyclic(6, 1) == 9
    assert formula_modified_cyclic(2, 1) == 2
    assert formula_modified_cyclic(10, 2) == 28
    with pytest.raises(ValueError):
        formula_modified_cyclic(0, 1)


def test_formula_square_examples():
    assert formula_modified_square(2) == 5
    assert formula_modified_square(3) == 9
    assert formula_modified_square(4) == 12


def test_harborth_examples_and_monotonicity():
    assert harborth_bounds(3, 3) == (17, 55)
    assert harborth_bounds(2, 2) == (5, 5)
    assert harborth_bounds(3, 2) == (9, 19)
    for n in range(1, 101):
        for r in range(1, 7):
            lo, hi = harborth_bounds(n, r)
            assert lo <= hi
            assert (lo == hi) == (n <= 2)


def test_conjecture_value_examples():
    assert conjecture_value(2, 3) == 9
    assert conjecture_value(2, 2) == 5 == formula_modified_square(2)
    assert conjecture_value(4, 2) == 12 == formula_modified_square(4)
    with pytest.raises(ValueError):
        conjecture_value(3, 2)


def collect(group, length, **kw):
    seen = []
    stats = enumerate_multisets(group, length, seen.append, **kw)
    return seen, stats


def test_enumerate_examples():
    seen, stats = collect(make_group([2]), 2)
    assert [s.counts for s in seen] == [{(0,): 2}, {(1,): 2}]
    assert stats.visited == 2

    seen, _ = collect(make_group([3]), 1)
    assert [s.counts for s in seen] == [{(0,): 1}]

    seen, _ = collect(make_group([2, 2]), 2)
    assert len(seen) == 4
    assert all(len(s.counts) == 1 for s in seen)  # each is a doubled element


def test_enumerate_colex_order():
    # Multiplicity vectors ascend in colex order: the last element's
    # multiplicity is the slowest index.
    seen = []
    enumerate_multisets(make_group([3]), 2, seen.append, zero_sum_only=False)
    vectors = []
    for s in seen:
        vec = [s.counts.get((i,), 0) for i in range(3)]
        vectors.append(tuple(vec))
    assert vectors == sorted(vectors, key=lambda v: v[::-1])
    assert len(vectors) == 6  # C(2 + 2, 2)


SMALL_GROUPS = [(1,), (2,), (3,), (4,), (5,), (8,), (2, 2), (2, 3), (2, 4), (3, 3), (2, 2, 2)]


@st.composite
def enumeration_cases(draw):
    moduli = draw(st.sampled_from(SMALL_GROUPS))
    length = draw(st.integers(0, 7))
    target = draw(st.one_of(st.none(), st.integers(1, max(length, 1))))
    return make_group(list(moduli)), length, target, draw(st.booleans())


@given(enumeration_cases())
@settings(max_examples=60, deadline=None)
def test_enumerate_matches_oracle(case):
    # The kernel must emit exactly the witness-free multisets of an
    # independent enumeration, in colex order of multiplicity vectors.
    group, length, target, zero_sum_only = case
    elements = list(group.elements())
    expected = []
    for combo in itertools.combinations_with_replacement(elements, length):
        counts: dict = {}
        for el in combo:
            counts[el] = counts.get(el, 0) + 1
        seq = Sequence(group, counts)
        if zero_sum_only and not seq.is_zero_sum():
            continue
        if target is not None and oracle_exists(seq, target):
            continue
        expected.append(seq)
    expected.sort(key=lambda s: [s.counts.get(el, 0) for el in reversed(elements)])
    seen = []
    stats = enumerate_multisets(
        group, length, seen.append, target=target, zero_sum_only=zero_sum_only
    )
    assert [s.counts for s in seen] == [s.counts for s in expected]
    assert stats.visited == len(expected)


def test_profile_serial_pooled_and_enumerated_agree():
    # The serial chunk loop, the pool's per-chunk map and enumeration walk the
    # same chunks: the same profile, nodes and leaves at any worker count, and
    # the profile's first failure at the walk's length is the first multiset
    # the enumeration emits.
    with ProcessPoolExecutor(max_workers=2) as pool:

        @given(enumeration_cases())
        @settings(max_examples=40, deadline=None)
        def check(case):
            group, length, target, zero_sum_only = case
            t = length + 1 if target is None else target
            deadline = time.monotonic() + 900
            profiles = [
                _profile(group.moduli, t, length, p, 10**8, deadline) for p in (None, pool)
            ]
            assert profiles[0] == profiles[1]
            seen = []
            enumerate_multisets(group, length, seen.append, target=t, zero_sum_only=zero_sum_only)
            first = None
            if seen:
                first = tuple(seen[0].counts.get(el, 0) for el in group.elements())
            fails = profiles[0].zero if zero_sum_only else profiles[0].every
            assert fails.get(length) == first

        check()


@given(enumeration_cases(), st.data())
@settings(max_examples=60, deadline=None)
def test_profile_node_cap_is_exact(case, data):
    # The node count threaded through the walk is the one the cap sees: any
    # cap below the uncapped count stops the serial walk at the first node
    # past it, and any cap at or above it changes nothing.
    group, length, target, _ = case
    t = length + 1 if target is None else target
    deadline = time.monotonic() + 900
    uncapped = _profile(group.moduli, t, length, None, 10**8, deadline)
    nodes = uncapped.nodes
    if nodes:
        cap = data.draw(st.integers(0, nodes - 1), label="cap below")
        with pytest.raises(BudgetExceeded) as exc:
            _profile(group.moduli, t, length, None, cap, deadline)
        assert str(exc.value) == f"node budget exhausted: {cap + 1} nodes, {cap} allowed"
    cap = data.draw(st.integers(nodes, nodes + 3), label="cap at or above")
    assert _profile(group.moduli, t, length, None, cap, deadline) == uncapped


# Groups and targets that exp(G) divides, small enough for the oracle to try
# every multiset up to s_t(G).
ORACLE_CASES = [((1,), 1), ((1,), 3), ((2,), 2), ((2,), 4), ((3,), 3), ((4,), 4),
                ((2, 2), 2), ((2, 2), 4), ((2, 2, 2), 2)]


@given(st.sampled_from(ORACLE_CASES))
@settings(max_examples=25, deadline=None)
def test_profile_matches_oracle(case):
    # One walk lists every failing length: at each length up to s_t(G), the
    # walk's first failing multiset (and first zero-sum one) is the first the
    # index-subset oracle finds in colex order, and at s_t(G) none fails.
    moduli, t = case
    group = make_group(list(moduli))
    profile = _profile(group.moduli, t, (t - 1) * group.order, None, 10**8, time.monotonic() + 900)
    s_t = max(profile.every) + 1
    elements = list(group.elements())
    zero, every = {}, {}
    for length in range(s_t + 1):
        vectors = sorted(
            (
                tuple(combo.count(el) for el in elements)
                for combo in itertools.combinations_with_replacement(elements, length)
            ),
            key=lambda vec: vec[::-1],
        )
        for vec in vectors:
            seq = Sequence(group, {el: m for el, m in zip(elements, vec) if m})
            if not oracle_exists(seq, t):
                every.setdefault(length, vec)
                if seq.is_zero_sum():
                    zero.setdefault(length, vec)
    assert profile.zero == zero and profile.every == every
    assert s_t not in every
    report = brute_force_modified_constant(group, t)
    assert report.window == (max(zero) + 1, s_t)
    assert report.computed_value == max(zero) + 1


@pytest.mark.parametrize(
    "moduli, t, gaps, value",
    [((8,), 16, [16, 20], 22), ((2, 2, 2, 2), 2, [2, 14], 17)],
    ids=["Z8-t16", "Z2^4-t2"],
)
def test_passing_lengths_below_the_constant(moduli, t, gaps, value):
    # Some lengths below s' pass; a scan that stopped at the first passing
    # length would report s' = t. The walk searches the whole tail, so it
    # lists exactly these gaps and finds the true value.
    group = make_group(list(moduli))
    profile = _profile(group.moduli, t, (t - 1) * group.order, None, 10**8, time.monotonic() + 900)
    assert sorted(set(range(value)) - set(profile.zero)) == gaps
    assert max(profile.zero) == value - 1
    assert brute_force_modified_constant(group, t).computed_value == value


@pytest.mark.parametrize(
    "moduli, t, value, witness, nodes, leaves",
    [
        (
            (2, 2, 2, 2), 2, 17,
            "Z/2^4: (0,0,0,0) (0,0,0,1) (0,0,1,0) (0,0,1,1) (0,1,0,0) (0,1,0,1) (0,1,1,0) (0,1,1,1)"
            " (1,0,0,0) (1,0,0,1) (1,0,1,0) (1,0,1,1) (1,1,0,0) (1,1,0,1) (1,1,1,0) (1,1,1,1)",
            65533, 32768,
        ),
        ((4, 4), 4, 12, "Z/4^2: (0,2)^2 (1,1)^3 (1,2)^3 (2,1)^3", 289061, 94864),
        ((8,), 16, 22, "Z/8: 2^15 3^6", 395162, 277412),
    ],
    ids=["Z2^4-t2", "Z4^2-t4", "Z8-t16"],
)
def test_benchmark_scan_counters(moduli, t, value, witness, nodes, leaves):
    # The three constants of the benchmark's scan: the kernel must walk
    # exactly the same tree, so the counters are pinned with the value. The
    # leaves are the multisets with no zero-sum subsequence of length t,
    # element 0 left out: 2^15 subsets of the 15 nonzero elements of (Z/2)^4.
    r = brute_force_modified_constant(make_group(list(moduli)), t)
    assert r.computed_value == value
    assert r.extremal_witness == witness
    assert (r.stats.nodes_visited, r.stats.sequences_checked) == (nodes, leaves)


def test_enumerate_budget_abort():
    g = make_group([5])
    with pytest.raises(BudgetExceeded):
        enumerate_multisets(
            g, 10, lambda s: None, zero_sum_only=False, budget=SearchBudget(max_nodes=50)
        )


def test_brute_force_spec_cases():
    r = brute_force_modified_constant(make_group([2]), 2)
    assert r.computed_value == 2
    assert r.extremal_witness == "Z/2: 0"
    assert r.window == (2, 3)  # s_2(Z/2) = 3

    r = brute_force_modified_constant(make_group([3]), 3)
    assert r.computed_value == 5
    assert r.extremal_witness == "Z/3: 1^2 2^2"

    r = brute_force_modified_constant(make_group([2, 2]), 2)
    assert r.computed_value == 5
    assert r.extremal_witness == "Z/2^2: (0,0) (0,1) (1,0) (1,1)"


def test_brute_force_report_fields():
    r = brute_force_modified_constant(
        make_group([4]), 4, claimed_value=formula_modified_cyclic(4, 1)
    )
    assert r.computed_value == 6 and not r.discrepancy
    payload = r.to_jsonable()
    assert payload["status"] == "OK"
    assert payload["window_lo"] == 6 and payload["window_hi"] == 7  # s_4(Z/4) = 7
    witness = parse_sequence(r.extremal_witness)
    assert witness.length == r.computed_value - 1
    assert witness.is_zero_sum()
    assert not has_zero_sum_of_length(witness, 4)
    assert r.stats.sequences_checked > 0

    fake = ConstantReport(
        group="Z/4", target=4, claimed_value=7, computed_value=6,
        extremal_witness="Z/4:", window=(6, 7), stats=r.stats,
    )
    assert fake.discrepancy and fake.to_jsonable()["status"] == "DISCREPANCY"


def test_brute_force_trivial_group():
    r = brute_force_modified_constant(make_group([1]), 1)
    assert r.computed_value == 1
    assert r.extremal_witness == "Z/1:"


def test_brute_force_budget_exhaustion():
    # s'(Z/8, 16) = 22 takes about two million nodes to determine.
    with pytest.raises(BudgetExceeded):
        brute_force_modified_constant(
            make_group([8]), 16, budget=SearchBudget(max_nodes=2000)
        )


def test_brute_force_infinite_constant_is_a_precondition_error():
    # exp(G) must divide t: an element of order exp(G) repeated k*exp(G)
    # times has no zero-sum subsequence of length t for any k.
    for moduli, t in (((2,), 1), ((4,), 2), ((2, 4), 6), ((3, 3), 4)):
        with pytest.raises(PreconditionError):
            brute_force_modified_constant(make_group(list(moduli)), t)


@pytest.mark.parametrize("workers", [1, 2])
def test_budget_caps_the_whole_length(workers):
    # s'(Z/8, 16) walks 395,162 nodes over 16 outer chunks, and no single
    # chunk reaches 150,000: the cap is on their sum.
    cap = 150000
    with pytest.raises(BudgetExceeded) as exc:
        brute_force_modified_constant(
            make_group([8]), 16, budget=SearchBudget(max_nodes=cap), workers=workers
        )
    spent = int(re.search(r"(\d+) nodes, 150000 allowed", str(exc.value)).group(1))
    if workers == 1:
        # A serial run stops at the first node past the cap, whatever chunk it is in.
        assert str(exc.value) == "node budget exhausted: 150001 nodes, 150000 allowed"
    else:
        # A pooled run stops collecting once the finished chunks pass the cap.
        assert cap < spent <= workers * (cap + 1)
    rep = brute_force_modified_constant(
        make_group([8]), 16, budget=SearchBudget(max_nodes=395162), workers=workers
    )
    assert rep.computed_value == 22


def test_check_all_have_witness():
    rep = check_all_have_witness(make_group([3]), 5, 3, name="egz")
    assert rep.passed and rep.violations == 0

    rep = check_all_have_witness(make_group([3]), 4, 3, name="egz-negative")
    assert not rep.passed
    counter = parse_sequence(rep.counterexample)
    assert counter.length == 4
    assert not has_zero_sum_of_length(counter, 3)


def test_por2p_exhaustive_p2():
    rep = check_lemma_por2p(2)
    assert rep.passed and rep.violations == 0
    assert rep.params["mode"] == "exhaustive" and rep.params["count"] is None
    # C(7,3) + C(8,3) multisets of sizes 4 and 5 over a 4-element group.
    assert rep.checked + rep.vacuous == 35 + 56


def test_por2p_hand_example():
    j = parse_sequence("Z/2^2: (0,0) (0,1) (1,0) (1,1)")
    assert count_zero_sum_subseqs(j, 2) == 0
    assert count_zero_sum_subseqs(j, 4) % 2 == 1  # -1 mod 2


def test_por2p_sampled_small():
    rep = check_lemma_por2p(3, count=50, seed=1)
    assert rep.params["mode"] == "sample"
    assert rep.passed and rep.checked >= 100  # 50 hypothesis cases per size


def test_lemma3n_exhaustive_small():
    rep = check_lemma_3n(2)
    assert rep.passed and rep.params["mode"] == "exhaustive"
    assert rep.checked > 0


def test_lemma3n_sampled_small():
    rep = check_lemma_3n(4, samples=25, seed=2)
    assert rep.passed and rep.params["mode"] == "sample"
    assert rep.checked == 25


def test_verify_cyclic_suite():
    reports = verify_theorem("cyclic", n_values=[2, 3, 4], t_values=[1])
    assert len(reports) == 3
    for r in reports:
        assert not r.discrepancy
        assert r.claimed_value == r.computed_value


def test_verify_conjecture_suite():
    reports = verify_theorem("conjecture", n_values=[1, 2])
    for r, expect in zip(reports, (2, 5)):
        assert r.computed_value == expect == r.claimed_value


def test_verify_unknown_suite():
    with pytest.raises(ValueError):
        verify_theorem("nope")


def test_reports_csv_columns():
    reports = verify_theorem("cyclic", n_values=[2, 3], t_values=[1])
    csv_text = reports_to_csv(reports)
    lines = csv_text.strip().splitlines()
    assert lines[0] == "group,t,claimed,computed,window_lo,window_hi,witness,wall_ms,sequences_checked"
    assert len(lines) == 3
    assert lines[1].startswith("Z/2,2,2,2,2,3,")


def test_report_jsonable_is_json_serializable():
    reports = verify_theorem("egz", n_values=[2, 3])
    blob = json.dumps([r.to_jsonable() for r in reports], sort_keys=True)
    assert "egz" in blob


def test_bruteforce_witness_matches_construction_length():
    # The searched extremal and the built one certify the same bound.
    from zerosum import build_cyclic_extremal, build_square_extremal

    for n, t in ((3, 1), (4, 1), (6, 1), (3, 2)):
        report = brute_force_modified_constant(
            make_group([n]), n * t, claimed_value=formula_modified_cyclic(n, t)
        )
        assert not report.discrepancy
        searched = parse_sequence(report.extremal_witness)
        built = build_cyclic_extremal(n, t)
        assert searched.length == built.length == report.computed_value - 1
        assert not has_zero_sum_of_length(searched, n * t)
        assert not has_zero_sum_of_length(built, n * t)

    report = brute_force_modified_constant(make_group([3, 3]), 3)
    assert parse_sequence(report.extremal_witness).length == build_square_extremal(3).length
