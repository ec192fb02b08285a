"""Constants search: formulas, enumeration, brute force, and suite checks."""

import collections
import contextlib
import functools
import itertools
import json
import math
import multiprocessing
import random
import re
import time
import tracemalloc
import types
from concurrent.futures import Executor, Future, ProcessPoolExecutor

import pytest
from hypothesis import example, given, settings
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
    extract_square_3n,
    find_zero_sum_subseq,
    formula_modified_cyclic,
    formula_modified_square,
    has_zero_sum_of_length,
    make_group,
    Sequence,
    parse_sequence,
    reports_to_csv,
    serialize_sequence,
    verify_theorem,
)

from zerosum._bitdp import get_pack
from zerosum.search import (
    _POOL_START_NODES, _automorphisms, _cap_levels, _first_failing, _orbit, _profile,
    _zero_lengths,
)

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


def _multiple_of_exponent(group, t):
    """The least multiple of exp(G) that is at least t: the capped walk's
    tables are sound only for such targets."""
    return -(-t // group.exponent) * group.exponent


def test_profile_serial_pooled_and_enumerated_agree():
    # The serial chunk loop, the pooled path's chunk-by-chunk loop (these
    # walks stay below the pool's start constant) and enumeration walk the
    # same chunks: the same profile, nodes and leaves at any worker count; the
    # walk's length fails exactly when the enumeration emits something, and
    # the first failing multiset there is the first the enumeration emits.
    with ProcessPoolExecutor(max_workers=2) as pool:

        @given(enumeration_cases())
        @settings(max_examples=40, deadline=None)
        def check(case):
            group, length, target, zero_sum_only = case
            t = _multiple_of_exponent(group, length + 1 if target is None else target)
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
            fails = length in profiles[0].zero if zero_sum_only else profiles[0].top >= length
            assert fails == (first is not None)
            vector, _, _ = _first_failing(group.moduli, t, length, zero_sum_only, 10**8, deadline, 0)
            assert vector == first

        check()


@given(enumeration_cases(), st.data())
@settings(max_examples=60, deadline=None)
def test_profile_node_cap_is_exact(case, data):
    # The node count threaded through the walk is the one the cap sees: any
    # cap below the uncapped count stops the serial walk at the first node
    # past it, and any cap at or above it changes nothing.
    group, length, target, _ = case
    t = _multiple_of_exponent(group, length + 1 if target is None else target)
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
    # One walk lists every failing length: the orbit-capped walk's failing
    # lengths (zero-sum ones, and the largest of any sum) are those the
    # index-subset oracle finds, at s_t(G) none fails, and at each failing
    # length the witness walk's first failing multiset (and first zero-sum
    # one) is the first the oracle finds in colex order.
    moduli, t = case
    group = make_group(list(moduli))
    deadline = time.monotonic() + 900
    profile = _profile(group.moduli, t, (t - 1) * group.order, None, 10**8, deadline)
    s_t = profile.top + 1
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
    assert profile.zero == set(zero) and profile.top == max(every)
    assert s_t not in every
    for length in range(s_t + 1):
        for zero_sum, first in ((False, every), (True, zero)):
            vector, _, _ = _first_failing(group.moduli, t, length, zero_sum, 10**8, deadline, 0)
            assert vector == first.get(length)
    report = brute_force_modified_constant(group, t)
    assert report.window == (max(zero) + 1, s_t)
    assert report.computed_value == max(zero) + 1
    assert report.extremal_witness == serialize_sequence(
        Sequence(group, {el: m for el, m in zip(elements, zero[max(zero)]) if m})
    )


@functools.lru_cache(maxsize=None)
def _brute_force_automorphisms(moduli):
    """The elements, and every automorphism as the list of the images of
    their indices, found by trying every image of the standard generators
    e_i (one of order dividing n_i) and keeping the maps that are
    bijective."""
    group = make_group(list(moduli))
    elements = list(group.elements())
    index = {x: i for i, x in enumerate(elements)}
    add = [[index[group.add(x, y)] for y in elements] for x in elements]
    times = [[index[group.scale(x, c)] for c in range(max(moduli))] for x in elements]
    candidates = [
        [i for i, x in enumerate(elements) if group.scale(x, n) == group.identity()]
        for n in moduli
    ]
    rows = []
    for images in itertools.product(*candidates):
        # row[j]: the image of elements[j], the last coordinate fastest.
        row = [index[group.identity()]]
        for e, n in zip(images, moduli):
            row = [add[r][times[e][c]] for r in row for c in range(n)]
        if len(set(row)) == len(row):
            rows.append(row)
    return elements, rows


def _brute_force_orbit(moduli, element=None):
    """The orbit of `element` (by default the top element) under every
    automorphism."""
    elements, rows = _brute_force_automorphisms(moduli)
    at = len(elements) - 1 if element is None else elements.index(element)
    return {elements[row[at]] for row in rows}


ORBIT_GROUPS = [(1,), (2,), (6,), (8,), (12,), (16,), (2, 2), (2, 3), (2, 4), (4, 2),
                (3, 3), (2, 6), (4, 4), (2, 8), (2, 2, 2), (2, 2, 4), (2, 2, 2, 2)]


@pytest.mark.parametrize("moduli", ORBIT_GROUPS, ids=str)
def test_orbit_maps_are_automorphisms(moduli):
    # Each map the cap levels use is a bijective homomorphism, so the orbit
    # `_orbit` finds for the top element lies inside its orbit under every
    # automorphism, enumerated here by brute force. That is all soundness
    # needs; on these groups the search also reaches the whole orbit.
    group = make_group(list(moduli))
    elements = list(group.elements())
    for f in _automorphisms(moduli):
        assert sorted(f(x) for x in elements) == elements
        for x, y in itertools.product(elements, repeat=2):
            assert f(group.add(x, y)) == group.add(f(x), f(y))
    top = tuple(n - 1 for n in moduli)
    orbit = _orbit(moduli, top)
    full = _brute_force_orbit(moduli)
    assert orbit <= full
    assert orbit == full


@pytest.mark.parametrize("moduli", ORBIT_GROUPS, ids=str)
def test_cap_levels_lie_in_their_orbits(moduli):
    # Every element a cap level names may be capped: the first level lies in
    # the Aff(G)-orbit of the top element and the second in the orbit of e2
    # (index |G| - 2) under the stabiliser of the top, x -> top + a(x - top)
    # for every automorphism a. The orbits are found by brute force over
    # every automorphism.
    group = make_group(list(moduli))
    coords = get_pack(moduli, 0).coords
    top = coords(group.order - 1)
    aut = _brute_force_orbit(moduli)
    affine = {group.add(y, g) for y in aut for g in group.elements()}
    levels = _cap_levels(moduli)
    assert {coords(i) for i in levels[0]} <= affine - {top}
    assert len(levels[0]) == group.order - 1  # translations are transitive
    if group.order > 2:
        e2 = coords(group.order - 2)
        step = group.add(e2, group.neg(top))
        stab = {group.add(top, y) for y in _brute_force_orbit(moduli, step)}
        assert {coords(i) for i in levels[1]} <= stab - {top, e2}


def test_orbit_is_every_nonzero_element_of_elementary_groups():
    # GL(r, p) is transitive on the nonzero vectors of (Z/p)^r, so `_orbit`
    # reaches every one of them from the top element, and AGL(r, p) is
    # 2-transitive on all of (Z/p)^r, so the second level caps every element
    # but the top two.
    for moduli in ((2,), (5,), (2, 2, 2, 2), (3, 3), (3, 3, 3), (5, 5)):
        group = make_group(list(moduli))
        top = tuple(n - 1 for n in moduli)
        assert _orbit(moduli, top) == set(group.elements()) - {group.identity()}
        if group.order > 2:
            assert _cap_levels(moduli)[1] == tuple(range(group.order - 2))


@pytest.mark.parametrize("moduli", [(12,), (30,), (2, 6), (4, 4)])
def test_zero_lengths_rows_match_each_lg(moduli):
    # Bit L of the row of sum s is set exactly when s lies in LG = {Lg},
    # listed here element by element, for every L up to 3 exp(G); and the
    # sums with one gcd signature (gcd(s_i, n_i))_i share one row object.
    length = 3 * math.lcm(*moduli)
    pack = get_pack(moduli, 0)
    elements = list(make_group(list(moduli)).elements())
    rows = _zero_lengths(moduli, length)
    assert len(rows) == pack.order and all(row >> (length + 1) == 0 for row in rows)
    for L in range(length + 1):
        lg = {pack.index(tuple(L * x % n for x, n in zip(g, moduli))) for g in elements}
        assert {s for s, row in enumerate(rows) if row >> L & 1} == lg, L
    shared = {}
    for s, row in enumerate(rows):
        assert row is shared.setdefault(tuple(map(math.gcd, pack.coords(s), moduli)), row)


@st.composite
def witness_cases(draw):
    moduli = draw(st.sampled_from(SMALL_GROUPS))
    size = draw(st.integers(0, 8))
    target = draw(st.integers(1, 6))
    return make_group(list(moduli)), size, target


@given(witness_cases())
@example((make_group([4]), 7, 2))  # exp(G) does not divide t
@example((make_group([2, 4]), 8, 6))
@example((make_group([3, 3]), 8, 3))
@settings(max_examples=60, deadline=None)
def test_capped_profile_matches_uncapped_walk(case):
    # The capped walk gives the same failing lengths as the uncapped
    # enumeration, at the drawn target rounded up to a multiple of exp(G);
    # through `check_all_have_witness`, at the drawn target, exp(G) dividing
    # it or not, the verdict and the counterexample (the first failing
    # multiset in colex order) match too.
    group, size, target = case

    def uncapped(t):
        zero, top, first = set(), -1, None
        for length in range(size + 1):
            seen = []
            enumerate_multisets(group, length, seen.append, target=t, zero_sum_only=False)
            if seen:
                top = length
                first = seen[0]
            if any(seq.is_zero_sum() for seq in seen):
                zero.add(length)
        return zero, top, first

    t = _multiple_of_exponent(group, target)
    walks = {x: uncapped(x) for x in {t, target}}
    profile = _profile(group.moduli, t, size, None, 10**8, time.monotonic() + 900)
    assert (profile.zero, profile.top) == walks[t][:2]
    _, top, first = walks[target]
    rep = check_all_have_witness(group, size, target, name="capped")
    assert rep.passed == (top < size)
    assert rep.counterexample == (None if rep.passed else serialize_sequence(first))


@pytest.mark.parametrize(
    "moduli, t, size, checked", [((4,), 2, 7, 7), ((2, 4), 6, 8, 4), ((6,), 4, 9, 7)], ids=str
)
def test_witness_check_off_the_exponent_walks_only_for_the_counterexample(moduli, t, size, checked):
    # When exp(G) does not divide t, g of order exp(G) repeated any number
    # of times has no zero-sum subsequence of length t, so every size fails.
    # The counterexample is the first multiset the enumeration visits, and
    # `checked` counts the leaves of the counterexample walk alone.
    group = make_group(list(moduli))
    deadline = time.monotonic() + 900
    for n in range(t + 4):
        rep = check_all_have_witness(group, n, t, name="off")
        seen = []
        enumerate_multisets(group, n, seen.append, target=t, zero_sum_only=False)
        assert not rep.passed and rep.violations == 1
        assert rep.counterexample == serialize_sequence(seen[0])
        assert rep.checked == _first_failing(moduli, t, n, False, 10**8, deadline, 0)[2]
    assert check_all_have_witness(group, size, t, name="off").checked == checked


def test_budget_stopped_walk_builds_few_element_tables():
    # An element's row and rotation parts are built when it first takes a
    # copy, so a walk the node budget stops early builds them for a few
    # elements, not for all n - 1 nonzero ones. The walk keeps no table that
    # grows with its length or the target, so the traced peak stays small.
    get_pack.cache_clear()
    _zero_lengths.cache_clear()
    n = 600
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded):
            brute_force_modified_constant(make_group([n]), n, budget=SearchBudget(max_nodes=1000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20, peak
    built = len(get_pack((n,), n)._axis_parts)
    assert built < 50, built


# Groups where the second cap level names a proper subset of the elements,
# at t = exp(G) and 2 exp(G), each up to the largest size at which the
# uncapped walks below stay cheap.
WIDE_CASES = [((8,), 8, 15), ((8,), 16, 19), ((12,), 12, 11), ((12,), 24, 11),
              ((2, 6), 6, 13), ((2, 6), 12, 11), ((4, 4), 4, 11), ((4, 4), 8, 7),
              ((2, 2, 4), 4, 10), ((2, 2, 4), 8, 7)]


@pytest.mark.parametrize("moduli, t, size", WIDE_CASES, ids=lambda c: str(c).replace(" ", ""))
def test_capped_profile_matches_uncapped_walk_per_length(moduli, t, size):
    # A length fails (for some multiset, or for some zero-sum one) exactly
    # when the uncapped walk at that length reaches a leaf; the walk under
    # both cap levels and the LG test must list the same lengths.
    order = make_group(list(moduli)).order
    assert 0 < len(_cap_levels(moduli)[1]) < order - 2
    deadline = time.monotonic() + 900
    profile = _profile(moduli, t, size, None, 10**8, deadline)
    zero, every = set(), set()
    for length in range(size + 1):
        for zero_sum, lengths in ((False, every), (True, zero)):
            if _first_failing(moduli, t, length, zero_sum, 10**8, deadline, 0)[0] is not None:
                lengths.add(length)
    assert profile.zero == zero
    assert profile.top == max(every)


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
            8208, 8196,
        ),
        ((4, 4), 4, 12, "Z/4^2: (0,2)^2 (1,1)^3 (1,2)^3 (2,1)^3", 19165, 7444),
        ((8,), 16, 22, "Z/8: 2^15 3^6", 29007, 20653),
    ],
    ids=["Z2^4-t2", "Z4^2-t4", "Z8-t16"],
)
def test_benchmark_scan_counters(moduli, t, value, witness, nodes, leaves):
    # The three constants of the benchmark's scan: the kernel must walk
    # exactly the same tree, so the counters are pinned with the value. Each
    # is the capped walk plus the witness walk. In (Z/2)^4 the first cap
    # level takes every element to at most one copy, with the top, and the
    # second, every element but the top two, to the copies of e2 (index 14).
    # So the capped walk has two chunks: the empty multiset, then the top
    # without e2 (so alone), or with e2 and any subset of elements 1..13,
    # each padded with element 0: 2^13 + 1 nodes. The witness walk adds 15
    # nodes and 2 leaves.
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
    # s'(Z/8, 16) = 22 takes 29,007 nodes to determine.
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
    # s'(Z/8, 16) walks 27,995 nodes over 16 outer chunks, and no single
    # chunk reaches 12,000 (the largest holds 5,624): the cap is on their
    # sum. The witness walk then takes 1,012 more nodes from the same budget.
    # One worker is the serial run (no executor); two are a caller's pool.
    with ProcessPoolExecutor(workers) if workers > 1 else contextlib.nullcontext() as pool:

        def constant(max_nodes):
            return brute_force_modified_constant(
                make_group([8]), 16, budget=SearchBudget(max_nodes=max_nodes), pool=pool
            )

        cap = 12000
        with pytest.raises(BudgetExceeded) as exc:
            constant(cap)
        spent = int(re.search(r"(\d+) nodes, 12000 allowed", str(exc.value)).group(1))
        if workers == 1:
            # A serial run stops at the first node past the cap, whatever chunk it is in.
            assert str(exc.value) == "node budget exhausted: 12001 nodes, 12000 allowed"
        else:
            # A pooled run stops collecting once the finished chunks pass the cap.
            assert cap < spent <= workers * (cap + 1)
        total = 29007
        with pytest.raises(BudgetExceeded) as exc:
            constant(total - 1)
        # The witness walk, serial at any worker count, trips at its last node.
        assert str(exc.value) == f"node budget exhausted: {total} nodes, {total - 1} allowed"
        rep = constant(total)
        assert rep.computed_value == 22
        assert rep.stats.nodes_visited == total


class _RecordingExecutor(Executor):
    """Records the arguments of each call submitted, and runs it on `inner`,
    or at once in this process when there is none. With a `walks` counter,
    it also records the counter's value at each submit."""

    def __init__(self, inner=None, walks=None):
        self.inner = inner
        self.walks = walks
        self.submitted = []
        self.walks_at_submit = []

    def submit(self, fn, /, *args, **kwargs):
        self.submitted.append(args)
        if self.walks is not None:
            self.walks_at_submit.append(self.walks[0])
        if self.inner is not None:
            return self.inner.submit(fn, *args, **kwargs)
        future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as exc:
            future.set_exception(exc)
        return future


def test_pooled_walk_below_the_start_constant_starts_no_worker():
    # s'(Z/8, 16) walks 27,995 nodes, fewer than _POOL_START_NODES: a pooled
    # run walks every chunk in this process, submits nothing, and a real
    # pool forks no process.
    moduli, t, length = (8,), 16, 15 * 8
    deadline = time.monotonic() + 900
    serial = _profile(moduli, t, length, None, 10**8, deadline)
    assert serial.nodes == 27995 < _POOL_START_NODES
    pool = _RecordingExecutor()
    assert _profile(moduli, t, length, pool, 10**8, deadline) == serial
    assert pool.submitted == []
    before = len(multiprocessing.active_children())
    with ProcessPoolExecutor(2) as real:
        rep = brute_force_modified_constant(make_group([8]), 16, pool=real)
        assert len(multiprocessing.active_children()) == before
    assert rep.computed_value == 22 and rep.stats.nodes_visited == 29007


# (G, t), the chunks the caller's walk takes before its nodes pass
# _POOL_START_NODES, and those nodes: Z/12 at t=12 walks chunks 0-3 of 12
# (0 + 640 + 21,867 + 60,947) of its 215,157 nodes, (Z/4)^2 at t=8 chunks 0-2
# of 8 (0 + 6,238 + 26,642) of 71,685.
HANDOFF_CASES = [((12,), 12, 4, 83454), ((4, 4), 8, 3, 32880)]


@pytest.mark.parametrize("moduli, t, kept, handoff", HANDOFF_CASES, ids=str)
def test_pooled_walk_submits_the_chunks_left_after_the_callers(moduli, t, kept, handoff):
    length = (t - 1) * math.prod(moduli)
    deadline = time.monotonic() + 900
    serial = _profile(moduli, t, length, None, 10**8, deadline)
    with ProcessPoolExecutor(2) as real:
        pool = _RecordingExecutor(real)
        assert _profile(moduli, t, length, pool, 10**8, deadline) == serial
    # Each chunk left goes to the pool once, in order, as the profile of that
    # one chunk with no pool and the budget the caller's nodes left.
    assert pool.submitted == [
        (moduli, t, length, None, 10**8, deadline, (v,), handoff) for v in range(kept, t)
    ]


def test_pooled_walk_walks_the_callers_chunks_in_one_walk(monkeypatch):
    # The caller's chunks before the handoff are one walk, as in a serial
    # run: Z/12 at t=12 reaches its first submit after one `_walk` call, and
    # each chunk submitted is one more.
    import zerosum.search as search

    walks = [0]
    inner = search._walk

    def counted(*args, **kwargs):
        walks[0] += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(search, "_walk", counted)
    moduli, t, length = (12,), 12, 11 * 12
    pool = _RecordingExecutor(walks=walks)
    _profile(moduli, t, length, pool, 10**8, time.monotonic() + 900)
    assert pool.walks_at_submit == list(range(1, 9))
    walks[0] = 0
    _profile(moduli, t, length, None, 10**8, time.monotonic() + 900)
    assert walks == [1]


def test_pooled_budget_is_exact_in_the_caller_and_one_chunk_past_it():
    moduli, t, length = (12,), 12, 11 * 12
    deadline = time.monotonic() + 900
    # Below the handoff the caller stops at the first node past the cap, and
    # nothing reaches the pool.
    pool = _RecordingExecutor()
    with pytest.raises(BudgetExceeded) as exc:
        _profile(moduli, t, length, pool, 30000, deadline)
    assert str(exc.value) == "node budget exhausted: 30001 nodes, 30000 allowed"
    assert pool.submitted == []
    # Past it, the collector adds the pooled chunks in order and stops at the
    # first that passes the cap, or a chunk stops itself there: the count it
    # reports passes the cap by less than one chunk.
    largest = 55692  # chunk 4's nodes, the largest chunk left after the handoff
    with ProcessPoolExecutor(2) as real:
        for cap in (100000, 150000, 200000):
            pool = _RecordingExecutor(real)
            with pytest.raises(BudgetExceeded) as exc:
                _profile(moduli, t, length, pool, cap, deadline)
            spent = int(re.search(rf"(\d+) nodes, {cap} allowed", str(exc.value)).group(1))
            assert cap < spent <= cap + largest
            assert [args[3:] for args in pool.submitted] == [
                (None, cap, deadline, (v,), 83454) for v in range(4, 12)
            ]


@pytest.mark.parametrize("pooled", [False, True])
def test_profile_reads_the_deadline_before_the_first_node(pooled):
    # Z/6 at t=6 walks far fewer nodes than the 1,024 between clock reads in
    # the walk, yet a deadline already past stops it at its first chunk.
    moduli, t, length = (6,), 6, 5 * 6
    pool = _RecordingExecutor() if pooled else None
    assert _profile(moduli, t, length, pool, 10**8, time.monotonic() + 900).nodes < 1024
    with pytest.raises(BudgetExceeded, match="^wall-clock budget exhausted$"):
        _profile(moduli, t, length, pool, 10**8, time.monotonic() - 1)


def test_check_all_have_witness():
    rep = check_all_have_witness(make_group([3]), 5, 3, name="egz")
    assert rep.passed and rep.violations == 0

    rep = check_all_have_witness(make_group([3]), 4, 3, name="egz-negative")
    assert not rep.passed
    counter = parse_sequence(rep.counterexample)
    assert counter.length == 4
    assert not has_zero_sum_of_length(counter, 3)


@pytest.mark.parametrize("size, target", [(5, 0), (-1, 3)])
def test_check_all_have_witness_rejects_bad_arguments(size, target):
    with pytest.raises(ValueError):
        check_all_have_witness(make_group([3]), size, target, name="x")


@pytest.mark.parametrize("p", [1, 4])
def test_por2p_needs_a_prime(p):
    with pytest.raises(PreconditionError):
        check_lemma_por2p(p, count=5)


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


def test_por2p_one_deadline_covers_both_sizes_and_the_counting(monkeypatch):
    # A fake clock that only the counting moves, one second per case.
    import zerosum.search as search

    now = [0.0]
    monkeypatch.setattr(search, "time", types.SimpleNamespace(monotonic=lambda: now[0]))
    count = search.count_zero_sum_subseqs

    def slow_count(*args, **kwargs):
        now[0] += 1
        return count(*args, **kwargs)

    walks = []
    enumerate_all = search.enumerate_multisets

    def record(*args, budget, **kwargs):
        walks.append((budget.max_nodes, budget.max_seconds))
        return enumerate_all(*args, budget=budget, **kwargs)

    monkeypatch.setattr(search, "count_zero_sum_subseqs", slow_count)
    monkeypatch.setattr(search, "enumerate_multisets", record)

    def run(max_seconds):
        walks.clear()
        now[0] = 0.0
        return check_lemma_por2p(3, count=5, budget=SearchBudget(max_nodes=10**6, max_seconds=max_seconds))

    # Five cases per size. Each walk gets the whole node budget, and the
    # second walk only the seconds the first size's counting left.
    assert run(12).checked == 10
    assert walks == [(10**6, 12), (10**6, 7)]
    # The counting reads the clock: the cases starting at 0, 1, 2 and 3 s are
    # counted, the fifth is not.
    with pytest.raises(BudgetExceeded, match="wall-clock budget exhausted"):
        run(3.5)
    assert now[0] == 4
    # The first size spends all 5 s: the second size is not walked.
    with pytest.raises(BudgetExceeded, match="wall-clock budget exhausted"):
        run(5)
    assert len(walks) == 1


def test_lemma3n_exhaustive_small():
    rep = check_lemma_3n(2)
    assert rep.passed and rep.params["mode"] == "exhaustive"
    assert rep.checked > 0


def test_lemma3n_sampled_small():
    rep = check_lemma_3n(4, samples=25, seed=2)
    assert rep.passed and rep.params["mode"] == "sample"
    assert rep.checked == 25


def _record_lemma_3n(monkeypatch) -> list:
    """Wrap the two witness searches of check_lemma_3n; each checked multiset
    leaves [items, engine witness, extractor witness]."""
    import zerosum.search as search

    seen = []
    find, square = search._find, search._square_3n

    def record_find(moduli, items, k):
        seen.append([list(items), find(moduli, items, k), None])
        return seen[-1][1]

    def record_square(moduli, items, k):
        seen[-1][2] = square(moduli, items, k)
        return seen[-1][2]

    monkeypatch.setattr(search, "_find", record_find)
    monkeypatch.setattr(search, "_square_3n", record_square)
    return seen


def _agrees_with_public_path(group, seen, n):
    for items, engine, proof in seen:
        seq = Sequence(group, dict(items))
        assert engine == find_zero_sum_subseq(seq, n).counts
        assert proof == extract_square_3n(seq).counts


@pytest.mark.parametrize("n", [2, 3])
def test_lemma3n_counts_check_agrees_with_public_path_exhaustive(monkeypatch, n):
    seen = _record_lemma_3n(monkeypatch)
    rep = check_lemma_3n(n)
    group = make_group([n, n])
    zero_sum = set()
    for combo in itertools.combinations_with_replacement(group.elements(), 3 * n):
        if not any(sum(c) % n for c in zip(*combo)):
            zero_sum.add(tuple(sorted(collections.Counter(combo).items())))
    assert rep.passed and rep.checked == len(seen) == len(zero_sum)
    assert {tuple(items) for items, _, _ in seen} == zero_sum
    walk = []
    enumerate_multisets(group, 3 * n, lambda seq: walk.append(seq.items()))
    assert [items for items, _, _ in seen] == walk  # in the walk's colex order
    _agrees_with_public_path(group, seen, n)


@pytest.mark.parametrize("n, seed", [(4, 5), (6, 6)])
def test_lemma3n_counts_check_agrees_with_public_path_sampled(monkeypatch, n, seed):
    import zerosum.search as search

    seen = _record_lemma_3n(monkeypatch)
    rep = check_lemma_3n(n, samples=200, seed=seed)
    group = make_group([n, n])
    # The same draws, tested for a zero sum with the group's own arithmetic.
    rng, elements, drawn = random.Random(seed), list(group.elements()), []
    while len(drawn) < 200:
        mults = search._random_multiset(rng, group.order, 3 * n)
        total = group.identity()
        for el, m in zip(elements, mults):
            total = group.add(total, group.scale(el, m))
        if total == group.identity():
            drawn.append([(el, m) for el, m in zip(elements, mults) if m])
    assert rep.passed and rep.checked == 200
    assert [items for items, _, _ in seen] == drawn
    _agrees_with_public_path(group, seen, n)


# What the check must raise, or report, when one witness search returns a bad
# witness: the errors of Witness and validate_against, as before the check ran
# on counts.
_BAD_WITNESSES = {
    "size": (lambda moduli, items, k: {}, ValueError, "witness has length 0, expected {n}"),
    "sum": (lambda moduli, items, k: {(0, 1): 1}, ValueError,
            "witness does not sum to the identity: {{(0, 1): 1}}"),
    "contained": (lambda moduli, items, k: {(0, 0): 3 * k + 1}, ValueError,
                  "witness exceeds parent multiplicities"),
    "none": (lambda moduli, items, k: None, AssertionError, "guaranteed block selection not found"),
}


@pytest.mark.parametrize("search_name", ["_square_3n", "_find"])
@pytest.mark.parametrize("bad", sorted(_BAD_WITNESSES))
@pytest.mark.parametrize("n, samples", [(2, None), (4, 20)])
def test_lemma3n_validates_each_witness(monkeypatch, search_name, bad, n, samples):
    import zerosum.search as search

    fake, error, message = _BAD_WITNESSES[bad]
    monkeypatch.setattr(search, search_name, fake)
    kw = {} if samples is None else {"samples": samples, "seed": 3}
    if search_name == "_find" and bad == "none":
        rep = check_lemma_3n(n, **kw)
        assert not rep.passed and rep.violations == rep.checked == (24 if n == 2 else samples)
        assert rep.counterexample == "engine found no witness in " + (
            "Z/2^2: (0,0)^6" if n == 2 else "Z/4^2: (1,0) (1,1)^4 (1,2) (2,0)^2 (2,3)^2 (3,2)^2"
        )
        return
    with pytest.raises(error) as info:
        check_lemma_3n(n, **kw)
    assert type(info.value) is error and str(info.value) == message.format(n=n)


def test_verify_explicit_samples_are_not_the_default():
    (rep,) = verify_theorem("lemma3n", n_values=[4], samples=0)
    assert rep.params["samples"] == 0 and rep.checked == 0


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
