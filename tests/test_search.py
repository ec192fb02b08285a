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
import sys
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
    _POOL_START_NODES, _caps, _coset_caps, _images, _moves, _nested_room, _profile, _sequence_of,
    _unit_generators, _vectors, _zero_lengths,
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


SMALL_GROUPS = [(1,), (2,), (3,), (4,), (5,), (8,), (2, 2), (2, 3), (2, 4), (1, 4), (4, 2), (3, 3), (2, 2, 2)]


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


def _bits(lengths):
    """A set of lengths as a profile's `zero` holds them: bit L for length L."""
    return sum(1 << L for L in lengths)


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
            fails = bool(profiles[0].zero >> length & 1) if zero_sum_only else profiles[0].top >= length
            assert fails == (first is not None)
            vector, _, _ = _vectors(group.moduli, t, length, zero_sum_only, lambda v: True, 10**8, deadline)
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
    assert profile.zero == _bits(zero) and profile.top == max(every)
    assert s_t not in every
    for length in range(s_t + 1):
        for zero_sum, first in ((False, every), (True, zero)):
            vector, _, _ = _vectors(group.moduli, t, length, zero_sum, lambda v: True, 10**8, deadline)
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
                (3, 3), (2, 6), (4, 4), (2, 8), (2, 2, 2), (2, 2, 4), (2, 2, 2, 2), (4, 1), (1, 4)]


@pytest.mark.parametrize("moduli", ORBIT_GROUPS, ids=str)
def test_orbit_maps_are_automorphisms(moduli):
    # Each move of the cap table's orbit search, one unit scaling or one
    # transvection of one coordinate, sends element indices through a
    # bijective homomorphism, so the search stays inside the orbit under
    # every automorphism, enumerated here by brute force; on these groups
    # its moves also reach the whole orbit of the top element.
    group = make_group(list(moduli))
    pack = get_pack(moduli, 0)
    indices = range(pack.order)
    for s, n, units, shears in _moves(pack):
        singles = [[(s, n, [u], [])] for u in units] + [[(s, n, [], [shear])] for shear in shears]
        for move in singles:
            image = [_images(y, move) for y in indices]
            assert all(len(i) == 1 for i in image)
            f = [i.pop() for i in image]
            assert sorted(f) == list(indices)
            for x, y in itertools.product(indices, repeat=2):
                xy = pack.index(group.add(pack.coords(x), pack.coords(y)))
                assert f[xy] == pack.index(group.add(pack.coords(f[x]), pack.coords(f[y])))
    moves = _moves(pack)
    seen, frontier = {pack.order - 1}, [pack.order - 1]
    while frontier:
        images = _images(frontier.pop(), moves) - seen
        seen |= images
        frontier += images
    assert {pack.coords(y) for y in seen} == _brute_force_orbit(moduli)


def _brute_force_chain(moduli):
    """The cap table of the stabiliser chain, over every automorphism: the
    top caps every other element, then for e from |G| - 2 down to 2, e caps
    the rest of its orbit under H_e, the maps x -> top + a(x - top) that fix
    every element above e, a deeper level overriding an earlier cap."""
    elements, rows = _brute_force_automorphisms(moduli)
    group = make_group(list(moduli))
    order = len(elements)
    top = order - 1
    minus = [elements.index(group.add(x, group.neg(elements[top]))) for x in elements]  # x -> x - top
    plus = {d: x for x, d in enumerate(minus)}
    caps = [top] * top + [order]
    stab = rows
    for e in range(top - 1, 1, -1):
        stab = [row for row in stab if row[minus[e + 1]] == minus[e + 1]]
        for x in {plus[row[minus[e]]] for row in stab} - {e}:
            caps[x] = e
    return tuple(caps)


@pytest.mark.parametrize("moduli", ORBIT_GROUPS + [(3, 3, 3), (5, 5)], ids=str)
def test_cap_levels_lie_in_their_orbits(moduli):
    # Every element the cap table caps may be capped: each one but the top
    # lies in the Aff(G)-orbit of the top element, which caps it or caps the
    # element that does, and caps[x] is the lowest e > x (e >= 2) whose
    # orbit under H_e, the maps x -> top + a(x - top) that fix every element
    # above e, holds x, or the top when there is none: the scalings and
    # transvections that `_caps` keeps at each level reach the whole H_e-orbit
    # on these groups. The orbits are found by brute force over every
    # automorphism.
    group = make_group(list(moduli))
    order = group.order
    coords = get_pack(moduli, 0).coords
    top = coords(order - 1)
    aut = _brute_force_orbit(moduli)
    affine = {group.add(y, g) for y in aut for g in group.elements()}
    caps = _caps(moduli, math.inf)
    assert {coords(i) for i in range(order - 1)} <= affine - {top}  # translations are transitive
    assert caps == _brute_force_chain(moduli)


def test_orbit_is_every_nonzero_element_of_elementary_groups():
    # AGL(r, p) is 2-transitive on (Z/p)^r, so the orbit of e2 - top is every
    # nonzero vector and every element below e2 (index |G| - 2) is capped at
    # a level no higher than e2; the top caps e2. Each cap is still the
    # lowest level whose brute-force H_e-orbit holds the element.
    elementary = [m for m in ORBIT_GROUPS + [(3, 3, 3), (5, 5)] if len(set(m)) == 1 and m[0] in (2, 3, 5)]
    for moduli in elementary + [(5,)]:
        group = make_group(list(moduli))
        order = group.order
        coords = get_pack(moduli, 0).coords
        step = group.add(coords(order - 2), group.neg(coords(order - 1)))
        assert _brute_force_orbit(moduli, step) == set(group.elements()) - {group.identity()}
        caps = _caps(moduli, math.inf)
        assert caps == _brute_force_chain(moduli)
        assert caps[order - 2:] == (order - 1, order)
        assert all(c <= order - 2 for c in caps[:order - 2])


@pytest.mark.parametrize("moduli", ORBIT_GROUPS, ids=str)
def test_caps_are_read_after_they_are_set(moduli):
    # The walk reads mults[caps[x]] when element x starts taking copies, and
    # the leaf loop of element 1 reads the caps of elements 0 and 1 once, so
    # each entry names an element above x that is the top or element 2 or
    # higher, or |G|, the slot that caps nothing.
    order = make_group(list(moduli)).order
    for x, c in enumerate(_caps(moduli, math.inf)):
        assert c > x and (c in (order, order - 1) or c >= 2), (x, c)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 12, 15, 16, 24, 60, 97, 3001])
def test_moves_keep_a_generating_set_of_the_units(n):
    # Each unit `_moves` keeps lies outside the group the units kept before
    # it generate, so it at least doubles that group: at most log2 phi(n)
    # of them, which together generate every unit mod n.
    units = {u for u in range(1, n) if math.gcd(u, n) == 1}
    kept = _unit_generators(n)
    assert _moves(get_pack((n,), 0))[0][2] == kept
    spanned = {1 % n}
    for u in kept:
        assert u in units and u not in spanned
        while True:
            grown = spanned | {h * u % n for h in spanned}
            if grown == spanned:
                break
            spanned = grown
    assert spanned == (units or {0})
    assert 2 ** len(kept) <= max(len(units), 1)
    assert kept == sorted(kept)


def test_cap_search_stops_at_the_deadline(monkeypatch):
    # The orbit search reads the clock once per element it expands. Under a
    # fake clock that moves one second per read and a deadline at 3 s, reads
    # 0 to 3 expand four elements of the orbit of Z/3001 and the fifth read
    # raises, long before the search's 3,000 expansions.
    import zerosum.search as search

    reads = itertools.count()
    monkeypatch.setattr(search, "time", types.SimpleNamespace(monotonic=lambda: next(reads)))
    with pytest.raises(BudgetExceeded, match=r"^wall-clock budget exhausted$"):
        _caps((3001,), 3)
    assert next(reads) == 5


def test_cap_search_reads_the_clock_at_every_level(monkeypatch):
    # Each level of the chain reads the clock once per element it expands.
    # In (Z/2)^4 the first level (e = 14) expands all 15 nonzero vectors at
    # reads 0 to 14, so under a fake clock that moves one second per read
    # and a deadline at 17 s, the second level expands three elements and
    # its fourth read raises.
    import zerosum.search as search

    reads = itertools.count()
    monkeypatch.setattr(search, "time", types.SimpleNamespace(monotonic=lambda: next(reads)))
    with pytest.raises(BudgetExceeded, match=r"^wall-clock budget exhausted$"):
        _caps((2, 2, 2, 2), 17)
    assert next(reads) == 19


@pytest.mark.parametrize("moduli", [(12,), (30,), (2, 6), (4, 4), (1, 4), (6, 6, 1)])
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


def test_zero_lengths_share_one_row_per_period():
    # The rows depend on a sum only through one period of its pattern, and
    # each distinct pattern is tiled out once: (Z/2)^12 has 4,096 gcd
    # signatures but two patterns (the identity's, and every other sum's),
    # so its rows to length (t - 1)|G| at t = 2 take two row objects and
    # little memory.
    moduli = (2,) * 12
    _zero_lengths.cache_clear()
    tracemalloc.start()
    try:
        rows = _zero_lengths(moduli, 4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len({id(row) for row in rows}) == 2
    assert peak < 2 * 2**20, peak


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
    assert (profile.zero, profile.top) == (_bits(walks[t][0]), walks[t][1])
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
        assert rep.checked == _vectors(moduli, t, n, False, lambda v: True, 10**8, deadline)[2]
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


def test_walk_restores_the_recursion_limit():
    # The walk takes one frame per element, so it raises the interpreter's
    # recursion limit for Z/1200, and puts it back whether it finishes or the
    # node budget stops it.
    limit = sys.getrecursionlimit()
    with pytest.raises(BudgetExceeded):
        brute_force_modified_constant(make_group([1200]), 1200, SearchBudget(max_nodes=1000))
    assert sys.getrecursionlimit() == limit
    assert brute_force_modified_constant(make_group([2, 2, 2, 2]), 2).computed_value == 17
    assert sys.getrecursionlimit() == limit


# Groups where a cap level below the top caps some of the elements,
# at t = exp(G) and 2 exp(G), each up to the largest size at which the
# uncapped walks below stay cheap.
WIDE_CASES = [((8,), 8, 15), ((8,), 16, 19), ((12,), 12, 11), ((12,), 24, 11),
              ((2, 6), 6, 13), ((2, 6), 12, 11), ((4, 4), 4, 11), ((4, 4), 8, 7),
              ((2, 2, 4), 4, 10), ((2, 2, 4), 8, 7)]


@pytest.mark.parametrize("moduli, t, size", WIDE_CASES, ids=lambda c: str(c).replace(" ", ""))
def test_capped_profile_matches_uncapped_walk_per_length(moduli, t, size):
    # A length fails (for some multiset, or for some zero-sum one) exactly
    # when the uncapped walk at that length reaches a leaf; the walk under
    # the cap chain, with at least one level below the top, and the LG test
    # must list the same lengths.
    order = make_group(list(moduli)).order
    assert min(_caps(moduli, math.inf)) < order - 1
    deadline = time.monotonic() + 900
    profile = _profile(moduli, t, size, None, 10**8, deadline)
    zero, every = set(), set()
    for length in range(size + 1):
        for zero_sum, lengths in ((False, every), (True, zero)):
            if _vectors(moduli, t, length, zero_sum, lambda v: True, 10**8, deadline)[0] is not None:
                lengths.add(length)
    assert profile.zero == _bits(zero)
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
    assert [L for L in range(value) if not profile.zero >> L & 1] == gaps
    assert profile.zero.bit_length() == value  # value - 1 is the last failing length
    assert brute_force_modified_constant(group, t).computed_value == value


@pytest.mark.parametrize(
    "moduli, t, value, witness, nodes, leaves",
    [
        (
            (2, 2, 2, 2), 2, 17,
            "Z/2^4: (0,0,0,0) (0,0,0,1) (0,0,1,0) (0,0,1,1) (0,1,0,0) (0,1,0,1) (0,1,1,0) (0,1,1,1)"
            " (1,0,0,0) (1,0,0,1) (1,0,1,0) (1,0,1,1) (1,1,0,0) (1,1,0,1) (1,1,1,0) (1,1,1,1)",
            1059, 1047,
        ),
        ((4, 4), 4, 12, "Z/4^2: (0,2)^2 (1,1)^3 (1,2)^3 (2,1)^3", 5082, 1134),
        ((8,), 16, 22, "Z/8: 2^15 3^6", 29007, 20653),
    ],
    ids=["Z2^4-t2", "Z4^2-t4", "Z8-t16"],
)
def test_benchmark_scan_counters(moduli, t, value, witness, nodes, leaves):
    # The three constants of the benchmark's scan: the kernel must walk
    # exactly the same tree, so the counters are pinned with the value. Each
    # is the capped walk plus the witness walk. In (Z/2)^4 the top takes every
    # element to at most one copy, and the chain below it caps elements 0-6
    # at element 7, 7-10 at 11, 11 and 12 at 13, and 13 at e2 (index 14).
    # So the capped walk takes 1,044 nodes, where the top and e2 alone, which
    # let e2 with any subset of elements 1..13 through, took 2^13 + 1. The
    # witness walk adds 15 nodes and 2 leaves.
    r = brute_force_modified_constant(make_group(list(moduli)), t)
    assert r.computed_value == value
    assert r.extremal_witness == witness
    assert (r.stats.nodes_visited, r.stats.sequences_checked) == (nodes, leaves)


@pytest.mark.parametrize(
    "moduli, t, value, nodes, leaves",
    [((2, 2, 2, 2), 2, 17, 30, 4), ((4, 4), 4, 12, 4313, 700), ((8,), 16, 22, 20490, 11983)],
    ids=["Z2^4-t2", "Z4^2-t4", "Z8-t16"],
)
def test_benchmark_scan_counters_with_the_claim(moduli, t, value, nodes, leaves):
    # The benchmark's scan passes the closed form as the claim, so its walks
    # start at the claimed length: the capped walk from s' - 1 up, then a
    # witness walk at s' - 1, whose vector is the extremal witness. The value,
    # window and witness are those of the run with no claim; only the
    # counters differ. In (Z/2)^4 the witness walk takes 15 nodes, and so
    # does the capped walk: chunk 0 reaches no leaf of length 16, and in
    # chunk 1, where each element takes at most one copy, only the path on
    # which every element takes its copy does.
    group = make_group(list(moduli))
    plain = brute_force_modified_constant(group, t)
    r = brute_force_modified_constant(group, t, claimed_value=value)
    assert (r.computed_value, r.window, r.extremal_witness) == (plain.computed_value, plain.window, plain.extremal_witness)
    assert not r.discrepancy
    assert (r.stats.nodes_visited, r.stats.sequences_checked) == (nodes, leaves)


# Groups with more than one axis, where a zero-sum walk cuts prefixes: (1, 4)
# and (4, 1) have a modulus-1 axis, (4, 2) unsorted moduli. Each with the
# lengths its full walks cover cheaply.
CUT_CASES = [((2, 4), 6), ((4, 2), 6), ((1, 4), 6), ((4, 1), 6), ((2, 2, 2), 6), ((3, 3), 6),
             ((2, 6), 5), ((2, 2, 4), 5), ((3, 3, 3), 4)]


@pytest.mark.parametrize("moduli, lengths", CUT_CASES, ids=lambda c: str(c).replace(" ", ""))
def test_zero_sum_walk_is_the_full_walk_filtered_by_sum(moduli, lengths):
    # A zero-sum walk drops a prefix whose sum is nonzero on an axis that the
    # elements left cannot move. It must list the zero-sum vectors of the
    # walk without `zero_sum`, summed here from coordinates, in the same
    # order, and stop at the first of them. The node cap stays exact: a cut
    # subtree costs no node, so a cap one below the walk's count stops it at
    # the node past the cap.
    pack = get_pack(moduli, 0)
    coords = [pack.coords(i) for i in range(pack.order)]

    def zero_sum(vector):
        return all(sum(m * c[axis] for m, c in zip(vector, coords)) % n == 0 for axis, n in enumerate(moduli))

    e = math.lcm(*moduli)
    for length in range(lengths + 1):
        for target in sorted({e, e + 1, length + 1}):
            every, zero = [], []
            _vectors(moduli, target, length, False, every.append, 10**8, math.inf)
            _, nodes, _ = _vectors(moduli, target, length, True, zero.append, 10**8, math.inf)
            assert zero == [vector for vector in every if zero_sum(vector)]
            first = _vectors(moduli, target, length, True, lambda v: True, 10**8, math.inf)[0]
            assert first == (tuple(zero[0]) if zero else None)
            if nodes:
                with pytest.raises(BudgetExceeded) as exc:
                    _vectors(moduli, target, length, True, lambda v: None, nodes - 1, math.inf)
                assert str(exc.value) == f"node budget exhausted: {nodes} nodes, {nodes - 1} allowed"
            assert _vectors(moduli, target, length, True, lambda v: None, nodes, math.inf)[1] == nodes


def test_lemma3n_exhaustive_walk_counters():
    # The kernel's zero-sum walk over the multisets of lemma 3n at n = 3
    # (length 9, target 10, which no subsequence reaches) lists the golden
    # 2,710 multisets; the prefix cut keeps its node count at 11,475.
    vectors = []
    _, nodes, leaves = _vectors((3, 3), 10, 9, True, vectors.append, 10**8, math.inf)
    assert (nodes, leaves, len(vectors)) == (11475, 8110, 2710)


@pytest.mark.parametrize("p, nodes, cases", [(2, 5, (1, 0)), (3, 1838, (216, 54))])
def test_por2p_walk_lists_both_sizes_in_the_per_size_order(p, nodes, cases):
    # One walk from 3p - 2 to 3p - 1 hands over each size's vectors in the
    # order of that size's own walk, on one node count: 5 and 1,838 nodes,
    # where the two per-size walks take 5 + 1 and 1,610 + 1,475.
    sizes = (3 * p - 2, 3 * p - 1)
    both = []
    _, walked, _ = _vectors((p, p), p, sizes[1], False, both.append, 10**8, math.inf, shortest=sizes[0])
    assert walked == nodes
    for size, number in zip(sizes, cases):
        alone = []
        _vectors((p, p), p, size, False, alone.append, 10**8, math.inf)
        assert [vector for vector in both if sum(vector) == size] == alone and len(alone) == number


@pytest.mark.parametrize("moduli", [(2, 2), (4,), (2, 4), (3, 3), (6,)], ids=str)
def test_a_walk_over_a_range_of_lengths_merges_the_fixed_length_walks(moduli):
    # A walk over lengths a..b lists, at each length, that length's own
    # walk, and stops at the first vector it hands over. A target that
    # exp(G) divides prunes by room, one it does not divide never does.
    e = math.lcm(*moduli)
    for target in (e, e + 1):
        for zero_sum in (False, True):
            for a, b in [(0, 4), (2, 5), (3, 3), (e, 2 * e + 1)]:
                merged = []
                _vectors(moduli, target, b, zero_sum, merged.append, 10**8, math.inf, shortest=a)
                fixed = {}
                for length in range(a, b + 1):
                    fixed[length] = []
                    _vectors(moduli, target, length, zero_sum, fixed[length].append, 10**8, math.inf)
                    assert [vector for vector in merged if sum(vector) == length] == fixed[length]
                assert len(merged) == sum(map(len, fixed.values()))
                first = _vectors(moduli, target, b, zero_sum, lambda v: True, 10**8, math.inf, shortest=a)[0]
                assert first == (tuple(merged[0]) if merged else None)


def test_por2p_node_budget_is_one_cap_over_both_sizes():
    # The one walk takes 1,838 nodes at p = 3, so a cap of 1,700 stops it,
    # where each per-size walk alone (1,610 and 1,475 nodes) would fit.
    with pytest.raises(BudgetExceeded) as info:
        check_lemma_por2p(3, count=5, budget=SearchBudget(max_nodes=1700))
    assert str(info.value) == "node budget exhausted: 1701 nodes, 1700 allowed"


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


def test_a_claimed_constant_draws_on_one_budget():
    # s'(Z/8, 16) = 22 claimed: the capped walk seeded at 21 and the witness
    # walk there take 20,490 nodes in all, so a cap one below trips at the
    # node past it, and a cap of exactly that many gives the value.
    def constant(max_nodes):
        return brute_force_modified_constant(
            make_group([8]), 16, budget=SearchBudget(max_nodes=max_nodes), claimed_value=22
        )

    total = 20490
    with pytest.raises(BudgetExceeded) as exc:
        constant(total - 1)
    assert str(exc.value) == f"node budget exhausted: {total} nodes, {total - 1} allowed"
    rep = constant(total)
    assert rep.computed_value == 22 and rep.stats.nodes_visited == total


@functools.lru_cache(maxsize=None)
def _unclaimed(moduli, t):
    """The report of the run with no claim."""
    return brute_force_modified_constant(make_group(list(moduli)), t)


@pytest.mark.parametrize(
    "moduli, t, claim, nodes",
    [((12,), 12, 13, 209772), ((12,), 12, 19, 128014), ((12,), 12, 21, 308659),
     ((3, 3, 3), 3, 16, 100929), ((3, 3, 3), 3, 20, 135370)],
    ids=lambda c: str(c).replace(" ", ""),
)
def test_a_wrong_claim_costs_a_seeded_capped_walk(moduli, t, claim, nodes):
    # s'(Z/12, 12) = 20 and s'((Z/3)^3, 3) = 19. A claim below the value
    # seeds a capped walk that still finds s' - 1; one above it seeds a
    # walk that finds no failing zero-sum length, so the walk from 0 runs
    # after it. Either way one uncapped witness walk at s' - 1 runs last, so
    # no claim costs an uncapped walk at a passing length.
    plain = _unclaimed(moduli, t)
    r = brute_force_modified_constant(make_group(list(moduli)), t, claimed_value=claim)
    assert (r.computed_value, r.window, r.extremal_witness) == (plain.computed_value, plain.window, plain.extremal_witness)
    assert r.discrepancy and r.stats.nodes_visited == nodes


def test_every_determination_walks_capped_then_one_witness_walk(monkeypatch):
    # Whatever the claim, the capped walks come first (two when a claim
    # above s' = 6 seeds a walk that finds no failing length), then exactly
    # one uncapped walk, which finds the witness.
    import zerosum.search as search

    calls = []

    def record(name):
        inner = getattr(search, name)

        def walk(*args, **kwargs):
            calls.append(name)
            return inner(*args, **kwargs)

        monkeypatch.setattr(search, name, walk)

    record("_profile")
    record("_vectors")
    for claim, walks in [(None, 1), (1, 1), (3, 1), (6, 1), (7, 2), (13, 2), (14, 1)]:
        calls.clear()
        r = search.brute_force_modified_constant(make_group([4]), 4, claimed_value=claim)
        assert r.computed_value == 6
        assert calls == ["_profile"] * walks + ["_vectors"]


# Groups and targets that exp(G) divides, each walked quickly at every claim.
CLAIM_CASES = [((1,), 1), ((1,), 3), ((2,), 2), ((3,), 3), ((4,), 4), ((4,), 8), ((6,), 6),
               ((2, 2), 2), ((2, 2), 4), ((2, 4), 4), ((3, 3), 3), ((2, 2, 2), 2)]


@pytest.mark.parametrize("moduli, t", CLAIM_CASES, ids=str)
def test_a_claim_changes_only_the_counters(moduli, t):
    # A claim v with 2 <= v <= (t - 1)|G| + 1 seeds the capped walk at
    # v - 1. When that walk finds no failing zero-sum length (the claim is
    # above s'), the walk from 0 runs too; then one witness walk at s' - 1.
    # A claim outside that range costs what no claim does. Every claim gives
    # the value, window and witness of the run with no claim, and a
    # discrepancy exactly when it is not the value.
    group = make_group(list(moduli))
    length = (t - 1) * group.order
    plain = brute_force_modified_constant(group, t)
    profile = _profile(group.moduli, t, length, None, 10**8, math.inf)
    _, witness_nodes, witness_leaves = _vectors(
        group.moduli, t, plain.computed_value - 1, True, lambda v: True, 10**8, math.inf
    )
    seeded = 0
    for claim in [*range(1, plain.computed_value + 3), length + 2]:
        r = brute_force_modified_constant(group, t, claimed_value=claim)
        assert (r.computed_value, r.window, r.extremal_witness) == (plain.computed_value, plain.window, plain.extremal_witness)
        assert r.claimed_value == claim and r.discrepancy == (claim != plain.computed_value)
        if not 2 <= claim <= length + 1:
            assert (r.stats.nodes_visited, r.stats.sequences_checked) == (plain.stats.nodes_visited, plain.stats.sequences_checked)
            continue
        walk = _profile(group.moduli, t, length, None, 10**8, math.inf, seed=claim - 1)
        nodes, leaves = walk.nodes + witness_nodes, walk.leaves + witness_leaves
        if not walk.zero:
            nodes, leaves = nodes + profile.nodes, leaves + profile.leaves
        assert (r.stats.nodes_visited, r.stats.sequences_checked) == (nodes, leaves)
        seeded += profile.zero >> (claim - 1) & 1
    assert seeded == bin(profile.zero >> 1).count("1")  # each failing length from 1 seeds once


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
# (0 + 640 + 21,867 + 60,947) of its 215,157 nodes, Z/2 x Z/6 at t=12 chunks
# 0-3 of 12 (0 + 408 + 10,623 + 25,457) of 88,377.
HANDOFF_CASES = [((12,), 12, 4, 83454), ((2, 6), 12, 4, 36488)]


@pytest.mark.parametrize("moduli, t, kept, handoff", HANDOFF_CASES, ids=str)
def test_pooled_walk_submits_the_chunks_left_after_the_callers(moduli, t, kept, handoff):
    length = (t - 1) * math.prod(moduli)
    deadline = time.monotonic() + 900
    serial = _profile(moduli, t, length, None, 10**8, deadline)
    with ProcessPoolExecutor(2) as real:
        pool = _RecordingExecutor(real)
        assert _profile(moduli, t, length, pool, 10**8, deadline) == serial
    # Each chunk left goes to the pool once, in order, as the profile of that
    # one chunk with no pool, the budget the caller's nodes left, the
    # caller's cap table and the caller's seed, here none.
    caps = _caps(moduli, deadline)
    assert pool.submitted == [
        (moduli, t, length, None, 10**8, deadline, (v,), handoff, caps, 0) for v in range(kept, t)
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


@pytest.mark.parametrize("moduli, t, kept", [case[:3] for case in HANDOFF_CASES], ids=str)
def test_pooled_walk_searches_the_orbit_once(monkeypatch, moduli, t, kept):
    # The caller's walk builds the cap table, and each chunk it hands to the
    # pool walks under that table: with an in-process pool every chunk runs
    # here, and the orbit search still runs once per run.
    import zerosum.search as search

    calls = []
    inner = search._caps

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(search, "_caps", counted)
    length = (t - 1) * math.prod(moduli)
    deadline = time.monotonic() + 900
    serial = _profile(moduli, t, length, None, 10**8, deadline)
    calls.clear()
    pool = _RecordingExecutor()
    assert _profile(moduli, t, length, pool, 10**8, deadline) == serial
    assert calls == [(moduli, deadline)]
    caps = inner(moduli, deadline)
    assert len(pool.submitted) == t - kept
    assert all(args[8] == caps for args in pool.submitted)


def test_pooled_seeded_walk_hands_each_chunk_the_seed():
    # Z/12 at t = 12 seeded at s' - 1 = 19: the caller walks chunks 0-4
    # (48,594 nodes) and hands chunks 5-11 to the pool, each with the seed,
    # so every chunk prunes by the same room at any worker count. A seeded
    # profile lists no failing length below its seed.
    moduli, t, length, seed = (12,), 12, 11 * 12, 19
    deadline = time.monotonic() + 900
    serial = _profile(moduli, t, length, None, 10**8, deadline, seed=seed)
    assert (serial.zero, serial.top, serial.nodes) == (1 << 19, 22, 108570)
    with ProcessPoolExecutor(2) as real:
        pool = _RecordingExecutor(real)
        assert _profile(moduli, t, length, pool, 10**8, deadline, seed=seed) == serial
    caps = _caps(moduli, deadline)
    assert pool.submitted == [
        (moduli, t, length, None, 10**8, deadline, (v,), 48594, caps, seed) for v in range(5, 12)
    ]


def test_walk_reads_the_clock_at_each_node_of_a_wide_mask(monkeypatch):
    # A node of a mask wider than 2^20 bits costs tens of microseconds or
    # more (about 4 ms on Z/9973 at t = 9973), so such a walk reads the clock
    # at every node, not every 1,024: a clock that passes the deadline only
    # when the copy loop reads it stops Z/1200 at t = 1200 (1.44 M bits)
    # before its budget of 1,000 nodes.
    import zerosum.search as search

    def monotonic():
        return math.inf if sys._getframe(1).f_code.co_name == "dfs" else 0.0

    monkeypatch.setattr(search, "time", types.SimpleNamespace(monotonic=monotonic))
    with pytest.raises(BudgetExceeded, match=r"^wall-clock budget exhausted$"):
        brute_force_modified_constant(make_group([1200]), 1200, SearchBudget(max_nodes=1000))


@pytest.mark.parametrize("reader", ["last", "dfs"])
def test_walk_reads_the_clock_inside_a_chunk(monkeypatch, reader):
    # Inside a chunk the walk reads the clock every 1,024 nodes, both in the
    # leaf loop of element 1 (`last`) and in the copy loop of the elements
    # above it (`dfs`). Z/8 at t=16 has chunks of 4,445 and 5,624 nodes, so a
    # clock that passes the deadline only when `reader` reads it, and never at
    # a chunk start, stops the walk from inside a chunk.
    import zerosum.search as search

    def monotonic():
        return math.inf if sys._getframe(1).f_code.co_name == reader else 0.0

    monkeypatch.setattr(search, "time", types.SimpleNamespace(monotonic=monotonic))
    with pytest.raises(BudgetExceeded, match=r"^wall-clock budget exhausted$") as info:
        brute_force_modified_constant(make_group([8]), 16)
    assert info.traceback[-1].name == reader


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
                (None, cap, deadline, (v,), 83454, _caps(moduli, deadline), 0) for v in range(4, 12)
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


@pytest.mark.parametrize("moduli, t", CLAIM_CASES, ids=str)
def test_witness_check_walks_from_the_size(moduli, t):
    # The capped walk starts at the size asked about: the check passes
    # exactly when the profile from length 0 has no failing multiset of that
    # size, and a failing size still gets the first counterexample in colex
    # order.
    group = make_group(list(moduli))
    top = _profile(group.moduli, t, (t - 1) * group.order, None, 10**8, math.inf).top
    for size in range(top + 3):
        rep = check_all_have_witness(group, size, t, name="seeded")
        assert rep.passed == (size > top)
        if not rep.passed:
            first = _vectors(group.moduli, t, size, False, lambda v: True, 10**8, math.inf)[0]
            assert rep.counterexample == serialize_sequence(_sequence_of(group, first))


# Groups whose cap chain nests: an element below a level is capped by a
# deeper level, which has no copies yet when the level above takes its own.
NESTED_CASES = [((2, 2, 2), 4), ((5, 5), 5)]


@pytest.mark.parametrize("moduli, t", NESTED_CASES, ids=str)
def test_room_bounds_an_unplaced_cap_by_its_own_bound(moduli, t):
    # Once a cap level has its copies, room below it adds min(t - 1, live
    # cap) per element, and a cap whose element has no copies yet stands for
    # that element's own bound, never for the copies it held in an earlier
    # branch. So the walk seeded at any length L lists exactly the failing
    # lengths from L up, and s_t(G) when it is past L, of the walk from 0,
    # which room prunes nothing from.
    order = math.prod(moduli)
    caps = _caps(moduli, math.inf)
    assert any(caps[c] < order - 1 for c in caps[:-1] if c < order - 1)
    length = (t - 1) * order
    full = _profile(moduli, t, length, None, 10**8, math.inf)
    for seed in range(1, full.top + 2):
        seeded = _profile(moduli, t, length, None, 10**8, math.inf, seed=seed)
        assert seeded.zero == full.zero >> seed << seed, seed
        assert seeded.top == full.top if full.top >= seed else seeded.top < seed


def test_nested_room_is_the_largest_prefix_sum_under_every_bound():
    # Over tiny random per-element bounds and nested block caps, room[x] is
    # the largest sum of m_0..m_x over every vector that keeps each bound,
    # found by listing the vectors.
    rng = random.Random(33)
    for _ in range(40):
        factors = rng.choice([[2, 2, 2], [2, 3], [3, 2], [2, 2], [4, 2], [2, 4], [6], [3, 3]])
        order = math.prod(factors)
        strides = list(itertools.accumulate(factors[:-1], lambda a, b: a * b))
        levels = [(s, rng.randrange(6)) for s in strides]
        bounds = [rng.randrange(3) for _ in range(order)]
        best = [0] * order
        for m in itertools.product(*(range(b + 1) for b in bounds)):
            if all(sum(m[c:c + s]) <= cap for s, cap in levels for c in range(0, order, s)):
                best = [max(x, y) for x, y in zip(best, itertools.accumulate(m))]
        assert _nested_room(bounds, levels) == best, (bounds, levels)


# Groups with a cyclic stride subgroup, at targets that exp(G) divides.
COSET_CASES = [((4, 4), 4), ((4, 4), 8), ((2, 2, 4), 4), ((3, 3), 3), ((3, 3), 6)]


@pytest.mark.parametrize("moduli, t", COSET_CASES, ids=str)
def test_room_per_coset_keeps_every_length_and_witness(moduli, t):
    # Room caps the copies in each coset of a cyclic stride subgroup H at
    # t + |H| - 2. A walk seeded at 0 prunes nothing, so it is the oracle:
    # each seeded profile lists the same failing lengths and s_t(G) from its
    # seed, and at each length where some vector fails (zero-sum or any),
    # the witness walk seeded there finds the first vector of that length
    # of the walk over every length from 0.
    order = math.prod(moduli)
    assert _coset_caps(moduli, t)
    length = (t - 1) * order
    full = _profile(moduli, t, length, None, 10**8, math.inf)
    for seed in range(1, full.top + 2):
        seeded = _profile(moduli, t, length, None, 10**8, math.inf, seed=seed)
        assert seeded.zero == full.zero >> seed << seed, seed
        assert seeded.top == full.top if full.top >= seed else seeded.top < seed
    for zero_sum in (True, False):
        for size in range(full.top + 1):
            if zero_sum and not full.zero >> size & 1:
                continue  # no zero-sum vector of this size fails
            first = _vectors(moduli, t, size, zero_sum, lambda v: sum(v) == size, 10**8, math.inf, shortest=0)[0]
            assert first is not None
            assert _vectors(moduli, t, size, zero_sum, lambda v: True, 10**8, math.inf)[0] == first, size


@pytest.mark.parametrize("m", range(2, 9))
def test_coset_cap_is_the_cyclic_constant_less_one(m):
    # The cap per coset of a cyclic H = Z/m is s_t(Z/m) - 1 = t + m - 2, the
    # largest length at which some multiset over Z/m has no zero-sum
    # subsequence of length t, which the walk over Z/m finds.
    for t in (m, 2 * m, 3 * m):
        top = _profile((m,), t, (t - 1) * m, None, 10**8, math.inf).top
        assert _coset_caps((m, m), t) == [(m, top)] and top == t + m - 2


def test_egz_at_12_counts_the_leaves_from_its_size():
    # EGZ at n = 12: the walk seeded at size 23 reaches 3,047 leaves, where
    # the walk from length 0 reaches 118,980, and the seeded walk whose room
    # read only the top's copies reached 19,048.
    rep = check_all_have_witness(make_group([12]), 23, 12, name="egz")
    assert rep.passed and rep.checked == 3047


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


def test_por2p_reports_violations_and_the_first_as_counterexample(monkeypatch):
    # A counter that is wrong on every case after the first: each of those is
    # a violation, and the first of them is the counterexample.
    import zerosum.search as search

    seen = []

    def wrong_after_first(seq, k, modulus=None):
        seen.append(seq)
        return count_zero_sum_subseqs(seq, k, modulus=modulus) + (len(seen) > 1)

    monkeypatch.setattr(search, "count_zero_sum_subseqs", wrong_after_first)
    rep = check_lemma_por2p(3, count=5)
    assert rep.checked == len(seen) == 10  # five draws at each size
    assert not rep.passed and rep.violations == rep.checked - 1
    assert rep.counterexample == serialize_sequence(seen[1])


def test_por2p_hand_example():
    j = parse_sequence("Z/2^2: (0,0) (0,1) (1,0) (1,1)")
    assert count_zero_sum_subseqs(j, 2) == 0
    assert count_zero_sum_subseqs(j, 4) % 2 == 1  # -1 mod 2


def test_por2p_sampled_small():
    rep = check_lemma_por2p(3, count=50, seed=1)
    assert rep.params["mode"] == "sample"
    assert rep.passed and rep.checked >= 100  # 50 hypothesis cases per size


def test_por2p_one_deadline_covers_both_sizes_and_the_counting(monkeypatch):
    # A fake clock that the walk moves by one second before its first chunk
    # and the counting by one second per case.
    import zerosum.search as search

    now = [0.0]
    monkeypatch.setattr(search, "time", types.SimpleNamespace(monotonic=lambda: now[0]))
    count = search.count_zero_sum_subseqs

    def slow_count(*args, **kwargs):
        now[0] += 1
        return count(*args, **kwargs)

    # Each walk records [node budget, deadline, vectors visited].
    walks = []
    walk = search._vectors

    def record(moduli, target, length, zero_sum, visit, max_nodes, deadline, *rest, **options):
        walks.append([max_nodes, deadline, 0])
        now[0] += 1

        def counted(vector):
            walks[-1][2] += 1
            return visit(vector)

        return walk(moduli, target, length, zero_sum, counted, max_nodes, deadline, *rest, **options)

    monkeypatch.setattr(search, "count_zero_sum_subseqs", slow_count)
    monkeypatch.setattr(search, "_vectors", record)

    def run(max_seconds):
        walks.clear()
        now[0] = 0.0
        return check_lemma_por2p(3, count=5, budget=SearchBudget(max_nodes=10**6, max_seconds=max_seconds))

    # Five cases per size from one walk, which lists the 216 + 54 cases of
    # both sizes on the whole node budget and the one deadline.
    assert run(12).checked == 10
    assert walks == [[10**6, 12, 216 + 54]] and now[0] == 11
    # The walk reads the deadline: past it at its first chunk start, it stops
    # before it visits a vector, and nothing is counted.
    with pytest.raises(BudgetExceeded, match="wall-clock budget exhausted") as info:
        run(0.5)
    assert walks == [[10**6, 0.5, 0]] and now[0] == 1
    assert info.traceback[-1].name == "_walk"
    # Then the counting reads the same deadline: the cases starting at 1, 2
    # and 3 s are counted, the fourth is not.
    with pytest.raises(BudgetExceeded, match="wall-clock budget exhausted") as info:
        run(3.5)
    assert walks == [[10**6, 3.5, 216 + 54]] and now[0] == 4
    assert info.traceback[-1].name == "check_lemma_por2p"


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
    # The same draws, each tested for 3n elements and a zero sum with the
    # group's own arithmetic.
    rng, elements, drawn = random.Random(seed), list(group.elements()), []
    total, multisets = search._zero_sum_ranks(n, 3 * n, math.inf)
    for mults in multisets(rng.randrange(total) for _ in range(200)):
        total_sum = group.identity()
        for el, m in zip(elements, mults):
            total_sum = group.add(total_sum, group.scale(el, m))
        assert sum(mults) == 3 * n and total_sum == group.identity()
        drawn.append([(el, m) for el, m in zip(elements, mults) if m])
    assert rep.passed and rep.checked == 200
    assert [items for items, _, _ in seen] == drawn
    _agrees_with_public_path(group, seen, n)


@pytest.mark.parametrize("n, golden", [(2, 24), (3, 2710)])
def test_zero_sum_ranks_list_the_walk_once(n, golden):
    # The ranks below `total` list the walk's zero-sum multisets in the
    # walk's colex order, the golden `checked` of lemma3n at n.
    import zerosum.search as search

    group = make_group([n, n])
    total, multisets = search._zero_sum_ranks(n, 3 * n, math.inf)
    ranked = [tuple((el, m) for el, m in zip(group.elements(), v) if m) for v in multisets(range(total))]
    walk = []
    enumerate_multisets(group, 3 * n, lambda seq: walk.append(tuple(seq.items())))
    assert total == len(walk) == golden
    assert ranked == walk
    with pytest.raises(ValueError, match="index out of range"):
        list(multisets([total]))


def test_zero_sum_ranks_of_one_element():
    # Over the trivial group the one multiset of three elements is (0,0)^3.
    import zerosum.search as search

    total, multisets = search._zero_sum_ranks(1, 3, math.inf)
    assert total == 1 and list(multisets(range(total))) == [[3]]


def test_zero_sum_ranks_in_batches_are_ranks_alone():
    # 3,000 seeded ranks at n = 2 span three batches of the peel; each comes
    # out as the vector of ranking it alone.
    import zerosum.search as search

    total, multisets = search._zero_sum_ranks(2, 6, math.inf)
    rng = random.Random(7)
    ranks = [rng.randrange(total) for _ in range(3000)]
    assert 3000 > 2 * search._RANK_BATCH
    assert list(multisets(ranks)) == [next(multisets([i])) for i in ranks]


@pytest.mark.parametrize("n", [4, 5])
def test_zero_sum_ranks_total_matches_a_per_element_count(n):
    # (size, sum) -> number of multisets, one element at a time, any number
    # of copies of each, sizes up to 3n.
    import zerosum.search as search

    group = make_group([n, n])
    ways = {(0, group.identity()): 1}
    for el in group.elements():
        for (size, s), w in list(ways.items()):
            for m in range(1, 3 * n - size + 1):
                key = (size + m, group.add(s, group.scale(el, m)))
                ways[key] = ways.get(key, 0) + w
    assert search._zero_sum_ranks(n, 3 * n, math.inf)[0] == ways[(3 * n, group.identity())]


def test_lemma3n_sampling_budget_is_a_cap(monkeypatch):
    import zerosum.search as search

    seen = _record_lemma_3n(monkeypatch)
    # Three draws are allowed, and the fourth is refused.
    with pytest.raises(BudgetExceeded, match=r"^sampling budget exhausted after 4 draws$"):
        check_lemma_3n(6, samples=10, budget=SearchBudget(max_nodes=3))
    assert len(seen) == 3
    seen.clear()
    with pytest.raises(BudgetExceeded):
        check_lemma_3n(6, samples=10, budget=SearchBudget(max_seconds=0))
    assert seen == []
    # A fake clock that moves one second per read: the start, then one read
    # per n elements while the table is built (reads 1-6), the same while
    # the batch peels it (reads 7-12), then one per draw.
    reads = itertools.count()
    monkeypatch.setattr(search, "time", types.SimpleNamespace(monotonic=lambda: next(reads)))
    with pytest.raises(BudgetExceeded, match=r"^wall-clock budget exhausted$"):
        check_lemma_3n(6, samples=10, budget=SearchBudget(max_seconds=5))
    reads = itertools.count()
    with pytest.raises(BudgetExceeded, match=r"^wall-clock budget exhausted$"):
        check_lemma_3n(6, samples=10, budget=SearchBudget(max_seconds=11))
    assert seen == []
    reads = itertools.count()
    with pytest.raises(BudgetExceeded, match=r"^sampling budget exhausted after 3 draws$"):
        check_lemma_3n(6, samples=10, budget=SearchBudget(max_seconds=14))
    assert len(seen) == 2


def test_lemma3n_exhaustive_budget_counts_each_multiset():
    # At n = 3 the check takes each of the 2,710 multisets once against the
    # node budget, and one fewer refuses the last with the sampled line.
    with pytest.raises(BudgetExceeded, match=r"^sampling budget exhausted after 2710 draws$"):
        check_lemma_3n(3, budget=SearchBudget(max_nodes=2709))
    rep = check_lemma_3n(3, budget=SearchBudget(max_nodes=2710))
    assert rep.passed and rep.checked == 2710


# What the check must raise, or report, when one witness search returns a bad
# witness: the messages of Witness and validate_against, raised as
# AssertionError, since a witness the program found that fails its check is a
# fault in the program, not in the caller's input.
_BAD_WITNESSES = {
    "size": (lambda moduli, items, k: {}, AssertionError, "witness has length 0, expected {n}"),
    "sum": (lambda moduli, items, k: {(0, 1): 1}, AssertionError,
            "witness does not sum to the identity: {{(0, 1): 1}}"),
    "contained": (lambda moduli, items, k: {(0, 0): 3 * k + 1}, AssertionError,
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
            "Z/2^2: (0,0)^6" if n == 2 else "Z/4^2: (0,1) (0,3) (1,2)^4 (1,3)^2 (2,3)^2 (3,2)^2"
        )
        return
    with pytest.raises(error) as info:
        check_lemma_3n(n, **kw)
    assert type(info.value) is error and str(info.value) == message.format(n=n)


def test_verify_explicit_samples_are_not_the_default():
    # One sample is one draw, not the default 1,000; zero samples are refused
    # (see tests/test_refusals.py).
    (rep,) = verify_theorem("lemma3n", n_values=[4], samples=1)
    assert rep.params["samples"] == 1 and rep.checked == 1


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
