"""Engine checks: spec examples, oracle equivalence, and count identities."""

import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zerosum import (
    Sequence,
    Witness,
    count_zero_sum_subseqs,
    find_zero_sum_subseq,
    has_zero_sum_in_lengths,
    has_zero_sum_of_length,
    make_group,
    parse_sequence,
)
from zerosum._bitdp import get_pack
from zerosum.engine import _find

from conftest import (
    oracle_count,
    oracle_count_table,
    oracle_exists,
    oracle_least_witness,
    random_multiset,
)


def test_find_examples():
    s = parse_sequence("Z/3: 1^2 2^2")
    w = find_zero_sum_subseq(s, 2)
    assert w is not None and w.counts == {(1,): 1, (2,): 1}
    assert find_zero_sum_subseq(s, 3) is None

    w = find_zero_sum_subseq(s, 0)
    assert isinstance(w, Witness) and w.length == 0

    s = parse_sequence("Z/2^2: (0,0) (0,1) (1,0) (1,1)")
    w = find_zero_sum_subseq(s, 4)
    assert w is not None and w.counts == s.counts


def test_find_argument_errors():
    s = parse_sequence("Z/3: 1^2")
    with pytest.raises(ValueError):
        find_zero_sum_subseq(s, -1)
    with pytest.raises(ValueError):
        find_zero_sum_subseq(s, 3)


def test_count_examples():
    s = parse_sequence("Z/2^2: (0,0) (0,1) (1,0) (1,1)")
    assert count_zero_sum_subseqs(s, 2) == 0
    assert count_zero_sum_subseqs(s, 4) == 1

    assert count_zero_sum_subseqs(parse_sequence("Z/3: 1^2 2^2"), 2) == 4
    assert count_zero_sum_subseqs(parse_sequence("Z/3: 0^3"), 1) == 3
    assert count_zero_sum_subseqs(parse_sequence("Z/3: 0^3"), 0) == 1


def test_count_modulus_validation():
    s = parse_sequence("Z/3: 0^3")
    with pytest.raises(ValueError):
        count_zero_sum_subseqs(s, 1, modulus=1)


def test_has_zero_sum_in_lengths_examples():
    s = parse_sequence("Z/3: 1^2 2^2")
    assert not has_zero_sum_in_lengths(s, {3})
    assert has_zero_sum_in_lengths(s, {2, 3})
    assert has_zero_sum_in_lengths(s, {4})  # the whole zero-sum sequence
    assert not has_zero_sum_in_lengths(s, {9})  # longer than the sequence
    assert has_zero_sum_in_lengths(s, {0, 3})


def test_large_group_costs_no_square_table():
    # |G| = 20000: a table with a row for every element would hold 4 * 10^8
    # entries; the engine builds rotation masks only for the sequence's
    # elements.
    s = parse_sequence("Z/20000: 1 2 3 19994")
    assert [count_zero_sum_subseqs(s, k) for k in range(5)] == [1, 0, 0, 0, 1]
    assert count_zero_sum_subseqs(s, 4, modulus=7) == 1
    assert find_zero_sum_subseq(s, 3) is None
    assert find_zero_sum_subseq(s, 4).counts == s.counts
    assert not has_zero_sum_in_lengths(s, {1, 2, 3})
    assert has_zero_sum_in_lengths(s, {3, 4})
    assert has_zero_sum_of_length(s, 4) and not has_zero_sum_of_length(s, 2)


def test_witness_determinism_and_minimality():
    # Same input gives the same witness; elements take the smallest viable
    # multiplicity in ascending element order, so (0,) takes none here and
    # the remainder must be soaked up by (1,) alone.
    s = parse_sequence("Z/4: 0^2 1^4 2^2")
    w1 = find_zero_sum_subseq(s, 4)
    w2 = find_zero_sum_subseq(s, 4)
    assert w1 == w2
    assert w1.counts == {(1,): 4}


GROUPS = [(2,), (3,), (4,), (6,), (9,), (2, 2), (3, 3), (2, 4), (1,), (2, 3)]


def test_oracle_equivalence_random():
    rng = random.Random(11)
    for _ in range(150):
        g = make_group(rng.choice(GROUPS))
        seq = random_multiset(rng, g, rng.randint(0, 9))
        for k in range(seq.length + 1):
            w = find_zero_sum_subseq(seq, k)
            assert (w is not None) == oracle_exists(seq, k)
            if w is not None:
                w.validate_against(seq, size=k)
            assert count_zero_sum_subseqs(seq, k) == oracle_count(seq, k)


def test_witness_is_the_lexicographically_least_vector():
    rng = random.Random(17)
    for _ in range(200):
        g = make_group(rng.choice(GROUPS))
        seq = random_multiset(rng, g, rng.randint(0, 9))
        for k in range(seq.length + 1):
            least = oracle_least_witness(seq, k)
            expected = None if least is None else list(least.items())
            w = find_zero_sum_subseq(seq, k)
            assert (None if w is None else list(w.counts.items())) == expected
            counts = _find(g.moduli, seq.items(), k)
            assert (None if counts is None else list(counts.items())) == expected


def test_witness_past_half_the_length_folds_the_complement_side():
    # With 2k > L the search folds the (L - k)-subsets summing to the total
    # and gives each element its largest complement multiplicity; the
    # witness is still the least k-vector. Few distinct elements with many
    # copies each make the complement take several copies of one element.
    rng = random.Random(31)
    cases = 0
    for _ in range(300):
        g = make_group(rng.choice(GROUPS))
        elements = list(g.elements())
        picked = rng.sample(elements, min(len(elements), rng.randint(1, 4)))
        seq = Sequence(g, {el: rng.randint(1, 4) for el in picked})
        for k in range(seq.length // 2 + 1, seq.length + 1):
            least = oracle_least_witness(seq, k)
            counts = _find(g.moduli, seq.items(), k, seq.length)
            assert (None if counts is None else list(counts.items())) == (None if least is None else list(least.items()))
            cases += least is not None
    assert cases > 300


def test_witness_near_the_full_length_folds_the_complement_side():
    # The sequence of the existence test above: at k = 1001 the complement
    # is the one element 5, so the witness is every other element; at
    # k = 1000 there is none. The k side would need 1001 x 300,000 bits.
    s = Sequence(make_group([300_000]), {(1,): 1000, (5,): 1, (299_000,): 1})
    get_pack.cache_clear()
    tracemalloc.start()
    try:
        w = find_zero_sum_subseq(s, 1001)
        assert w is not None and w.counts == {(1,): 1000, (299_000,): 1}
        assert find_zero_sum_subseq(s, 1000) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        get_pack.cache_clear()
    assert peak < 5 * 10**6


def test_detection_matches_counting():
    rng = random.Random(12)
    for _ in range(150):
        g = make_group(rng.choice(GROUPS))
        seq = random_multiset(rng, g, rng.randint(0, 10))
        for k in range(seq.length + 1):
            assert has_zero_sum_of_length(seq, k) == (count_zero_sum_subseqs(seq, k) > 0)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_complementation(data):
    # Every count matches enumeration, zero-sum or not: of k and L - k, the
    # one with 2k > L is read from the complement side's table.
    moduli = data.draw(st.sampled_from(GROUPS))
    g = make_group(moduli)
    els = list(g.elements())
    counts = {}
    for el in data.draw(st.permutations(els))[: data.draw(st.integers(0, 3))]:
        counts[el] = data.draw(st.integers(1, 4))
    seq = Sequence(g, counts)
    L = seq.length
    exact = [oracle_count(seq, k) for k in range(L + 1)]
    assert [count_zero_sum_subseqs(seq, k) for k in range(L + 1)] == exact
    if seq.is_zero_sum():
        assert exact == exact[::-1]


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_modular_count_matches_exact(data):
    moduli = data.draw(st.sampled_from(GROUPS))
    g = make_group(moduli)
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    seq = random_multiset(rng, g, rng.randint(0, 9))
    modulus = data.draw(st.integers(2, 9))
    for k in range(seq.length + 1):
        exact = count_zero_sum_subseqs(seq, k)
        assert count_zero_sum_subseqs(seq, k, modulus=modulus) == exact % modulus


def test_big_counts_are_exact():
    # 60 zeros: counts are binomials, far beyond 64-bit for the middle sizes.
    s = parse_sequence("Z/2: 0^60")
    assert count_zero_sum_subseqs(s, 30) == math.comb(60, 30)


def test_oracle_equivalence_length_14():
    # The largest oracle-checkable shape: length 14 over a 9-element group.
    rng = random.Random(14)
    g = make_group([3, 3])
    seq = random_multiset(rng, g, 14)
    for k in (0, 3, 7, 14):
        assert (find_zero_sum_subseq(seq, k) is not None) == oracle_exists(seq, k)
        assert count_zero_sum_subseqs(seq, k) == oracle_count(seq, k)


def test_count_matches_table_oracle_beyond_enumeration():
    # Lengths 15-60, past the index-subset oracles' reach, over Z/n,
    # Z/m x Z/n, (Z/n)^2 and (Z/2)^4. Every k is checked exactly, and modulo
    # 2 + k % 8 against the exact table; each sequence is also checked at
    # one modulus against the table reduced cell by cell.
    rng = random.Random(15)
    for i, moduli in enumerate([(7,), (12,), (3, 6), (2, 10), (4, 4), (5, 5), (2, 2, 2, 2), (9,)]):
        seq = random_multiset(rng, make_group(moduli), rng.randint(15, 60))
        exact = oracle_count_table(seq)
        modulus = 2 + i % 8
        reduced = oracle_count_table(seq, modulus)
        for k in range(seq.length + 1):
            assert count_zero_sum_subseqs(seq, k) == exact[k]
            assert count_zero_sum_subseqs(seq, k, modulus=2 + k % 8) == exact[k] % (2 + k % 8)
            assert count_zero_sum_subseqs(seq, k, modulus=modulus) == reduced[k]


@pytest.mark.parametrize("moduli", [(1, 6), (6, 1), (3, 1, 3), (2, 2, 4), (4, 2), (1,), (1, 1)])
def test_element_major_table_matches_the_table_oracle(moduli):
    # Each element owns a block of s+1 count cells, and the leading axis's
    # rotation wraps the whole table: a trivial leading or trailing axis,
    # three axes and unsorted moduli each change which axes wrap where.
    # Existence, folded on the same smaller side, must agree with the count.
    rng = random.Random(sum(moduli) * 31 + len(moduli))
    for _ in range(2):
        seq = random_multiset(rng, make_group(moduli), rng.randint(15, 40))
        modulus = rng.randint(2, 9)
        exact = oracle_count_table(seq)
        reduced = oracle_count_table(seq, modulus)
        for k in range(seq.length + 1):
            assert count_zero_sum_subseqs(seq, k) == exact[k]
            assert count_zero_sum_subseqs(seq, k, modulus=modulus) == reduced[k]
            assert has_zero_sum_of_length(seq, k) == (exact[k] > 0)


def test_existence_near_the_full_length_folds_the_complement_side():
    # L = 1002 over Z/300000 with total 5. At k = 1001 the complement is one
    # element equal to 5 (all the 1s and 299,000 sum to zero); at k = 1000 no
    # two elements sum to 5. The fold keeps counts up to L - k, 9 x 10^5 bits,
    # where the k side would need 1001 x 300,000, past the 2*10^8-bit limit.
    s = Sequence(make_group([300_000]), {(1,): 1000, (5,): 1, (299_000,): 1})
    get_pack.cache_clear()
    tracemalloc.start()
    try:
        assert has_zero_sum_of_length(s, 1001)
        assert not has_zero_sum_of_length(s, 1000)
        assert has_zero_sum_in_lengths(s, {1000, 1001, 1002}) and not has_zero_sum_in_lengths(s, {1000, 1002})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        get_pack.cache_clear()
    assert peak < 5 * 10**6


@pytest.mark.parametrize("moduli, expected", [((2000,), 665_667), ((45, 45), 682_428)])
def test_counting_a_whole_group_keeps_no_rotation_masks(moduli, expected):
    # All N elements at k = 3: (N^2 - 3N + 2 #{x : 3x = 0}) / 6. The rotation
    # masks are built per element and dropped, so the peak stays near a few
    # tables; keeping them for every element would pass 100 MB.
    g = make_group(moduli)
    s = Sequence(g, {el: 1 for el in g.elements()})
    n, triple = g.order, sum(1 for el in g.elements() if g.scale(el, 3) == g.identity())
    assert (n * n - 3 * n + 2 * triple) // 6 == expected
    get_pack.cache_clear()
    tracemalloc.start()
    try:
        assert count_zero_sum_subseqs(s, 3) == expected
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 10**6


def test_table_oracle_matches_enumeration():
    rng = random.Random(16)
    for moduli in [(6,), (2, 4), (3, 3)]:
        seq = random_multiset(rng, make_group(moduli), 11)
        assert oracle_count_table(seq) == [oracle_count(seq, k) for k in range(12)]


def test_count_fills_the_widest_cell():
    # 61 zeros: every k-subset is zero-sum, and C(61, 30) = C(61, 31) is the
    # largest cell, which uses every bit of its width.
    s = parse_sequence("Z/1: 0^61")
    assert [count_zero_sum_subseqs(s, k) for k in range(62)] == [math.comb(61, k) for k in range(62)]


@pytest.mark.parametrize("n", [*range(3, 13), 97, 300, 2000])
def test_count_three_distinct_residues_closed_form(n):
    # The 3-subsets of Z/n summing to 0: (n^2 - 3n + 2 gcd(3, n)) / 6.
    s = Sequence(make_group([n]), {(i,): 1 for i in range(n)})
    assert count_zero_sum_subseqs(s, 3) == (n * n - 3 * n + 2 * math.gcd(3, n)) // 6


def test_state_space_guards():
    # A witness search folds min(k, L - k) + 1 count layers of |G| bits: at
    # L = 500, k = 300 that is 201 * 10^6 bits, past the 2 * 10^8 limit.
    g = make_group([10**6])
    s = Sequence(g, {(1,): 500})
    with pytest.raises(ValueError):
        find_zero_sum_subseq(s, 300)
    with pytest.raises(ValueError):
        count_zero_sum_subseqs(s, 100)


@pytest.mark.parametrize("n, length, k", [(1, 100000, 50000), (1, 24000, 12000), (10**6, 500, 100)])
def test_count_refuses_wide_cells_before_building_the_table(n, length, k):
    # Over Z/1, k+1 cells of about `length` bits each: the first table is
    # refused by the bound (L/j)^j <= C(L, j), the second passes it (12,001 x
    # 12,001 bits) and is refused by C(L, j) itself (12,001 x 23,993 bits).
    # The third has too many cells, and its (G, k) pack is not built either.
    s = Sequence(make_group([n]), {(n - 1,): length})
    get_pack.cache_clear()
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="exceeds the supported size"):
            count_zero_sum_subseqs(s, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6  # the tables would take 0.6 GB, 36 MB and 2.5 GB


def test_count_near_the_full_length_counts_the_complement_side():
    # 59,998 of 60,000 zeros: the table counts the 2-subsets summing to the
    # total, on 3 cells of 31 bits, where the k side would need 59,999 cells.
    s = Sequence(make_group([1]), {(0,): 60000})
    get_pack.cache_clear()
    tracemalloc.start()
    try:
        assert count_zero_sum_subseqs(s, 59998) == math.comb(60000, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6


def test_count_refusal_past_half_the_length_names_the_callers_k():
    s = Sequence(make_group([1]), {(0,): 100000})
    with pytest.raises(ValueError) as info:
        count_zero_sum_subseqs(s, 50001)
    assert str(info.value) == (
        "counting table of 50000 cells of at least 50000 bits (|G| = 1, k = 50001) "
        "exceeds the supported size"
    )


@pytest.mark.parametrize("moduli", [(1,), (5,), (6,), (8,), (2, 6), (3, 6), (3, 3), (4, 4)])
def test_private_find_matches_public_and_oracle(moduli):
    rng = random.Random(13 * sum(moduli) + len(moduli))
    g = make_group(moduli)
    seen_none = False
    for _ in range(25):
        seq = random_multiset(rng, g, rng.randint(0, 9))
        for k in range(seq.length + 1):
            counts = _find(g.moduli, seq.items(), k)
            w = find_zero_sum_subseq(seq, k)
            assert counts == (None if w is None else w.counts)
            assert (counts is None) == (not oracle_exists(seq, k))
            if counts is None:
                seen_none = True
            else:
                assert list(counts) == sorted(counts)
    assert seen_none or moduli == (1,)


def test_pack_shares_rotation_masks_by_axis_and_shift():
    from zerosum._bitdp import GroupPack

    pack = GroupPack((6, 4), 5)
    # (2, 1) and (2, 3) move axis 0 by 2; (2, 1) and (5, 1) move axis 1 by 1.
    a, b, c = (pack.parts(pack.index(el)) for el in [(2, 1), (2, 3), (5, 1)])
    assert a[0] is b[0] and a[0][0] is b[0][0] and a[0][3] is b[0][3]
    assert a[1] is c[1] and a[1][0] is c[1][0]
    assert a[1] is not b[1]
    # Two copies of (1, 2) move axis 0 by 2 and axis 1 by 0 (dropped).
    assert pack.parts(pack.index((1, 2)), 2) == (a[0],)
    assert pack.parts(pack.index((1, 2)), 2)[0] is a[0]
    # The per-(element, copies) tuple is cached too.
    assert pack.parts(pack.index((2, 1))) is a


def _fold_oracle(moduli, k, mask, x, mult):
    """Up to `mult` copies of x added to every (count, sum) bit of `mask`,
    with the group's own arithmetic rather than rotation masks."""
    g = make_group(moduli)
    elements = list(g.elements())
    index = {el: i for i, el in enumerate(elements)}
    out = 0
    for c in range(k + 1):
        for i, el in enumerate(elements):
            if mask >> (c * len(elements) + i) & 1:
                for j in range(min(mult, k - c) + 1):
                    out |= 1 << ((c + j) * len(elements) + index[g.add(el, g.scale(x, j))])
    return out


@pytest.mark.parametrize("moduli", [(7,), (3, 3), (2, 6)])
def test_add_copies_replays_a_cached_chunk_plan(moduli):
    from zerosum._bitdp import GroupPack

    rng = random.Random(sum(moduli))
    for k in range(1, 7):
        pack = GroupPack(moduli, k)
        for i in range(pack.order):
            x = pack.coords(i)
            for mult in range(k + 3):
                mask = pack.initial | rng.getrandbits(pack.width) & rng.getrandbits(pack.width)
                one_at_a_time = mask
                for _ in range(mult):
                    one_at_a_time = pack.add_copies(one_at_a_time, i, 1)
                got = pack.add_copies(mask, i, mult)
                assert got == one_at_a_time == _fold_oracle(moduli, k, mask, x, mult)
                # The plan is keyed on the copies that can matter, min(mult, k),
                # and holds the very `parts` tuples of its chunks.
                plan = pack._plans[i, min(mult, k)]
                assert (i, mult) not in pack._plans or mult <= k
                assert sum(shift for shift, _ in plan) == min(mult, k) * pack.order
                for shift, parts in plan:
                    assert parts is pack.parts(i, shift // pack.order)
            plan = pack._plans[i, k]
            pack.add_copies(pack.initial, i, k + 2)  # replays the (i, k) plan
            assert pack._plans[i, k] is plan and (i, k + 2) not in pack._plans
