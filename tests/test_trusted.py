"""Trusted construction: `Sequence._of` agrees with the public constructor,
the extractors' blocks are the ones the general block route picks, and every
witness built inside the package holds only elements of its group."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from zerosum import (
    Sequence,
    Witness,
    extract_cyclic_block,
    extract_cyclic_nt,
    extract_cyclic_nt_rounds,
    extract_square_3n,
    extract_square_block,
    extract_square_n,
    find_zero_sum_subseq,
    make_group,
    min_nondivisor,
)
from zerosum.extractors import _peel_blocks, _square_3n, _subtract

from conftest import random_zero_sum

MODULI = [(1,), (2,), (5,), (6,), (1, 1), (2, 2), (3, 3), (2, 4), (2, 2, 2)]


@st.composite
def group_and_counts(draw):
    """A group and a valid counts mapping, its keys in a drawn order."""
    g = make_group(draw(st.sampled_from(MODULI)))
    els = draw(st.permutations(list(g.elements())))
    chosen = els[: draw(st.integers(0, min(6, len(els))))]
    return g, {el: draw(st.integers(1, 5)) for el in chosen}


@given(group_and_counts())
def test_trusted_constructor_agrees_with_public(case):
    g, counts = case
    public, trusted = Sequence(g, counts), Sequence._of(g, counts)
    assert type(trusted) is Sequence
    assert trusted.counts == public.counts
    assert list(trusted.counts) == list(public.counts)
    assert (trusted.length, trusted.total_sum) == (public.length, public.total_sum)
    assert trusted == public and public == trusted


@given(group_and_counts())
def test_trusted_witness_agrees_and_rejects_nonzero_sums(case):
    g, counts = case
    if Sequence(g, counts).is_zero_sum():
        public, trusted = Witness(g, counts), Witness._of(g, counts)
        assert type(trusted) is Witness
        assert list(trusted.counts) == list(public.counts)
        assert (trusted.length, trusted.total_sum) == (public.length, public.total_sum)
        assert trusted == public
    else:
        with pytest.raises(ValueError):
            Witness(g, counts)
        with pytest.raises(ValueError):
            Witness._of(g, counts)


def test_trusted_constructor_copies_its_input():
    g = make_group([4])
    counts = {(3,): 1, (1,): 2}
    seq = Sequence._of(g, counts)
    counts[(2,)] = 5
    assert seq.counts == {(1,): 2, (3,): 1}
    with pytest.raises(AttributeError):
        seq.length = 0


# -- blocks ----------------------------------------------------------------


def _pull_back(counts, residues, d):
    """Concrete elements realizing the residue counts mod d, smallest first."""
    need, taken = dict(residues), {}
    for el in sorted(counts):
        key = tuple(c % d for c in el)
        if need.get(key):
            taken[el] = use = min(counts[el], need[key])
            need[key] -= use
    assert not any(need.values())
    return taken


def _general_block(group, counts, d, pick=find_zero_sum_subseq):
    """The general route to one size-d block: reduce what is left into
    (Z/d)^r, pick d zero-sum elements there with the public search (or
    `pick`), and pull them back to the parent."""
    quotient = make_group([d] * group.rank)
    reduced = {}
    for el, m in counts.items():
        key = tuple(c % d for c in el)
        reduced[key] = reduced.get(key, 0) + m
    return _pull_back(counts, pick(Sequence(quotient, reduced), d).counts, d)


def _general_blocks(group, counts, d, keep, last=None):
    """`_peel_blocks`' blocks taken one at a time by the general route, the
    remainder re-reduced for each: the last block is what is left, or what
    `last` picks from it."""
    counts, blocks = dict(counts), []
    for _ in range((sum(counts.values()) - keep) // d):
        blocks.append(_general_block(group, counts, d))
        _subtract(counts, blocks[-1])
    blocks.append(counts if last is None else _general_block(group, counts, d, last))
    return blocks


def _square_last(reduced, d):
    return extract_square_3n(reduced)


def _assert_same_blocks(g, deco, expected):
    assert [list(b.items()) for b in deco.blocks] == [list(b.items()) for b in expected]
    assert deco.block_sums == [Sequence(g, b).total_sum for b in expected]


@pytest.mark.parametrize("moduli", [(5,), (6,), (3, 3), (4, 4), (2, 2, 2)])
def test_take_block_size_one_matches_general_route(moduli):
    rng = random.Random(11)
    g = make_group(moduli)
    for _ in range(30):
        seq = random_zero_sum(rng, g, rng.randint(1, 12))
        deco = _peel_blocks(g.moduli, seq.counts, 1, 1)
        _assert_same_blocks(g, deco, _general_blocks(g, seq.counts, 1, 1))


@pytest.mark.parametrize("n", [2, 3, 5, 7])
def test_square_blocks_size_one_matches_general_route(n):
    rng = random.Random(n)
    g = make_group([n, n])
    for _ in range(30):
        seq = random_zero_sum(rng, g, 3 * n)
        deco = _peel_blocks(g.moduli, seq.counts, 1, 3, _square_3n)
        _assert_same_blocks(g, deco, _general_blocks(g, seq.counts, 1, 3, _square_last))


@pytest.mark.parametrize("n", [2, 3, 4, 6, 8, 9, 10, 12])
def test_blocks_match_general_route_at_every_divisor(n):
    # The shapes of `cyclic_block_decomposition` (2n - d elements of Z/n,
    # blocks until d remain) and `extract_square_block` (4n - d elements of
    # (Z/n)^2, blocks until 3d remain, then `_square_3n`'s block).
    rng = random.Random(100 + n)
    cyclic, square = make_group([n]), make_group([n, n])
    for d in [x for x in range(1, n + 1) if n % x == 0]:
        for _ in range(8):
            seq = random_zero_sum(rng, cyclic, 2 * n - d)
            deco = _peel_blocks(cyclic.moduli, seq.counts, d, d)
            _assert_same_blocks(cyclic, deco, _general_blocks(cyclic, seq.counts, d, d))
            seq = random_zero_sum(rng, square, 4 * n - d)
            deco = _peel_blocks(square.moduli, seq.counts, d, 3 * d, _square_3n)
            expected = _general_blocks(square, seq.counts, d, 3 * d, _square_last)
            _assert_same_blocks(square, deco, expected)


def test_unrealizable_quotient_witness_is_an_assertion():
    with pytest.raises(AssertionError, match="quotient witness not realizable in parent"):
        _peel_blocks((4,), {(0,): 2, (2,): 2}, 2, 4, lambda *args: {(1,): 2})


# -- witnesses built inside the package -----------------------------------


def _assert_members(w, seq, size):
    assert isinstance(w, Witness)
    assert all(seq.group.contains(el) for el in w.counts), w.counts
    assert all(type(m) is int and m >= 1 for m in w.counts.values())
    w.validate_against(seq, size=size)


def test_every_internal_witness_holds_group_elements():
    rng = random.Random(909)
    for _ in range(150):
        n = rng.randint(2, 8)
        d = rng.choice([x for x in range(1, n + 1) if n % x == 0])
        cyc = make_group([n])
        seq = random_zero_sum(rng, cyc, 2 * n - d)
        _assert_members(extract_cyclic_block(seq, d), seq, n)
        _assert_members(find_zero_sum_subseq(seq, 0), seq, 0)
        w = find_zero_sum_subseq(seq, n)
        if w is not None:
            _assert_members(w, seq, n)

        t = rng.randint(1, 3)
        seq = random_zero_sum(rng, cyc, (t + 1) * n - min_nondivisor(n, 1) + 1)
        _assert_members(extract_cyclic_nt(seq, t), seq, n * t)
        for w in extract_cyclic_nt_rounds(seq, t):
            _assert_members(w, seq, n)
            rest = dict(seq.counts)
            for el, m in w.counts.items():
                rest[el] -= m
            seq = Sequence(cyc, {el: m for el, m in rest.items() if m})
            assert all(cyc.contains(el) for el in seq.counts)

        m = rng.randint(1, 6)
        sq = make_group([m, m])
        seq = random_zero_sum(rng, sq, 3 * m)
        _assert_members(extract_square_3n(seq), seq, m)
        _assert_members(find_zero_sum_subseq(seq, m), seq, m)
        if m >= 2:
            e = rng.choice([x for x in range(1, m + 1) if m % x == 0])
            seq = random_zero_sum(rng, sq, 4 * m - e)
            _assert_members(extract_square_block(seq, e), seq, m)
            seq = random_zero_sum(rng, sq, 4 * m - min_nondivisor(m, 4) + 1)
            _assert_members(extract_square_n(seq), seq, m)
        shifted = seq.shift_all(tuple(rng.randrange(m) for _ in range(2)))
        assert all(sq.contains(el) for el in shifted.counts)
        assert shifted.length == seq.length


@pytest.mark.parametrize("bad, message", [
    ({}, "witness has length 0, expected 2"),
    ({(0, 1): 1}, "witness does not sum to the identity: {(0, 1): 1}"),
    ({(0, 0): 7}, "witness exceeds parent multiplicities"),
])
def test_failed_check_of_a_found_witness_is_an_assertion(monkeypatch, bad, message):
    # A witness that the program found and that fails its check is a fault in
    # the program: AssertionError with the check's message, in the engine and
    # in the extractors alike, each round of `extract_cyclic_nt_rounds`
    # included (its rounds are patched, so its cyclic check never runs here,
    # and n is the first modulus, 2). The same counts from a caller stay a
    # ValueError.
    import zerosum.engine as engine
    import zerosum.extractors as extractors

    seq = Sequence(make_group([2, 2]), {(0, 0): 6})
    monkeypatch.setattr(engine, "_find", lambda *args: dict(bad))
    monkeypatch.setattr(extractors, "_square_3n", lambda *args: dict(bad))
    monkeypatch.setattr(extractors, "_cyclic_nt_rounds", lambda *args: [dict(bad)])
    for found in (lambda: find_zero_sum_subseq(seq, 2), lambda: extract_square_3n(seq),
                  lambda: extract_cyclic_nt_rounds(seq, 1)):
        with pytest.raises(AssertionError) as info:
            found()
        assert str(info.value) == message
    with pytest.raises(ValueError) as info:
        Witness(seq.group, bad).validate_against(seq, size=2)
    assert type(info.value) is ValueError and str(info.value) == message
