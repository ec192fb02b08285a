"""Sequence multisets: parsing, shifting, witnesses, and automorphic images."""

import itertools
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from zerosum import (
    Sequence,
    SequenceParseError,
    Witness,
    has_zero_sum_of_length,
    make_group,
    parse_sequence,
    sequence_from_jsonable,
    sequence_to_jsonable,
    serialize_sequence,
)

from conftest import random_multiset


def test_parse_examples():
    s = parse_sequence("Z/6: 1^4 2^4")
    assert s.counts == {(1,): 4, (2,): 4}
    assert s.length == 8

    s = parse_sequence("Z/2^2: (0,0) (0,1) (1,0) (1,1)")
    assert s.counts == {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1}

    with pytest.raises(SequenceParseError):
        parse_sequence("Z/3: 5^1")


def test_parse_lenient_reduces():
    s = parse_sequence("Z/3: 5^1 -1", lenient=True)
    assert s.counts == {(2,): 2}


@pytest.mark.parametrize(
    "text",
    [
        "Z/3 1 2", "Z/3: 1^0", "Z/3: 1^-2", "Z/3: (1,2)", "Z/2^2: (1)", "Z/3: x", "Z/3: 1 junk",
        "Z/3^2: (1,)", "Z/3^2: (a,b)", "Z/3: ()",
    ],
)
def test_parse_rejects(text):
    with pytest.raises(SequenceParseError):
        parse_sequence(text)


@pytest.mark.parametrize(
    "data",
    [
        [],
        {"group": {"moduli": [6]}},
        {"group": {"moduli": 6}, "counts": []},
        {"group": {"moduli": [0]}, "counts": []},
        {"group": {"moduli": [6]}, "counts": [[5, 1]]},
        {"group": {"moduli": [6]}, "counts": [[[1], 2.5]]},
        {"group": {"moduli": [6]}, "counts": [[[1], True]]},
        {"group": {"moduli": [6]}, "counts": [[[1], 0]]},
        {"group": {"moduli": [6]}, "counts": [[[], 1]]},
        {"group": {"moduli": [6]}, "counts": [[[1, 2], 1]]},
        {"group": {"moduli": [6]}, "counts": [[["1"], 1]]},
        {"group": {"moduli": [6]}, "counts": [[[True], 1]]},
        {"group": {"moduli": [6]}, "counts": [[[6], 1]]},
    ],
)
def test_json_rejects(data):
    with pytest.raises(SequenceParseError):
        sequence_from_jsonable(data)


def test_json_lenient_reduces_and_merges():
    data = {"group": {"moduli": [3]}, "counts": [[[5], 1], [[-1], 2], [[0], 1]]}
    assert sequence_from_jsonable(data, lenient=True).counts == {(0,): 1, (2,): 3}


def test_parse_empty_and_merge():
    assert parse_sequence("Z/6:").length == 0
    assert parse_sequence("Z/6: 1^2 1^3").counts == {(1,): 5}


def test_serialize_omits_unit_multiplicity():
    s = parse_sequence("Z/5: 1 2^3")
    assert serialize_sequence(s) == "Z/5: 1 2^3"


@st.composite
def sequences(draw):
    moduli = draw(st.sampled_from([(2,), (3,), (6,), (2, 2), (3, 3), (2, 4)]))
    g = make_group(moduli)
    els = list(g.elements())
    n_distinct = draw(st.integers(0, min(4, len(els))))
    chosen = draw(st.permutations(els))[:n_distinct]
    counts = {el: draw(st.integers(1, 5)) for el in chosen}
    return Sequence(g, counts)


@given(sequences())
def test_text_roundtrip(seq):
    assert parse_sequence(serialize_sequence(seq)) == seq


@given(sequences())
def test_json_roundtrip(seq):
    assert sequence_from_jsonable(sequence_to_jsonable(seq)) == seq


def test_json_counts_sorted():
    s = parse_sequence("Z/2^2: (1,1) (0,1)")
    assert sequence_to_jsonable(s)["counts"] == [[[0, 1], 1], [[1, 1], 1]]


def test_is_zero_sum_examples():
    assert parse_sequence("Z/6: 1^4 2^4").is_zero_sum()
    assert parse_sequence("Z/3: 1^2 2^2").is_zero_sum()
    assert not parse_sequence("Z/2^2: (0,1) (1,0)").is_zero_sum()
    assert parse_sequence("Z/5:").is_zero_sum()


def test_shift_all_examples():
    s = parse_sequence("Z/3: 0^2 1^2").shift_all((1,))
    assert s.counts == {(1,): 2, (2,): 2}

    s = parse_sequence("Z/2^2: (0,1) (1,0)")
    assert s.shift_all((0, 0)) == s

    s = parse_sequence("Z/6: 0^4 1^4")
    shifted = s.shift_all((1,))
    assert shifted.counts == {(1,): 4, (2,): 4}
    assert s.total_sum == (4,)
    assert shifted.total_sum == (0,)


@given(sequences())
def test_shift_inverse(seq):
    g = seq.group
    for c in list(g.elements())[:4]:
        back = seq.shift_all(c).shift_all(g.neg(c))
        assert back == seq
        assert seq.shift_all(c).length == seq.length


def test_witness_must_be_zero_sum():
    g = make_group([4])
    with pytest.raises(ValueError):
        Witness(g, {(1,): 1})
    Witness(g, {(1,): 2, (2,): 1})  # 1+1+2 = 0 mod 4


def test_sequence_is_immutable():
    s = parse_sequence("Z/3: 1")
    with pytest.raises(AttributeError):
        s.length = 7


def test_automorphisms_preserve_witness_lengths():
    # Exhaustive on small groups: images under unit scalings of the
    # coordinates, composed with the swap of two equal-modulus coordinates,
    # admit zero-sum subsequences of exactly the same lengths.
    rng = random.Random(5)
    for moduli in [(4,), (5,), (2, 2), (3, 3)]:
        g = make_group(moduli)
        units = [[u for u in range(1, m) if math.gcd(u, m) == 1] for m in moduli]
        perms = list(itertools.permutations(range(len(moduli))))
        auts = [(us, perm) for us in itertools.product(*units) for perm in perms]
        for _ in range(25):
            seq = random_multiset(rng, g, rng.randint(1, 6))
            truth = [has_zero_sum_of_length(seq, k) for k in range(seq.length + 1)]
            for us, perm in auts:
                mapped: dict = {}
                for el, m in seq.counts.items():
                    image = tuple(us[j] * el[j] % moduli[j] for j in perm)
                    mapped[image] = mapped.get(image, 0) + m
                mseq = Sequence(g, mapped)
                got = [has_zero_sum_of_length(mseq, k) for k in range(mseq.length + 1)]
                assert got == truth
