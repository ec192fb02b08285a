"""Group arithmetic, the minimal non-divisor scan, and group parsing."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from zerosum import Group, GroupParseError, Sequence, make_group, min_nondivisor, parse_group


def test_make_group_examples():
    assert make_group([6]).exponent == 6
    assert make_group([3, 3]).exponent == 3
    assert make_group([2, 6]).exponent == 6
    assert make_group([2, 6]).order == 12
    assert make_group([4]).rank == 1


@pytest.mark.parametrize("bad", [[], [0], [-1], [2, 0], [2.5], [True]])
def test_make_group_rejects(bad):
    with pytest.raises(ValueError):
        make_group(bad)


def test_order_cap():
    with pytest.raises(ValueError):
        make_group([10**7])


def test_arithmetic_examples():
    g = make_group([6])
    assert g.add((4,), (5,)) == (3,)
    assert g.scale((4,), 3) == (0,)
    g2 = make_group([3, 3])
    assert g2.neg((1, 2)) == (2, 1)


@pytest.mark.parametrize("el", [(True,), (False,), (1.0,), (6,), (-1,), [1], (1, 2)])
def test_contains_refuses_non_elements(el):
    g = make_group([6])
    assert g.contains((1,)) and not g.contains(el)
    with pytest.raises(ValueError, match="is not an element of Z/6"):
        g.add(el, (1,))


def test_sequence_refuses_bool_coordinates():
    # A bool coordinate would serialize as "Z/6: True", which no parser reads.
    with pytest.raises(ValueError, match=r"^\(True,\) is not an element of Z/6$"):
        Sequence(make_group([6]), {(True,): 1})


def test_dimension_mismatch():
    g = make_group([6])
    with pytest.raises(ValueError):
        g.add((4,), (1, 2))


@pytest.mark.parametrize(
    "n,lb,expected",
    [(6, 1, 4), (8, 1, 3), (4, 4, 5), (1, 1, 2), (2, 1, 3), (12, 4, 5), (2, 4, 4)],
)
def test_min_nondivisor_examples(n, lb, expected):
    assert min_nondivisor(n, lb) == expected


@given(st.integers(1, 500), st.integers(1, 40))
def test_min_nondivisor_properties(n, lb):
    ell = min_nondivisor(n, lb)
    assert n % ell != 0
    for k in range(lb, ell):
        assert n % k == 0


def test_group_laws_exhaustive_small():
    for moduli in ([5], [2, 3], [2, 2, 2], [4, 2]):
        g = make_group(moduli)
        els = list(g.elements())
        for a in els:
            assert g.add(a, g.neg(a)) == g.identity()
            assert g.scale(a, g.exponent) == g.identity()
            for b in els:
                assert g.add(a, b) == g.add(b, a)
        for a in els[:3]:
            for b in els[:3]:
                for c in els[:3]:
                    assert g.add(g.add(a, b), c) == g.add(a, g.add(b, c))


@pytest.mark.parametrize(
    "text,moduli",
    [
        ("Z/6", (6,)),
        ("z/6", (6,)),
        ("Z/3^2", (3, 3)),
        ("Z/2xZ/6", (2, 6)),
        (" z/2 X z/6 ", (2, 6)),
        ("Z/2^3", (2, 2, 2)),
        ("Z/3^2xZ/5", (3, 3, 5)),
        ("Z/1", (1,)),
    ],
)
def test_parse_group(text, moduli):
    assert parse_group(text) == Group(moduli)


@pytest.mark.parametrize("text", ["", "Z/", "Z/0", "6", "Z6", "Z/2+Z/3", "Z/2^0"])
def test_parse_group_rejects(text):
    with pytest.raises(GroupParseError):
        parse_group(text)


def test_group_str_roundtrip():
    for moduli in [(6,), (3, 3), (2, 6), (2, 2, 2), (3, 3, 5), (5, 3, 3)]:
        g = Group(moduli)
        assert parse_group(str(g)) == g
