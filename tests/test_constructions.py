"""Extremal builders: parameter algebra, spec cases, and validation."""

import pytest

from zerosum import (
    Sequence,
    build_cyclic_extremal,
    build_power2_extremal,
    build_square_extremal,
    formula_modified_cyclic,
    formula_modified_square,
    make_group,
    min_nondivisor,
    parse_sequence,
    validate_extremal,
)
from zerosum.constructions import cyclic_extremal_params, square_extremal_params


def test_cyclic_spec_cases():
    s = build_cyclic_extremal(3, 1)
    assert s.counts == {(1,): 2, (2,): 2}

    s = build_cyclic_extremal(6, 1)
    assert s.counts == {(1,): 4, (2,): 4}
    assert s.length == 8

    s = build_cyclic_extremal(2, 1)
    assert s.counts == {(0,): 1}


def test_cyclic_params_bounds():
    for n in range(2, 60):
        for t in (1, 2, 3):
            p = cyclic_extremal_params(n, t)
            assert p.zeros_count + p.ones_count == (t + 1) * n - p.ell
            assert 0 <= p.zeros_count <= t * n - 1
            assert 0 <= p.ones_count <= n - 1
            assert p.ones_count % p.g == 0
            assert (p.ell * p.shift - p.ones_count) % n == 0


def test_square_spec_cases():
    s = build_square_extremal(2)
    assert s.counts == {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1}

    s = build_square_extremal(3)
    assert s.counts == {(1, 1): 2, (1, 2): 2, (2, 1): 2, (2, 2): 2}

    p = square_extremal_params(4)
    assert (p.a, p.b, p.c, p.d) == (2, 3, 3, 3)
    assert build_square_extremal(4).length == 11


def test_square_params_bounds():
    for n in range(2, 40):
        p = square_extremal_params(n)
        assert p.a + p.b + p.c + p.d == 4 * n - p.ell
        for m in (p.a, p.b, p.c, p.d):
            assert 0 <= m <= n - 1
        assert (p.c + p.d) % p.g == 0
        assert (p.b + p.d) % p.g == 0


def test_power2_cases():
    s = build_power2_extremal(1, 3)
    assert s.length == 8
    assert len(s.counts) == 8 and all(m == 1 for m in s.counts.values())
    assert s.is_zero_sum()
    rep = validate_extremal(s, [2])
    assert rep.valid

    assert build_power2_extremal(1, 2) == build_square_extremal(2)

    with pytest.raises(ValueError):
        build_power2_extremal(1, 1)
    with pytest.raises(ValueError):
        build_power2_extremal(2, 3)


def test_validate_extremal_examples():
    rep = validate_extremal(build_cyclic_extremal(6, 1), [6])
    assert rep.valid

    bad = parse_sequence("Z/6: 0^6")
    rep = validate_extremal(bad, [6])
    assert not rep.valid and rep.zero_sum and rep.has_forbidden_witness

    empty = Sequence(make_group([6]), {})
    rep = validate_extremal(empty, [6])
    assert rep.valid and rep.length == 0


def test_lengths_match_formulas():
    for n in range(2, 30):
        for t in (1, 2, 3):
            assert build_cyclic_extremal(n, t).length + 1 == formula_modified_cyclic(n, t)
        assert build_square_extremal(n).length + 1 == formula_modified_square(n)


def test_input_validation():
    with pytest.raises(ValueError):
        build_cyclic_extremal(1, 1)
    with pytest.raises(ValueError):
        build_cyclic_extremal(3, 0)
    with pytest.raises(ValueError):
        build_square_extremal(1)


def test_shift_never_fails_across_range():
    # Shift solvability is part of the construction contract.
    for n in range(2, 80):
        for t in (1, 2, 3):
            s = build_cyclic_extremal(n, t)
            assert s.is_zero_sum()
            assert s.length == (t + 1) * n - min_nondivisor(n, 1)
        sq = build_square_extremal(n)
        assert sq.is_zero_sum()
        assert sq.length == 4 * n - min_nondivisor(n, 4)
