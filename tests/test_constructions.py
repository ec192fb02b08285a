"""Extremal builders: multiplicities, spec cases, and validation."""

import math

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


def test_cyclic_spec_cases():
    s = build_cyclic_extremal(3, 1)
    assert s.counts == {(1,): 2, (2,): 2}

    s = build_cyclic_extremal(6, 1)
    assert s.counts == {(1,): 4, (2,): 4}
    assert s.length == 8

    s = build_cyclic_extremal(2, 1)
    assert s.counts == {(0,): 1}


def test_cyclic_params_bounds():
    # The shift c is read off the built sequence: it holds only c and c + 1,
    # with l * c = (copies of c + 1) mod n.
    for n in range(2, 60):
        ell = min_nondivisor(n, 1)
        g = math.gcd(n, ell)
        for t in (1, 2, 3):
            seq = build_cyclic_extremal(n, t)

            def at(x):
                return seq.counts.get((x % n,), 0)

            shift = min(
                c for c in range(n)
                if at(c) + at(c + 1) == seq.length and (ell * c - at(c + 1)) % n == 0
            )
            assert at(shift) == t * n - g <= t * n - 1
            assert at(shift + 1) == n - ell + g <= n - 1
            assert at(shift + 1) % g == 0


def test_square_spec_cases():
    s = build_square_extremal(2)
    assert s.counts == {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1}

    s = build_square_extremal(3)
    assert s.counts == {(1, 1): 2, (1, 2): 2, (2, 1): 2, (2, 2): 2}

    s = build_square_extremal(4)
    assert s.counts == {(2, 2): 2, (2, 3): 3, (3, 2): 3, (3, 3): 3}
    assert s.length == 11


def test_square_params_bounds():
    # The shift (r, s) is read off the built sequence: it holds only the
    # corners (r + i, s + j), with l * r = c + d and l * s = b + d (mod n)
    # for the corner multiplicities a, b, c, d at (0,0), (0,1), (1,0), (1,1).
    for n in range(2, 40):
        ell = min_nondivisor(n, 4)
        g = math.gcd(n, ell)
        seq = build_square_extremal(n)

        def corners(r, s):
            return [seq.counts.get(((r + i) % n, (s + j) % n), 0) for i in (0, 1) for j in (0, 1)]

        a, b, c, d = next(
            (a, b, c, d)
            for r in range(n) for s in range(n)
            for a, b, c, d in [corners(r, s)]
            if a + b + c + d == seq.length and (ell * r - c - d) % n == 0 and (ell * s - b - d) % n == 0
        )
        assert a + b + c + d == 4 * n - ell
        for m in (a, b, c, d):
            assert 0 <= m <= n - 1
        assert (c + d) % g == 0
        assert (b + d) % g == 0


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
