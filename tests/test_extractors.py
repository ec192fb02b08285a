"""Proof-following extractors: spec cases, block invariants, random stress."""

import random

import pytest

from zerosum import (
    PreconditionError,
    Sequence,
    cyclic_block_decomposition,
    extract_cyclic_block,
    extract_cyclic_nt,
    extract_cyclic_nt_rounds,
    extract_square_3n,
    extract_square_block,
    extract_square_n,
    factor_smallest_prime,
    find_zero_sum_subseq,
    make_group,
    min_nondivisor,
    parse_sequence,
)

from conftest import random_zero_sum


def test_factor_smallest_prime():
    assert factor_smallest_prime(6) == (2, 3)
    assert factor_smallest_prime(9) == (3, 3)
    assert factor_smallest_prime(7) == (7, 1)
    with pytest.raises(ValueError):
        factor_smallest_prime(1)


def test_cyclic_block_spec_case():
    seq = parse_sequence("Z/4: 1^4 2^2")
    w = extract_cyclic_block(seq, 2)
    w.validate_against(seq, size=4)
    assert w.counts == {(1,): 4}


def test_cyclic_block_minimal_case():
    # n = d = 2, length 2: the whole zero-sum sequence is returned.
    seq = parse_sequence("Z/2: 1^2")
    w = extract_cyclic_block(seq, 2)
    assert w.counts == seq.counts


def test_cyclic_block_preconditions():
    with pytest.raises(PreconditionError):
        extract_cyclic_block(parse_sequence("Z/4: 1^4 2^2"), 3)  # 3 does not divide 4
    with pytest.raises(PreconditionError):
        extract_cyclic_block(parse_sequence("Z/4: 1^3 2^2"), 2)  # not zero-sum
    with pytest.raises(PreconditionError):
        extract_cyclic_block(parse_sequence("Z/4: 1^4 2^4"), 2)  # wrong length
    with pytest.raises(PreconditionError):
        extract_cyclic_block(parse_sequence("Z/2^2: (0,0)^2"), 2)  # not cyclic


def test_cyclic_block_decomposition_invariants():
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randint(2, 10)
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        d = rng.choice(divisors)
        g = make_group([n])
        seq = random_zero_sum(rng, g, 2 * n - d)
        deco = cyclic_block_decomposition(seq, d)
        assert len(deco.blocks) == 2 * (n // d) - 1
        merged: dict = {}
        for block, total in zip(deco.blocks, deco.block_sums):
            assert sum(block.values()) == d
            assert total[0] % d == 0
            for el, m in block.items():
                merged[el] = merged.get(el, 0) + m
        assert merged == seq.counts  # disjoint and exhaustive


def test_cyclic_nt_spec_cases():
    seq = parse_sequence("Z/3: 0^4 1^2 2^2")
    w = extract_cyclic_nt(seq, 2)
    w.validate_against(seq, size=6)

    seq = parse_sequence("Z/2: 0^5 1^2")
    w = extract_cyclic_nt(seq, 3)
    w.validate_against(seq, size=6)

    # t = 1 at the exact minimal length 2n - l + 1 uses the block dispatch.
    seq = parse_sequence("Z/6: 0^5 1^2 2^2")  # length 9 = 12 - 4 + 1
    w = extract_cyclic_nt(seq, 1)
    w.validate_against(seq, size=6)


def test_cyclic_nt_round_prefixes_are_zero_sum():
    rng = random.Random(4)
    for _ in range(40):
        n = rng.randint(2, 8)
        t = rng.randint(1, 3)
        g = make_group([n])
        length = (t + 1) * n - min_nondivisor(n, 1) + 1 + rng.randint(0, 2)
        seq = random_zero_sum(rng, g, length)
        rounds = extract_cyclic_nt_rounds(seq, t)
        assert len(rounds) == t
        for w in rounds:
            assert w.length == n and w.is_zero_sum()


def test_cyclic_nt_preconditions():
    with pytest.raises(PreconditionError):
        extract_cyclic_nt(parse_sequence("Z/3: 0^4 1^2 2^2"), 0)
    with pytest.raises(PreconditionError):
        extract_cyclic_nt(parse_sequence("Z/3: 0^2 1^2 2^2"), 2)  # too short
    with pytest.raises(PreconditionError):
        extract_cyclic_nt(parse_sequence("Z/3: 0^4 1^3 2^2"), 2)  # not zero-sum


def test_square_3n_spec_cases():
    seq = parse_sequence("Z/2^2: (0,0)^2 (0,1)^2 (1,0)^2")
    w = extract_square_3n(seq)
    w.validate_against(seq, size=2)

    # n = 1: any single element.
    seq = parse_sequence("Z/1^2: (0,0)^3")
    w = extract_square_3n(seq)
    assert w.length == 1

    with pytest.raises(PreconditionError):
        extract_square_3n(parse_sequence("Z/2^2: (0,0)^2 (0,1)^2"))  # length != 3n
    with pytest.raises(PreconditionError):
        extract_square_3n(parse_sequence("Z/2^2: (0,1)^5 (0,0)"))  # not zero-sum


def test_square_3n_random():
    rng = random.Random(6)
    for _ in range(150):
        n = rng.randint(1, 8)
        g = make_group([n, n])
        seq = random_zero_sum(rng, g, 3 * n)
        w = extract_square_3n(seq)
        w.validate_against(seq, size=n)


def test_square_block_n_equals_d_matches_3n():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(2, 6)
        g = make_group([n, n])
        seq = random_zero_sum(rng, g, 3 * n)
        w_block = extract_square_block(seq, n)
        w_3n = extract_square_3n(seq)
        w_block.validate_against(seq, size=n)
        assert w_block == w_3n  # both follow the same deterministic path


def test_square_block_random():
    rng = random.Random(8)
    for _ in range(100):
        n = rng.randint(2, 8)
        d = rng.choice([x for x in range(1, n + 1) if n % x == 0])
        g = make_group([n, n])
        seq = random_zero_sum(rng, g, 4 * n - d)
        w = extract_square_block(seq, d)
        w.validate_against(seq, size=n)


def test_square_n_dispatch_paths():
    rng = random.Random(9)
    # Direct path: (Z/2)^2 at length 5 = 4n - 3.
    g = make_group([2, 2])
    seq = random_zero_sum(rng, g, 5)
    w = extract_square_n(seq)
    w.validate_against(seq, size=2)

    # Direct path at 4n - l + 1 >= 4n - 3: (Z/6)^2 length 21.
    g = make_group([6, 6])
    seq = random_zero_sum(rng, g, 21)
    w = extract_square_n(seq)
    w.validate_against(seq, size=6)

    # Block path with d = 4: (Z/12)^2 length 44 = 48 - 4.
    g = make_group([12, 12])
    seq = random_zero_sum(rng, g, 44)
    w = extract_square_n(seq)
    w.validate_against(seq, size=12)


def test_square_n_preconditions():
    rng = random.Random(10)
    g = make_group([6, 6])
    short = random_zero_sum(rng, g, 20)  # below 4n - l + 1 = 21
    with pytest.raises(PreconditionError):
        extract_square_n(short)
    not_zero = parse_sequence("Z/2^2: (0,1)^5")
    with pytest.raises(PreconditionError):
        extract_square_n(not_zero)


def test_extractors_are_deterministic():
    rng = random.Random(11)
    g = make_group([6])
    seq = random_zero_sum(rng, g, 2 * 6 - 3)
    assert extract_cyclic_block(seq, 3) == extract_cyclic_block(seq, 3)
    g2 = make_group([4, 4])
    seq2 = random_zero_sum(rng, g2, 12)
    assert extract_square_3n(seq2) == extract_square_3n(seq2)


def test_witnesses_cross_checked_by_engine():
    # The extractor's witness length is also confirmed feasible by the engine.
    rng = random.Random(12)
    for _ in range(20):
        n = rng.randint(2, 6)
        g = make_group([n])
        seq = random_zero_sum(rng, g, 2 * n - 1)
        w = extract_cyclic_nt(seq, 1)
        assert find_zero_sum_subseq(seq, n) is not None
        w.validate_against(seq, size=n)


def test_cyclic_extraction_exhaustive_at_minimal_length():
    # Every zero-sum sequence of the minimal admissible length 2n - l + 1
    # over Z/n, n <= 8, must be handled without failure.
    from zerosum import enumerate_multisets

    for n in range(2, 9):
        g = make_group([n])
        length = 2 * n - min_nondivisor(n, 1) + 1

        def run_one(seq: Sequence, n=n) -> None:
            w = extract_cyclic_nt(seq, 1)
            w.validate_against(seq, size=n)

        enumerate_multisets(g, length, run_one)
