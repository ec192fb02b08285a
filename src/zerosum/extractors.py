"""Proof-following extractors for zero-sum subsequences of prescribed length.

Each extractor mirrors a block-decomposition argument instead of falling back
to blind search: elements are grouped into size-d blocks whose sums are
divisible by d, the block sums are lifted to a quotient group, and a smaller
zero-sum instance over the lifted values selects which blocks to combine.
Running an extractor therefore exercises the reduction it implements.

The input sequence was validated when it was built. Every reduced, lifted
and witness sequence made from it is built with the trusted `_of`, which
skips the per-element checks; each returned witness is still checked
against its parent by `validate_against`. A size-1 block is taken directly
as the smallest remaining element, which is what a search over the trivial
quotient (Z/1)^r pulls back to.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .engine import find_zero_sum_subseq
from .groups import Element, Group, min_nondivisor
from .sequences import Sequence, Witness, counts_sum


class PreconditionError(ValueError):
    """An extractor was called outside its stated hypotheses."""


@dataclass(frozen=True)
class PrimeSplit:
    """n = p * m with p the smallest prime factor."""

    n: int
    p: int
    m: int


def factor_smallest_prime(n: int) -> PrimeSplit:
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    p = 2
    while p * p <= n:
        if n % p == 0:
            return PrimeSplit(n, p, n // p)
        p += 1
    return PrimeSplit(n, n, 1)


@dataclass
class BlockDecomposition:
    """Size-d blocks with d-divisible sums, plus their quotient lifts."""

    block_size: int
    blocks: list[dict[Element, int]] = field(default_factory=list)
    block_sums: list[Element] = field(default_factory=list)
    quotient_elems: list[Element] = field(default_factory=list)


def _quotient_group(group: Group, d: int) -> Group:
    return Group((d,) * group.rank)


def _reduce_counts(counts: dict[Element, int], d: int) -> dict[Element, int]:
    out: dict[Element, int] = {}
    for el, m in counts.items():
        key = tuple(c % d for c in el)
        out[key] = out.get(key, 0) + m
    return out


def _pull_back(
    counts: dict[Element, int], quotient_witness: Witness, d: int
) -> dict[Element, int]:
    """Choose concrete elements realizing a quotient witness, smallest first."""
    taken: dict[Element, int] = {}
    for residue, needed in quotient_witness.counts.items():
        for el in sorted(counts):
            if needed == 0:
                break
            if tuple(c % d for c in el) != residue:
                continue
            avail = counts[el] - taken.get(el, 0)
            if avail > 0:
                use = min(avail, needed)
                taken[el] = taken.get(el, 0) + use
                needed -= use
        if needed:
            raise AssertionError("quotient witness not realizable in parent")
    return taken


def _subtract(counts: dict[Element, int], taken: dict[Element, int]) -> None:
    for el, m in taken.items():
        counts[el] -= m
        if counts[el] == 0:
            del counts[el]


def _take_block(
    group: Group, counts: dict[Element, int], d: int, deco: BlockDecomposition
) -> None:
    """Split off one size-d block with sum divisible by d (componentwise)."""
    if d == 1:
        # What a find over (Z/1)^r pulls back to: the smallest element, which
        # is also the block's sum.
        total = min(counts)
        block = {total: 1}
    else:
        reduced = Sequence._of(_quotient_group(group, d), _reduce_counts(counts, d))
        qw = find_zero_sum_subseq(reduced, d)
        if qw is None:
            raise AssertionError(
                f"guaranteed size-{d} block not found in a sequence of length {reduced.length}"
            )
        block = _pull_back(counts, qw, d)
        total = counts_sum(group, block)
    _subtract(counts, block)
    deco.blocks.append(block)
    deco.block_sums.append(total)


def _lift_blocks(group: Group, deco: BlockDecomposition, d: int) -> Sequence:
    """Divide the block sums by d, landing in the quotient group."""
    quotient = _quotient_group(group, group.moduli[0] // d)
    deco.quotient_elems = [tuple(c // d for c in s) for s in deco.block_sums]
    counts: dict[Element, int] = {}
    for x in deco.quotient_elems:
        counts[x] = counts.get(x, 0) + 1
    return Sequence._of(quotient, counts)


def _union_blocks(deco: BlockDecomposition, chosen_values: Witness) -> dict[Element, int]:
    """Union the earliest blocks realizing each required quotient value."""
    remaining = dict(chosen_values.counts)
    out: dict[Element, int] = {}
    for block, x in zip(deco.blocks, deco.quotient_elems):
        need = remaining.get(x, 0)
        if need:
            remaining[x] = need - 1
            for el, m in block.items():
                out[el] = out.get(el, 0) + m
    if any(v for v in remaining.values()):
        raise AssertionError("not enough blocks for the chosen quotient values")
    return out


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise PreconditionError(message)


def _cyclic_n(seq: Sequence) -> int:
    _require(seq.group.rank == 1, f"expected a cyclic group, got {seq.group}")
    return seq.group.moduli[0]


def _square_n(seq: Sequence) -> int:
    _require(
        seq.group.rank == 2 and seq.group.moduli[0] == seq.group.moduli[1],
        f"expected a group of the form (Z/n)^2, got {seq.group}",
    )
    return seq.group.moduli[0]


def extract_cyclic_block(seq: Sequence, d: int) -> Witness:
    """Length-n witness from a zero-sum sequence of length 2n - d with d | n.

    Blocks of size d with d-divisible sums are split off until exactly d
    elements remain (themselves a block, since the total is zero-sum); the
    2(n/d) - 1 lifted block sums then admit n/d values summing to zero, and
    the corresponding blocks combine into the witness.
    """
    n = _cyclic_n(seq)
    deco = cyclic_block_decomposition(seq, d)
    lifted = _lift_blocks(seq.group, deco, d)
    chosen = find_zero_sum_subseq(lifted, n // d)
    if chosen is None:
        raise AssertionError("guaranteed quotient selection not found")
    witness = Witness._of(seq.group, _union_blocks(deco, chosen))
    witness.validate_against(seq, size=n)
    return witness


def cyclic_block_decomposition(seq: Sequence, d: int) -> BlockDecomposition:
    """The block structure behind extract_cyclic_block; no leftover remains."""
    n = _cyclic_n(seq)
    _require(d >= 1 and n % d == 0, f"d = {d} must divide n = {n}")
    _require(seq.is_zero_sum(), "sequence must be zero-sum")
    _require(
        seq.length == 2 * n - d,
        f"sequence length must be 2n - d = {2 * n - d}, got {seq.length}",
    )
    deco = BlockDecomposition(block_size=d)
    counts = dict(seq.counts)
    remaining = seq.length
    while remaining > d:
        _take_block(seq.group, counts, d, deco)
        remaining -= d
    # The final d elements sum to zero mod d because the whole sequence does.
    last_sum = counts_sum(seq.group, counts)
    if any(c % d for c in last_sum):
        raise AssertionError("final block sum not divisible by d")
    deco.blocks.append(counts)
    deco.block_sums.append(last_sum)
    return deco


def extract_cyclic_nt(seq: Sequence, t: int) -> Witness:
    """Witness of size n*t from a zero-sum cyclic sequence of length at least
    (t+1)n - l + 1, by peeling one length-n witness per round."""
    rounds = extract_cyclic_nt_rounds(seq, t)
    counts: dict[Element, int] = {}
    for w in rounds:
        for el, m in w.counts.items():
            counts[el] = counts.get(el, 0) + m
    witness = Witness._of(seq.group, counts)
    witness.validate_against(seq, size=seq.group.moduli[0] * t)
    return witness


def extract_cyclic_nt_rounds(seq: Sequence, t: int) -> list[Witness]:
    """The per-round length-n witnesses; each round's removal stays zero-sum."""
    n = _cyclic_n(seq)
    _require(t >= 1, f"t must be >= 1, got {t}")
    _require(seq.is_zero_sum(), "sequence must be zero-sum")
    ell = min_nondivisor(n, 1)
    needed = (t + 1) * n - ell + 1
    _require(
        seq.length >= needed,
        f"sequence length must be at least (t+1)n - l + 1 = {needed}, got {seq.length}",
    )
    rounds: list[Witness] = []
    current = seq
    for _ in range(t):
        w = _extract_cyclic_single(current, n, ell)
        rounds.append(w)
        current = current.remove_witness(w)
    return rounds


def _extract_cyclic_single(seq: Sequence, n: int, ell: int) -> Witness:
    if seq.length >= 2 * n - 1:
        w = find_zero_sum_subseq(seq, n)
        if w is None:
            raise AssertionError("guaranteed length-n witness not found")
        return w
    d = 2 * n - seq.length
    # 2 <= d <= ell - 1, so d divides n by minimality of ell.
    if n % d:
        raise AssertionError(f"dispatch produced d = {d} not dividing n = {n}")
    return extract_cyclic_block(seq, d)


def _square_blocks(seq: Sequence, d: int) -> BlockDecomposition:
    """Size-d blocks of a sequence over (Z/n)^2 with d | n: peeled until 3d
    elements remain, whose sum is then divisible by d, so the recursion on
    their reduction mod d yields one more block."""
    deco = BlockDecomposition(block_size=d)
    counts = dict(seq.counts)
    remaining = seq.length
    while remaining > 3 * d:
        _take_block(seq.group, counts, d, deco)
        remaining -= d
    if d == 1:
        # The recursion over (Z/1)^2 pulls back to the smallest element,
        # which is also the block's sum.
        total = min(counts)
        block = {total: 1}
    else:
        reduced = Sequence._of(_quotient_group(seq.group, d), _reduce_counts(counts, d))
        block = _pull_back(counts, extract_square_3n(reduced), d)
        total = counts_sum(seq.group, block)
    deco.blocks.append(block)
    deco.block_sums.append(total)
    return deco


def extract_square_3n(seq: Sequence) -> Witness:
    """Length-n witness from a zero-sum sequence of exactly 3n elements in (Z/n)^2.

    Recursive over a prime split n = p*m: size-m blocks with m-divisible sums
    are peeled until 3m remain, the remainder (zero-sum mod m) yields one more
    block recursively, and the 3p - 2 lifted sums either contain p values
    summing to zero (combine those blocks) or, failing that, 2p such values,
    in which case the complement of their blocks is the witness.
    """
    n = _square_n(seq)
    _require(seq.is_zero_sum(), "sequence must be zero-sum")
    _require(
        seq.length == 3 * n,
        f"sequence length must be 3n = {3 * n}, got {seq.length}",
    )
    if n == 1:
        witness = Witness._of(seq.group, {(0, 0): 1})
        witness.validate_against(seq, size=1)
        return witness
    split = factor_smallest_prime(n)
    p, m = split.p, split.m
    deco = _square_blocks(seq, m)
    lifted = _lift_blocks(seq.group, deco, m)
    chosen = find_zero_sum_subseq(lifted, p)
    if chosen is not None:
        witness = Witness._of(seq.group, _union_blocks(deco, chosen))
    else:
        # (p | lifted) = 0 forces (2p | lifted) != 0; take the complement.
        chosen = find_zero_sum_subseq(lifted, 2 * p)
        if chosen is None:
            raise AssertionError("congruence-guaranteed 2p selection not found")
        union = _union_blocks(deco, chosen)
        complement = dict(seq.counts)
        _subtract(complement, union)
        witness = Witness._of(seq.group, complement)
    witness.validate_against(seq, size=n)
    return witness


def extract_square_block(seq: Sequence, d: int) -> Witness:
    """Length-n witness from a zero-sum sequence of length 4n - d with d | n."""
    n = _square_n(seq)
    _require(d >= 1 and n % d == 0, f"d = {d} must divide n = {n}")
    _require(seq.is_zero_sum(), "sequence must be zero-sum")
    _require(
        seq.length == 4 * n - d,
        f"sequence length must be 4n - d = {4 * n - d}, got {seq.length}",
    )
    if 4 * n - d < 3 * d:
        raise AssertionError(f"length 4n - d = {4 * n - d} below 3d = {3 * d}")
    deco = _square_blocks(seq, d)
    lifted = _lift_blocks(seq.group, deco, d)
    chosen = find_zero_sum_subseq(lifted, n // d)
    if chosen is None:
        raise AssertionError("guaranteed quotient selection not found")
    witness = Witness._of(seq.group, _union_blocks(deco, chosen))
    witness.validate_against(seq, size=n)
    return witness


def extract_square_n(seq: Sequence) -> Witness:
    """Length-n witness from a zero-sum sequence in (Z/n)^2 of length at least
    4n - l + 1, where l is the least non-divisor of n that is >= 4."""
    n = _square_n(seq)
    _require(seq.is_zero_sum(), "sequence must be zero-sum")
    ell = min_nondivisor(n, 4)
    needed = 4 * n - ell + 1
    _require(
        seq.length >= needed,
        f"sequence length must be at least 4n - l + 1 = {needed}, got {seq.length}",
    )
    if seq.length >= 4 * n - 3:
        w = find_zero_sum_subseq(seq, n)
        if w is None:
            raise AssertionError("guaranteed length-n witness not found")
        return w
    d = 4 * n - seq.length
    # 4 <= d <= ell - 1, so d divides n by minimality of ell.
    if n % d:
        raise AssertionError(f"dispatch produced d = {d} not dividing n = {n}")
    return extract_square_block(seq, d)
