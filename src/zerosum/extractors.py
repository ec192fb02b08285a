"""Proof-following extractors for zero-sum subsequences of prescribed length.

Each extractor mirrors a block-decomposition argument instead of falling back
to blind search: elements are grouped into size-d blocks whose sums are
divisible by d, the block sums are lifted to a quotient group, and a smaller
zero-sum instance over the lifted values selects which blocks to combine.
Running an extractor therefore exercises the reduction it implements. Every
extractor is its hypothesis checks plus three routines: `_next_block` takes
one block, `_peel_blocks` takes blocks until a given number of elements
remain, and `_combine_blocks` unites the blocks that the quotient instance
selects.

The input sequence was validated when it was built. Every reduced, lifted
and witness sequence made from it is built with the trusted `_of`, which
skips the per-element checks; each returned witness is still checked
against its parent by `validate_against`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

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
    """Size-d blocks with d-divisible sums, in the order they were taken."""

    block_size: int
    blocks: list[dict[Element, int]] = field(default_factory=list)
    block_sums: list[Element] = field(default_factory=list)


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


def _found(result, what: str):
    if result is None:
        raise AssertionError(f"guaranteed {what} not found")
    return result


def _next_block(
    group: Group,
    counts: dict[Element, int],
    d: int,
    pick: Callable[[Sequence, int], Witness | None],
    deco: BlockDecomposition,
) -> None:
    """Move one size-d block with sum divisible by d from `counts` to `deco`.

    `pick(reduced, d)` chooses d zero-sum residues in the sequence reduced
    mod d, which lies in (Z/d)^r. A size-1 block is taken directly as the
    smallest element: that is what any pick over (Z/1)^r pulls back to, and
    its own sum.
    """
    if d == 1:
        total = min(counts)
        block = {total: 1}
    else:
        reduced: dict[Element, int] = {}
        for el, m in counts.items():
            key = tuple(c % d for c in el)
            reduced[key] = reduced.get(key, 0) + m
        residues = pick(Sequence._of(Group((d,) * group.rank), reduced), d)
        block = _pull_back(counts, _found(residues, f"size-{d} block"), d)
        total = counts_sum(group, block)
    _subtract(counts, block)
    deco.blocks.append(block)
    deco.block_sums.append(total)


def _peel_blocks(seq: Sequence, d: int, keep: int) -> tuple[BlockDecomposition, dict[Element, int]]:
    """Size-d blocks found by search until `keep` elements remain; returns
    the blocks and the remaining elements."""
    deco = BlockDecomposition(block_size=d)
    counts = dict(seq.counts)
    for _ in range((seq.length - keep) // d):
        _next_block(seq.group, counts, d, find_zero_sum_subseq, deco)
    return deco, counts


def _combine_blocks(group: Group, deco: BlockDecomposition, k: int) -> dict[Element, int] | None:
    """The union of k blocks whose sums, divided by d, sum to zero in the
    quotient group, taking the earliest block for each chosen value; None
    when no k of them do."""
    d = deco.block_size
    lifted = [tuple(c // d for c in s) for s in deco.block_sums]
    counts: dict[Element, int] = {}
    for x in lifted:
        counts[x] = counts.get(x, 0) + 1
    quotient = Group((group.moduli[0] // d,) * group.rank)
    chosen = find_zero_sum_subseq(Sequence._of(quotient, counts), k)
    if chosen is None:
        return None
    need = dict(chosen.counts)
    union: dict[Element, int] = {}
    for block, x in zip(deco.blocks, lifted):
        if need.get(x):
            need[x] -= 1
            for el, m in block.items():
                union[el] = union.get(el, 0) + m
    return union


def _witness(seq: Sequence, counts: dict[Element, int] | None, size: int) -> Witness:
    witness = Witness._of(seq.group, _found(counts, "block selection"))
    witness.validate_against(seq, size=size)
    return witness


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
    return _witness(seq, _combine_blocks(seq.group, deco, n // d), n)


def cyclic_block_decomposition(seq: Sequence, d: int) -> BlockDecomposition:
    """The block structure behind extract_cyclic_block; no leftover remains."""
    n = _cyclic_n(seq)
    _require(d >= 1 and n % d == 0, f"d = {d} must divide n = {n}")
    _require(seq.is_zero_sum(), "sequence must be zero-sum")
    _require(
        seq.length == 2 * n - d,
        f"sequence length must be 2n - d = {2 * n - d}, got {seq.length}",
    )
    deco, last = _peel_blocks(seq, d, d)
    # The final d elements sum to zero mod d because the whole sequence does.
    deco.blocks.append(last)
    deco.block_sums.append(counts_sum(seq.group, last))
    return deco


def extract_cyclic_nt(seq: Sequence, t: int) -> Witness:
    """Witness of size n*t from a zero-sum cyclic sequence of length at least
    (t+1)n - l + 1, by peeling one length-n witness per round."""
    counts: dict[Element, int] = {}
    for w in extract_cyclic_nt_rounds(seq, t):
        for el, m in w.counts.items():
            counts[el] = counts.get(el, 0) + m
    return _witness(seq, counts, seq.group.moduli[0] * t)


def extract_cyclic_nt_rounds(seq: Sequence, t: int) -> list[Witness]:
    """The per-round length-n witnesses; each round's removal stays zero-sum."""
    n = _cyclic_n(seq)
    _require(t >= 1, f"t must be >= 1, got {t}")
    _require(seq.is_zero_sum(), "sequence must be zero-sum")
    needed = (t + 1) * n - min_nondivisor(n, 1) + 1
    _require(
        seq.length >= needed,
        f"sequence length must be at least (t+1)n - l + 1 = {needed}, got {seq.length}",
    )
    rounds: list[Witness] = []
    current = seq
    for _ in range(t):
        # Past 2n - 1 EGZ applies; below it d = 2n - length is at most l - 1,
        # so d divides n by the minimality of l.
        if current.length >= 2 * n - 1:
            w = _found(find_zero_sum_subseq(current, n), f"length-{n} witness")
        else:
            w = extract_cyclic_block(current, 2 * n - current.length)
        rounds.append(w)
        current = current.remove_witness(w)
    return rounds


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
        return _witness(seq, {(0, 0): 1}, 1)
    split = factor_smallest_prime(n)
    p, m = split.p, split.m
    deco, rest = _peel_blocks(seq, m, 3 * m)
    _next_block(seq.group, rest, m, lambda reduced, _: extract_square_3n(reduced), deco)
    union = _combine_blocks(seq.group, deco, p)
    if union is None:
        # (p | lifted) = 0 forces (2p | lifted) != 0; take the complement.
        union = dict(seq.counts)
        _subtract(union, _found(_combine_blocks(seq.group, deco, 2 * p), "2p selection"))
    return _witness(seq, union, n)


def extract_square_block(seq: Sequence, d: int) -> Witness:
    """Length-n witness from a zero-sum sequence of length 4n - d with d | n:
    size-d blocks are peeled until 3d remain, extract_square_3n on their
    reduction mod d gives one more, and n/d of the 4(n/d) - 3 lifted sums
    sum to zero."""
    n = _square_n(seq)
    _require(d >= 1 and n % d == 0, f"d = {d} must divide n = {n}")
    _require(seq.is_zero_sum(), "sequence must be zero-sum")
    _require(
        seq.length == 4 * n - d,
        f"sequence length must be 4n - d = {4 * n - d}, got {seq.length}",
    )
    deco, rest = _peel_blocks(seq, d, 3 * d)
    _next_block(seq.group, rest, d, lambda reduced, _: extract_square_3n(reduced), deco)
    return _witness(seq, _combine_blocks(seq.group, deco, n // d), n)


def extract_square_n(seq: Sequence) -> Witness:
    """Length-n witness from a zero-sum sequence in (Z/n)^2 of length at least
    4n - l + 1, where l is the least non-divisor of n that is >= 4."""
    n = _square_n(seq)
    _require(seq.is_zero_sum(), "sequence must be zero-sum")
    needed = 4 * n - min_nondivisor(n, 4) + 1
    _require(
        seq.length >= needed,
        f"sequence length must be at least 4n - l + 1 = {needed}, got {seq.length}",
    )
    if seq.length >= 4 * n - 3:
        return _found(find_zero_sum_subseq(seq, n), f"length-{n} witness")
    # 4 <= d = 4n - length <= l - 1, so d divides n by the minimality of l.
    return extract_square_block(seq, 4 * n - seq.length)
