"""Proof-following extractors for zero-sum subsequences of prescribed length.

Each extractor mirrors a block-decomposition argument instead of falling back
to blind search: elements are grouped into size-d blocks whose sums are
divisible by d, the block sums are lifted to a quotient group, and a smaller
zero-sum instance over the lifted values selects which blocks to combine.
Running an extractor therefore exercises the reduction it implements. Every
extractor is its hypothesis checks plus two routines: `_peel_blocks` reduces
the multiset mod d once and takes blocks until a given number of elements
remain, then a last block, and `_combine_blocks` unites the blocks that the
quotient instance selects.

The input sequence was validated when it was built, and below it the
extractors work on plain count dicts. The picks and the quotient searches
call the engine's private `_find` on ascending (element, multiplicity)
pairs, and the last block of the square extractors comes from `_square_3n`,
the recursion behind `extract_square_3n` on counts. No Sequence or Witness
is built for a reduced, lifted or intermediate multiset: only a witness an
extractor returns becomes a `Witness`, which must sum to zero and is checked
against the caller's sequence once; a failed check raises AssertionError.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .engine import _find, find_zero_sum_subseq
from .groups import Element, min_nondivisor
from .sequences import Sequence, Witness, _found_witness, counts_sum


Counts = dict[Element, int]
# pick(moduli, items, d): the counts of d zero-sum elements among `items`,
# ascending (element, multiplicity) pairs over the group with these moduli.
Pick = Callable[[tuple[int, ...], list[tuple[Element, int]], int], Counts | None]


class PreconditionError(ValueError):
    """An extractor was called outside its stated hypotheses."""


def factor_smallest_prime(n: int) -> tuple[int, int]:
    """(p, n // p) with p the smallest prime factor of n."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    p = 2
    while p * p <= n:
        if n % p == 0:
            return p, n // p
        p += 1
    return n, 1


@dataclass
class BlockDecomposition:
    """Size-d blocks with d-divisible sums, in the order they were taken."""

    block_size: int
    blocks: list[Counts] = field(default_factory=list)
    block_sums: list[Element] = field(default_factory=list)


def _subtract(counts: Counts, taken: Counts) -> None:
    for el, m in taken.items():
        counts[el] -= m
        if counts[el] == 0:
            del counts[el]


def _found(result, what: str, *args):
    if result is None:
        raise AssertionError("guaranteed " + what.format(*args) + " not found")
    return result


def _peel_blocks(
    moduli: tuple[int, ...], counts, d: int, keep: int, last: Pick | None = None
) -> BlockDecomposition:
    """Size-d blocks found by search until `keep` elements remain, then one
    more: `last` picks it from those, or, with no `last`, they are the block
    (keep = d, and their sum is divisible by d because the whole multiset
    sums to zero). `counts` (a mapping or pairs, ascending) is not changed.

    The multiset is reduced mod d once, into (Z/d)^r, and each residue keeps
    a queue of its elements, smallest first. Each pick runs on the ascending
    reduced pairs; its residues are subtracted from them, and the block takes
    each residue's count from the front of its queue. At d = 1 every pick
    pulls back to the smallest element left, so the blocks are the
    L - keep + 1 smallest elements, taken in one pass.
    """
    deco = BlockDecomposition(block_size=d)
    items = dict(counts).items()
    length = sum([m for _, m in items])
    if d == 1:
        deco.block_sums = [el for el, m in items for _ in range(m)][: length - keep + 1]
        deco.blocks = [{el: 1} for el in deco.block_sums]
        return deco
    reduced: Counts = {}
    queues: dict[Element, list[list]] = {}  # residue -> [element, count left]; front last
    for el, m in reversed(items):
        key = tuple([c % d for c in el])
        reduced[key] = reduced.get(key, 0) + m
        queues.setdefault(key, []).append([el, m])
    reduced = dict(sorted(reduced.items()))
    picks = [_find] * ((length - keep) // d) + ([] if last is None else [last])
    for pick in picks:
        residues = _found(pick((d,) * len(moduli), list(reduced.items()), d), "size-{} block", d)
        block: Counts = {}
        for key, need in residues.items():
            left = reduced.get(key, 0) - need
            if left < 0:
                raise AssertionError("quotient witness not realizable in parent")
            if left:
                reduced[key] = left
            else:
                del reduced[key]
            queue = queues[key]
            while need:
                entry = queue[-1]
                block[entry[0]] = use = min(entry[1], need)
                need -= use
                entry[1] -= use
                if not entry[1]:
                    queue.pop()
        block = dict(sorted(block.items()))
        deco.blocks.append(block)
        deco.block_sums.append(counts_sum(moduli, block))
    if last is None:
        rest = dict(sorted([(el, m) for queue in queues.values() for el, m in queue]))
        deco.blocks.append(rest)
        deco.block_sums.append(counts_sum(moduli, rest))
    return deco


def _combine_blocks(moduli: tuple[int, ...], deco: BlockDecomposition, k: int) -> Counts | None:
    """The union of k blocks whose sums, divided by d, sum to zero in the
    quotient group, taking the earliest block for each chosen value; None
    when no k of them do."""
    d = deco.block_size
    lifted = deco.block_sums
    if d > 1:
        lifted = [tuple([c // d for c in s]) for s in lifted]
    counts: Counts = {}
    for x in lifted:
        counts[x] = counts.get(x, 0) + 1
    need = _find((moduli[0] // d,) * len(moduli), sorted(counts.items()), k)
    if need is None:
        return None
    union: Counts = {}
    for block, x in zip(deco.blocks, lifted):
        if need.get(x):
            need[x] -= 1
            for el, m in block.items():
                union[el] = union.get(el, 0) + m
    return union


def _witness(seq: Sequence, counts: Counts | None, size: int) -> Witness:
    return _found_witness(seq, _found(counts, "block selection"), size)


def _require(cond: bool, message: str, *args) -> None:
    """Raise a PreconditionError unless `cond`, formatting the message only then."""
    if not cond:
        raise PreconditionError(message.format(*args))


def _require_zero_sum(seq: Sequence, formula: str, needed: int, exact: bool = True) -> None:
    """A zero-sum sequence of the length that `formula` names: exactly
    `needed` elements, or at least that many."""
    _require(seq.is_zero_sum(), "sequence must be zero-sum")
    if (seq.length != needed) if exact else (seq.length < needed):
        at = "" if exact else "at least "
        raise PreconditionError(
            f"sequence length must be {at}{formula} = {needed}, got {seq.length}"
        )


def _cyclic_n(seq: Sequence) -> int:
    _require(seq.group.rank == 1, "expected a cyclic group, got {}", seq.group)
    return seq.group.moduli[0]


def _square_n(seq: Sequence) -> int:
    moduli = seq.group.moduli
    ok = len(moduli) == 2 and moduli[0] == moduli[1]
    _require(ok, "expected a group of the form (Z/n)^2, got {}", seq.group)
    return moduli[0]


def extract_cyclic_block(seq: Sequence, d: int) -> Witness:
    """Length-n witness from a zero-sum sequence of length 2n - d with d | n.

    Blocks of size d with d-divisible sums are split off until exactly d
    elements remain (themselves a block, since the total is zero-sum); the
    2(n/d) - 1 lifted block sums then admit n/d values summing to zero, and
    the corresponding blocks combine into the witness.
    """
    n = _cyclic_n(seq)
    deco = cyclic_block_decomposition(seq, d)
    return _witness(seq, _combine_blocks(seq.group.moduli, deco, n // d), n)


def cyclic_block_decomposition(seq: Sequence, d: int) -> BlockDecomposition:
    """The block structure behind extract_cyclic_block; no leftover remains."""
    n = _cyclic_n(seq)
    _require(d >= 1 and n % d == 0, "d = {} must divide n = {}", d, n)
    _require_zero_sum(seq, "2n - d", 2 * n - d)
    return _peel_blocks(seq.group.moduli, seq.counts, d, d)


def extract_cyclic_nt(seq: Sequence, t: int) -> Witness:
    """Witness of size n*t from a zero-sum cyclic sequence of length at least
    (t+1)n - l + 1, by peeling one length-n witness per round."""
    counts: Counts = {}
    for w in _cyclic_nt_rounds(seq, t):
        for el, m in w.items():
            counts[el] = counts.get(el, 0) + m
    return _witness(seq, counts, seq.group.moduli[0] * t)


def extract_cyclic_nt_rounds(seq: Sequence, t: int) -> list[Witness]:
    """The per-round length-n witnesses; each round's removal stays zero-sum."""
    return [_found_witness(seq, w, seq.group.moduli[0]) for w in _cyclic_nt_rounds(seq, t)]


def _cyclic_nt_rounds(seq: Sequence, t: int) -> list[Counts]:
    """Each round's length-n witness counts, by `_find` or `extract_cyclic_block`'s blocks."""
    n = _cyclic_n(seq)
    _require(t >= 1, "t must be >= 1, got {}", t)
    _require_zero_sum(seq, "(t+1)n - l + 1", (t + 1) * n - min_nondivisor(n, 1) + 1, exact=False)
    moduli, counts, rounds = seq.group.moduli, dict(seq.counts), []
    for _ in range(t):
        # Past 2n - 1 EGZ applies; below it d = 2n - length is at most l - 1,
        # so d divides n by the minimality of l.
        d = 2 * n - sum(counts.values())
        if d <= 1:
            w = _found(_find(moduli, sorted(counts.items()), n), "length-{} witness", n)
        else:
            w = _found(_combine_blocks(moduli, _peel_blocks(moduli, counts, d, d), n // d), "block selection")
        _subtract(counts, w)
        rounds.append(w)
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
    _require_zero_sum(seq, "3n", 3 * n)
    return _witness(seq, _square_3n(seq.group.moduli, seq.items(), n), n)


def _square_3n(moduli: tuple[int, ...], items: list[tuple[Element, int]], n: int) -> Counts:
    """The counts of `extract_square_3n`'s witness, from the ascending
    (element, multiplicity) pairs of a zero-sum multiset of 3n elements of
    (Z/n)^2. It is also the pick for the square extractors' last block."""
    if n == 1:
        return {(0, 0): 1}
    p, m = factor_smallest_prime(n)
    deco = _peel_blocks(moduli, items, m, 3 * m, _square_3n)
    union = _combine_blocks(moduli, deco, p)
    if union is None:
        # (p | lifted) = 0 forces (2p | lifted) != 0; take the complement.
        union = dict(items)
        _subtract(union, _found(_combine_blocks(moduli, deco, 2 * p), "2p selection"))
    return union


def extract_square_block(seq: Sequence, d: int) -> Witness:
    """Length-n witness from a zero-sum sequence of length 4n - d with d | n:
    size-d blocks are peeled until 3d remain, extract_square_3n on their
    reduction mod d gives one more, and n/d of the 4(n/d) - 3 lifted sums
    sum to zero."""
    n = _square_n(seq)
    _require(d >= 1 and n % d == 0, "d = {} must divide n = {}", d, n)
    _require_zero_sum(seq, "4n - d", 4 * n - d)
    moduli = seq.group.moduli
    deco = _peel_blocks(moduli, seq.counts, d, 3 * d, _square_3n)
    return _witness(seq, _combine_blocks(moduli, deco, n // d), n)


def extract_square_n(seq: Sequence) -> Witness:
    """Length-n witness from a zero-sum sequence in (Z/n)^2 of length at least
    4n - l + 1, where l is the least non-divisor of n that is >= 4."""
    n = _square_n(seq)
    _require_zero_sum(seq, "4n - l + 1", 4 * n - min_nondivisor(n, 4) + 1, exact=False)
    if seq.length >= 4 * n - 3:
        return _found(find_zero_sum_subseq(seq, n), "length-{} witness", n)
    # 4 <= d = 4n - length <= l - 1, so d divides n by the minimality of l.
    return extract_square_block(seq, 4 * n - seq.length)
