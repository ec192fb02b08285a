"""Zero-sum subsequence engine: existence, witnesses, and exact counts.

Detection runs a bounded-knapsack reachability DP over packed bitmasks. The
counter keeps one integer of |G| blocks, one per group element, each of s+1
cells of w bits, where s = min(k, L - k) for a sequence of length L: cell
(g, c), at bit (g*(s+1) + c)*w, ends as the number of c-subsets summing to the
element of index g. Each copy of an element moves every cell below count s up
one within its block, rotates the blocks by the element and adds the result
back. Past half the length the zero-sum k-subsets are counted as their
complements, the (L-k)-subsets that sum to the total, and existence and
witnesses are read from the same side.
"""

from __future__ import annotations

import math
from typing import Iterable

from ._bitdp import MAX_BITS, get_pack, tile
from .groups import Element
from .sequences import Sequence, Witness, _found_witness


def _check_k(seq: Sequence, k: int) -> None:
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if k > seq.length:
        raise ValueError(f"k = {k} exceeds the sequence length {seq.length}")


def find_zero_sum_subseq(seq: Sequence, k: int) -> Witness | None:
    """A witness of exactly k elements summing to the identity, or None.

    Deterministic: elements are scanned in ascending order and each takes the
    smallest multiplicity that keeps the remainder solvable, so the witness is
    the lexicographically least viable multiplicity vector.
    """
    _check_k(seq, k)
    counts = _find(seq.group.moduli, seq.items(), k, seq.length)
    return None if counts is None else _found_witness(seq, counts, k)


def _find(
    moduli: tuple[int, ...], items: list[tuple[Element, int]], k: int, length: int | None = None
) -> dict[Element, int] | None:
    """`find_zero_sum_subseq`'s witness counts, or None, on ascending (element,
    multiplicity) pairs with 0 <= k <= their total; checks nothing.

    Given their total L with 2k > L, it folds the other side: the
    (L-k)-subsets that sum to the total, whose complements are the zero-sum
    k-subsets. The least k-vector is the multiplicities less the
    lexicographically greatest such (L-k)-vector, so there each item takes
    its largest viable multiplicity. The internal callers, whose searches are
    small, pass no total and fold on the k side."""
    if k == 0:
        return {}
    side = k if length is None else min(k, length - k)
    pack = get_pack(moduli, side)
    add_copies, index, order = pack.add_copies, pack.index, pack.order
    # Suffix reachability: suffix[i] covers items[i:].
    mask = pack.initial
    suffix = [mask]
    for el, mult in reversed(items):
        mask = add_copies(mask, index(el), mult)
        suffix.append(mask)
    suffix.reverse()
    counts: dict[Element, int] = {}
    if side < k:
        # The complement's count and sum (with its index) still required.
        need_count = side
        need_sum = tuple([sum(el[a] * mult for el, mult in items) % m for a, m in enumerate(moduli)])
        need_index = index(need_sum)
        if not mask >> (side * order + need_index) & 1:
            return None
        for i, (el, mult) in enumerate(items):
            if not need_count:  # the complement is complete: the rest is all in
                counts[el] = mult
                continue
            rest = suffix[i + 1]
            for j in range(min(mult, need_count), -1, -1):
                rest_sum = tuple([(r - j * c) % m for r, c, m in zip(need_sum, el, moduli)])
                rest_index = index(rest_sum)
                if rest >> ((need_count - j) * order + rest_index) & 1:
                    break
            if j < mult:
                counts[el] = mult - j
            need_count, need_sum, need_index = need_count - j, rest_sum, rest_index
        assert need_index == 0
        return counts
    if not mask >> k * order & 1:
        return None
    # The count and the sum (with its index) still required from the rest.
    need_count, need_sum, need_index = k, (0,) * len(moduli), 0
    for i, (el, mult) in enumerate(items):
        rest = suffix[i + 1]
        if rest >> (need_count * order + need_index) & 1:
            continue  # the items after this one reach (need_count, need_sum)
        rest_sum = need_sum
        for j in range(1, min(mult, need_count) + 1):
            rest_sum = tuple([(r - c) % m for r, c, m in zip(rest_sum, el, moduli)])
            rest_index = index(rest_sum)
            if rest >> ((need_count - j) * order + rest_index) & 1:
                break
        counts[el] = j
        need_count, need_sum, need_index = need_count - j, rest_sum, rest_index
        if need_count == 0:
            break
    assert need_count == 0 and need_index == 0
    return counts


def has_zero_sum_of_length(seq: Sequence, k: int) -> bool:
    """Existence only; skips witness reconstruction."""
    _check_k(seq, k)
    return has_zero_sum_in_lengths(seq, k)


def has_zero_sum_in_lengths(seq: Sequence, lengths: Iterable[int] | int) -> bool:
    """True when some k in the target set admits a zero-sum subsequence.

    Accepts a single target or any iterable of them. Lengths beyond the
    sequence length cannot occur and are skipped. One DP pass covers every
    target at once, on counts up to the largest min(k, L - k): a target with
    2k > L holds when some (L-k)-subset sums to the total, its complement.
    """
    if isinstance(lengths, int):
        lengths = (lengths,)
    targets = sorted(set(lengths))
    if any(k < 0 for k in targets):
        raise ValueError(f"target lengths must be >= 0: {targets}")
    length = seq.length
    targets = [k for k in targets if k <= length]
    if not targets:
        return False
    if targets[0] == 0:
        return True
    pack = get_pack(seq.group.moduli, max(min(k, length - k) for k in targets))
    mask = pack.initial
    for el, mult in seq.items():
        mask = pack.add_copies(mask, pack.index(el), mult)
    total = pack.index(seq.total_sum)
    return any(
        pack.has(mask, length - k, total) if 2 * k > length else pack.has(mask, k)
        for k in targets
    )


def count_zero_sum_subseqs(seq: Sequence, k: int, modulus: int | None = None) -> int:
    """The number of size-k index subsets summing to the identity.

    Multiplicities contribute binomial factors, so this counts subsets of
    positions, not distinct sub-multisets. The count is exact; with `modulus`
    it is reduced once at the end, for congruence checks. When 2k > L the
    table counts the (L-k)-subsets summing to the total instead, which
    complementation maps one to one onto the zero-sum k-subsets: the answer
    is cell (total, L-k) rather than (0, k).

    The table is element-major: element g owns the block of s+1 cells of w
    bits from bit g*(s+1)*w, s = min(k, L-k). Each copy moves the cells whose
    count is below s (`keep`) up one count with `(table & keep) << w`, rotates
    them by the element with the pack's masks on cells of (s+1)*w bits, and
    adds them to the table. The leading axis's rotation wraps the whole
    integer, so its mask is one run of ones. The answer is the cell at bit
    (target*(s+1) + s)*w.
    """
    _check_k(seq, k)
    if modulus is not None and modulus < 2:
        raise ValueError(f"modulus must be >= 2, got {modulus}")
    length, order = seq.length, seq.group.order
    side = length - k if 2 * k > length else k
    # Cell (g, c) never exceeds C(L, c) <= C(L, side), so cells of w bits
    # never carry into their neighbours. The bound (L/s)^s <= C(L, s) refuses
    # a table too wide to build before C(L, s), which takes seconds at
    # L = 10^6, is computed.
    cells = (side + 1) * order
    w = side * ((length // side).bit_length() - 1) + 1 if side else 1
    if cells * w <= MAX_BITS:
        w = math.comb(length, side).bit_length()
    if cells > 5 * 10**7 or cells * w > MAX_BITS:
        raise ValueError(
            f"counting table of {cells} cells of at least {w} bits (|G| = {order}, k = {k}) "
            "exceeds the supported size"
        )
    pack = get_pack(seq.group.moduli, side)
    block = (side + 1) * w
    full = (1 << order * block) - 1
    keep = tile((1 << side * w) - 1, block, full)
    table = 1
    for el, mult in seq.items():
        rotations = [pack.rotation(axis, c, block, full) for axis, c in enumerate(el) if c]
        for _ in range(mult):
            moved = (table & keep) << w
            for lo, up, down, lod in rotations:
                moved = ((moved & lo) << up) | ((moved >> down) & lod)
            table += moved
    target = pack.index(seq.total_sum) if side < k else 0
    count = (table >> (target * block + side * w)) & ((1 << w) - 1)
    return count if modulus is None else count % modulus
