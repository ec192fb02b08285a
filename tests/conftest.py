"""Shared brute-force oracles and random-sequence helpers.

The oracles never touch the DP code paths they are used to check: two
enumerate index subsets explicitly, `oracle_least_witness` enumerates
multiplicity vectors, and `oracle_count_table` steps through a (count, sum)
table cell by cell with the group's own arithmetic.
"""

from __future__ import annotations

import itertools
import math
import random

from zerosum import Group, Sequence


def flatten(seq: Sequence) -> list:
    out = []
    for el, m in seq.items():
        out.extend([el] * m)
    return out


def oracle_count(seq: Sequence, k: int) -> int:
    """Number of size-k index subsets summing to the identity, by enumeration."""
    els = flatten(seq)
    g = seq.group
    hits = 0
    for combo in itertools.combinations(range(len(els)), k):
        total = g.identity()
        for i in combo:
            total = g.add(total, els[i])
        if total == g.identity():
            hits += 1
    return hits


def oracle_count_table(seq: Sequence, modulus: int | None = None) -> list[int]:
    """The number of size-k index subsets summing to the identity, for every
    k from 0 to the length, by a per-cell table DP: an element with
    multiplicity m spreads every cell (c, g) to (c + j, g + j*el) with weight
    C(m, j). With `modulus` every cell is reduced after each element. It
    reaches lengths that index-subset enumeration cannot."""
    g = seq.group
    zero = g.identity()
    table = [{zero: 1}]
    for el, mult in seq.items():
        steps = [g.scale(el, j) for j in range(mult + 1)]
        new = [dict() for _ in range(len(table) + mult)]
        for c, row in enumerate(table):
            for s, v in row.items():
                for j, step in enumerate(steps):
                    t = g.add(s, step)
                    new[c + j][t] = new[c + j].get(t, 0) + math.comb(mult, j) * v
        if modulus is not None:
            new = [{s: v % modulus for s, v in row.items()} for row in new]
        table = new
    return [row.get(zero, 0) for row in table]


def oracle_exists(seq: Sequence, k: int) -> bool:
    els = flatten(seq)
    g = seq.group
    for combo in itertools.combinations(range(len(els)), k):
        total = g.identity()
        for i in combo:
            total = g.add(total, els[i])
        if total == g.identity():
            return True
    return False


def oracle_least_witness(seq: Sequence, k: int) -> dict | None:
    """The lexicographically least multiplicity vector over the ascending
    elements that has size k and sums to the identity, as counts (zero
    multiplicities left out), or None when no vector does."""
    g = seq.group
    items = seq.items()
    for vector in itertools.product(*[range(m + 1) for _, m in items]):
        if sum(vector) != k:
            continue
        total = g.identity()
        for (el, _), j in zip(items, vector):
            total = g.add(total, g.scale(el, j))
        if total == g.identity():
            return {el: j for (el, _), j in zip(items, vector) if j}
    return None


def random_multiset(rng: random.Random, group: Group, length: int) -> Sequence:
    els = list(group.elements())
    counts: dict = {}
    for _ in range(length):
        e = rng.choice(els)
        counts[e] = counts.get(e, 0) + 1
    return Sequence(group, counts)


def random_zero_sum(rng: random.Random, group: Group, length: int) -> Sequence:
    """i.i.d. uniform elements with one completing element appended."""
    if length < 1:
        return Sequence(group, {})
    els = list(group.elements())
    counts: dict = {}
    total = group.identity()
    for _ in range(length - 1):
        e = rng.choice(els)
        counts[e] = counts.get(e, 0) + 1
        total = group.add(total, e)
    last = group.neg(total)
    counts[last] = counts.get(last, 0) + 1
    return Sequence(group, counts)
