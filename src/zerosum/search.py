"""Closed-form constants, exhaustive multiset searches, and theorem checks.

One search kernel serves every exhaustive walk here. It visits
multiplicity vectors depth-first in colex order while it maintains the packed
reachability mask of the prefix: as soon as the prefix itself contains a
zero-sum subsequence of the target length, every completion does too, so the
whole subtree is resolved without being enumerated. Only witness-free
prefixes are ever expanded, which keeps the search tree tiny compared to the
raw multiset count.

The brute-force determination walks once: the multisets with no zero-sum
subsequence of length t (when exp(G) divides t) form a sub-multiset-closed,
finite family F, so one pruned walk lists every length at which some
multiset fails. Automorphisms of G keep F, and so do translations x -> x + g,
which move the sum of a t-subset by tg = 0. So the walk visits one
representative per orbit of the maps x -> a(x) + g (a an automorphism) only,
and a representative of length L stands for a zero-sum multiset when its sum
lies in LG = {Lg}. Two cap levels pick the representatives: no element takes
more copies than the top element, and none of those that a stabiliser of the
top carries the next element to takes more than that one. One short uncapped
walk then finds the first failing vector of the one length that needs it, in
colex order; when exp(G) does not divide t, every length fails, and that
walk alone answers a witness check. Results do not depend on how the work is
partitioned across workers.

The unit of search is the chunk of vectors that share the last element's
multiplicity. Every walk takes the chunks in order against one running node
budget in the calling process; a pooled profile walk stops once it outgrows
the cost of starting a pool, hands each chunk left to the caller's executor
as the profile of that one chunk, and merges them in order. Nothing here
starts a worker process itself."""

from __future__ import annotations

import math
import random
import sys
import time
from dataclasses import asdict, dataclass
from functools import lru_cache
from operator import mul
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Sequence as Seq

from ._bitdp import get_pack, tile
from .engine import _find, count_zero_sum_subseqs
from .extractors import PreconditionError, _found, _square_3n, factor_smallest_prime
from .groups import Group, make_group, min_nondivisor
from .sequences import Sequence, _check_witness, serialize_sequence

if TYPE_CHECKING:
    from concurrent.futures import Executor


# ---------------------------------------------------------------------------
# Closed-form values


def formula_modified_cyclic(n: int, t: int) -> int:
    """(t+1)n - l + 1 with l the least non-divisor of n."""
    if n < 1 or t < 1:
        raise ValueError(f"need n >= 1 and t >= 1, got n={n}, t={t}")
    return (t + 1) * n - min_nondivisor(n, 1) + 1


def formula_modified_square(n: int) -> int:
    """4n - l + 1 with l the least non-divisor of n that is >= 4."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return 4 * n - min_nondivisor(n, 4) + 1


def conjecture_value(n: int, r: int) -> int:
    """2^r n - l + 1 with l the least non-divisor of n that is >= 2^r.

    Only defined for n a power of two.
    """
    if n < 1 or r < 1:
        raise ValueError(f"need n >= 1 and r >= 1, got n={n}, r={r}")
    if n & (n - 1):
        raise ValueError(f"n must be a power of 2, got {n}")
    return 2**r * n - min_nondivisor(n, 2**r) + 1


# ---------------------------------------------------------------------------
# Budgets and stats


@dataclass
class SearchBudget:
    """Abort limits for exhaustive work; whichever trips first wins."""

    max_nodes: int = 10**8
    max_seconds: float = 900.0


class BudgetExceeded(RuntimeError):
    """Raised when a search runs out of its node or wall-clock budget."""


@dataclass
class SearchStats:
    nodes_visited: int = 0
    sequences_checked: int = 0
    wall_ms: int = 0


@dataclass
class EnumerationStats:
    visited: int = 0


# ---------------------------------------------------------------------------
# The search kernel


def _chunks(moduli: tuple[int, ...], target: int, length: int) -> range:
    """The outer multiplicities that partition a walk up to `length`: those
    of the last element that hold no witness, or one chunk for the trivial
    group. The last element has order exp(G), so `target` copies of it are a
    witness when exp(G) divides the target, and no number of copies is
    otherwise."""
    if math.prod(moduli) == 1:
        return range(1)
    if target % math.lcm(*moduli) == 0:
        length = min(length, target - 1)
    return range(length + 1)


def _budget_error(nodes: int, max_nodes: int) -> BudgetExceeded:
    return BudgetExceeded(f"node budget exhausted: {nodes} nodes, {max_nodes} allowed")


def _automorphisms(moduli: tuple[int, ...]) -> list[Callable[[tuple[int, ...]], tuple[int, ...]]]:
    """Automorphisms of Z/n_1 x ... x Z/n_r, on coordinate tuples, that need
    no enumeration of the automorphism group: scaling one coordinate by a
    unit mod n_i, swapping two coordinates with equal moduli, and the
    transvection x_i += (n_i / gcd(n_i, n_j)) x_j, which is well defined
    because n_j times that factor is a multiple of n_i, and is undone by
    subtracting the same multiple."""
    maps: list[Callable[[tuple[int, ...]], tuple[int, ...]]] = []
    for i, n in enumerate(moduli):
        for u in range(2, n):
            if math.gcd(u, n) == 1:
                maps.append(lambda x, i=i, u=u, n=n: (*x[:i], x[i] * u % n, *x[i + 1:]))
        for j, m in enumerate(moduli):
            if j > i and m == n:
                maps.append(lambda x, i=i, j=j: (*x[:i], x[j], *x[i + 1:j], x[i], *x[j + 1:]))
            g = math.gcd(n, m)
            if j != i and g > 1:
                c = n // g
                maps.append(lambda x, i=i, j=j, c=c, n=n: (*x[:i], (x[i] + c * x[j]) % n, *x[i + 1:]))
    return maps


def _orbit(moduli: tuple[int, ...], x: tuple[int, ...]) -> set[tuple[int, ...]]:
    """The elements that the maps of `_automorphisms` and their composites
    carry x to: part of the orbit of x under Aut(G)."""
    maps = _automorphisms(moduli)
    seen = {x}
    frontier = [x]
    while frontier:
        y = frontier.pop()
        for f in maps:
            z = f(y)
            if z not in seen:
                seen.add(z)
                frontier.append(z)
    return seen


@lru_cache(maxsize=64)
def _cap_levels(moduli: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The walk's cap table, sound when exp(G) divides the target: entry k
    lists the elements that take at most as many copies as element
    |G| - 1 - k, the one k levels below the top.

    The first level names every other element, the identity included:
    translations are transitive, so some translate of each multiset has its
    most frequent element on top. The second names top + Orb(e2 - top) for
    e2 = |G| - 2, less e2: the maps x -> top + a(x - top) fix the top
    element, so a representative with the top at its maximum can also have
    e2 at its maximum over those elements. Any part of a true orbit is sound
    to cap, so the part `_orbit` finds suffices."""
    pack = get_pack(moduli, 0)
    top = pack.order - 1
    if top < 2:
        return (tuple(range(top)),)
    e2 = top - 1
    step = tuple((a - b) % n for a, b, n in zip(pack.coords(e2), pack.coords(top), moduli))
    row = pack.plus(top)
    second = {row[pack.index(y)] for y in _orbit(moduli, step)} - {e2}
    return tuple(range(top)), tuple(sorted(second))


@lru_cache(maxsize=64)
def _zero_lengths(moduli: tuple[int, ...], length: int) -> tuple[int, ...]:
    """Per sum index s, the lengths L <= `length` (as bit L) at which a leaf
    of sum s stands for a zero-sum multiset when exp(G) divides the target:
    s in LG = {Lg}, which holds when gcd(L, n_i) divides the i-th coordinate
    of s, or equally gcd(s_i, n_i), for every i. So a row repeats with period
    exp(G) and depends on s only through its gcd signature (gcd(s_i, n_i))_i:
    each distinct signature's row is built for one period, tiled out to
    `length`, and shared by its sums (Z/n has d(n) of them)."""
    pack = get_pack(moduli, 0)
    every = (1 << (length + 1)) - 1
    e = math.lcm(*moduli)
    signatures = [tuple(map(math.gcd, pack.coords(s), moduli)) for s in range(pack.order)]
    rows = {
        sig: tile(sum(
            1 << L for L in range(e) if all(g % math.gcd(L, n) == 0 for g, n in zip(sig, moduli))
        ), e, every)
        for sig in set(signatures)
    }
    return tuple(rows[sig] for sig in signatures)


class _Stop(Exception):
    """Raised through the walk when `emit` asks it to stop; args[0] is the
    node count at that leaf."""


def _walk(
    moduli: tuple[int, ...],
    target: int,
    length: int,
    outers: Iterable[int],
    need: list[int],
    emit: Callable[[list[int], int, int, int], bool | None],
    max_nodes: int,
    deadline: float,
    *,
    levels: tuple[tuple[int, ...], ...] = (),
    zero_sum: bool = False,
    spent: int = 0,
    until: float = math.inf,
) -> tuple[int, int]:
    """Depth-first walk over the given chunks (last multiplicities, in
    order) of the multisets of size at most `length` with no zero-sum
    subsequence of length `target`, in colex order: the last element's
    multiplicity varies slowest. A prefix whose packed reachability mask,
    grown one copy at a time, has such a subsequence cuts its whole subtree.

    A leaf assigns every nonidentity element. With size a and sum s, it
    stays witness-free under r copies of element 0 (the identity) exactly
    for r <= rmax < target (more copies only add subsequences), so it
    covers the lengths a..hi with hi = a + min(rmax, cap of element 0).
    `emit(mults, a, hi, s)` sees each leaf with rmax >= need[0] - a (with
    `zero_sum`, only those with s = 0); the caller may raise `need` as it
    goes, to values up to length + target, which no leaf reaches, and stops
    the walk by returning true. At each chunk start the walk raises need[0]
    to the chunk's outer multiplicity, which no leaf of the chunk is
    shorter than, so a walk may start at any chunk with need[0] = 0.
    mults[0] is the caller's. Restricted to one length, walk order is
    colex order. The node count starts at `spent`, so a walk can draw on the
    budget another one left; the walk raises once its nodes pass
    `max_nodes`, or once the clock passes `deadline`, which it reads at each
    chunk start (so a walk whose setup outlasts its time limit stops before
    its first node) and every 1,024 nodes. It stops at the first chunk end
    where its nodes pass `until`, leaving the chunks not started in
    `outers`. It returns (nodes, leaves reached).

    `levels` is a cap table (see `_cap_levels`); an empty one walks
    uncapped. In each chunk the elements of levels[0] take at most as many
    copies as the last element. Once element |G| - 1 - k (k >= 1) has its
    copies, those of levels[k] take at most as many as it; such a cap is
    only set where that element is element 2 or higher, so the leaf loop of
    element 1 never sees a cap change. When `need` starts at `length` or
    more, only leaves that reach `length` count; if exp(G) also divides the
    target, no element takes target copies, so an element i with more than
    (target - 1)(i + 1) copies left for elements 0..i is skipped.

    The prefix sum is one element index, advanced through the rows of
    `pack.plus`; an element's row and rotation parts are built when it first
    takes a copy, so a walk cut short builds few of them. A leaf's rmax is
    target - 1 less the largest count at which its mask holds sum 0, read
    only once the leaf's sum passes; for a leaf with room for r more
    copies, need[0] - a is need[0] + r - length. No table grows with
    `length` or the target.
    Element 1 runs its leaves in its own loop, `step[i]` walks element i
    (setting its cap level first, if one hangs there), and the node count
    travels through arguments and return values. The rotation masks of
    `pack.parts` span the packed width, so a grown mask needs no truncation.
    """
    depth = math.prod(moduli) + 200  # the walk takes one frame per element
    if sys.getrecursionlimit() < depth:
        sys.setrecursionlimit(depth)
    pack = get_pack(moduli, target)
    order = pack.order
    plus: list = [None] * order  # element rows and rotation parts, built on first use
    parts: list = [None] * order
    probe_top = 1 << (target * order)
    zeros = tile(1, order, (probe_top << 1) - 1)  # sum 0 at counts 0..target
    last_r = target - 1
    cap = [length] * order  # copies allowed per element, set by the cap levels
    room = [length] * order  # copies that elements 0..i can still take
    if need[0] >= length and target % math.lcm(*moduli) == 0:
        room = [(target - 1) * (i + 1) for i in range(order)]
    leaves = 0
    mults = [0] * order

    def last(i: int, b: int, s: int, mask: int, nodes: int) -> int:
        """Element i = 1 with its leaves: b - r copies of it, room for r more."""
        nonlocal leaves
        if b > room[1]:
            return nodes
        if plus[i] is None:
            plus[i], parts[i] = pack.plus(i), pack.parts(i)
        plus_i = plus[i]
        ((lo, up, down, lod),) = parts[i]  # element 1 has one nonzero coordinate
        r_min = max(b - cap[1], 0)
        fill = cap[0]
        for r in range(b, r_min - 1, -1):
            if not (zero_sum and s):
                a = length - r
                rmax = last_r - ((mask & zeros).bit_length() - 1) // order
                if rmax >= need[0] - a:
                    mults[i] = b - r
                    if emit(mults, a, a + min(rmax, fill), s):
                        leaves += b - r + 1
                        raise _Stop(nodes)
            if r == r_min:
                break
            nodes += 1
            if nodes > max_nodes:
                raise _budget_error(nodes, max_nodes)
            if not nodes & 0x3FF and time.monotonic() > deadline:
                raise BudgetExceeded("wall-clock budget exhausted")
            moved = mask << order
            mask |= ((moved & lo) << up) | ((moved >> down) & lod)
            if mask & probe_top:
                leaves += b - r + 1
                return nodes  # prefix already has a witness: subtree has no failures
            s = plus_i[s]
        leaves += b - r_min + 1
        return nodes

    def dfs(i: int, b: int, s: int, mask: int, nodes: int) -> int:
        """Element i >= 2: 0..b copies of it, each followed by the levels below."""
        if b > room[i]:
            return nodes
        below = step[i - 1]
        mults[i] = 0
        nodes = below(i - 1, b, s, mask, nodes)
        copies = min(b, cap[i])
        if copies and plus[i] is None:
            plus[i], parts[i] = pack.plus(i), pack.parts(i)
        plus_i = plus[i]
        parts_i = parts[i]
        for j in range(1, copies + 1):
            nodes += 1
            if nodes > max_nodes:
                raise _budget_error(nodes, max_nodes)
            if not nodes & 0x3FF and time.monotonic() > deadline:
                raise BudgetExceeded("wall-clock budget exhausted")
            moved = mask << order
            for lo, up, down, lod in parts_i:
                moved = ((moved & lo) << up) | ((moved >> down) & lod)
            mask |= moved
            if mask & probe_top:
                break  # prefix already has a witness: subtree has no failures
            s = plus_i[s]
            mults[i] = j
            nodes = below(i - 1, b - j, s, mask, nodes)
        return nodes

    def capped(inner: Callable[..., int], members: tuple[int, ...], above: int) -> Callable[..., int]:
        """`inner`, called once `members` are capped at the copies of `above`."""

        def walk(i: int, b: int, s: int, mask: int, nodes: int) -> int:
            c = mults[above]
            for x in members:
                cap[x] = c
            return inner(i, b, s, mask, nodes)

        return walk

    top = order - 1
    step: list[Callable[..., int]] = [last, last] + [dfs] * (order - 2)
    for k in range(1, len(levels)):
        if top - k >= 2:
            step[top - k - 1] = capped(step[top - k - 1], levels[k], top - k)
    first = levels[0] if levels else ()
    nodes = spent
    try:
        for outer in outers:
            if time.monotonic() > deadline:
                raise BudgetExceeded("wall-clock budget exhausted")
            mask = pack.initial
            s = 0
            for i in first:
                cap[i] = outer
            if need[0] < outer:
                need[0] = outer
            if top:  # each chunk grows its own prefix: its nodes do not depend on the others
                if outer and plus[top] is None:
                    plus[top], parts[top] = pack.plus(top), pack.parts(top)
                for _ in range(outer):
                    nodes += 1
                    if nodes > max_nodes:
                        raise _budget_error(nodes, max_nodes)
                    moved = mask << order
                    for lo, up, down, lod in parts[top]:
                        moved = ((moved & lo) << up) | ((moved >> down) & lod)
                    mask |= moved  # `_chunks` gives only outers that hold no witness
                    s = plus[top][s]
                mults[top] = outer
            b = length - outer
            if top >= 2:
                nodes = step[top - 1](top - 1, b, s, mask, nodes)
            else:  # the chunk is one leaf
                leaves += 1
                if not (zero_sum and s):
                    rmax = last_r - ((mask & zeros).bit_length() - 1) // order
                    if rmax >= need[0] - outer and emit(mults, outer, outer + min(rmax, cap[0]), s):
                        break
            if nodes > until:
                break
    except _Stop as stop:
        nodes = stop.args[0]
    return nodes, leaves


def _sequence_of(group: Group, mults: Seq[int]) -> Sequence:
    """The multiset with the given multiplicity vector, indexed as the kernel
    indexes the group's elements."""
    coords = get_pack(group.moduli, 0).coords
    return Sequence._of(group, {coords(i): m for i, m in enumerate(mults) if m})


def enumerate_multisets(
    group: Group,
    length: int,
    visitor: Callable[[Sequence], None],
    *,
    target: int | None = None,
    zero_sum_only: bool = True,
    budget: SearchBudget | None = None,
) -> EnumerationStats:
    """Invoke the visitor once per multiset of the given size, in colex order
    of multiplicity vectors (the last element's multiplicity varies slowest).

    With zero_sum_only, only zero-sum multisets are visited; with a target,
    only those with no zero-sum subsequence of that length.
    """
    if length < 0:
        raise ValueError(f"length must be >= 0, got {length}")
    budget = budget or SearchBudget()
    stats = EnumerationStats()
    t = length + 1 if target is None else target

    def emit(mults: list[int], a: int, hi: int, s: int) -> None:
        mults[0] = length - a
        stats.visited += 1
        visitor(_sequence_of(group, mults))

    _walk(
        group.moduli, t, length, _chunks(group.moduli, t, length), [length], emit,
        budget.max_nodes, time.monotonic() + budget.max_seconds, zero_sum=zero_sum_only,
    )
    return stats


# ---------------------------------------------------------------------------
# Failing lengths (the brute-force core)


class _Profile(NamedTuple):
    """The lengths up to the walk's at which some zero-sum multiset has no
    zero-sum subsequence of the target length (`zero`), the largest length
    at which some multiset has none (`top`), then the nodes expanded and the
    leaves reached. The walk visits one representative per orbit, so the
    lengths are exact but it names no colex-first multiset;
    `_first_failing` does."""

    zero: frozenset[int]
    top: int
    nodes: int
    leaves: int


# A pooled walk hands its chunks to the pool only past this many nodes. An
# idle 2-process pool costs 13-17 ms to fork, run its first tasks and shut
# down, about 15,000 nodes at the walk's 0.6-1 M nodes/s (2-core Xeon,
# Python 3.11). Two workers at best halve the rest of the walk, so they save
# that cost only on a rest of twice as many nodes, about 30,000.
_POOL_START_NODES = 1 << 15


def _profile(
    moduli: tuple[int, ...],
    target: int,
    length: int,
    pool: Executor | None,
    max_nodes: int,
    deadline: float,
    outers: Iterable[int] | None = None,
    spent: int = 0,
) -> _Profile:
    """The profile of one walk up to `length` over the given chunks (by
    default all of them) under the cap table; exp(G) must divide the target.
    Then translations keep the family walked, so the walk visits one
    representative per orbit of the maps x -> a(x) + g, and a leaf of sum s
    counts toward `zero` at each length L it covers with s in LG. One `need`
    serves every leaf: the smallest length not yet in `zero`. Chunk v holds
    v copies of the top element, a translate of v copies of the identity, so
    a walk from chunk 0 has every length below v in `zero` by chunk v, and
    the walk's floor of v there changes no leaf. The walk draws on the node
    budget that `spent` nodes left; the profile counts its own nodes only.

    One walk in the calling process takes the chunks in order against the
    running budget: all of them without a pool, and with one until its nodes
    pass `_POOL_START_NODES`, so a small walk starts no worker process and a
    larger one starts them only once the walk's tables are built, which
    forked workers inherit. Each chunk left then goes to the pool as the
    profile of that one chunk, with the budget the caller left. The chunks
    are the same at any worker count and merge in walk order, so the lengths
    and the node counts do not depend on scheduling; once the finished nodes
    pass the cap, the chunks not yet started are cancelled and the run
    raises: the pooled part overspends by at most one chunk per worker.
    """
    lengths = _zero_lengths(moduli, length)
    chunks = iter(_chunks(moduli, target, length) if outers is None else outers)
    zero = 0  # bit L: length L is known to fail for some zero-sum multiset
    top = -1
    need = [0]

    def record(mults: list[int], a: int, hi: int, s: int) -> None:
        nonlocal top, zero
        if hi > length:
            hi = length
        if hi > top:
            top = hi
        zero |= lengths[s] & ((2 << hi) - (1 << a))
        floor = need[0]
        while zero >> floor & 1:
            floor += 1
        need[0] = floor

    nodes, leaves = _walk(
        moduli, target, length, chunks, need, record, max_nodes, deadline,
        levels=_cap_levels(moduli), spent=spent,
        until=math.inf if pool is None else _POOL_START_NODES,
    )
    futures = [  # without a pool the walk has taken every chunk
        pool.submit(_profile, moduli, target, length, None, max_nodes, deadline, (v,), nodes)
        for v in chunks
    ]
    try:
        for future in futures:
            part = future.result()
            nodes += part.nodes
            if nodes > max_nodes:
                raise _budget_error(nodes, max_nodes)
            zero |= sum(1 << L for L in part.zero)
            top = max(top, part.top)
            leaves += part.leaves
    finally:
        for future in futures:
            future.cancel()
    return _Profile(
        frozenset(L for L in range(length + 1) if zero >> L & 1), top, nodes - spent, leaves
    )


def _first_failing(
    moduli: tuple[int, ...],
    target: int,
    length: int,
    zero_sum: bool,
    max_nodes: int,
    deadline: float,
    spent: int,
) -> tuple[tuple[int, ...] | None, int, int]:
    """The first multiplicity vector of the given length in colex order with
    no zero-sum subsequence of length `target` (with `zero_sum`, the first
    zero-sum one), or None: one serial uncapped walk that stops at its first
    leaf. Returns the vector, the node count continued from `spent` against
    the same cap, and the leaves reached."""
    found: list[tuple[int, ...]] = []

    def stop(mults: list[int], a: int, hi: int, s: int) -> bool:
        found.append((length - a, *mults[1:]))
        return True

    nodes, leaves = _walk(
        moduli, target, length, _chunks(moduli, target, length), [length], stop,
        max_nodes, deadline, zero_sum=zero_sum, spent=spent,
    )
    return (found[0] if found else None), nodes, leaves


# ---------------------------------------------------------------------------
# Reports


@dataclass
class ConstantReport:
    """Outcome of one brute-force constant determination."""

    group: str
    target: int
    claimed_value: int | None
    computed_value: int
    extremal_witness: str
    window: tuple[int, int]
    stats: SearchStats
    note: str = (
        "every length searched: each zero-sum multiset of length >= window_lo, "
        "and each multiset of length >= window_hi, has a witness"
    )

    @property
    def discrepancy(self) -> bool:
        return self.claimed_value is not None and self.claimed_value != self.computed_value

    @property
    def ok(self) -> bool:
        return not self.discrepancy

    def to_jsonable(self) -> dict:
        data = asdict(self)
        data["window_lo"], data["window_hi"] = data.pop("window")
        return {"type": "constant", "status": "DISCREPANCY" if self.discrepancy else "OK", **data}


@dataclass
class PropertyReport:
    """Outcome of one property-style check (exhaustive or sampled)."""

    name: str
    params: dict
    passed: bool
    checked: int
    violations: int
    vacuous: int | None = None
    counterexample: str | None = None
    wall_ms: int = 0
    note: str = ""

    @property
    def ok(self) -> bool:
        return self.passed

    def to_jsonable(self) -> dict:
        return {"type": "property", **asdict(self)}


def reports_to_csv(reports: Iterable[ConstantReport | PropertyReport]) -> str:
    """CSV summary; constant reports use the stable canonical columns."""
    import csv
    import io

    out = io.StringIO()
    writer = csv.writer(out)
    reports = list(reports)
    if all(isinstance(r, ConstantReport) for r in reports):
        writer.writerow(["group", "t", "claimed", "computed", "window_lo", "window_hi", "witness",
                         "wall_ms", "sequences_checked"])
        for r in reports:
            claimed = "" if r.claimed_value is None else r.claimed_value
            writer.writerow([r.group, r.target, claimed, r.computed_value, *r.window,
                             r.extremal_witness, r.stats.wall_ms, r.stats.sequences_checked])
    else:
        writer.writerow(["name", "params", "passed", "checked", "violations", "wall_ms"])
        for r in reports:
            if isinstance(r, ConstantReport):
                writer.writerow([r.group, f"t={r.target}", r.ok, "", "", r.stats.wall_ms])
            else:
                params = ";".join(f"{k}={v}" for k, v in sorted(r.params.items()))
                writer.writerow([r.name, params, r.passed, r.checked, r.violations, r.wall_ms])
    return out.getvalue()


# ---------------------------------------------------------------------------
# Brute-force constant determination


def brute_force_modified_constant(
    group: Group,
    t: int,
    budget: SearchBudget | None = None,
    claimed_value: int | None = None,
    pool: Executor | None = None,
) -> ConstantReport:
    """s'(G, t): the smallest v such that every zero-sum multiset of each
    length >= v has a zero-sum subsequence of length t. The extremal witness
    is the first zero-sum multiset of length v - 1 with none, in colex order.

    A multiset with no zero-sum subsequence of length t holds at most t - 1
    copies of each element, since exp(G) divides t, so one capped walk up to
    (t - 1)|G| finds every length that fails. The same walk gives
    s_t(G), the smallest length from which every multiset has one; the
    report's window is (s'(G, t), s_t(G)). The witness walk at length v - 1
    then draws on the same node budget, and both walks count in the stats.
    With a `pool`, the capped walk's chunks run on that executor; the
    witness walk is serial either way.
    """
    if t < 1:
        raise ValueError(f"target length must be >= 1, got {t}")
    if t % group.exponent:
        # g of order exp(G), repeated k * exp(G) times, fails at every k.
        raise PreconditionError(
            f"s'({group}, {t}) is infinite: exp(G) = {group.exponent} does not divide t"
        )
    budget = budget or SearchBudget()
    start = time.monotonic()
    deadline = start + budget.max_seconds
    profile = _profile(group.moduli, t, (t - 1) * group.order, pool, budget.max_nodes, deadline)
    # Length 0 always fails for t >= 1: the empty sequence is zero-sum and has
    # no length-t subsequence.
    last_fail = max(profile.zero)
    computed = last_fail + 1
    vector, nodes, leaves = _first_failing(
        group.moduli, t, last_fail, True, budget.max_nodes, deadline, profile.nodes
    )
    stats = SearchStats(
        nodes_visited=nodes,
        sequences_checked=profile.leaves + leaves,
        wall_ms=int((time.monotonic() - start) * 1000),
    )
    return ConstantReport(
        group=str(group),
        target=t,
        claimed_value=claimed_value,
        computed_value=computed,
        extremal_witness=serialize_sequence(_sequence_of(group, vector)),
        window=(computed, profile.top + 1),
        stats=stats,
    )


# ---------------------------------------------------------------------------
# Universal-witness checks (whole-length properties)


def check_all_have_witness(
    group: Group,
    size: int,
    target: int,
    *,
    name: str,
    budget: SearchBudget | None = None,
    pool: Executor | None = None,
) -> PropertyReport:
    """Every multiset of the given size over the group must contain a
    zero-sum subsequence of the target length. Unless exp(G) divides the
    target, g of order exp(G) repeated `size` times has none, and only the
    counterexample walk runs."""
    if target < 1 or size < 0:
        raise ValueError(f"need target >= 1 and size >= 0, got target={target}, size={size}")
    budget = budget or SearchBudget()
    start = time.monotonic()
    deadline = start + budget.max_seconds
    passed, checked, spent = False, 0, 0
    if target % group.exponent == 0:
        profile = _profile(group.moduli, target, size, pool, budget.max_nodes, deadline)
        passed, checked, spent = profile.top < size, profile.leaves, profile.nodes
    counterexample = None
    if not passed:
        vector, _, leaves = _first_failing(
            group.moduli, target, size, False, budget.max_nodes, deadline, spent
        )
        checked += leaves
        counterexample = serialize_sequence(_sequence_of(group, vector))
    return PropertyReport(
        name=name,
        params={"group": str(group), "size": size, "target": target},
        passed=passed,
        checked=checked,
        violations=0 if passed else 1,
        counterexample=counterexample,
        wall_ms=int((time.monotonic() - start) * 1000),
        note="exhaustive over multisets",
    )


# ---------------------------------------------------------------------------
# Congruence lemma check


def check_lemma_por2p(
    p: int,
    count: int = 10000,
    seed: int = 0,
    budget: SearchBudget | None = None,
) -> PropertyReport:
    """Over (Z/p)^2, p prime, at sizes 3p-2 and 3p-1: when no p-subset sums to zero,
    the number of 2p-subsets summing to zero is p - 1 mod p.

    The hypothesis cases are exactly the multisets with no zero-sum
    subsequence of length p, which the search kernel enumerates. At p = 2
    every one of them is checked; otherwise `count` uniform draws from them
    at each size are. `vacuous` counts the multisets of both sizes that lie
    outside the hypothesis. Each size's walk gets the whole node budget; the
    wall-clock budget covers both walks and the counting together.
    """
    if p < 2 or factor_smallest_prime(p)[0] != p:
        raise PreconditionError(f"p must be prime, got {p}")
    mode = "exhaustive" if p == 2 else "sample"
    budget = budget or SearchBudget()
    start = time.monotonic()
    deadline = start + budget.max_seconds
    group = make_group([p, p])
    sizes = (3 * p - 2, 3 * p - 1)
    rng = random.Random(seed)
    checked = vacuous = violations = 0
    counterexample = None
    for size in sizes:
        left = deadline - time.monotonic()
        if left <= 0:
            raise BudgetExceeded("wall-clock budget exhausted")
        cases: list[Sequence] = []
        enumerate_multisets(
            group, size, cases.append, target=p, zero_sum_only=False,
            budget=SearchBudget(max_nodes=budget.max_nodes, max_seconds=left),
        )
        vacuous += math.comb(size + group.order - 1, size) - len(cases)
        if mode == "sample" and cases:
            cases = rng.choices(cases, k=count)
        for seq in cases:
            if time.monotonic() > deadline:
                raise BudgetExceeded("wall-clock budget exhausted")
            checked += 1
            if count_zero_sum_subseqs(seq, 2 * p, modulus=p) != p - 1:
                violations += 1
                if counterexample is None:
                    counterexample = serialize_sequence(seq)

    return PropertyReport(
        name="por2p",
        params={"p": p, "mode": mode, "sizes": list(sizes), "count": count if mode == "sample" else None},
        passed=violations == 0,
        checked=checked,
        violations=violations,
        vacuous=vacuous,
        counterexample=counterexample,
        wall_ms=int((time.monotonic() - start) * 1000),
        note="hypothesis cases counted; vacuous = some p-subset sums to zero",
    )


# ---------------------------------------------------------------------------
# Recursive-lemma check at length 3n


def _random_multiset(rng: random.Random, order: int, size: int) -> list[int]:
    """Uniform multiplicity vector of the given total via stars and bars."""
    bars = [-1, *sorted(rng.sample(range(size + order - 1), order - 1)), size + order - 1]
    return [b - a - 1 for a, b in zip(bars, bars[1:])]


def check_lemma_3n(
    n: int,
    samples: int = 1000,
    seed: int = 0,
    budget: SearchBudget | None = None,
) -> PropertyReport:
    """Zero-sum multisets of size 3n over (Z/n)^2 always yield a length-n
    witness, and the block-recursive extractor succeeds on each of them.

    Exhaustive when the instance space is desk-sized (n <= 3), in the order
    of `enumerate_multisets`, and sampled otherwise. `_find` and the
    extractor's `_square_3n` run on counts, each witness is validated once as
    a `Witness` would be, and only a counterexample's text builds a `Sequence`.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    budget = budget or SearchBudget()
    start = time.monotonic()
    group = make_group([n, n])
    moduli, elements = group.moduli, list(group.elements())
    length, deadline = 3 * n, start + budget.max_seconds
    checked = violations = 0
    counterexample = None
    exhaustive = n <= 3

    def run_one(mults: list[int]) -> None:
        nonlocal checked, violations, counterexample
        checked += 1
        items = [(el, m) for el, m in zip(elements, mults) if m]
        counts = dict(items)
        found = _find(moduli, items, n)
        if found is None:
            violations += 1
            if counterexample is None:
                counterexample = "engine found no witness in " + serialize_sequence(Sequence._of(group, counts))
            return
        _check_witness(moduli, found, counts, n)
        _check_witness(moduli, _found(_square_3n(moduli, items, n), "block selection"), counts, n)

    if exhaustive:
        def emit(mults: list[int], a: int, hi: int, s: int) -> None:
            mults[0] = length - a  # as enumerate_multisets, in its order
            run_one(mults)

        _walk(moduli, length + 1, length, _chunks(moduli, length + 1, length), [length], emit,
              budget.max_nodes, deadline, zero_sum=True)
    else:
        rng = random.Random(seed)
        axes = list(zip(*elements))
        attempts = 0
        while checked < samples:
            attempts += 1
            if attempts > budget.max_nodes or time.monotonic() > deadline:
                raise BudgetExceeded(f"sampling budget exhausted after {attempts} draws")
            mults = _random_multiset(rng, group.order, length)
            if any(sum(map(mul, mults, axis)) % n for axis in axes):
                continue
            run_one(mults)

    return PropertyReport(
        name="lemma3n",
        params={"n": n, "mode": "exhaustive" if exhaustive else "sample", "samples": None if exhaustive else samples},
        passed=violations == 0,
        checked=checked,
        violations=violations,
        counterexample=counterexample,
        wall_ms=int((time.monotonic() - start) * 1000),
        note="engine witness and block-recursive extractor both validated",
    )


# ---------------------------------------------------------------------------
# Theorem suites


def verify_theorem(
    suite: str,
    *,
    n_values: Seq[int] | None = None,
    t_values: Seq[int] | None = None,
    budget: SearchBudget | None = None,
    pool: Executor | None = None,
    seed: int = 0,
    samples: int | None = None,
) -> list[ConstantReport | PropertyReport]:
    """Run one named verification suite and return its reports; the
    brute-force suites run their capped walks on `pool` when one is given.

    cyclic      brute-force s' over Z/n at target n*t versus the closed form
    square      brute-force s' over (Z/n)^2 at target n versus the closed form
    egz         every multiset of size 2n-1 over Z/n has a length-n witness
    reiher      every multiset of size 4n-3 over (Z/n)^2 has a length-n witness
    lemma3n     zero-sum multisets of size 3n over (Z/n)^2, engine + extractor
    por2p       the mod-p congruence between p- and 2p-subset counts
    conjecture  brute-force s' over (Z/2)^r at target 2 versus the conjecture value
    """
    budget = budget or SearchBudget()

    def constant(moduli: list[int], t: int, claimed: int) -> ConstantReport:
        return brute_force_modified_constant(
            make_group(moduli), t, budget=budget, claimed_value=claimed, pool=pool
        )

    def witness(moduli: list[int], size: int, target: int, name: str) -> PropertyReport:
        return check_all_have_witness(
            make_group(moduli), size, target, name=name, budget=budget, pool=pool
        )

    lemma3n_samples = 1000 if samples is None else samples
    por2p_samples = 10000 if samples is None else samples
    # suite -> (default n values, the report for one n and t); only cyclic reads t.
    suites: dict[str, tuple[Seq[int], Callable[[int, int], ConstantReport | PropertyReport]]] = {
        "cyclic": (range(2, 7), lambda n, t: constant([n], n * t, formula_modified_cyclic(n, t))),
        "square": ([2, 3], lambda n, t: constant([n, n], n, formula_modified_square(n))),
        "egz": (range(2, 11), lambda n, t: witness([n], 2 * n - 1, n, "egz")),
        "reiher": ([2, 3], lambda n, t: witness([n, n], 4 * n - 3, n, "reiher")),
        "lemma3n": ([2, 3, 4, 6], lambda n, t: check_lemma_3n(n, lemma3n_samples, seed, budget)),
        "por2p": ([2, 3], lambda p, t: check_lemma_por2p(p, por2p_samples, seed, budget)),
        "conjecture": ([1, 2, 3], lambda r, t: constant([2] * r, 2, conjecture_value(2, r))),
    }
    if suite not in suites:
        raise ValueError(f"unknown suite {suite!r}")
    defaults, report = suites[suite]
    ns = list(defaults if n_values is None else n_values)
    ts = list(t_values) if suite == "cyclic" and t_values is not None else [1]
    return [report(n, t) for t in ts for n in ns]
