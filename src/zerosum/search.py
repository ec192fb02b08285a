"""Closed-form constants, exhaustive multiset searches, and theorem checks.

One search kernel serves every exhaustive walk here. It visits
multiplicity vectors depth-first in colex order while it maintains the packed
reachability mask of the prefix: as soon as the prefix itself contains a
zero-sum subsequence of the target length, every completion does too, so the
whole subtree is resolved without being enumerated. Only witness-free
prefixes are ever expanded, which keeps the search tree tiny compared to the
raw multiset count. A walk of zero-sum multisets also drops a prefix whose
sum the elements left cannot bring back to zero: in the index layout the
elements 0..i are zero on every axis whose stride is above i.

The brute-force determination walks once: the multisets with no zero-sum
subsequence of length t (when exp(G) divides t) form a sub-multiset-closed,
finite family F, so one pruned walk lists every length at which some
multiset fails. Automorphisms of G keep F, and so do translations x -> x + g,
which move the sum of a t-subset by tg = 0. So the walk visits one
representative per orbit of the maps x -> a(x) + g (a an automorphism) only,
and a representative of length L stands for a zero-sum multiset when its sum
lies in LG = {Lg}. One cap table picks the representatives: it names, per
element, the element whose copies cap its own, which the walk reads as it
goes. No element takes more copies than the top element, and down a
stabiliser chain, none that the maps fixing every element above e carry e
to takes more than e. The cap table and the per-sum LG rows are built on
element indices, and the cap table's orbit searches stop at the walk's time
limit. A seeded walk bounds what the elements left can add by the live
caps.
One short uncapped walk then finds the first failing vector of the
one length that needs it, in colex order; when exp(G) does not divide t,
every length fails, and that walk alone answers a witness check. A claimed
value v turns the order round: the uncapped walk runs first at v - 1, and
when it finds a vector, the capped walk starts from v - 1 and skips what
cannot reach it; a witness check starts from its size. Results do not
depend on the claim, nor on how the work is partitioned across workers.

The unit of search is the chunk of vectors that share the last element's
multiplicity, whose prefix is one fold of the pack (`add_copies`). The walk
has two entry points: `_profile`, capped, over every length, and `_vectors`,
over one length or a range, each length in colex order, which the witness and
counterexample walks, enumeration and the lemma checks use (por2p's spans its
two sizes). Every walk takes the chunks in order against one running node
budget in the calling process; a pooled profile walk stops once it outgrows
the cost of starting a pool, hands each chunk left to the caller's executor
as the profile of that one chunk under the caller's cap table, and merges
them in order. Nothing here starts a worker process itself."""

from __future__ import annotations

import math
import random
import sys
import time
from array import array
from dataclasses import asdict, dataclass
from functools import lru_cache
from itertools import accumulate
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Sequence as Seq

from ._bitdp import get_pack, tile
from .engine import _find, count_zero_sum_subseqs
from .extractors import PreconditionError, _found, _square_3n, factor_smallest_prime
from .groups import Group, make_group, min_nondivisor
from .sequences import Sequence, _check_witness, serialize_sequence

if TYPE_CHECKING:
    from concurrent.futures import Executor

    from ._bitdp import GroupPack


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


def _unit_generators(n: int) -> list[int]:
    """The units mod n from 2 up that each lie outside the group the units
    before them generate: a generating set of (Z/n)^*, found in O(n)."""
    kept, spanned = [], {1}
    for u in range(2, n):
        if u in spanned or math.gcd(u, n) != 1:
            continue
        kept.append(u)
        grown, power = set(spanned), u
        while power not in spanned:  # <spanned, u>: the cosets spanned * u^k up to the first u^k in spanned
            grown |= {h * power % n for h in spanned}
            power = power * u % n
        spanned = grown
    return kept


def _moves(pack: GroupPack) -> list:
    """`_caps`' moves per coordinate: stride, modulus, unit generators,
    transvections."""
    axes = list(zip(pack.strides, pack.moduli))
    return [(s, n, _unit_generators(n),
             [(r, m, n // math.gcd(n, m)) for j, (r, m) in enumerate(axes) if j != i and math.gcd(n, m) > 1])
            for i, (s, n) in enumerate(axes)]


def _fixing(moves: list, y: int) -> list:
    """The moves of `moves` that fix element index y, without the
    coordinates that have none left."""
    kept = []
    for s, n, units, shears in moves:
        c = y // s % n
        units = [u for u in units if c * (u - 1) % n == 0]
        shears = [(r, m, k) for r, m, k in shears if k * (y // r % m) % n == 0]
        if units or shears:
            kept.append((s, n, units, shears))
    return kept


def _images(y: int, moves: list) -> set[int]:
    """The indices that `moves` send element index y to."""
    images = set()
    for s, n, units, shears in moves:
        c = y // s % n
        for u in units:
            images.add(y + (c * u % n - c) * s)
        for r, m, k in shears:
            images.add(y + ((c + k * (y // r % m)) % n - c) * s)
    return images


def _caps(moduli: tuple[int, ...], deadline: float) -> tuple[int, ...]:
    """The walk's cap table, sound when exp(G) divides the target: entry x
    is the index of the element whose copies cap those of element x, or |G|
    for no cap.

    The top element caps every other element, the identity included:
    translations are transitive, so some translate of each multiset has its
    most frequent element on top. Below it the table follows a stabiliser
    chain of the maps x -> top + a(x - top), which fix the top. For each e
    from |G| - 2 down to 2, let H_e be the group those maps generate that
    also fix every element above e: e is the highest index of its H_e-orbit,
    so a representative that takes the most copies of the top, then of
    |G| - 2, and so on down to e, has no element of that orbit above e's
    multiplicity, and e caps the rest of its orbit. A deeper level overrides
    an earlier cap of the same element; both caps hold for that
    representative. The chain stops when no move is left. Any subgroup of
    H_e is sound to cap with, so the moves need only be a fixed set.

    The moves act on x - top, over element indices. Coordinate i (modulus
    n, stride s) moves by scaling by a unit mod n, from a generating set of
    the units (`_unit_generators`), and by x_i += (n / gcd(n, n_j)) x_j for
    each other coordinate j, an automorphism since n_j times that factor is
    a multiple of n; a move from digit c = y // s % n to v sends index y to
    y + (v - c) s. Swaps add nothing: x_i += x_j, x_j -= x_i, x_i += x_j
    gives (b, -a), then scaling by -1 gives (b, a). Level e keeps the moves
    of the level above that fix e + 1 - top (`_fixing`), and searches the
    orbit of e - top under them. The clock is read once per element
    expanded, at every level, against `deadline`."""
    pack = get_pack(moduli, 0)
    top = pack.order - 1
    caps = [top] * top + [pack.order]
    moves = _moves(pack)
    minus_top = pack.plus(pack.index(tuple(1 % n for n in moduli)))  # x -> x - top
    plus_top = pack.plus(top)
    for e in range(top - 1, 1, -1):
        moves = _fixing(moves, minus_top[e + 1])
        if not moves:
            break
        start = minus_top[e]
        seen, frontier = {start}, [start]
        while frontier:
            if time.monotonic() > deadline:
                raise BudgetExceeded("wall-clock budget exhausted")
            images = _images(frontier.pop(), moves) - seen
            seen |= images
            frontier += images
        for y in seen - {start}:
            caps[plus_top[y]] = e
    return tuple(caps)


@lru_cache(maxsize=64)
def _zero_lengths(moduli: tuple[int, ...], length: int) -> tuple[int, ...]:
    """Per sum index s, the lengths L <= `length` (as bit L) at which a leaf
    of sum s stands for a zero-sum multiset when exp(G) divides the target:
    s in LG = {Lg}, which holds when gcd(L, n_i) divides the i-th coordinate
    c of s, or equally gcd(c, n_i), for every i. So a row repeats with period
    exp(G), and one period is the AND of one pattern per coordinate, picked
    by gcd(c, n_i): the periods are built coordinate by coordinate in the
    index layout of `pack.plus`, and each distinct period is tiled out to
    `length` once and shared by its sums (Z/n has d(n) of them, an
    elementary abelian group 2)."""
    e = math.lcm(*moduli)
    period = [(1 << e) - 1]
    for n in moduli:
        gcds = [math.gcd(c, n) for c in range(n)]
        bits = {g: sum(1 << L for L in range(e) if g % math.gcd(L, n) == 0) for g in set(gcds)}
        period = [p & bits[g] for p in period for g in gcds]
    every = (1 << (length + 1)) - 1
    rows = {p: tile(p, e, every) for p in set(period)}
    return tuple(rows[p] for p in period)


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
    caps: tuple[int, ...] = (),
    zero_sum: bool = False,
    spent: int = 0,
    until: float = math.inf,
) -> tuple[int, int]:
    """Depth-first walk over the given chunks (last multiplicities, in
    order) of the multisets of size at most `length` with no zero-sum
    subsequence of length `target`, in colex order: the last element's
    multiplicity varies slowest. A chunk's `outer` copies of that element
    are one `pack.add_copies` fold, counted as `outer` nodes (`_chunks` gives
    no outer that holds a witness); below them the mask grows one copy at a
    time, and a prefix whose mask has a witness cuts its whole subtree.

    A leaf assigns every nonidentity element. With size a and sum s, it
    stays witness-free under r copies of element 0 (the identity) exactly
    for r <= rmax < target (more copies only add subsequences), so it
    covers the lengths a..hi with hi = a + min(rmax, cap of element 0).
    `emit(mults, a, hi, s)` sees each leaf with rmax >= need[0] - a (with
    `zero_sum`, only those with s = 0), with mults[0] unset; it may raise
    `need` up to length + target, which no leaf reaches, and stops the walk
    by returning true. At each chunk start the walk raises need[0] to the
    chunk's outer multiplicity, which no leaf of the chunk is shorter than,
    so a walk may start at any chunk. The node count starts at `spent`; the
    walk raises once it passes `max_nodes` (a prefix that passes it reports
    the first node past the cap), or once the clock passes `deadline`, which
    it reads at each chunk start (so a walk whose setup outlasts its time
    limit stops before its first node) and every 1,024 nodes; when the mask
    is wider than 2^20 bits, a node costs tens of microseconds or more, and
    it reads the clock at every node. It stops at the first chunk end where
    its nodes pass `until`, leaving the chunks not started in `outers`. It
    returns (nodes, leaves reached).

    `caps` is a cap table (see `_caps`); an empty one walks uncapped.
    Element i takes at most mults[caps[i]] copies, read when it starts
    taking them; `mults` has one slot past the elements, which holds
    `length`, so entry |G| caps nothing. Each entry lies above its element,
    so the element that caps it already has its copies, and is the top, |G|
    or element 2 or higher, so the leaf loop of element 1 reads the caps of
    elements 0 and 1 once. When exp(G) divides the target, no element takes
    target copies, and under caps none takes more than the chunk's `outer`
    copies of the top, where every cap chain ends. So at each chunk start
    the walk sets room[i] = most(i + 1) + length - max(seed, outer), with
    most = min(target - 1, outer) when capped and min(target - 1, length)
    otherwise, and seed the need[0] it was called with. An element i with
    more than room[i] copies left for elements 0..i reaches no leaf that
    covers a length of max(seed, outer) or more, and is skipped. Under
    caps, each time a cap level (an element that some entry names, below
    the top) has taken its copies, the step of the element below it first
    sets room below the level: room[x] is the sum over j <= x of
    min(target - 1, mults[a_j]) plus length - max(seed, outer), where a_j,
    the anchor of j, is the first element of j's cap chain at or above the
    level. An element of the chain below the level has no copies yet, so it
    stands for its own bound, which is its cap's. The seed, not the need[0]
    that rises during the walk, sets `room`, so the nodes do not depend on
    how the chunks are split among walks. A capped walk seeded at 0 skips
    nothing, as no leaf of a chunk is shorter than `outer`, and an uncapped
    walk has no cap level.

    With `zero_sum`, a prefix that has fixed the elements above i returns
    at once, at no node, when its sum s >= floor[i], the least stride above
    i (|G| if none): s is then nonzero on an axis of stride above i, where
    each of the elements 0..i left is zero. Without `zero_sum` every floor
    is |G|, which no sum reaches.

    The prefix sum is one element index: outer times the top element's
    coordinates, then advanced through a row of `pack.plus` per copy. An
    element's row and rotation parts are built when it first takes a copy,
    so a walk cut short builds few of them. A leaf's rmax is target - 1
    less the largest count at which its mask holds sum 0, read only once
    the leaf's sum passes; for a leaf with room for r more copies,
    need[0] - a is need[0] + r - length. No table grows with `length` or
    the target. Element 1 runs its leaves in its own loop, `step[i]` walks
    element i (through the room update when element i + 1 is a cap level),
    and the node count travels through arguments and return
    values. The rotation masks of `pack.parts` span the packed width, so a
    grown mask needs no truncation.
    """
    pack = get_pack(moduli, target)
    order = pack.order
    plus: list = [None] * order  # element rows and rotation parts, built on first use
    parts: list = [None] * order
    probe_top = 1 << (target * order)
    zeros = tile(1, order, (probe_top << 1) - 1)  # sum 0 at counts 0..target
    last_r = target - 1
    tick = 0x3FF if pack.width <= 1 << 20 else 0  # clock reads: every 1,024 nodes, or every wide node
    capped = bool(caps)
    caps = caps or (order,) * order
    floor = [order] * order  # a prefix sum at or past floor[i] misses zero whatever 0..i add
    if zero_sum:
        for r in sorted(pack.strides, reverse=True):  # floor[i]: the least stride above i
            floor[:r] = [r] * r
    divides = target % math.lcm(*moduli) == 0
    seed = need[0]
    room = [length] * order  # copies left for elements 0..i that a leaf reaching the seed allows
    leaves = 0
    mults = [0] * order + [length]  # past the elements: the copies that cap |G| allows

    def last(i: int, b: int, s: int, mask: int, nodes: int) -> int:
        """Element i = 1 with its leaves: b - r copies of it, room for r more."""
        nonlocal leaves
        if b > room[1] or s >= floor[1]:
            return nodes
        if plus[i] is None:
            plus[i], parts[i] = pack.plus(i), pack.parts(i)
        plus_i = plus[i]
        ((lo, up, down, lod),) = parts[i]  # element 1 has one nonzero coordinate
        r_min = max(b - mults[caps[1]], 0)
        fill = mults[caps[0]]
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
            if not nodes & tick and time.monotonic() > deadline:
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
        if b > room[i] or s >= floor[i]:
            return nodes
        below = step[i - 1]
        mults[i] = 0
        nodes = below(i - 1, b, s, mask, nodes)
        copies = min(b, mults[caps[i]])
        if copies and plus[i] is None:
            plus[i], parts[i] = pack.plus(i), pack.parts(i)
        plus_i = plus[i]
        parts_i = parts[i]
        for j in range(1, copies + 1):
            nodes += 1
            if nodes > max_nodes:
                raise _budget_error(nodes, max_nodes)
            if not nodes & tick and time.monotonic() > deadline:
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

    top = order - 1
    step: list[Callable[..., int]] = [last, last] + [dfs] * (order - 2)
    least = 0  # length - max(seed, outer) in the chunk walked

    def placed(level: int) -> Callable[..., int]:
        """Element level - 1's step, which first sets room below `level` from
        the live caps: the anchor of x is the first element of its cap chain
        at or above the level, which has its copies."""
        inner, anchor = step[level - 1], list(caps[:level])
        for x in range(level - 1, -1, -1):
            if anchor[x] < level:
                anchor[x] = anchor[anchor[x]]

        def below_level(i: int, b: int, s: int, mask: int, nodes: int) -> int:
            bounds = [min(last_r, mults[a]) for a in anchor]
            bounds[0] += least
            room[:level] = accumulate(bounds)
            return inner(i, b, s, mask, nodes)

        return below_level

    if capped:
        for level in set(caps[:top]) - {top}:
            step[level - 1] = placed(level)
    nodes = spent
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, order + 200))  # the walk takes one frame per element
    try:
        for outer in outers:
            if time.monotonic() > deadline:
                raise BudgetExceeded("wall-clock budget exhausted")
            if need[0] < outer:
                need[0] = outer
            if nodes + outer > max_nodes:  # nodes <= max_nodes here: the first node past is max_nodes + 1
                raise _budget_error(max_nodes + 1, max_nodes)
            nodes += outer
            mask = pack.add_copies(pack.initial, top, outer)
            s = pack.index(tuple(outer * c % m for c, m in zip(pack.coords(top), moduli)))
            mults[top] = outer
            if divides:  # every cap chain of a capped walk ends at the top, which has outer copies
                most, least = min(last_r, outer if capped else length), length - max(seed, outer)
                room[:] = [most * i + least for i in range(1, order + 1)]
            b = length - outer
            if top >= 2:
                nodes = step[top - 1](top - 1, b, s, mask, nodes)
            else:  # the chunk is one leaf
                leaves += 1
                if not (zero_sum and s):
                    rmax = last_r - ((mask & zeros).bit_length() - 1) // order
                    if rmax >= need[0] - outer and emit(mults, outer, outer + min(rmax, mults[caps[0]]), s):
                        break
            if nodes > until:
                break
    except _Stop as stop:
        nodes = stop.args[0]
    finally:
        sys.setrecursionlimit(limit)
    return nodes, leaves


def _vectors(
    moduli: tuple[int, ...], target: int, length: int, zero_sum: bool,
    visit: Callable[[list[int]], bool | None], max_nodes: int, deadline: float, spent: int = 0,
    shortest: int | None = None,
) -> tuple[tuple[int, ...] | None, int, int]:
    """The uncapped walk over the multiplicity vectors of `shortest` (by
    default `length`) to `length` elements with no zero-sum subsequence of
    length `target` (with `zero_sum`, only the zero-sum ones). A leaf hands
    them over in order of length, so those of one length come in colex
    order, `_walk`'s order at one length: `visit` gets each vector whole, as
    a new list it may keep, and stops the walk by returning true (always, to
    find the first vector). The node count continues from `spent` against
    the same cap. Returns (the vector it stopped at or None, nodes, leaves)."""
    shortest = length if shortest is None else shortest
    stopped = []

    def emit(mults: list[int], a: int, hi: int, s: int) -> bool | None:
        for size in range(max(a, shortest), min(hi, length) + 1):
            mults[0] = size - a
            if visit(vector := mults[:-1]):
                stopped.append(tuple(vector))
                return True

    nodes, leaves = _walk(moduli, target, length, _chunks(moduli, target, length), [shortest], emit,
                          max_nodes, deadline, zero_sum=zero_sum, spent=spent)
    return (stopped[0] if stopped else None), nodes, leaves


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

    def visit(mults: list[int]) -> None:
        stats.visited += 1
        visitor(_sequence_of(group, mults))

    _vectors(
        group.moduli, length + 1 if target is None else target, length, zero_sum_only, visit,
        budget.max_nodes, time.monotonic() + budget.max_seconds,
    )
    return stats


# ---------------------------------------------------------------------------
# Failing lengths (the brute-force core)


class _Profile(NamedTuple):
    """The lengths up to the walk's at which some zero-sum multiset has no
    zero-sum subsequence of the target length (`zero`, bit L set for length
    L), the largest length at which some multiset has none (`top`), then the
    nodes expanded and the leaves reached. The walk visits one representative
    per orbit, so the lengths are exact but it names no colex-first
    multiset; a `_vectors` walk stopped at its first vector does."""

    zero: int
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
    caps: tuple[int, ...] = (),
    seed: int = 0,
) -> _Profile:
    """The profile of one walk up to `length` over the given chunks (by
    default all of them) under the cap table `caps`, by default the one
    `_caps` builds; exp(G) must divide the target. The pack's size check
    runs first, so a walk too wide to pack fails before the LG rows of
    `_zero_lengths`, which grow with `length`, and the cap table's orbit
    searches run after them, once per run.
    Then translations keep the family walked, so the walk visits one
    representative per orbit of the maps x -> a(x) + g, and a leaf of sum s
    counts toward `zero` at each length L it covers with s in LG. One `need`
    serves every leaf: the smallest length from `seed` not yet in `zero`.
    Chunk v holds v copies of the top element, a translate of v copies of
    the identity, so a walk from chunk 0 has every length from the seed
    below v in `zero` by chunk v, and the walk's floor of v there changes no
    leaf. A walk seeded at L skips what cannot reach L (see `_walk`), and
    its profile holds no length below L: it is exact from L up (`top`
    included) when L itself fails for some multiset, zero-sum for `zero`.
    The walk draws on the node budget that `spent` nodes left; the profile
    counts its own nodes only.

    One walk in the calling process takes the chunks in order against the
    running budget: all of them without a pool, and with one until its nodes
    pass `_POOL_START_NODES`, so a small walk starts no worker process and a
    larger one starts them only once the walk's tables are built, which
    forked workers inherit. Each chunk left then goes to the pool as the
    profile of that one chunk, with the caller's cap table, seed and the
    budget the caller left, so no chunk builds the cap table again. The chunks
    are the same at any worker count and merge in walk order, so the lengths
    and the node counts do not depend on scheduling; once the finished nodes
    pass the cap, the chunks not yet started are cancelled and the run
    raises: the pooled part overspends by at most one chunk per worker.
    """
    get_pack(moduli, target)
    lengths = _zero_lengths(moduli, length)
    chunks = iter(_chunks(moduli, target, length) if outers is None else outers)
    caps = caps or _caps(moduli, deadline)
    zero = 0  # bit L: length L is known to fail for some zero-sum multiset
    top = -1
    need = [seed]

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
        caps=caps, spent=spent, until=math.inf if pool is None else _POOL_START_NODES,
    )
    futures = [  # without a pool the walk has taken every chunk
        pool.submit(_profile, moduli, target, length, None, max_nodes, deadline, (v,), nodes, caps, seed)
        for v in chunks
    ]
    try:
        for future in futures:
            part = future.result()
            nodes += part.nodes
            if nodes > max_nodes:
                raise _budget_error(nodes, max_nodes)
            zero |= part.zero
            top = max(top, part.top)
            leaves += part.leaves
    finally:
        for future in futures:
            future.cancel()
    return _Profile(zero >> seed << seed, top, nodes - spent, leaves)


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
    then draws on the same node budget, and every walk counts in the stats.
    With a `pool`, the capped walk's chunks run on that executor; the
    witness walk is serial either way.

    A claim c with 2 <= c <= (t - 1)|G| + 1 runs the witness walk at c - 1
    first. If it finds a vector, c - 1 fails, and the capped walk seeded
    there gives s' and s_t(G) from c - 1 up; that vector is the witness when
    s' = c, and the witness walk runs again at s' - 1 otherwise. If it finds
    none, the run walks as with no claim. So the claim moves only the stats.
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
    moduli, length = group.moduli, (t - 1) * group.order

    def first(at: int, spent: int) -> tuple[tuple[int, ...] | None, int, int]:
        return _vectors(moduli, t, at, True, lambda vector: True, budget.max_nodes, deadline, spent)

    vector, nodes, leaves, seed = None, 0, 0, 0
    if claimed_value is not None and 2 <= claimed_value <= length + 1:
        vector, nodes, leaves = first(claimed_value - 1, 0)
        seed = 0 if vector is None else claimed_value - 1
    profile = _profile(moduli, t, length, pool, budget.max_nodes, deadline, spent=nodes, seed=seed)
    nodes, leaves = nodes + profile.nodes, leaves + profile.leaves
    # Length 0 always fails for t >= 1: the empty sequence is zero-sum and has
    # no length-t subsequence.
    last_fail = profile.zero.bit_length() - 1
    computed = last_fail + 1
    if vector is None or last_fail > seed:  # no vector yet at s' - 1
        vector, nodes, more = first(last_fail, nodes)
        leaves += more
    stats = SearchStats(
        nodes_visited=nodes,
        sequences_checked=leaves,
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
    counterexample walk runs. Otherwise the capped walk is seeded at `size`,
    and the check passes when no leaf reaches it."""
    if target < 1 or size < 0:
        raise ValueError(f"need target >= 1 and size >= 0, got target={target}, size={size}")
    budget = budget or SearchBudget()
    start = time.monotonic()
    deadline = start + budget.max_seconds
    passed, checked, spent = False, 0, 0
    if target % group.exponent == 0:
        profile = _profile(group.moduli, target, size, pool, budget.max_nodes, deadline, seed=size)
        passed, checked, spent = profile.top < size, profile.leaves, profile.nodes
    counterexample = None
    if not passed:
        vector, _, leaves = _vectors(
            group.moduli, target, size, False, lambda vector: True, budget.max_nodes, deadline, spent
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

    The hypothesis cases are exactly the multiplicity vectors with no
    zero-sum subsequence of length p, which one `_vectors` walk lists for
    both sizes, each in colex order. At p = 2 every one is checked; otherwise
    `count` uniform draws from them at each size are. A case becomes a
    `Sequence` only when it is counted. `vacuous` counts the multisets of
    both sizes that lie outside the hypothesis. The walk draws on the node
    budget once; one deadline covers the walk and the counting.
    """
    if p < 2 or factor_smallest_prime(p)[0] != p:
        raise PreconditionError(f"p must be prime, got {p}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    mode = "exhaustive" if p == 2 else "sample"
    budget = budget or SearchBudget()
    start = time.monotonic()
    deadline = start + budget.max_seconds
    group = make_group([p, p])
    sizes = (3 * p - 2, 3 * p - 1)
    rng = random.Random(seed)
    checked = vacuous = violations = 0
    counterexample = None
    by_size: tuple[list[array], list[array]] = ([], [])  # each case as an array of counts below p
    _vectors(group.moduli, p, sizes[1], False, lambda v: by_size[sum(v) - sizes[0]].append(array("H", v)),
             budget.max_nodes, deadline, shortest=sizes[0])
    for size, cases in zip(sizes, by_size):
        vacuous += math.comb(size + group.order - 1, size) - len(cases)
        if mode == "sample" and cases:
            cases = rng.choices(cases, k=count)
        for mults in cases:
            if time.monotonic() > deadline:
                raise BudgetExceeded("wall-clock budget exhausted")
            checked += 1
            seq = _sequence_of(group, mults)
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


def _pick(index: int, blocks: Iterable[tuple[int, object]]) -> tuple[object, int]:
    """The choice whose block of indices holds `index`, and the offset of
    `index` into that block; `blocks` yields (size, choice) in index order."""
    for size, choice in blocks:
        if index < size:
            return choice, index
        index -= size
    raise ValueError("index out of range")


def _zero_sum_ranks(n: int, length: int, deadline: float) -> tuple[int, Callable[[int], list[int]]]:
    """The number of zero-sum multisets of `length` elements over (Z/n)^2,
    and the map from each index below it to one of them, a multiplicity
    vector in the pack's index layout. Each such multiset has exactly one
    index, so `rng.randrange(total)` draws them uniformly.

    The elements fall into n classes by first coordinate. suffix[a][r][g]
    counts the multisets of r elements whose first coordinates are >= a and
    whose sum is g (a pack index); within[b][r][h] counts the multisets of r
    elements of any one class whose second coordinates are >= b and sum to
    h mod n. An index picks, class by class, the class's size r and second
    sum h, then the class's multiplicities. The counts are exact integers.
    Building the tables reads the deadline once per class.
    """
    pack, order = get_pack((n, n), 0), n * n

    def start(width: int) -> list[list[int]]:  # the empty multiset only
        return [[1] + [0] * (width - 1)] + [[0] * width for _ in range(length)]

    def add(table: list[list[int]], minus: list[int]) -> list[list[int]]:
        # Any number of copies of one more element; minus[g] is g minus it.
        rows = [table[0]]
        for row in table[1:]:
            prev = rows[-1]
            rows.append([x + prev[j] for x, j in zip(row, minus)])
        return rows

    within = [start(n)]
    for b in range(n - 1, -1, -1):
        within.append(add(within[-1], [(h - b) % n for h in range(n)]))
    within.reverse()
    suffix = [start(order)]
    for a in range(n - 1, -1, -1):
        if time.monotonic() > deadline:
            raise BudgetExceeded("wall-clock budget exhausted")
        table = suffix[-1]
        for b in range(n):
            table = add(table, pack.plus(pack.index((-a % n, -b % n))))
        suffix.append(table)
    suffix.reverse()
    sizes = within[0]

    def multiset(index: int) -> list[int]:
        mults = [0] * order
        # The classes from a on hold `left` elements that sum to (g1, g2).
        left, g1, g2 = length, 0, 0
        for a in range(n):
            rest = suffix[a + 1]
            (r, h), index = _pick(index, (
                (ways * rest[left - r][(g1 - a * r) % n * n + (g2 - h) % n], (r, h))
                for r in range(left + 1) for h, ways in enumerate(sizes[r])
            ))
            index, inner = divmod(index, sizes[r][h])
            left, g1, g2 = left - r, (g1 - a * r) % n, (g2 - h) % n
            for b in range(n):
                if not r:
                    break
                below = within[b + 1]
                m, inner = _pick(inner, ((below[r - m][(h - m * b) % n], m) for m in range(r + 1)))
                mults[a * n + b] = m
                r, h = r - m, (h - m * b) % n
        return mults

    return suffix[0][length][0], multiset


def check_lemma_3n(
    n: int,
    samples: int = 1000,
    seed: int = 0,
    budget: SearchBudget | None = None,
) -> PropertyReport:
    """Zero-sum multisets of size 3n over (Z/n)^2 always yield a length-n
    witness, and the block-recursive extractor succeeds on each of them.

    Exhaustive when the instance space is desk-sized (n <= 3), in the order
    of `enumerate_multisets`, and otherwise `samples` uniform draws, one
    `_zero_sum_ranks` index each; every draw counts against the node budget.
    `_find` and the extractor's `_square_3n` run on counts, each witness is
    validated once by a `Witness`'s rules (a failure, the program's fault,
    raises AssertionError), and only a counterexample's text builds a
    `Sequence`.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
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
        for witness in (found, _found(_square_3n(moduli, items, n), "block selection")):
            _check_witness(moduli, witness, counts, n, error=AssertionError)

    if exhaustive:  # as enumerate_multisets, in its order
        _vectors(moduli, length + 1, length, True, run_one, budget.max_nodes, deadline)
    else:
        rng = random.Random(seed)
        total, multiset = _zero_sum_ranks(n, length, deadline)
        for draws in range(1, samples + 1):
            if draws > budget.max_nodes or time.monotonic() > deadline:
                raise BudgetExceeded(f"sampling budget exhausted after {draws} draws")
            run_one(multiset(rng.randrange(total)))

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
    if samples is not None and samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
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
    if t_values is not None and suite != "cyclic":
        raise ValueError(f"t values apply only to the cyclic suite, not {suite!r}")
    defaults, report = suites[suite]
    ns = list(defaults if n_values is None else n_values)
    ts = [1] if t_values is None else list(t_values)
    return [report(n, t) for t in ts for n in ns]
