"""Closed-form constants, exhaustive multiset searches, and theorem checks.

One search kernel serves every exhaustive walk here. It visits
multiplicity vectors depth-first in colex order while it maintains the packed
reachability mask of the prefix: as soon as the prefix itself contains a
zero-sum subsequence of the target length, every completion does too, so the
whole subtree is resolved without being enumerated. Only witness-free
prefixes are ever expanded, which keeps the search tree tiny compared to the
raw multiset count.

The brute-force determination scans sequence lengths upward and asks, per
length, whether every zero-sum multiset of that size has a witness: the first
multiset the kernel emits is a counterexample. Failures are reported in colex
order of the multiplicity vector, so results do not depend on how the work is
partitioned across workers.

The unit of search is the chunk of vectors that share the last element's
multiplicity. Enumeration and the serial scan walk the chunks of a length in
order against one running node budget; a pooled scan hands the same chunks
to its workers."""

from __future__ import annotations

import math
import random
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence as Seq

from ._bitdp import get_pack
from .engine import count_zero_sum_subseqs, find_zero_sum_subseq
from .extractors import PreconditionError, extract_square_3n
from .groups import Group, make_group, min_nondivisor
from .sequences import Sequence, serialize_sequence


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


def harborth_bounds(n: int, r: int) -> tuple[int, int]:
    """((n-1) 2^r + 1, (n-1) n^r + 1): bounds for the unrestricted constant."""
    if n < 1 or r < 1:
        raise ValueError(f"need n >= 1 and r >= 1, got n={n}, r={r}")
    return (n - 1) * 2**r + 1, (n - 1) * n**r + 1


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

    def to_jsonable(self) -> dict:
        return {
            "nodes_visited": self.nodes_visited,
            "sequences_checked": self.sequences_checked,
            "wall_ms": self.wall_ms,
        }


@dataclass
class EnumerationStats:
    visited: int = 0
    nodes: int = 0
    wall_ms: int = 0


# ---------------------------------------------------------------------------
# The search kernel


def _chunks(moduli: tuple[int, ...], length: int) -> range:
    """The outer multiplicities that partition the walk of one length: every
    multiplicity of the last element, or one chunk for the trivial group."""
    return range(length + 1) if math.prod(moduli) > 1 else range(1)


def _budget_error(length: int, nodes: int, max_nodes: int) -> BudgetExceeded:
    return BudgetExceeded(
        f"node budget exhausted at length {length}: {nodes} nodes, {max_nodes} allowed"
    )


class _Stop(Exception):
    """`emit` asked the walk to stop; args[0] is the node count so far."""


def _walk(
    moduli: tuple[int, ...],
    target: int,
    length: int,
    zero_sum_only: bool,
    outer: int,
    emit: Callable[[list[int]], bool | None],
    max_nodes: int,
    deadline: float,
    spent: int,
) -> tuple[int, int]:
    """Depth-first walk over one chunk of the multiplicity vectors of size
    `length`: those whose last multiplicity equals `outer`, in colex order
    (the last element's multiplicity varies slowest).

    The packed reachability mask of the prefix grows one copy at a time. A
    prefix that already has a zero-sum subsequence of length `target` cuts
    its whole subtree, so `emit` sees exactly the multisets without one
    (zero-sum ones only, with zero_sum_only). Target length + 1 prunes
    nothing. `emit` gets the live multiplicity list; a true return stops the
    chunk. Nodes count on from `spent`, and the walk raises once they pass
    `max_nodes`. Returns (spent + nodes expanded, complete multisets reached).

    The prefix sum is one element index, advanced through `pack.plus`, so
    the zero-sum test is `s != 0`. Element 0 is the identity: a leaf whose
    last b copies are element 0 has a witness iff its mask meets `pad[b]`,
    the bits of count target - j and sum 0 for j <= min(b, target). The
    level of element 1 runs its leaves in its own loop, with no call per
    leaf, and the node count travels through arguments and return values.
    The rotation masks of `pack.parts` span the packed width, so a grown
    mask needs no truncation.
    """
    pack = get_pack(moduli, target)
    order = pack.order
    plus = pack.plus
    parts = pack.parts
    probe_top = 1 << (target * order)
    pad = [0] * (length + 1)
    bits = 0
    for b in range(length + 1):
        if b <= target:
            bits |= 1 << ((target - b) * order)
        pad[b] = bits

    any_sum = not zero_sum_only
    leaves = 0
    mults = [0] * order

    def last(i: int, b: int, s: int, mask: int, nodes: int) -> int:
        """Element i = 1 with its leaves: b - r copies of it, then r of element 0."""
        nonlocal leaves
        plus_i = plus[i]
        ((lo, up, down, lod),) = parts[i]  # element 1 has one nonzero coordinate
        for r in range(b, -1, -1):
            if (any_sum or not s) and not mask & pad[r]:
                mults[i] = b - r
                mults[0] = r
                if emit(mults):
                    leaves += b - r + 1
                    raise _Stop(nodes)
            if not r:
                break
            nodes += 1
            if nodes > max_nodes:
                raise _budget_error(length, nodes, max_nodes)
            if not nodes & 0x3FF and time.monotonic() > deadline:
                raise BudgetExceeded("wall-clock budget exhausted")
            moved = mask << order
            mask |= ((moved & lo) << up) | ((moved >> down) & lod)
            if mask & probe_top:
                leaves += b - r + 1
                return nodes  # prefix already has a witness: subtree has no failures
            s = plus_i[s]
        leaves += b + 1
        return nodes

    def dfs(i: int, b: int, s: int, mask: int, nodes: int) -> int:
        """Element i >= 2: 0..b copies of it, each followed by the levels below."""
        below = dfs if i > 2 else last
        mults[i] = 0
        nodes = below(i - 1, b, s, mask, nodes)
        plus_i = plus[i]
        parts_i = parts[i]
        for j in range(1, b + 1):
            nodes += 1
            if nodes > max_nodes:
                raise _budget_error(length, nodes, max_nodes)
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

    top = order - 1
    nodes = spent
    mask = pack.initial
    s = 0
    if top:
        plus_top = plus[top]
        parts_top = parts[top]
        for _ in range(outer):
            nodes += 1
            if nodes > max_nodes:
                raise _budget_error(length, nodes, max_nodes)
            moved = mask << order
            for lo, up, down, lod in parts_top:
                moved = ((moved & lo) << up) | ((moved >> down) & lod)
            mask |= moved
            if mask & probe_top:
                return nodes, leaves
            s = plus_top[s]
        mults[top] = outer
    b = length - outer
    try:
        if top >= 2:
            nodes = (dfs if top > 2 else last)(top - 1, b, s, mask, nodes)
        else:  # the chunk is one multiset
            leaves = 1
            if (any_sum or not s) and not mask & pad[b]:
                mults[0] = b
                emit(mults)
    except _Stop as stop:
        (nodes,) = stop.args
    return nodes, leaves


def _walk_chunks(
    moduli: tuple[int, ...],
    target: int,
    length: int,
    zero_sum_only: bool,
    outers: Iterable[int],
    emit: Callable[[list[int]], bool | None],
    max_nodes: int,
    deadline: float,
) -> tuple[int, int]:
    """Walk the given chunks in order against one running node budget.
    Returns (nodes expanded, complete multisets reached) over all of them."""
    depth = math.prod(moduli) + 200  # the walk takes one frame per element
    if sys.getrecursionlimit() < depth:
        sys.setrecursionlimit(depth)
    nodes = leaves = 0
    for outer in outers:
        nodes, reached = _walk(
            moduli, target, length, zero_sum_only, outer, emit, max_nodes, deadline, nodes
        )
        leaves += reached
    return nodes, leaves


def _sequence_of(group: Group, mults: Seq[int]) -> Sequence:
    """The multiset with the given multiplicity vector, indexed as the kernel
    indexes the group's elements."""
    elements = get_pack(group.moduli, 0).elements
    return Sequence(group, {elements[i]: m for i, m in enumerate(mults) if m})


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
    start = time.monotonic()
    stats = EnumerationStats()

    def emit(mults: list[int]) -> None:
        stats.visited += 1
        visitor(_sequence_of(group, mults))

    stats.nodes, _ = _walk_chunks(
        group.moduli,
        length + 1 if target is None else target,
        length,
        zero_sum_only,
        _chunks(group.moduli, length),
        emit,
        budget.max_nodes,
        start + budget.max_seconds,
    )
    stats.wall_ms = int((time.monotonic() - start) * 1000)
    return stats


# ---------------------------------------------------------------------------
# Pruned universal-verdict scan (the brute-force core)


def _probe_chunks(args: tuple) -> tuple[tuple[int, ...] | None, int, int]:
    """Search the given outer-multiplicity chunks for a multiset of the given
    size with no witness of the target length (and, optionally, zero total
    sum). Each chunk is searched up to its own first failure.

    Returns (first failing multiplicity vector in colex order or None,
    nodes expanded, complete multisets examined). Pure function of its
    arguments, so results are independent of scheduling.
    """
    moduli, target, length, zero_sum_only, outers, max_nodes, deadline = args
    found: list[tuple[int, ...]] = []

    def emit(mults: list[int]) -> bool:
        found.append(tuple(mults))
        return True

    nodes, leaves = _walk_chunks(
        moduli, target, length, zero_sum_only, outers, emit, max_nodes, deadline
    )
    return (found[0] if found else None), nodes, leaves


def _probe_length(
    moduli: tuple[int, ...],
    target: int,
    length: int,
    zero_sum_only: bool,
    pool: ProcessPoolExecutor | None,
    max_nodes: int,
    deadline: float,
) -> tuple[tuple[int, ...] | None, int, int]:
    """Universal verdict for one length, partitioned by outer multiplicity.

    The partition is the same regardless of worker count, and each chunk is
    searched exhaustively up to its own first failure, so the aggregated
    verdict, failing vector, and node counts are scheduling-independent.
    The node budget caps the running total of a serial run, and the sum
    over all chunks of a pooled one.
    """
    chunks = _chunks(moduli, length)
    if pool is None:
        return _probe_chunks((moduli, target, length, zero_sum_only, chunks, max_nodes, deadline))
    tasks = [(moduli, target, length, zero_sum_only, (v,), max_nodes, deadline) for v in chunks]
    results = list(pool.map(_probe_chunks, tasks))
    nodes = sum(r[1] for r in results)
    if nodes > max_nodes:
        raise _budget_error(length, nodes, max_nodes)
    leaves = sum(r[2] for r in results)
    fail = next((r[0] for r in results if r[0] is not None), None)
    return fail, nodes, leaves


# ---------------------------------------------------------------------------
# Reports


TAIL_NOTE = (
    "all-lengths-at-least-v quantifier verified only on the finite window; "
    "larger lengths rest on the closed-form theorems"
)


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
    note: str = TAIL_NOTE

    @property
    def discrepancy(self) -> bool:
        return self.claimed_value is not None and self.claimed_value != self.computed_value

    @property
    def ok(self) -> bool:
        return not self.discrepancy

    def to_jsonable(self) -> dict:
        return {
            "type": "constant",
            "group": self.group,
            "target": self.target,
            "claimed_value": self.claimed_value,
            "computed_value": self.computed_value,
            "status": "DISCREPANCY" if self.discrepancy else "OK",
            "extremal_witness": self.extremal_witness,
            "window_lo": self.window[0],
            "window_hi": self.window[1],
            "stats": self.stats.to_jsonable(),
            "note": self.note,
        }


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
        return {
            "type": "property",
            "name": self.name,
            "params": dict(sorted(self.params.items())),
            "passed": self.passed,
            "checked": self.checked,
            "violations": self.violations,
            "vacuous": self.vacuous,
            "counterexample": self.counterexample,
            "wall_ms": self.wall_ms,
            "note": self.note,
        }


def reports_to_csv(reports: Iterable[ConstantReport | PropertyReport]) -> str:
    """CSV summary; constant reports use the stable canonical columns."""
    import csv
    import io

    out = io.StringIO()
    reports = list(reports)
    if all(isinstance(r, ConstantReport) for r in reports):
        writer = csv.writer(out)
        writer.writerow(
            [
                "group",
                "t",
                "claimed",
                "computed",
                "window_lo",
                "window_hi",
                "witness",
                "wall_ms",
                "sequences_checked",
            ]
        )
        for r in reports:
            writer.writerow(
                [
                    r.group,
                    r.target,
                    "" if r.claimed_value is None else r.claimed_value,
                    r.computed_value,
                    r.window[0],
                    r.window[1],
                    r.extremal_witness,
                    r.stats.wall_ms,
                    r.stats.sequences_checked,
                ]
            )
    else:
        writer = csv.writer(out)
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
    window: int = 2,
    budget: SearchBudget | None = None,
    workers: int = 1,
    claimed_value: int | None = None,
    pool: ProcessPoolExecutor | None = None,
) -> ConstantReport:
    """Smallest v such that every zero-sum multiset of each length in
    [v, v + window] has a zero-sum subsequence of length t, while some
    zero-sum multiset of length v - 1 has none (recorded as the extremal
    witness). The infinite tail beyond the window is not searched; the
    report says so.
    """
    if t < 1:
        raise ValueError(f"target length must be >= 1, got {t}")
    if window < 0:
        raise ValueError(f"window must be >= 0, got {window}")
    if t % group.exponent:
        # g of order exp(G), repeated k * exp(G) times, fails at every k.
        raise PreconditionError(
            f"s'({group}, {t}) is infinite: exp(G) = {group.exponent} does not divide t"
        )
    budget = budget or SearchBudget()
    start = time.monotonic()
    deadline = start + budget.max_seconds
    stats = SearchStats()
    own_pool = pool is None and workers > 1
    if own_pool:
        pool = ProcessPoolExecutor(max_workers=workers)
    # Length 0 always fails for t >= 1: the empty sequence is zero-sum and has
    # no length-t subsequence.
    last_fail = 0
    last_fail_vec: tuple[int, ...] = ()
    try:
        length = 1
        while True:
            remaining = budget.max_nodes - stats.nodes_visited
            if remaining <= 0 or time.monotonic() > deadline:
                raise BudgetExceeded(
                    f"budget exhausted before determination "
                    f"(scanned lengths 1..{length - 1} of {group}, t={t})"
                )
            fail_vec, nodes, leaves = _probe_length(
                group.moduli, t, length, True, pool, remaining, deadline
            )
            stats.nodes_visited += nodes
            stats.sequences_checked += leaves
            if fail_vec is not None:
                last_fail = length
                last_fail_vec = fail_vec
            elif length - last_fail == window + 1:
                break
            length += 1
    finally:
        if own_pool:
            pool.shutdown()
    computed = last_fail + 1
    witness = _sequence_of(group, last_fail_vec)
    stats.wall_ms = int((time.monotonic() - start) * 1000)
    return ConstantReport(
        group=str(group),
        target=t,
        claimed_value=claimed_value,
        computed_value=computed,
        extremal_witness=serialize_sequence(witness),
        window=(computed, computed + window),
        stats=stats,
    )


# ---------------------------------------------------------------------------
# Universal-witness checks (whole-length properties)


def check_all_have_witness(
    group: Group,
    size: int,
    target: int,
    *,
    zero_sum_only: bool,
    name: str,
    budget: SearchBudget | None = None,
    pool: ProcessPoolExecutor | None = None,
) -> PropertyReport:
    """Every multiset of the given size (zero-sum ones only, if asked) over
    the group must contain a zero-sum subsequence of the target length."""
    budget = budget or SearchBudget()
    start = time.monotonic()
    fail_vec, nodes, leaves = _probe_length(
        group.moduli,
        target,
        size,
        zero_sum_only,
        pool,
        budget.max_nodes,
        start + budget.max_seconds,
    )
    counterexample = None
    if fail_vec is not None:
        counterexample = serialize_sequence(_sequence_of(group, fail_vec))
    return PropertyReport(
        name=name,
        params={"group": str(group), "size": size, "target": target},
        passed=fail_vec is None,
        checked=leaves,
        violations=0 if fail_vec is None else 1,
        counterexample=counterexample,
        wall_ms=int((time.monotonic() - start) * 1000),
        note="exhaustive over multisets" if zero_sum_only is False else "exhaustive over zero-sum multisets",
    )


# ---------------------------------------------------------------------------
# Congruence lemma check


def check_lemma_por2p(
    p: int,
    count: int = 10000,
    seed: int = 0,
    budget: SearchBudget | None = None,
) -> PropertyReport:
    """Over (Z/p)^2 at sizes 3p-2 and 3p-1: when no p-subset sums to zero,
    the number of 2p-subsets summing to zero is p - 1 mod p.

    The hypothesis cases are exactly the multisets with no zero-sum
    subsequence of length p, which the search kernel enumerates. At p = 2
    every one of them is checked; otherwise `count` uniform draws from them
    at each size are. `vacuous` counts the multisets of both sizes that lie
    outside the hypothesis.
    """
    mode = "exhaustive" if p == 2 else "sample"
    budget = budget or SearchBudget()
    start = time.monotonic()
    group = make_group([p, p])
    sizes = (3 * p - 2, 3 * p - 1)
    rng = random.Random(seed)
    checked = vacuous = violations = 0
    counterexample = None
    for size in sizes:
        cases: list[Sequence] = []
        enumerate_multisets(
            group, size, cases.append, target=p, zero_sum_only=False, budget=budget
        )
        vacuous += math.comb(size + group.order - 1, size) - len(cases)
        if mode == "sample" and cases:
            cases = rng.choices(cases, k=count)
        for seq in cases:
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


def _check_3n_sequence(seq: Sequence, n: int) -> str | None:
    """Engine and proof-following extractor must both produce valid witnesses."""
    w_engine = find_zero_sum_subseq(seq, n)
    if w_engine is None:
        return f"engine found no witness in {serialize_sequence(seq)}"
    w_engine.validate_against(seq, size=n)
    w_proof = extract_square_3n(seq)
    w_proof.validate_against(seq, size=n)
    return None


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

    Exhaustive when the instance space is desk-sized (n <= 3), sampled
    otherwise.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    budget = budget or SearchBudget()
    start = time.monotonic()
    group = make_group([n, n])
    checked = violations = 0
    counterexample = None
    exhaustive = n <= 3

    def run_one(seq: Sequence) -> None:
        nonlocal checked, violations, counterexample
        checked += 1
        problem = _check_3n_sequence(seq, n)
        if problem is not None:
            violations += 1
            if counterexample is None:
                counterexample = problem

    if exhaustive:
        enumerate_multisets(group, 3 * n, run_one, budget=budget)
    else:
        rng = random.Random(seed)
        plus = get_pack(group.moduli, 0).plus
        deadline = start + budget.max_seconds
        attempts = 0
        while checked < samples:
            attempts += 1
            if attempts > budget.max_nodes or time.monotonic() > deadline:
                raise BudgetExceeded(f"sampling budget exhausted after {attempts} draws")
            mults = _random_multiset(rng, group.order, 3 * n)
            total = 0
            for i, m in enumerate(mults):
                for _ in range(m):
                    total = plus[i][total]
            if total:
                continue
            run_one(_sequence_of(group, mults))

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
    window: int = 2,
    budget: SearchBudget | None = None,
    workers: int = 1,
    seed: int = 0,
    samples: int | None = None,
) -> list[ConstantReport | PropertyReport]:
    """Run one named verification suite and return its reports.

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
            make_group(moduli), t, window=window, budget=budget, claimed_value=claimed, pool=pool
        )

    def witness(moduli: list[int], size: int, target: int, name: str) -> PropertyReport:
        return check_all_have_witness(
            make_group(moduli), size, target, zero_sum_only=False, name=name,
            budget=budget, pool=pool,
        )

    # suite -> (default n values, the report for one n and t); only cyclic reads t.
    suites: dict[str, tuple[Seq[int], Callable[[int, int], ConstantReport | PropertyReport]]] = {
        "cyclic": (range(2, 7), lambda n, t: constant([n], n * t, formula_modified_cyclic(n, t))),
        "square": ([2, 3], lambda n, t: constant([n, n], n, formula_modified_square(n))),
        "egz": (range(2, 11), lambda n, t: witness([n], 2 * n - 1, n, "egz")),
        "reiher": ([2, 3], lambda n, t: witness([n, n], 4 * n - 3, n, "reiher")),
        "lemma3n": ([2, 3, 4, 6], lambda n, t: check_lemma_3n(n, samples or 1000, seed, budget)),
        "por2p": ([2, 3], lambda p, t: check_lemma_por2p(p, samples or 10000, seed, budget)),
        "conjecture": ([1, 2, 3], lambda r, t: constant([2] * r, 2, conjecture_value(2, r))),
    }
    if suite not in suites:
        raise ValueError(f"unknown suite {suite!r}")
    defaults, report = suites[suite]
    ns = list(defaults if n_values is None else n_values)
    ts = list(t_values) if suite == "cyclic" and t_values is not None else [1]
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    try:
        return [report(n, t) for t in ts for n in ns]
    finally:
        if pool is not None:
            pool.shutdown()
