"""Checks of zerosum's outputs that are computed without importing zerosum.

Everything here is written from the definitions: a sequence is a multiset
of residue tuples, a witness is a sub-multiset that sums to zero and has a
prescribed length, and the closed forms are the paper's theorems. None of it
shares code with the package under test, so a fault in the package cannot
hide itself by also corrupting its check.
"""

from __future__ import annotations

import math
import re

Counts = dict[tuple[int, ...], int]

_FACTOR_RE = re.compile(r"Z/(\d+)(?:\^(\d+))?$")
_TOKEN_RE = re.compile(r"\(([^()]*)\)(?:\^(\d+))?|(\d+)(?:\^(\d+))?")


class CheckFailed(AssertionError):
    """An output of the program disagrees with an independent computation."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Closed forms of the paper


def least_nondivisor(n: int, lower: int) -> int:
    """The least integer >= lower that does not divide n."""
    ell = lower
    while n % ell == 0:
        ell += 1
    return ell


def closed_form_cyclic(n: int, t: int) -> int:
    """s'(Z/n, nt) = (t+1)n - l + 1, l the least non-divisor of n."""
    return (t + 1) * n - least_nondivisor(n, 1) + 1


def closed_form_square(n: int) -> int:
    """s'((Z/n)^2, n) = 4n - l + 1, l the least non-divisor of n that is >= 4."""
    return 4 * n - least_nondivisor(n, 4) + 1


def closed_form_power2(r: int) -> int:
    """s'((Z/2)^r, 2) = 2^r + 1: a zero-sum sequence with a repeated element
    has a length-2 witness, and there are only 2^r distinct elements."""
    return 2**r + 1


def expected_constant(moduli: tuple[int, ...], t: int) -> int:
    if len(moduli) == 1 and t % moduli[0] == 0:
        return closed_form_cyclic(moduli[0], t // moduli[0])
    if len(moduli) == 2 and moduli[0] == moduli[1] and t == moduli[0]:
        return closed_form_square(moduli[0])
    if all(m == 2 for m in moduli) and t == 2:
        return closed_form_power2(len(moduli))
    raise ValueError(f"no closed form for {moduli}, t={t}")


# ---------------------------------------------------------------------------
# Sequence text, read independently of zerosum.sequences


def parse_group_text(text: str) -> tuple[int, ...]:
    moduli: list[int] = []
    for factor in text.strip().split("x"):
        m = _FACTOR_RE.fullmatch(factor.strip())
        require(m is not None, f"unreadable group {text!r}")
        moduli.extend([int(m.group(1))] * int(m.group(2) or 1))
    return tuple(moduli)


def parse_sequence_text(text: str) -> tuple[tuple[int, ...], Counts]:
    """Read "<group>: <elem>^<mult> ..." into (moduli, counts)."""
    require(":" in text, f"unreadable sequence {text!r}")
    group_text, body = text.split(":", 1)
    moduli = parse_group_text(group_text)
    counts: Counts = {}
    pos = 0
    for m in _TOKEN_RE.finditer(body):
        require(not body[pos:m.start()].strip(), f"unread text in {text!r}")
        pos = m.end()
        if m.group(1) is not None:
            el = tuple(int(c) for c in m.group(1).split(","))
            mult = int(m.group(2) or 1)
        else:
            el = (int(m.group(3)),)
            mult = int(m.group(4) or 1)
        require(len(el) == len(moduli), f"{el} has the wrong rank for {moduli}")
        require(all(0 <= c < q for c, q in zip(el, moduli)), f"{el} is not in {moduli}")
        counts[el] = counts.get(el, 0) + mult
    require(not body[pos:].strip(), f"unread text in {text!r}")
    return moduli, counts


# ---------------------------------------------------------------------------
# Witnesses and counts


def total(moduli: tuple[int, ...], counts: Counts) -> tuple[int, ...]:
    return tuple(
        sum(el[a] * m for el, m in counts.items()) % q for a, q in enumerate(moduli)
    )


def is_zero_sum(moduli: tuple[int, ...], counts: Counts) -> bool:
    return not any(total(moduli, counts))


def check_witness(
    moduli: tuple[int, ...], parent: Counts, witness: Counts, length: int
) -> None:
    """The witness is contained in the parent, sums to zero and has the length."""
    for el, m in witness.items():
        require(m >= 1, f"witness multiplicity {m} for {el}")
        require(parent.get(el, 0) >= m, f"witness uses {el}^{m}, parent has {parent.get(el, 0)}")
    require(sum(witness.values()) == length, f"witness has length {sum(witness.values())}, not {length}")
    require(is_zero_sum(moduli, witness), f"witness sums to {total(moduli, witness)}")


def count_zero_sum(
    moduli: tuple[int, ...], counts: Counts, k: int, modulus: int | None = None
) -> int:
    """Index subsets of size k summing to zero, by a DP over (count, sum)
    that folds one copy at a time."""
    ways: list[dict[tuple[int, ...], int]] = [dict() for _ in range(k + 1)]
    ways[0][(0,) * len(moduli)] = 1
    seen = 0
    for el, mult in counts.items():
        for _ in range(mult):
            seen += 1
            for c in range(min(k, seen) - 1, -1, -1):
                row = ways[c + 1]
                for s, v in ways[c].items():
                    key = tuple((x + e) % q for x, e, q in zip(s, el, moduli))
                    row[key] = row.get(key, 0) + v
    value = ways[k].get((0,) * len(moduli), 0)
    return value if modulus is None else value % modulus


def all_elements(moduli: tuple[int, ...]) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = [()]
    for q in moduli:
        out = [el + (c,) for el in out for c in range(q)]
    return out


def count_multisets(moduli: tuple[int, ...], size: int, zero_sum_only: bool) -> int:
    """Multisets of the given size over the group (zero-sum ones if asked),
    by an unbounded-knapsack DP over (size, sum)."""
    if not zero_sum_only:
        return math.comb(size + math.prod(moduli) - 1, size)
    zero = (0,) * len(moduli)
    ways: list[dict[tuple[int, ...], int]] = [dict() for _ in range(size + 1)]
    ways[0][zero] = 1
    for el in all_elements(moduli):
        for c in range(1, size + 1):
            row = ways[c]
            for s, v in list(ways[c - 1].items()):
                key = tuple((x + e) % q for x, e, q in zip(s, el, moduli))
                row[key] = row.get(key, 0) + v
    return ways[size].get(zero, 0)
