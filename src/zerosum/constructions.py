"""Extremal zero-sum sequences certifying the lower bounds.

Each builder produces a zero-sum sequence one element short of the matching
constant whose zero-sum subsequences all avoid the forbidden length. The
two-valued skeletons (zeros and ones, or the four corner vectors) are fixed
first and then shifted by a constant solving a linear congruence, which makes
the total sum vanish without creating new zero-sum subsequences.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Iterable

from .engine import has_zero_sum_in_lengths
from .groups import Element, make_group, min_nondivisor
from .sequences import Sequence


def _solve_congruence(coeff: int, rhs: int, n: int) -> int:
    """Smallest non-negative c with coeff * c == rhs (mod n)."""
    g = math.gcd(coeff, n)
    if rhs % g:
        raise ValueError(f"{coeff} * c = {rhs} (mod {n}) has no solution")
    n_red = n // g
    if n_red == 1:
        return 0
    return (rhs // g) * pow(coeff // g, -1, n_red) % n_red


def build_cyclic_extremal(n: int, t: int) -> Sequence:
    """Zero-sum sequence over Z/n of length (t+1)n - l with no zero-sum
    subsequence of length n*t: tn - g zeros and n - l + g ones, g = gcd(n, l),
    shifted by c with l*c = n - l + g (mod n)."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    ell = min_nondivisor(n, 1)
    g = math.gcd(n, ell)
    zeros = t * n - g
    ones = n - ell + g
    shift = _solve_congruence(ell, ones % n, n)
    counts: dict[Element, int] = {}
    if zeros:
        counts[(0,)] = zeros
    if ones:
        counts[(1,)] = ones
    seq = Sequence(make_group([n]), counts)
    return seq.shift_all((shift,))


def build_square_extremal(n: int) -> Sequence:
    """Zero-sum sequence over (Z/n)^2 of length 4n - l with no zero-sum
    subsequence of length n: a, b, c, d copies of (0,0), (0,1), (1,0), (1,1),
    shifted by (r, s) with l*r = c + d and l*s = b + d (mod n)."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    ell = min_nondivisor(n, 4)
    g = math.gcd(n, ell)
    if g == 1:
        a = n - ell + 2 * g + 1
        d = n - 2 * g + 1
    else:
        a = n - ell + g + 1
        d = n - g + 1
    b = c = n - 1
    r = _solve_congruence(ell, (c + d) % n, n)
    s = _solve_congruence(ell, (b + d) % n, n)
    skeleton = {(0, 0): a, (0, 1): b, (1, 0): c, (1, 1): d}
    counts = {el: m for el, m in skeleton.items() if m}
    seq = Sequence(make_group([n, n]), counts)
    return seq.shift_all((r, s))


def build_power2_extremal(k: int, r: int) -> Sequence:
    """All 2^r distinct vectors of (Z/2)^r, once each: zero-sum with no
    repeated element, hence no zero-sum subsequence of length 2.

    Only n = 2 (k = 1) is supported; r = 1 is degenerate (the full sequence
    is not even zero-sum) and rejected.
    """
    if k != 1:
        raise ValueError(f"only k = 1 (n = 2) is supported, got k = {k}")
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    if r == 1:
        raise ValueError("r = 1 is degenerate: no valid length-2 extremal exists")
    group = make_group([2] * r)
    seq = Sequence(group, {el: 1 for el in group.elements()})
    assert seq.is_zero_sum()
    return seq


@dataclass(frozen=True)
class ExtremalReport:
    zero_sum: bool
    length: int
    forbidden_lengths: tuple[int, ...]
    has_forbidden_witness: bool

    @property
    def valid(self) -> bool:
        return self.zero_sum and not self.has_forbidden_witness

    def to_jsonable(self) -> dict:
        return {**asdict(self), "valid": self.valid}


def validate_extremal(seq: Sequence, forbidden: Iterable[int]) -> ExtremalReport:
    """Check the extremal contract: zero-sum and no forbidden-length witness."""
    lengths = tuple(sorted(set(forbidden)))
    return ExtremalReport(
        zero_sum=seq.is_zero_sum(),
        length=seq.length,
        forbidden_lengths=lengths,
        has_forbidden_witness=has_zero_sum_in_lengths(seq, lengths),
    )
