"""Finite abelian groups presented as products of cyclic factors."""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from functools import reduce
from typing import Iterator

# An element is a tuple of residues, one per cyclic factor.
Element = tuple[int, ...]

MAX_ORDER = 10**6

_FACTOR_RE = re.compile(r"z/(\d+)(?:\^(\d+))?$", re.IGNORECASE)


class GroupParseError(ValueError):
    """Raised for malformed group or sequence syntax."""


def min_nondivisor(n: int, lower_bound: int = 1) -> int:
    """Smallest integer >= lower_bound that does not divide n."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if lower_bound < 1:
        raise ValueError(f"lower_bound must be >= 1, got {lower_bound}")
    ell = lower_bound
    while n % ell == 0:
        ell += 1
    return ell


@dataclass(frozen=True)
class Group:
    """Product of cyclic groups Z/m1 x ... x Z/mr, elements are residue tuples."""

    moduli: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.moduli)

    @property
    def order(self) -> int:
        return math.prod(self.moduli)

    @property
    def exponent(self) -> int:
        return reduce(math.lcm, self.moduli)

    def identity(self) -> Element:
        return (0,) * self.rank

    def contains(self, el: Element) -> bool:
        return (
            isinstance(el, tuple)
            and len(el) == self.rank
            and all(type(c) is int and 0 <= c < m for c, m in zip(el, self.moduli))
        )

    def add(self, a: Element, b: Element) -> Element:
        self._check(a)
        self._check(b)
        return tuple((x + y) % m for x, y, m in zip(a, b, self.moduli))

    def neg(self, a: Element) -> Element:
        self._check(a)
        return tuple((-x) % m for x, m in zip(a, self.moduli))

    def scale(self, a: Element, k: int) -> Element:
        self._check(a)
        return tuple((x * k) % m for x, m in zip(a, self.moduli))

    def elements(self) -> Iterator[Element]:
        """All elements in ascending coordinate order."""
        return itertools.product(*[range(m) for m in self.moduli])

    def _check(self, el: Element) -> None:
        if not self.contains(el):
            raise ValueError(f"{el!r} is not an element of {self}")

    def __str__(self) -> str:
        parts = []
        i = 0
        while i < self.rank:
            j = i
            while j < self.rank and self.moduli[j] == self.moduli[i]:
                j += 1
            run = j - i
            parts.append(f"Z/{self.moduli[i]}" + (f"^{run}" if run > 1 else ""))
            i = j
        return "x".join(parts)


def make_group(moduli) -> Group:
    """Build a validated Group from a list of cyclic factor moduli."""
    mods = tuple(moduli)
    if not mods:
        raise ValueError("group needs at least one cyclic factor")
    for m in mods:
        if not isinstance(m, int) or isinstance(m, bool) or m < 1:
            raise ValueError(f"modulus must be an integer >= 1, got {m!r}")
    order = math.prod(mods)
    if order > MAX_ORDER:
        raise ValueError(f"group order {order} exceeds the cap {MAX_ORDER}")
    return Group(mods)


def parse_group(text: str) -> Group:
    """Parse group syntax like "Z/6", "Z/3^2" (= (Z/3)^2), or "Z/2xZ/6".

    Case-insensitive; whitespace is ignored. The exponent repeats the cyclic
    factor, it does not raise the modulus.
    """
    compact = re.sub(r"\s+", "", text)
    if not compact:
        raise GroupParseError("empty group spec")
    moduli: list[int] = []
    for factor in re.split(r"x", compact, flags=re.IGNORECASE):
        m = _FACTOR_RE.fullmatch(factor)
        if not m:
            raise GroupParseError(f"unrecognized group factor {factor!r} in {text!r}")
        modulus = int(m.group(1))
        power = int(m.group(2)) if m.group(2) else 1
        if modulus < 1:
            raise GroupParseError(f"modulus must be >= 1 in {text!r}")
        if power < 1:
            raise GroupParseError(f"factor power must be >= 1 in {text!r}")
        moduli.extend([modulus] * power)
    try:
        return make_group(moduli)
    except ValueError as exc:
        raise GroupParseError(str(exc)) from exc
