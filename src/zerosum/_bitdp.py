"""Packed-bitmask reachability tables for (count, group-element) subset DP.

A state mask is one big integer holding k+1 segments of `order` bits each:
bit c*order + g is set when some sub-multiset of the items folded in so far
has exactly c elements and sum equal to the group element with index g.
Masks are immutable ints, so DP branches share state for free.

Group-element index layout is mixed-radix over the moduli with the first
coordinate most significant, so index 0 is the identity and index order
agrees with ascending coordinate order.
"""

from __future__ import annotations

from functools import cached_property, lru_cache


class GroupPack:
    """Shift machinery for one (moduli, k) pair; masks are built lazily."""

    def __init__(self, moduli: tuple[int, ...], k: int):
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        self.moduli = moduli
        self.k = k
        self.rank = len(moduli)
        strides = [0] * self.rank
        s = 1
        for i in range(self.rank - 1, -1, -1):
            strides[i] = s
            s *= moduli[i]
        self.strides = tuple(strides)
        self.order = s
        self.width = (k + 1) * self.order
        if self.width > 2 * 10**8:
            raise ValueError(
                f"DP state space of {self.width} bits (|G| = {self.order}, k = {k}) "
                "exceeds the supported size"
            )
        self.full = (1 << self.width) - 1
        self.initial = 1  # count 0, identity sum
        self._lo: dict[tuple[int, int], int] = {}
        self._parts: dict[tuple[int, ...], tuple] = {}

    # -- index arithmetic ---------------------------------------------------

    @cached_property
    def elements(self) -> list[tuple[int, ...]]:
        """The coordinates of every element, by index."""
        return [
            tuple((i // s) % m for s, m in zip(self.strides, self.moduli))
            for i in range(self.order)
        ]

    @cached_property
    def plus(self) -> list[list[int]]:
        """plus[i][s] is the index of element s + element i."""
        return [[self.add_index(s, e) for s in range(self.order)] for e in self.elements]

    def add_index(self, index: int, coords: tuple[int, ...], times: int = 1) -> int:
        out = 0
        for a in range(self.rank):
            digit = (index // self.strides[a]) % self.moduli[a]
            out += ((digit + times * coords[a]) % self.moduli[a]) * self.strides[a]
        return out

    # -- per-axis rotation masks ---------------------------------------------

    def _lomask(self, axis: int, amount: int) -> int:
        """Bits whose axis digit is < moduli[axis] - amount, over the full width."""
        key = (axis, amount)
        mask = self._lo.get(key)
        if mask is None:
            na, sa = self.moduli[axis], self.strides[axis]
            period = na * sa
            base = (1 << ((na - amount) * sa)) - 1
            mask = 0
            for start in range(0, self.width, period):
                mask |= base << start
            mask &= self.full
            self._lo[key] = mask
        return mask

    def element_parts(self, coords: tuple[int, ...]) -> tuple:
        """Precomputed (lo, up_shift, down_shift, lo_down) per nonzero axis."""
        parts = self._parts.get(coords)
        if parts is None:
            built = []
            for a, c in enumerate(coords):
                if c:
                    na, sa = self.moduli[a], self.strides[a]
                    built.append(
                        (self._lomask(a, c), c * sa, (na - c) * sa, self._lomask(a, na - c))
                    )
            parts = tuple(built)
            self._parts[coords] = parts
        return parts

    @cached_property
    def parts(self) -> list[tuple]:
        """`element_parts` of every element, by index."""
        return [self.element_parts(e) for e in self.elements]

    def shift(self, mask: int, coords: tuple[int, ...]) -> int:
        """Translate every recorded sum by the given element, all segments at once."""
        for lo, up, down, lo_down in self.element_parts(coords):
            mask = ((mask & lo) << up) | ((mask >> down) & lo_down)
        return mask

    # -- folding items into a mask --------------------------------------------

    def add_chunk(self, mask: int, coords: tuple[int, ...], size: int) -> int:
        """Allow one all-or-nothing block of `size` copies of an element."""
        moved = (mask << (size * self.order)) & self.full
        scaled = tuple((c * size) % m for c, m in zip(coords, self.moduli))
        return mask | self.shift(moved, scaled)

    def add_copies(self, mask: int, coords: tuple[int, ...], mult: int) -> int:
        """Allow up to `mult` copies of an element (binary chunk splitting)."""
        remaining = min(mult, self.k)
        size = 1
        while remaining > 0:
            chunk = min(size, remaining)
            mask = self.add_chunk(mask, coords, chunk)
            remaining -= chunk
            size <<= 1
        return mask

    def has(self, mask: int, count: int, index: int = 0) -> bool:
        return bool((mask >> (count * self.order + index)) & 1)


@lru_cache(maxsize=512)
def get_pack(moduli: tuple[int, ...], k: int) -> GroupPack:
    return GroupPack(moduli, k)
