"""Packed-bitmask reachability tables for (count, group-element) subset DP.

A state mask is one big integer holding k+1 segments of `order` bits each:
bit c*order + g is set when some sub-multiset of the items folded in so far
has exactly c elements and sum equal to the group element with index g.
Masks are immutable ints, so DP branches share state for free. The engine's
counter (`engine.count_zero_sum_subseqs`) holds counts rather than
reachability in the transposed, element-major layout: the element with index
g owns the block of s+1 cells of w bits from bit g*(s+1)*w, one cell per
count, and `rotation` moves those blocks when called with cells of (s+1)*w
bits.

Elements are keyed by index. The layout is mixed-radix over the moduli with
the first coordinate most significant, so index 0 is the identity and index
order agrees with ascending coordinate order. `index` and `coords` convert
at the boundary.
"""

from __future__ import annotations

from functools import lru_cache
from operator import mul

# The widest mask, in bits, that a pack or the engine's counter will build.
MAX_BITS = 2 * 10**8


def tile(bits: int, span: int, full: int) -> int:
    """`bits` (below bit `span`) repeated every `span` bits over the bits of
    `full`, a run of ones from bit 0, by doubling: time linear in its width."""
    width = full.bit_length()
    while span < width:
        bits |= bits << span
        span <<= 1
    return bits & full


class GroupPack:
    """Index-keyed shift machinery for one (moduli, k) pair."""

    def __init__(self, moduli: tuple[int, ...], k: int):
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        self.moduli = moduli
        self.k = k
        strides = [0] * len(moduli)
        s = 1
        for i in range(len(moduli) - 1, -1, -1):
            strides[i] = s
            s *= moduli[i]
        self.strides = tuple(strides)
        self.order = s
        self.width = (k + 1) * self.order
        if self.width > MAX_BITS:
            raise ValueError(
                f"DP state space of {self.width} bits (|G| = {self.order}, k = {k}) "
                "exceeds the supported size"
            )
        self.full = (1 << self.width) - 1
        self.initial = 1  # count 0, identity sum
        self._parts: dict[tuple[int, int], tuple] = {}
        self._axis_parts: dict[tuple[int, int], tuple] = {}
        self._plans: dict[tuple[int, int], tuple] = {}

    # -- element indices ------------------------------------------------------

    def index(self, coords: tuple[int, ...]) -> int:
        return sum(map(mul, coords, self.strides))

    def coords(self, i: int) -> tuple[int, ...]:
        return tuple([i // s % m for s, m in zip(self.strides, self.moduli)])

    def plus(self, i: int) -> list[int]:
        """The row of element i: plus(i)[s] is the index of element s + element i.

        Built on each call and not kept, so the caller holds the rows it
        needs for as long as it needs them, and a sequence that holds most of
        a large group leaves no |G| x |G| table behind.
        """
        row = [0]
        for c, m, s in zip(self.coords(i), self.moduli, self.strides):
            digits = [(d + c) % m * s for d in range(m)]
            row = [r + d for r in row for d in digits]
        return row

    # -- rotation masks -------------------------------------------------------

    def parts(self, i: int, times: int = 1) -> tuple:
        """(lo, up_shift, down_shift, lo_down) per nonzero axis of `times`
        copies of element i: together they add those copies to every sum.
        The tuple is cached per (element, copies); each axis's part is shared
        by every element that moves that axis by the same amount.
        """
        key = (i, times)
        parts = self._parts.get(key)
        if parts is None:
            shifts = [c * times % na for c, na in zip(self.coords(i), self.moduli)]
            parts = self._parts[key] = tuple(
                self._axis_part(axis, c) for axis, c in enumerate(shifts) if c
            )
        return parts

    def _axis_part(self, axis: int, c: int) -> tuple:
        """The cached 1-bit rotation part that adds c (nonzero) on one axis."""
        key = (axis, c)
        part = self._axis_parts.get(key)
        if part is None:
            part = self._axis_parts[key] = self.rotation(axis, c, 1, self.full)
        return part

    def rotation(self, axis: int, c: int, cell: int, full: int) -> tuple:
        """(lo, up_shift, down_shift, lo_down) that add c (nonzero) to the
        digit on one axis of a mask whose cells are `cell` bits wide; `full`
        has every bit of the mask set. The 1-bit parts are cached by
        `_axis_part`; the engine's counter builds its wider ones per call.

        lo holds the cells whose digit on the axis stays below its modulus
        when c is added; lo_down holds the others, shifted down.
        """
        na, sa = self.moduli[axis], self.strides[axis] * cell
        down = (na - c) * sa
        lo = tile((1 << down) - 1, na * sa, full)  # na * sa divides the width
        return lo, c * sa, down, (full ^ lo) >> down

    # -- folding items into a mask --------------------------------------------

    def add_copies(self, mask: int, i: int, mult: int) -> int:
        """Allow up to `mult` copies of element i, split into binary chunks
        of 1, 2, 4, ... copies that are each taken whole or not at all. The
        chunks are planned once per (element, min(mult, k)) and replayed."""
        key = (i, min(mult, self.k))
        full = self.full
        for shift, parts in self._plans.get(key) or self._plan(key):
            moved = (mask << shift) & full
            for lo, up, down, lod in parts:
                moved = ((moved & lo) << up) | ((moved >> down) & lod)
            mask |= moved
        return mask

    def _plan(self, key: tuple[int, int]) -> tuple:
        """Cache and return (count shift, `parts(i, chunk)`) per chunk of key = (i, copies)."""
        (i, copies), plan, size = key, [], 1
        while copies > 0:
            chunk = min(size, copies)
            plan.append((chunk * self.order, self.parts(i, chunk)))
            copies, size = copies - chunk, size * 2
        plan = self._plans[key] = tuple(plan)
        return plan

    def has(self, mask: int, count: int, index: int = 0) -> bool:
        return bool((mask >> (count * self.order + index)) & 1)


@lru_cache(maxsize=512)
def get_pack(moduli: tuple[int, ...], k: int) -> GroupPack:
    return GroupPack(moduli, k)
