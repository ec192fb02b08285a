"""Multiset sequences of group elements and their serialization."""

from __future__ import annotations

import re
from typing import Iterable, Iterator, Mapping

from .groups import Element, Group, GroupParseError, make_group, parse_group

_TOKEN_RE = re.compile(r"(\([^()]*\)|[+-]?\d+)(?:\s*\^\s*([+-]?\d+))?")


class SequenceParseError(GroupParseError):
    """Raised for malformed sequence text or JSON."""


def counts_sum(moduli: tuple[int, ...], counts: Mapping[Element, int]) -> Element:
    """Sum of a multiset whose elements are already known to be valid: one
    modular sum per coordinate, with no per-element checks."""
    return tuple(
        sum(el[a] * m for el, m in counts.items()) % q for a, q in enumerate(moduli)
    )


def _check_witness(
    moduli: tuple[int, ...], counts: Mapping[Element, int], parent=None, size=None, total=None, error=ValueError
) -> None:
    """The rules of a witness, on plain counts: it sums to zero (to `total`,
    its sum when known), and, given a parent's counts and a size, lies inside
    them and has exactly that many elements. Raises `error`: ValueError for
    a `Witness`, AssertionError for a witness the program found."""
    if any(counts_sum(moduli, counts) if total is None else total):
        raise error(f"witness does not sum to the identity: {dict(sorted(counts.items()))}")
    if parent is not None and any(parent.get(el, 0) < m for el, m in counts.items()):
        raise error("witness exceeds parent multiplicities")
    if size is not None and (length := sum(counts.values())) != size:
        raise error(f"witness has length {length}, expected {size}")


class Sequence:
    """A finite multiset of group elements, stored as element -> multiplicity.

    Sequences are immutable values: every operation returns a new instance.
    Length and total sum are computed once and cached.

    The public constructor checks every element and multiplicity. Code that
    builds a multiset from elements already known to be valid (taken from a
    validated sequence or from a pack's `coords`) uses the trusted `_of`.
    """

    __slots__ = ("group", "counts", "length", "total_sum")

    def __init__(self, group: Group, counts: Mapping[Element, int]):
        for el, mult in counts.items():
            if not group.contains(el):
                raise ValueError(f"{el!r} is not an element of {group}")
            if not isinstance(mult, int) or isinstance(mult, bool) or mult < 1:
                raise ValueError(f"multiplicity for {el!r} must be >= 1, got {mult!r}")
        self._set(group, counts)

    @classmethod
    def _of(cls, group: Group, counts: Mapping[Element, int]):
        """Trusted constructor: the keys must be distinct elements of the
        group and the multiplicities positive ints. Sorts, sums and caches,
        with no per-element checks."""
        seq = object.__new__(cls)
        seq._set(group, counts)
        return seq

    def _set(self, group: Group, counts: Mapping[Element, int]) -> None:
        counts = dict(sorted(counts.items()))
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "length", sum(counts.values()))
        object.__setattr__(self, "total_sum", counts_sum(group.moduli, counts))

    def __setattr__(self, name, value):
        raise AttributeError("Sequence is immutable")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Sequence)
            and self.group == other.group
            and self.counts == other.counts
        )

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:
        return f"Sequence({serialize_sequence(self)!r})"

    def items(self) -> list[tuple[Element, int]]:
        """(element, multiplicity) pairs in ascending element order."""
        return list(self.counts.items())

    def is_zero_sum(self) -> bool:
        return self.total_sum == self.group.identity()

    def shift_all(self, c: Element) -> "Sequence":
        """Add c to every term, keeping multiplicities."""
        g = self.group
        g._check(c)
        # A translation keeps distinct elements distinct, so no keys merge.
        shifted = {
            tuple([(x + y) % q for x, y, q in zip(el, c, g.moduli)]): m
            for el, m in self.counts.items()
        }
        return Sequence._of(g, shifted)


class Witness(Sequence):
    """A sub-multiset certifying a zero-sum subsequence; always sums to identity."""

    __slots__ = ()

    def _set(self, group: Group, counts: Mapping[Element, int]) -> None:
        """Both constructors end here, so the trusted one checks the sum too."""
        super()._set(group, counts)
        _check_witness(group.moduli, self.counts, total=self.total_sum)

    def validate_against(self, parent: Sequence, size: int | None = None) -> None:
        """Check containment in the parent and, optionally, the exact size."""
        if parent.group != self.group:
            raise ValueError("witness group does not match parent group")
        _check_witness(self.group.moduli, self.counts, parent.counts, size, self.total_sum)


def _found_witness(parent: Sequence, counts: Mapping[Element, int], size: int) -> Witness:
    """The witness of `size` elements that the program found in `parent`."""
    _check_witness(parent.group.moduli, counts, parent.counts, size, error=AssertionError)
    return Witness._of(parent.group, counts)


def _format_element(el: Element) -> str:
    if len(el) == 1:
        return str(el[0])
    return "(" + ",".join(str(c) for c in el) + ")"


def serialize_sequence(seq: Sequence) -> str:
    """Canonical text form: "<group>: <elem>^<mult> ..." with ^1 omitted."""
    body = " ".join(
        _format_element(el) + (f"^{m}" if m > 1 else "")
        for el, m in seq.counts.items()
    )
    return f"{seq.group}: {body}" if body else f"{seq.group}:"


def _read_terms(group: Group, terms: Iterable[tuple], lenient: bool = False) -> Sequence:
    """The one check of parsed text and JSON: each (token, coords, mult) term
    has an int multiplicity >= 1 and one int coordinate per factor, each in
    range unless `lenient` reduces it. Messages name a term by its token."""
    counts: dict[Element, int] = {}
    for token, coords, mult in terms:
        if type(mult) is not int:
            raise SequenceParseError(f"multiplicity of {token!r} must be an integer, got {mult!r}")
        if mult < 1:
            raise SequenceParseError(f"multiplicity must be >= 1, got {mult}")
        if not coords:
            raise SequenceParseError(f"empty element tuple in {token!r}")
        if len(coords) != group.rank:
            raise SequenceParseError(
                f"element {token!r} has {len(coords)} coordinates, group {group} has rank {group.rank}"
            )
        if any(type(c) is not int for c in coords):
            raise SequenceParseError(f"element {token!r} has a coordinate that is not an integer")
        coords = tuple(c % q if lenient else c for c, q in zip(coords, group.moduli))
        if not group.contains(coords):
            raise SequenceParseError(f"element {token!r} out of range for {group}")
        counts[coords] = counts.get(coords, 0) + mult
    return Sequence._of(group, counts)  # every element was checked above


def _text_terms(text: str) -> Iterator[tuple[str, tuple, int]]:
    """Tokenize an element body into terms for `_read_terms`, one at a time,
    so each is checked before the text after it is read."""
    pos = 0
    for m in _TOKEN_RE.finditer(text):
        if text[pos:m.start()].strip():
            raise SequenceParseError(f"unexpected text {text[pos:m.start()]!r}")
        pos = m.end()
        token, mult_text = m.group(1), m.group(2)
        inner = token[1:-1] if token.startswith("(") else token
        parts = inner.split(",") if inner.strip() else []
        try:
            coords = tuple(int(p) for p in parts)
        except ValueError:
            coords = tuple(parts)  # not all integers: `_read_terms` refuses them
        yield token, coords, int(mult_text) if mult_text is not None else 1
    if text[pos:].strip():
        raise SequenceParseError(f"unexpected trailing text {text[pos:]!r}")


def parse_elements(group: Group, text: str, lenient: bool = False) -> Sequence:
    """Parse the element body of a sequence ("1^4 2^4" or "(0,1) (1,0)^2")."""
    return _read_terms(group, _text_terms(text), lenient)


def parse_sequence(text: str, lenient: bool = False) -> Sequence:
    """Parse the full text form "<group>: <elements>". Round-trips serialize."""
    if ":" not in text:
        raise SequenceParseError("expected '<group>: <elements>'")
    group_text, body = text.split(":", 1)
    group = parse_group(group_text)
    return parse_elements(group, body, lenient=lenient)


def sequence_to_jsonable(seq: Sequence) -> dict:
    """JSON form: moduli plus [coords, mult] pairs sorted by coords."""
    return {
        "group": {"moduli": list(seq.group.moduli)},
        "counts": [[list(el), m] for el, m in seq.counts.items()],
    }


def sequence_from_jsonable(data: dict, lenient: bool = False) -> Sequence:
    """Read {"group": {"moduli": [...]}, "counts": [[coords, mult], ...]}."""
    try:
        moduli = data["group"]["moduli"]
        pairs = data["counts"]
    except (KeyError, TypeError) as exc:
        raise SequenceParseError(f"malformed sequence JSON: {exc}") from exc
    if not (isinstance(moduli, list) and isinstance(pairs, list) and all(
        isinstance(pair, list) and len(pair) == 2 and isinstance(pair[0], list) for pair in pairs
    )):
        raise SequenceParseError("malformed sequence JSON: want a moduli list and [coords, mult] pairs")
    try:
        group = make_group(moduli)
    except ValueError as exc:
        raise SequenceParseError(str(exc)) from exc
    return _read_terms(group, ((coords, coords, mult) for coords, mult in pairs), lenient)
