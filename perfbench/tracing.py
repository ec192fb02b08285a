"""Spans and call counts around zerosum's layers, recorded from outside.

The tracer replaces public functions and methods of the loaded zerosum
modules with wrappers while it is installed, and puts the originals back
when it is removed; nothing under src/ is edited. A span is kept for every
wrapped call as (name, start, end, parent) in flat arrays, and each layer's
call count, inclusive time and self time (duration minus the time covered
by its child spans) are summed as the spans close. The hottest methods,
`Group.contains` and the group arithmetic, are only counted: a span per
call would cost more than the work it measures.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict

# (span name, zerosum module, function) for module-level public functions.
# Every module that imported the function by name is patched, so calls
# between layers go through the wrappers too.
FUNCTION_SPANS = [
    ("cli", "cli", "main"),
    ("search.constant", "search", "brute_force_modified_constant"),
    ("search.check_all", "search", "check_all_have_witness"),
    ("search.enumerate", "search", "enumerate_multisets"),
    ("search.por2p", "search", "check_lemma_por2p"),
    ("search.lemma3n", "search", "check_lemma_3n"),
    ("search.verify", "search", "verify_theorem"),
    ("engine.find", "engine", "find_zero_sum_subseq"),
    ("engine.count", "engine", "count_zero_sum_subseqs"),
    ("engine.has", "engine", "has_zero_sum_of_length"),
    ("engine.has", "engine", "has_zero_sum_in_lengths"),
    ("extractors", "extractors", "extract_cyclic_block"),
    ("extractors", "extractors", "cyclic_block_decomposition"),
    ("extractors", "extractors", "extract_cyclic_nt"),
    ("extractors", "extractors", "extract_cyclic_nt_rounds"),
    ("extractors", "extractors", "extract_square_3n"),
    ("extractors", "extractors", "extract_square_block"),
    ("extractors", "extractors", "extract_square_n"),
    ("constructions", "constructions", "build_cyclic_extremal"),
    ("constructions", "constructions", "build_square_extremal"),
    ("constructions", "constructions", "build_power2_extremal"),
    ("constructions", "constructions", "validate_extremal"),
]

# (span name, zerosum module, class, method).
METHOD_SPANS = [
    ("sequences.construct", "sequences", "Sequence", "__init__"),
    ("bitdp.fold", "_bitdp", "GroupPack", "add_copies"),
]

# (counter name, zerosum module, class, method): counted, no span.
METHOD_COUNTS = [
    ("groups.contains", "groups", "Group", "contains"),
    ("groups.arith", "groups", "Group", "add"),
    ("groups.arith", "groups", "Group", "neg"),
    ("groups.arith", "groups", "Group", "scale"),
]


class Tracer:
    """Spans and counts for one run; `install` and `remove` bracket each
    traced call so that untraced calls run the original code."""

    def __init__(self, zs):
        self.zs = zs
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.calls: dict[str, int] = defaultdict(int)
        self.entries: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [span index, name, start, child seconds]
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else None
        if parent is None or parent[1].split(".")[0] != name.split(".")[0]:
            self.entries[name] += 1
        idx = len(self.span_name)
        self.span_name.append(self._name_id(name))
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self.span_parent.append(-1 if parent is None else parent[0])
        self._stack.append([idx, name, time.perf_counter(), 0.0])

    def close(self) -> None:
        end = time.perf_counter()
        idx, name, start, child = self._stack.pop()
        self.span_start[idx] = start
        self.span_end[idx] = end
        dur = end - start
        self.calls[name] += 1
        self.total_s[name] += dur
        self.self_s[name] += dur - child
        if self._stack:
            self._stack[-1][3] += dur

    def span(self, name: str, fn, *args, **kwargs):
        self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close()

    # -- wrappers ------------------------------------------------------------

    def _spanned(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close()
            tracer.observe(name, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name: str, fn):
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _enumerate_wrapper(self, fn):
        """enumerate_multisets with its visitor in a child span, so that the
        enumerator's self time leaves the visitor's work out."""
        spanned = self._spanned("search.enumerate", fn)
        tracer = self

        def wrapper(group, length, visitor, **kwargs):
            return spanned(
                group, length, lambda seq: tracer.span("search.visitor", visitor, seq), **kwargs
            )

        wrapper.__wrapped__ = fn
        return wrapper

    def observe(self, name: str, result) -> None:
        """Exact work counters read from the values the layers return."""
        c = self.counters
        if name == "search.constant":
            c["search.nodes"] += result.stats.nodes_visited
            c["search.leaves"] += result.stats.sequences_checked
        elif name == "search.check_all":
            c["search.leaves"] += result.checked
        elif name == "search.enumerate":
            c["search.enumerate_visited"] += result.visited
        elif name == "search.por2p" and result.params.get("mode") == "sample":
            c["search.por2p_draws"] += result.checked + result.vacuous
            c["search.por2p_accepted"] += result.checked

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        zs = self.zs
        modules = list(zs.modules.values())
        for name, mod, fn_name in FUNCTION_SPANS:
            original = getattr(zs.modules[mod], fn_name)
            if name == "search.enumerate":
                wrapper = self._enumerate_wrapper(original)
            else:
                wrapper = self._spanned(name, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._set(m, attr, wrapper)
        for name, mod, cls, meth in METHOD_SPANS:
            klass = getattr(zs.modules[mod], cls)
            self._set(klass, meth, self._spanned(name, vars(klass)[meth]))
        for name, mod, cls, meth in METHOD_COUNTS:
            klass = getattr(zs.modules[mod], cls)
            self._set(klass, meth, self._counted(name, vars(klass)[meth]))

    def remove(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def traced(self, op_name: str, fn):
        """Run one operation under a root span named after it."""
        self.install()
        try:
            return self.span("op:" + op_name, fn)
        finally:
            self.remove()

    def spans_jsonable(self) -> dict:
        return {
            "names": self.names,
            "name": self.span_name.tolist(),
            "start": self.span_start.tolist(),
            "end": self.span_end.tolist(),
            "parent": self.span_parent.tolist(),
        }
