"""Timing wrappers installed around public layer functions of relfold.

A wrapper goes on the name through which the caller looks the function
up (for example ``relfold.nielsen.fold_all``, the name ``reduce_tuple``
calls), so the library itself is not edited.  Each call is a span; spans
nest on a stack, a span's self time is its duration minus the time of
the spans it caused, and the time is also booked on the (parent, child)
edge.  Count-only wrappers serve methods called too often to time.
Per-letter helpers such as ``FGraph._step_from`` or ``free_reduce`` are
never wrapped.  :meth:`Tracer.restore` puts every original back.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # name -> calls, s, self_s
        self.edges = defaultdict(lambda: [0, 0.0])  # (parent, child) -> calls, s
        self.counts = defaultdict(int)
        self._stack: list[list] = []
        self._patches: list[tuple] = []

    def _install(self, owner, attr: str, wrapper) -> None:
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(wrapper))

    def span(self, owner, attr: str, name: str, on_result=None) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``;
        ``on_result(tracer, result)`` may add counts from the result."""
        fn = vars(owner)[attr]
        stack, spans, edges = self._stack, self.spans, self.edges

        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += elapsed
                row = spans[name]
                row[0] += 1
                row[1] += elapsed
                row[2] += elapsed - frame[1]
                edge = edges[(parent[0] if parent else None, name)]
                edge[0] += 1
                edge[1] += elapsed
            if on_result is not None:
                on_result(self, result)
            return result

        self._install(owner, attr, wrapper)

    def count(self, owner, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` without timing them."""
        fn = vars(owner)[attr]
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        self._install(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def snapshot(self) -> dict:
        """Call counts so far, by span and counter name."""
        out = {name: row[0] for name, row in self.spans.items()}
        out.update(self.counts)
        return out


def install(tracer: Tracer, relfold) -> None:
    """Wrap the layer functions of the ``relfold`` package object."""
    fgraph, smallcancel, nielsen = relfold.fgraph, relfold.smallcancel, relfold.nielsen
    words, whitehead, iso = relfold.words, relfold.whitehead, relfold.iso
    genericity = relfold.genericity

    def add(counter):
        def hook(t, result):
            t.counts[counter] += len(result)
        return hook

    def readability_hook(t, answer):
        t.counts["readability.nodes_expanded"] += answer.nodes_expanded
        t.counts["readability.unknown"] += answer.verdict == "Unknown"

    def membership_hook(t, report):
        if report.c3 is not None:
            t.counts["genericity.c3_checked_subwords"] += report.c3.checked_subwords

    tracer.count(fgraph.FGraph, "basis_data", "fgraph.FGraph.basis_data")
    tracer.count(fgraph.FGraph, "is_connected", "fgraph.FGraph.is_connected")
    tracer.span(nielsen, "fold_all", "fgraph.fold_all", add("fgraph.fold_records"))
    tracer.span(nielsen, "remove_degree_one", "fgraph.remove_degree_one",
                add("fgraph.strip_records"))
    tracer.span(nielsen, "find_long_relator_path", "smallcancel.find_long_relator_path")
    tracer.span(nielsen, "is_equal_in_G", "smallcancel.is_equal_in_G")
    for module in (nielsen, genericity, smallcancel):
        tracer.span(module, "check_Cprime", "smallcancel.check_Cprime")
    tracer.span(nielsen, "reduce_tuple", "nielsen.reduce_tuple")
    tracer.span(nielsen, "verify_trace", "nielsen.verify_trace")
    tracer.span(nielsen, "trace_jsonable", "nielsen.trace_jsonable")
    tracer.span(words, "canonical_rotation", "words.canonical_rotation")
    tracer.span(whitehead, "minimize", "whitehead.minimize")
    tracer.span(whitehead, "apply_move", "whitehead.apply_move")
    tracer.span(whitehead, "canonical_orbit_form", "whitehead.canonical_orbit_form")
    tracer.span(iso, "same_orbit", "whitehead.same_orbit")
    tracer.span(whitehead, "verify_certificate", "whitehead.verify_certificate")
    tracer.span(iso, "certificate_jsonable", "whitehead.certificate_jsonable")
    tracer.span(iso, "decide_isomorphic", "iso.decide_isomorphic")
    tracer.span(genericity, "is_readable", "readability.is_readable", readability_hook)
    tracer.span(genericity, "check_membership", "genericity.check_membership",
                membership_hook)
