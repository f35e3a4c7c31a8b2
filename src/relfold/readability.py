"""Decide whether a word can be spelled by a path in a small labeled graph.

A reduced word ``w`` of length ``l`` is *readable* under an edge budget
``mu`` (an exact rational with ``0 < mu <= 1``) and a rank bound if some
connected folded graph ``G`` with at most ``mu * l`` edges and rank at
most the bound contains a path spelling ``w``.  Optionally the graph must
also have a vertex of degree below ``2 * m`` (a "free slot"), where ``m``
is the alphabet rank.

Searching only folded graphs, and only the subgraph actually traversed by
the path, loses no generality:

* a path spelling a reduced word never backtracks across an edge, so it
  is automatically a reduced path;
* restricting a witness graph to the image of its path keeps the path
  while lowering the edge count and the rank;
* folding a witness merges parallel equal-label edges, again lowering the
  edge count and the rank without disturbing the spelled word;
* for the free-slot variant, restriction is still safe: if the original
  witness was connected, folded, and strictly larger than the path image,
  then connectivity hands some path-image vertex an extra incident edge
  that restriction removes, so the restricted graph has a vertex with an
  open slot (degree below ``2 * m``); if the witness equals its path
  image the property carries over verbatim.

``is_readable`` therefore runs a depth-first search over partial walks:
read ``w`` letter by letter, and at each step either follow the unique
existing edge (foldedness forces it), open a new edge to an existing
vertex whose matching slot is free, or open a new edge to a fresh vertex.
Along any branch the edge count and the rank only ever grow, so the edge
budget and the rank bound prune exactly.  An optional node budget turns
the answer into ``Unknown`` instead of letting the search run long.

No two search states are the same up to relabeling, so there is nothing
to memoise.  In a state ``(j, cur, G)``, ``G`` is exactly the set of
edges crossed by the path reading ``w[:j]`` from vertex 0 to ``cur``.
Take a label-preserving isomorphism from one such ``G`` to another that
sends ``cur`` to ``cur``.  Both graphs are folded, so reading ``w[:j]``
backwards from ``cur`` follows one path in each; the isomorphism maps
path onto path and vertex 0 onto vertex 0.  Vertices and edges are
numbered in the order the path first meets them, so it is the identity.
Equal graphs and paths mean equal choices: each node of the search tree
is visited once.

Each search state is one generator frame.  It counts itself against the
budget and prunes; then it yields one child state per choice, adding
that choice's edge before the yield and removing it when resumed.  A
short loop steps the top frame of an explicit stack: the search depth
equals the word length, and the half-relator subwords of condition (3)
run to thousands of letters, far past Python's recursion limit.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .fgraph import FGraph, Path
from .words import Word, is_reduced

READABLE = "Readable"
NOT_READABLE = "NotReadable"
UNKNOWN = "Unknown"


@dataclass(frozen=True)
class ReadabilityQuery:
    """One readability question: word, alphabet rank, and constraints.

    ``mu`` is kept as an exact :class:`~fractions.Fraction`; the edge
    budget means ``E * mu.denominator <= mu.numerator * len(word)``.
    ``rank_bound`` caps the witness graph's rank.  With
    ``require_low_degree`` the witness must in addition have a vertex of
    degree below ``2 * m``.  ``node_budget`` caps the number of search
    states the solver may expand before giving up with ``Unknown``.
    """

    word: Word
    m: int
    mu: Fraction
    rank_bound: int
    require_low_degree: bool = False
    node_budget: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "word", tuple(self.word))
        object.__setattr__(self, "mu", Fraction(self.mu))
        if self.m < 1:
            raise ValueError("alphabet rank must be at least 1")
        if not self.word:
            raise ValueError("word must be nonempty")
        if not is_reduced(self.word):
            raise ValueError("word must be freely reduced")
        for x in self.word:
            if not 1 <= abs(x) <= self.m:
                raise ValueError(f"letter {x} outside alphabet of rank {self.m}")
        if not 0 < self.mu <= 1:
            raise ValueError("edge budget mu must satisfy 0 < mu <= 1")
        if self.rank_bound < 0:
            raise ValueError("rank bound must be nonnegative")
        if self.node_budget is not None and self.node_budget <= 0:
            raise ValueError("node budget must be positive")

    @property
    def edge_budget(self) -> int:
        """Largest edge count allowed: floor(mu * len(word))."""
        return (self.mu.numerator * len(self.word)) // self.mu.denominator


@dataclass(frozen=True)
class ReadabilityAnswer:
    """Outcome of a readability search.

    ``verdict`` is one of ``READABLE``, ``NOT_READABLE``, ``UNKNOWN``.
    For a positive answer ``graph`` and ``path`` carry a witness: a
    folded connected graph and a path in it spelling the queried word.
    ``nodes_expanded`` counts search states visited.
    """

    verdict: str
    graph: Optional[FGraph] = None
    path: Optional[Path] = None
    nodes_expanded: int = 0

    def __bool__(self) -> bool:
        return self.verdict == READABLE


def witness_is_valid(query: ReadabilityQuery, graph: FGraph, path: Path) -> bool:
    """Re-check a witness against every constraint of ``query``."""
    try:
        label = graph.path_label(path)
    except (KeyError, ValueError):
        return False
    if label != query.word:
        return False
    if not graph.is_connected() or not graph.is_folded():
        return False
    l = len(query.word)
    if graph.num_edges() * query.mu.denominator > query.mu.numerator * l:
        return False
    if graph.rank() > query.rank_bound:
        return False
    if query.require_low_degree:
        if all(graph.degree(v) >= 2 * query.m for v in graph.vertices):
            return False
    return True


class _BudgetExhausted(Exception):
    pass


def is_readable(query: ReadabilityQuery) -> ReadabilityAnswer:
    """Decide readability, producing a witness for positive answers.

    The verdict is exact (``Readable`` answers carry a witness that
    :func:`witness_is_valid` accepts; ``NotReadable`` means no witness
    exists) unless the node budget runs out, in which case the verdict
    is ``Unknown``.
    """
    word = query.word
    l = len(word)
    max_e = query.edge_budget

    if len({abs(x) for x in word}) > max_e:
        # Every distinct generator in the word needs its own edge.
        return ReadabilityAnswer(NOT_READABLE)
    if query.mu == 1:
        # The bare interval graph is a witness: l edges, rank 0, and its
        # endpoints have degree 1.
        g = FGraph()
        path_steps = g.add_path(g.add_vertex(), None, word)
        return ReadabilityAnswer(READABLE, g, Path(0, path_steps))

    # Distinct generators still missing from the graph at each suffix.
    suffix_labels = [frozenset()] * (l + 1)
    for j in range(l - 1, -1, -1):
        suffix_labels[j] = suffix_labels[j + 1] | {abs(word[j])}

    # slot (v, x) -> (u, edge_id, direction): reading x at v crosses the
    # recorded edge to u.  Folded means each slot holds at most one edge.
    trans: dict[tuple[int, int], tuple[int, int, int]] = {}
    edges: list[tuple[int, int, int]] = []  # (origin, target, label)
    label_count = [0] * (query.m + 1)  # edges carrying each generator
    steps: list[tuple[int, int]] = []
    nodes = 0
    found: Optional[tuple[FGraph, Path]] = None  # the witness, once met

    def add_edge(cur: int, x: int, u: int) -> None:
        eid, lab = len(edges), abs(x)
        edges.append((cur, u, lab) if x > 0 else (u, cur, lab))
        direction = 1 if x > 0 else -1
        trans[(cur, x)] = (u, eid, direction)
        trans[(u, -x)] = (cur, eid, -direction)
        steps.append((eid, direction))
        label_count[lab] += 1

    def remove_edge(cur: int, x: int, u: int) -> None:
        edges.pop()
        steps.pop()
        del trans[(cur, x)], trans[(u, -x)]
        label_count[abs(x)] -= 1

    def state(j: int, cur: int, n_vertices: int, rank: int):
        # One search state: having read word[:j], standing at vertex cur.
        nonlocal nodes, found
        nodes += 1
        if query.node_budget is not None and nodes > query.node_budget:
            raise _BudgetExhausted
        e_now = len(edges)
        if e_now + sum(not label_count[lab] for lab in suffix_labels[j]) > max_e:
            return
        if j == l:
            # Every vertex lies on the path, so every vertex has a degree.
            deg = Counter(v for o, t, _ in edges for v in (o, t))
            if query.require_low_degree and min(deg.values()) >= 2 * query.m:
                return
            found = (FGraph.from_edges(edges), Path(0, tuple(steps)))
            return
        x = word[j]
        hit = trans.get((cur, x))
        if hit is not None:
            # Folded: the existing edge is the only way to read x here.
            u, eid, direction = hit
            steps.append((eid, direction))
            yield state(j + 1, u, n_vertices, rank)
            steps.pop()
        elif e_now < max_e:
            if rank < query.rank_bound:
                for u in range(n_vertices):
                    if (u, -x) not in trans:
                        add_edge(cur, x, u)
                        yield state(j + 1, u, n_vertices, rank + 1)
                        remove_edge(cur, x, u)
            add_edge(cur, x, n_vertices)
            yield state(j + 1, n_vertices, n_vertices + 1, rank)
            remove_edge(cur, x, n_vertices)

    stack = [state(0, 0, 1, 0)]
    try:
        while stack and found is None:
            child = next(stack[-1], None)
            if child is None:
                stack.pop()
            else:
                stack.append(child)
    except _BudgetExhausted:
        return ReadabilityAnswer(UNKNOWN, nodes_expanded=nodes)

    if found is None:
        return ReadabilityAnswer(NOT_READABLE, nodes_expanded=nodes)
    return ReadabilityAnswer(READABLE, *found, nodes)
