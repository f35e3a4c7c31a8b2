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

The search is one loop over frames indexed by depth.  A state at depth
``j`` reads ``word[j]``, so at most one frame is live per depth, and each
frame's fields (its vertex, its vertex count, the next target vertex to
try or a forced-step mark, the edge its step crosses, and the label bit
its edge added) sit in int lists indexed by depth, made once per call.
Entering a frame counts it against the budget and prunes; leaving a
child returns to the frame one level up, which removes that child's
edge and tries its next target.  The loop stores only ints in lists and
a dict sized by the edges, so no search state allocates a container or
leaves garbage for the cyclic collector.  The search depth equals the
word length, and the half-relator subwords of condition (3) run to
thousands of letters, far past Python's recursion limit.
"""

from __future__ import annotations

import math
from bisect import bisect_left
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
        # A reduced word has no letter 0, so min and max find any bad
        # letter in C; the loop only names the first.
        if min(self.word) < -self.m or max(self.word) > self.m:
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


def is_readable(query: ReadabilityQuery) -> ReadabilityAnswer:
    """Decide readability, producing a witness for positive answers.

    The verdict is exact (``Readable`` answers carry a witness that
    :func:`witness_is_valid` accepts; ``NotReadable`` means no witness
    exists) unless the node budget runs out, in which case the verdict
    is ``Unknown``.

    >>> ans = is_readable(ReadabilityQuery((1, 2, 1, 2), 2, Fraction(1, 2), 1))
    >>> ans.verdict, ans.nodes_expanded, ans.graph.edges
    ('Readable', 7, {0: (0, 1, 1), 1: (1, 0, 2)})
    """
    word = query.word
    l = len(word)
    max_e = query.edge_budget
    labels = set(map(abs, word))

    if len(labels) > max_e:
        # Every distinct generator in the word needs its own edge.
        return ReadabilityAnswer(NOT_READABLE)
    if query.mu == 1:
        # The bare interval graph is a witness: l edges, rank 0, and its
        # endpoints have degree 1.
        g = FGraph()
        path_steps = g.add_path(g.add_vertex(), None, word)
        return ReadabilityAnswer(READABLE, g, Path(0, path_steps))

    # Label bit i belongs to the generator read for the last time at
    # lasts[i], so the generators still to read at depth j are the bits
    # from bisect_left(lasts, j) up.
    rev = word[::-1]
    lasts = sorted(l - 1 - min(rev.index(y) for y in (g, -g) if y in rev) for g in labels)
    bit = {}
    for i, p in enumerate(lasts):
        bit[word[p]] = bit[-word[p]] = 1 << i
    absent = (1 << len(lasts)) - 1  # bits of generators on no edge yet
    # Slot (v, x) has key v * width + x; it holds the id of the edge that
    # reading x at v crosses.  Folded means each slot holds at most one edge.
    width = 2 * max(labels) + 1
    trans: dict[int, int] = {}
    ends = [0] * max_e  # per edge id, the sum of its two endpoints
    at = [0] * (l + 1)  # the frame's vertex
    n_vertices = [1] * (l + 1)
    nxt = [0] * l  # next target vertex to try, or -1 for a forced step
    eid = [0] * l  # the edge the frame's step crosses
    new_bit = [0] * l  # the label bit the frame's edge added to the graph
    budget = math.inf if query.node_budget is None else query.node_budget
    rank_bound = query.rank_bound
    e = nodes = j = 0
    entering = True
    while j >= 0:
        if entering:
            # One search state: having read word[:j], standing at at[j].
            nodes += 1
            if nodes > budget:
                return ReadabilityAnswer(UNKNOWN, nodes_expanded=nodes)
            if absent and e + (absent >> bisect_left(lasts, j)).bit_count() > max_e:
                j, entering = j - 1, False
                continue
            if j == l:
                edges = [None] * e
                for i in range(l):
                    if nxt[i] >= 0:
                        x = word[i]
                        edges[eid[i]] = (at[i], at[i + 1], x) if x > 0 else (at[i + 1], at[i], -x)
                # Every vertex lies on the path, so every vertex has a degree.
                deg = Counter(v for o, t, _ in edges for v in (o, t))
                if not query.require_low_degree or min(deg.values()) < 2 * query.m:
                    steps = tuple((eid[i], 1 if word[i] > 0 else -1) for i in range(l))
                    return ReadabilityAnswer(READABLE, FGraph.from_edges(edges),
                                             Path(0, steps), nodes)
                j, entering = j - 1, False
                continue
            x, cur = word[j], at[j]
            h = trans.get(cur * width + x)
            if h is not None:
                # Folded: the existing edge is the only way to read x here.
                nxt[j], eid[j], at[j + 1], n_vertices[j + 1] = -1, h, ends[h] - cur, n_vertices[j]
                j += 1
                continue
            if e == max_e:
                j, entering = j - 1, False
                continue
            # The graph is connected, so its rank is e - n_vertices + 1.
            u = 0 if e - n_vertices[j] + 1 < rank_bound else n_vertices[j]
        else:
            u = nxt[j]
            if u < 0:
                j -= 1
                continue
            # Remove the edge this frame added, the newest one.
            e -= 1
            x, cur = word[j], at[j]
            del trans[cur * width + x], trans[at[j + 1] * width - x]
            absent |= new_bit[j]
        # Children: an existing vertex whose matching slot is free, in
        # increasing id, then the fresh vertex n.
        n = n_vertices[j]
        while u < n and u * width - x in trans:
            u += 1
        if u > n:
            j -= 1
            continue
        trans[cur * width + x] = trans[u * width - x] = e
        ends[e], eid[j], nxt[j], at[j + 1] = cur + u, e, u + 1, u
        n_vertices[j + 1] = n + (u == n)
        new_bit[j] = b = bit[x] & absent
        absent ^= b
        e += 1
        j, entering = j + 1, True
    return ReadabilityAnswer(NOT_READABLE, nodes_expanded=nodes)
