"""Labeled directed multigraphs with folding and certified surgery.

An ``FGraph`` is a finite directed multigraph whose edges carry positive
generator labels 1..m and which may carry a distinguished base vertex.
Traversing an edge backward reads the inverse letter, so a single stored
edge serves both a generator and its inverse.

The module provides ``bouquet`` (a wedge of loops spelling given words),
``fold_all`` (Stallings folding), ``remove_degree_one`` (stripping hanging
trees; a base on one walks off it), ``relocate_base``, ``apply_AO``
(attach a short path with an equal-in-G label, then remove a long
subpath), spanning-tree bases, the maximal-arc owner map and word tracing.

The graph changes by three kinds of record: Fold (a whole folding
phase), R (a whole strip phase, or one base move) and AO (one surgery);
``detail["moves"]`` counts the elementary moves a record stands for.
Each ``MoveRecord`` carries two-way *basis witnesses*: for each
free-basis loop of the graph after, a word over the basis before whose
evaluation equals the loop's label (in the free group for Fold and R, in
the presented group for AO), and conversely.  The words are read by
crossings: the label of a walk closing at the root of a spanning tree
freely equals the product of the basis words of the non-tree edges it
crosses, in any graph, because tree-path labels telescope.  A folding
phase joins the lifted edges of a loop with *connector* words, one per
merged-away vertex, reading only the letters that cancel (see ``fold_all``).

One routine, ``_record``, builds every record: it reads both witness
directions through the caller's lifts and checks the rank change.
``witnesses_hold`` checks the witnesses, freely for Fold/R in
``_record`` and again in ``nielsen.verify_trace``, which also checks AO
records in the presented group.  It evaluates each direction's words in
one ``words.substitute_all`` call, with no memo kept between calls.  A
folding phase's witness words are mostly frames ``P·x·P⁻¹`` that share
``P``, so the call evaluates the shared prefix once and pushes each
``φ(P)⁻¹`` as one block instead of evaluating ``P⁻¹`` symbol by symbol.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from typing import Iterable, Optional, Sequence

from .words import Word, free_reduce, inverse, concat, join, substitute_all


@dataclass(frozen=True)
class Path:
    """A walk in an FGraph: a start vertex and (edge id, direction) steps.

    Direction +1 traverses the edge from origin to terminus (reading its
    label), -1 the reverse (reading the inverse letter).
    """

    start: int
    steps: tuple = ()


def reverse_steps(steps: Sequence[tuple]) -> tuple:
    """The (edge, dir) steps of a walk, traversed backward."""
    return tuple((e, -d) for e, d in reversed(steps))


MOVE_KINDS = ("Fold", "R", "AO")


@dataclass
class MoveRecord:
    """A fold or strip phase, base move or surgery, certifying bases.

    ``post_in_pre[j]`` is a word over pre-basis symbols (letter k stands
    for pre-basis element k) whose evaluation at ``pre_basis`` equals
    ``post_basis[j]`` -- freely for Fold/R, in the presented group for
    AO.  ``pre_in_post`` is the converse direction.  For a
    base-moving R the relation is conjugated: label(post_j) equals
    conjugator^-1 * Eval(post_in_pre[j]) * conjugator, and symmetrically
    pre_i equals conjugator * Eval(pre_in_post[i]) * conjugator^-1.
    """

    kind: str  # one of MOVE_KINDS
    pre_basis: tuple = ()
    post_basis: tuple = ()
    post_in_pre: tuple = ()
    pre_in_post: tuple = ()
    conjugator: Word = ()
    detail: dict = field(default_factory=dict)


@dataclass(frozen=True)
class NielsenTrace:
    """Record-by-record log linking the input tuple to the terminal basis.

    ``steps`` holds (MoveRecord, snapshot) pairs, one per fold phase,
    strip phase, base hop or surgery, where the snapshot is the
    free-basis labels after the record; consecutive snapshots are tied
    together by the record's two-way basis words.  ``initial_arrangement``
    matches basis slots to input entries: entry ``+(i+1)`` means slot j
    starts as input word i, ``-(i+1)`` as its inverse.  ``conjugator``
    accumulates the base relocations, so the initial tuple is Nielsen-
    equivalent to the conjugate of the final tuple by it.
    """

    initial_tuple: tuple
    initial_arrangement: tuple
    steps: tuple
    final_tuple: tuple
    conjugator: Word


def initial_basis(initial_tuple: Sequence, arrangement: Sequence[int]) -> tuple:
    """A trace's starting basis: slot j holds input entry ``arrangement[j]``
    (1-based, inverted when negative); ``ValueError`` if no entry has it."""
    for k in arrangement:
        if not 0 < abs(k) <= len(initial_tuple):
            raise ValueError(f"bad basis index {k!r}")
    return tuple(initial_tuple[k - 1] if k > 0 else inverse(initial_tuple[-k - 1])
                 for k in arrangement)


class FGraph:
    """Mutable labeled multigraph with optional base vertex."""

    def __init__(self):
        self.vertices: set[int] = set()
        self.edges: dict[int, tuple[int, int, int]] = {}
        self.base: Optional[int] = None
        self._out: dict[int, set[int]] = {}
        self._in: dict[int, set[int]] = {}
        self._next_vertex = 0
        self._next_edge = 0

    # -- construction -----------------------------------------------------

    def add_vertex(self) -> int:
        v = self._next_vertex
        self._next_vertex += 1
        self.vertices.add(v)
        self._out[v] = set()
        self._in[v] = set()
        return v

    def add_edge(self, o: int, t: int, label: int) -> int:
        if label < 1:
            raise ValueError("edge labels are positive generator indices")
        if o not in self.vertices or t not in self.vertices:
            raise ValueError("edge endpoint is not a vertex")
        e = self._next_edge
        self._next_edge += 1
        self.edges[e] = (o, t, label)
        self._out[o].add(e)
        self._in[t].add(e)
        return e

    def add_path(self, start: int, end: Optional[int], word: Sequence[int]) -> tuple:
        """Attach fresh edges spelling ``word`` from ``start`` to ``end``.

        With ``end`` None the path ends at a fresh vertex.  Returns the
        path's (edge, dir) steps.
        """
        steps = []
        cur = start
        for i, x in enumerate(word):
            nxt = end if end is not None and i == len(word) - 1 else self.add_vertex()
            if x > 0:
                steps.append((self.add_edge(cur, nxt, x), 1))
            else:
                steps.append((self.add_edge(nxt, cur, -x), -1))
            cur = nxt
        return tuple(steps)

    @staticmethod
    def from_edges(edge_list: Iterable[tuple], base: Optional[int] = None) -> "FGraph":
        """Build a graph from (origin, terminus, label) triples.

        Vertex ids are assigned to cover all mentioned endpoints.
        """
        g = FGraph()
        seen = sorted({v for o, t, _ in edge_list for v in (o, t)} | ({base} if base is not None else set()))
        remap = {v: g.add_vertex() for v in seen}
        for o, t, lbl in edge_list:
            g.add_edge(remap[o], remap[t], lbl)
        if base is not None:
            g.base = remap[base]
        return g

    # -- mutation primitives (internal) -----------------------------------

    def _remove_edge(self, e: int) -> None:
        o, t, _ = self.edges.pop(e)
        self._out[o].discard(e)
        self._in[t].discard(e)

    def _remove_isolated_vertex(self, v: int) -> None:
        if self._out[v] or self._in[v]:
            raise ValueError("vertex is not isolated")
        self.vertices.discard(v)
        del self._out[v]
        del self._in[v]

    def _merge_vertices(self, keep: int, drop: int) -> None:
        if keep == drop:
            return
        for e in self._out.pop(drop) | self._in.pop(drop):
            o, t, lbl = self.edges[e]
            o, t = (keep if o == drop else o), (keep if t == drop else t)
            self.edges[e] = (o, t, lbl)
            self._out[o].add(e)
            self._in[t].add(e)
        self.vertices.discard(drop)
        if self.base == drop:
            self.base = keep

    # -- basic queries ------------------------------------------------------

    def degree(self, v: int) -> int:
        """Degree with loops counted twice."""
        return len(self._out[v]) + len(self._in[v])

    def stubs(self, v: int) -> list:
        """The (edge, dir) steps leaving v, sorted; a loop gives two."""
        return sorted([(e, 1) for e in self._out[v]] + [(e, -1) for e in self._in[v]])

    def num_edges(self) -> int:
        return len(self.edges)

    def num_vertices(self) -> int:
        return len(self.vertices)

    def is_connected(self) -> bool:
        if not self.vertices:
            return True
        seen = set()
        stack = [min(self.vertices)]
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            for e in self._out[v]:
                stack.append(self.edges[e][1])
            for e in self._in[v]:
                stack.append(self.edges[e][0])
        return len(seen) == len(self.vertices)

    def rank(self) -> int:
        """First Betti number E - V + 1 of a connected graph."""
        if not self.is_connected():
            raise ValueError("rank requires a connected graph")
        return len(self.edges) - len(self.vertices) + 1

    def is_folded(self) -> bool:
        return all(len({self.edges[e][2] for e in side[v]}) == len(side[v])
                   for side in (self._out, self._in) for v in self.vertices)

    def step_ends(self, e: int, d: int) -> tuple[int, int]:
        o, t, _ = self.edges[e]
        return (o, t) if d > 0 else (t, o)

    def step_letter(self, e: int, d: int) -> int:
        lbl = self.edges[e][2]
        return lbl if d > 0 else -lbl

    def path_end(self, p: Path) -> int:
        cur = p.start
        for e, d in p.steps:
            f, t = self.step_ends(e, d)
            if f != cur:
                raise ValueError("path steps are not consecutive")
            cur = t
        return cur

    def path_letters(self, p: Path) -> Word:
        """Raw letter sequence along the path (not freely reduced)."""
        return tuple(self.step_letter(e, d) for e, d in p.steps)

    def path_label(self, p: Path) -> Word:
        return free_reduce(self.path_letters(p))

    def path_is_reduced(self, p: Path) -> bool:
        return all(not (p.steps[i][0] == p.steps[i + 1][0]
                        and p.steps[i][1] == -p.steps[i + 1][1])
                   for i in range(len(p.steps) - 1))

    def dump(self) -> str:
        """Deterministic debug dump: base line then one line per edge."""
        lines = [f"base {self.base}"]
        for e in sorted(self.edges):
            o, t, lbl = self.edges[e]
            lines.append(f"{o}->{t}:{lbl}")
        return "\n".join(lines)

    # -- spanning tree and basis -------------------------------------------

    def _bfs_tree(self, root: int):
        """Breadth-first spanning tree from root, ties by lowest edge id.

        Returns (parent, tree_edges) where parent[v] = (pv, edge, dir)
        gives the tree step pv -> v, and parent[root] = None.
        """
        if root not in self.vertices:
            raise ValueError(f"base {root!r} is not a vertex")
        parent = {root: None}
        tree_edges = set()
        queue = [root]
        for v in queue:  # grows while it is read
            for e in sorted(self._out[v] | self._in[v]):
                o, t, _ = self.edges[e]
                if o == v and t not in parent:
                    parent[t] = (v, e, 1)
                    tree_edges.add(e)
                    queue.append(t)
                if t == v and o not in parent:
                    parent[o] = (v, e, -1)
                    tree_edges.add(e)
                    queue.append(o)
        if len(parent) != len(self.vertices):
            raise ValueError("graph is not connected")
        return parent, tree_edges

    def _tree_path_steps(self, parent, v: int) -> tuple:
        """Steps of the tree path root -> v."""
        rev = []
        while parent[v] is not None:
            pv, e, d = parent[v]
            rev.append((e, d))
            v = pv
        return tuple(reversed(rev))

    def basis_data(self):
        """Spanning tree plus basis loops at the base.

        Returns (parent, nontree, loops, labels): nontree is the non-tree
        edge list sorted by (label, id) -- this order makes the basis of
        the alphabet bouquet come out as (a_1, ..., a_m) literally --
        loops[j] is the Path for nontree[j], labels[j] its reduced label.
        """
        root = self.base
        parent, tree_edges = self._bfs_tree(root)  # no base: ValueError
        nontree = sorted((e for e in self.edges if e not in tree_edges),
                         key=lambda e: (self.edges[e][2], e))
        loops = tuple(Path(root, self._tree_path_steps(parent, self.edges[e][0]) + ((e, 1),)
                           + reverse_steps(self._tree_path_steps(parent, self.edges[e][1])))
                      for e in nontree)
        return parent, nontree, loops, tuple(self.path_label(p) for p in loops)

    def free_basis(self) -> tuple:
        """Labels of the spanning-tree basis loops at the base."""
        return self.basis_data()[3]

    # -- tracing -------------------------------------------------------------

    def trace_word(self, start: int, w: Sequence[int]) -> Optional[Path]:
        """The unique path from start spelling w in a folded graph."""
        if start not in self.vertices:
            raise ValueError("start is not a vertex")
        if not self.is_folded():
            raise ValueError("trace_word requires a folded graph")
        cur = start
        steps = []
        for x in w:
            nxt = self._step_from(cur, x)
            if nxt is None:
                return None
            steps.append(nxt[0])
            cur = nxt[1]
        return Path(start, tuple(steps))

    def _step_from(self, v: int, x: int):
        """((edge, dir), next vertex) reading letter x from v, if any."""
        if x > 0:
            for e in self._out[v]:
                if self.edges[e][2] == x:
                    return (e, 1), self.edges[e][1]
        else:
            for e in self._in[v]:
                if self.edges[e][2] == -x:
                    return (e, -1), self.edges[e][0]
        return None


# ---------------------------------------------------------------------------
# Construction


def bouquet(ws: Sequence[Word]) -> FGraph:
    """Wedge of loop-paths at a single base vertex, one per word."""
    g = FGraph()
    base = g.add_vertex()
    g.base = base
    for w in ws:
        if not w:
            raise ValueError("bouquet words must be nontrivial")
        g.add_path(base, base, w)
    return g


def is_alphabet_bouquet(g: FGraph, m: int) -> bool:
    """Whether g is a single base vertex with one loop per generator."""
    if len(g.vertices) != 1 or len(g.edges) != m or g.base is None:
        return False
    labels = sorted(lbl for _, _, lbl in g.edges.values())
    return labels == list(range(1, m + 1))


# ---------------------------------------------------------------------------
# The move record


def _symbols(data) -> dict:
    """Each non-tree edge of ``basis_data`` output -> its 1-based basis symbol."""
    return {e: j + 1 for j, e in enumerate(data[1])}


def _crossings(index: dict, steps: Sequence[tuple]) -> Word:
    """A root-closed walk in basis symbols: its non-tree crossings, reduced.

    ``index`` maps each non-tree edge to its 1-based basis symbol.  The
    result freely equals the walk's label after substituting the basis
    labels for the symbols, in any graph.
    """
    out = []
    for e, d in steps:
        j = index.get(e)
        if j is not None:
            out.append(j if d > 0 else -j)
    return free_reduce(out)


def freely_equal(u: Sequence[int], v: Sequence[int]) -> bool:
    """Whether two words are equal in the free group."""
    return concat(u, inverse(v)) == ()


def witnesses_hold(rec: MoveRecord, equal) -> bool:
    """Whether both witness directions of ``rec``, conjugated as in
    ``MoveRecord``, hold under the word equality ``equal(u, v)``.  A
    direction's words are all evaluated before any is compared, and the
    second direction is skipped once the first fails.  A witness count
    off its basis size or a zero or out-of-range basis symbol gives
    False."""
    c, c_inv = rec.conjugator, inverse(rec.conjugator)
    pre, post = rec.pre_basis, rec.post_basis
    if len(rec.post_in_pre) != len(post) or len(rec.pre_in_post) != len(pre):
        return False
    try:
        return (all(equal(post[j], concat(c_inv, v, c))
                    for j, v in enumerate(substitute_all(rec.post_in_pre, pre)))
                and all(equal(pre[i], concat(c, v, c_inv))
                        for i, v in enumerate(substitute_all(rec.pre_in_post, post))))
    except (IndexError, ValueError):
        return False


def _record(kind: str, g: FGraph, pre, lift_post, lift_pre, rank_change: int, *,
            detail: dict, conjugator: Word = ()) -> MoveRecord:
    """Certify a move or phase that has just mutated ``g``; build its record.

    ``pre`` is the pre-move ``basis_data`` at the old base.
    ``lift_post(steps, index)`` gives the reduced word, over the pre-move
    basis symbols ``index`` (edge -> symbol), of a post-move basis loop
    with these steps; ``lift_pre(steps, index)`` gives the word of a
    pre-move basis loop over the post-move symbols.  The rank (the
    non-tree edge count; the BFS behind ``basis_data`` proves the graph
    connected) must change by exactly ``rank_change``, and Fold/R
    witnesses must hold freely; a failure raises RuntimeError.
    """
    post = g.basis_data()
    _, pre_nontree, pre_loops, pre_labels = pre
    _, post_nontree, post_loops, post_labels = post
    pre_index, post_index = _symbols(pre), _symbols(post)
    rec = MoveRecord(
        kind=kind,
        pre_basis=pre_labels,
        post_basis=post_labels,
        post_in_pre=tuple(lift_post(lp.steps, pre_index) for lp in post_loops),
        pre_in_post=tuple(lift_pre(lp.steps, post_index) for lp in pre_loops),
        conjugator=conjugator,
        detail=detail,
    )
    change = len(post_nontree) - len(pre_nontree)
    if change != rank_change:
        raise RuntimeError(f"{kind} changed the rank by {change}, not {rank_change}")
    if kind in ("Fold", "R") and not witnesses_hold(rec, freely_equal):
        raise RuntimeError(f"{kind} basis witness fails in the free group")
    return rec


def _walk_lift(walk_of):
    """The lift that reads the crossings of the walk ``walk_of(loop steps)``."""
    return lambda steps, index: _crossings(index, walk_of(steps))


# ---------------------------------------------------------------------------
# Folding


def fold_all(g: FGraph) -> list[MoveRecord]:
    """Fold until no vertex has two same-label outgoing or incoming edges.

    Mutates g and returns one Fold record for the whole phase, or none
    when g is folded already.  A fold at v takes the lowest edge e2 that
    repeats a label (outgoing side first) and the lowest edge e1 with that
    label; it merges e2 into e1 and their far ends into the lower id.
    Folding is confluent, so every vertex and edge class of the folded
    graph survives under its lowest id in any fold order.  A worklist
    finds the conflicts: a fold can create one only at the fold vertex or
    at the surviving far vertex.

    Each merged-away vertex keeps a *connector*: the pre-phase crossing
    word of a freely trivial walk to it from the vertex it merged into,
    through the fold site (e1^-1 e2).  Chained like a union-find whose
    weights are words, the connectors lift every post-phase loop to a
    pre-phase word; a pre-phase loop maps forward edge by edge, a
    folded-away edge to its survivor.  The rank drops by one for each
    fold whose far ends had already merged; such a fold composes no walk.
    Walks, chain compression and lifts join reduced words by ``words.join``,
    which copies by slicing: every lift reads the connectors, which grow.
    """
    if g.base is None:
        raise ValueError("folding tracks bases; set g.base first")
    edges, pre_base = g.edges, g.base
    up: dict[int, tuple[int, Word]] = {}  # merged-away vertex -> (merged into, connector)
    survivor: dict[int, int] = {}  # folded-away edge -> the edge it folded into

    def connector(v: int) -> tuple[int, Word]:
        """(v's current vertex, crossing word of a freely trivial walk from
        it to v), compressing the chain of merges on the way."""
        if v not in up:
            return v, ()
        chain = []
        while v in up:
            chain.append(v)
            v = up[v][0]
        word: Word = ()
        for u in reversed(chain):
            word = join(word, up[u][1])
            up[u] = (v, word)
        return v, word

    def cross(e: int, d: int) -> Word:
        return (index[e] * d,) if e in index else ()

    folds = drops = 0
    work = sorted(g.vertices, reverse=True)
    while work:
        v = work.pop()
        if v not in g.vertices:
            continue
        for d, side in ((-1, g._out[v]), (1, g._in[v])):  # d: the step from a far end in to v
            if len(side) > 1:
                first: dict[int, int] = {}
                for e2 in sorted(side):
                    e1 = first.setdefault(edges[e2][2], e2)
                    if e1 != e2:
                        break
                else:
                    continue
                break
        else:
            continue
        if not folds:  # the first fold: read the basis before any change
            pre = g.basis_data()
            index = _symbols(pre)
            pre_ends = {e: (o, t) for e, (o, t, _) in edges.items()}
        (o1, t1), (o2, t2) = pre_ends[e1], pre_ends[e2]
        b1, a1, b2, a2 = (o1, t1, o2, t2) if d > 0 else (t1, o1, t2, o2)
        f1, w1 = connector(b1)
        f2, w2 = connector(b2)
        g._remove_edge(e2)
        survivor[e2] = e1
        folds += 1
        if f1 == f2:
            drops += 1
        else:
            walk = w1  # crossing word of the freely trivial walk f1 -> b1 -> v -> b2 -> f2
            for piece in (cross(e1, d), inverse(connector(a1)[1]), connector(a2)[1],
                          cross(e2, -d), inverse(w2)):
                walk = join(walk, piece) if piece else walk
            keep, drop = min(f1, f2), max(f1, f2)
            up[drop] = (keep, walk if keep == f1 else inverse(walk))
            g._merge_vertices(keep, drop)
            work.append(keep)
        work.append(v)
    if not folds:
        return []

    for e in reversed(list(survivor)):  # a survivor folds away only later
        survivor[e] = survivor.get(survivor[e], survivor[e])

    def bridge(word: Word, run: list, u: int, v: int) -> Word:
        """word · run · connector(u)^-1 · connector(v), for crossings ``run``."""
        word = join(word, free_reduce(run))
        return word if u == v else join(join(word, inverse(connector(u)[1])), connector(v)[1])

    def lift_post(steps, _index) -> Word:
        word, run, cur = (), [], pre_base
        for e, d in steps:
            a, b = pre_ends[e] if d > 0 else pre_ends[e][::-1]
            if a != cur:  # else the connector pair cancels
                word, run = bridge(word, run, cur, a), []
            if e in index:
                run.append(index[e] * d)
            cur = b
        return bridge(word, run, cur, pre_base)

    def lift_pre(steps, post_index) -> Word:
        return _crossings(post_index, [(survivor.get(e, e), d) for e, d in steps])

    return [_record("Fold", g, pre, lift_post, lift_pre, -drops,
                    detail={"moves": folds, "rank_drops": drops})]


# ---------------------------------------------------------------------------
# Degree-one removal and base relocation


def relocate_base(g: FGraph, pre, walk: tuple, conjugator: Word, detail: dict):
    """Record a base move along ``walk``, from the old base to ``g.base``.

    ``pre`` is the pre-move ``basis_data``; ``walk`` and ``conjugator``
    (its label) are empty when the base stayed put.  Basis loops lift by
    going out along the walk and back: walk + loop + walk^-1.
    """
    back = reverse_steps(walk)
    return _record("R", g, pre,
                   _walk_lift(lambda steps: walk + steps + back),
                   _walk_lift(lambda steps: back + steps + walk),
                   0, conjugator=conjugator, detail=detail)


def remove_degree_one(g: FGraph) -> list[MoveRecord]:
    """Strip degree-one vertices, lowest id first, with one R record.

    A heap of leaves drives the strip: removing a leaf can make only its
    neighbour a leaf.  Whenever the base itself is a leaf it hops across
    its edge; the hops join into one walk, whose label is the record's
    conjugator, relating old-base loops to new-base loops by conjugation.
    No record when there is no leaf.
    """
    if g.base is None:
        raise ValueError("degree-one removal tracks bases; set g.base first")
    leaves = [v for v in g.vertices if g.degree(v) == 1]
    if not leaves:
        return []
    heapify(leaves)
    pre = g.basis_data()
    walk, letters, strips = [], [], 0
    while leaves:
        v = heappop(leaves)
        if g.degree(v) != 1:
            continue  # the far end of a lone edge, left isolated
        [(e, d)] = g.stubs(v)
        u = g.step_ends(e, d)[1]
        if v == g.base:
            walk.append((e, d))
            letters.append(g.step_letter(e, d))
            g.base = u
        g._remove_edge(e)
        g._remove_isolated_vertex(v)
        strips += 1
        if g.degree(u) == 1:
            heappush(leaves, u)
    return [relocate_base(g, pre, tuple(walk), free_reduce(letters), {"moves": strips})]


# ---------------------------------------------------------------------------
# Arc decomposition


def arc_owner(g: FGraph) -> dict:
    """Edge id -> a representative edge of the maximal arc containing it.

    Two edges share a maximal arc exactly when degree-two vertices join
    them, so a union-find joins the two edges at each degree-two vertex;
    a lone cycle is one arc.  Requires no degree-one vertices.
    """
    if any(g.degree(v) == 1 for v in g.vertices):
        raise ValueError("arc decomposition requires no degree-one vertices")
    parent = {e: e for e in g.edges}

    def find(e: int) -> int:
        while parent[e] != e:
            parent[e] = parent[parent[e]]
            e = parent[e]
        return e

    for v in g.vertices:
        if g.degree(v) == 2:
            (e1, _), (e2, _) = g.stubs(v)
            parent[find(e1)] = find(e2)
    return {e: find(e) for e in g.edges}


# ---------------------------------------------------------------------------
# AO: attach a short bypass, remove a long subpath


def _replace_runs(steps: Sequence[tuple], target: Sequence[tuple],
                  replacement: Sequence[tuple]) -> tuple:
    """Replace every traversal of the step sequence ``target`` in a walk.

    ``target``'s interior vertices must be passable only along it (degree
    two), so any use of its edges is a full forward or backward run; each
    forward run becomes ``replacement``, each backward run its reverse.
    """
    target = tuple(target)
    n = len(target)
    pos = {e: i for i, (e, _) in enumerate(target)}
    if len(pos) != n:
        raise ValueError("target steps must use distinct edges")
    out = []
    i = 0
    while i < len(steps):
        e, d = steps[i]
        k = pos.get(e)
        if k is None:
            out.append(steps[i])
            i += 1
            continue
        run, new = ((target, replacement) if d == target[k][1]
                    else (reverse_steps(target), reverse_steps(replacement)))
        if tuple(steps[i:i + n]) != run:
            raise RuntimeError("walk uses part of a replaced path")
        out.extend(new)
        i += n
    return tuple(out)


def apply_AO(g: FGraph, path: Path, i: int, j: int, y: Word) -> MoveRecord:
    """The combined surgery: attach a path labeled y from t(p) to o(p),
    where p = ``path``, then remove the edges of its span p' = steps[i:j].

    The caller certifies label(p) y = 1 in the presented group.
    Structural requirements: p is a reduced path; p' is nonempty and
    simple, lies inside one maximal arc, shares no edge with the rest of
    p, does not contain the base as an interior vertex; and |p'| > |y| so
    the edge count strictly decreases.  An empty y is allowed only when p
    is closed (then the move is a pure removal and the rank drops by one;
    otherwise rank is unchanged).
    """
    if not 0 <= i < j <= len(path.steps):
        raise ValueError("AO requires a nonempty removed span")
    start, steps = path.start, path.steps
    removed = steps[i:j]
    end = g.path_end(path)  # raises if steps are not consecutive
    if not g.path_is_reduced(path):
        raise ValueError("path must be reduced")
    pp_edges = [e for e, _ in removed]
    if len(set(pp_edges)) != len(pp_edges):
        raise ValueError("AO removed span must be simple")
    owner = arc_owner(g)
    if len({owner[e] for e in pp_edges}) != 1:
        raise ValueError("removed span must lie inside a single maximal arc")
    if {e for e, _ in steps[:i] + steps[j:]} & set(pp_edges):
        raise ValueError("the rest of the path may not share edges with the removed span")
    if len(removed) <= len(y):
        raise ValueError("AO requires |p'| > |y|")
    if not y and start != end:
        raise ValueError("empty y requires a closed composite path")
    interior = {g.step_ends(e, d)[1] for e, d in removed[:-1]}
    if g.base in interior:
        raise ValueError("removed span may not contain the base as interior")

    pre = g.basis_data()
    # attach f: t(p) -> o(p) labeled y, then remove p' and the
    # interior vertices it leaves isolated
    f_steps = g.add_path(end, start, y)
    for e in pp_edges:
        g._remove_edge(e)
    removed_vertices = tuple(v for v in sorted(interior) if g.degree(v) == 0)
    for v in removed_vertices:
        g._remove_isolated_vertex(v)

    # post loops: each f-run is replaced by the reverse of p; pre loops:
    # each p'-run detours along p1^-1 f^-1 p2^-1, where p = p1 p' p2
    detour = reverse_steps(steps[:i]) + reverse_steps(f_steps) + reverse_steps(steps[j:])
    return _record(
        "AO", g, pre,
        _walk_lift(lambda walk: _replace_runs(walk, f_steps, reverse_steps(steps))),
        _walk_lift(lambda walk: _replace_runs(walk, removed, detour)),
        0 if y else -1,
        detail={"moves": 1,
                "removed_edges": tuple(pp_edges),
                "removed_vertices": removed_vertices,
                "attached": y},
    )
