"""Certified reduction of generating tuples against a presentation.

Given an m-tuple of words and a small-cancellation presentation, the
driver wedges the tuple into a labeled graph and repeatedly simplifies:

* fold until tracing is deterministic, strip degree-one vertices (both
  only ever shrink the graph and never raise its rank);
* if the graph has become the alphabet bouquet, the tuple generates the
  whole presented group — verdict ``WholeGroup`` with a replayable
  :class:`NielsenTrace`;
* otherwise scan for a path reading almost all of a relator.  If none
  exists, the label homomorphism is injective on the fundamental group
  and the verdict is ``CertifiedFree`` with an explicit free basis;
* if such a path exists, surgery replaces a long stretch of it by the
  short relator complement (strictly decreasing the edge count), unless
  no eligible stretch is long enough — in which case the arcs carrying
  the path form a small graph reading more than half a relator, which is
  exactly a disqualifying readability witness for the presentation:
  verdict ``NotInClass`` with that witness attached.

Every fold phase, strip phase, base hop and surgery is logged as one
record with two-way basis words so that :func:`verify_trace` can
re-check the whole run independently (freely for folds, strips and
hops, by Dehn rewriting in the group for surgeries), and every emitted
witness is re-validated through the readability module's own checker
before being returned.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional

from .codec import trace_jsonable  # re-export: bench/ reads it here
from .fgraph import (
    FGraph,
    MoveRecord,
    NielsenTrace,
    Path,
    apply_AO,
    arc_owner,
    bouquet,
    fold_all,
    freely_equal,
    initial_basis,
    is_alphabet_bouquet,
    relocate_base,
    remove_degree_one,
    witnesses_hold,
)
from .genericity import ClassParams, power_statuses, validate_params
from .readability import ReadabilityQuery, witness_is_valid
from .smallcancel import (
    CprimeResult,
    Presentation,
    _require_c16,
    check_Cprime,
    find_long_relator_path,
    is_equal_in_G,
)
from .words import Word, concat, free_reduce, inverse

WHOLE_GROUP = "WholeGroup"
CERTIFIED_FREE = "CertifiedFree"
NOT_IN_CLASS = "NotInClass"

FREE_REASON = "no long relator path ⇒ label homomorphism injective"


@dataclass(frozen=True)
class C3Witness:
    """A small subgraph reading more than half of a relator.

    ``edges`` are (origin, terminus, label) triples in a self-contained
    id space (vertex ids appear sorted, edge ids follow list order, as
    :func:`witness_graph` rebuilds them); ``path`` spells ``subword``
    there, and ``subword + complement`` is the ``offset`` rotation of
    relator ``relator_index`` (inverted when ``sign`` is -1).
    """

    edges: tuple
    path: Path
    subword: Word
    complement: Word
    relator_index: int
    sign: int
    offset: int


@dataclass(frozen=True)
class ReductionVerdict:
    """Outcome of :func:`reduce_tuple`.

    ``kind`` is ``WholeGroup`` (with ``trace``), ``CertifiedFree`` (with
    ``rank``, ``basis``, ``reason``), or ``NotInClass`` (with
    ``condition`` and the matching payload: ``cprime`` for C1, ``powers``
    for C2, ``witness`` for C3).
    """

    kind: str
    trace: Optional[NielsenTrace] = None
    rank: Optional[int] = None
    basis: Optional[tuple] = None
    reason: Optional[str] = None
    condition: Optional[str] = None
    cprime: Optional[CprimeResult] = None
    powers: Optional[tuple] = None
    witness: Optional[C3Witness] = None


# ---------------------------------------------------------------------------
# Witnesses


def witness_graph(w: C3Witness) -> FGraph:
    """Rebuild the witness subgraph; deterministic for equal witnesses."""
    return FGraph.from_edges(list(w.edges))


def verify_witness(w: C3Witness, p: Presentation, params: ClassParams) -> bool:
    """Independent re-check that a witness disqualifies the presentation.

    The subgraph with the spelled subword must satisfy every constraint
    of a readability witness (edge budget mu * |subword|, rank at most L,
    connected, folded, some vertex of degree below 2m), and the subword
    must be more than half of its relator, completed to a rotation by the
    stored complement.  A malformed witness (an index or offset that is
    not an int in range, a sign other than +-1, an edge the graph
    rejects) verifies ``False``.
    """
    if type(w.relator_index) is not int or not 0 <= w.relator_index < len(p.relators):
        return False
    r = p.relators[w.relator_index]
    if w.sign not in (1, -1) or type(w.offset) is not int or not 0 <= w.offset < len(r):
        return False
    if tuple(w.subword) + tuple(w.complement) != p.member(w.relator_index, w.sign, w.offset):
        return False
    if 2 * len(w.subword) <= len(r):
        return False
    try:
        query = ReadabilityQuery(
            word=w.subword,
            m=p.alphabet.m,
            mu=params.mu,
            rank_bound=params.L,
            require_low_degree=True,
        )
        graph = witness_graph(w)
    except (TypeError, ValueError):
        return False
    return witness_is_valid(query, graph, w.path)


def _build_witness(g: FGraph, lrp, p: Presentation, params: ClassParams) -> C3Witness:
    owner = arc_owner(g)
    carrying = {owner[e] for e, _ in lrp.path.steps}
    edge_ids = sorted(e for e, a in owner.items() if a in carrying)
    triples = tuple(
        (g.edges[e][0], g.edges[e][1], g.edges[e][2]) for e in edge_ids
    )
    vertex_ids = sorted({v for o, t, _ in triples for v in (o, t)})
    vmap = {v: i for i, v in enumerate(vertex_ids)}
    emap = {e: i for i, e in enumerate(edge_ids)}
    path = Path(
        vmap[lrp.path.start],
        tuple((emap[e], d) for e, d in lrp.path.steps),
    )
    w = C3Witness(
        edges=triples,
        path=path,
        subword=lrp.v,
        complement=lrp.y,
        relator_index=lrp.relator_index,
        sign=lrp.sign,
        offset=lrp.offset,
    )
    if not verify_witness(w, p, params):
        raise RuntimeError(
            "window selection failed but the emitted witness does not "
            "certify a readable half-relator subword"
        )
    return w


# ---------------------------------------------------------------------------
# Window selection


def _select_window(g: FGraph, path: Path) -> Optional[tuple[int, int]]:
    """Longest surgery-eligible stretch of ``path``, as a step span.

    A step is eligible when its edge is used exactly once in the whole
    path; a stretch may not have a junction vertex (so it stays inside
    one maximal arc) or the base vertex in its interior.  Returns the
    (start, stop) indices of the longest run (ties to the earliest), or
    None when no step is eligible.
    """
    steps = path.steps
    if not steps:
        return None
    count = Counter(e for e, _ in steps)
    best: Optional[tuple[int, int]] = None
    run_start: Optional[int] = None
    prev_vertex = path.start

    def close(stop: int) -> None:
        nonlocal best, run_start
        if run_start is not None and (
            best is None or stop - run_start > best[1] - best[0]
        ):
            best = (run_start, stop)
        run_start = None

    for k, (e, d) in enumerate(steps):
        if count[e] != 1:
            close(k)
        else:
            breaks = k > 0 and (g.degree(prev_vertex) != 2 or prev_vertex == g.base)
            if run_start is None:
                run_start = k
            elif breaks:
                close(k)
                run_start = k
        prev_vertex = g.step_ends(e, d)[1]
    close(len(steps))
    return best


def _fire_or_witness(g: FGraph, lrp, p: Presentation, params: ClassParams):
    """Either apply the long-path surgery or emit the failure witness."""
    r = p.relators[lrp.relator_index]
    num, den = params.lam.numerator, params.lam.denominator
    path, y = lrp.path, lrp.y
    if not y and g.path_end(path) != path.start:
        # A full-relator reading that does not close up: withhold the
        # last letter so the attached complement is that single letter.
        path, y = Path(path.start, path.steps[:-1]), (lrp.v[-1],)
    span = _select_window(g, path) if path.steps else None
    if span is not None and (span[1] - span[0]) * den >= 3 * num * len(r):
        if len(y) * den >= 3 * num * len(r):
            raise RuntimeError("surgery complement is too long")
        return apply_AO(g, path, *span, y)
    return _build_witness(g, lrp, p, params)


# ---------------------------------------------------------------------------
# Base relocation


def _hop_base(g: FGraph) -> Optional[MoveRecord]:
    """Walk a degree-two base along its arc to the nearest junction.

    Surgery may not delete the base, so a base buried inside an arc would
    needlessly split eligible stretches; relocating it is a pure change
    of viewpoint recorded with the conjugating word.  No-op (None) when
    the base already sits on a junction or the graph is a lone cycle.
    """
    if g.base is None or g.degree(g.base) != 2:
        return None
    if all(g.degree(v) == 2 for v in g.vertices):
        return None
    old = g.base
    pre = g.basis_data()
    # The graph is connected (basis_data checked) and not a lone cycle, so
    # the arc through the base ends at a junction.
    walk = [g.stubs(old)[0]]
    cur = g.step_ends(*walk[-1])[1]
    while g.degree(cur) == 2:
        back = (walk[-1][0], -walk[-1][1])
        walk.append(next(s for s in g.stubs(cur) if s != back))
        cur = g.step_ends(*walk[-1])[1]
    walk = tuple(walk)
    conj = g.path_label(Path(old, walk))
    g.base = cur
    return relocate_base(g, pre, walk, conj, {"moves": 1, "base_hop": True, "walk": walk})


# ---------------------------------------------------------------------------
# Rank guard


def rank_guard(g: FGraph, m: int) -> Optional[dict]:
    """Consistency check on saturated graphs.

    In a folded graph every vertex has degree at most 2m, and a graph
    whose vertices all reach that bound must either be the alphabet
    bouquet or have rank above m (its Euler count forces extra loops).  A
    violation being returned means the graph data itself is inconsistent;
    callers treat it as an internal error, never as a verdict.
    """
    if any(g.degree(v) != 2 * m for v in g.vertices):
        return None
    if is_alphabet_bouquet(g, m) or g.rank() > m:
        return None
    return {
        "rank": g.rank(),
        "vertices": g.num_vertices(),
        "edges": g.num_edges(),
    }


# ---------------------------------------------------------------------------
# The driver


def _match_arrangement(basis: tuple, words: tuple) -> tuple:
    """Signed matching of initial basis slots to input tuple entries."""
    used = set()
    out = []
    for label in basis:
        for i, w in enumerate(words):
            if i not in used and label in (w, inverse(w)):
                break
        else:
            raise RuntimeError("wedge basis does not match the input tuple")
        used.add(i)
        out.append(i + 1 if label == w else -(i + 1))
    return tuple(out)


def _accumulated_conjugator(steps) -> Word:
    return concat(*(record.conjugator for record, _ in steps))


def reduce_tuple(tpl, p: Presentation, params: ClassParams) -> ReductionVerdict:
    """Run the reduction driver on an m-tuple of words.

    The presentation's cheap class conditions are checked first (no
    proper-power relator, then the piece bound); failing either returns
    ``NotInClass`` immediately with that condition.  The expensive
    readability condition is never pre-checked: the driver is
    self-certifying and produces a checked witness if and when its case
    analysis breaks down.
    """
    m = p.alphabet.m
    ok, msg = validate_params(params, m)
    if not ok:
        raise ValueError(f"invalid class parameters: {msg}")
    words = tuple(free_reduce(w) for w in tpl)
    if len(words) != m:
        raise ValueError("tuple of wrong arity")
    for w in words:
        if not w:
            raise ValueError("trivial word in tuple")
        p.alphabet.check_word(w)

    powers = power_statuses(p.relators)
    if any(ps.is_power for ps in powers):
        return ReductionVerdict(NOT_IN_CLASS, condition="C2", powers=powers)
    c1 = check_Cprime(p, params.lam)
    if not c1.ok:
        return ReductionVerdict(NOT_IN_CLASS, condition="C1", cprime=c1)

    g = bouquet(words)
    steps = []

    def record(records) -> None:
        for rec in records:
            steps.append((rec, rec.post_basis))

    while True:
        record(fold_all(g))
        record(remove_degree_one(g))
        hop = _hop_base(g)
        if hop is not None:
            record([hop])
        violation = rank_guard(g, m)
        if violation is not None:
            raise RuntimeError(f"saturated graph of low rank: {violation}")
        if g.rank() > params.L:
            raise RuntimeError(f"graph rank {g.rank()} exceeds L = {params.L}")
        if is_alphabet_bouquet(g, m):
            # a record's bases are the graph's: the first's before, the last's after
            first, last = (steps[0][0].pre_basis, steps[-1][1]) if steps else (g.free_basis(),) * 2
            trace = NielsenTrace(
                initial_tuple=words,
                initial_arrangement=_match_arrangement(first, words),
                steps=tuple(steps),
                final_tuple=last,
                conjugator=_accumulated_conjugator(steps),
            )
            return ReductionVerdict(WHOLE_GROUP, trace=trace)
        lrp = find_long_relator_path(g, p, params.lam)
        if lrp is None:
            return ReductionVerdict(
                CERTIFIED_FREE,
                rank=g.rank(),
                basis=steps[-1][1] if steps else g.free_basis(),
                reason=FREE_REASON,
            )
        edges_before = g.num_edges()
        outcome = _fire_or_witness(g, lrp, p, params)
        if isinstance(outcome, C3Witness):
            return ReductionVerdict(NOT_IN_CLASS, condition="C3", witness=outcome)
        if g.num_edges() >= edges_before:
            raise RuntimeError("surgery did not shorten the graph")
        record([outcome])


# ---------------------------------------------------------------------------
# Trace verification


def verify_trace(t: NielsenTrace, p: Presentation) -> bool:
    """Re-check a trace against the presented group, move by move.

    Every consecutive snapshot pair must be tied together by its record's
    two-way basis words (conjugated by the record's relocation word where
    present): freely for Fold and R records, under Dehn rewriting in the
    group for AO records.  The stored conjugator must equal the
    accumulated one, and the final snapshot must literally be the
    alphabet tuple.
    """
    _require_c16(p)  # first: a trace without AO records never reaches Dehn
    m = p.alphabet.m

    def in_G(u, v) -> bool:
        return is_equal_in_G(u, v, p)

    try:
        current = initial_basis(t.initial_tuple, t.initial_arrangement)
    except ValueError:
        return False
    for record, snapshot in t.steps:
        snapshot = tuple(tuple(w) for w in snapshot)
        if tuple(tuple(w) for w in record.pre_basis) != current:
            return False
        if tuple(tuple(w) for w in record.post_basis) != snapshot:
            return False
        if not witnesses_hold(record, freely_equal if record.kind in ("Fold", "R") else in_G):
            return False
        current = snapshot
    if tuple(tuple(w) for w in t.final_tuple) != current:
        return False
    if free_reduce(t.conjugator) != _accumulated_conjugator(t.steps):
        return False
    return current == tuple((i,) for i in range(1, m + 1))
