"""Independent brute-force oracles for the tests: word enumeration, the
transfer-matrix counts and draws of cyclically reduced words, the
canonical cyclic word, every rotation and the least rotation, powers by a divisor scan, substitution
one symbol at a time, the relabel group, the Whitehead descent, orbit
form and closing relabel by enumeration, the orbit search and certificate replay that
rotate every word they build,
readability of short words, the readability search with its old memo
of failed states,
one-move-at-a-time folding and stripping, the Fold record of a phase
composed letter by letter, maximal arcs by walking,
pieces by pairwise prefixes, and the long-relator scan by a table over
every position and vertex; and the document mutator of the fuzz tests,
with decoders for the witness, certificate and verdict documents.

``oracle_is_readable`` does not search partial walks the way
:func:`relfold.readability.is_readable` does.  A path spelling the word
``w`` maps the interval graph of ``w`` (vertices ``0..l``, edge ``i``
reading ``w[i]``) onto its image, and restricting a witness to that image
loses nothing, so the candidate witnesses are the quotients of the
interval graph by a partition of its vertices, folded to closure.
Stallings folding is confluent, so the closure of a partition is well
defined: the finest fold-closed partition coarser than it.  The oracle
therefore lists every fold-closed partition and checks the query's
constraints on each quotient.

The list starts from the discrete partition (the interval graph of a
reduced word is already folded).  It repeatedly merges two blocks of a
partition already reached and folds the result to closure with
union-find.  This reaches every fold-closed partition ``Q``: for a
reached ``P`` finer than ``Q``, merging two ``P``-blocks that lie in one
``Q``-block gives a partition finer than ``Q``, so its closure is still
finer than ``Q`` (``Q`` is fold-closed), and it is strictly coarser than
``P``; finitely many such steps end at ``Q``.  Since the closure of any
partition is fold-closed, no partition of the path vertices folds to a
graph outside the list.

Profiles are cached per equivalence class under relabeling/inverting
generators and word reversal, which commute with quotients and folding.
"""

from __future__ import annotations

import copy
import math
from collections import Counter, deque
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product
from typing import Iterator

from relfold.fgraph import FGraph, MoveRecord, Path, _crossings, _record, _symbols
from relfold.iso import INAPPLICABLE, ISOMORPHIC, NOT_ISOMORPHIC, IsoVerdict
from relfold.nielsen import C3Witness
from relfold.readability import (
    NOT_READABLE,
    READABLE,
    UNKNOWN,
    ReadabilityAnswer,
    ReadabilityQuery,
)
from relfold.smallcancel import LongRelatorPath
from relfold.whitehead import (
    Multiplier,
    OrbitCertificate,
    Relabel,
    _check_move_rank,
    _closing_relabel,
    _fits_rank,
    _image_core,
    _length_changes,
    _whitehead_graph,
    apply_move,
    canonical_orbit_form,
    invert_move,
    multiplier_moves,
)
from relfold.words import (
    Word,
    canonical_rotation,
    concat,
    cyclic_reduce,
    free_reduce,
    inverse,
    is_cyclically_reduced,
    parse_word,
    signed_letters,
    word_key,
)

_ORACLE_MAX_LEN = 11

# canonical word -> sorted tuple of (edge count, rank, min degree) over all
# folded quotients of the word's interval graph (dominated triples dropped).
_ORACLE_CACHE: dict[Word, tuple[tuple[int, int, int], ...]] = {}


def enumerate_reduced(m: int, t: int) -> Iterator[Word]:
    """All freely reduced words of length exactly t (test oracle)."""
    letters = signed_letters(m)

    def rec(prefix: list[int]):
        if len(prefix) == t:
            yield tuple(prefix)
            return
        for x in letters:
            if prefix and prefix[-1] == -x:
                continue
            prefix.append(x)
            yield from rec(prefix)
            prefix.pop()

    yield from rec([])


def enumerate_cyclically_reduced(m: int, t: int) -> Iterator[Word]:
    """All cyclically reduced words of length exactly t (test oracle)."""
    for w in enumerate_reduced(m, t):
        if t < 2 or w[0] != -w[-1]:
            yield w


def oracle_completion_table(m: int, t: int, first: int) -> list[dict[int, int]]:
    """B[j][y] = number of ways to fill positions j+1..t of a reduced word
    given that position j holds letter y, subject to the cyclic constraint
    that position t must not be the inverse of ``first``.

    Positions are 1-based; the table is indexed B[j] for j in 1..t.  This
    dynamic program over (first letter, last letter) pairs is the
    reference for the closed-form counts in :mod:`relfold.words`.
    """
    letters = signed_letters(m)
    B: list[dict[int, int]] = [dict() for _ in range(t + 1)]
    B[t] = {y: 1 for y in letters}
    for j in range(t - 1, 0, -1):
        nxt = B[j + 1]
        row = {}
        for y in letters:
            total = 0
            for z in letters:
                if z == -y:
                    continue
                if j + 1 == t and z == -first:
                    continue
                total += nxt[z]
            row[y] = total
        B[j] = row
    return B


@lru_cache(maxsize=None)
def oracle_count_cyclically_reduced(m: int, t: int) -> int:
    """Cyclically reduced words of length t >= 1, summed from the tables."""
    return sum(oracle_completion_table(m, t, f)[1][f] for f in signed_letters(m))


def oracle_random_cyclically_reduced(m: int, t: int, rng) -> Word:
    """Uniform cyclically reduced word of length t >= 1 drawn letter by
    letter with table weights, making the same ``rng`` calls as
    :func:`relfold.words.random_cyclically_reduced`."""
    letters = signed_letters(m)
    weights = [oracle_completion_table(m, t, f)[1][f] for f in letters]
    x = rng.randrange(sum(weights))
    for first, wt in zip(letters, weights):
        if x < wt:
            break
        x -= wt
    word = [first]
    B = oracle_completion_table(m, t, first)
    for j in range(2, t + 1):
        prev = word[-1]
        cands = [z for z in letters
                 if z != -prev and not (j == t and z == -first)]
        row = B[j]
        x = rng.randrange(sum(row[z] for z in cands))
        for z in cands:
            if x < row[z]:
                break
            x -= row[z]
        word.append(z)
    return tuple(word)


def oracle_random_cyclically_reduced_up_to(m: int, t: int, rng) -> Word:
    """Uniform nonempty cyclically reduced word of length <= t (table
    counts), as :func:`relfold.words.random_cyclically_reduced_up_to`."""
    counts = [oracle_count_cyclically_reduced(m, k) for k in range(1, t + 1)]
    x = rng.randrange(sum(counts))
    for k, c in enumerate(counts, start=1):
        if x < c:
            return oracle_random_cyclically_reduced(m, k, rng)
        x -= c
    raise RuntimeError("unreachable")


def cyclic_word(w: Word) -> Word:
    """Canonical cyclic-word representative: reduce, cyclically reduce,
    then take the least rotation."""
    core, _ = cyclic_reduce(free_reduce(w))
    return canonical_rotation(core)


def cyclic_permutations(w: Word) -> list[Word]:
    """All rotations of a nonempty cyclically reduced word, in offset order."""
    w = tuple(w)
    if not w:
        raise ValueError("empty word has no rotations")
    if not is_cyclically_reduced(w):
        raise ValueError("cyclic_permutations needs a cyclically reduced word")
    return [w[o:] + w[:o] for o in range(len(w))]


def oracle_least_rotation(w: Word) -> Word:
    """Least rotation under a < A < b < B < ..., by building and comparing
    every rotation: O(n^2), the reference for
    :func:`relfold.words.canonical_rotation`."""
    w = tuple(w)
    if not w:
        return w
    return min((w[o:] + w[:o] for o in range(len(w))), key=word_key)


def oracle_power_decomposition(w: Word) -> tuple[Word, int]:
    """``root^k`` with ``k`` maximal for a nonempty cyclically reduced
    word, by trying every divisor ``d`` of ``|w|`` in increasing order:
    the reference for :func:`relfold.words.power_decomposition`."""
    w = tuple(w)
    n = len(w)
    for d in range(1, n + 1):
        if n % d == 0 and w == w[:d] * (n // d):
            return w[:d], n // d
    raise ValueError("the empty word has no root")


def oracle_substitute(w: Word, images) -> Word:
    """Evaluate ``w`` under letter k -> images[k-1], freely reduced, one
    symbol at a time: the reference for :func:`relfold.words.substitute_all`.

    Negative letters map to the inverse image; 0 raises ``ValueError``.
    Each image is reduced and inverted once per call.  The output, which
    stays reduced, then loses the longest tail that the next image's
    prefix cancels (found by bisection: a cancelling tail's suffixes
    cancel too) and takes the rest of the image in one piece.
    """
    out: list[int] = []
    pairs: dict[int, tuple[list, list]] = {}  # symbol -> (image, inverse), reduced
    for k in w:
        pair = pairs.get(k)
        if pair is None:
            if k == 0:
                raise ValueError("basis symbol 0 names no image")
            img = list(concat(images[abs(k) - 1]))
            inv = [-x for x in reversed(img)]
            pair = pairs[k] = (img, inv) if k > 0 else (inv, img)
        img, inv = pair
        if not (out and img and out[-1] == -img[0]):
            out.extend(img)
            continue
        n = len(img)
        lo, hi = 1, min(n, len(out))
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if out[-mid:] == inv[n - mid:]:
                lo = mid
            else:
                hi = mid - 1
        del out[-lo:]
        out.extend(img[lo:])
    return tuple(out)


def oracle_minimize(w: Word, m: int) -> tuple[Word, tuple]:
    """Greedy Whitehead descent that builds the image of every multiplier
    move it tries and keeps the first strictly shorter one: the reference
    for :func:`relfold.whitehead.minimize`, which scores moves on the
    Whitehead graph instead."""
    current = cyclic_word(w)
    moves = []
    while True:
        for mv in multiplier_moves(m):
            core = _image_core(current, mv)
            if len(core) < len(current):
                break
        else:
            return current, tuple(moves)
        moves.append(mv)
        current = canonical_rotation(core)


def oracle_verify_certificate(cert: OrbitCertificate, m: int) -> bool:
    """Replay a certificate with the canonical rotation taken after every
    move: the reference for :func:`relfold.whitehead.verify_certificate`,
    which rotates once, at the end."""
    def in_alphabet(letters):
        return all(0 < abs(x) <= m for x in letters)

    if not (in_alphabet(cert.source) and in_alphabet(cert.target)
            and all(_fits_rank(mv, m) for mv in cert.moves)):
        return False
    x = cyclic_word(cert.source)
    for mv in cert.moves:
        x = apply_move(x, mv)
    expected = cyclic_word(cert.target)
    if cert.inverted:
        expected = cyclic_word(inverse(expected))
    return x == expected


def oracle_same_orbit(u: Word, v: Word, m: int):
    """The level-set search with every node, hit and target kept in its
    canonical rotation, keyed by :func:`canonical_orbit_form`, after the
    descent of :func:`oracle_minimize`: the reference for
    :func:`relfold.whitehead.same_orbit`, which rotates only a hit and
    its target.  Inputs must be nontrivial words of rank ``m``."""
    min_u, moves_u = oracle_minimize(u, m)
    min_v, moves_v = oracle_minimize(v, m)
    if len(min_u) != len(min_v):
        return None

    target_fwd = min_v
    target_inv = cyclic_word(inverse(min_v))
    canon_fwd = canonical_orbit_form(target_fwd, m)
    canon_inv = canonical_orbit_form(target_inv, m)

    start_key = canonical_orbit_form(min_u, m)
    visited = {start_key}
    queue = deque([(min_u, (), start_key)])
    hit = None
    while queue:
        x, path, key = queue.popleft()
        if key == canon_fwd:
            hit = (x, path, False)
            break
        if key == canon_inv:
            hit = (x, path, True)
            break
        changes = _length_changes(_whitehead_graph(x, m), m)
        for mv, change in zip(multiplier_moves(m), changes):
            if change or len(mv.cut) in (1, 2 * m - 1):  # fixes every cyclic word
                continue
            core = _image_core(x, mv)
            ikey = canonical_orbit_form(core, m)
            if ikey not in visited:
                visited.add(ikey)
                queue.append((canonical_rotation(core), path + (mv,), ikey))
    if hit is None:
        return None

    x, path, inverted = hit
    target_word = target_inv if inverted else target_fwd
    moves = tuple(moves_u) + tuple(path)
    if x != target_word:
        moves = moves + (_closing_relabel(x, target_word, m),)

    tail = tuple(invert_move(mv) for mv in reversed(moves_v))
    cert = OrbitCertificate(
        moves=moves + tail,
        source=cyclic_word(u),
        target=cyclic_word(v),
        inverted=inverted,
    )
    if not oracle_verify_certificate(cert, m):
        raise RuntimeError("assembled certificate failed to replay")
    return cert


@lru_cache(maxsize=8)
def relabel_moves(m: int) -> tuple[Relabel, ...]:
    """The full relabel group: all 2^m * m! signed permutations, by
    permutation and then by signs, +1 before -1 in each place.  This is
    the order in which :func:`relfold.whitehead._closing_relabel` picks the
    first relabel that closes a certificate."""
    _check_move_rank(m)
    return tuple(
        Relabel(tuple(s * p for s, p in zip(signs, perm)))
        for perm in permutations(range(1, m + 1))
        for signs in product((1, -1), repeat=m)
    )


def oracle_canonical_orbit_form(w: Word, m: int) -> Word:
    """Least canonical rotation over all relabel images of the cyclically
    reduced word ``w``: the reference for
    :func:`relfold.whitehead.canonical_orbit_form`."""
    return min(
        (canonical_rotation(tuple((1 if x > 0 else -1) * rho.images[abs(x) - 1]
                                  for x in w))
         for rho in relabel_moves(m)),
        key=word_key,
    )


def oracle_closing_relabel(x: Word, target: Word, m: int):
    """The first relabel in ``relabel_moves`` order that carries the cyclic
    word ``x`` to ``target``, by trying each in turn: the reference for
    :func:`relfold.whitehead._closing_relabel`."""
    for closing in relabel_moves(m):
        if apply_move(x, closing) == target:
            return closing
    raise ValueError("no relabel carries x to target")


def _canonical_class(word: Word, m: int) -> Word:
    """Least image of ``word`` under generator relabeling/inversion and
    word inversion — symmetries that readability profiles cannot see."""
    if m > 4:
        return word
    best = word
    best_key = word_key(word)
    for perm in permutations(range(1, m + 1)):
        for signs in product((1, -1), repeat=m):
            img = tuple(
                (1 if x > 0 else -1) * signs[abs(x) - 1] * perm[abs(x) - 1]
                for x in word
            )
            for cand in (img, inverse(img)):
                k = word_key(cand)
                if k < best_key:
                    best, best_key = cand, k
    return best


def _fold_closure(blocks, word_edges) -> tuple[int, ...]:
    """Coarsen the partition ``blocks`` until its quotient is folded, by
    union-find; return it with blocks renumbered by first appearance."""
    parent = list(range(len(blocks)))

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    changed = True
    while changed:  # a pass with no merge saw fixed roots: folded
        changed, slots = False, {}
        for o, t, lab in word_edges:
            ro, rt = find(blocks[o]), find(blocks[t])
            for slot, far in (((ro, lab), rt), ((rt, -lab), ro)):
                x, y = find(slots.setdefault(slot, far)), find(far)
                if x != y:
                    parent[x], changed = y, True
    ids: dict[int, int] = {}
    return tuple(ids.setdefault(find(b), len(ids)) for b in blocks)


def _oracle_profile(word: Word) -> tuple[tuple[int, int, int], ...]:
    """Minimal (edge count, rank, min degree) triples over every
    fold-closed quotient of the word's interval graph."""
    word_edges = [(i, i + 1, x) if x > 0 else (i + 1, i, -x) for i, x in enumerate(word)]
    todo, triples = [tuple(range(len(word) + 1))], set()
    seen = set(todo)
    for blocks in todo:  # grows while it is read
        edges = {(blocks[o], blocks[t], lab) for o, t, lab in word_edges}
        deg = Counter(v for o, t, _ in edges for v in (o, t))
        triples.add((len(edges), len(edges) - len(deg) + 1, min(deg.values())))
        for a, b in combinations(range(len(deg)), 2):
            closed = _fold_closure([a if x == b else x for x in blocks], word_edges)
            if closed not in seen:
                seen.add(closed)
                todo.append(closed)
    return tuple(sorted(t for t in triples if not any(
        s != t and all(x <= y for x, y in zip(s, t)) for s in triples)))


def oracle_is_readable(query: ReadabilityQuery) -> bool:
    """Brute-force readability verdict for words of length at most 11.

    Lists every fold-closed quotient of the interval graph and checks the
    constraints on the results.  The per-word profile is cached under the
    symmetry class of the word.
    """
    l = len(query.word)
    if l > _ORACLE_MAX_LEN:
        raise ValueError(f"oracle supports words of length at most {_ORACLE_MAX_LEN}, got {l}")
    canon = _canonical_class(query.word, query.m)
    if canon not in _ORACLE_CACHE:
        _ORACLE_CACHE[canon] = _oracle_profile(canon)
    return any(
        e <= query.edge_budget and rank <= query.rank_bound
        and (not query.require_low_degree or mindeg < 2 * query.m)
        for e, rank, mindeg in _ORACLE_CACHE[canon]
    )


class _MemoBudgetExhausted(Exception):
    pass


def oracle_memo_is_readable(query: ReadabilityQuery) -> tuple[ReadabilityAnswer, int]:
    """The readability search with a memo of failed states, and its hits.

    This is :func:`relfold.readability.is_readable` as it was when it
    memoised every failed state ``(j, cur, G)`` under a relabeling of
    ``G`` from ``cur``, and skipped a state whose key it had stored.
    Returns the answer and the number of states the memo skipped.  A
    test checks that the count is always 0 and that the answer equals the
    memo-free search's: two states with one key are one node of the
    search tree, so the memo cannot prune anything.
    """
    word = query.word
    l = len(word)
    max_e = query.edge_budget

    if len({abs(x) for x in word}) > max_e:
        return ReadabilityAnswer(NOT_READABLE), 0
    if query.mu == 1:
        g = FGraph()
        path_steps = g.add_path(g.add_vertex(), None, word)
        return ReadabilityAnswer(READABLE, g, Path(0, path_steps)), 0

    suffix_labels = [frozenset()] * (l + 1)
    for j in range(l - 1, -1, -1):
        suffix_labels[j] = suffix_labels[j + 1] | {abs(word[j])}

    trans: dict[tuple[int, int], tuple[int, int, int]] = {}
    edges: list[tuple[int, int, int]] = []
    label_count = [0] * (query.m + 1)
    steps: list[tuple[int, int]] = []
    signed = signed_letters(query.m)
    failed: set[tuple] = set()
    nodes = hits = 0
    found = None

    def canon_key(j: int, cur: int) -> tuple:
        order = {cur: 0}
        queue = [cur]
        while queue:
            v = queue.pop()
            for x in signed:
                hit = trans.get((v, x))
                if hit is not None and hit[0] not in order:
                    order[hit[0]] = len(order)
                    queue.append(hit[0])
        return j, tuple(sorted((order[o], order[t], lab) for o, t, lab in edges))

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
        nonlocal nodes, hits, found
        nodes += 1
        if query.node_budget is not None and nodes > query.node_budget:
            raise _MemoBudgetExhausted
        e_now = len(edges)
        if e_now + sum(not label_count[lab] for lab in suffix_labels[j]) > max_e:
            return
        if j == l:
            deg = Counter(v for o, t, _ in edges for v in (o, t))
            if query.require_low_degree and min(deg.values()) >= 2 * query.m:
                return
            found = (FGraph.from_edges(edges), Path(0, tuple(steps)))
            return
        key = canon_key(j, cur)
        if key in failed:
            hits += 1
            return
        x = word[j]
        hit = trans.get((cur, x))
        if hit is not None:
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
        failed.add(key)

    stack = [state(0, 0, 1, 0)]
    try:
        while stack and found is None:
            child = next(stack[-1], None)
            if child is None:
                stack.pop()
            else:
                stack.append(child)
    except _MemoBudgetExhausted:
        return ReadabilityAnswer(UNKNOWN, nodes_expanded=nodes), hits
    if found is None:
        return ReadabilityAnswer(NOT_READABLE, nodes_expanded=nodes), hits
    return ReadabilityAnswer(READABLE, *found, nodes), hits


def _first_conflict(g):
    """First foldable pair: lowest vertex, outgoing before incoming,
    lowest label, two lowest edge ids."""
    for v in sorted(g.vertices):
        for side in (g._out, g._in):
            by_label: dict[int, list[int]] = {}
            for e in side[v]:
                by_label.setdefault(g.edges[e][2], []).append(e)
            for lbl in sorted(by_label):
                if len(by_label[lbl]) >= 2:
                    es = sorted(by_label[lbl])
                    return side is g._out, es[0], es[1]
    return None


def oracle_fold(g) -> int:
    """Fold ``g`` one pair at a time, rescanning from the lowest vertex
    after every fold; the reference graph for
    :func:`relfold.fgraph.fold_all`.  Returns the number of folds."""
    folds = 0
    while (hit := _first_conflict(g)) is not None:
        outgoing, e1, e2 = hit
        far = 1 if outgoing else 0
        far1, far2 = g.edges[e1][far], g.edges[e2][far]
        g._remove_edge(e2)
        if far1 != far2:
            g._merge_vertices(min(far1, far2), max(far1, far2))
        folds += 1
    return folds


def _fold_conflict(g: FGraph, v: int):
    """(outgoing, e1, e2) for same-label edges e1 < e2 at v, or None.

    Outgoing edges first; e2 is the lowest edge repeating a label, e1
    the lowest edge with that label.
    """
    for outgoing, side in ((True, g._out[v]), (False, g._in[v])):
        first: dict[int, int] = {}
        for e in sorted(side):
            e1 = first.setdefault(g.edges[e][2], e)
            if e1 != e:
                return outgoing, e1, e
    return None


def oracle_fold_all(g: FGraph) -> list[MoveRecord]:
    """The reference for :func:`relfold.fgraph.fold_all`, record included:
    the same worklist folding, with every connector, walk and lift word
    composed by ``concat`` letter by letter, each walk composed even when
    the fold drops the rank, and no shortcut for unmerged vertices."""
    if g.base is None:
        raise ValueError("folding tracks bases; set g.base first")
    pre = g.basis_data()
    index = _symbols(pre)
    pre_ends = {e: (o, t) for e, (o, t, _) in g.edges.items()}
    pre_base = g.base
    up: dict[int, tuple[int, Word]] = {}  # merged-away vertex -> (merged into, connector)
    survivor: dict[int, int] = {}  # folded-away edge -> the edge it folded into

    def connector(v: int) -> tuple[int, Word]:
        """(v's current vertex, crossing word of a freely trivial walk from
        it to v), compressing the chain of merges on the way."""
        chain = []
        while v in up:
            chain.append(v)
            v = up[v][0]
        word: Word = ()
        for u in reversed(chain):
            word = concat(word, up[u][1])
            up[u] = (v, word)
        return v, word

    def cross(e: int, d: int) -> Word:
        return (index[e] * d,) if e in index else ()

    def ends(e: int, d: int) -> tuple[int, int]:
        return pre_ends[e] if d > 0 else pre_ends[e][::-1]

    folds = drops = 0
    work = sorted(g.vertices, reverse=True)
    while work:
        v = work.pop()
        hit = _fold_conflict(g, v) if v in g.vertices else None
        if hit is None:
            continue
        outgoing, e1, e2 = hit
        d = -1 if outgoing else 1  # the step from a far end in to v
        (b1, a1), (b2, a2) = ends(e1, d), ends(e2, d)
        f1, w1 = connector(b1)
        f2, w2 = connector(b2)
        # crossing word of the freely trivial walk f1 -> b1 -> v -> b2 -> f2
        walk = concat(w1, cross(e1, d), inverse(connector(a1)[1]),
                      connector(a2)[1], cross(e2, -d), inverse(w2))
        g._remove_edge(e2)
        survivor[e2] = e1
        folds += 1
        if f1 == f2:
            drops += 1
        else:
            keep, drop = min(f1, f2), max(f1, f2)
            up[drop] = (keep, walk if keep == f1 else inverse(walk))
            g._merge_vertices(keep, drop)
            work.append(keep)
        work.append(v)
    if not folds:
        return []

    for e in reversed(list(survivor)):  # a survivor folds away only later
        survivor[e] = survivor.get(survivor[e], survivor[e])

    def lift_post(steps, _index) -> Word:
        pieces, cur = [], pre_base
        for e, d in steps:
            a, b = ends(e, d)
            pieces += (inverse(connector(cur)[1]), connector(a)[1], cross(e, d))
            cur = b
        return concat(*pieces, inverse(connector(cur)[1]), connector(pre_base)[1])

    def lift_pre(steps, post_index) -> Word:
        return _crossings(post_index, [(survivor.get(e, e), d) for e, d in steps])

    return [_record("Fold", g, pre, lift_post, lift_pre, -drops,
                    detail={"moves": folds, "rank_drops": drops})]


def oracle_strip(g) -> list[int]:
    """Remove the lowest degree-one vertex until none is left, hopping a
    leaf base across its edge; the reference graph for
    :func:`relfold.fgraph.remove_degree_one`.  Returns the hop letters."""
    letters = []
    while leaves := sorted(v for v in g.vertices if g.degree(v) == 1):
        v = leaves[0]
        [(e, d)] = g.stubs(v)
        if v == g.base:
            letters.append(g.step_letter(e, d))
            g.base = g.step_ends(e, d)[1]
        g._remove_edge(e)
        g._remove_isolated_vertex(v)
    return letters


def oracle_arc_partition(g) -> set:
    """The maximal arcs of ``g`` as a set of frozensets of edge ids, found
    by walking out of each junction (then around each leftover lone
    cycle) until a vertex of degree other than two; the reference for
    :func:`relfold.fgraph.arc_owner`."""
    used: set[int] = set()
    arcs = set()

    def walk(v, e, d):
        arc = {e}
        used.add(e)
        cur = g.step_ends(e, d)[1]
        while g.degree(cur) == 2 and cur != v:
            nxt = next((s for s in g.stubs(cur) if s[0] not in used), None)
            if nxt is None:
                break
            arc.add(nxt[0])
            used.add(nxt[0])
            cur = g.step_ends(*nxt)[1]
        arcs.add(frozenset(arc))

    junctions = sorted(v for v in g.vertices if g.degree(v) != 2)
    for v in junctions + sorted(g.vertices):
        for e, d in g.stubs(v):
            if e not in used:
                walk(v, e, d)
    return arcs


def _family(p) -> list:
    """Every symmetrized member of ``p`` as (rotation, relator index), in
    scan order: relator, sign (+1 first), offset."""
    members = []
    for i, r in enumerate(p.relators):
        for base in (r, inverse(r)):
            members.extend((base[k:] + base[:k], i) for k in range(len(base)))
    return members


def _shared_prefix(wa, wb) -> int:
    """Length of the longest common prefix that is proper in both words."""
    cap = min(len(wa), len(wb)) - 1
    cp = 0
    while cp < cap and wa[cp] == wb[cp]:
        cp += 1
    return cp


def oracle_max_piece(p):
    """Quadratic pairwise-prefix oracle for the piece maximum."""
    members = [w for w, _ in _family(p)]
    best_len, best_ratio = 0, Fraction(0)
    for a, wa in enumerate(members):
        for b, wb in enumerate(members):
            if a != b and (cp := _shared_prefix(wa, wb)) >= 1:
                best_len = max(best_len, cp)
                best_ratio = max(best_ratio, Fraction(cp, len(wa)),
                                 Fraction(cp, len(wb)))
    return best_len, best_ratio


@lru_cache(maxsize=1)
def _piece_reach(p) -> tuple:
    """``_family(p)`` as (rotation, relator index, longest piece it
    carries), comparing every pair of members with the same first letter."""
    members = _family(p)
    by_first: dict[int, list[int]] = {}
    for a, (w, _) in enumerate(members):
        by_first.setdefault(w[0], []).append(a)
    longest = [0] * len(members)
    for group in by_first.values():
        for a, b in combinations(group, 2):
            cp = _shared_prefix(members[a][0], members[b][0])
            longest[a] = max(longest[a], cp)
            longest[b] = max(longest[b], cp)
    return tuple((w, i, reach) for (w, i), reach in zip(members, longest))


def oracle_cprime(p, lam):
    """C'(lam) by pairwise prefixes, as (ok, piece, relator_index, ratio).

    Relator i fails at k = ceil(lam * |r_i|) when one of its members
    shares a proper prefix of length k with another member; the witness
    is the first such member's prefix in scan order, the reference for
    :func:`relfold.smallcancel.check_Cprime`.
    """
    for i, r in enumerate(p.relators):
        k = math.ceil(Fraction(lam) * len(r))
        for w, j, reach in _piece_reach(p):
            if j == i and reach >= k:
                return False, w[:k], i, Fraction(k, len(r))
    return True, None, None, None


def oracle_long_relator_path(g, p, lam):
    """The long-relator scan as it was before the anchor scan: a table of
    readable lengths per position of the doubled relator over every vertex,
    then every offset scored; the reference for
    :func:`relfold.smallcancel.find_long_relator_path`."""
    if not g.is_folded():
        raise ValueError("long-relator scan requires a folded graph")
    lam = Fraction(lam)
    num, den = lam.numerator, lam.denominator
    vertices = sorted(g.vertices)
    best = None  # (len_v, i, sign, offset, vertex)
    for i, r in enumerate(p.relators):
        L = len(r)
        for sign in (1, -1):
            base = r if sign == 1 else inverse(r)
            xx = base + base
            # ext[pos][v] = letters of xx readable from position pos at v
            nxt_row: dict[int, int] = {}
            rows = [None] * (2 * L)
            for pos in range(2 * L - 1, -1, -1):
                x = xx[pos]
                row: dict[int, int] = {}
                for v in vertices:
                    step = g._step_from(v, x)
                    if step is not None:
                        row[v] = 1 + nxt_row.get(step[1], 0)
                rows[pos] = row
                nxt_row = row
            for offset in range(L):
                row = rows[offset]
                for v in vertices:
                    len_v = min(row.get(v, 0), L)
                    if len_v * den <= (den - 3 * num) * L:
                        continue
                    if best is None or len_v > best[0]:
                        best = (len_v, i, sign, offset, v)
    if best is None:
        return None
    len_v, i, sign, offset, v0 = best
    r = p.relators[i]
    base = r if sign == 1 else inverse(r)
    rotation = base[offset:] + base[:offset]
    v_word, y_word = rotation[:len_v], rotation[len_v:]
    path = g.trace_word(v0, v_word)
    if path is None or g.path_label(path) != v_word:
        raise RuntimeError("the long relator path does not read back")
    L = len(r)
    if len_v * den <= (den - 3 * num) * L:
        raise RuntimeError("the long relator path is too short")
    return LongRelatorPath(path=path, relator_index=i, sign=sign,
                           offset=offset, v=v_word, y=y_word)


FUZZ_VALUES = (None, True, 1.5, "x", "1", "", [], {}, [0], 0, -1, 3, 10**6, -(10**6))


def mutate_document(doc, rng) -> list:
    """Delete or overwrite (with one of ``FUZZ_VALUES``) one to three random
    slots anywhere below a JSON document's root; returns what was done."""
    mutations = []
    for _ in range(rng.randint(1, 3)):
        slots = []

        def walk(node):
            keys = node if isinstance(node, dict) else range(len(node))
            for key in keys:
                slots.append((node, key))
                if isinstance(node[key], (dict, list)):
                    walk(node[key])

        walk(doc)
        parent, key = rng.choice(slots)
        if rng.random() < 0.25:
            del parent[key]
            mutations.append(("delete", key))
        else:
            parent[key] = copy.deepcopy(rng.choice(FUZZ_VALUES))
            mutations.append((key, parent[key]))
    return mutations


# ---------------------------------------------------------------------------
# Decoders for the documents that the library writes but never reads back
# (it reads only traces).  The fuzz tests feed what they accept to
# ``verify_witness`` and ``verify_certificate``; the verdict decoder keeps
# the strict reading of an isomorphism verdict for a ``relfold verify`` of
# verdicts.  Each raises ValueError on a malformed document.


def _ints(values, size: int | None = None) -> tuple:
    """A JSON list of true ints (never bools), of ``size`` entries if given."""
    if (not isinstance(values, list) or (size is not None and len(values) != size)
            or any(type(x) is not int for x in values)):
        raise ValueError(f"bad integer list {values!r}")
    return tuple(values)


def witness_from_jsonable(data: dict) -> C3Witness:
    """Rebuild a witness.  A malformed document raises ValueError: edges
    are integer triples, path steps integer pairs, words strings, and the
    path start, relator index, sign and offset ints."""
    try:
        edges, path = data["edges"], data["path"]
        steps = path["steps"]
        numbers = [path["start"], data["relator_index"], data["sign"], data["offset"]]
        subword, complement = data["subword"], data["complement"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"bad witness document: {exc!r}") from None
    if not isinstance(edges, list) or not isinstance(steps, list):
        raise ValueError("witness edges and path steps must be lists")
    start, relator_index, sign, offset = _ints(numbers, 4)
    return C3Witness(
        edges=tuple(_ints(e, 3) for e in edges),
        path=Path(start, tuple(_ints(s, 2) for s in steps)),
        subword=parse_word(subword),
        complement=parse_word(complement),
        relator_index=relator_index,
        sign=sign,
        offset=offset,
    )


def _field(data, key: str):
    if not isinstance(data, dict) or key not in data:
        raise ValueError(f"no {key!r} in {data!r}")
    return data[key]


def move_from_jsonable(data: dict):
    """Rebuild a move; a malformed document raises ValueError."""
    kind = _field(data, "kind")
    if kind == "relabel":
        return Relabel(_ints(_field(data, "images")))
    if kind == "multiplier":
        [letter] = _ints([_field(data, "letter")])
        return Multiplier(letter, frozenset(_ints(_field(data, "cut"))))
    raise ValueError(f"unknown move kind: {kind!r}")


def certificate_from_jsonable(data: dict) -> OrbitCertificate:
    """Rebuild a certificate; a malformed document raises ValueError:
    words must be strings, letters ints and ``inverted`` a bool."""
    moves, inverted = _field(data, "moves"), _field(data, "inverted")
    if not isinstance(moves, list):
        raise ValueError(f"bad move list {moves!r}")
    if type(inverted) is not bool:
        raise ValueError(f"bad inverted flag {inverted!r}")
    return OrbitCertificate(
        moves=tuple(move_from_jsonable(d) for d in moves),
        source=parse_word(_field(data, "source")),
        target=parse_word(_field(data, "target")),
        inverted=inverted,
    )


def verdict_from_jsonable(data: dict) -> IsoVerdict:
    """Rebuild an isomorphism verdict; a malformed document raises ValueError.

    All four keys must be present, so a document that lost its
    ``conditional`` caveat is refused rather than read as unconditional.
    ``kind`` must name a verdict, ``reason`` be a string or null and
    ``conditional`` a bool (a string "false" would read as True); an
    Isomorphic verdict needs a well-formed certificate and no other kind
    may carry one.
    """
    if not isinstance(data, dict):
        raise ValueError(f"not a verdict document: {data!r}")
    missing = {"kind", "conditional", "reason", "certificate"} - data.keys()
    if missing:
        raise ValueError(f"verdict document lacks {sorted(missing)}")
    kind, reason, cert = data["kind"], data["reason"], data["certificate"]
    conditional = data["conditional"]
    if kind not in (ISOMORPHIC, NOT_ISOMORPHIC, INAPPLICABLE):
        raise ValueError(f"bad verdict kind {kind!r}")
    if reason is not None and not isinstance(reason, str):
        raise ValueError(f"bad reason {reason!r}")
    if type(conditional) is not bool:
        raise ValueError(f"bad conditional flag {conditional!r}")
    if (kind == ISOMORPHIC) != (cert is not None):
        raise ValueError(f"{kind} verdict with certificate {cert!r}")
    return IsoVerdict(
        kind=kind,
        certificate=certificate_from_jsonable(cert) if cert is not None else None,
        reason=reason,
        conditional=conditional,
    )
