"""Whitehead moves: cyclic-length minimization and automorphism orbits.

A *Whitehead move* on the free group of rank ``m`` is either a relabel
(a permutation of the generators composed with inverting some of them)
or a multiplier move determined by a signed letter ``a`` and a cut set
``S`` of signed letters with ``a in S`` and ``-a not in S``.  The
multiplier move fixes ``a`` and sends every other letter ``x`` to
``x*a``, ``a^-1*x``, ``a^-1*x*a``, or ``x`` according to whether ``S``
contains ``x`` only, ``x^-1`` only, both, or neither.  Together these
moves generate the automorphism group, and they suffice to answer two
questions about cyclic words (conjugacy classes):

* :func:`minimize` — the shortest cyclic length in a word's orbit.
  Greedy descent works: while some multiplier move strictly shortens
  the word, apply the first one in a fixed enumeration.  By the peak
  reduction property of Whitehead moves, a word no move can shorten has
  globally minimal length in its orbit.
* :func:`same_orbit` — whether two cyclic words lie in a common orbit,
  up to inversion of one of them.  After minimizing both (different
  minimal lengths settle the question), a breadth-first search walks
  the level set of minimal-length words reachable by length-preserving
  multiplier moves, collapsing each node to a canonical form under the
  finite relabel group; again by peak reduction, two minimal words of
  the same orbit are always connected inside that level set.

Both searches score moves on the word's cyclic Whitehead graph, which
has the signed letters as vertices and one edge ``{x, y^-1}`` for each
cyclic adjacency ``x y``.  A multiplier move of letter ``a`` and cut set
``S`` changes the cyclic length by the number of edges leaving ``S``
less the degree of ``a`` (Lyndon-Schupp, *Combinatorial Group Theory*,
Prop. I.4.16), so one pass over the word scores every move, and an
image is built only for a move the search keeps: the first shortening
move of a descent, or a length-preserving move of the level set.  Two
kinds of multiplier move fix every cyclic word: a cut of the letter
alone is the identity, and a cut of every letter but the multiplier's
inverse is conjugation by it; the level set skips both.

Neither search rotates the words it builds.  Move scores and orbit forms
depend only on the cyclic word, and the image of a rotation is a
conjugate of the image, so cyclic reduction gives a rotation of it; a
word is rotated to its canonical form only where a result needs it.

The canonical form of a cyclic word is its least relabel image over all
rotations.  It is found without listing the 2^m * m! relabels:

1. *Greedy is least for a fixed start.*  Map each generator, at its
   first occurrence, to the next unused generator, with the sign that
   makes the image letter positive.  The letters before it are already
   fixed, and that is the least letter a relabel can still put there,
   so this image is the least relabel image of that rotation.
2. *The least image starts at a longest run.*  From the start of a run
   of L equal letters the greedy image reads ``a^L`` and then ``b``,
   because a cyclically reduced word never follows a letter by its
   inverse; so a longer first run gives a smaller image, and only the
   starts of the longest runs are candidates.  Of those, only the ones
   whose greedy images begin with the least L + 2m letters can win.
3. *Grouping by relabel is exact.*  The least rotation of one relabel's
   image is at most the greedy image of every candidate with that
   relabel, and at least the least image, being itself a relabel image
   of a rotation.  So one Booth pass per distinct greedy relabel finds
   the least image.
4. *A relabel invariant gates the comparison.*  The sorted entries of
   the Whitehead graph's adjacency matrix, the word's *fingerprint*, do
   not change under rotation, which keeps the cyclic adjacencies; under
   inversion, which turns the adjacency ``x y`` into ``y^-1 x^-1``, the
   same edge ``{x, y^-1}``; or under a relabel, which permutes the
   vertices.  So words with equal orbit forms have equal fingerprints,
   and :func:`same_orbit` compares a node with the target's orbit forms,
   and builds those forms, only where the fingerprints agree.

Positive answers come with an :class:`OrbitCertificate` whose move
sequence replays from source to target — certificates are re-verified
before being returned.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from . import words
from .words import (
    Word,
    cyclic_reduce,
    free_reduce,
    inverse,
    key_letter,
    letter_key,
    signed_letters,
    substitute,
)


@dataclass(frozen=True)
class Relabel:
    """A signed permutation of the generators: generator k maps to the
    (possibly inverted) generator ``images[k-1]``."""

    images: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "images", tuple(self.images))
        if sorted(abs(x) for x in self.images) != list(range(1, len(self.images) + 1)):
            raise ValueError("images must be a signed permutation of the generators")


@dataclass(frozen=True)
class Multiplier:
    """The move of multiplier ``letter`` and cut set ``cut``."""

    letter: int
    cut: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "cut", frozenset(self.cut))
        if self.letter == 0 or 0 in self.cut:
            raise ValueError("letters are nonzero signed integers")
        if self.letter not in self.cut:
            raise ValueError("cut set must contain the multiplier letter")
        if -self.letter in self.cut:
            raise ValueError("cut set must not contain the multiplier's inverse")


def invert_move(mv):
    """The move undoing ``mv``: apply_move(apply_move(w, mv), invert_move(mv)) == w."""
    if isinstance(mv, Relabel):
        inv = [0] * len(mv.images)
        for k, img in enumerate(mv.images, start=1):
            inv[abs(img) - 1] = k if img > 0 else -k
        return Relabel(tuple(inv))
    if isinstance(mv, Multiplier):
        return Multiplier(-mv.letter, (mv.cut - {mv.letter}) | {-mv.letter})
    raise TypeError(f"not a Whitehead move: {mv!r}")


def _image_table(mv, m: int) -> tuple[Word, ...]:
    """Images of generators 1..m under ``mv``, for substitution."""
    if isinstance(mv, Relabel):
        if len(mv.images) < m:
            raise ValueError("relabel does not cover the word's alphabet")
        return tuple((img,) for img in mv.images[:m])
    if isinstance(mv, Multiplier):
        a = mv.letter
        table = []
        for k in range(1, m + 1):
            if k == abs(a):
                table.append((k,))
                continue
            front = k in mv.cut
            back = -k in mv.cut
            if front and back:
                table.append((-a, k, a))
            elif front:
                table.append((k, a))
            elif back:
                table.append((-a, k))
            else:
                table.append((k,))
        return tuple(table)
    raise TypeError(f"not a Whitehead move: {mv!r}")


def _image_core(w: Word, mv) -> Word:
    """Image of ``w`` under ``mv``, reduced freely and cyclically but not
    rotated: the same cyclic word as :func:`apply_move` gives."""
    if not w:
        return ()
    m = max(abs(x) for x in w)
    return cyclic_reduce(substitute(w, _image_table(mv, m)))[0]


def apply_move(w: Word, mv) -> Word:
    """Image of the cyclic word ``w``: substitute letter images, then
    reduce freely and cyclically and take the canonical rotation."""
    return words.canonical_rotation(_image_core(w, mv))


# There are 2m * 4^(m-1) multiplier moves: 12,288 at rank 6, built in
# under a second.  At rank 7 every descent and level-set node would score
# all 57,344, so larger ranks are refused before anything is built.
MAX_MOVE_RANK = 6


def _check_move_rank(m: int) -> None:
    if m > MAX_MOVE_RANK:
        raise ValueError(
            f"Whitehead moves are enumerated up to rank {MAX_MOVE_RANK}, got {m}"
        )


@lru_cache(maxsize=8)
def multiplier_moves(m: int) -> tuple[Multiplier, ...]:
    """All multiplier moves, in a fixed enumeration: multiplier letters
    by alphabet order, cut sets by a two-bits-per-generator mask."""
    _check_move_rank(m)
    moves = []
    for a in signed_letters(m):
        others = [g for g in range(1, m + 1) if g != abs(a)]
        for mask in range(4 ** len(others)):
            cut = {a}
            for i, g in enumerate(others):
                bits = (mask >> (2 * i)) & 3
                if bits & 1:
                    cut.add(g)
                if bits & 2:
                    cut.add(-g)
            moves.append(Multiplier(a, frozenset(cut)))
    return tuple(moves)


@lru_cache(maxsize=8)
def _cut_edges(m: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """For each multiplier move, in :func:`multiplier_moves` order, the
    ``letter_key`` of its letter and the cells ``u * 2m + v`` of the
    Whitehead graph's adjacency matrix with ``u`` in the cut set and
    ``v`` outside it."""
    n = 2 * m
    table = []
    for mv in multiplier_moves(m):
        inside = [letter_key(x) for x in mv.cut]
        outside = [v for v in range(n) if v not in inside]
        table.append((letter_key(mv.letter), tuple(u * n + v for u in inside for v in outside)))
    return tuple(table)


def _whitehead_graph(w: Word, m: int) -> list[int]:
    """The adjacency matrix of the cyclic Whitehead graph of the nonempty
    cyclically reduced ``w``, flat: cell ``u * 2m + v`` counts the edges
    between the letters of ``letter_key`` u and v."""
    n = 2 * m
    graph = [0] * (n * n)
    for (x, y), count in Counter(zip(w, w[1:] + w[:1])).items():
        u, v = letter_key(x), letter_key(-y)
        graph[u * n + v] += count
        graph[v * n + u] += count
    return graph


def _length_changes(graph: list[int], m: int) -> list[int]:
    """``len(_image_core(w, mv)) - len(w)`` for each multiplier move
    ``mv``, in :func:`multiplier_moves` order, from the Whitehead
    ``graph`` of ``w``: the edges that leave the cut set, less the
    degree of the multiplier letter."""
    n = 2 * m
    degree = [sum(graph[u * n:(u + 1) * n]) for u in range(n)]
    return [sum(map(graph.__getitem__, cells)) - degree[a] for a, cells in _cut_edges(m)]


def _in_alphabet(letters, m: int) -> bool:
    return not letters or (0 not in letters and -m <= min(letters) and max(letters) <= m)


def _check_alphabet(w: Word, m: int) -> None:
    if not _in_alphabet(w, m):
        raise ValueError(f"word uses letters outside alphabet of rank {m}")


def _greedy_relabels(w: Word, m: int) -> set[tuple[int, ...]]:
    """The greedy relabels of those starts of the longest runs (of L
    letters) in the cyclic word ``w`` whose greedy images begin with the
    least L + 2m letters.  A relabel is the signed image of each
    generator 1..m, with 0 for a generator that ``w`` does not use.  One
    backward sweep carries the next occurrence of every generator."""
    n = len(w)
    cuts = [i for i in range(n) if w[i] != w[i - 1]]
    if cuts:
        lengths = [b - a for a, b in zip(cuts, cuts[1:] + [cuts[0] + n])]
        top = max(lengths)
        starts = {a for a, length in zip(cuts, lengths) if length == top}
    else:  # a power of one letter
        top, starts = n, {0}
    size = min(top + 2 * m, n)
    ww = w + w[:size]
    gens = [abs(x) for x in w]
    used = set(gens)
    nxt = [0] * (m + 1)
    for g in used:
        nxt[g] = n + gens.index(g)
    least, relabels = None, set()
    for j in range(n - 1, -1, -1):
        nxt[gens[j]] = j
        if j in starts:
            images = [0] * m
            for rank, g in enumerate(sorted(used, key=nxt.__getitem__), start=1):
                images[g - 1] = rank if w[nxt[g] % n] > 0 else -rank
            prefix = [letter_key(images[x - 1] if x > 0 else -images[-x - 1])
                      for x in ww[j:j + size]]
            if least is None or prefix < least:
                least, relabels = prefix, {tuple(images)}
            elif prefix == least:
                relabels.add(tuple(images))
    return relabels


def _least_images(w: Word, m: int) -> tuple[tuple[int, ...], list[tuple[int, ...]]]:
    """The ``letter_key`` tuple of the least relabel image of the cyclic
    word ``w``, and the greedy relabels that reach it."""
    best, winners = (), []
    for images in _greedy_relabels(w, m):
        table = [0] * (2 * m + 1)  # signed letter -> key of its image
        for g, img in enumerate(images, start=1):
            if img:
                table[g], table[-g] = letter_key(img), letter_key(-img)
        keys = tuple(map(table.__getitem__, w))
        k = words.least_rotation_offset(keys)
        keys = keys[k:] + keys[:k]
        if not winners or keys < best:
            best, winners = keys, [images]
        elif keys == best:
            winners.append(images)
    return best, winners


def canonical_orbit_form(w: Word, m: int) -> Word:
    """Least relabel image of the cyclically reduced word ``w`` (any
    rotation of it) — a canonical representative of its orbit under the
    relabel group.  The distinct greedy relabels of the candidate starts
    get one Booth pass each (see the module docstring), so the cost is
    O(m log m * |w| + d * |w|) for d such relabels.

    >>> canonical_orbit_form((2, 2, 1), 2)
    (1, 1, 2)
    """
    _check_alphabet(w, m)
    if not words.is_cyclically_reduced(w):
        raise ValueError("canonical_orbit_form needs a cyclically reduced word")
    best, _ = _least_images(w, m)
    return tuple(map(key_letter, best))


def _closing_relabel(x: Word, target: Word, m: int) -> Relabel:
    """The first relabel that carries the cyclic word ``x`` to ``target``,
    which has the same canonical form, in the order of the generator
    permutations and then of the signs, + before - in each place.
    On the generators x uses, such a relabel is one of x's winning greedy
    relabels followed by the inverse of one of target's; the generators x
    misses take the least unused generators, positively."""
    _, sigmas = _least_images(x, m)
    _, (tau, *_) = _least_images(target, m)
    back = {abs(img): g if img > 0 else -g for g, img in enumerate(tau, start=1) if img}
    best = None
    for sigma in sigmas:
        images = [back[abs(img)] * (1 if img > 0 else -1) if img else 0 for img in sigma]
        free = iter(sorted(set(range(1, m + 1)) - set(map(abs, images))))
        images = tuple(y or next(free) for y in images)
        order = (tuple(map(abs, images)), tuple(y < 0 for y in images))
        if best is None or order < best[0]:
            best = (order, images)
    return Relabel(best[1])


def _core(w: Word) -> Word:
    """``w`` reduced freely and cyclically, not rotated; a word that
    reduces to the identity raises ``ValueError``."""
    core, _ = cyclic_reduce(free_reduce(w))
    if not core:
        raise ValueError("word must be nontrivial")
    return core


def _descend(w: Word, m: int) -> tuple[Word, list, list[int], list[int]]:
    """Greedy descent from the nonempty cyclically reduced ``w``: while
    some multiplier move shortens the word, apply the first one in
    :func:`multiplier_moves` order.  Returns the word reached (not
    rotated), the moves, and that word's Whitehead graph and
    :func:`_length_changes`."""
    moves = []
    while True:
        graph = _whitehead_graph(w, m)
        changes = _length_changes(graph, m)
        for mv, change in zip(multiplier_moves(m), changes):
            if change < 0:
                break
        else:
            return w, moves, graph, changes
        moves.append(mv)
        w = _image_core(w, mv)


def minimize(w: Word, m: int) -> tuple[Word, tuple]:
    """Greedy descent to the minimal cyclic length in the orbit of ``w``.

    Returns the minimal word reached, as its canonical rotation, and the
    moves that got there.  When no multiplier move shortens the result,
    none exists at all, so the returned length is the true orbit minimum.
    A word that reduces to the identity raises ``ValueError``.  Move
    scores do not depend on the rotation, and the image of a rotation is
    a rotation of the image, so the descent never rotates: the word is
    rotated once, at the end.

    >>> minimize((1, 1, 2), 2)[0]
    (2,)
    >>> minimize((1, 2, -1, -2), 2)[0]
    (1, 2, -1, -2)
    """
    _check_alphabet(w, m)
    x, moves, _, _ = _descend(_core(w), m)
    return words.canonical_rotation(x), tuple(moves)


@dataclass(frozen=True)
class OrbitCertificate:
    """A replayable witness that two cyclic words share an orbit.

    Applying ``moves`` in order to ``source`` yields ``target`` as a
    cyclic word, or the inverse of ``target`` when ``inverted``.
    """

    moves: tuple
    source: Word
    target: Word
    inverted: bool


def _fits_rank(mv, m: int) -> bool:
    if isinstance(mv, Relabel):
        return len(mv.images) == m
    if isinstance(mv, Multiplier):
        return _in_alphabet(mv.cut, m)
    return False


def verify_certificate(cert: OrbitCertificate, m: int) -> bool:
    """Replay a certificate and compare against its target.  False when
    the source, the target or a move leaves the rank-``m`` alphabet.
    The image of a rotation is a rotation of the image, so the replay
    reduces after each move but rotates only once, at the end.

    >>> verify_certificate(same_orbit((1, 1, 2), (2, 1), 2), 2)
    True
    """
    if not (_in_alphabet(cert.source, m) and _in_alphabet(cert.target, m)
            and all(_fits_rank(mv, m) for mv in cert.moves)):
        return False
    x = cyclic_reduce(free_reduce(cert.source))[0]
    for mv in cert.moves:
        x = _image_core(x, mv)
    expected = cyclic_reduce(free_reduce(cert.target))[0]
    if cert.inverted:
        expected = inverse(expected)
    return words.canonical_rotation(x) == words.canonical_rotation(expected)


def same_orbit(u: Word, v: Word, m: int) -> Optional[OrbitCertificate]:
    """Search for an automorphism carrying ``u`` to ``v`` or its inverse.

    Minimizes both words (distinct minimal lengths rule the orbits
    apart), then breadth-first searches the level set of minimal words
    reachable from u's minimum by length-preserving multiplier moves,
    visiting each relabel-canonical form once.  Returns a verified
    certificate, or None when the orbits differ.  A word that reduces to
    the identity raises ``ValueError``.  Move scores and orbit forms do
    not depend on the rotation, and the image of a rotation is a
    rotation of the image, so search nodes stay unrotated: only a hit
    and its target are rotated, for the closing relabel.  A node meets
    the target's orbit forms only when its fingerprint matches (point 4
    of the module docstring), so two strictly minimal words with
    different fingerprints cost no orbit form at all.
    """
    _check_alphabet(u, m)
    _check_alphabet(v, m)
    core_u = _core(u)
    min_u, moves_u, graph_u, changes_u = _descend(core_u, m)
    core_v = _core(v)
    min_v, moves_v, graph_v, _ = _descend(core_v, m)
    if len(min_u) != len(min_v):
        return None

    target_inv = inverse(min_v)
    fingerprint = sorted(graph_v)
    targets = None  # the orbit forms of min_v and of its inverse
    visited = set()
    queue = deque([(min_u, (), None)])
    hit: Optional[tuple[Word, tuple, bool]] = None
    while queue:
        x, path, key = queue.popleft()
        graph = _whitehead_graph(x, m) if path else graph_u
        if sorted(graph) == fingerprint:
            if targets is None:
                targets = (_least_images(min_v, m)[0], _least_images(target_inv, m)[0])
            key = key or _least_images(x, m)[0]
            if key in targets:
                hit = (x, path, key != targets[0])
                break
        changes = _length_changes(graph, m) if path else changes_u
        for mv, change in zip(multiplier_moves(m), changes):
            if change or len(mv.cut) in (1, 2 * m - 1):  # fixes every cyclic word
                continue
            if not visited:  # the start has a neighbour, so its key is needed
                key = key or _least_images(x, m)[0]
                visited.add(key)
            core = _image_core(x, mv)
            ikey = _least_images(core, m)[0]
            if ikey not in visited:
                visited.add(ikey)
                queue.append((core, path + (mv,), ikey))
    if hit is None:
        return None

    x, path, inverted = hit
    x = words.canonical_rotation(x)
    target_word = words.canonical_rotation(target_inv if inverted else min_v)
    moves = tuple(moves_u) + tuple(path)
    if x != target_word:
        moves = moves + (_closing_relabel(x, target_word, m),)

    tail = tuple(invert_move(mv) for mv in reversed(moves_v))
    cert = OrbitCertificate(
        moves=moves + tail,
        source=words.canonical_rotation(core_u),
        target=words.canonical_rotation(core_v),
        inverted=inverted,
    )
    if not verify_certificate(cert, m):
        raise RuntimeError("assembled certificate failed to replay")
    return cert
