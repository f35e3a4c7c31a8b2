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
move of a descent, or a length-preserving move of the level set.
Relabels permute signed letters, so the canonical form keys the relabel
images of a cyclically reduced word by mapping letters alone.

Positive answers come with an :class:`OrbitCertificate` whose move
sequence replays from source to target — certificates are re-verified
before being returned.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations, product
from typing import Optional

from . import words
from .words import (
    Word,
    cyclic_reduce,
    cyclic_word,
    format_word,
    inverse,
    letter_key,
    parse_word,
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


# The relabel group has 2^m * m! elements and there are 2m * 4^(m-1)
# multiplier moves.  At rank 6 that is 46,080 and 12,288 moves, built in
# under a second; rank 7 needs 645,120 relabels (about 130 MB), and every
# canonical form applies all of them.  Larger ranks are refused before
# anything is built.
MAX_MOVE_RANK = 6


def _check_move_rank(m: int) -> None:
    if m > MAX_MOVE_RANK:
        raise ValueError(
            f"Whitehead moves are enumerated up to rank {MAX_MOVE_RANK}, got {m}"
        )


@lru_cache(maxsize=8)
def relabel_moves(m: int) -> tuple[Relabel, ...]:
    """The full relabel group: all 2^m * m! signed permutations."""
    _check_move_rank(m)
    return tuple(
        Relabel(tuple(s * p for s, p in zip(signs, perm)))
        for perm in permutations(range(1, m + 1))
        for signs in product((1, -1), repeat=m)
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


def _length_changes(w: Word, m: int) -> list[int]:
    """``len(_image_core(w, mv)) - len(w)`` for each multiplier move
    ``mv``, in :func:`multiplier_moves` order, for a nonempty cyclically
    reduced ``w``: the edges of the Whitehead graph that leave the cut
    set, less the degree of the multiplier letter."""
    n = 2 * m
    graph = [0] * (n * n)
    for (x, y), count in Counter(zip(w, w[1:] + w[:1])).items():
        u, v = letter_key(x), letter_key(-y)
        graph[u * n + v] += count
        graph[v * n + u] += count
    degree = [sum(graph[u * n:(u + 1) * n]) for u in range(n)]
    return [sum(map(graph.__getitem__, cells)) - degree[a] for a, cells in _cut_edges(m)]


def _in_alphabet(letters, m: int) -> bool:
    return all(0 < abs(x) <= m for x in letters)


def _check_alphabet(w: Word, m: int) -> None:
    if not _in_alphabet(w, m):
        raise ValueError(f"word uses letters outside alphabet of rank {m}")


@lru_cache(maxsize=8)
def _relabel_keys(m: int) -> tuple[tuple[int, ...], ...]:
    """Each relabel of rank ``m`` as a table from signed letter ``x`` to
    the ``letter_key`` of its image, at index ``x`` (negative indices
    wrap around, so ``-x`` sits at ``2m + 1 - x``)."""
    tables = []
    for rho in relabel_moves(m):
        table = [0] * (2 * m + 1)
        for k, img in enumerate(rho.images, start=1):
            table[k] = letter_key(img)
            table[-k] = letter_key(-img)
        tables.append(tuple(table))
    return tuple(tables)


def canonical_orbit_form(w: Word, m: int) -> Word:
    """Least relabel image of the cyclically reduced word ``w`` (any
    rotation of it) — a canonical representative of its orbit under the
    relabel group.  Each image is keyed once, rotated by Booth's least
    rotation and compared as keys; only the least is built as a word.

    >>> canonical_orbit_form((2, 2, 1), 2)
    (1, 1, 2)
    """
    _check_alphabet(w, m)
    if not words.is_cyclically_reduced(w):
        raise ValueError("canonical_rotation needs a cyclically reduced word")
    best = None
    for table in _relabel_keys(m):
        keys = list(map(table.__getitem__, w))
        k = words.least_rotation_offset(keys)
        keys = keys[k:] + keys[:k]
        if best is None or keys < best:
            best = keys
    return tuple(key // 2 + 1 if key % 2 == 0 else -(key // 2 + 1) for key in best)


def minimize(w: Word, m: int) -> tuple[Word, tuple]:
    """Greedy descent to the minimal cyclic length in the orbit of ``w``.

    Returns the minimal word reached and the moves that got there.  When
    no multiplier move shortens the result, none exists at all, so the
    returned length is the true orbit minimum.  A word that reduces to
    the identity raises ``ValueError``.

    >>> minimize((1, 1, 2), 2)[0]
    (2,)
    >>> minimize((1, 2, -1, -2), 2)[0]
    (1, 2, -1, -2)
    """
    _check_alphabet(w, m)
    current = cyclic_word(w)
    if not current:
        raise ValueError("word must be nontrivial")
    moves = []
    while True:
        for mv, change in zip(multiplier_moves(m), _length_changes(current, m)):
            if change < 0:
                break
        else:
            return current, tuple(moves)
        moves.append(mv)
        current = words.canonical_rotation(_image_core(current, mv))


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
    the source, the target or a move leaves the rank-``m`` alphabet."""
    if not (_in_alphabet(cert.source, m) and _in_alphabet(cert.target, m)
            and all(_fits_rank(mv, m) for mv in cert.moves)):
        return False
    x = cyclic_word(cert.source)
    for mv in cert.moves:
        x = apply_move(x, mv)
    expected = cyclic_word(cert.target)
    if cert.inverted:
        expected = cyclic_word(inverse(expected))
    return x == expected


def same_orbit(u: Word, v: Word, m: int) -> Optional[OrbitCertificate]:
    """Search for an automorphism carrying ``u`` to ``v`` or its inverse.

    Minimizes both words (distinct minimal lengths rule the orbits
    apart), then breadth-first searches the level set of minimal words
    reachable from u's minimum by length-preserving multiplier moves,
    visiting each relabel-canonical form once.  Returns a verified
    certificate, or None when the orbits differ.  A word that reduces to
    the identity raises ``ValueError``.
    """
    _check_alphabet(u, m)
    _check_alphabet(v, m)
    min_u, moves_u = minimize(u, m)
    min_v, moves_v = minimize(v, m)
    if len(min_u) != len(min_v):
        return None

    target_fwd = min_v
    target_inv = cyclic_word(inverse(min_v))
    canon_fwd = canonical_orbit_form(target_fwd, m)
    canon_inv = canonical_orbit_form(target_inv, m)

    start_key = canonical_orbit_form(min_u, m)
    visited = {start_key}
    queue = deque([(min_u, (), start_key)])
    hit: Optional[tuple[Word, tuple, bool]] = None
    while queue:
        x, path, key = queue.popleft()
        if key == canon_fwd:
            hit = (x, path, False)
            break
        if key == canon_inv:
            hit = (x, path, True)
            break
        for mv, change in zip(multiplier_moves(m), _length_changes(x, m)):
            if change:
                continue
            core = _image_core(x, mv)
            ikey = canonical_orbit_form(core, m)
            if ikey not in visited:
                visited.add(ikey)
                queue.append((words.canonical_rotation(core), path + (mv,), ikey))
    if hit is None:
        return None

    x, path, inverted = hit
    target_word = target_inv if inverted else target_fwd
    moves = tuple(moves_u) + tuple(path)
    if x != target_word:
        for closing in relabel_moves(m):
            if apply_move(x, closing) == target_word:
                break
        else:
            raise RuntimeError("canonical forms matched but no relabel closes the gap")
        moves = moves + (closing,)

    tail = tuple(invert_move(mv) for mv in reversed(moves_v))
    cert = OrbitCertificate(
        moves=moves + tail,
        source=cyclic_word(u),
        target=cyclic_word(v),
        inverted=inverted,
    )
    if not verify_certificate(cert, m):
        raise RuntimeError("assembled certificate failed to replay")
    return cert


# ---------------------------------------------------------------------------
# JSON shapes for moves and certificates.
# ---------------------------------------------------------------------------


def move_jsonable(mv) -> dict:
    if isinstance(mv, Relabel):
        return {"kind": "relabel", "images": list(mv.images)}
    if isinstance(mv, Multiplier):
        return {
            "kind": "multiplier",
            "letter": mv.letter,
            "cut": sorted(mv.cut, key=letter_key),
        }
    raise TypeError(f"not a Whitehead move: {mv!r}")


def _field(data, key: str):
    if not isinstance(data, dict) or key not in data:
        raise ValueError(f"no {key!r} in {data!r}")
    return data[key]


def _letters(values) -> tuple:
    """A JSON list of signed letters: true ints, never bools."""
    if not isinstance(values, list) or any(type(x) is not int for x in values):
        raise ValueError(f"bad letter list {values!r}")
    return tuple(values)


def move_from_jsonable(data: dict):
    """Rebuild a move; a malformed document raises ValueError."""
    kind = _field(data, "kind")
    if kind == "relabel":
        return Relabel(_letters(_field(data, "images")))
    if kind == "multiplier":
        [letter] = _letters([_field(data, "letter")])
        return Multiplier(letter, frozenset(_letters(_field(data, "cut"))))
    raise ValueError(f"unknown move kind: {kind!r}")


def certificate_jsonable(cert: OrbitCertificate) -> dict:
    return {
        "moves": [move_jsonable(mv) for mv in cert.moves],
        "source": format_word(cert.source),
        "target": format_word(cert.target),
        "inverted": cert.inverted,
    }


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
