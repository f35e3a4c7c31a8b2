"""Small-cancellation machinery: pieces, C'(lambda), and Dehn reduction.

A ``Presentation`` holds cyclically reduced relators over an ``Alphabet``.
Its *symmetrized family* consists of every cyclic rotation of every
relator and of every inverted relator, indexed by (relator, sign,
offset); a *piece* is a word that is a proper prefix of the words of two
distinct family members.  (Indexing by occurrence matters: a proper
power such as a^6 has the piece a^5 because two different rotations
carry the same word, even though the deduplicated word set does not show
it.)

``check_Cprime`` decides the metric condition |q| < lambda * |r| for
every piece q occurring in a symmetrized element r, by exact integer
cross-multiplication.  ``dehn_reduce`` is the classical word-problem
procedure for C'(1/6) presentations: while the word contains more than
half of some symmetrized element, replace that subword by the inverse
of the complement.  ``find_long_relator_path`` finds, in a folded graph,
the longest readable portion of any symmetrized element that exceeds the
(1 - 3 lambda) fraction of its relator, walking only the runs through a
few anchor positions of each doubled relator.

Letters are encoded as single characters (ordered a < a^-1 < b < ...)
so windows and Dehn's scan run on Python strings.  Piece windows are counted
afresh for each question: only the encoded relator sides (``_sides``) and
the ``check_Cprime`` memo outlive a call.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .fgraph import FGraph, Path
from .words import (
    Alphabet,
    Word,
    _longest,
    concat,
    free_reduce,
    inverse,
    is_cyclically_reduced,
    key_letter,
    letter_key,
)

def encode_word(w) -> str:
    """Pack letters into characters (one char per letter, order-preserving).
    Every letter up to ±557,039 has one; a letter without raises ``ValueError``."""
    try:
        return "".join(chr(33 + letter_key(x)) for x in w)
    except (ValueError, OverflowError):  # chr(33 + letter_key(-557040)) is past 0x10FFFF
        raise ValueError("letters past ±557,039 have no Dehn encoding") from None


def decode_text(text: str) -> Word:
    return tuple(key_letter(ord(c) - 33) for c in text)


@dataclass(frozen=True)
class Presentation:
    """A finite presentation with cyclically reduced nontrivial relators."""

    alphabet: Alphabet
    relators: tuple

    def __post_init__(self):
        object.__setattr__(self, "relators", tuple(tuple(r) for r in self.relators))
        for r in self.relators:
            if not r:
                raise ValueError("relators must be nontrivial")
            if not is_cyclically_reduced(r):
                raise ValueError(f"relator {r} is not cyclically reduced")
            self.alphabet.check_word(r)

    @property
    def n(self) -> int:
        return len(self.relators)

    def member(self, i: int, sign: int, offset: int) -> Word:
        """Family member (i, sign, offset): relator i, inverted if sign is -1, rotated."""
        r = self.relators[i]
        base = r if sign == 1 else inverse(r)
        return base[offset:] + base[:offset]


# ---------------------------------------------------------------------------
# Pieces


@lru_cache(maxsize=128)
def _sides(p: Presentation):
    """Per relator and sign (+1 first): (i, length, doubled text)."""
    return tuple((i, len(r), 2 * encode_word(base))
                 for i, r in enumerate(p.relators) for base in (r, inverse(r)))


def _shared_windows(p: Presentation, k: int):
    """Yield (relator, window) for every family member whose length-k
    prefix is a piece, in scan order (relator, sign +1 first, offset).

    Only sides longer than k count, as a piece is a proper prefix of every
    member carrying it.  A member's own window is among those counted, so
    another member carries it exactly when the count is above one.
    """
    sides = [(i, [doubled[off:off + k] for off in range(L)])
             for i, L, doubled in _sides(p) if L > k]
    counts = Counter(w for _, windows in sides for w in windows)
    for i, windows in sides:
        for w in windows:
            if counts[w] > 1:
                yield i, w


def max_piece(p: Presentation) -> tuple[int, Fraction]:
    """Exact maximum piece length and maximum |piece| / |relator| ratio:
    the longest piece overall, then the longest in each relator."""

    def has_piece(k: int, relator: Optional[int] = None) -> bool:
        return any(relator in (None, i) for i, _ in _shared_windows(p, k))

    length = _longest(has_piece, max(len(r) for r in p.relators) - 1)
    ratio = max(Fraction(_longest(lambda k, i=i: has_piece(k, i), min(length, len(r) - 1)),
                         len(r))
                for i, r in enumerate(p.relators))
    return length, ratio


@dataclass(frozen=True)
class CprimeResult:
    """Outcome of a C'(lambda) check; falsy iff the condition fails."""

    ok: bool
    piece: Optional[Word] = None
    relator_index: Optional[int] = None
    ratio: Optional[Fraction] = None

    def __bool__(self) -> bool:
        return self.ok


@lru_cache(maxsize=256)
def check_Cprime(p: Presentation, lam: Fraction) -> CprimeResult:
    """Every piece q in a symmetrized element r must have |q| < lam * |r|.

    On failure the result carries a witness piece of the threshold length
    ceil(lam * |r|) together with the relator it is too long for: the
    first such window in scan order.  The (frozen) result is memoised per
    (presentation, lambda), since the reduction driver and the Dehn guard
    ask again for every tuple; the window counts behind it are not kept.
    """
    lam = Fraction(lam)
    if lam <= 0:
        raise ValueError("lambda must be positive")
    num, den = lam.numerator, lam.denominator
    for i, r in enumerate(p.relators):
        L = len(r)
        k = -((-num * L) // den)  # smallest piece length violating strictness
        window = next((w for j, w in _shared_windows(p, k) if j == i), None)
        if window is not None:
            return CprimeResult(ok=False, piece=decode_text(window),
                                relator_index=i, ratio=Fraction(k, L))
    return CprimeResult(ok=True)


# ---------------------------------------------------------------------------
# Dehn's algorithm


def _require_c16(p: Presentation) -> None:
    if not check_Cprime(p, Fraction(1, 6)):
        raise ValueError("Dehn reduction requires a C'(1/6) presentation")


def dehn_reduce(w, p: Presentation) -> Word:
    """Dehn-reduce w: the result is empty iff w represents the identity.

    Deterministic scan order: leftmost match position, then relator
    index, then sign (+1 first), then lowest rotation offset, extending
    the match as far as it goes.  Each replacement swaps a subword v
    (more than half of a symmetrized element v*z) for z^-1 and freely
    reduces, strictly shortening the word.
    """
    _require_c16(p)
    sides = _sides(p)
    w = free_reduce(w)
    while True:
        n = len(w)
        text = encode_word(w)
        hit = None
        for pos in range(n):
            for _, L, doubled in sides:
                need = L // 2 + 1
                if pos + need > n:
                    continue
                j = doubled.find(text[pos:pos + need])
                if j < 0 or j >= L:
                    continue
                ext = need
                while ext < L and pos + ext < n and text[pos + ext] == doubled[j + ext]:
                    ext += 1
                hit = (pos, ext, j, L, doubled)
                break
            if hit:
                break
        if hit is None:
            return w
        pos, ext, j, L, doubled = hit
        z = decode_text(doubled[j + ext:j + L])
        w = concat(w[:pos], inverse(z), w[pos + ext:])


def is_equal_in_G(u, v, p: Presentation) -> bool:
    """Whether u and v represent the same element of the presented group."""
    return dehn_reduce(concat(u, inverse(v)), p) == ()


# ---------------------------------------------------------------------------
# Long relator portions readable in a folded graph


@dataclass(frozen=True)
class LongRelatorPath:
    """A readable subword v of a symmetrized element with v*y the rotation.

    ``path`` spells v in the graph; the strict bound
    |v| > (1 - 3 lambda)|r| holds exactly.
    """

    path: Path
    relator_index: int
    sign: int
    offset: int
    v: Word
    y: Word


def find_long_relator_path(g: FGraph, p: Presentation,
                           lam: Fraction) -> Optional[LongRelatorPath]:
    """Longest readable rotation prefix exceeding the (1 - 3 lambda) bound.

    Among every relator, sign, rotation offset and start vertex, the
    winner is the longest readable v (capped at |r|), ties resolved by
    relator index, then sign (+1 first), then offset, then vertex id.
    Returns None when no candidate beats its relator's bound.  From
    lambda = 1/3 up the bound is at most 0 and rules nothing out, so such
    a lambda raises ``ValueError``.

    A candidate of ``need`` letters or more that starts before |r| reads
    one of the anchors 0, gap, 2 gap, ... < |r| + gap - 1 of the doubled
    relator (gap = max(need, 1)).  A folded graph reads deterministically
    both ways, so walking back from an (anchor, vertex) pair reaches the
    start of the one run through it, which is the run's best candidate; a
    walk back to the previous anchor finds a run scored there.
    """
    if not g.is_folded():
        raise ValueError("long-relator scan requires a folded graph")
    lam = Fraction(lam)
    if lam >= Fraction(1, 3):
        raise ValueError(f"long-relator scan needs lambda < 1/3, got {lam}")
    num, den = lam.numerator, lam.denominator
    step = {}  # (vertex, letter) -> vertex
    for o, t, x in g.edges.values():
        step[o, x], step[t, -x] = t, o
    best = None  # (-len_v, i, -sign, offset, vertex)
    for i, r in enumerate(p.relators):
        L = len(r)
        need = (den - 3 * num) * L // den + 1  # least len_v beating the bound
        gap = max(need, 1)
        for sign in (1, -1):
            xx = 2 * p.member(i, sign, 0)
            for anchor in range(0, L + gap - 1, gap):
                for v in g.vertices:
                    s, u = anchor, v
                    while (s > max(anchor - gap, 0)
                           and (prev := step.get((u, -xx[s - 1]))) is not None):
                        s, u = s - 1, prev
                    if s == anchor - gap or s >= L:
                        continue
                    len_v, w = 0, u
                    while len_v < L and (w := step.get((w, xx[s + len_v]))) is not None:
                        len_v += 1
                    if len_v >= need:
                        key = (-len_v, i, -sign, s, u)
                        best = key if best is None else min(best, key)
    if best is None:
        return None
    len_v, i, sign, offset, v0 = best
    len_v, sign = -len_v, -sign
    rotation = p.member(i, sign, offset)
    v_word, y_word = rotation[:len_v], rotation[len_v:]
    path = g.trace_word(v0, v_word)
    if path is None or g.path_label(path) != v_word:
        raise RuntimeError("the long relator path does not read back")
    L = len(rotation)
    if len_v * den <= (den - 3 * num) * L:
        raise RuntimeError("the long relator path is too short")
    return LongRelatorPath(path=path, relator_index=i, sign=sign,
                           offset=offset, v=v_word, y=y_word)
