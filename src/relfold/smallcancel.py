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
of the complement.  ``find_long_relator_path`` scans a folded graph for
the longest readable portion of any symmetrized element and reports it
when it exceeds the (1 - 3 lambda) fraction of its relator.

Letters are encoded as single characters (ordered a < a^-1 < b < ...)
so windows and scans run on Python strings.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .fgraph import FGraph, Path
from .words import (
    Alphabet,
    Word,
    concat,
    free_reduce,
    inverse,
    is_cyclically_reduced,
    letter_key,
)


def encode_word(w) -> str:
    """Pack letters into characters (one char per letter, order-preserving)."""
    return "".join(chr(33 + letter_key(x)) for x in w)


def decode_text(text: str) -> Word:
    out = []
    for c in text:
        k = ord(c) - 33
        out.append(k // 2 + 1 if k % 2 == 0 else -(k // 2 + 1))
    return tuple(out)


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


# ---------------------------------------------------------------------------
# Pieces


@lru_cache(maxsize=128)
def _sides(p: Presentation):
    """Per (relator, sign): (i, sign, length, doubled text) in scan order."""
    sides = []
    for i, r in enumerate(p.relators):
        for sign in (1, -1):
            base = r if sign == 1 else inverse(r)
            text = encode_word(base)
            sides.append((i, sign, len(base), text + text))
    return tuple(sides)


@lru_cache(maxsize=64)
def _windows(p: Presentation, k: int):
    """All length-k cyclic windows, as window -> tuple of family members.

    Only sides whose relator has |r| - 1 >= k contribute (a piece must be
    a proper prefix of each member carrying it).
    """
    table: dict[str, list] = {}
    for i, sign, L, doubled in _sides(p):
        if L - 1 < k:
            continue
        for off in range(L):
            table.setdefault(doubled[off:off + k], []).append((i, sign, off))
    return {w: tuple(v) for w, v in table.items()}


def _has_piece(p: Presentation, k: int, relator: Optional[int] = None) -> bool:
    """Is there a piece of length k (optionally occurring in one relator)?"""
    if k < 1:
        return True
    for members in _windows(p, k).values():
        if len(members) < 2:
            continue
        if relator is None or any(i == relator for i, _, _ in members):
            return True
    return False


def _search_max(lo: int, hi: int, pred) -> int:
    """Largest k in [lo, hi] with pred(k), assuming pred is downward closed;
    returns lo - 1 when even pred(lo) fails."""
    if lo > hi or not pred(lo):
        return lo - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if pred(mid):
            lo = mid
        else:
            hi = mid - 1
    return lo


def max_piece(p: Presentation) -> tuple[int, Fraction]:
    """Exact maximum piece length and maximum |piece| / |relator| ratio."""
    hi = max(len(r) for r in p.relators) - 1
    length = _search_max(1, hi, lambda k: _has_piece(p, k))
    if length <= 0:
        return 0, Fraction(0)
    ratio = Fraction(0)
    for i, r in enumerate(p.relators):
        li = _search_max(1, min(length, len(r) - 1),
                         lambda k, i=i: _has_piece(p, k, relator=i))
        if li >= 1:
            ratio = max(ratio, Fraction(li, len(r)))
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
    ceil(lam * |r|) together with the relator it is too long for.  The
    (frozen) result is memoised per (presentation, lambda): the reduction
    driver and the Dehn guard ask again for every tuple.
    """
    lam = Fraction(lam)
    if lam <= 0:
        raise ValueError("lambda must be positive")
    num, den = lam.numerator, lam.denominator
    for i, r in enumerate(p.relators):
        L = len(r)
        k = -((-num * L) // den)  # smallest piece length violating strictness
        if k > L - 1:
            continue
        table = _windows(p, k)
        for wi, sign, _, doubled in _sides(p):
            if wi != i:
                continue
            for off in range(L):
                window = doubled[off:off + k]
                members = table.get(window, ())
                if any(mem != (i, sign, off) for mem in members):
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
            for i, sign, L, doubled in sides:
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

    Scans every relator, sign, rotation offset, and start vertex; the
    winner is the longest readable v (capped at |r|), ties resolved by
    relator index, then sign (+1 first), then offset, then vertex id.
    Returns None when no candidate beats its relator's bound.
    """
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
