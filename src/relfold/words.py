"""Words in a finitely generated free group.

A word is a tuple of nonzero integers: ``+i`` stands for the generator
``a_i`` and ``-i`` for its inverse.  The empty tuple is the identity.
Text form uses lowercase letters for generators and uppercase for their
inverses, so ``"aBa"`` is a * b^-1 * a; the empty word prints as ``"1"``.

A cyclic word is represented by the lexicographically least rotation of a
cyclically reduced word, under the letter order a < A < b < B < c < ...
The least rotation is found by Booth's algorithm in O(n) comparisons.

Counting and sampling of cyclically reduced words rest on
closed-form counting (Rivin) of words and their completions, so
sampling is exactly uniform -- there is no rejection step.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import eq, neg
from typing import Sequence

Word = tuple  # tuple of nonzero ints; +i = generator i, -i = its inverse


def letter_key(x: int) -> int:
    """Total order on signed letters: a < A < b < B < ...

    >>> sorted([1, -1, 2, -2], key=letter_key)
    [1, -1, 2, -2]
    """
    return 2 * (abs(x) - 1) + (0 if x > 0 else 1)


def key_letter(key: int) -> int:
    """The signed letter whose ``letter_key`` is ``key``: a, A, b, B, ... from 0."""
    return -(key // 2 + 1) if key % 2 else key // 2 + 1


def signed_letters(m: int) -> list[int]:
    """The 2m signed letters of rank m in the order a, A, b, B, ..."""
    return [s * k for k in range(1, m + 1) for s in (1, -1)]


def word_key(w: Sequence[int]) -> tuple:
    return tuple(letter_key(x) for x in w)


def free_reduce(letters: Sequence[int]) -> Word:
    """Freely reduce a letter sequence.

    >>> free_reduce((1, 2, -2, -1, 2))
    (2,)
    >>> free_reduce(())
    ()
    """
    out: list[int] = []
    for x in letters:
        if x == 0:
            raise ValueError("letters must be nonzero integers")
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def is_reduced(w: Sequence[int]) -> bool:
    return 0 not in w and not any(map(eq, w[1:], map(neg, w)))


def inverse(w: Sequence[int]) -> Word:
    """Inverse word: reverse and negate.

    >>> inverse((1, 2, -3))
    (3, -2, -1)
    """
    return tuple(map(neg, reversed(w)))


def concat(*ws: Sequence[int]) -> Word:
    """Concatenate words and freely reduce the result."""
    out: list[int] = []
    for w in ws:
        for x in w:
            if out and out[-1] == -x:
                out.pop()
            else:
                out.append(x)
    return tuple(out)


def join(u: Word, w: Word) -> Word:
    """``concat(u, w)`` for reduced tuples; only cancelling letters are read.

    >>> join((1, 2, 3), (-3, -2, 1))
    (1, 1)
    """
    k, n = 0, min(len(u), len(w))
    while k < n and u[~k] == -w[k]:
        k += 1
    return u[:len(u) - k] + w[k:]


def substitute_all(ws: Sequence[Sequence[int]],
                   images: Sequence[Sequence[int]]) -> list[Word]:
    """Evaluate each word of ``ws`` under letter k -> images[k-1], freely reduced.

    Negative letters map to the inverse image.  Symbol 0 raises
    ``ValueError`` and a symbol past the images ``IndexError``, at the
    first such symbol in word order, as if the words were evaluated one
    by one.  Each image is reduced and inverted once per call.  The
    output, which stays reduced, loses the longest tail that the next
    image's prefix cancels (found by bisection: a cancelling tail's
    suffixes cancel too) and takes the rest of the image in one piece.

    A word is read as a frame ``P·x·P⁻¹`` with ``P`` as long as possible
    (maybe empty), and the frame bodies ``P·x`` share their longest
    common prefix, which is evaluated once.  φ is a homomorphism, so
    φ(P·x·P⁻¹) = φ(P)·φ(x)·φ(P)⁻¹ for any letters, reduced or not:
    φ(P) is the output at |P|, and its inverse is pushed as one block.

    >>> substitute_all([(2, 1, -2), (2, -1, -2)], ((1, 2), (2, 2)))
    [(2, 2, 1, -2), (2, -1, -2, -2)]
    """
    ws = [tuple(w) for w in ws]
    if not ws:
        return []
    frames = []  # |P| of each word
    for w in ws:
        h, k = len(w) // 2, 0
        while k < h and w[k] == -w[~k]:
            k += 1
        frames.append(k)
    pairs: dict[int, tuple[list, list]] = {}  # symbol -> (image, inverse), reduced
    out: list[int] = []
    first = ws[0]
    if len(ws) == 1 and not frames[0]:  # nothing to share or mirror
        _push_images(out, first, images, pairs)
        return [tuple(out)]
    q = min(len(w) - k for w, k in zip(ws, frames))
    for w in ws[1:]:
        q = _longest(lambda n: w[:n] == first[:n], q)
    heads, at = {0: []}, 0  # |P| inside the common prefix -> φ(P)
    for k in sorted(set(frames)):
        if 0 < k <= q:
            _push_images(out, first[at:k], images, pairs)
            heads[k], at = out[:], k
    _push_images(out, first[at:q], images, pairs)
    results = []
    for w, k in zip(ws, frames):
        body = out[:]
        if k > q:
            _push_images(body, w[q:k], images, pairs)
        head = heads[k] if k <= q else body[:]
        _push_images(body, w[max(q, k):len(w) - k], images, pairs)
        if head:  # φ(P)⁻¹ cancels the longest common suffix of body and φ(P)
            n = len(head)
            c = _longest(lambda j: body[len(body) - j:] == head[n - j:], min(n, len(body)))
            del body[len(body) - c:]
            body.extend([-x for x in reversed(head[:n - c])])
        results.append(tuple(body))
    return results


def _longest(holds, hi: int) -> int:
    """The largest n <= hi with ``holds(n)``, by bisection; ``holds`` must
    be true at 0 and hold at every n below one where it holds."""
    lo = 0
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if holds(mid):
            lo = mid
        else:
            hi = mid - 1
    return lo


def _push_images(out: list, symbols: Sequence[int], images, pairs: dict) -> None:
    """Append the images of ``symbols`` to the reduced ``out``, cancelling."""
    for k in symbols:
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


def substitute(w: Sequence[int], images: Sequence[Sequence[int]]) -> Word:
    """Evaluate ``w`` under letter k -> images[k-1], freely reduced:
    ``substitute_all((w,), images)[0]``.

    >>> substitute((1, -2), ((1, 2), (3,)))
    (1, 2, -3)
    >>> substitute((2, 1, -2), ((1, 2), (2, 2)))  # φ(b)·φ(a)·φ(b)⁻¹
    (2, 2, 1, -2)
    """
    return substitute_all((w,), images)[0]


def cyclic_reduce(w: Sequence[int]) -> tuple[Word, Word]:
    """Cyclically reduce, returning ``(core, conjugator)``.

    The input must be freely reduced; then ``w = conjugator * core *
    conjugator^-1`` with ``core`` cyclically reduced.

    >>> cyclic_reduce((2, 1, -2))
    ((1,), (2,))
    """
    w = tuple(w)
    if not is_reduced(w):
        raise ValueError("input word is not freely reduced")
    i, j = 0, len(w)
    while j - i >= 2 and w[i] == -w[j - 1]:
        i += 1
        j -= 1
    return w[i:j], w[:i]


def is_cyclically_reduced(w: Sequence[int]) -> bool:
    if not is_reduced(w):
        return False
    return len(w) < 2 or w[0] != -w[-1]


def least_rotation_offset(keys: Sequence) -> int:
    """Offset of the least rotation of a nonempty sequence (Booth, 1980).

    One pass over ``keys + keys`` with a failure function, as in
    Knuth-Morris-Pratt, over the rotation that is least so far; O(n)
    comparisons in all.  For a periodic sequence the offset is the first
    of the equal least rotations.

    >>> least_rotation_offset([2, 0, 0])
    1
    """
    s = list(keys) * 2
    fail = [-1] * len(s)
    k = 0
    for j in range(1, len(s)):
        c = s[j]
        i = fail[j - k - 1]
        while i != -1 and c != s[k + i + 1]:
            if c < s[k + i + 1]:
                k = j - i - 1
            i = fail[i]
        if c != s[k + i + 1]:  # here i == -1
            if c < s[k]:
                k = j
            fail[j - k] = -1
        else:
            fail[j - k] = i + 1
    return k


def canonical_rotation(w: Sequence[int]) -> Word:
    """Least rotation of a cyclically reduced word under a < A < b < B < ...

    >>> canonical_rotation((2, 1, 1))
    (1, 1, 2)
    """
    w = tuple(w)
    if not is_cyclically_reduced(w):
        raise ValueError("canonical_rotation needs a cyclically reduced word")
    if not w:
        return w
    k = least_rotation_offset(word_key(w))
    return w[k:] + w[:k]


def power_decomposition(w: Sequence[int]) -> tuple[Word, int]:
    """Write a nonempty cyclically reduced word as ``root^k`` with ``k``
    maximal; the empty word raises ``ValueError``.

    For cyclically reduced words, being a proper power in the free group
    is the same as literal periodicity.  A period ``e`` dividing ``n =
    |w|`` is a multiple of the least period, so dividing ``e = n`` by each
    prime factor of ``n`` while the quotient is still a period ends at the
    least period: at most log2(n) slice comparisons.

    >>> power_decomposition((1, 2, 1, 2))
    ((1, 2), 2)
    >>> power_decomposition((1, -2) * 6)
    ((1, -2), 6)
    >>> power_decomposition(())
    Traceback (most recent call last):
    ...
    ValueError: power_decomposition needs a nonempty word
    """
    w = tuple(w)
    if not w:
        raise ValueError("power_decomposition needs a nonempty word")
    if not is_cyclically_reduced(w):
        raise ValueError("power_decomposition needs a cyclically reduced word")
    n = d = rest = len(w)
    p = 2
    while rest > 1:
        if p * p > rest:
            p = rest  # the last prime factor
        while rest % p == 0:
            rest //= p
            if w[d // p:] == w[:n - d // p]:
                d //= p
        p += 1
    return w[:d], n // d


def is_proper_power(w: Sequence[int]) -> bool:
    """Whether a cyclically reduced word equals u^k with k >= 2."""
    if not w:
        return False
    return power_decomposition(w)[1] >= 2


# ---------------------------------------------------------------------------
# Text form


@dataclass(frozen=True)
class Alphabet:
    """Generator alphabet a_1 .. a_m.  Text form needs m <= 26."""

    m: int

    def __post_init__(self):
        if self.m < 2:
            raise ValueError("alphabet rank must be at least 2")

    def check_word(self, w: Sequence[int]) -> Word:
        w = tuple(w)
        for x in w:
            if x == 0 or abs(x) > self.m:
                raise ValueError(f"letter index {x} out of range for rank {self.m}")
        return w


def parse_word(text: str, m: int | None = None) -> Word:
    """Parse text form into a word (without reducing it).

    >>> parse_word("aBa")
    (1, -2, 1)
    >>> parse_word("1")
    ()

    Anything but a string raises ``ValueError``.
    """
    if not isinstance(text, str):
        raise ValueError(f"bad word {text!r}: words are strings")
    text = text.strip()
    if text == "1" or text == "":
        return ()
    out = []
    for ch in text:
        if "a" <= ch <= "z":
            x = ord(ch) - ord("a") + 1
        elif "A" <= ch <= "Z":
            x = -(ord(ch) - ord("A") + 1)
        else:
            raise ValueError(f"bad character {ch!r} in word {text!r}")
        if m is not None and abs(x) > m:
            raise ValueError(f"letter {ch!r} out of range for rank {m}")
        out.append(x)
    return tuple(out)


_LETTER_TEXT = {s * k: chr(ord("a" if s > 0 else "A") + k - 1)
                for k in range(1, 27) for s in (1, -1)}


def format_word(w: Sequence[int]) -> str:
    """Inverse of parse_word; the empty word prints as "1".

    >>> format_word((1, -2, 1))
    'aBa'
    """
    if not w:
        return "1"
    try:
        return "".join(map(_LETTER_TEXT.__getitem__, w))
    except KeyError as exc:
        raise ValueError(f"letter {exc.args[0]} has no text form") from None


# ---------------------------------------------------------------------------
# Counting and exact uniform sampling

def count_cyclically_reduced(m: int, t: int) -> int:
    """Number of cyclically reduced words of length exactly t over rank m.

    Rivin's closed form (2m-1)^t + 1 + (m-1)(1 + (-1)^t) for t >= 1
    (I. Rivin, "Growth in free groups (and other stories)",
    arXiv:math/9911076).

    >>> count_cyclically_reduced(2, 2)
    12
    """
    if m < 1:
        raise ValueError("rank must be positive")
    if t < 0:
        raise ValueError("length must be nonnegative")
    if t == 0:
        return 1
    return (2 * m - 1) ** t + 1 + (m - 1) * (1 + (-1) ** t)


def random_cyclically_reduced(m: int, t: int, rng: random.Random) -> Word:
    """Exactly uniform cyclically reduced word of length t.

    Letters are drawn left to right, each with probability proportional
    to the number of ways to finish the word; all 2m first letters have
    equal counts.  With q = 2m - 1 the transfer matrix of reduced words is
    A = J - P, where J is all ones and P swaps each letter with its
    inverse, so A^k = (-1)^k P^k + J (q^k - (-1)^k) / 2m.  Of the q^k
    reduced continuations of a letter z that k more letters follow,
    (q^k - (-1)^k) / 2m end in the inverse of the first letter, plus
    (-1)^k more when z = P^k(-first).  So z finishes the word in
    (q^(k+1) + (-1)^k) / 2m ways, less (-1)^k when z = P^k(-first).  The
    count of each letter drawn is the total that the next draw divides.

    All allowed letters but the twisted one have the same count, so a
    draw's place among them in key order follows by division, in O(1) at
    any rank.  At m = 1 that count is 0 at odd k.
    """
    if t < 1:
        raise ValueError("length must be at least 1")
    n = count_cyclically_reduced(m, t)
    total = n // (2 * m)
    keys = [rng.randrange(n) // total]
    f = keys[0]  # the first letter's key; f ^ 1 is its inverse's
    q = 2 * m - 1
    base = (q ** t - (-1) ** t) // (2 * m)  # base(t - 1)
    for k in range(t - 2, 0, -1):
        sign = -1 if k % 2 else 1
        base = (base + sign) // q  # q * base(k) = base(k + 1) + (-1)^k
        twisted = f if k % 2 else f ^ 1  # P^k(-first)
        back = keys[-1] ^ 1
        x = rng.randrange(total)
        jt = twisted - (back < twisted)  # the twisted key's place
        if twisted == back or x < jt * base:
            j = x // base
        elif x < (jt + 1) * base - sign:
            j = jt
        else:
            j = (x + sign) // base
        keys.append(j + (j >= back))
        total = base - sign if keys[-1] == twisted else base
    if t > 1:  # k = 0: base(0) = 1, and the twisted -first is skipped
        j = rng.randrange(total)
        for skipped in sorted({keys[-1] ^ 1, f ^ 1}):
            j += j >= skipped
        keys.append(j)
    w = tuple(map(key_letter, keys))
    if not is_cyclically_reduced(w):
        raise RuntimeError("sampled word is not cyclically reduced")
    return w


def random_cyclically_reduced_up_to(m: int, t: int, rng: random.Random) -> Word:
    """Uniform over all nonempty cyclically reduced words of length <= t."""
    counts = [count_cyclically_reduced(m, k) for k in range(1, t + 1)]
    x = rng.randrange(sum(counts))
    for k, c in enumerate(counts, start=1):
        if x < c:
            return random_cyclically_reduced(m, k, rng)
        x -= c
    raise AssertionError("unreachable")
