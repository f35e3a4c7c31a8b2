"""Seeded input generators for the four workloads.

The generators use only :mod:`oracle` and :mod:`random`, so an input
depends on its seed and never on the library under test; each known
answer follows from how the input was built.
"""

from __future__ import annotations

import hashlib
import random

import oracle

CONJUGATOR_LENGTH = 6
ORBIT_MOVES = 5
# (rank, relator length) of the membership pool's three clusters, and the
# number of relators the pool holds for each.
MEMBERSHIP_SIZES = ((2, 1000), (2, 2000), (3, 1000))
POOL_SIZE = 100


def random_reduced(m: int, n: int, rng: random.Random) -> tuple:
    out: list[int] = []
    for _ in range(n):
        banned = -out[-1] if out else 0
        x = banned
        while x == banned:
            x = rng.choice((1, -1)) * rng.randint(1, m)
        out.append(x)
    return tuple(out)


def random_cyclic(m: int, n: int, rng: random.Random) -> tuple:
    """A random cyclically reduced word of length exactly ``n``."""
    while True:
        w = random_reduced(m, n, rng)
        if n < 2 or w[0] != -w[-1]:
            return w


def relator_digest(r) -> str:
    return hashlib.sha256(oracle.fmt(r).encode()).hexdigest()[:16]


def stratum_midpoints(lo: int, hi: int, count: int) -> list[int]:
    """Midpoints of ``count`` equal strata of [lo, hi): every run sees the
    same sizes, and the seed varies only the words."""
    width = (hi - lo) / count
    return [int(lo + width * (k + 0.5)) for k in range(count)]


def spread_order(count: int) -> list[int]:
    """A visiting order of ``range(count)`` whose every prefix is spread
    over the whole range (golden-ratio sequence), so a run that stops
    mid-pass still saw small and large inputs alike."""
    phi = (5 ** 0.5 - 1) / 2
    keys = [(k * phi) % 1.0 for k in range(count)]
    return sorted(range(count), key=lambda k: keys[k])


# ---------------------------------------------------------------------------
# reduce-scrambled


def scrambled_tuple(m: int, target: int, rng: random.Random) -> tuple:
    """Standard basis, random elementary Nielsen moves, then a conjugation,
    grown until the total length reaches ``target``.  It is a basis of the
    free group, so it generates the whole presented group.  A move that
    would overshoot the target by more than a tenth is skipped, so the
    sizes a run sees do not depend on the seed."""
    conj = random_reduced(m, CONJUGATOR_LENGTH, rng)

    def conjugated(entries):
        return tuple(oracle.reduce(conj + w + oracle.inverse(conj)) for w in entries)

    entries = [(k,) for k in range(1, m + 1)]
    while sum(len(w) for w in conjugated(entries)) < target:
        i, j = rng.sample(range(m), 2)
        other = entries[j] if rng.random() < 0.5 else oracle.inverse(entries[j])
        pair = (entries[i], other) if rng.random() < 0.5 else (other, entries[i])
        trial = entries[:i] + [oracle.reduce(pair[0] + pair[1])] + entries[i + 1:]
        if sum(len(w) for w in conjugated(trial)) <= 1.1 * target:
            entries = trial
    return conjugated(entries)


# ---------------------------------------------------------------------------
# orbit


def isomorphic_partner(r, m: int, rng: random.Random) -> tuple:
    """``r`` after ``ORBIT_MOVES`` random Whitehead moves.  Move sequences
    are drawn until the image is 1.3 to 1.7 times as long as ``r``: the
    cost of minimizing it grows quickly with its length, and a fixed band
    keeps the cost of a run from depending on the seed."""
    moves = oracle.all_moves(m)
    while True:
        x = oracle.cyclic_form(r)
        for _ in range(ORBIT_MOVES):
            x = oracle.apply_move(x, rng.choice(moves), m)
        if 1.3 * len(r) <= len(x) <= 1.7 * len(r):
            return x


def independent_pair(m: int, n: int, rng: random.Random) -> tuple:
    """Two words of length ``n`` with equal minimal orbit length and
    different exponent-sum gcds.  The gcd is an Aut(F)-invariant, so no
    automorphism carries one word to the other or its inverse; the equal
    minimal lengths keep the search from stopping at comparing lengths,
    so it walks the first word's whole minimal level set.  Words are
    drawn until two of them match, which takes a handful of draws."""
    seen: dict[int, list] = {}
    while True:
        w = random_cyclic(m, n, rng)
        g = oracle.exponent_gcd(w, m)
        bucket = seen.setdefault(oracle.minimal_length(w, m), [])
        for other, other_g in bucket:
            if other_g != g:
                return other, w
        bucket.append((w, g))


# ---------------------------------------------------------------------------
# membership


def pool_relator(m: int, t: int, index: int) -> tuple:
    """Relator ``index`` of the fixed membership pool for (m, t)."""
    return random_cyclic(m, t, random.Random(f"membership-pool/{m}/{t}/{index}"))
