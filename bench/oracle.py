"""Free-group arithmetic written for the benchmark, independent of relfold.

Every correctness check in the benchmark goes through this module, never
through the library function whose answer it checks.  Words are tuples
of nonzero ints (``+i`` is generator ``i``, ``-i`` its inverse); text form
uses ``a``..``z`` for generators and capitals for inverses.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations, product
from math import gcd


def reduce(letters) -> tuple:
    out: list[int] = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def inverse(w) -> tuple:
    return tuple(-x for x in reversed(w))


def parse(text: str) -> tuple:
    if text == "1":
        return ()
    return tuple(
        ord(c) - 96 if c.islower() else -(ord(c) - 64) for c in text
    )


def fmt(w) -> str:
    if not w:
        return "1"
    return "".join(chr(96 + x) if x > 0 else chr(64 - x) for x in w)


def _order_text(w) -> str:
    # One character per letter, ordered a < A < b < B < ...
    return "".join(chr(48 + 2 * abs(x) + (x < 0)) for x in w)


def cyclic_core(w) -> tuple:
    w = reduce(w)
    i, j = 0, len(w)
    while j - i >= 2 and w[i] == -w[j - 1]:
        i += 1
        j -= 1
    return w[i:j]


def cyclic_form(w) -> tuple:
    """Least rotation of the cyclic core: the cyclic word's normal form."""
    core = cyclic_core(w)
    if not core:
        return core
    text = _order_text(core)
    n = len(core)
    k = min(range(n), key=lambda o: text[o:] + text[:o])
    return core[k:] + core[:k]


def substitute(w, images) -> tuple:
    """Image of ``w`` under letter ``k`` -> ``images[k]``, freely reduced."""
    out: list[int] = []
    for k in w:
        img = images[k] if k > 0 else inverse(images[-k])
        for x in img:
            if out and out[-1] == -x:
                out.pop()
            else:
                out.append(x)
    return tuple(out)


def power_root(w) -> tuple[tuple, int]:
    """``(root, e)`` with ``w == root * e`` literally and ``e`` maximal."""
    n = len(w)
    for d in range(1, n + 1):
        if n % d == 0 and w[:d] * (n // d) == w:
            return w[:d], n // d
    return w, 1


def exponent_gcd(w, m: int) -> int:
    """gcd of the exponent sums: invariant under Aut(F_m) and inversion."""
    sums = [0] * (m + 1)
    for x in w:
        sums[abs(x)] += 1 if x > 0 else -1
    g = 0
    for s in sums:
        g = gcd(g, s)
    return g


# ---------------------------------------------------------------------------
# Whitehead moves, in the JSON shape relfold certificates use


def move_images(move: dict, m: int) -> dict:
    """Generator images of a Whitehead move given as a certificate dict."""
    if move["kind"] == "relabel":
        return {k: (img,) for k, img in enumerate(move["images"], start=1)}
    if move["kind"] != "multiplier":
        raise ValueError(f"unknown move kind {move['kind']!r}")
    a, cut = move["letter"], set(move["cut"])
    images = {}
    for k in range(1, m + 1):
        if k == abs(a):
            images[k] = (k,)
        else:
            images[k] = ((-a,) if -k in cut else ()) + (k,) + ((a,) if k in cut else ())
    return images


def apply_move(w, move: dict, m: int) -> tuple:
    return cyclic_form(substitute(w, move_images(move, m)))


def all_moves(m: int) -> list[dict]:
    """Every relabel and multiplier move of rank ``m``, as dicts."""
    moves = [
        {"kind": "relabel", "images": [s * g for s, g in zip(signs, perm)]}
        for perm in permutations(range(1, m + 1))
        for signs in product((1, -1), repeat=m)
    ]
    for a in (s * k for k in range(1, m + 1) for s in (1, -1)):
        others = [g for g in range(1, m + 1) if g != abs(a)]
        for sides in product(((), (1,), (-1,), (1, -1)), repeat=len(others)):
            cut = [a] + [s * g for g, side in zip(others, sides) for s in side]
            moves.append({"kind": "multiplier", "letter": a, "cut": cut})
    return moves


def minimal_length(w, m: int) -> int:
    """Length of the shortest word in the Aut(F)-orbit of the cyclic word
    ``w``.  By Whitehead's peak reduction, a cyclic word that no single
    Whitehead move shortens already has the minimal length."""
    x, moves = cyclic_form(w), all_moves(m)
    shorter = True
    while shorter:
        shorter = False
        for move in moves:
            y = apply_move(x, move, m)
            if len(y) < len(x):
                x, shorter = y, True
    return len(x)


def check_orbit_certificate(cert: dict, u, v, m: int) -> str | None:
    """Replay an orbit certificate carrying ``u`` to ``v`` (or ``v^-1``)."""
    source, target = parse(cert["source"]), parse(cert["target"])
    if cyclic_form(source) != cyclic_form(u):
        return "certificate source is not the first relator"
    if cyclic_form(target) != cyclic_form(v):
        return "certificate target is not the second relator"
    x = cyclic_form(source)
    for move in cert["moves"]:
        x = apply_move(x, move, m)
    expected = cyclic_form(inverse(target) if cert["inverted"] else target)
    if x != expected:
        return "certificate moves do not carry source to target"
    return None


# ---------------------------------------------------------------------------
# Word problem and trace replay


class Dehn:
    """Dehn's algorithm for a C'(1/6) presentation: ``w == 1`` in the group
    exactly when repeatedly replacing more than half of a relator rotation
    by the inverse of the rest ends at the empty word."""

    def __init__(self, relators):
        self.sides = []
        for r in relators:
            for side in (tuple(r), inverse(r)):
                self.sides.append((len(side), side + side, _order_text(side + side)))

    def is_trivial(self, w) -> bool:
        w = reduce(w)
        while w:
            text = _order_text(w)
            hit = None
            for pos in range(len(w)):
                for size, doubled, dtext in self.sides:
                    need = size // 2 + 1
                    if pos + need > len(w):
                        continue
                    j = dtext.find(text[pos:pos + need])
                    if 0 <= j < size:
                        hit = (pos, need, j, size, doubled, dtext)
                        break
                if hit:
                    break
            if hit is None:
                return False
            pos, ext, j, size, doubled, dtext = hit
            while ext < size and pos + ext < len(w) and text[pos + ext] == dtext[j + ext]:
                ext += 1
            rest = doubled[j + ext:j + size]
            w = reduce(w[:pos] + inverse(rest) + w[pos + ext:])
        return True

    def equal(self, u, v) -> bool:
        diff = reduce(tuple(u) + inverse(v))
        return not diff or self.is_trivial(diff)


def check_trace(doc: dict, tpl, m: int, dehn: Dehn) -> str | None:
    """Replay a serialized Nielsen trace from the input tuple to the basis.

    Each step ties the previous basis to its snapshot by two-way words
    over the basis slots, conjugated by the step's relocation word; the
    relation is checked in the presented group by :class:`Dehn`.
    """
    initial = [parse(s) for s in doc["initial_tuple"]]
    if initial != [reduce(w) for w in tpl]:
        return "trace does not start at the input tuple"
    arrangement = doc["initial_arrangement"]
    if sorted(abs(k) for k in arrangement) != list(range(1, m + 1)):
        return "initial arrangement is not a signed permutation"
    current = [initial[k - 1] if k > 0 else inverse(initial[-k - 1]) for k in arrangement]
    accumulated: tuple = ()
    for step in doc["steps"]:
        snapshot = [parse(s) for s in step["snapshot"]]
        conj = parse(step["conjugator"])
        pre = {k: w for k, w in enumerate(current, start=1)}
        post = {k: w for k, w in enumerate(snapshot, start=1)}
        if len(step["post_in_pre"]) != len(snapshot) or len(step["pre_in_post"]) != len(current):
            return "trace step has the wrong number of basis words"
        for j, u in enumerate(step["post_in_pre"]):
            rhs = reduce(inverse(conj) + substitute(u, pre) + conj)
            if not dehn.equal(snapshot[j], rhs):
                return f"{step['kind']} step: new basis not expressed by old"
        for i, u in enumerate(step["pre_in_post"]):
            rhs = reduce(conj + substitute(u, post) + inverse(conj))
            if not dehn.equal(current[i], rhs):
                return f"{step['kind']} step: old basis not expressed by new"
        accumulated = reduce(accumulated + conj)
        current = snapshot
    if [parse(s) for s in doc["final_tuple"]] != current:
        return "final tuple differs from the last snapshot"
    if current != [(k,) for k in range(1, m + 1)]:
        return "trace does not end at the standard basis"
    if reduce(parse(doc["conjugator"])) != accumulated:
        return "stored conjugator differs from the accumulated one"
    return None


# ---------------------------------------------------------------------------
# Membership violations


def check_c1_piece(piece_text: str, relators, index: int, lam: Fraction) -> str | None:
    """A C1 violation: the piece is too long and starts two family members."""
    piece, r = parse(piece_text), relators[index]
    if len(piece) < lam * len(r):
        return "reported piece is shorter than the C' bound"
    k = len(piece)
    text = _order_text(piece)
    starts = 0
    for rel in relators:
        for side in (tuple(rel), inverse(rel)):
            if len(side) <= k:
                continue
            doubled = _order_text(side + side)
            starts += sum(doubled.startswith(text, off) for off in range(len(side)))
    if starts < 2:
        return "reported piece does not start two family members"
    return None


def check_c2_power(root_text: str, exponent: int, r) -> str | None:
    if exponent < 2 or parse(root_text) * exponent != tuple(r):
        return "reported root does not power to the relator"
    return None
