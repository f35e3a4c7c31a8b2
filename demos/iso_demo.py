"""Deciding isomorphism of one-relator presentations.

For presentations in the class, isomorphism reduces to whether the
relators lie in the same automorphism orbit.  The decision procedure
gates on class membership (or an explicit assumption) and returns
Isomorphic with a replayable certificate, NotIsomorphic, or
Inapplicable when membership cannot be certified.
"""

import random

from relfold.genericity import default_params
from relfold.iso import decide_isomorphic
from relfold.smallcancel import Presentation
from relfold.whitehead import (
    Relabel,
    apply_move,
    multiplier_moves,
    verify_certificate,
)
from relfold.words import Alphabet, format_word, parse_word, random_cyclically_reduced

A2 = Alphabet(2)


def one_relator(r):
    return Presentation(A2, (r,))


def main():
    params = default_params(2)
    rng = random.Random(11)
    # the 8 signed permutations of a, b, each permutation with signs ++, +-, -+, --
    relabels = [Relabel((s * x, t * y)) for x, y in ((1, 2), (2, 1))
                for s in (1, -1) for t in (1, -1)]
    moves = relabels + list(multiplier_moves(2))

    r = random_cyclically_reduced(2, 40, rng)
    image = r
    for _ in range(5):
        image = apply_move(image, rng.choice(moves))
    print(f"r        = {format_word(r)}")
    print(f"alpha(r) = {format_word(image)}")

    v = decide_isomorphic(one_relator(r), one_relator(image), params,
                          assume_in_class=True)
    print(f"verdict: {v.kind} (conditional={v.conditional}); certificate "
          f"replay {'ok' if verify_certificate(v.certificate, 2) else 'FAILED'}")

    s = random_cyclically_reduced(2, 40, rng)
    v = decide_isomorphic(one_relator(r), one_relator(s), params,
                          assume_in_class=True)
    print(f"\nindependent relator of equal length: {v.kind}"
          + (f" — {v.reason}" if v.reason else ""))

    p1 = one_relator(parse_word("aabb"))
    p2 = one_relator(parse_word("abab"))
    v = decide_isomorphic(p1, p2, params)
    print(f"\nwithout the assumption, short relators gate out: {v.kind} — {v.reason}")


if __name__ == "__main__":
    main()
