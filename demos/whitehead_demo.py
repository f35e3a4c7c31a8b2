"""Whitehead minimization and automorphic equivalence of cyclic words.

Two cyclic words lie in the same Aut(F)-orbit exactly when a chain of
relabeling and multiplier moves links them.  Minimization descends to
the shortest orbit representative; same_orbit returns a replayable
certificate or None.
"""

import random

from relfold.whitehead import (
    Relabel,
    apply_move,
    minimize,
    multiplier_moves,
    same_orbit,
    verify_certificate,
)
from relfold.words import format_word, parse_word, random_cyclically_reduced


def main():
    for text in ["aab", "abAB", "aabbaa", "abaBab"]:
        w = parse_word(text)
        minimal, moves = minimize(w, 2)
        print(f"minimize({text}) -> {format_word(minimal)} "
              f"(length {len(minimal)}, {len(moves)} moves)")

    print("\nOrbit queries:")
    for u_text, v_text in [("a", "b"), ("abAB", "a"), ("aab", "b")]:
        cert = same_orbit(parse_word(u_text), parse_word(v_text), 2)
        if cert is None:
            print(f"  {u_text} ~ {v_text}: no")
        else:
            ok = verify_certificate(cert, 2)
            print(f"  {u_text} ~ {v_text}: yes — {len(cert.moves)} moves, "
                  f"replay {'ok' if ok else 'FAILED'}")

    print("\nRound trip through a random 5-move automorphism:")
    rng = random.Random(5)
    # the 8 signed permutations of a, b, each permutation with signs ++, +-, -+, --
    relabels = [Relabel((s * x, t * y)) for x, y in ((1, 2), (2, 1))
                for s in (1, -1) for t in (1, -1)]
    moves = relabels + list(multiplier_moves(2))
    r = random_cyclically_reduced(2, 20, rng)
    image = r
    for _ in range(5):
        image = apply_move(image, rng.choice(moves))
    print(f"  r        = {format_word(r)}")
    print(f"  alpha(r) = {format_word(image)}")
    cert = same_orbit(r, image, 2)
    print(f"  same_orbit found {len(cert.moves)} moves; "
          f"replay {'ok' if verify_certificate(cert, 2) else 'FAILED'}")


if __name__ == "__main__":
    main()
