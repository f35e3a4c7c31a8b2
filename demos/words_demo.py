"""Counting and sampling cyclically reduced words.

Walks through the word kernel: exact counts from Rivin's closed form,
agreement with brute-force enumeration at small lengths, and a histogram
check that the sampler is uniform rather than approximately uniform.
"""

import random
from collections import Counter
from itertools import product

from relfold.words import (
    count_cyclically_reduced,
    format_word,
    is_cyclically_reduced,
    random_cyclically_reduced,
    signed_letters,
)


def main():
    print("Exact counts of cyclically reduced words, rank 2:")
    for t in range(1, 11):
        print(f"  length {t:2}: {count_cyclically_reduced(2, t)}")

    print("\nCross-check against enumeration (lengths 1..6):")
    for t in range(1, 7):
        brute = sum(1 for w in product(signed_letters(2), repeat=t)
                    if is_cyclically_reduced(w))
        counted = count_cyclically_reduced(2, t)
        marker = "ok" if brute == counted else "MISMATCH"
        print(f"  length {t}: enumerated {brute}, counted {counted}  [{marker}]")

    rng = random.Random(7)
    draws = Counter(random_cyclically_reduced(2, 3, rng) for _ in range(60_000))
    print(f"\n60000 draws at length 3 over {len(draws)} distinct words;")
    lo, hi = min(draws.values()), max(draws.values())
    expected = 60_000 / count_cyclically_reduced(2, 3)
    print(f"  cell counts range {lo}..{hi} around the uniform mean {expected:.0f}")

    print("\nA few samples at length 30:")
    for _ in range(3):
        print(" ", format_word(random_cyclically_reduced(2, 30, rng)))


if __name__ == "__main__":
    main()
