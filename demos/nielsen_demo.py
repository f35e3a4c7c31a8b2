"""Reducing a generating tuple with a certified move trace.

Given a class presentation and an m-tuple of words, the driver folds the
tuple's wedge graph, strips hanging trees, relocates the basepoint, and
surgically removes long relator windows until the graph is a bouquet
(tuple generates the whole group), the graph certifies freeness, or a
class violation is witnessed.  Every run yields a replayable trace.
"""

import json
import random

from relfold.codec import trace_jsonable
from relfold.genericity import default_params
from relfold.nielsen import reduce_tuple, verify_trace
from relfold.smallcancel import Presentation, check_Cprime
from relfold.words import (
    Alphabet,
    concat,
    format_word,
    free_reduce,
    inverse,
    is_proper_power,
    random_cyclically_reduced,
)


def main():
    params = default_params(2)
    rng = random.Random(20250818)
    while True:
        r = random_cyclically_reduced(2, 1000, rng)
        if is_proper_power(r):
            continue
        p = Presentation(Alphabet(2), (r,))
        if check_Cprime(p, params.lam).ok:
            break
    print(f"Sampled a rank-2 presentation with |r| = {len(r)} passing "
          f"C'({params.lam}).")

    # a deliberately tangled basis: relator-laden entry plus a conjugate
    u = free_reduce(concat(r, (1,)))
    v = free_reduce(concat((2,), (2,), inverse((2,))))
    tpl = (u, v)
    print(f"\nTuple entry lengths: {len(u)}, {len(v)}")

    verdict = reduce_tuple(tpl, p, params)
    print(f"verdict: {verdict.kind}")
    trace = verdict.trace
    kinds = [rec.kind for rec, _ in trace.steps]
    moves = sum(rec.detail["moves"] for rec, _ in trace.steps)
    print(f"records: {len(kinds)} ("
          + ", ".join(f"{k}x{kinds.count(k)}" for k in sorted(set(kinds)))
          + f"; one per fold phase, strip phase, hop or surgery) for {moves} moves")
    print(f"final tuple: {[format_word(w) for w in trace.final_tuple]}")
    print(f"replay: {'ok' if verify_trace(trace, p) else 'FAILED'}")

    doc = trace_jsonable(trace)
    print(f"\nSerialized trace: {len(json.dumps(doc))} bytes of JSON, "
          f"{len(doc['steps'])} steps")

    w_free = ((1, 2), (2, 1))
    verdict = reduce_tuple(w_free, p, params)
    print(f"\nThe tuple (ab, ba) instead certifies: {verdict.kind} "
          f"(rank {verdict.rank}) — {verdict.reason}")


if __name__ == "__main__":
    main()
