"""How often do random presentations satisfy the class conditions?

The class asks for three things: small cancellation C'(lambda), no
proper-power relators, and no half-relator subword readable in a small
graph.  The first two become near-certain as relators grow; the third is
exhaustively checkable only for short relators, so the sampler runs it
under a node budget and reports what it could not settle.
"""

from relfold.codec import membership_report_jsonable, sample_table_csv
from relfold.genericity import check_membership, default_params, sample_genericity
from relfold.smallcancel import Presentation
from relfold.words import Alphabet, parse_word

import json


def main():
    params = default_params(2)
    print(f"Default parameters at rank 2: lambda={params.lam}, "
          f"mu={params.mu}, L={params.L}")

    print("\nMembership of two short presentations:")
    for text in ["aabb", "abab"]:
        p = Presentation(Alphabet(2), (parse_word(text),))
        report = check_membership(p, params)
        print(f"  {text}: {report.verdict} "
              f"(failed {report.failed_condition})")

    p = Presentation(Alphabet(2), (parse_word("aabb"),))
    print("\nFull report for aabb as JSON:")
    print(json.dumps(membership_report_jsonable(check_membership(p, params)),
                     sort_keys=True, indent=2))

    print("\nSampled pass rates for conditions 1 and 2 (100 per length):")
    table = sample_genericity(2, 1, [100, 250, 500, 1000], 100, params,
                              node_budget=0, seed=424242)
    print(sample_table_csv(table), end="")
    print("\nColumns pass_c1/pass_c2 are cumulative: pass_c2 counts samples "
          "passing both.\nThe unknown column tallies budget-exhausted runs "
          "(condition 3 is not decidable\nat these lengths on a desk budget).")


if __name__ == "__main__":
    main()
