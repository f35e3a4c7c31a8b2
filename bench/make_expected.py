"""Write membership_expected.json: the committed verdicts of the pool.

    python3 bench/make_expected.py

Runs ``check_membership`` (default parameters, the benchmark's node
budget) on every relator of the fixed membership pool and records its
verdict and failed condition, with a digest of the relator so a change
in the pool generator is caught.  The committed file holds the verdicts
of the code as it stood when the benchmark was defined; regenerate it
only when a change of verdict is intended.
"""

import json
import sys
from pathlib import Path

sys.dont_write_bytecode = True

import inputs  # noqa: E402
import run  # noqa: E402


def main() -> None:
    rf = run.import_relfold()
    genericity, smallcancel = rf.genericity, rf.smallcancel
    table = {}
    for m, t in inputs.MEMBERSHIP_SIZES:
        rows = []
        for index in range(inputs.POOL_SIZE):
            r = inputs.pool_relator(m, t, index)
            p = smallcancel.Presentation(rf.words.Alphabet(m), (r,))
            report = genericity.check_membership(p, genericity.default_params(m), run.NODE_BUDGET)
            rows.append({"relator": inputs.relator_digest(r), "verdict": report.verdict,
                         "failed_condition": report.failed_condition})
        table[f"m{m}-t{t}"] = rows
    path = Path(__file__).resolve().parent / "membership_expected.json"
    path.write_text(json.dumps(table, indent=1) + "\n")


if __name__ == "__main__":
    main()
