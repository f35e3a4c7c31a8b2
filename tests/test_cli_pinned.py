"""Byte-for-byte pins of the CLI: one run per command, output mode and
verdict kind.

``cli_pinned.json`` holds, per case, the argv, the input files the run
reads, and what the run gave: its exit code, its stdout and every file it
wrote.  Each case runs in a fresh working directory that holds only its
inputs, so the set of written files is pinned too (a CertifiedFree
``reduce --trace`` writes none).  The file also pins the ``reduce --json``
payload of a condition-(3) witness, which no small CLI input reaches.
Regenerate it only on purpose, with :func:`pinned_text`.
"""

import io
import json
import os
import pathlib
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest

from relfold import cli, codec, nielsen
from relfold.fgraph import FGraph
from relfold.genericity import default_params
from relfold.smallcancel import Presentation, check_Cprime, find_long_relator_path
from relfold.words import (
    Alphabet,
    format_word,
    is_proper_power,
    parse_word,
    random_cyclically_reduced,
)

PINNED = pathlib.Path(__file__).with_name("cli_pinned.json")
SMOOTH = ["--lambda", "1/33", "--mu", "1"]


def run_case(work: pathlib.Path, argv, inputs) -> dict:
    """Run ``relfold argv`` in ``work`` holding only ``inputs``; return the
    exit code, stdout and the files the run wrote."""
    for name, text in inputs.items():
        (work / name).write_text(text, encoding="utf-8")
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(work)
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        os.chdir(cwd)
    written = {
        path.name: path.read_text(encoding="utf-8")
        for path in sorted(work.iterdir())
        if path.name not in inputs
    }
    return {"exit": code, "stdout": out.getvalue(), "outputs": written}


def c3_payload_text() -> str:
    """``reduce --json`` bytes for the witness of ``TestWitness.wound_cycle``:
    a three-edge cycle reading ``aab`` eight times round."""
    g = FGraph.from_edges([(0, 1, 1), (1, 2, 1), (2, 0, 2)], base=0)
    p = Presentation(Alphabet(2), (tuple(parse_word("aab") * 8),))
    params = default_params(2)
    witness = nielsen._fire_or_witness(g, find_long_relator_path(g, p, params.lam), p, params)
    verdict = nielsen.ReductionVerdict(nielsen.NOT_IN_CLASS, condition="C3", witness=witness)
    return codec.dump(codec.reduction_jsonable(verdict))


# ---------------------------------------------------------------------------
# Recording


def _relator(seed: int, length: int, lam: Fraction) -> str:
    rng = random.Random(seed)
    while True:
        r = random_cyclically_reduced(2, length, rng)
        if not is_proper_power(r) and check_Cprime(Presentation(Alphabet(2), (r,)), lam):
            return format_word(r)


def _pres(*relators: str) -> str:
    return "rank: 2\nrelators:\n" + "".join(r + "\n" for r in relators)


def _cases():
    """(name, argv, inputs) per case; ``verify`` reads the trace that the
    first ``reduce/WholeGroup`` case wrote, and a copy with a wrong
    conjugator, which :func:`pinned_text` fills in."""
    smooth = _relator(4242, 300, Fraction(1, 33))
    in_class = _relator(7, 1000, Fraction(1, 63))
    p = {"p.txt": _pres(smooth)}
    for mode, flags in (("text", []), ("json", ["--json"])):
        yield f"check/C1/{mode}", ["check", "p.txt", *flags], {"p.txt": _pres("abAB")}
        yield f"check/C2/{mode}", ["check", "p.txt", *flags], {"p.txt": _pres("abab")}
        yield f"check/C3/{mode}", ["check", "p.txt", *SMOOTH, *flags], p
        yield (f"check/Undetermined/{mode}", ["check", "p.txt", "--budget", "5", *flags],
               {"p.txt": _pres(in_class)})
        yield (f"reduce/WholeGroup/{mode}",
               ["reduce", "p.txt", "Ba", "b", *SMOOTH, "--trace", "t.json", *flags], p)
        yield (f"reduce/WholeGroup-surgery/{mode}",
               ["reduce", "p.txt", smooth + "a", "b", *SMOOTH, "--trace", "t.json", *flags], p)
        yield (f"reduce/CertifiedFree/{mode}",
               ["reduce", "p.txt", "ab", "ba", *SMOOTH, "--trace", "t.json", *flags], p)
        yield f"reduce/C1/{mode}", ["reduce", "p.txt", "a", "b", *flags], {"p.txt": _pres("abAB")}
        yield f"reduce/C2/{mode}", ["reduce", "p.txt", "a", "b", *flags], {"p.txt": _pres("abab")}
        yield f"verify/valid/{mode}", ["verify", "p.txt", "t.json", *flags], p
        yield f"verify/invalid/{mode}", ["verify", "p.txt", "bad.json", *flags], p
        rotated = smooth[7:] + smooth[:7]
        yield (f"iso/Isomorphic/{mode}",
               ["iso", "p.txt", "q.txt", "--assume-in-class", *SMOOTH, *flags],
               {"p.txt": _pres(smooth), "q.txt": _pres(rotated)})
        yield (f"iso/NotIsomorphic/{mode}", ["iso", "p.txt", "q.txt", "--assume-in-class", *flags],
               {"p.txt": _pres("aab"), "q.txt": _pres("abAB")})
        yield (f"iso/Inapplicable/{mode}", ["iso", "p.txt", "q.txt", *flags],
               {"p.txt": _pres("aabb"), "q.txt": _pres("abab")})
        yield (f"readable/Readable/{mode}", ["readable", "abAB", "--mu", "1", *flags], {})
        yield (f"readable/NotReadable/{mode}", ["readable", "abAB", "--mu", "1/4", *flags], {})
        yield (f"readable/Unknown/{mode}",
               ["readable", "abABaabbABab", "--mu", "1/3", "--budget", "2", *flags], {})
        yield f"whitehead-min/{mode}", ["whitehead-min", "abaBBAbbaab", *flags], {}
        yield f"orbit/equivalent/{mode}", ["orbit", "abaBBAbbaab", "bbbAABaabA", *flags], {}
        yield f"orbit/not-equivalent/{mode}", ["orbit", "a", "aBAb", *flags], {}
    sample = ["sample", "--m", "2", "--t", "60,1000", "--samples", "2", "--seed", "1",
              "--budget", "0"]
    yield "sample/csv", sample, {}
    yield "sample/csv-file", [*sample, "--csv", "out.csv"], {}
    yield "sample/json", [*sample, "--json"], {}
    yield "sample/json-and-csv-file", [*sample, "--json", "--csv", "out.csv"], {}
    yield ("sample/json-decay", ["sample", "--m", "2", "--t", "100,300,1000", "--samples", "3",
                                 "--seed", "1", *SMOOTH, "--budget", "50", "--json"], {})


def pinned_text(tmp_root: pathlib.Path) -> str:
    """The contents of ``cli_pinned.json``, from fresh runs under ``tmp_root``."""
    traces = {}
    runs = []
    for k, (name, argv, inputs) in enumerate(_cases()):
        inputs = dict(inputs)
        if name.startswith("verify/"):
            inputs.update(traces)
        work = tmp_root / str(k)
        work.mkdir()
        result = run_case(work, argv, inputs)
        if name.startswith("reduce/WholeGroup/") and not traces:
            good = result["outputs"]["t.json"]
            bad = json.loads(good)
            bad["conjugator"] = "ab"
            traces = {"t.json": good, "bad.json": json.dumps(bad)}
        runs.append({"name": name, "argv": argv, "inputs": inputs, **result})
    doc = {"runs": runs, "reduce_c3_payload": c3_payload_text()}
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Tests

RECORDED = json.loads(PINNED.read_text(encoding="utf-8"))


@pytest.mark.parametrize("run", RECORDED["runs"], ids=[r["name"] for r in RECORDED["runs"]])
def test_cli_run_matches_recording(tmp_path, run):
    assert run_case(tmp_path, run["argv"], run["inputs"]) == {
        "exit": run["exit"], "stdout": run["stdout"], "outputs": run["outputs"],
    }


def test_recording_covers_every_command():
    commands = {run["argv"][0] for run in RECORDED["runs"]}
    assert commands == {"check", "reduce", "verify", "iso", "sample", "readable",
                        "whitehead-min", "orbit"}


def test_c3_reduce_payload_matches_recording():
    assert c3_payload_text() == RECORDED["reduce_c3_payload"]
