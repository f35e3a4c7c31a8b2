"""Source checks that keep every soundness check alive under ``python -O``,
every document format in one module, and the library names the bench
tracer wraps present and on the call path."""

import ast
import importlib.util
import pathlib
import random
import sys

import relfold.genericity
import relfold.iso
import relfold.nielsen
import relfold.smallcancel
import relfold.whitehead
import relfold.words

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "relfold"


def test_library_has_no_assert_statements():
    # ``python -O`` strips assert statements, so a check written as one
    # silently disappears; the library raises explicit exceptions instead.
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert list(SRC.glob("*.py")), f"no modules under {SRC}"
    assert found == []


def test_documents_are_shaped_in_codec_only():
    # JSON and CSV forms live in codec.py, whose trace decoder is the only
    # one in the library; other modules neither shape documents nor use json.
    shapers, json_users = [], set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.FunctionDef) and node.name.endswith(("jsonable", "_csv")):
                shapers.append(f"{path.name}:{node.name}")
            if isinstance(node, ast.Import):
                imported = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported = [node.module]
            else:
                continue
            if any(name.split(".")[0] == "json" for name in imported):
                json_users.add(path.name)
    assert "codec.py:trace_jsonable" in shapers
    assert [s for s in shapers if not s.startswith("codec.py:")] == []
    assert [s for s in shapers if s.endswith("from_jsonable")] == ["codec.py:trace_from_jsonable"]
    assert json_users <= {"codec.py", "cli.py"}


def load_bench_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracing = importlib.util.module_from_spec(spec)
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no __pycache__ under bench/
    try:
        spec.loader.exec_module(tracing)
    finally:
        sys.dont_write_bytecode = write_bytecode
    return tracing


def test_bench_wrapped_names_exist():
    # ``bench/tracer.py`` wraps library functions by module attribute, so
    # renaming one breaks ``bench/run.py --trace 1``.  Install every
    # wrapper on the live package, then put the originals back.
    tracing = load_bench_tracer()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, relfold)
    finally:
        patches = list(tracer._patches)
        tracer.restore()
    assert patches
    for owner, attr, original in patches:
        assert vars(owner)[attr] is original, attr


# The spans that record calls when one small request of each bench workload,
# and one tuple carrying a relator, run under the tracer.  The other wrapped
# names (``whitehead.minimize``, ``apply_move``, ``canonical_orbit_form`` and
# ``certificate_jsonable``) see no call on these requests.
LIVE_SPANS = {
    "fgraph.fold_all",
    "fgraph.remove_degree_one",
    "genericity.check_membership",
    "iso.decide_isomorphic",
    "nielsen.reduce_tuple",
    "nielsen.trace_jsonable",
    "nielsen.verify_trace",
    "readability.is_readable",
    "smallcancel.check_Cprime",
    "smallcancel.find_long_relator_path",
    "smallcancel.is_equal_in_G",
    "whitehead.same_orbit",
    "whitehead.verify_certificate",
    "words.canonical_rotation",
}


def test_bench_spans_stay_on_the_call_path(default_class_relator):
    # A wrapper on a name that the library stops calling through records
    # nothing, and a traced bench run shows a silent 0 for it.  Run one
    # request of each workload kind, calling the library by the names
    # ``bench/run.py`` uses, and compare the spans that saw calls.
    from relfold import genericity, iso, nielsen, whitehead
    from relfold.smallcancel import Presentation
    from relfold.whitehead import Multiplier, apply_move
    from relfold.words import Alphabet, concat, parse_word, random_cyclically_reduced
    from test_acceptance import grown_scrambled_tuple

    m, params = 2, genericity.default_params(2)
    p = Presentation(Alphabet(m), (parse_word(default_class_relator),))
    scrambled = grown_scrambled_tuple(random.Random(2), m, 60)
    carrying = (concat((2,), p.relators[0], (-2, 1)), (2,))  # adds the scan and surgery
    r = random_cyclically_reduced(m, 20, random.Random(3))
    image = apply_move(apply_move(r, Multiplier(1, {1, 2})), Multiplier(-2, {-2, -1}))
    pair = [Presentation(Alphabet(m), (w,)) for w in (r, image)]

    tracing = load_bench_tracer()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, relfold)
        for tpl in (scrambled, carrying):
            verdict = nielsen.reduce_tuple(tpl, p, params)
            assert verdict.kind == nielsen.WHOLE_GROUP
            assert nielsen.verify_trace(verdict.trace, p)
            nielsen.trace_jsonable(verdict.trace)
        answer = iso.decide_isomorphic(*pair, params, assume_in_class=True)
        assert answer.kind == iso.ISOMORPHIC
        assert whitehead.verify_certificate(answer.certificate, m)
        iso.verdict_jsonable(answer)
        report = genericity.check_membership(p, params, 250)
        genericity.membership_report_jsonable(report)
    finally:
        tracer.restore()
    live = {name for name, (calls, _, _) in tracer.spans.items() if calls}
    assert live == LIVE_SPANS
