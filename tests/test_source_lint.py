"""Source checks that keep every soundness check alive under ``python -O``,
every document format in one module, and the library names the bench
tracer wraps present."""

import ast
import importlib.util
import pathlib
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


def test_bench_wrapped_names_exist():
    # ``bench/tracer.py`` wraps library functions by module attribute, so
    # renaming one breaks ``bench/run.py --trace 1``.  Install every
    # wrapper on the live package, then put the originals back.
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracing = importlib.util.module_from_spec(spec)
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no __pycache__ under bench/
    try:
        spec.loader.exec_module(tracing)
    finally:
        sys.dont_write_bytecode = write_bytecode
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, relfold)
    finally:
        patches = list(tracer._patches)
        tracer.restore()
    assert patches
    for owner, attr, original in patches:
        assert vars(owner)[attr] is original, attr
