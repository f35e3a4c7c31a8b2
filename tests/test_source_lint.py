"""Source checks that keep every soundness check alive under ``python -O``,
and the library names the bench tracer wraps present."""

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
