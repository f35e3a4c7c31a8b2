"""Source checks that keep every soundness check alive under ``python -O``."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "relfold"


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
