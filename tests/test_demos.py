"""Every demo script runs to completion against the library in ``src``."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def src_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def test_demos_found():
    assert len(DEMOS) >= 7


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_zero(demo):
    proc = subprocess.run([sys.executable, str(demo)], env=src_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_cli_demo_exits_zero(tmp_path):
    # The tour calls ``relfold``; a shim on PATH runs the CLI from ``src``.
    shim = tmp_path / "relfold"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m relfold.cli "$@"\n')
    shim.chmod(0o755)
    env = src_env()
    env["PATH"] = os.pathsep.join(filter(None, [str(tmp_path), env.get("PATH")]))
    proc = subprocess.run(["sh", str(ROOT / "demos" / "cli_demo.sh")], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout.rstrip().endswith("done.")
