"""Run the ``>>>`` examples in the docstrings of every relfold module."""

import doctest
import importlib
import pkgutil

import relfold


def test_library_examples():
    failed = attempted = 0
    for info in pkgutil.iter_modules(relfold.__path__):
        # a failing example is printed to stdout, which pytest shows
        result = doctest.testmod(importlib.import_module(f"relfold.{info.name}"))
        failed += result.failed
        attempted += result.attempted
    assert failed == 0, f"{failed} of {attempted} examples failed"
    assert attempted >= 26, f"only {attempted} examples found"
