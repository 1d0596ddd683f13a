"""tools/lint_imports.py: what it reports, and that the tree is clean."""

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_spec = importlib.util.spec_from_file_location(
    "lint_imports", os.path.join(ROOT, "tools", "lint_imports.py")
)
lint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(lint)

SAMPLE = '''\
from __future__ import annotations
import os
import json
import sys  # noqa: F401
from typing import TYPE_CHECKING, Dict, List
if TYPE_CHECKING:
    from threading import RLock

__all__ = ["json"]

def lock() -> "RLock":
    table: Dict[str, int] = {}
    for key in table:
        print(key, missing_name)
    return [undefined for value in ()][0]
'''


def test_reports_unused_imports_and_undefined_names():
    assert lint.check_source(SAMPLE, "sample.py") == [
        (2, "'os' imported but unused"),
        (5, "'List' imported but unused"),
        (14, "undefined name 'missing_name'"),
        (15, "undefined name 'undefined'"),
    ]


@pytest.mark.parametrize(
    "source, line, message",
    [
        ('x = input()\nif x is "a":\n    pass\n', 2, '"is" with a literal'),
        ("def f():\n    pass\nbreak\n", 3, "'break' outside loop"),
        ("return 1\n", 1, "'return' outside function"),
        ("def f(:\n", 1, ""),
    ],
)
def test_reports_what_does_not_compile(source, line, message):
    [(found_line, found)] = lint.check_source(source, "sample.py")
    assert found_line == line
    assert found.startswith("does not compile: ") and message in found


def test_package_init_may_reexport():
    assert lint.check_source("from os import path\n", "pkg/__init__.py") == []


def test_the_tree_is_clean(capsys):
    paths = [os.path.join(ROOT, p) for p in lint.DEFAULT_PATHS]
    status = lint.main([p for p in paths if os.path.exists(p)])
    assert status == 0, capsys.readouterr().out
