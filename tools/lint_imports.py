"""Compile errors, unused imports and undefined names, from the standard
library alone — the project's linter::

    python tools/lint_imports.py            # src tests benchmarks bench examples tools
    python tools/lint_imports.py src/repro/oodb

Every file is first compiled with ``SyntaxWarning`` as an error: syntax
errors, ``break`` / ``return`` outside their block and ``is`` against a
literal.  Then two findings that break code at run time or rot silently —
an import nothing uses and a name nothing defines — with :mod:`ast`.  A
name counts as defined when the module binds it *anywhere* (scopes are not
modelled), and as used when it is read anywhere, appears in ``__all__``,
or occurs in a string that parses as an expression (quoted annotations).
``__init__.py`` files may import without using (re-exports), and a line
carrying ``# noqa`` is skipped.  Exit status 1 when anything is found.
"""

from __future__ import annotations

import ast
import builtins
import os
import sys
import warnings
from typing import Iterator, List, Set, Tuple

DEFAULT_PATHS = ("src", "tests", "benchmarks", "bench", "examples", "tools")
_BUILTINS = set(dir(builtins)) | {"__file__", "__name__", "__doc__", "__path__", "__spec__"}


def python_files(paths: List[str]) -> Iterator[str]:
    for path in paths:
        if os.path.isfile(path):
            yield path
            continue
        for folder, _dirs, files in os.walk(path):
            for name in sorted(files):
                if name.endswith(".py"):
                    yield os.path.join(folder, name)


def _names_in_strings(tree: ast.AST) -> Set[str]:
    """Identifiers inside string constants that parse as expressions."""
    found: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value.strip(), mode="eval")
            except (SyntaxError, ValueError):
                continue
            found.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return found


def _exported(tree: ast.Module) -> Set[str]:
    """Names listed in a literal ``__all__``."""
    names: Set[str] = set()
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign)) else []
        )
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            for element in ast.walk(node):
                if isinstance(element, ast.Constant) and isinstance(element.value, str):
                    names.add(element.value)
    return names


def check_source(source: str, path: str) -> List[Tuple[int, str]]:
    """``(line, message)`` findings for one module's source text."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", SyntaxWarning)
        try:
            compile(source, path, "exec", dont_inherit=True)
        except SyntaxError as exc:  # a SyntaxWarning raised as an error too
            return [(exc.lineno or 0, f"does not compile: {exc.msg}")]
    tree = ast.parse(source, filename=path)
    lines = source.splitlines()
    imported: List[Tuple[str, int]] = []  # (bound name, line)
    bound: Set[str] = set()
    loaded: List[Tuple[str, int]] = []
    star_import = False
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name == "*":
                    star_import = True
                    continue
                name = alias.asname or alias.name.split(".")[0]
                bound.add(name)
                imported.append((name, node.lineno))
        elif isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Load):
                loaded.append((node.id, node.lineno))
            else:
                bound.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.arg):
            bound.add(node.arg)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            bound.update(node.names)
        elif isinstance(node, (ast.MatchAs, ast.MatchStar)) and node.name:
            bound.add(node.name)
        elif isinstance(node, ast.MatchMapping) and node.rest:
            bound.add(node.rest)

    def skipped(line: int) -> bool:
        return 0 < line <= len(lines) and "# noqa" in lines[line - 1]

    used = {name for name, _line in loaded} | _names_in_strings(tree) | _exported(tree)
    findings: List[Tuple[int, str]] = []
    if os.path.basename(path) != "__init__.py":
        for name, line in imported:
            if name not in used and not skipped(line):
                findings.append((line, f"'{name}' imported but unused"))
    if not star_import:
        for name, line in loaded:
            if name not in bound and name not in _BUILTINS and not skipped(line):
                findings.append((line, f"undefined name '{name}'"))
    return sorted(set(findings))


def main(argv: List[str]) -> int:
    paths = argv or [path for path in DEFAULT_PATHS if os.path.exists(path)]
    count = 0
    for path in python_files(paths):
        with open(path, encoding="utf-8") as handle:
            source = handle.read()
        for line, message in check_source(source, path):
            print(f"{path}:{line}: {message}")
            count += 1
    if count:
        print(f"{count} finding(s)")
    return 1 if count else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
