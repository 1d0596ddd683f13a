"""Record which ``src/repro`` functions the workloads, examples and
benchmarks reach, and keep the list of those they do not.

Each target runs in its own process, in a scratch copy of the repository
(so the benchmarks' result files land there, not here), under a profiler
that ``sitecustomize`` installs with ``sys.setprofile`` and
``threading.setprofile`` when ``REPRO_REACH_DIR`` is set.  Every process
writes the code objects it saw run, as ``(file, first line, name)``; those
are matched to the ``def`` statements of ``src/repro`` by :func:`definitions`.
A function no target calls is *unreached*; a nested function is listed
only when the function around it is reached.

The targets: ``bench/run.py --smoke`` per workload, untraced and traced;
every ``examples/*.py``; the argparse benchmarks with ``--smoke``; the
pytest benchmarks with ``--benchmark-disable`` (pytest-benchmark otherwise
switches the profiler off around the timed code).  Exit codes are
reported, not enforced: some speed gates fail under the profiler.

    python tools/reach.py            # print the unreached functions and the counts
    python tools/reach.py --write    # rewrite tools/reach.txt
    python tools/reach.py --check    # exit 1 when tools/reach.txt is out of date

``tools/reach.txt`` holds one ``path:qualname lines`` per unreached
function.  ``--check`` fails on an unreached function the list lacks and on
a listed one that is reached or gone.  A whole run takes about two
minutes on two cores.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import Dict, Iterable, List, Set, Tuple

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LIST_PATH = os.path.join(REPO, "tools", "reach.txt")
PACKAGE = os.path.join("src", "repro")
WORKLOADS = ("ranked_cold", "mixed_vql", "update_mix", "remote_hot")
#: The benchmarks with their own command line; the rest run under pytest.
CLI_BENCHMARKS = {
    "bench_scoring.py": [["--smoke"]],
    "bench_obs.py": [["--smoke"], ["--smoke", "--mode", "concurrency"]],
    "bench_concurrency.py": [["--smoke"]],
    "bench_network.py": [["--smoke"]],
    "bench_storage.py": [["--smoke", "--output", "BENCH_storage_smoke.json"]],
}
TARGET_TIMEOUT_S = 900

SITECUSTOMIZE = '''\
import atexit, os, sys, threading

_out = os.environ.get("REPRO_REACH_DIR")
if _out:
    # Real paths on both sides: code imported through ``benchmarks/../src``
    # or a symlink is the same file.
    _root = os.path.join(os.path.realpath(os.environ["REPRO_REACH_ROOT"]), "")
    _codes = set()

    def _profile(frame, event, arg):
        if event == "call":
            _codes.add(frame.f_code)

    def _dump():
        sys.setprofile(None)
        threading.setprofile(None)
        real = {}
        seen = set()
        for code in list(_codes):
            if code.co_filename not in real:
                real[code.co_filename] = os.path.realpath(code.co_filename)
            if real[code.co_filename].startswith(_root):
                seen.add(f"{real[code.co_filename]}\\t{code.co_firstlineno}\\t{code.co_name}")
        with open(os.path.join(_out, f"{os.getpid()}.txt"), "w", encoding="utf-8") as fh:
            fh.write("\\n".join(sorted(seen)))

    atexit.register(_dump)
    sys.setprofile(_profile)
    threading.setprofile(_profile)
'''


class Definition:
    """One ``def`` of a module: its qualified name, extent and parent."""

    def __init__(self, qualname: str, first: int, last: int, parent: "Definition | None"):
        self.qualname = qualname
        self.first = first  # the first decorator's line, as in ``co_firstlineno``
        self.lines = last - first + 1
        self.parent = parent


def definitions(source: str) -> Dict[Tuple[int, str], Definition]:
    """Every function definition of ``source``, keyed like its code object:
    ``(co_firstlineno, co_name)``.  Qualified names follow ``__qualname__``."""
    found: Dict[Tuple[int, str], Definition] = {}

    def walk(node: ast.AST, prefix: str, parent: "Definition | None") -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                qualname = prefix + child.name
                definition = Definition(qualname, first, child.end_lineno, parent)
                found[(first, child.name)] = definition
                walk(child, qualname + ".<locals>.", definition)
            elif isinstance(child, ast.ClassDef):
                walk(child, prefix + child.name + ".", parent)
            else:
                walk(child, prefix, parent)

    walk(ast.parse(source), "", None)
    return found


def targets(root: str) -> List[Tuple[str, List[str]]]:
    """``(label, argv)`` of every target, run from ``root``."""
    python = sys.executable
    found = []
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            argv = ["bench/run.py", "--smoke", "--workload", workload, "--trace", trace]
            found.append((" ".join(argv), [python] + argv))
    for name in sorted(os.listdir(os.path.join(root, "examples"))):
        if name.endswith(".py"):
            found.append((f"examples/{name}", [python, f"examples/{name}"]))
    for name in sorted(os.listdir(os.path.join(root, "benchmarks"))):
        if not (name.startswith("bench_") and name.endswith(".py")):
            continue
        path = f"benchmarks/{name}"
        if name in CLI_BENCHMARKS:
            for args in CLI_BENCHMARKS[name]:
                found.append((" ".join([path] + args), [python, path] + args))
        else:
            argv = ["-m", "pytest", path, "-q", "-p", "no:cacheprovider", "--benchmark-disable"]
            found.append((f"pytest {path}", [python] + argv))
    return found


def copy_repository(destination: str) -> str:
    """Copy the working tree (less version control and caches) to ``destination``."""
    skipped = {".git", "__pycache__", ".hypothesis", ".pytest_cache", ".benchmarks"}
    root = os.path.join(os.path.realpath(destination), "repo")
    shutil.copytree(REPO, root, ignore=lambda _dir, names: [n for n in names if n in skipped])
    return root


def record(root: str, scratch: str) -> Set[Tuple[str, int, str]]:
    """Run every target under the profiler; ``(path, first line, name)`` reached."""
    site = os.path.join(scratch, "site")
    seen_dir = os.path.join(scratch, "seen")
    os.makedirs(site)
    os.makedirs(seen_dir)
    with open(os.path.join(site, "sitecustomize.py"), "w", encoding="utf-8") as fh:
        fh.write(SITECUSTOMIZE)
    package = os.path.join(root, PACKAGE) + os.sep
    env = dict(os.environ)
    env.update(
        PYTHONPATH=os.pathsep.join([site, os.path.join(root, "src"), root]),
        REPRO_REACH_DIR=seen_dir,
        REPRO_REACH_ROOT=package,
        PYTHONDONTWRITEBYTECODE="1",
    )
    for label, argv in targets(root):
        started = time.perf_counter()
        try:
            code = subprocess.run(
                argv, cwd=root, env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL, timeout=TARGET_TIMEOUT_S,
            ).returncode
        except subprocess.TimeoutExpired:
            code = "timeout"
        print(f"  {label:<62} exit {code}  {time.perf_counter() - started:6.1f}s", flush=True)
    reached = set()
    for name in os.listdir(seen_dir):
        with open(os.path.join(seen_dir, name), encoding="utf-8") as fh:
            for line in fh.read().splitlines():
                filename, first, code_name = line.split("\t")
                path = os.path.relpath(filename, root).replace(os.sep, "/")
                reached.add((path, int(first), code_name))
    return reached


def unreached(reached: Iterable[Tuple[str, int, str]]) -> Tuple[Dict[str, int], int]:
    """``({"path:qualname": lines}, reached count)`` over every ``src/repro`` function."""
    by_path: Dict[str, Set[Tuple[int, str]]] = {}
    for path, first, name in reached:
        by_path.setdefault(path, set()).add((first, name))
    missed: Dict[str, int] = {}
    hit = 0
    for directory, _dirs, files in sorted(os.walk(os.path.join(REPO, PACKAGE))):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.relpath(os.path.join(directory, name), REPO).replace(os.sep, "/")
            with open(os.path.join(directory, name), encoding="utf-8") as fh:
                found = definitions(fh.read())
            seen = by_path.get(path, set())
            reached_defs = {d for key, d in found.items() if key in seen}
            hit += len(reached_defs)
            for definition in sorted(found.values(), key=lambda d: d.first):
                parent = definition.parent
                if definition not in reached_defs and (parent is None or parent in reached_defs):
                    missed[f"{path}:{definition.qualname}"] = definition.lines
    return missed, hit


def render(missed: Dict[str, int], hit: int) -> str:
    lines = sum(missed.values())
    header = [
        "# src/repro functions no workload, example or benchmark reaches",
        "# (tools/reach.py; a nested function counts when the one around it is reached).",
        f"# reached {hit}, unreached {len(missed)} ({lines} lines)",
    ]
    return "\n".join(header + [f"{key} {n}" for key, n in missed.items()]) + "\n"


def read_list(path: str) -> Set[str]:
    with open(path, encoding="utf-8") as fh:
        return {
            line.rsplit(" ", 1)[0]
            for line in fh.read().splitlines()
            if line and not line.startswith("#")
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--write", action="store_true", help=f"rewrite {LIST_PATH}")
    mode.add_argument("--check", action="store_true", help="fail when the list is out of date")
    args = parser.parse_args(argv)
    scratch = tempfile.mkdtemp(prefix="repro_reach_")
    try:
        root = copy_repository(scratch)
        missed, hit = unreached(record(root, scratch))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    text = render(missed, hit)
    print(text.splitlines()[2])
    if args.write:
        with open(LIST_PATH, "w", encoding="utf-8") as fh:
            fh.write(text)
        return 0
    if not args.check:
        print(text, end="")
        return 0
    listed = read_list(LIST_PATH)
    new = sorted(set(missed) - listed)
    stale = sorted(listed - set(missed))
    for key in new:
        print(f"unreached, not listed: {key}")
    for key in stale:
        print(f"listed, but reached or gone: {key}")
    if new or stale:
        print("update the list with: python tools/reach.py --write")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
