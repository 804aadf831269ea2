"""Function reachability: which defs of ``src/repro`` the program enters,
which only the tests enter, and which nothing enters.

A script, not a test module (pytest collects only ``test_*.py``).  Run
it from the repository root::

    PYTHONPATH=src python tests/reachability.py [--out DIR] [--list PKG,...]

It writes a ``sitecustomize.py`` into a scratch directory outside the
checkout and puts that directory first on ``PYTHONPATH``, so every
Python process of a run — subprocesses included — installs a global
``sys.settrace`` hook at start-up.  The hook returns ``None`` (no line
tracing) and records each code object under ``src/repro`` that a call
enters, as ``(file, first line)``; each process writes its set at exit.
The records are then mapped onto an AST list of every ``def`` in
``src/repro`` (a decorated def's code starts at its first decorator).

Two sets of runs:

* the **program**: every script in ``examples/``, ``python -m bench
  --workload W --seed 1 --seconds 4 --trace 0`` for each bench workload,
  and ``pytest benchmarks``;
* the **tests**: ``pytest tests bench``.

A def is *program* when the program set enters it, *tests-only* when
only the tests set does, and *unreached* otherwise.  The report is one
row per package of ``repro`` (def counts, and in parentheses the lines
those defs span), then, for the packages named by ``--list``, every
tests-only and unreached def.  The tests set takes a few minutes under
the hook; nothing is written inside the checkout.
"""

from __future__ import annotations

import argparse
import ast
import collections
import os
import pathlib
import subprocess
import sys
import tempfile
from typing import Dict, Iterable, List, Set, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
WORKLOADS = ("pipe_tick", "pipe_burst", "region_adapt", "wc_region")

HOOK = '''\
import atexit
import os
import sys
import threading

_SRC = {src!r}
_OUT = {out!r}
_files = {{}}
_seen = set()


def _hook(frame, event, arg):
    code = frame.f_code
    name = code.co_filename
    keep = _files.get(name)
    if keep is None:
        keep = _files[name] = os.path.abspath(name).startswith(_SRC)
    if keep:
        _seen.add((os.path.abspath(name), code.co_firstlineno))
    return None


def _dump():
    sys.settrace(None)
    path = os.path.join(_OUT, "%d.txt" % os.getpid())
    with open(path, "a") as out:
        for name, line in sorted(_seen):
            out.write("%s\\t%d\\n" % (name, line))


sys.settrace(_hook)
threading.settrace(_hook)
atexit.register(_dump)
'''

Def = Tuple[str, int]  # (path relative to src/repro, first line of its code)


def defs_of_package() -> Dict[Def, Tuple[str, int]]:
    """Every ``def`` under ``src/repro``: key -> (qualified name, lines spanned)."""
    found: Dict[Def, Tuple[str, int]] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = str(path.relative_to(PACKAGE))
        tree = ast.parse(path.read_text(), str(path))

        def walk(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min(
                        [child.lineno] + [d.lineno for d in child.decorator_list]
                    )
                    name = f"{prefix}{child.name}"
                    found[(rel, first)] = (name, child.end_lineno - child.lineno + 1)
                    walk(child, f"{name}.")
                elif isinstance(child, ast.ClassDef):
                    walk(child, f"{prefix}{child.name}.")
                else:
                    walk(child, prefix)

        walk(tree, "")
    return found


def traced_run(commands: Iterable[List[str]], scratch: pathlib.Path) -> Set[Def]:
    """Run ``commands`` under the hook; return the defs their processes entered."""
    hook_dir = scratch / "hook"
    out_dir = scratch / "seen"
    hook_dir.mkdir(parents=True, exist_ok=True)
    out_dir.mkdir(parents=True, exist_ok=True)
    for stale in out_dir.glob("*.txt"):
        stale.unlink()
    (hook_dir / "sitecustomize.py").write_text(
        HOOK.format(src=str(PACKAGE) + os.sep, out=str(out_dir))
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(hook_dir), str(SRC), str(ROOT)])
    for command in commands:
        print("  $", " ".join(command), flush=True)
        done = subprocess.run(
            command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True,
        )
        if done.returncode != 0:
            sys.exit(f"failed ({done.returncode}): {' '.join(command)}\n{done.stderr}")
    seen: Set[Def] = set()
    for record in out_dir.glob("*.txt"):
        for line in record.read_text().splitlines():
            name, first = line.rsplit("\t", 1)
            seen.add((str(pathlib.Path(name).relative_to(PACKAGE)), int(first)))
    return seen


def program_commands() -> List[List[str]]:
    """The program set: the examples, each bench workload, the paper figures."""
    python = sys.executable
    commands = [[python, str(path)] for path in sorted((ROOT / "examples").glob("*.py"))]
    for workload in WORKLOADS:
        commands.append([
            python, "-m", "bench", "--workload", workload, "--seed", "1",
            "--seconds", "4", "--trace", "0",
        ])
    commands.append([python, "-m", "pytest", "benchmarks", "-q", "-p", "no:cacheprovider"])
    return commands


def tests_commands() -> List[List[str]]:
    """The tests set: the unit suite and the bench harness's own tests."""
    return [[sys.executable, "-m", "pytest", "tests", "bench", "-q", "-p", "no:cacheprovider"]]


def report(
    defs: Dict[Def, Tuple[str, int]], program: Set[Def], tests: Set[Def],
    listed: Iterable[str],
) -> str:
    """The per-package table, then the listed packages' tests-only and unreached defs."""
    rows: Dict[str, Dict[str, List[int]]] = collections.defaultdict(
        lambda: {kind: [0, 0] for kind in ("program", "tests-only", "unreached")}
    )
    verdicts: Dict[Def, str] = {}
    for key, (_name, lines) in defs.items():
        kind = "program" if key in program else "tests-only" if key in tests else "unreached"
        verdicts[key] = kind
        package = key[0].split(os.sep)[0].removesuffix(".py")
        for row in (rows[package], rows["total"]):
            row[kind][0] += 1
            row[kind][1] += lines
    out = [f"{'package':<12} {'program':>14} {'tests-only':>14} {'unreached':>14}"]
    for package in sorted(rows, key=lambda p: (p == "total", p)):
        cells = " ".join(
            f"{f'{n} ({lines})':>14}" for n, lines in rows[package].values()
        )
        out.append(f"{package:<12} {cells}")
    for package in listed:
        out.append("")
        out.append(f"{package}: tests-only and unreached defs")
        for key in sorted(defs):
            if key[0].split(os.sep)[0].removesuffix(".py") != package:
                continue
            if verdicts[key] != "program":
                name, lines = defs[key]
                out.append(f"  {verdicts[key]:<10} {key[0]}:{key[1]} {name} ({lines})")
    return "\n".join(out)


def main(argv: List[str] | None = None) -> int:
    """Run both sets under the hook and print the report."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default=None,
        help="scratch directory for the hook and its records (default: a new "
        "temporary directory); must lie outside the checkout",
    )
    parser.add_argument(
        "--list", default="runtime,elastic,checkpoint,apps",
        help="comma-separated packages whose tests-only and unreached defs "
        "are listed (default: %(default)s)",
    )
    args = parser.parse_args(argv)
    scratch = pathlib.Path(args.out or tempfile.mkdtemp(prefix="reachability-")).resolve()
    if scratch == ROOT or ROOT in scratch.parents:
        parser.error("--out must lie outside the checkout")
    defs = defs_of_package()
    print("program set:", flush=True)
    program = traced_run(program_commands(), scratch / "program")
    print("tests set:", flush=True)
    tests = traced_run(tests_commands(), scratch / "tests")
    listed = [p for p in args.list.split(",") if p]
    print(report(defs, program, tests, listed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
