"""Statements of src/cohsum that no benchmark stage runs, found by recording every line run.

    python3 scripts/unrun_statements.py ROOT

Loads ROOT/perfbench/run.py with `artifact_sha256.load_run` and, for each
workload at seed 1, runs its `set_up` once and one untraced `run_repeat`
against the sources under ROOT/src, in a temporary directory. Every stage
process first starts `record`, a `sys.settrace` line recorder on the files
of ROOT/src/cohsum, which writes the lines it saw when the process exits:
the script sets the loaded module's `CONSOLE_SCRIPT` to start it and puts
this file's directory on the stages' PYTHONPATH, so no file under perfbench/
changes.

Prints `path:line: source` for each statement of ROOT/src/cohsum (AST
statements, docstrings skipped) none of whose lines ran, unless the
statement it sits in did not run either. Exits 1, naming the stage, if a
stage of a workload fails.
"""

from __future__ import annotations

import ast
import atexit
import json
import os
import sys
import tempfile
import time
from pathlib import Path

SEED = 1
DEADLINE_S = 3600.0  # per workload: a traced stage runs several times slower than an untraced one


def record(package: str, out_dir: str) -> None:
    """Record the lines run in the files under `package` until exit, into out_dir/<pid>.json."""
    package = os.path.join(package, "")
    lines: dict[str, set[int]] = {}

    def on_line(frame, event, arg):
        if event == "line":
            lines.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return on_line

    def on_call(frame, event, arg):
        return on_line if frame.f_code.co_filename.startswith(package) else None

    def write():
        ran = {path: sorted(numbers) for path, numbers in lines.items()}
        Path(out_dir, f"{os.getpid()}.json").write_text(json.dumps(ran), encoding="utf-8")

    atexit.register(write)
    sys.settrace(on_call)


def _header_lines(node: ast.stmt) -> range:
    """The lines whose events tell that `node` ran: a compound statement's header, or all of it."""
    body = getattr(node, "body", None)
    if not isinstance(body, list) or not body:
        return range(node.lineno, node.end_lineno + 1)
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
    return range(first, max(node.lineno, body[0].lineno - 1) + 1)


def _docstrings(tree: ast.Module) -> set[int]:
    """ids of the docstring statements of a module and of its classes and functions."""
    owners = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    return {id(n.body[0]) for n in ast.walk(tree) if isinstance(n, owners) and n.body
            and isinstance(n.body[0], ast.Expr) and isinstance(n.body[0].value, ast.Constant)
            and isinstance(n.body[0].value.value, str)}


def unrun_statements(path: Path, ran: set[int]) -> list[tuple[int, str]]:
    """(line, source line) of each statement of path that did not run, outermost ones only."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    skip = _docstrings(tree)
    text = source.splitlines()
    found = []

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt) and id(child) not in skip:
                if not ran.intersection(_header_lines(child)):
                    found.append((child.lineno, text[child.lineno - 1].strip()))
                    continue  # what it holds did not run either
            visit(child)

    visit(tree)
    return found


def run_stages(root: Path, out_dir: Path) -> list[str]:
    """Set up and run one repeat of every workload with each stage recorded; the problems."""
    from artifact_sha256 import load_run  # here, not at the top: every stage imports this file

    run = load_run(root)
    run.CONSOLE_SCRIPT = (f"import unrun_statements; unrun_statements.record("
                          f"{str(root / 'src' / 'cohsum')!r}, {str(out_dir)!r}); "
                          f"{run.CONSOLE_SCRIPT}")
    here = str(Path(__file__).resolve().parent)
    problems = []
    for name, workload in sorted(run.WORKLOADS.items()):
        with tempfile.TemporaryDirectory(prefix="unrun_statements-") as tmp:
            work = Path(tmp)
            bench = run.Bench(root, run.PAPER, SEED, time.monotonic() + DEADLINE_S)
            bench.env["PYTHONPATH"] += os.pathsep + here
            s, _ = run.set_up(bench, workload, work, 1)
            run.run_repeat(bench, workload, s, work / "repeat", traced=False)
            problems += [f"{name}: {p}" for p in bench.problems]
    return problems


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.splitlines()[2].strip(), file=sys.stderr)
        return 2
    root = Path(argv[0]).resolve()
    with tempfile.TemporaryDirectory(prefix="unrun_statements-lines-") as out_dir:
        problems = run_stages(root, Path(out_dir))
        ran: dict[str, set[int]] = {}
        for recorded in Path(out_dir).glob("*.json"):
            for path, numbers in json.loads(recorded.read_text(encoding="utf-8")).items():
                ran.setdefault(path, set()).update(numbers)
    for path in sorted((root / "src" / "cohsum").glob("*.py")):
        for line, text in unrun_statements(path, ran.get(str(path), set())):
            print(f"{path.relative_to(root)}:{line}: {text}")
    for problem in problems:
        print(f"unrun_statements: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
