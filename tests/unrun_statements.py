"""The statements of src/melnikov_lab that tier-1 never runs: a line trace.

Run from the repository root:

    python tests/unrun_statements.py [PYTEST_ARGS...]

It runs tier-1 (pytest -q --continue-on-collection-errors, plus any
PYTEST_ARGS) in this process under sys.settrace and threading.settrace,
line-tracing only frames whose code lies in src/melnikov_lab, and then
prints, one line per run of adjacent statements, every statement that
never ran: FILE:FIRST-LAST and the statement's first line.  Statements
are found with ast.  Docstrings, def and class lines and imports are left
out; a def's or a class's body is not.  A compound statement (if, for,
while, try, with) ran if its header or any statement inside it ran, and
inside one that ran each body is read statement by statement.  Code that
only a subprocess runs (the CLI's __main__ line) never runs here.  It
exits with pytest's exit code; the trace is only as complete as the tests
that passed.  It takes about 3x plain tier-1's time; pytest does not
collect it, and it needs no coverage package.  tests/traffic_statements.py
reuses its line trace and its report.
"""

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "melnikov_lab"


def line_trace(run):
    """(run(), {(filename, line) executed}) of one call, in every thread it starts."""
    prefix = str(PACKAGE) + os.sep
    hits = set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        result = run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    imported = sys.modules.get("melnikov_lab")
    if imported is None or Path(imported.__file__).resolve().parent != PACKAGE:
        sys.exit(f"melnikov_lab was not imported from {PACKAGE}")
    return result, hits


def _ignored(node, body):
    docstring = (
        node is body[0]
        and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )
    return docstring or isinstance(node, (ast.Import, ast.ImportFrom))


def _bodies(node):
    """The statement lists directly inside a compound statement."""
    lists = [getattr(node, name, []) for name in ("body", "orelse", "finalbody")]
    lists += [h.body for h in getattr(node, "handlers", [])]
    lists += [c.body for c in getattr(node, "cases", [])]
    return [body for body in lists if body]


def _ran(node, lines):
    """Whether node, a statement that is neither a def nor a class, ran."""
    bodies = _bodies(node)
    if not bodies:
        return any(i in lines for i in range(node.lineno, node.end_lineno + 1))
    header_end = max(node.lineno, bodies[0][0].lineno - 1)
    if any(i in lines for i in range(node.lineno, header_end + 1)):
        return True
    return any(_ran(s, lines) for body in bodies for s in body if not _ignored(s, body))


def unrun(body, lines):
    """[(first, last)] line spans of the runs of adjacent statements that never ran."""
    spans, open_span = [], None
    for node in body:
        if _ignored(node, body):
            continue
        scope = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        if not scope and not _ran(node, lines):
            if open_span is None:
                open_span = [node.lineno, node.end_lineno]
                spans.append(open_span)
            open_span[1] = node.end_lineno
            continue
        open_span = None
        for inner in _bodies(node):
            spans += unrun(inner, lines)
    return spans


def print_unrun(hits):
    """Print FILE:FIRST-LAST and the first line of each run of statements not in hits."""
    for path in sorted(PACKAGE.glob("*.py")):
        lines = {line for name, line in hits if name == str(path)}
        source = path.read_text()
        text = source.splitlines()
        for first, last in unrun(ast.parse(source).body, lines):
            where = f"{path.name}:{first}" + (f"-{last}" if last > first else "")
            print(f"{where}  {text[first - 1].strip()}")


def main(argv):
    code, hits = line_trace(
        lambda: int(pytest.main(["-q", "--continue-on-collection-errors", *argv]))
    )
    print_unrun(hits)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
