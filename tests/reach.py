"""Reach check: the statements of src/twistlab that no run executes.

Usage, from the root of a source checkout:

    python tests/reach.py

In this one process and under a line tracer limited to src/twistlab, it
runs the tier-1 suite (pytest on tests/), then each script in demos/, then
one pass of each benchmark workload at seed 3 through twistlab.cli.main,
with inputs built by bench/inputs.py, imported read-only by
tests/golden/ops_digest.py.  It then prints every statement of
src/twistlab that none of them executed, docstrings excluded, grouped by
file, with totals.  A statement counts as executed when a line event fires
on its first line.

tests/reach_baseline.txt lists the statements allowed to stay never
executed, by file and source text, not by line number, each with its
reason: one of REASONS.  A file line names a file under src/twistlab; each
statement under it is an indented line "<reason>: <statement text>", and a
text that occurs n times in the file is listed n times.  Lines starting
with "#" are comments.  The script prints the never-executed statements
the baseline does not allow, and the baseline entries that no longer match
a never-executed statement, which can be dropped.

The exit status is the suite's if it failed, else 1 if a never-executed
statement is missing from the baseline, else 0.  The file name keeps
pytest from collecting this script.
"""

import ast
import contextlib
import io
import os
import runpy
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "twistlab"
BASELINE = ROOT / "tests" / "reach_baseline.txt"
BENCH_SEED = 3
REASONS = ("error raise", "NotImplemented", "repr", "__main__", "protocol method")


def statements(path):
    "{first line: source text} of each statement in the file, docstrings excluded."
    text = path.read_text()
    tree = ast.parse(text)
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                docstrings.add(first)
    lines = text.splitlines()
    return {
        node.lineno: lines[node.lineno - 1].strip()
        for node in ast.walk(tree)
        if isinstance(node, ast.stmt) and node not in docstrings
    }


class LineTracer:
    "Records (file, line) of each line event in code under SRC."

    def __init__(self):
        self.hits = set()
        self.traced = {}  # co_filename -> whether it lies under SRC
        self.prefix = str(SRC) + os.sep

    def on_call(self, frame, event, arg):
        name = frame.f_code.co_filename
        keep = self.traced.get(name)
        if keep is None:
            keep = self.traced[name] = os.path.realpath(name).startswith(self.prefix)
        return self.on_line if keep else None

    def on_line(self, frame, event, arg):
        if event == "line":
            self.hits.add((frame.f_code.co_filename, frame.f_lineno))
        return self.on_line

    def __enter__(self):
        sys.settrace(self.on_call)
        return self

    def __exit__(self, *exc):
        sys.settrace(None)

    def lines_run(self, path):
        return {line for name, line in self.hits if Path(os.path.realpath(name)) == path}


def run_suite():
    import pytest

    return pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])


def run_demos():
    for script in sorted((ROOT / "demos").glob("*.py")):
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(script), run_name="__main__")


def run_bench_pass():
    sys.path.insert(0, str(ROOT / "tests" / "golden"))
    dont_write = sys.dont_write_bytecode
    try:
        import ops_digest  # turns bytecode writing off before it imports bench/inputs.py
    finally:
        sys.dont_write_bytecode = dont_write
    for workload in ops_digest.inputs.WORKLOADS:
        ops_digest.workload_digest(workload, BENCH_SEED)


def read_baseline(path):
    "Counter of the (file, statement text) pairs the baseline allows."
    allowed = Counter()
    file = None
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        if not line[0].isspace():
            file = line.strip()
            continue
        reason, sep, text = line.strip().partition(": ")
        if file is None or not sep or reason not in REASONS:
            raise SystemExit(
                "%s:%d: expected an indented '<reason>: <statement>' under a file line,"
                " with the reason one of %s" % (path.name, lineno, ", ".join(REASONS))
            )
        allowed[file, text] += 1
    return allowed


def report(tracer):
    "Print the never-executed statements by file; return them as a Counter of (file, text)."
    total = 0
    unrun = Counter()
    for path in sorted(SRC.glob("*.py")):
        name = str(path.relative_to(ROOT))
        stmts = statements(path)
        lines = sorted(set(stmts) - tracer.lines_run(path))
        total += len(stmts)
        unrun.update((name, stmts[line]) for line in lines)
        print("%s: %d of %d statements never executed" % (name, len(lines), len(stmts)))
        for line in lines:
            print("  %4d  %s" % (line, stmts[line]))
    missed = sum(unrun.values())
    print("total: %d of %d statements executed, %d never" % (total - missed, total, missed))
    return unrun


def compare(unrun, allowed):
    "Print what the baseline lacks and what it holds in excess; return the count lacked."
    new, stale = unrun - allowed, allowed - unrun
    for title, extra in (
        ("never executed and not in %s" % BASELINE.name, new),
        ("in %s but executed now or gone (drop them)" % BASELINE.name, stale),
    ):
        if extra:
            print("%s: %d" % (title, sum(extra.values())))
            for (name, text), n in sorted(extra.items()):
                print("  %s: %s%s" % (name, text, " (x%d)" % n if n > 1 else ""))
    return sum(new.values())


def main():
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    allowed = read_baseline(BASELINE)
    with LineTracer() as tracer:
        status = run_suite()
        run_demos()
        run_bench_pass()
    new = compare(report(tracer), allowed)
    return int(status) or (1 if new else 0)


if __name__ == "__main__":
    sys.exit(main())
