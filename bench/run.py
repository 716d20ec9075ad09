"""twistlab benchmark: CLI verdicts timed end to end, split by layer when traced.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload solve-dense --seed 1 --seconds 20 --trace 0

The program is imported from the checkout's src/ directory and driven
through twistlab.cli.main() in this process, as a closed loop with one
client: the next call starts when the previous one has returned.  Inputs
come from the seed alone (inputs.py) and every call's exit code and
output are checked against the verdict derived from them (check.py).

--trace 0 runs whole passes over the workload's ops until --seconds of
call time have been measured and prints the end-to-end metrics.
--trace 1 runs every op once untraced and once traced per pass until the
untraced calls reach half of --seconds, prints the per-layer metrics of
the traced calls (spans.py) and writes their spans to bench/_out/.

Human-readable lines come first; the last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}.  Exit status is 0
when a result was printed, 2 when the program could not be loaded.
"""

import argparse
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import check
import inputs
from spans import ARITH, KEY, ROOT, Tracer

HERE = Path(__file__).resolve().parent
ROOT_DIR = HERE.parent
OUT_DIR = HERE / "_out"
SETUP_REPEATS = 7
LADDER = (50, 75, 90, 95, 99, 99.9)  # candidate tail percentiles
WALL_LIMIT_S = 150  # stop early rather than overrun the caller's timeout


def load_program():
    """Import twistlab afresh from the checkout's src/ directory.

    Dropping the cached modules makes every set-up pay the program's
    import-time work again, so work moved to import time shows in setup_s.
    """
    src = ROOT_DIR / "src"
    if not (src / "twistlab" / "cli.py").is_file():
        raise ImportError("no twistlab sources under %s" % src)
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "twistlab" or n.startswith("twistlab.")]:
        del sys.modules[name]
    importlib.import_module("twistlab.cli")
    tw = sys.modules["twistlab"]
    if not Path(tw.__file__).resolve().is_relative_to(src):
        raise ImportError("twistlab was imported from %s, not %s" % (tw.__file__, src))
    return tw


def set_up(workload, seed, indir):
    "Import the program, generate the inputs and write them; return (tw, ops, digest)."
    tw = load_program()
    ops = inputs.generate(workload, seed)
    shutil.rmtree(indir, ignore_errors=True)
    indir.mkdir(parents=True)
    return tw, ops, inputs.write_files(ops, str(indir))


def call(main, argv, tracer=None, op_id=0):
    "One in-process CLI call: (exit code, stdout, stderr, seconds)."
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        root = tracer.begin_op(op_id) if tracer else None
        t0 = perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = None
            traceback.print_exc()
        dt = perf_counter() - t0
        if tracer:
            tracer.close(root)
    return code, out.getvalue(), err.getvalue(), dt


class Loop:
    "Runs passes over the ops and keeps samples and verdict failures."

    def __init__(self, tw, ops, indir, deadline):
        self.tw = tw
        self.ops = [(op, op.argv(str(indir))) for op in ops]
        self.deadline = deadline
        self.samples = []
        self.failures = []

    def run_op(self, op, argv, tracer=None):
        "One checked call; returns its time."
        code, out, err, dt = call(self.tw.cli.main, argv, tracer, len(self.samples))
        self.samples.append(dt)
        problems = check.check(op, code, out, err)
        if problems:
            self.failures.append((op.label, problems))
        return dt

    def run_pass(self):
        "One call per op; returns the summed call time."
        total = 0.0
        for op, argv in self.ops:
            if perf_counter() > self.deadline:
                break
            total += self.run_op(op, argv)
        return total


def percentile(sorted_values, p):
    "Linear interpolation between closest ranks (statistics' inclusive method)."
    pos = (len(sorted_values) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail_level(n):
    "Highest ladder percentile with at least ten samples above it."
    fit = [p for p in LADDER if n * (100 - p) / 100.0 >= 10]
    return fit[-1] if fit else LADDER[0]


def self_test(tw, ops, indir):
    "Run the first op of each kind once and self-test the checker on its output."
    problems, kinds, flagged = [], set(), 0
    for op in ops:
        if op.kind in kinds:
            continue
        kinds.add(op.kind)
        code, out, err, _ = call(tw.cli.main, op.argv(str(indir)))
        problems += check.self_test(op, code, out, err)
        flagged += len(check.CORRUPTIONS[op.kind])
    return problems, len(kinds), flagged


# ------------------------------------------------------------ per-layer


UNITS = {
    "self_s": "s/op",
    "total_s": "s/op",
    "calls": "calls/op",
    "points": "points/op",
    "repeat_ratio": "ratio",
}


def _is_decode(name):
    return name.startswith("serialize.") and (
        "from_json" in name or name.startswith("serialize.parse_")
    )


# span names summed into one metric name; any other name stands for itself
GROUPS = {
    "fourier.arith": lambda n: n in ["fourier.SparseVector." + a for a in ARITH],
    "serialize.decode": _is_decode,
    "serialize.encode": lambda n: n.startswith("serialize.") and not _is_decode(n),
    "cli": lambda n: n == ROOT,
}


def layer_metrics(tracer, n_ops, overhead):
    """The per-layer metrics, per op (a traced CLI call) unless a ratio."""
    totals = tracer.totals()

    def value(name, field):
        if field == "repeat_ratio":
            calls = totals.get(name, (0,))[0]
            return tracer.repeats[tracer.sid.get(name)] / calls if calls else 0.0
        if field == "points":
            return tracer.points[tracer.sid.get(name)] / n_ops
        pred = GROUPS.get(name, lambda n: n == name)
        picked = [t for n, t in totals.items() if pred(n)]
        column = ("calls", "total_s", "self_s").index(field)
        return sum(t[column] for t in picked) / n_ops

    m = {
        "%s.%s" % (name, field): (value(name, field), UNITS[field])
        for name, fields in LAYER_TABLE
        for field in fields
    }
    refusals = sum(
        c for (sid, exc), c in tracer.raised.items()
        if tracer.names[sid] == "cohomology.solve_coboundary" and exc == "NonCocycleError"
    )
    m["cohomology.refusals"] = (refusals / n_ops, "refusals/op")
    m["trace.overhead_ratio"] = (overhead, "ratio")
    return m


# Times that some workload never exercises (smoothness_report is not
# reached on audit; s_vector, c_pairing, word_matrix and verify_relation
# only run on audit).  They are printed and written with the spans, but
# left out of the result line, where they would read exactly 0 on every
# run of that workload.
PRINTED_ONLY = (
    "cohomology.smoothness_report.self_s",
    "cohomology.s_vector.total_s",
    "cohomology.c_pairing.total_s",
    "words.word_matrix.self_s",
    "words.verify_relation.self_s",
)

LAYER_TABLE = (
    ("cohomology.solve_coboundary", ("self_s",)),
    ("fourier.decay_constant", ("self_s", "calls", "repeat_ratio")),
    ("cohomology.smoothness_report", ("self_s",)),
    ("fourier.act", ("self_s", "calls", "points", "repeat_ratio")),
    ("fourier.arith", ("self_s",)),
    ("lattice.twist_matrix", ("self_s", "calls")),
    ("cohomology.relation_residual", ("total_s", "calls")),
    ("cohomology.extend", ("self_s",)),
    ("cohomology.s_vector", ("total_s",)),
    ("cohomology.c_pairing", ("total_s",)),
    ("words.builtin_catalog", ("self_s", "calls")),
    ("words.word_matrix", ("self_s", "calls")),
    ("words.verify_relation", ("self_s", "calls")),
    ("serialize.decode", ("self_s",)),
    ("serialize.encode", ("self_s",)),
    ("cli", ("self_s",)),
)


def print_span_table(tracer, n_ops):
    totals = tracer.totals()
    op_time = totals[ROOT][1] - totals.get(KEY, (0, 0.0))[1]
    print("spans by self time (per op; share of traced call time without %s):" % KEY)
    rows = sorted(totals.items(), key=lambda kv: -kv[1][2])
    for name, (calls, total, own) in rows:
        print(
            "  %-40s self %.6f s  total %.6f s  calls %10.1f  %5.1f%%"
            % (name, own / n_ops, total / n_ops, calls / n_ops, 100 * own / op_time)
        )
    solve = totals.get("cohomology.solve_coboundary")
    if solve:
        print("inside cohomology.solve_coboundary (share of its total time without %s):" % KEY)
        parts = tracer.children_of("cohomology.solve_coboundary")
        parts["(self: candidate set and telescoping)"] = solve[2]
        key = parts.pop(KEY, 0.0)
        for name, t in sorted(parts.items(), key=lambda kv: -kv[1]):
            print("  %-40s %5.1f%%" % (name, 100 * t / (solve[1] - key)))


# ----------------------------------------------------------------- main


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run(args):
    started = perf_counter()
    indir = OUT_DIR / ("in-%d" % os.getpid())
    try:
        times = []
        for _ in range(SETUP_REPEATS):
            gc.collect()  # the previous set-up's module copies are garbage now
            t0 = perf_counter()
            tw, ops, digest = set_up(args.workload, args.seed, indir)
            times.append(perf_counter() - t0)
        setup_s = statistics.median(times)
        print("workload %s  seed %d  %d ops per pass  inputs sha256 %s"
              % (args.workload, args.seed, len(ops), digest))
        print("closed loop, one client, in-process calls of twistlab.cli.main()")

        st_problems, kinds, flagged = self_test(tw, ops, indir)
        print("checker self-test: %d corrupted outputs over %d op kinds, %s"
              % (flagged, kinds, "all flagged" if not st_problems else "NOT all flagged"))
        for p in st_problems:
            print("  self-test: " + p)
        gc.collect()  # drop the replaced module copies now, not inside a timed call

        loop = Loop(tw, ops, indir, started + WALL_LIMIT_S)
        if args.trace:
            metrics, n = traced_run(loop, tw, args)
        else:
            metrics, n = timed_run(loop, args, setup_s)
    finally:
        shutil.rmtree(indir, ignore_errors=True)

    for label, problems in loop.failures[:10]:
        print("FAILED %s: %s" % (label, "; ".join(problems[:3])))
    result = {
        "correct": not loop.failures and not st_problems,
        "attempted": n,
        "failed": len(loop.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))


def timed_run(loop, args, setup_s):
    measured = 0.0
    rates = []  # calls per second of each pass
    while measured < args.seconds and perf_counter() < loop.deadline:
        done = len(loop.samples)
        seconds = loop.run_pass()
        measured += seconds
        rates.append((len(loop.samples) - done) / seconds)
    samples = sorted(loop.samples)
    n = len(samples)
    level = tail_level(n)
    failed = len(loop.failures)
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_p50_s": (percentile(samples, 50), "s"),
        "op_tail_s": (percentile(samples, level), "s"),
        # the median pass, so that a slow spell on a shared core moves it less
        "ops_per_s": (statistics.median(rates), "1/s"),
        "ops_ok_ratio": ((n - failed) / n, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    for name, (value, unit) in metrics.items():
        print("%-16s %.6g %s" % (name, value, unit))
    print("op_tail_s is p%g of %d samples; ops_failed_ratio %.6g (%d of %d calls)"
          % (level, n, failed / n, failed, n))
    return metrics, n


def traced_run(loop, tw, args):
    """Each op runs once untraced and once traced, in alternating order, so
    that the overhead ratio compares the same calls at the same moment."""
    tracer = Tracer()
    untraced = traced = 0.0
    n_traced = 0
    while untraced < args.seconds / 2 and perf_counter() < loop.deadline:
        for i, (op, argv) in enumerate(loop.ops):
            if perf_counter() > loop.deadline:
                break
            for with_trace in (i % 2 == 0, i % 2 == 1):
                if not with_trace:
                    untraced += loop.run_op(op, argv)
                    continue
                tracer.install(tw)
                try:
                    traced += loop.run_op(op, argv, tracer)
                finally:
                    tracer.uninstall()
                n_traced += 1
    metrics = layer_metrics(tracer, n_traced, traced / untraced)
    print_span_table(tracer, n_traced)
    for name, (value, unit) in metrics.items():
        print("%-42s %.6g %s" % (name, value, unit))
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / ("trace-%s.json.gz" % args.workload)
    tracer.write(path, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    print("%d spans of %d traced calls written to %s"
          % (len(tracer.start), n_traced, path.relative_to(ROOT_DIR)))
    return {k: v for k, v in metrics.items() if k not in PRINTED_ONLY}, len(loop.samples)


def main(argv=None):
    args = parse_args(argv)
    try:
        run(args)
    except ImportError as exc:
        print("error: cannot load the program: %s" % exc, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
