"""Print one sha256 per benchmark workload and seed, to show that a change
leaves every CLI output byte-identical.

    python tests/golden/ops_digest.py

Builds the ops of bench/inputs.py (read-only) for each workload at seeds
1, 3 and 7, writes their input files to a temporary directory and runs
each op through twistlab.cli.main in-process, from the src/ directory of
the checkout this script sits in.  A digest covers the label, exit code,
stdout and stderr of every op, in order, with the temporary directory
replaced by a fixed token.  One more digest covers verify-relations and
verify-relations --dump-catalog at g = 3..8.  Run it in two checkouts and
compare the lines.

ops_digest.txt holds the lines of the current output, and
tests/test_golden.py recomputes them.  A change that alters CLI output on
purpose regenerates that file,

    python tests/golden/ops_digest.py > tests/golden/ops_digest.txt

and records why in CHANGES.md.
"""

import contextlib
import hashlib
import io
import pathlib
import sys
import tempfile
import traceback

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.dont_write_bytecode = True  # leave no cache files under bench/
sys.path.insert(0, str(ROOT / "bench"))
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
from twistlab.cli import main  # noqa: E402

SEEDS = (1, 3, 7)
INDIR_TOKEN = "<indir>"


def run_cli(argv):
    "(exit code, stdout, stderr) of one in-process CLI call."
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = None
            traceback.print_exc()
    return code, out.getvalue(), err.getvalue()


def digest(labelled_argvs, indir=None):
    "sha256 over (label, exit code, stdout, stderr) of each (label, argv)."
    h = hashlib.sha256()
    for label, argv in labelled_argvs:
        code, out, err = run_cli(argv)
        for part in (label, repr(code), out, err):
            if indir is not None:
                part = part.replace(indir, INDIR_TOKEN)
            data = part.encode()
            h.update(b"%d\0" % len(data) + data)
    return h.hexdigest()


def workload_digest(workload, seed):
    ops = inputs.generate(workload, seed)
    with tempfile.TemporaryDirectory() as indir:
        inputs.write_files(ops, indir)
        return digest(((op.label, op.argv(indir)) for op in ops), indir)


def catalog_digest():
    argvs = []
    for g in range(3, 9):
        argvs.append(("verify-relations-g%d" % g, ["verify-relations", "--genus", str(g)]))
        argvs.append(
            ("dump-catalog-g%d" % g, ["verify-relations", "--dump-catalog", "--genus", str(g)])
        )
    return digest(argvs)


def print_digests():
    for workload in inputs.WORKLOADS:
        for seed in SEEDS:
            print("%-14s seed %d  %s" % (workload, seed, workload_digest(workload, seed)))
    print("%-21s  %s" % ("catalog g=3..8", catalog_digest()))


if __name__ == "__main__":
    print_digests()
