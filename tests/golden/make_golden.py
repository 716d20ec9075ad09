"""Regenerate the golden CLI outputs in this directory.

    PYTHONPATH=src python tests/golden/make_golden.py

Writes the small g = 3/4 input files, then runs each case of CASES through
twistlab.cli.main in-process and stores its stdout (<case>.stdout), stderr
(<case>.stderr) and exit code (in cases.json).  tests/test_golden.py
compares the CLI against these files byte for byte, so regenerate only
when an output change is intended, and record the generating commit.
"""

import contextlib
import io
import json
import pathlib
import random
import sys
from fractions import Fraction

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from helpers import rand_sparse  # noqa: E402
from twistlab import (  # noqa: E402
    Cocycle,
    GaussianRational,
    GeneratorSet,
    HomologyClass,
    SparseVector,
    coboundary,
    x_basis,
    y_basis,
)
from twistlab import serialize as ser  # noqa: E402
from twistlab.cli import main  # noqa: E402
from twistlab.words import Curve, RelationInstance, TwistWord  # noqa: E402

# case name -> argv, with "@name" standing for the input file HERE/name
CASES = {
    "solve-clean-g3": ["solve", "--genus", "3", "--in", "@clean-g3.json"],
    "solve-residual-g4": ["solve", "--genus", "4", "--in", "@extra-gen-g4.json"],
    "solve-refused-g4": ["solve", "--genus", "4", "--in", "@perturbed-g4.json"],
    "solve-refused-guard-g3": ["solve", "--genus", "3", "--in", "@guard-g3.json"],
    "solve-refused-long-residual-g3": ["solve", "--in", "@long-residual-g3.json"],
    "check-cocycle-clean-g3": ["check-cocycle", "--in", "@clean-g3.json"],
    "check-cocycle-perturbed-g4": ["check-cocycle", "--in", "@perturbed-g4.json"],
    "check-cocycle-extra-gen-g4": ["check-cocycle", "--in", "@extra-gen-g4.json"],
    "decay-report-text-g4": ["decay-report", "--in", "@vector-g4.txt", "--kmax", "5"],
    "decay-report-json-g3": [
        "decay-report", "--in", "@vector-g3.json", "--kmax", "4", "--format", "json",
    ],
    "verify-relations-g3": ["verify-relations", "--genus", "3"],
    "verify-relations-g6": ["verify-relations", "--genus", "6"],
    "verify-relations-g8": ["verify-relations", "--genus", "8"],
    "dump-catalog-g3": ["verify-relations", "--dump-catalog", "--genus", "3"],
    "dump-catalog-g6": ["verify-relations", "--dump-catalog", "--genus", "6"],
    "verify-relations-file-g4": ["verify-relations", "--genus", "4", "--in", "@relations-g4.json"],
    "verify-relations-bad-pairing-g4": [
        "verify-relations", "--genus", "4", "--in", "@bad-pairing-g4.json",
    ],
}


def argv_for(case, directory=HERE):
    return [str(directory / a[1:]) if a.startswith("@") else a for a in CASES[case]]


def run_cli(argv):
    "(exit code, stdout, stderr) of one in-process CLI call."
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _dump(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def write_inputs():
    rng = random.Random(7001)

    gens3 = GeneratorSet.symplectic_basis(3)
    f3 = rand_sparse(rng, 3, 6, coord_bound=2, num_bound=50, den_bound=12)
    (HERE / "clean-g3.json").write_text(_dump(ser.cocycle_to_json(coboundary(f3, gens3))))

    # d e_p on u(x1), p fixed by the twists about x1, y1, y2 and moved by x2:
    # refused at commuting-x1-x2
    gens4 = GeneratorSet.symplectic_basis(4)
    f4 = rand_sparse(rng, 4, 5, coord_bound=2, num_bound=50, den_bound=12)
    u4 = coboundary(f4, gens4)
    bump = SparseVector.basis(
        HomologyClass((0, 0, 0, 2, 1, -1, 0, 1)), GaussianRational(Fraction(3, 4), -1)
    )
    values = dict(u4.values, x1=u4.value("x1") + bump)
    (HERE / "perturbed-g4.json").write_text(
        _dump(ser.cocycle_to_json(Cocycle(gens4, values)))
    )

    # an extra generator y1 - y2 that no catalog relation mentions: the
    # pre-check passes and the certificate is nonzero (exit 1)
    extra = GeneratorSet.symplectic_basis(4, (Curve("c1", y_basis(4, 1) - y_basis(4, 2)),))
    u = coboundary(f4, extra)
    values = dict(u.values, c1=u.value("c1") + bump)
    (HERE / "extra-gen-g4.json").write_text(
        _dump(ser.cocycle_to_json(Cocycle(extra, values)))
    )

    # one point far up the y1 line: its telescope would emit 10^6 points, so
    # the relation check runs first and refuses at braid-x1-y1
    values = {c.id: SparseVector.zero(3) for c in gens3}
    values["y1"] = SparseVector.basis(HomologyClass((1, 10**6, 0, 0, 0, 0)))
    (HERE / "guard-g3.json").write_text(_dump(ser.cocycle_to_json(Cocycle(gens3, values))))

    # u(x1) = 10^2200 e_p, p as in perturbed-g4: refused at commuting-x1-x2
    # with a residual square of 4,401 digits, past the integer-string limit
    values = {c.id: SparseVector.zero(3) for c in gens3}
    values["x1"] = SparseVector.basis(HomologyClass((0, 0, 0, 2, 1, 0)), 10**2200)
    (HERE / "long-residual-g3.json").write_text(
        _dump(ser.cocycle_to_json(Cocycle(gens3, values)))
    )

    (HERE / "vector-g4.txt").write_text(
        ser.format_sparse_lines(rand_sparse(rng, 4, 12, num_bound=10**4, den_bound=10**3))
    )
    (HERE / "vector-g3.json").write_text(
        _dump(ser.sparse_to_json(rand_sparse(rng, 3, 12, num_bound=10**4, den_bound=10**3)))
    )


def _relation(name, classes, lhs, rhs, pairings):
    curves = tuple(Curve(cid, cls) for cid, cls in classes.items())
    return ser.relation_to_json(
        RelationInstance(name, curves, TwistWord(lhs), TwistWord(rhs), pairings)
    )


def write_relation_inputs():
    x1, y1, x2, y2 = x_basis(4, 1), y_basis(4, 1), x_basis(4, 2), y_basis(4, 2)
    ab, ba = (("a", 1), ("b", 1)), (("b", 1), ("a", 1))
    aba, bab = ab + (("a", 1),), ba + (("b", 1),)
    # two relations that hold and two that fail, each with true pairings
    relations = [
        _relation("commuting-x1-y2", dict(a=x1, b=y2), ab, ba, (("a", "b", 0),)),
        _relation("braid-x1-y1", dict(a=x1, b=y1), aba, bab, (("a", "b", 1),)),
        _relation("commuting-x2-y2", dict(a=x2, b=y2), ab, ba, (("a", "b", 1),)),
        _relation("braid-x1-2y2", dict(a=x1, b=2 * y2), aba, bab, (("a", "b", 0),)),
    ]
    (HERE / "relations-g4.json").write_text(_dump(relations))
    # a relation that holds, declared with a pairing its classes contradict
    wrong = [_relation("commuting-x1-x2", dict(a=x1, b=x2), ab, ba, (("a", "b", 1),))]
    (HERE / "bad-pairing-g4.json").write_text(_dump(wrong))


def regenerate():
    write_inputs()
    write_relation_inputs()
    codes = {}
    for case in CASES:
        code, out, err = run_cli(argv_for(case))
        (HERE / (case + ".stdout")).write_text(out)
        (HERE / (case + ".stderr")).write_text(err)
        codes[case] = code
    (HERE / "cases.json").write_text(_dump(codes))


if __name__ == "__main__":
    regenerate()
