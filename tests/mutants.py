"""Mutation check: the tier-1 suite must fail on each of a table of small
deliberate faults in the program.

Usage, from the root of a source checkout:

    python tests/mutants.py

Each row of MUTANTS is (name, file under src/twistlab, exact old text, new
text).  For each row the checkout's src/, tests/, bench/, demos/ and
pyproject.toml are copied to a temporary directory, the old text, which
must occur exactly once in the file, is replaced there, and the suite runs
on the copy with `pytest -x -q`.  A mutant is killed when the suite fails;
the first failing test is printed with it.  The suite first runs once on an
unchanged copy, which must pass, so that a kill means the mutant.  The exit
status is 1 if any mutant survived, 2 if the unchanged copy failed, 0
otherwise.  The file name keeps pytest from collecting this script.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "bench", "demos", "pyproject.toml")

MUTANTS = (
    (
        "matrix_residual skips the last row",
        "words.py",
        "zip(lhs.rows, rhs.rows)",
        "zip(lhs.rows[:-1], rhs.rows[:-1])",
    ),
    (
        "matrix_residual skips the last column",
        "words.py",
        "zip(ra, rb)",
        "zip(ra[:-1], rb[:-1])",
    ),
    (
        "ExactSqrt equals a negative rational of its square",
        "exact.py",
        "            if other < 0:\n                return 1\n",
        "",
    ),
    (
        "smoothness decided from the table's F",
        "cohomology.py",
        "        g_sq = g_table[k].square\n",
        "        g_sq = g_table[k].square\n        fk = next(F for j, F, _ in report.decay if j == k)\n",
    ),
    (
        "smoothness compares k F_k^2, not k^2 F_k^2",
        "cohomology.py",
        "if k * k * fk.square > g_sq:",
        "if k * fk.square > g_sq:",
    ),
    (
        "a failing k walks no witnesses",
        "cohomology.py",
        "for m in f.support:",
        "for m in ():",
    ),
    (
        "a repeated curve id in a relation is kept",
        "serialize.py",
        "        if curve.id in table:\n"
        '            raise ValueError("relation %r names curve %r twice" % (name, curve.id))\n',
        "",
    ),
    (
        "a vector of genus below 3 is taken",
        "serialize.py",
        "    if v.genus < MIN_GENUS:\n",
        "    if False:\n",
    ),
    (
        "a JSON class of another length than 2g is taken",
        "serialize.py",
        "            raise _bad_json(\"coordinate of \" + field, int, a)\n"
        "    if genus is not None and len(coords) != 2 * genus:\n",
        "            raise _bad_json(\"coordinate of \" + field, int, a)\n"
        "    if False:\n",
    ),
    (
        "orbit takes --steps 0",
        "cli.py",
        "    if args.steps < 1:\n",
        "    if False:\n",
    ),
    (
        "an empty generator set is taken",
        "cohomology.py",
        "        if not curves:\n",
        "        if False:\n",
    ),
    (
        "point lines do not skip comments and blank lines",
        "serialize.py",
        "        if not line or line.startswith(\"#\"):\n            continue\n",
        "",
    ),
    (
        "max_relation_residual keeps the first residual",
        "cohomology.py",
        "            worst = r\n",
        "            pass\n",
    ),
    (
        "twist takes a float exponent",
        "fourier.py",
        "    if not isinstance(n, int):\n",
        "    if False:\n",
    ),
    (
        "ExactSqrt takes a negative square",
        "exact.py",
        "        if square < 0:\n",
        "        if False:\n",
    ),
    (
        "inv returns a non-inverse",
        "lattice.py",
        "        if self * cand != SymplecticMatrix.identity(self.dim):\n",
        "        if False:\n",
    ),
    (
        "the JSON writer does not sort keys",
        "serialize.py",
        "for key, value in sorted(x.items()):",
        "for key, value in x.items():",
    ),
    (
        "a bool goes through the JSON writer's int branch",
        "serialize.py",
        "    elif kind is int:\n",
        "    elif kind is int or kind is bool:\n",
    ),
    (
        "the JSON writer drops a list separator",
        "serialize.py",
        '            sep = "," + inner\n        out.append(newline + "]")\n',
        '            sep = inner\n        out.append(newline + "]")\n',
    ),
    (
        "a JSON key given twice is taken",
        "cli.py",
        "    if len(obj) < len(pairs):\n",
        "    if False:\n",
    ),
    (
        "the parser is rebuilt per call",
        "cli.py",
        "@functools.cache",
        '@(lambda f: setattr(f, "cache_clear", lambda: None) or f)',
    ),
    (
        "one Namespace is shared across calls",
        "cli.py",
        "args = build_parser().parse_args(argv)",
        'args = build_parser().parse_args(argv, main.__dict__.setdefault("ns", argparse.Namespace()))',
    ),
    (
        "the vector constructor takes a coordinate tuple as a point",
        "fourier.py",
        "        for m, val in items:\n",
        "        for m, val in items:\n"
        "            if type(m) is tuple:\n"
        "                yield m, GaussianRational.coerce(val)\n"
        "                continue\n",
    ),
    (
        "_summed takes every tuple for a nonzero class",
        "fourier.py",
        "if not any(m) and not full:",
        "if not m and not full:",
    ),
    (
        "coefficient() looks up the class, not its coordinates",
        "fourier.py",
        "self.coeffs.get(m.coords, GaussianRational(0))",
        "self.coeffs.get(m, GaussianRational(0))",
    ),
    (
        "support is left unsorted",
        "fourier.py",
        "for m in sorted(self.coeffs))",
        "for m in self.coeffs)",
    ),
    (
        "the decoder keeps a nonzero value at the zero class",
        "serialize.py",
        "        or (not full and (0,) * (2 * genus) in table)\n",
        "",
    ),
    (
        "the decoder keeps the last of a repeated point",
        "serialize.py",
        "        or len(table) < len(entries)\n",
        "",
    ),
    (
        "a generator set checks only its first curve's type",
        "cohomology.py",
        "isinstance(c, Curve) for c in curves)",
        "isinstance(c, Curve) for c in curves[:1])",
    ),
    (
        "main does not pause the collector",
        "cli.py",
        "    gc.disable()  # a call makes no cyclic garbage; see the module docstring\n",
        "",
    ),
    (
        "main restores the collector only when the call returns",
        "cli.py",
        "    try:\n        return _main(argv)\n    finally:\n        if enabled:\n            gc.enable()\n",
        "    code = _main(argv)\n    if enabled:\n        gc.enable()\n    return code\n",
    ),
    (
        "main enables the collector a caller had disabled",
        "cli.py",
        "        if enabled:\n            gc.enable()\n",
        "        gc.enable()\n",
    ),
    (
        "a missing JSON key is reported as the bare key",
        "cli.py",
        '        key = serialize._cut(repr(exc.args[0]))\n'
        '        raise ValueError("%s: missing key %s" % (args.infile, key)) from None\n',
        "        raise ValueError(exc) from None\n",
    ),
    (
        "signed_norm_sq drops a point whose real part is zero",
        "fourier.py",
        "        if p or r:\n",
        "        if p:\n",
    ),
    (
        "dual_terms with its sign flipped",
        "lattice.py",
        "(k ^ 1, a if k % 2 == 0 else -a)",
        "(k ^ 1, -a if k % 2 == 0 else a)",
    ),
    (
        "g_points counts a point at its own norm, not the larger of n and its twist's",
        "cohomology.py",
        "yield max(n, n - abs(a) + abs(a - w * coords[dual])), val",
        "yield n, val",
    ),
    (
        "the residual certificate keeps only its last term",
        "cohomology.py",
        "residual_sq = max(residual_sq, term)",
        "residual_sq = term",
    ),
    (
        "check-cocycle ignores nonzero s-vectors",
        "cli.py",
        "        clean = clean and not s\n",
        "        clean = clean\n",
    ),
)


def run_suite(file=None, old="", new=""):
    """(failed, first failing test or None) for the suite on a fresh copy,
    with old replaced by new in file unless file is None."""
    with tempfile.TemporaryDirectory(prefix="twistlab-mutant-") as tmp:
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache", "_out")
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, Path(tmp) / name, ignore=ignore)
            else:
                shutil.copy(src, Path(tmp) / name)
        if file is not None:
            path = Path(tmp) / "src" / "twistlab" / file
            text = path.read_text()
            if text.count(old) != 1:
                raise SystemExit("%s: %r occurs %d times, not once" % (file, old, text.count(old)))
            path.write_text(text.replace(old, new))
        env = dict(os.environ, PYTHONPATH=str(Path(tmp) / "src"), PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
            cwd=tmp,
            env=env,
            capture_output=True,
            text=True,
        )
    failed = [line for line in proc.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))]
    return proc.returncode != 0, (failed[0].split()[1] if failed else None)


def main():
    failed, by = run_suite()
    if failed:
        print("the unchanged copy fails (%s); no mutant can be judged" % by)
        return 2
    survivors = 0
    for name, file, old, new in MUTANTS:
        start = time.perf_counter()
        killed, by = run_suite(file, old, new)
        took = time.perf_counter() - start
        survivors += not killed
        verdict = "killed" if killed else "SURVIVED"
        print("%-8s %6.1f s  %s%s" % (verdict, took, name, "  (%s)" % by if by else ""), flush=True)
    print("%d of %d mutants killed" % (len(MUTANTS) - survivors, len(MUTANTS)))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
