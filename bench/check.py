"""Independent verdict checks for every CLI call the benchmark makes.

Each check takes the op (with the verdict inputs.py derived from the
generated data), the exit code and the captured stdout/stderr, and returns
a list of problems; an empty list means the call gave exactly the expected
verdict.  Nothing here imports twistlab: expected values are recomputed
from the generated data with the standard library.

CORRUPTIONS holds deliberately wrong outputs per op kind; self_test()
shows that the checks flag each of them.
"""

import json
from fractions import Fraction
from math import sqrt

from inputs import BASIS_RELATIONS, CATALOG_NAMES, abs2, basis, basis_name, frac, norm1, transvect


def _sqrt_problem(what, obj, square):
    want = frac(Fraction(square))
    if obj.get("square") != want:
        return ["%s: square %s, expected %s" % (what, obj.get("square"), want)]
    if obj.get("approx") != sqrt(float(Fraction(square))):
        return ["%s: approx %r does not match its square" % (what, obj.get("approx"))]
    return []


def _parse_vector(obj):
    return {
        tuple(e["class"]): (Fraction(e["re"]), Fraction(e["im"]))
        for e in obj["coefficients"]
    }


def _decay_square(vec, k):
    return max((norm1(m) ** (2 * k) * abs2(c) for m, c in vec.items()), default=0)


def expected_decay(op):
    "(k, F_k^2 of f, G_{k+1}^2 of the basis twist values) for k = 2..5."
    e = op.expect
    if "decay" not in e:
        g = e["genus"]
        twisted = []
        for idx in range(2 * g):
            vp = e["values"][basis_name(idx)]
            twisted.append(vp)
            # value of the inverse twist: -t_c^-1 u(c), a relabelling
            twisted.append({transvect(basis(g, idx), -1, m): c for m, c in vp.items()})
        e["decay"] = [
            (k, _decay_square(e["f"], k), max(_decay_square(v, k + 1) for v in twisted))
            for k in range(2, 6)
        ]
    return e["decay"]


def check_solve(op, code, out, err):
    if code != 0:
        return ["exit %r, expected 0" % (code,)]
    rep = json.loads(out)
    problems = []
    if rep.get("genus") != op.expect["genus"]:
        problems.append("genus %r" % rep.get("genus"))
    if _parse_vector(rep["f"]) != op.expect["f"]:
        problems.append("reconstructed primitive differs from the generated one")
    problems += _sqrt_problem("residual", rep["residual"], 0)
    decay = rep.get("decay", [])
    want = expected_decay(op)
    if [d.get("k") for d in decay] != [k for k, _, _ in want]:
        problems.append("decay table orders %r" % [d.get("k") for d in decay])
    else:
        for d, (k, f2, g2) in zip(decay, want):
            problems += _sqrt_problem("F_%d" % k, d["F"], f2)
            problems += _sqrt_problem("G_%d" % (k + 1), d["G"], g2)
    if rep.get("smoothness") != [{"k": k, "passed": True} for k in range(2, 6)]:
        problems.append("smoothness checks %r" % rep.get("smoothness"))
    return problems


def check_refused(op, code, out, err):
    problems = []
    if code != 2:
        problems.append("exit %r, expected 2" % (code,))
    if out:
        problems.append("a refused solve wrote a report")
    if "'%s'" % op.expect["relation"] not in err:
        problems.append("refusal does not name %s: %r" % (op.expect["relation"], err[:200]))
    return problems


def check_cocycle(op, code, out, err):
    e = op.expect
    dirty = any(e["residuals"].values()) or any(e["s_norms"].values())
    problems = []
    if code != (1 if dirty else 0):
        problems.append("exit %r for a %s cocycle" % (code, "perturbed" if dirty else "clean"))
    rep = json.loads(out)
    if rep.get("genus") != e["genus"]:
        problems.append("genus %r" % rep.get("genus"))
    if rep.get("all_zero") is not (not dirty):
        problems.append("all_zero %r" % rep.get("all_zero"))
    rel = rep.get("relation_residuals", [])
    if [r.get("name") for r in rel] != list(BASIS_RELATIONS):
        problems.append("relations checked %r" % [r.get("name") for r in rel])
    else:
        for r in rel:
            problems += _sqrt_problem(r["name"], r["residual"], e["residuals"][r["name"]])
    gens = [basis_name(i) for i in range(2 * e["genus"])]
    s = rep.get("s_norms", [])
    if [x.get("id") for x in s] != gens:
        problems.append("s-vector ids %r" % [x.get("id") for x in s])
    else:
        for x in s:
            problems += _sqrt_problem("s(%s)" % x["id"], x["norm"], e["s_norms"].get(x["id"], 0))
    pairs = [{"a": a, "b": b, "re": "0/1", "im": "0/1"} for i, a in enumerate(gens) for b in gens[i + 1 :]]
    if rep.get("pairings") != pairs:
        problems.append("pairings differ from the expected zero pairings")
    return problems


def check_catalog(op, code, out, err):
    problems = [] if code == 0 else ["exit %r, expected 0" % (code,)]
    rep = json.loads(out)
    want = [{"name": n, "passed": True, "matrix_residual": 0} for n in CATALOG_NAMES]
    if rep.get("genus") != op.expect["genus"] or rep.get("instances") != want:
        problems.append("catalog report differs from the ten passing instances")
    if rep.get("all_passed") is not True or rep.get("failed") != []:
        problems.append("catalog not reported as all passed")
    return problems


def check_relfile(op, code, out, err):
    problems = [] if code == 1 else ["exit %r, expected 1" % (code,)]
    rep = json.loads(out)
    inst = op.expect["instances"]
    want = [{"name": n, "passed": ok, "matrix_residual": r} for n, ok, r in inst]
    if rep.get("instances") != want:
        problems.append("instances %r" % rep.get("instances"))
    failed = [n for n, ok, _ in inst if not ok]
    if rep.get("failed") != failed or rep.get("all_passed") is not False:
        problems.append("failed %r, expected %r" % (rep.get("failed"), failed))
    if ", ".join(failed) not in err:
        problems.append("stderr does not list the failed relations")
    return problems


def check_decay(op, code, out, err):
    problems = [] if code == 0 else ["exit %r, expected 0" % (code,)]
    rep = json.loads(out)
    kmax, vec = op.expect["kmax"], op.expect["vec"]
    rows = rep.get("constants", [])
    if rep.get("kmax") != kmax or [r.get("k") for r in rows] != list(range(kmax + 1)):
        return problems + ["decay rows %r" % [r.get("k") for r in rows]]
    for r in rows:
        problems += _sqrt_problem("F_%d" % r["k"], r["F"], _decay_square(vec, r["k"]))
    return problems


CHECKS = {
    "solve": check_solve,
    "solve-refused": check_refused,
    "check-cocycle": check_cocycle,
    "verify-builtin": check_catalog,
    "verify-file": check_relfile,
    "decay-report": check_decay,
}


def check(op, code, out, err):
    try:
        return CHECKS[op.kind](op, code, out, err)
    except (ValueError, KeyError, IndexError, TypeError, AttributeError, ZeroDivisionError) as exc:
        return ["unreadable output: %s: %s" % (type(exc).__name__, exc)]


# --------------------------------------------------------------- self-test


def _edit_json(fn):
    def corrupt(code, out, err):
        obj = json.loads(out)
        fn(obj)
        return code, json.dumps(obj), err

    return corrupt


def _bump_first_coefficient(rep):
    e = rep["f"]["coefficients"][0]
    q = Fraction(e["re"]) + 1
    e["re"] = frac(q)


def _set(path, value):
    def edit(obj):
        *head, last = path
        for p in head:
            obj = obj[p]
        obj[last] = value

    return edit


def _wrong_code(code, out, err):
    return (code or 0) + 1, out, err


CORRUPTIONS = {
    "solve": [
        ("primitive coefficient +1", _edit_json(_bump_first_coefficient)),
        ("dropped support point", _edit_json(lambda r: r["f"]["coefficients"].pop())),
        ("residual square 1/1", _edit_json(_set(("residual", "square"), "1/1"))),
        ("failed smoothness check", _edit_json(_set(("smoothness", 0, "passed"), False))),
        ("wrong F_2", _edit_json(_set(("decay", 0, "F", "square"), "1/1"))),
        ("exit code", _wrong_code),
    ],
    "solve-refused": [
        ("exit code", _wrong_code),
        ("other relation named", lambda c, o, e: (c, o, e.replace("commuting-x1-x2", "braid-x1-y1"))),
    ],
    "check-cocycle": [
        ("all_zero flipped", _edit_json(lambda r: r.update(all_zero=not r["all_zero"]))),
        ("residual changed", _edit_json(_set(("relation_residuals", 0, "residual", "square"), "7/1"))),
        ("s-norm changed", _edit_json(_set(("s_norms", 1, "norm", "square"), "7/1"))),
        ("exit code", _wrong_code),
    ],
    "verify-builtin": [
        ("all_passed false", _edit_json(_set(("all_passed",), False))),
        ("instance residual", _edit_json(_set(("instances", 0, "matrix_residual"), 1))),
        ("exit code", _wrong_code),
    ],
    "verify-file": [
        ("failed list emptied", _edit_json(_set(("failed",), []))),
        ("instance passed flipped", _edit_json(lambda r: r["instances"][0].update(passed=not r["instances"][0]["passed"]))),
        ("exit code", _wrong_code),
    ],
    "decay-report": [
        ("F_5 changed", _edit_json(_set(("constants", -1, "F", "square"), "1/1"))),
        ("row dropped", _edit_json(lambda r: r["constants"].pop())),
        ("exit code", _wrong_code),
    ],
}


def self_test(op, code, out, err):
    """Problems with the checker itself on one real call: the genuine output
    must pass and every corrupted version of it must be flagged."""
    problems = ["genuine output flagged: %s" % p for p in check(op, code, out, err)]
    if problems:
        return problems  # the corruptions assume a well-formed genuine output
    for what, corrupt in CORRUPTIONS[op.kind]:
        if not check(op, *corrupt(code, out, err)):
            problems.append("%s: corrupted output (%s) passed the check" % (op.kind, what))
    return problems
