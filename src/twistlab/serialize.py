"""Wire formats.

Classes are whitespace-separated integer lines "a1 b1 ... ag bg";
matrices are row-major integer grids; sparse vectors are one support
point per line with rational real/imaginary parts "num/den"; relations,
cocycles and solve reports are JSON.  All emitters sort support points
so output is byte-stable.  JSON decoders take integers and booleans only
as JSON integers and booleans, and rationals only as JSON strings: a
float, a string or a bool where an integer belongs, a non-bool where a
flag belongs, or a number where a rational string belongs is a ValueError
that names the field, never a silent coercion.
"""

import json
from fractions import Fraction

from .cohomology import Cocycle, GeneratorSet, SolveReport
from .exact import ExactSqrt, GaussianRational
from .fourier import SparseVector
from .lattice import HomologyClass, SymplecticMatrix
from .words import Curve, RelationInstance, TwistWord


def format_fraction(q):
    return "%d/%d" % (q.numerator, q.denominator)


def parse_fraction(s):
    try:
        return Fraction(str(s).strip())
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % (s,)) from None


def format_class(m):
    return " ".join(str(a) for a in m.coords)


def parse_class(text, genus=None):
    coords = tuple(int(tok) for tok in str(text).split())
    if genus is not None and len(coords) != 2 * genus:
        raise ValueError("expected %d coordinates, got %d" % (2 * genus, len(coords)))
    return HomologyClass(coords)


def class_to_json(m):
    return list(m.coords)


def _bad_json(field, kind, x):
    got = json.dumps(x, default=repr)
    return ValueError("%s must be a JSON %s, got %s" % (field, kind, got))


def _json_int(x, field):
    # type(), not isinstance(): a JSON true/false decodes to a bool, an int subclass
    if type(x) is not int:
        raise _bad_json(field, "integer", x)
    return x


def _json_bool(x, field):
    if type(x) is not bool:
        raise _bad_json(field, "boolean", x)
    return x


def class_from_json(obj, genus=None, field="'class'"):
    coords = tuple(obj)
    for a in coords:
        if type(a) is not int:
            raise _bad_json("coordinate of " + field, "integer", a)
    if genus is not None and len(coords) != 2 * genus:
        raise ValueError("expected %d coordinates, got %d" % (2 * genus, len(coords)))
    return HomologyClass(coords)


def matrix_to_json(M):
    return [list(row) for row in M.rows]


def matrix_from_json(rows):
    return SymplecticMatrix(
        tuple(
            tuple(_json_int(a, "matrix entry (%d, %d)" % (i, j)) for j, a in enumerate(row))
            for i, row in enumerate(rows)
        )
    )


def sqrt_to_json(x):
    return {"square": format_fraction(x.square), "approx": float(x)}


def sqrt_from_json(obj, field="'square'"):
    square = obj["square"]
    if type(square) is not str:
        raise _bad_json(field, "string", square)
    return ExactSqrt(parse_fraction(square))


def _sorted_items(v):
    return sorted(v.items(), key=lambda kv: kv[0].coords)


def format_sparse_lines(v):
    lines = []
    for m, val in _sorted_items(v):
        lines.append(
            "%s  %s  %s" % (format_class(m), format_fraction(val.re), format_fraction(val.im))
        )
    return "\n".join(lines) + ("\n" if lines else "")


def parse_sparse_lines(text, genus=None, full=False):
    entries = []
    for lineno, line in enumerate(str(text).splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        toks = line.split()
        if len(toks) < 4 or len(toks) % 2:
            raise ValueError("line %d: expected 'a1 b1 ... ag bg re im'" % lineno)
        coords = tuple(int(t) for t in toks[:-2])
        if genus is None:
            genus = len(coords) // 2
        m = HomologyClass(coords)
        val = GaussianRational(parse_fraction(toks[-2]), parse_fraction(toks[-1]))
        entries.append((m, val))
    if genus is None:
        raise ValueError("empty sparse vector file needs an explicit genus")
    return SparseVector(genus, entries, full=full)


def sparse_to_json(v):
    return {
        "genus": v.genus,
        "full": v.full,
        "coefficients": [
            {
                "class": class_to_json(m),
                "re": format_fraction(val.re),
                "im": format_fraction(val.im),
            }
            for m, val in _sorted_items(v)
        ],
    }


def sparse_from_json(obj):
    genus = _json_int(obj["genus"], "'genus'")
    full = _json_bool(obj.get("full", False), "'full'")
    entries = []
    for entry in obj.get("coefficients", ()):
        m = class_from_json(entry["class"], genus)
        re, im = entry["re"], entry["im"]
        if type(re) is not str or type(im) is not str:
            part = "re" if type(re) is not str else "im"
            at = "'%s' of the coefficient at %s" % (part, m)
            raise _bad_json(at, "string", entry[part])
        entries.append((m, GaussianRational(parse_fraction(re), parse_fraction(im))))
    return SparseVector(genus, entries, full=full)


def curve_to_json(c):
    return {"id": c.id, "cls": class_to_json(c.cls), "separating": c.separating}


def curve_from_json(obj, genus=None):
    cid = str(obj["id"])
    return Curve(
        id=cid,
        cls=class_from_json(obj["cls"], genus, "'cls' of curve %r" % cid),
        separating=_json_bool(
            obj.get("separating", False), "'separating' of curve %r" % cid
        ),
    )


def word_to_json(w):
    return [[cid, e] for cid, e in w.letters]


def word_from_json(obj, field="'word'"):
    letters = []
    for cid, e in obj:
        if type(e) is not int:
            raise _bad_json("exponent of %r in %s" % (str(cid), field), "integer", e)
        letters.append((str(cid), e))
    return TwistWord(tuple(letters))


def relation_to_json(rel):
    return {
        "name": rel.name,
        "curves": [curve_to_json(c) for c in rel.curves],
        "lhs": word_to_json(rel.lhs),
        "rhs": word_to_json(rel.rhs),
        "intersections": [[a, b, n] for a, b, n in rel.intersections],
    }


def relation_from_json(obj):
    intersections = []
    for a, b, n in obj.get("intersections", ()):
        if type(n) is not int:
            raise _bad_json("intersection number of %r and %r" % (a, b), "integer", n)
        intersections.append((str(a), str(b), n))
    return RelationInstance(
        name=str(obj["name"]),
        curves=tuple(curve_from_json(c) for c in obj["curves"]),
        lhs=word_from_json(obj["lhs"], "'lhs'"),
        rhs=word_from_json(obj["rhs"], "'rhs'"),
        intersections=tuple(intersections),
    )


def cocycle_to_json(u):
    return {
        "genus": u.genus,
        "generators": [curve_to_json(c) for c in u.gens],
        "values": {cid: sparse_to_json(u.value(cid)) for cid in u.gens.ids()},
    }


def cocycle_from_json(obj):
    genus = _json_int(obj["genus"], "'genus'")
    gens = GeneratorSet(curve_from_json(c, genus) for c in obj["generators"])
    values = {cid: sparse_from_json(v) for cid, v in obj["values"].items()}
    return Cocycle(gens, values)


def report_to_json(rep):
    return {
        "genus": rep.f.genus,
        "f": sparse_to_json(rep.f),
        "residual": sqrt_to_json(rep.residual),
        "decay": [
            {"k": k, "F": sqrt_to_json(fk), "G": sqrt_to_json(gk)}
            for k, fk, gk in rep.decay
        ],
    }


def report_from_json(obj):
    decay = []
    for e in obj.get("decay", ()):
        k = _json_int(e["k"], "'k' of a decay entry")
        at = " of the decay entry with k = %d" % k
        fk = sqrt_from_json(e["F"], "'square' of 'F'" + at)
        decay.append((k, fk, sqrt_from_json(e["G"], "'square' of 'G'" + at)))
    return SolveReport(
        f=sparse_from_json(obj["f"]),
        residual=sqrt_from_json(obj["residual"], "'square' of the residual"),
        decay=tuple(decay),
    )
