"""Wire formats.

Classes are whitespace-separated integer lines "a1 b1 ... ag bg";
matrices are row-major integer grids; sparse vectors are one support
point per line with rational real/imaginary parts "num/den"; relations,
cocycles and solve reports are JSON.  All emitters sort support points
so output is byte-stable.  A rational is written "n" or "n/d" with
decimal digits, an optional sign on n and d > 0; exponents, decimal
points and spaces are refused, so parsing costs no more than the input
is long.  A text coordinate is "n" in the same grammar: ASCII digits
only, no "_" separators.  JSON decoders take integers and booleans only
as JSON integers and booleans, rationals, names and curve ids only as
JSON strings, and objects and arrays only where the format has them: a
float, a string or a bool where an integer belongs, a non-bool where a
flag belongs, a number where a string belongs or a list where an object
belongs is a ValueError that names the field, never a silent coercion
or a crash.
"""

import json
import re
from fractions import Fraction

from .cohomology import Cocycle, GeneratorSet, SolveReport
from .exact import ExactSqrt, GaussianRational
from .fourier import SparseVector
from .lattice import HomologyClass, SymplecticMatrix
from .words import Curve, RelationInstance, TwistWord


def format_fraction(q):
    return "%d/%d" % (q.numerator, q.denominator)


_INTEGER = re.compile(r"[+-]?[0-9]+")
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def parse_fraction(s, field="rational"):
    if type(s) is not str:
        raise _bad_json(field, "string", s)
    match = _RATIONAL.fullmatch(s)
    if match is None:
        raise ValueError("%s must be a rational 'n' or 'n/d', got %r" % (field, s))
    num, den = match.groups()
    den = int(den) if den else 1
    if not den:
        raise ValueError("zero denominator in %r for %s" % (s, field))
    return Fraction(int(num), den)


def format_class(m):
    return " ".join(str(a) for a in m.coords)


def _parse_coords(toks, where):
    # int() alone would also take "1_0" and non-ASCII digits
    for tok in toks:
        if _INTEGER.fullmatch(tok) is None:
            raise ValueError("%s: coordinate %r must be an integer" % (where, tok))
    return tuple(int(tok) for tok in toks)


def parse_class(text, genus=None):
    text = str(text)
    coords = _parse_coords(text.split(), "class %r" % text)
    if genus is not None and len(coords) != 2 * genus:
        raise ValueError("expected %d coordinates, got %d" % (2 * genus, len(coords)))
    return HomologyClass(coords)


def class_to_json(m):
    return list(m.coords)


def _bad_json(field, kind, x):
    try:
        got = json.dumps(x, default=repr)
    except RecursionError:
        got = "a value nested too deeply to print"
    return ValueError("%s must be a JSON %s, got %s" % (field, kind, got))


def _json_int(x, field):
    # type(), not isinstance(): a JSON true/false decodes to a bool, an int subclass
    if type(x) is not int:
        raise _bad_json(field, "integer", x)
    return x


def _json_str(x, field):
    if type(x) is not str:
        raise _bad_json(field, "string", x)
    return x


def _json_bool(x, field):
    if type(x) is not bool:
        raise _bad_json(field, "boolean", x)
    return x


def _json_object(x, field):
    if type(x) is not dict:
        raise _bad_json(field, "object", x)
    return x


def _json_array(x, field, length=None):
    if type(x) is not list:
        raise _bad_json(field, "array", x)
    if length is not None and len(x) != length:
        raise ValueError("%s must have %d entries, got %d" % (field, length, len(x)))
    return x


def class_from_json(obj, genus=None, field="'class'"):
    coords = tuple(_json_array(obj, field))
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
            tuple(
                _json_int(a, "matrix entry (%d, %d)" % (i, j))
                for j, a in enumerate(_json_array(row, "matrix row %d" % i))
            )
            for i, row in enumerate(_json_array(rows, "matrix"))
        )
    )


def sqrt_to_json(x):
    return {"square": format_fraction(x.square), "approx": float(x)}


def sqrt_from_json(obj, field="'square'"):
    square = _json_object(obj, "the object holding " + field)["square"]
    return ExactSqrt(parse_fraction(square, field))


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
        coords = _parse_coords(toks[:-2], "line %d" % lineno)
        if genus is None:
            genus = len(coords) // 2
        m = HomologyClass(coords)
        at = " on line %d" % lineno
        val = GaussianRational(
            parse_fraction(toks[-2], "'re'" + at), parse_fraction(toks[-1], "'im'" + at)
        )
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


def sparse_from_json(obj, field="sparse vector"):
    obj = _json_object(obj, field)
    genus = _json_int(obj["genus"], "'genus'")
    full = _json_bool(obj.get("full", False), "'full'")
    entries = []
    for entry in _json_array(obj.get("coefficients", []), "'coefficients'"):
        m = class_from_json(_json_object(entry, "coefficient")["class"], genus)
        try:
            real = parse_fraction(entry["re"])
            imag = parse_fraction(entry["im"])
        except ValueError:
            # the message names the point; formatting it costs more than parsing
            at = " of the coefficient at %s" % m
            real = parse_fraction(entry["re"], "'re'" + at)
            imag = parse_fraction(entry["im"], "'im'" + at)
        entries.append((m, GaussianRational(real, imag)))
    return SparseVector(genus, entries, full=full)


def curve_to_json(c):
    return {"id": c.id, "cls": class_to_json(c.cls), "separating": c.separating}


def curve_from_json(obj, genus=None):
    cid = _json_str(_json_object(obj, "curve")["id"], "'id' of a curve")
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
    for letter in _json_array(obj, field):
        cid, e = _json_array(letter, "letter of " + field, 2)
        _json_str(cid, "curve id of a letter of " + field)
        if type(e) is not int:
            raise _bad_json("exponent of %r in %s" % (cid, field), "integer", e)
        letters.append((cid, e))
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
    _json_object(obj, "relation")
    intersections = []
    for entry in _json_array(obj.get("intersections", []), "'intersections'"):
        a, b, n = _json_array(entry, "entry of 'intersections'", 3)
        _json_str(a, "first curve id of an entry of 'intersections'")
        _json_str(b, "second curve id of an entry of 'intersections'")
        if type(n) is not int:
            raise _bad_json("intersection number of %r and %r" % (a, b), "integer", n)
        intersections.append((a, b, n))
    return RelationInstance(
        name=_json_str(obj["name"], "'name' of a relation"),
        curves=tuple(curve_from_json(c) for c in _json_array(obj["curves"], "'curves'")),
        lhs=word_from_json(obj["lhs"], "'lhs'"),
        rhs=word_from_json(obj["rhs"], "'rhs'"),
        intersections=tuple(intersections),
    )


def relations_from_json(obj):
    return [relation_from_json(rel) for rel in _json_array(obj, "relation file")]


def cocycle_to_json(u):
    return {
        "genus": u.genus,
        "generators": [curve_to_json(c) for c in u.gens],
        "values": {cid: sparse_to_json(u.value(cid)) for cid in u.gens.ids()},
    }


def cocycle_from_json(obj):
    genus = _json_int(_json_object(obj, "cocycle")["genus"], "'genus'")
    generators = _json_array(obj["generators"], "'generators'")
    gens = GeneratorSet(curve_from_json(c, genus) for c in generators)
    values = {
        cid: sparse_from_json(v, "value of %r" % cid)
        for cid, v in _json_object(obj["values"], "'values'").items()
    }
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
    _json_object(obj, "solve report")
    decay = []
    for e in _json_array(obj.get("decay", []), "'decay'"):
        k = _json_int(_json_object(e, "decay entry")["k"], "'k' of a decay entry")
        at = " of the decay entry with k = %d" % k
        fk = sqrt_from_json(e["F"], "'square' of 'F'" + at)
        decay.append((k, fk, sqrt_from_json(e["G"], "'square' of 'G'" + at)))
    return SolveReport(
        f=sparse_from_json(obj["f"], "'f'"),
        residual=sqrt_from_json(obj["residual"], "'square' of the residual"),
        decay=tuple(decay),
    )
