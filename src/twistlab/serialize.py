"""Wire formats.

Classes are whitespace-separated integer lines "a1 b1 ... ag bg";
matrices are row-major integer grids; sparse vectors are one support
point per line with rational real/imaginary parts "num/den"; relations,
cocycles and solve reports are JSON, written by json_text as
json.dumps(indent=2, sort_keys=True) writes it.  All emitters sort
support points so output is byte-stable.  A rational is written "n" or
"n/d" with decimal digits, an optional sign on n and d > 0; exponents,
decimal points and spaces are refused, so parsing costs no more than the
input is long.  A text coordinate is "n" in the same grammar: ASCII
digits only, no "_" separators.  An integer in either longer than
sys.get_int_max_str_digits() is refused with an error naming its field,
while an emitted rational is printed in full at any length.  JSON
decoders take integers and booleans only as JSON integers and booleans,
rationals, names and curve ids only as JSON strings, and objects and
arrays only where the format has them: a float, a string or a bool where
an integer belongs, a non-bool where a flag belongs, a number where a
string belongs or a list where an object belongs is a ValueError that
names the field, never a silent coercion or a crash.  The error quotes
the refused value, cut after 80 characters.
"""

import json
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_string

from .cohomology import Cocycle, GeneratorSet, SolveReport
from .exact import ExactSqrt, GaussianRational, format_fraction
from .fourier import SparseVector, _summed
from .lattice import MIN_GENUS, HomologyClass, SymplecticMatrix
from .words import Curve, RelationInstance, TwistWord


def _too_long(field):
    "The refusal of an integer string that int() takes past the digit limit."
    return ValueError("%s has more than %d digits" % (field, sys.get_int_max_str_digits()))


def json_text(obj):
    """obj as the text json.dumps(obj, indent=2, sort_keys=True) writes,
    byte for byte, for a tree of dicts with string keys, lists, strings,
    ints, floats, bools and None.  With an indent, json.dumps runs its
    pure-Python encoder; here each token goes into one list and strings
    go through json's C escaper."""
    out = []
    _write_json(obj, out, "\n")
    return "".join(out)


def _write_json(x, out, newline):
    # type(), not isinstance(): a bool is an int subclass, and True must print true
    kind = type(x)
    if kind is str:
        out.append(_json_string(x))
    elif kind is int:
        out.append(int.__repr__(x))
    elif kind is bool:
        out.append("true" if x else "false")
    elif x is None:
        out.append("null")
    elif kind is float:
        out.append(_json_float(x))
    elif kind is dict:
        if not x:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, value in sorted(x.items()):
            out.append(sep + _json_string(key) + ": ")
            _write_json(value, out, inner)
            sep = "," + inner
        out.append(newline + "}")
    elif kind is list:
        if not x:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for value in x:
            out.append(sep)
            _write_json(value, out, inner)
            sep = "," + inner
        out.append(newline + "]")
    else:
        raise TypeError("Object of type %s is not JSON serializable" % kind.__name__)


_INF = float("inf")


def _json_float(x):
    "json's float text: repr, or NaN, Infinity and -Infinity."
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


_INTEGER = re.compile(r"[+-]?[0-9]+")
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def parse_fraction(s, field="rational"):
    if type(s) is not str:
        raise _bad_json(field, str, s)
    match = _RATIONAL.fullmatch(s)
    if match is None:
        raise ValueError("%s must be a rational 'n' or 'n/d', got %r" % (field, s))
    num, den = match.groups()
    try:
        num, den = int(num), int(den) if den else 1
    except ValueError:
        raise _too_long(field) from None
    if not den:
        raise ValueError("zero denominator in %r for %s" % (s, field))
    return Fraction(num, den)


def format_class(m):
    return str(m)


def _parse_coords(toks, where):
    # int() alone would also take "1_0" and non-ASCII digits
    for tok in toks:
        if _INTEGER.fullmatch(tok) is None:
            raise ValueError("%s: coordinate %r must be an integer" % (where, tok))
    try:
        return tuple(int(tok) for tok in toks)
    except ValueError:
        raise _too_long(where + ": a coordinate") from None


def parse_class(text, genus=None):
    text = str(text)
    coords = _parse_coords(text.split(), "class %r" % text)
    if genus is not None and len(coords) != 2 * genus:
        raise ValueError("expected %d coordinates, got %d" % (2 * genus, len(coords)))
    return HomologyClass(coords)


def class_to_json(m):
    return list(m.coords)


# type(), not isinstance(), picks the kind: a JSON true/false decodes to a
# bool, an int subclass
_JSON_KINDS = {int: "integer", str: "string", bool: "boolean", dict: "object", list: "array"}
_ECHO_LIMIT = 80  # characters of a refused value quoted in its error


def _bad_json(field, kind, x):
    try:
        got = json.dumps(x, default=repr)
    except RecursionError:
        got = "a value nested too deeply to print"
    return ValueError("%s must be a JSON %s, got %s" % (field, _JSON_KINDS[kind], _cut(got)))


def _cut(got):
    "The text of a refused value as its error quotes it."
    if len(got) > _ECHO_LIMIT:
        return "%s... (%d characters)" % (got[:_ECHO_LIMIT], len(got))
    return got


def _json(x, kind, field):
    "x if it is a JSON node of the Python type kind, else a ValueError naming field."
    if type(x) is not kind:
        raise _bad_json(field, kind, x)
    return x


def _json_tuple(x, length, field):
    "x if it is a JSON array of length entries."
    if len(_json(x, list, field)) != length:
        raise ValueError("%s must have %d entries, got %d" % (field, length, len(x)))
    return x


def class_from_json(obj, genus=None, field="'class'"):
    "The class of a JSON coordinate array."
    coords = tuple(_json(obj, list, field))
    for a in coords:
        if type(a) is not int:
            raise _bad_json("coordinate of " + field, int, a)
    if genus is not None and len(coords) != 2 * genus:
        raise ValueError("expected %d coordinates, got %d" % (2 * genus, len(coords)))
    return HomologyClass(coords)


def matrix_to_json(M):
    return [list(row) for row in M.rows]


def matrix_from_json(rows):
    return SymplecticMatrix(
        tuple(
            tuple(
                _json(a, int, "matrix entry (%d, %d)" % (i, j))
                for j, a in enumerate(_json(row, list, "matrix row %d" % i))
            )
            for i, row in enumerate(_json(rows, list, "matrix"))
        )
    )


def sqrt_to_json(x):
    "The exact square and its root as a float, or None past float range."
    try:
        approx = float(x)
    except OverflowError:
        approx = None
    return {"square": format_fraction(x.square), "approx": approx}


def sqrt_from_json(obj, field="'square'"):
    square = _json(obj, dict, "the object holding " + field)["square"]
    return ExactSqrt(parse_fraction(square, field))


def format_sparse_lines(v):
    lines = []
    for m in v.support:
        val = v.coefficient(m)
        lines.append(
            "%s  %s  %s" % (format_class(m), format_fraction(val.re), format_fraction(val.im))
        )
    return "\n".join(lines) + ("\n" if lines else "")


def parse_sparse_lines(text):
    "A sparse vector from point lines; the first line's length fixes the genus."
    genus = None
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
        raise ValueError("sparse vector file has no point line to fix its genus")
    return SparseVector(genus, entries)


def sparse_to_json(v):
    return {
        "genus": v.genus,
        "full": v.full,
        "coefficients": [
            {
                "class": list(m),
                "re": format_fraction(val.re),
                "im": format_fraction(val.im),
            }
            for m, val in sorted(v.coeffs.items())
        ],
    }


_ZERO = GaussianRational(0)  # every decoded zero coefficient, so one identity test finds it


def sparse_from_json(obj, field="sparse vector", memo=None):
    """The vector of a JSON object, as SparseVector(...) builds it from the
    parsed entries.  memo maps (re, im) string pairs to coefficients;
    cocycle_from_json shares one between the values of a cocycle, whose
    coefficients repeat.  A point is keyed by its coordinate tuple, so
    the decoder builds no HomologyClass for a well-formed entry.

    An entry whose coordinates are 2g JSON integers, g >= 3, is checked in
    one comparison of their types; any other goes through class_from_json,
    which names what is wrong.  Only a vector with a repeated point, a zero
    coefficient or a zero class is summed, by the constructor's _summed;
    every other one is its table of entries as they stand.
    """
    obj = _json(obj, dict, field)
    genus = _json(obj["genus"], int, "'genus'")
    full = _json(obj.get("full", False), bool, "'full'")
    memo = {} if memo is None else memo
    # type(), not isinstance(): a bool is an int subclass
    int_types = (int,) * (2 * genus) if genus >= MIN_GENUS else None
    entries = []
    has_zero = False
    for entry in _json(obj.get("coefficients", []), list, "'coefficients'"):
        point = _json(entry, dict, "coefficient")["class"]
        if type(point) is list and tuple(map(type, point)) == int_types:
            m = tuple(point)
        else:
            m = class_from_json(point, genus).coords
        key = entry["re"], entry.get("im")
        val = memo.get(key) if type(key[0]) is str and type(key[1]) is str else None
        if val is None:
            try:
                real = parse_fraction(entry["re"])
                imag = parse_fraction(entry["im"])
            except ValueError:
                # the message names the point; formatting it costs more than parsing
                at = " of the coefficient at %s" % HomologyClass(m)
                real = parse_fraction(entry["re"], "'re'" + at)
                imag = parse_fraction(entry["im"], "'im'" + at)
            val = memo[key] = GaussianRational(real, imag) if real or imag else _ZERO
        if val is _ZERO:
            has_zero = True
        entries.append((m, val))
    table = dict(entries)
    if (
        has_zero
        or len(table) < len(entries)
        or (not full and (0,) * (2 * genus) in table)
    ):
        table = _summed(entries, full)
    return SparseVector._of_table(genus, table, full)


def vector_from_json(obj, field="sparse vector"):
    """sparse_from_json for a vector outside a cocycle, which has no genus
    check of its own: a genus below MIN_GENUS is a ValueError."""
    v = sparse_from_json(obj, field)
    if v.genus < MIN_GENUS:
        raise ValueError("%s has genus %d, below %d" % (field, v.genus, MIN_GENUS))
    return v


def curve_to_json(c):
    return {"id": c.id, "cls": class_to_json(c.cls), "separating": c.separating}


def curve_from_json(obj, genus=None):
    cid = _json(_json(obj, dict, "curve")["id"], str, "'id' of a curve")
    return Curve(
        id=cid,
        cls=class_from_json(obj["cls"], genus, "'cls' of curve %r" % cid),
        separating=_json(obj.get("separating", False), bool, "'separating' of curve %r" % cid),
    )


def word_to_json(w):
    return [[cid, e] for cid, e in w.letters]


def word_from_json(obj, field="'word'"):
    letters = []
    for letter in _json(obj, list, field):
        cid, e = _json_tuple(letter, 2, "letter of " + field)
        _json(cid, str, "curve id of a letter of " + field)
        if type(e) is not int:
            raise _bad_json("exponent of %r in %s" % (cid, field), int, e)
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
    _json(obj, dict, "relation")
    intersections = []
    for entry in _json(obj.get("intersections", []), list, "'intersections'"):
        a, b, n = _json_tuple(entry, 3, "entry of 'intersections'")
        _json(a, str, "first curve id of an entry of 'intersections'")
        _json(b, str, "second curve id of an entry of 'intersections'")
        if type(n) is not int:
            raise _bad_json("intersection number of %r and %r" % (a, b), int, n)
        intersections.append((a, b, n))
    name = _json(obj["name"], str, "'name' of a relation")
    table = {}
    for c in _json(obj["curves"], list, "'curves'"):
        curve = curve_from_json(c)
        if curve.id in table:
            raise ValueError("relation %r names curve %r twice" % (name, curve.id))
        table[curve.id] = curve
    return RelationInstance(
        name=name,
        curves=tuple(table.values()),
        lhs=word_from_json(obj["lhs"], "'lhs'"),
        rhs=word_from_json(obj["rhs"], "'rhs'"),
        intersections=tuple(intersections),
    )


def relations_from_json(obj):
    return [relation_from_json(rel) for rel in _json(obj, list, "relation file")]


def cocycle_to_json(u):
    return {
        "genus": u.genus,
        "generators": [curve_to_json(c) for c in u.gens],
        "values": {cid: sparse_to_json(u.value(cid)) for cid in u.gens.ids()},
    }


def cocycle_from_json(obj):
    genus = _json(_json(obj, dict, "cocycle")["genus"], int, "'genus'")
    generators = _json(obj["generators"], list, "'generators'")
    gens = GeneratorSet(curve_from_json(c, genus) for c in generators)
    memo = {}  # the points and coefficients of the values repeat
    values = {
        cid: sparse_from_json(v, "value of %r" % cid, memo)
        for cid, v in _json(obj["values"], dict, "'values'").items()
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
    _json(obj, dict, "solve report")
    decay = []
    for e in _json(obj.get("decay", []), list, "'decay'"):
        k = _json(_json(e, dict, "decay entry")["k"], int, "'k' of a decay entry")
        if any(k == seen for seen, _, _ in decay):
            raise ValueError("two decay entries have k = %d" % k)
        at = " of the decay entry with k = %d" % k
        fk = sqrt_from_json(e["F"], "'square' of 'F'" + at)
        decay.append((k, fk, sqrt_from_json(e["G"], "'square' of 'G'" + at)))
    return SolveReport(
        f=vector_from_json(obj["f"], "'f'"),
        residual=sqrt_from_json(obj["residual"], "'square' of the residual"),
        decay=tuple(decay),
    )
