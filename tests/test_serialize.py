import json
import math
import pathlib
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from twistlab import (
    Cocycle,
    ExactSqrt,
    GaussianRational,
    GeneratorSet,
    HomologyClass,
    SparseVector,
    builtin_catalog,
    coboundary,
    solve_coboundary,
    twist_matrix,
    x_basis,
    y_basis,
    zero_class,
)
from twistlab import serialize as ser

from helpers import rand_sparse

G = 3


def test_class_line_roundtrip():
    m = HomologyClass((1, -2, 0, 3, 0, 0))
    line = ser.format_class(m)
    assert line == "1 -2 0 3 0 0"
    assert ser.parse_class(line) == m
    assert ser.parse_class(line, genus=3) == m
    with pytest.raises(ValueError):
        ser.parse_class(line, genus=4)


def test_matrix_roundtrip():
    M = twist_matrix(x_basis(G, 1) + y_basis(G, 2))
    rows = ser.matrix_to_json(M)
    assert rows == [list(r) for r in M.rows]
    assert ser.matrix_from_json(rows) == M


def test_fraction_strings():
    assert ser.format_fraction(Fraction(-3, 4)) == "-3/4"
    assert ser.parse_fraction("-3/4") == Fraction(-3, 4)
    assert ser.parse_fraction("5") == 5
    assert ser.parse_fraction("+2/6") == Fraction(1, 3)
    assert ser.parse_fraction("-007/10") == Fraction(-7, 10)


@pytest.mark.parametrize(
    "text", ["1e5", "0.5", "1e400", " 1/2", "1 / 2", "1/-2", "1_000", "-", "1/", "\u0663", ""]
)
def test_fraction_strings_outside_the_grammar_are_refused(text):
    with pytest.raises(ValueError, match=r"'re' must be a rational 'n' or 'n/d'"):
        ser.parse_fraction(text, "'re'")


def test_json_decoders_refuse_a_node_of_the_wrong_type():
    with pytest.raises(ValueError, match="relation must be a JSON object, got \\[\\]"):
        ser.relation_from_json([])
    with pytest.raises(ValueError, match="'values' must be a JSON object, got \\[\\]"):
        gens = [{"id": "x1", "cls": [1, 0, 0, 0, 0, 0]}]
        ser.cocycle_from_json({"genus": 3, "generators": gens, "values": []})
    with pytest.raises(ValueError, match="'coefficients' must be a JSON array"):
        ser.sparse_from_json({"genus": 3, "coefficients": {"class": [1, 0, 0, 0, 0, 0]}})
    with pytest.raises(ValueError, match="letter of 'lhs' must have 2 entries, got 3"):
        ser.word_from_json([["a", 1, 2]], "'lhs'")
    with pytest.raises(ValueError, match="matrix row 1 must be a JSON array"):
        ser.matrix_from_json([[1, 0], "01"])
    with pytest.raises(ValueError, match="curve id of a letter of 'lhs' must be a JSON string"):
        ser.word_from_json([[7, 1]], "'lhs'")
    rel = ser.relation_to_json(builtin_catalog(G)[0])
    rel["intersections"] = [["a", 7, 0]]
    with pytest.raises(ValueError, match="second curve id of an entry of 'intersections'"):
        ser.relation_from_json(rel)
    deep = []
    for _ in range(sys.getrecursionlimit()):
        deep = [deep]
    with pytest.raises(ValueError, match="'genus' must be a JSON integer, got a value nested"):
        ser.cocycle_from_json({"genus": deep})


def test_sparse_lines_roundtrip():
    rng = random.Random(501)
    v = rand_sparse(rng, G, 7)
    text = ser.format_sparse_lines(v)
    assert ser.parse_sparse_lines(text) == v
    # stable: emitting twice gives identical bytes
    assert text == ser.format_sparse_lines(ser.parse_sparse_lines(text))
    with pytest.raises(ValueError):
        ser.parse_sparse_lines("1 2 3\n")
    with pytest.raises(ValueError):
        ser.parse_sparse_lines("")


def test_sparse_json_roundtrip():
    rng = random.Random(502)
    v = rand_sparse(rng, G, 7)
    obj = ser.sparse_to_json(v)
    assert ser.sparse_from_json(obj) == v
    one = SparseVector.basis(zero_class(G), full=True)
    assert ser.sparse_from_json(ser.sparse_to_json(one)) == one


def test_relation_json_roundtrip():
    for rel in builtin_catalog(G):
        back = ser.relation_from_json(ser.relation_to_json(rel))
        assert back == rel


def test_cocycle_json_roundtrip():
    rng = random.Random(503)
    gens = GeneratorSet.symplectic_basis(G)
    u = coboundary(rand_sparse(rng, G, 6), gens)
    back = ser.cocycle_from_json(ser.cocycle_to_json(u))
    assert back.gens.ids() == u.gens.ids()
    for cid in gens.ids():
        assert back.value(cid) == u.value(cid)


def test_report_json_roundtrip():
    rng = random.Random(504)
    gens = GeneratorSet.symplectic_basis(G)
    f = rand_sparse(rng, G, 5)
    rep = solve_coboundary(coboundary(f, gens))
    obj = ser.report_to_json(rep)
    back = ser.report_from_json(obj)
    assert back.f == rep.f
    assert back.residual == rep.residual
    assert back.decay == rep.decay
    # exact rationals serialized as num/den
    assert obj["residual"]["square"] == "0/1"


def test_report_bytes_stable():
    rng = random.Random(505)
    gens = GeneratorSet.symplectic_basis(G)
    f = rand_sparse(rng, G, 9)
    rep1 = solve_coboundary(coboundary(f, gens))
    rep2 = solve_coboundary(coboundary(f, gens))
    a = json.dumps(ser.report_to_json(rep1), sort_keys=True)
    b = json.dumps(ser.report_to_json(rep2), sort_keys=True)
    assert a == b


# JSON trees with the nodes json.dumps treats specially: empty containers,
# non-ASCII and control characters (lone surrogates included), integers
# past 2^64, -0.0, 1e16, NaN and the infinities, and bools beside ints
_TEXT = st.text(st.characters(exclude_categories=()), max_size=6)
_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([2**64, -(2**64) - 1, 3**100, 0, 1, -1])
    | st.floats()
    | st.sampled_from([-0.0, 1e16, math.nan, math.inf, -math.inf])
    | _TEXT
)
_TREES = st.recursive(
    _LEAVES,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(_TEXT, children, max_size=4),
    max_leaves=24,
)


@settings(max_examples=400, deadline=None)
@given(_TREES)
def test_json_text_is_json_dumps_with_indent_and_sorted_keys(obj):
    assert ser.json_text(obj) == json.dumps(obj, indent=2, sort_keys=True)


def test_json_text_refuses_what_json_dumps_refuses():
    for obj in ({"half": Fraction(1, 2)}, [ExactSqrt(4)]):
        with pytest.raises(TypeError):
            json.dumps(obj, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            ser.json_text(obj)


def test_sqrt_json():
    x = ExactSqrt(Fraction(9, 4))
    obj = ser.sqrt_to_json(x)
    assert obj["square"] == "9/4" and obj["approx"] == 1.5
    assert ser.sqrt_from_json(obj) == x


def test_integers_past_the_digit_limit_are_refused_by_field():
    limit = sys.get_int_max_str_digits()
    long = "1" * (limit + 1)
    for text in (long, "-" + long, "1/" + long):
        with pytest.raises(ValueError, match="^'re' has more than %d digits$" % limit):
            ser.parse_fraction(text, "'re'")
    with pytest.raises(ValueError, match="^'im' on line 2 has more than %d digits$" % limit):
        ser.parse_sparse_lines("1 0 0 0 0 0  1/2  0/1\n0 1 0 0 0 0  1/2  %s\n" % long)
    with pytest.raises(ValueError, match="^line 2: a coordinate has more than %d digits$" % limit):
        ser.parse_sparse_lines("1 0 0 0 0 0  1/2  0/1\n%s 1 0 0 0 0  1/2  0/1\n" % long)
    obj = ser.sparse_to_json(SparseVector.basis(x_basis(G, 1)))
    obj["coefficients"][0]["re"] = long
    with pytest.raises(ValueError, match="'re' of the coefficient at 1 0 0 0 0 0 has more"):
        ser.sparse_from_json(obj)


def test_sqrt_json_past_float_range():
    big = ser.sqrt_to_json(ExactSqrt(10**400))
    assert big == {"square": "1%s/1" % ("0" * 400), "approx": 1e200}
    assert ser.sqrt_to_json(ExactSqrt(Fraction(10**700, 3)))["approx"] is None
    # inside float range the approx stays sqrt(float(square)), byte for byte
    x = ExactSqrt(Fraction(10**300, 7))
    assert ser.sqrt_to_json(x)["approx"] == math.sqrt(float(x.square))


def test_json_decoders_take_only_json_integers_and_booleans():
    for coords in ([1.5, 0, 0, 0, 0, 0], [1, 0, 0, 0, 0, True], [1, 0, 0, 0, 0, "1"]):
        with pytest.raises(ValueError, match="coordinate of 'class'"):
            ser.class_from_json(coords)
    v = ser.sparse_to_json(SparseVector.basis(x_basis(G, 1)))
    for key, bad in (("genus", 3.0), ("genus", True), ("full", 0), ("full", "false")):
        with pytest.raises(ValueError, match="'%s' must be a JSON" % key):
            ser.sparse_from_json(dict(v, **{key: bad}))
    with pytest.raises(ValueError, match="exponent of 'a' in 'word'"):
        ser.word_from_json([["a", False]])
    assert ser.word_from_json([["a", -2]]).letters == (("a", -2),)


def test_matrix_decoder_takes_only_json_integers():
    for rows, got in (([[1.5, 0], [0, 1]], "1.5"), ([[1, 0], [0, True]], "true")):
        msg = r"matrix entry \(\d, \d\) must be a JSON integer, got %s" % got
        with pytest.raises(ValueError, match=msg):
            ser.matrix_from_json(rows)


def test_report_decoder_takes_an_integer_k_and_string_squares():
    f = rand_sparse(random.Random(506), G, 4)
    rep = solve_coboundary(coboundary(f, GeneratorSet.symplectic_basis(G)))
    obj = ser.report_to_json(rep)
    bad = json.loads(json.dumps(obj))
    bad["decay"][0]["k"] = 2.7
    with pytest.raises(ValueError, match="'k' of a decay entry must be a JSON integer, got 2.7"):
        ser.report_from_json(bad)
    bad = json.loads(json.dumps(obj))
    bad["decay"][1]["G"]["square"] = 0.25
    msg = "'square' of 'G' of the decay entry with k = 3 must be a JSON string, got 0.25"
    with pytest.raises(ValueError, match=msg):
        ser.report_from_json(bad)
    bad = json.loads(json.dumps(obj))
    bad["residual"]["square"] = 0
    with pytest.raises(ValueError, match="'square' of the residual must be a JSON string, got 0"):
        ser.report_from_json(bad)
    assert ser.report_from_json(obj).decay == rep.decay


def test_report_decoder_refuses_a_repeated_k():
    # kept, the last entry for k would decide k, so the verdict would hang on entry order
    f = rand_sparse(random.Random(507), G, 4)
    obj = ser.report_to_json(solve_coboundary(coboundary(f, GeneratorSet.symplectic_basis(G))))
    again = {"k": 3, "F": {"square": "0"}, "G": {"square": "0"}}
    for decay in (obj["decay"] + [again], [again] + obj["decay"]):
        with pytest.raises(ValueError, match="^two decay entries have k = 3$"):
            ser.report_from_json(dict(obj, decay=decay))


def test_report_decoder_refuses_an_f_of_genus_below_3():
    # a report's f has no enclosing cocycle to check its genus
    f = rand_sparse(random.Random(508), G, 4)
    obj = ser.report_to_json(solve_coboundary(coboundary(f, GeneratorSet.symplectic_basis(G))))
    for genus in (-5, 0, 2):
        bad = dict(obj, f={"genus": genus, "coefficients": []})
        with pytest.raises(ValueError, match="^'f' has genus %d, below 3$" % genus):
            ser.report_from_json(bad)


P, Q = [1, 0, 0, 0, 0, 1], [0, 1, 0, 0, 0, 0]


def _vector(*entries, **extra):
    "A sparse-vector JSON object at genus 3 from (class, re, im) entries."
    coefficients = [{"class": c, "re": re, "im": im} for c, re, im in entries]
    return dict({"genus": G, "coefficients": coefficients}, **extra)


def test_remembered_points_and_coefficients_are_type_checked_again():
    # True == 1 and hash(True) == hash(1): a memo read before the check
    # would hand the second entry the class of the first
    msg = "coordinate of 'class' must be a JSON integer, got true"
    with pytest.raises(ValueError, match=msg):
        ser.sparse_from_json(_vector((P, "1", "0"), ([True, 0, 0, 0, 0, 1], "1", "0")))
    gens = [ser.curve_to_json(c) for c in GeneratorSet.symplectic_basis(G)]
    values = {c["id"]: _vector() for c in gens}
    values["x1"] = _vector((P, "1", "0"))
    values["y3"] = _vector(([True, 0, 0, 0, 0, 1], "1", "0"))
    with pytest.raises(ValueError, match=msg):
        ser.cocycle_from_json({"genus": G, "generators": gens, "values": values})
    msg = "'re' of the coefficient at 0 1 0 0 0 0 must be a JSON string, got 1"
    with pytest.raises(ValueError, match=msg):
        ser.sparse_from_json(_vector((P, "1", "0"), (Q, 1, "0")))
    with pytest.raises(ValueError, match="'im' of the coefficient at 0 1 0 0 0 0 must be a JSON"):
        ser.sparse_from_json(_vector((P, "1", "0"), (Q, "1", 0)))


def test_decoder_reports_errors_in_the_constructor_order():
    zero = [0] * 6
    # a zero class with a nonzero value is refused only after every entry
    # parsed, as SparseVector(...) refuses it: the bad rational is reported
    with pytest.raises(ValueError, match="'re' of the coefficient at 1 0 0 0 0 1 must be a rational"):
        ser.sparse_from_json(_vector((zero, "1", "0"), (P, "1/x", "0")))
    with pytest.raises(ValueError) as got:
        ser.sparse_from_json(_vector((P, "1", "0"), (zero, "1", "0")))
    with pytest.raises(ValueError) as want:
        SparseVector(G, [(zero_class(G), 1)])
    assert str(got.value) == str(want.value)
    # a zero value drops, even at the zero class; full=True keeps the class
    assert ser.sparse_from_json(_vector((zero, "0", "0/5"))) == SparseVector.zero(G)
    full = ser.sparse_from_json(_vector((zero, "2", "0"), full=True))
    assert full == SparseVector(G, [(zero_class(G), 2)], full=True) and full.full
    with pytest.raises(KeyError):
        ser.sparse_from_json({"genus": G, "coefficients": [{"class": P, "re": "1"}]})


def test_decoder_sums_and_cancels_duplicate_points():
    v = ser.sparse_from_json(
        _vector((P, "1/2", "1"), (Q, "3", "0"), (P, "1/2", "-1"), (Q, "-3", "0"), (P, "1/2", "0"))
    )
    assert v == SparseVector(G, {HomologyClass(P): Fraction(3, 2)})
    assert v.support == (HomologyClass(P),)


def _cocycle_json(**entries):
    "A genus-3 cocycle JSON object on the basis twists; the named values get the entries."
    gens = [ser.curve_to_json(c) for c in GeneratorSet.symplectic_basis(G)]
    values = {c["id"]: _vector(*entries.get(c["id"], ())) for c in gens}
    return {"genus": G, "generators": gens, "values": values}


def test_a_zero_coefficient_shared_by_two_values_drops_from_both():
    # both values meet ("0", "0/3"): the second reads it from the memo
    obj = _cocycle_json(
        x1=[(P, "0", "0/3"), (Q, "1", "0")], y2=[(Q, "0", "0/3"), (P, "2", "0")]
    )
    got = ser.cocycle_from_json(obj)
    assert got.values == _constructed(obj).values
    assert got.value("x1") == SparseVector(G, {HomologyClass(Q): 1})
    assert got.value("y2") == SparseVector(G, {HomologyClass(P): 2})
    assert got.value("x1").support == (HomologyClass(Q),)


def test_a_float_coordinate_is_refused_after_its_int_point_is_remembered():
    # 1.0 == 1 and hash(1.0) == hash(1): a memo read before the type check
    # would hand the float the class of the int point
    msg = "coordinate of 'class' must be a JSON integer, got 1.0"
    with pytest.raises(ValueError, match=msg):
        ser.sparse_from_json(_vector((P, "1", "0"), ([1.0, 0, 0, 0, 0, 1], "1", "0")))
    obj = _cocycle_json(x1=[(P, "1", "0")], y1=[([1.0, 0, 0, 0, 0, 1], "1", "0")])
    with pytest.raises(ValueError, match=msg):
        ser.cocycle_from_json(obj)


def test_a_value_of_genus_2_is_refused():
    entry = {"class": [1, 0, 0, 1], "re": "1", "im": "0"}
    with pytest.raises(ValueError) as want:
        SparseVector(2, [(HomologyClass((1, 0, 0, 1)), 1)])
    with pytest.raises(ValueError) as got:
        ser.sparse_from_json({"genus": 2, "coefficients": [entry]})
    assert str(got.value) == str(want.value) == "need 2g coordinates with g >= 3, got 4"
    obj = _cocycle_json(x1=[(P, "1", "0")])
    obj["values"]["y1"] = {"genus": 2, "coefficients": [entry]}
    with pytest.raises(ValueError, match="^need 2g coordinates with g >= 3, got 4$"):
        ser.cocycle_from_json(obj)
    obj["values"]["y1"]["coefficients"] = []
    with pytest.raises(ValueError, match="^value of 'y1' has the wrong genus$"):
        ser.cocycle_from_json(obj)


def test_a_point_repeated_inside_the_second_value_is_summed():
    # the first value puts P and "1/2" in the memo; the second repeats P
    obj = _cocycle_json(
        x1=[(P, "1/2", "0")], y1=[(P, "1/2", "0"), (Q, "1", "1"), (P, "1/2", "0"), (Q, "-1", "-1")]
    )
    got = ser.cocycle_from_json(obj)
    assert got.values == _constructed(obj).values
    assert got.value("y1") == SparseVector(G, {HomologyClass(P): 1})
    assert got.value("y1").support == (HomologyClass(P),)


def _constructed(obj):
    "The cocycle of a JSON object, each value built by SparseVector(...)."
    gens = GeneratorSet(ser.curve_from_json(c, obj["genus"]) for c in obj["generators"])
    values = {}
    for cid, v in obj["values"].items():
        entries = [
            (
                ser.class_from_json(e["class"], v["genus"]),
                GaussianRational(ser.parse_fraction(e["re"]), ser.parse_fraction(e["im"])),
            )
            for e in v["coefficients"]
        ]
        values[cid] = SparseVector(v["genus"], entries, full=v.get("full", False))
    return Cocycle(gens, values)


def test_decoded_bench_cocycles_equal_constructed_ones():
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "bench"))
    import inputs

    decoded = 0
    for workload in ("solve-dense", "audit"):
        for op in inputs.generate(workload, 3):
            for text in op.files.values():
                obj = json.loads(text) if text.startswith("{") else None
                if obj is None or "values" not in obj:
                    continue
                got, want = ser.cocycle_from_json(obj), _constructed(obj)
                assert got.gens.ids() == want.gens.ids()
                assert got.values == want.values
                decoded += 1
    assert decoded == 32 + 3 * 4
