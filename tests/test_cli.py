import contextlib
import csv
import gc
import io
import json
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from twistlab import (
    Cocycle,
    Curve,
    ExactSqrt,
    GaussianRational,
    GeneratorSet,
    HomologyClass,
    SparseVector,
    basis_curves,
    builtin_catalog,
    c_pairing,
    coboundary,
    x_basis,
    y_basis,
)
from twistlab import cli, serialize as ser
from twistlab.cli import main

from helpers import rand_scalar, rand_sparse

G = 3


def run(args):
    return main(args)


def _write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def _fixture_cocycle(seed=601, size=8):
    rng = random.Random(seed)
    gens = GeneratorSet.symplectic_basis(G)
    f = rand_sparse(rng, G, size)
    return f, coboundary(f, gens), gens


def test_verify_relations_default_catalog(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run(["verify-relations", "--genus", "3", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert sorted(report) == ["all_passed", "failed", "genus", "instances"]
    assert report["all_passed"] and not report["failed"]
    assert len(report["instances"]) == len(builtin_catalog(G))
    assert all(i["matrix_residual"] == 0 for i in report["instances"])


def test_verify_relations_genus_guard(capsys):
    assert run(["verify-relations", "--genus", "2"]) == 2


def test_removed_options_are_usage_errors(capsys):
    for argv in (
        ["verify-relations", "--tolerance", "-5"],
        ["verify-relations", "--seed", "3"],
        # each subcommand takes only the options it reads
        ["verify-relations", "--format", "json"],
        ["solve", "--format", "csv"],
        ["orbit", "1 0 0 0 0 0", "--in", "/nonexistent"],
        ["check-cocycle", "--genus", "3"],
        ["check-cocycle", "--format", "json"],
        ["decay-report", "--genus", "3"],
    ):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2


def test_verify_relations_refuses_a_relation_of_another_genus(tmp_path, capsys):
    catalog = tmp_path / "g4.json"
    assert run(["verify-relations", "--genus", "4", "--dump-catalog", "--out", str(catalog)]) == 0
    first = json.loads(catalog.read_text())[0]["name"]
    assert run(["verify-relations", "--in", str(catalog)]) == 2
    assert capsys.readouterr().err == "error: relation %r is not of genus 3\n" % first
    out = tmp_path / "report.json"
    assert run(["verify-relations", "--genus", "4", "--in", str(catalog), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["genus"] == 4


def test_verify_relations_dump_roundtrip(tmp_path, capsys):
    out = tmp_path / "catalog.json"
    assert run(["verify-relations", "--dump-catalog", "--out", str(out)]) == 0
    dumped = json.loads(out.read_text())
    relations = [ser.relation_from_json(obj) for obj in dumped]
    assert relations == builtin_catalog(G)
    # the dumped file feeds straight back into verification
    assert run(["verify-relations", "--in", str(out)]) == 0


def test_verify_relations_broken_instance(tmp_path, capsys):
    cat = builtin_catalog(G)
    objs = [ser.relation_to_json(r) for r in cat[:2]]
    # swap one word so the instance fails
    broken = ser.relation_to_json(cat[0])
    broken["name"] = "injected-broken"
    broken["lhs"] = [["a", 1], ["b", 1], ["a", 1]]
    broken["rhs"] = [["b", 1]]
    objs.append(broken)
    out = tmp_path / "report.json"
    code = run(["verify-relations", "--in", _write(tmp_path / "rels.json", objs), "--out", str(out)])
    assert code == 1
    report = json.loads(out.read_text())
    assert report["failed"] == ["injected-broken"]


def test_verify_relations_metadata_inconsistency(tmp_path, capsys):
    obj = ser.relation_to_json(builtin_catalog(G)[0])
    obj["intersections"] = [["a", "b", 7]]
    code = run(["verify-relations", "--in", _write(tmp_path / "rels.json", [obj])])
    assert code == 2


def test_verify_relations_refuses_a_repeated_curve_id(tmp_path, capsys):
    # kept, the later entry for "a" would decide i(a, b), so the verdict would hang on entry order
    a1 = {"id": "a", "cls": [1, 0, 0, 0, 0, 0]}
    a2 = {"id": "a", "cls": [0, 0, 1, 0, 0, 0]}
    b = {"id": "b", "cls": [0, 1, 0, 0, 0, 0]}
    for curves in ([a1, b, a2], [a2, b, a1]):
        rel = {
            "name": "dup-a",
            "curves": curves,
            "lhs": [["a", 1], ["b", 1]],
            "rhs": [["b", 1], ["a", 1]],
            "intersections": [["a", "b", 0]],
        }
        infile = _write(tmp_path / "rels.json", [rel])
        assert run(["verify-relations", "--genus", "3", "--in", infile]) == 2
        assert capsys.readouterr() == ("", "error: relation 'dup-a' names curve 'a' twice\n")


def test_verify_relations_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["verify-relations", "--in", str(bad)]) == 2


def test_orbit_csv(tmp_path, capsys):
    out = tmp_path / "orbit.csv"
    assert run(["orbit", "2 3 0 0 0 0", "--steps", "5", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,class,norm1"
    norms = [int(line.rsplit(",", 1)[1]) for line in lines[1:]]
    assert norms == [5, 7, 9, 11, 13, 15]


def test_orbit_two_rows(tmp_path, capsys):
    out = tmp_path / "orbit.csv"
    assert run(["orbit", "1 0 0 0 0 0", "--steps", "1", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 3  # header plus two rows


def test_orbit_zero_class(capsys):
    assert run(["orbit", "0 0 0 0 0 0"]) == 2


def test_orbit_refuses_zero_steps(capsys):
    assert run(["orbit", "2 3 0 0 0 0", "--steps", "0"]) == 2
    assert capsys.readouterr() == ("", "error: steps must be at least 1\n")


def test_orbit_json_format(tmp_path, capsys):
    out = tmp_path / "orbit.json"
    assert run(["orbit", "0 1 0 0 0 0", "--steps", "2", "--format", "json", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())
    assert [r["n"] for r in rows] == [0, 1, 2]
    assert rows[0]["class"] == "0 1 0 0 0 0"


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_orbit_past_the_digit_limit_is_refused_before_any_row(tmp_path, capsys, fmt):
    # from (10^(L-1), 1, 0, 0, 0, 0) the ray twists b1, and step t has norm1
    # (t + 1) 10^(L-1) + 1: L digits up to t = 8, L + 1 from t = 9
    limit = sys.get_int_max_str_digits()
    start = "1%s 1 0 0 0 0" % ("0" * (limit - 1))
    out = tmp_path / ("orbit." + fmt)
    assert run(["orbit", start, "--steps", "8", "--format", fmt, "--out", str(out)]) == 0
    text = out.read_text()
    rows = json.loads(text) if fmt == "json" else list(csv.DictReader(text.splitlines()))
    assert [int(r["n"]) for r in rows] == list(range(9))
    assert int(rows[-1]["norm1"]) == 9 * 10 ** (limit - 1) + 1
    assert rows[-1]["class"].split()[1] == str(8 * 10 ** (limit - 1) + 1)
    out.unlink()
    for steps in ("9", "12"):
        _refused(
            capsys,
            ["orbit", start, "--steps", steps, "--format", fmt, "--out", str(out)],
            "error: norm1 at step 9 of the ray has more than %d digits" % limit,
        )
        assert not out.exists()


def test_solve_round_trip(tmp_path, capsys):
    f, u, _ = _fixture_cocycle()
    infile = _write(tmp_path / "cocycle.json", ser.cocycle_to_json(u))
    out = tmp_path / "report.json"
    assert run(["solve", "--in", infile, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["residual"]["square"] == "0/1"
    assert ser.sparse_from_json(report["f"]) == f
    assert all(entry["passed"] for entry in report["smoothness"])


def test_solve_genus_must_match_the_file(tmp_path, capsys):
    _, u, _ = _fixture_cocycle(seed=614)
    infile = _write(tmp_path / "cocycle.json", ser.cocycle_to_json(u))
    assert run(["solve", "--genus", "4", "--in", infile]) == 2
    assert capsys.readouterr().err == "error: --genus 4 but the cocycle has genus 3\n"
    assert run(["solve", "--genus", "2", "--in", infile]) == 2
    assert capsys.readouterr().err == "error: genus < 3\n"
    assert run(["solve", "--genus", "3", "--in", infile]) == 0


def test_solve_relation_rejection(tmp_path, capsys):
    _, u, gens = _fixture_cocycle(seed=602)
    values = dict(u.values)
    values["x1"] = values["x1"] + SparseVector.basis(y_basis(G, 1))
    pert = Cocycle(gens, values)
    infile = _write(tmp_path / "pert.json", ser.cocycle_to_json(pert))
    assert run(["solve", "--in", infile]) == 2


def test_solve_nonzero_residual(tmp_path, capsys):
    # perturb a generator the default catalog does not cover, so relation
    # checks pass but the reconstruction residual is nonzero
    _, u, gens = _fixture_cocycle(seed=603)
    values = dict(u.values)
    values["x3"] = values["x3"] + SparseVector.basis(
        x_basis(G, 1) + 2 * y_basis(G, 3), Fraction(1, 3)
    )
    pert = Cocycle(gens, values)
    infile = _write(tmp_path / "pert.json", ser.cocycle_to_json(pert))
    out = tmp_path / "report.json"
    assert run(["solve", "--in", infile, "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["residual"]["square"] != "0/1"


def test_solve_zero_class_coefficient(tmp_path, capsys):
    _, u, _ = _fixture_cocycle(seed=604)
    obj = ser.cocycle_to_json(u)
    obj["values"]["x1"]["full"] = True
    obj["values"]["x1"]["coefficients"].append(
        {"class": [0] * 6, "re": "1/1", "im": "0/1"}
    )
    infile = _write(tmp_path / "bad.json", obj)
    assert run(["solve", "--in", infile]) == 2


def test_check_cocycle_clean(tmp_path, capsys):
    _, u, _ = _fixture_cocycle(seed=605)
    infile = _write(tmp_path / "cocycle.json", ser.cocycle_to_json(u))
    out = tmp_path / "check.json"
    assert run(["check-cocycle", "--in", infile, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["all_zero"]
    assert all(e["residual"]["square"] == "0/1" for e in report["relation_residuals"])
    assert all(e["norm"]["square"] == "0/1" for e in report["s_norms"])
    assert all(e["re"] == "0/1" and e["im"] == "0/1" for e in report["pairings"])


def test_check_cocycle_flags_perturbation(tmp_path, capsys):
    _, u, gens = _fixture_cocycle(seed=606)
    values = dict(u.values)
    values["y1"] = values["y1"] + SparseVector.basis(x_basis(G, 1), GaussianRational(0, 1))
    pert = Cocycle(gens, values)
    infile = _write(tmp_path / "pert.json", ser.cocycle_to_json(pert))
    assert run(["check-cocycle", "--in", infile]) == 1


def test_check_cocycle_zero_values(tmp_path, capsys):
    gens = GeneratorSet.symplectic_basis(G)
    u = Cocycle(gens, {cid: SparseVector.zero(G) for cid in gens.ids()})
    infile = _write(tmp_path / "zero.json", ser.cocycle_to_json(u))
    out = tmp_path / "check.json"
    assert run(["check-cocycle", "--in", infile, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["all_zero"]


def test_check_cocycle_pairings_match_c_pairing(tmp_path, capsys):
    """g = 4 with three extra generators, one of them homologous to x1 up
    to sign: every other pair is reported with the value of c_pairing."""
    g = 4
    rng = random.Random(615)
    extra = (
        Curve("w", -x_basis(g, 1)),
        Curve("z1", x_basis(g, 1) + y_basis(g, 2)),
        Curve("z2", y_basis(g, 3) - x_basis(g, 4)),
    )
    gens = GeneratorSet.symplectic_basis(g, extra=extra)
    # one shared support, so that projections overlap and pairings are nonzero
    pool = list(rand_sparse(rng, g, 16, coord_bound=1).support)
    u = Cocycle(
        gens,
        {cid: SparseVector(g, [(m, rand_scalar(rng)) for m in pool]) for cid in gens.ids()},
    )
    infile = _write(tmp_path / "cocycle.json", ser.cocycle_to_json(u))
    out = tmp_path / "check.json"
    assert run(["check-cocycle", "--in", infile, "--out", str(out)]) == 1
    got = {(p["a"], p["b"]): (p["re"], p["im"]) for p in json.loads(out.read_text())["pairings"]}
    curves = list(gens)
    want = {}
    for i, a in enumerate(curves):
        for b in curves[i + 1 :]:
            if {a.id, b.id} != {"x1", "w"}:
                val = c_pairing(u, a, b)
                want[a.id, b.id] = (ser.format_fraction(val.re), ser.format_fraction(val.im))
    assert list(got) == list(want) and got == want
    assert ("x1", "w") not in got
    assert sum(v != ("0/1", "0/1") for v in got.values()) > len(got) // 2


def test_check_cocycle_malformed(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("[]")
    assert run(["check-cocycle", "--in", str(bad)]) == 2


def test_decay_report_text_and_json(tmp_path, capsys):
    rng = random.Random(607)
    v = rand_sparse(rng, G, 5)
    txt = tmp_path / "vec.txt"
    txt.write_text(ser.format_sparse_lines(v))
    out = tmp_path / "decay.json"
    assert run(["decay-report", "--in", str(txt), "--kmax", "3", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert [e["k"] for e in report["constants"]] == [0, 1, 2, 3]

    jsonfile = tmp_path / "vec.json"
    jsonfile.write_text(json.dumps(ser.sparse_to_json(v)))
    out2 = tmp_path / "decay.csv"
    assert run(
        ["decay-report", "--in", str(jsonfile), "--format", "csv", "--out", str(out2)]
    ) == 0
    lines = out2.read_text().strip().splitlines()
    assert lines[0] == "k,F_square,F_approx"
    assert len(lines) == 7


def test_decay_report_skips_comments_and_blank_lines(tmp_path, capsys):
    lines = ser.format_sparse_lines(rand_sparse(random.Random(608), G, 4)).splitlines()
    outputs = []
    for text in (lines, ["# a comment", ""] + lines[:2] + ["   ", "  # another"] + lines[2:]):
        infile = tmp_path / "vec.txt"
        infile.write_text("\n".join(text) + "\n")
        assert run(["decay-report", "--in", str(infile)]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "obj",
    [{"genus": -5}, {"genus": 0, "coefficients": []}, {"genus": 2, "coefficients": [], "full": True}],
)
def test_decay_report_refuses_a_vector_of_genus_below_3(tmp_path, capsys, obj):
    infile = _write(tmp_path / "vec.json", obj)
    assert run(["decay-report", "--in", infile]) == 2
    want = "error: sparse vector has genus %d, below 3\n" % obj["genus"]
    assert capsys.readouterr() == ("", want)


def test_decay_report_missing_input(capsys):
    assert run(["decay-report"]) == 2


def test_decay_report_rejects_a_negative_kmax(tmp_path, capsys):
    text = tmp_path / "vec.txt"
    text.write_text("0 0 1 0 0 0  1/2  0/1\n")
    assert run(["decay-report", "--in", str(text), "--kmax", "-3"]) == 2
    assert capsys.readouterr() == ("", "error: kmax must be nonnegative\n")
    assert run(["decay-report", "--in", str(text), "--kmax", "0"]) == 0


def _decay_rows(tmp_path, capsys, line, kmax, fmt):
    "The rows of a decay-report on the one-line vector, which exits 0."
    text = tmp_path / "vec.txt"
    text.write_text(line + "\n")
    assert run(["decay-report", "--in", str(text), "--kmax", str(kmax), "--format", fmt]) == 0
    out = capsys.readouterr().out
    if fmt == "csv":
        rows = csv.reader(out.splitlines()[1:])
        return [(square, float(approx) if approx else None) for _, square, approx in rows]
    return [(row["F"]["square"], row["F"]["approx"]) for row in json.loads(out)["constants"]]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_decay_report_squares_past_float_range(tmp_path, capsys, fmt):
    # F_k = 1000^k: from k = 52 on the square is past float range, and from
    # k = 103 on the root is too, which the report gives as a null approx
    rows = _decay_rows(tmp_path, capsys, "1000 0 0 0 0 0  1/1  0/1", 110, fmt)
    assert [square for square, _ in rows] == ["%d/1" % 10 ** (6 * k) for k in range(111)]
    for k, (_, approx) in enumerate(rows):
        if k <= 102:
            assert approx == pytest.approx(10.0 ** (3 * k), rel=1e-15)
        else:
            assert approx is None
    assert rows[60] == ("1" + "0" * 360 + "/1", 1e180)


def test_solve_reports_squares_past_float_range(tmp_path, capsys):
    # u(y1) = A e_(1,0) - A e_(1,-1) is the only nonzero value, so
    # F_k^2 = A^2 and G_(k+1)^2 = 4^(k+1) A^2 with A = 10^200
    A = 10**200
    f = SparseVector.basis(HomologyClass((1, 0, 0, 0, 0, 0)), A)
    infile = _write(tmp_path / "u.json", ser.cocycle_to_json(coboundary(f, basis_curves(G))))
    assert run(["solve", "--genus", "3", "--in", infile]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [e["k"] for e in report["decay"]] == [2, 3, 4, 5]
    for e in report["decay"]:
        assert e["F"] == {"square": "%d/1" % A**2, "approx": 1e200}
        scale = 2 ** (e["k"] + 1)
        assert e["G"] == {"square": "%d/1" % (scale**2 * A**2), "approx": scale * 1e200}


def test_integers_past_the_digit_limit_are_printed_in_full(tmp_path, capsys):
    # the input rational has 2,201 digits, within the limit; its square does not fit
    line = "1 0 0 0 0 0  1%s/1  0/1" % ("0" * 2200)
    ((square, approx),) = _decay_rows(tmp_path, capsys, line, 0, "json")
    assert square == "1" + "0" * 4400 + "/1" and approx is None
    assert len(square) - 2 > sys.get_int_max_str_digits()
    f = SparseVector.basis(HomologyClass((1, 0, 0, 0, 0, 0)), 10**2200)
    infile = _write(tmp_path / "u.json", ser.cocycle_to_json(coboundary(f, basis_curves(G))))
    assert run(["solve", "--in", infile]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["decay"][0]["F"] == {"square": "1" + "0" * 4400 + "/1", "approx": None}


def test_reports_byte_stable(tmp_path, capsys):
    _, u, _ = _fixture_cocycle(seed=608)
    infile = _write(tmp_path / "cocycle.json", ser.cocycle_to_json(u))
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["solve", "--in", infile, "--out", str(out1)]) == 0
    assert run(["solve", "--in", infile, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def _refused(capsys, argv, field):
    "The call exits 2 and its one stderr line names the field."
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err and "Traceback" not in err


def _first_value_class(obj, coords):
    obj["values"]["x1"]["coefficients"][0]["class"] = coords
    return obj


def test_solve_rejects_a_float_coordinate(tmp_path, capsys):
    _, u, _ = _fixture_cocycle(seed=609)
    obj = _first_value_class(ser.cocycle_to_json(u), [1.5, 0, 0, 0, 0, 1])
    infile = _write(tmp_path / "bad.json", obj)
    _refused(capsys, ["solve", "--in", infile], "coordinate of 'class' must be a JSON integer, got 1.5")


def test_a_generator_class_of_another_length_is_refused(tmp_path, capsys):
    _, u, _ = _fixture_cocycle(seed=610)
    obj = ser.cocycle_to_json(u)
    obj["generators"][0]["cls"] = [1, 0, 0, 0]
    infile = _write(tmp_path / "bad.json", obj)
    for command in ("solve", "check-cocycle"):
        assert run([command, "--in", infile]) == 2
        assert capsys.readouterr() == ("", "error: expected 6 coordinates, got 4\n")


def test_an_empty_generator_list_is_refused(tmp_path, capsys):
    infile = _write(tmp_path / "bad.json", {"genus": 3, "generators": [], "values": {}})
    for command in ("solve", "check-cocycle"):
        assert run([command, "--in", infile]) == 2
        assert capsys.readouterr() == ("", "error: generator set cannot be empty\n")


def test_solve_rejects_a_bool_coordinate(tmp_path, capsys):
    _, u, _ = _fixture_cocycle(seed=610)
    obj = _first_value_class(ser.cocycle_to_json(u), [1, 0, 0, 0, 0, True])
    infile = _write(tmp_path / "bad.json", obj)
    _refused(capsys, ["solve", "--in", infile], "coordinate of 'class' must be a JSON integer, got true")


def test_solve_rejects_a_string_separating_flag(tmp_path, capsys):
    _, u, _ = _fixture_cocycle(seed=611)
    obj = ser.cocycle_to_json(u)
    obj["generators"][0]["separating"] = "false"
    infile = _write(tmp_path / "bad.json", obj)
    _refused(
        capsys,
        ["solve", "--in", infile],
        "'separating' of curve 'x1' must be a JSON boolean, got \"false\"",
    )


def test_verify_relations_rejects_a_float_exponent(tmp_path, capsys):
    obj = ser.relation_to_json(builtin_catalog(G)[0])
    obj["lhs"][0][1] = 2.9
    infile = _write(tmp_path / "rels.json", [obj])
    cid = obj["lhs"][0][0]
    _refused(
        capsys,
        ["verify-relations", "--in", infile],
        "exponent of %r in 'lhs' must be a JSON integer, got 2.9" % cid,
    )


def test_verify_relations_rejects_a_float_intersection_number(tmp_path, capsys):
    obj = ser.relation_to_json(builtin_catalog(G)[0])
    obj["intersections"] = [["a", "b", 0.4]]
    infile = _write(tmp_path / "rels.json", [obj])
    _refused(
        capsys,
        ["verify-relations", "--in", infile],
        "intersection number of 'a' and 'b' must be a JSON integer, got 0.4",
    )


def test_solve_rejects_a_float_coefficient(tmp_path, capsys):
    _, u, _ = _fixture_cocycle(seed=612)
    obj = ser.cocycle_to_json(u)
    entry = obj["values"]["y1"]["coefficients"][0]
    entry["re"] = 0.1
    infile = _write(tmp_path / "bad.json", obj)
    point = " ".join(str(a) for a in entry["class"])
    _refused(
        capsys,
        ["solve", "--in", infile],
        "'re' of the coefficient at %s must be a JSON string, got 0.1" % point,
    )


def test_decay_report_rejects_a_number_or_a_zero_denominator(tmp_path, capsys):
    obj = ser.sparse_to_json(SparseVector.basis(x_basis(G, 2), GaussianRational(1, 2)))
    obj["coefficients"][0]["im"] = 2
    infile = _write(tmp_path / "bad.json", obj)
    _refused(
        capsys,
        ["decay-report", "--in", infile],
        "'im' of the coefficient at 0 0 1 0 0 0 must be a JSON string, got 2",
    )
    obj["coefficients"][0]["im"] = "1/0"
    _write(tmp_path / "bad.json", obj)
    _refused(capsys, ["decay-report", "--in", infile], "zero denominator in '1/0'")
    text = tmp_path / "bad.txt"
    text.write_text("0 0 1 0 0 0  1/0  0/1\n")
    _refused(capsys, ["decay-report", "--in", str(text)], "zero denominator in '1/0'")


def test_perturbation_residual_values_and_refusal(tmp_path, capsys):
    """d e_p added to u(x1), at a point p that the twists about x1, y1 and y2
    fix and the twist about x2 moves: the six basis relation residuals have
    squares exactly 2|d|^2, 0, |d|^2, 0, 0, 0, and solve refuses at the
    first one."""
    rng = random.Random(613)
    names = [
        "commuting-x1-x2",
        "commuting-x1-y2",
        "braid-x1-y1",
        "braid-x2-y2",
        "bounding-pair-x1",
        "bounding-pair-y2",
    ]
    for g in (3, 4, 5, 6):
        gens = GeneratorSet.symplectic_basis(g)
        u = coboundary(rand_sparse(rng, g, 12), gens)
        p = (0, 0, 0, rng.choice((-3, -2, -1, 1, 2, 3))) + tuple(
            rng.randint(-3, 3) for _ in range(2 * g - 4)
        )
        d = GaussianRational(Fraction(rng.randint(-999, 999), rng.randint(1, 999)), Fraction(7, 3))
        bump = SparseVector.basis(HomologyClass(p), d)
        pert = Cocycle(gens, dict(u.values, x1=u.value("x1") + bump))
        infile = _write(tmp_path / "pert.json", ser.cocycle_to_json(pert))
        out = tmp_path / "report.json"
        assert run(["check-cocycle", "--in", infile, "--out", str(out)]) == 1
        got = {
            r["name"]: Fraction(r["residual"]["square"])
            for r in json.loads(out.read_text())["relation_residuals"]
        }
        d2 = d.abs2()
        assert got == dict(zip(names, (2 * d2, 0, d2, 0, 0, 0)))
        capsys.readouterr()
        assert run(["solve", "--genus", str(g), "--in", infile]) == 2
        assert capsys.readouterr().err == (
            "refused: nonzero residual %s on relation 'commuting-x1-x2'\n" % ExactSqrt(2 * d2)
        )


@pytest.mark.parametrize("bad", ["1e5", "0.5"])
def test_a_rational_outside_the_grammar_is_refused(tmp_path, capsys, bad):
    _, u, _ = _fixture_cocycle(seed=616)
    obj = ser.cocycle_to_json(u)
    entry = obj["values"]["x2"]["coefficients"][0]
    entry["re"] = bad
    infile = _write(tmp_path / "bad.json", obj)
    point = " ".join(str(a) for a in entry["class"])
    field = "'re' of the coefficient at %s must be a rational 'n' or 'n/d', got %r" % (point, bad)
    _refused(capsys, ["check-cocycle", "--in", infile], field)
    text = tmp_path / "bad.txt"
    text.write_text("0 0 1 0 0 0  1/2  0/1\n1 0 0 0 0 0  0/1  %s\n" % bad)
    field = "'im' on line 2 must be a rational 'n' or 'n/d', got %r" % bad
    _refused(capsys, ["decay-report", "--in", str(text)], field)


def test_a_non_object_node_is_refused(tmp_path, capsys):
    _, u, _ = _fixture_cocycle(seed=617)
    obj = ser.cocycle_to_json(u)
    obj["values"] = []
    infile = _write(tmp_path / "bad.json", obj)
    for command in ("check-cocycle", "solve"):
        _refused(capsys, [command, "--in", infile], "'values' must be a JSON object, got []")
    rels = _write(tmp_path / "rels.json", [[]])
    _refused(capsys, ["verify-relations", "--in", rels], "relation must be a JSON object, got []")


@pytest.mark.parametrize("command", ["check-cocycle", "solve", "verify-relations", "decay-report"])
def test_json_nested_too_deeply_is_refused(tmp_path, capsys, command):
    # decay-report reads a file as JSON only when it starts with "{"
    opener = '{"a":' if command == "decay-report" else "["
    infile = tmp_path / "deep.json"
    infile.write_text(opener * 200000)
    _refused(capsys, [command, "--in", str(infile)], "%s: JSON nested too deeply" % infile)


@pytest.mark.parametrize("command", ["solve", "check-cocycle", "decay-report", "verify-relations"])
def test_a_json_integer_past_the_digit_limit_is_refused_by_file(tmp_path, capsys, command):
    digits = "1" + "0" * 4999
    infile = tmp_path / "long.json"
    infile.write_text(
        '{"genus": 3, "coefficients": [{"class": [%s, 0, 0, 0, 0, 0], "re": "1", "im": "0"}]}'
        % digits
    )
    field = "%s: a JSON integer has more than %d digits" % (infile, sys.get_int_max_str_digits())
    _refused(capsys, [command, "--in", str(infile)], field)


def test_a_long_refused_value_is_cut_in_its_error(tmp_path, capsys):
    infile = _write(tmp_path / "long.json", {"genus": [0] * 10**6})
    assert run(["check-cocycle", "--in", infile]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and len(err.encode()) < 300
    assert "'genus' must be a JSON integer, got [0, 0" in err and "(3000000 characters)" in err


def test_string_fields_must_be_json_strings(tmp_path, capsys):
    rel = ser.relation_to_json(builtin_catalog(G)[0])
    named = _write(tmp_path / "named.json", [dict(rel, name={"a": 1})])
    field = "'name' of a relation must be a JSON string, got {\"a\": 1}"
    _refused(capsys, ["verify-relations", "--in", named], field)
    rel["curves"][0]["id"] = 7
    numbered = _write(tmp_path / "numbered.json", [rel])
    field = "'id' of a curve must be a JSON string, got 7"
    _refused(capsys, ["verify-relations", "--in", numbered], field)
    _, u, _ = _fixture_cocycle(seed=619)
    obj = ser.cocycle_to_json(u)
    obj["generators"][0]["id"] = 7
    infile = _write(tmp_path / "cocycle.json", obj)
    for command in ("check-cocycle", "solve"):
        _refused(capsys, [command, "--in", infile], "'id' of a curve must be a JSON string, got 7")


def test_text_integers_take_only_ascii_digits(tmp_path, capsys):
    text = tmp_path / "vector.txt"
    text.write_text("1_0 0 0 0 0 0  1 0\n")
    _refused(capsys, ["decay-report", "--in", str(text)], "line 1: coordinate '1_0' must be")
    _refused(capsys, ["orbit", "\u0663 0 0 0 0 0"], "coordinate '\u0663' must be an integer")


def _pairs_text(pairs):
    "A JSON object text of (key, value) pairs, keys repeated as given."
    return "{%s}" % ", ".join("%s: %s" % (json.dumps(k), json.dumps(v)) for k, v in pairs)


@pytest.mark.parametrize("first", ["own value", "non-cocycle value"])
def test_check_cocycle_refuses_a_value_given_twice(tmp_path, capsys, first):
    _, u, _ = _fixture_cocycle(seed=621)
    obj = ser.cocycle_to_json(u)
    own = obj["values"]["x1"]
    extra = {"class": [0, 0, 0, 97, 0, 0], "re": "1/7", "im": "0"}
    bad = dict(own, coefficients=own["coefficients"] + [extra])
    rest = [(cid, v) for cid, v in obj["values"].items() if cid != "x1"]
    # each value alone gives a different verdict, so the last one given would decide
    for value, code in ((own, 0), (bad, 1)):
        single = tmp_path / "single.json"
        single.write_text(json.dumps(dict(obj, values=dict(rest, x1=value))))
        assert run(["check-cocycle", "--in", str(single)]) == code
    twice = [("x1", own), ("x1", bad)]
    if first == "non-cocycle value":
        twice.reverse()
    infile = tmp_path / "twice.json"
    infile.write_text(
        '{"genus": 3, "generators": %s, "values": %s}'
        % (json.dumps(obj["generators"]), _pairs_text(twice + rest))
    )
    capsys.readouterr()
    assert run(["check-cocycle", "--in", str(infile)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: %s: a JSON object gives key 'x1' twice\n" % infile


def test_a_key_given_twice_in_a_coefficient_is_refused(tmp_path, capsys):
    entry = [("class", [1, 0, 0, 0, 0, 0]), ("re", "1"), ("im", "0"), ("re", "2")]
    infile = tmp_path / "vector.json"
    infile.write_text('{"genus": 3, "coefficients": [%s]}' % _pairs_text(entry))
    assert run(["decay-report", "--in", str(infile)]) == 2
    assert capsys.readouterr().err == "error: %s: a JSON object gives key 're' twice\n" % infile


def _valid_files():
    "decoder -> (the commands that read it, the JSON object of a small valid --in file)."
    _, u, _ = _fixture_cocycle(seed=624, size=2)
    return {
        "cocycle": (("solve", "check-cocycle"), ser.cocycle_to_json(u)),
        "relations": (
            ("verify-relations",),
            [ser.relation_to_json(r) for r in builtin_catalog(G)[:2]],
        ),
        "vector": (("decay-report",), ser.sparse_to_json(rand_sparse(random.Random(625), G, 2))),
    }


_REQUIRED_KEYS = [
    ("cocycle", (), "genus"),
    ("cocycle", (), "generators"),
    ("cocycle", (), "values"),
    ("cocycle", ("generators", 0), "id"),
    ("cocycle", ("generators", 0), "cls"),
    ("cocycle", ("values", "x1"), "genus"),
    ("cocycle", ("values", "x1", "coefficients", 0), "class"),
    ("cocycle", ("values", "x1", "coefficients", 0), "re"),
    ("cocycle", ("values", "x1", "coefficients", 0), "im"),
    ("relations", (0,), "name"),
    ("relations", (0,), "curves"),
    ("relations", (0,), "lhs"),
    ("relations", (0,), "rhs"),
    ("relations", (0, "curves", 0), "id"),
    ("relations", (0, "curves", 0), "cls"),
    ("vector", (), "genus"),
    ("vector", ("coefficients", 0), "class"),
    ("vector", ("coefficients", 0), "re"),
    ("vector", ("coefficients", 0), "im"),
]


@pytest.mark.parametrize(
    "decoder, path, key",
    _REQUIRED_KEYS,
    ids=["%s:%s" % (d, ".".join(map(str, path + (key,)))) for d, path, key in _REQUIRED_KEYS],
)
def test_a_missing_key_is_named_with_its_file(tmp_path, capsys, decoder, path, key):
    commands, obj = _valid_files()[decoder]
    node = obj
    for step in path:
        node = node[step]
    del node[key]
    infile = _write(tmp_path / "missing.json", obj)
    for command in commands:
        assert run([command, "--in", infile]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: %s: missing key '%s'\n" % (infile, key)


def _call(argv):
    "(exit code, stdout, stderr) of one main(argv), a usage error or --help included."
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _calls_of_every_kind(tmp_path):
    """(argv, exit code) of calls of all five subcommands, interleaved: a
    call that leaves an option unset follows one that sets it, so that a
    value left over from the call before would show."""
    _, u, gens = _fixture_cocycle(seed=622)
    cocycle = _write(tmp_path / "cocycle.json", ser.cocycle_to_json(u))
    values = dict(u.values)
    values["x1"] = values["x1"] + SparseVector.basis(y_basis(G, 1))
    refused = _write(tmp_path / "refused.json", ser.cocycle_to_json(Cocycle(gens, values)))
    v = rand_sparse(random.Random(623), G, 4)
    vec_json = _write(tmp_path / "vec.json", ser.sparse_to_json(v))
    vec_text = tmp_path / "vec.txt"
    vec_text.write_text(ser.format_sparse_lines(v))
    relations = _write(
        tmp_path / "rels.json", [ser.relation_to_json(r) for r in builtin_catalog(G)[:3]]
    )
    return [
        (["orbit", "2 3 0 0 0 0", "--steps", "3", "--format", "json"], 0),
        (["decay-report", "--in", vec_json, "--format", "csv", "--kmax", "2"], 0),
        (["solve", "--genus", "3", "--in", cocycle], 0),
        (["orbit", "2 3 0 0 0 0", "--steps", "3"], 0),
        (["decay-report", "--in", str(vec_text)], 0),
        (["verify-relations", "--genus", "4", "--dump-catalog"], 0),
        (["solve", "--genus", "4", "--in", cocycle], 2),
        (["solve", "--in", cocycle], 0),
        (["verify-relations", "--genus", "2"], 2),
        (["check-cocycle", "--in", cocycle], 0),
        (["decay-report", "--in", vec_json], 0),
        (["verify-relations", "--in", relations], 0),
        (["solve", "--in", refused], 2),
        (["check-cocycle", "--in", refused], 1),
        (["check-cocycle", "--genus", "3"], 2),
        (["orbit", "1 0 0 0 0 0", "--genus", "4"], 2),
        (["--help"], 0),
        (["solve", "--help"], 0),
        (["orbit", "2 3 0 0 0 0", "--steps", "2", "--genus", "3"], 0),
        (["verify-relations"], 0),
    ]


def test_a_reused_parser_answers_as_a_fresh_one(tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    calls = _calls_of_every_kind(tmp_path)
    cli.build_parser.cache_clear()
    reused = [_call(argv) for argv, _ in calls]
    fresh = []
    for argv, _ in calls:
        cli.build_parser.cache_clear()
        fresh.append(_call(argv))
    for (argv, code), got, want in zip(calls, reused, fresh):
        assert got == want, argv
        assert got[0] == code, argv
    by_argv = {tuple(argv): got for (argv, _), got in zip(calls, reused)}
    assert by_argv["check-cocycle", "--genus", "3"][2].endswith(
        "error: unrecognized arguments: --genus 3\n"
    )
    assert by_argv[("--help",)][1].startswith("usage: twistlab [-h]")


def _assert_no_garbage(calls):
    "Each main(argv) of calls returns its code and leaves nothing for gc.collect()."
    for argv, code in calls:  # warm-up: the parser and the catalogs are built once
        assert main(argv) == code, argv
    gc.disable()  # so that no collection inside a call hides its garbage
    try:
        for argv, code in calls:
            gc.collect()
            assert main(argv) == code, argv
            assert gc.collect() == 0, argv
    finally:
        gc.enable()


def test_a_call_leaves_no_garbage(tmp_path, capsys):
    out = str(tmp_path / "out")
    _assert_no_garbage(
        [
            (argv + ["--out", out], code)
            for argv, code in _calls_of_every_kind(tmp_path)
            if "--help" not in argv and argv != ["check-cocycle", "--genus", "3"]
        ]
    )


def test_a_refused_call_leaves_no_garbage(tmp_path, capsys):
    # main pauses the collector on the strength of this, so each path that
    # refuses a file is pinned too.  An argparse usage error and --help are
    # left out: they leave cycles of argparse's own (6 objects of its error,
    # 25 of its help formatter), made before any twistlab code runs, which
    # the first collection after the call frees.
    def text(name, body):
        path = tmp_path / name
        path.write_text(body)
        return str(path)

    entry = '{"class": %s, "re": %s, "im": "0"}'
    vector = '{"genus": 3, "coefficients": [%s]}'
    calls = [
        ("twice.json", '{"genus": 3, "genus": 3, "coefficients": []}'),
        ("malformed.json", '{"genus": 3, "coefficients": ['),
        ("deep.json", '{"a":' * 200000),
        ("float.json", vector % (entry % ("[1.0, 0, 0, 0, 0, 0]", '"1"'))),
        ("rational.json", vector % (entry % ("[1, 0, 0, 0, 0, 0]", '"1/x"'))),
        ("long.json", vector % (entry % ("[1%s, 0, 0, 0, 0, 0]" % ("0" * 4999), '"1"'))),
        ("missing-key.json", vector % '{"re": "1", "im": "0"}'),
        ("line.txt", "1 0 0 0 0 0  1\n"),
    ]
    argvs = [["decay-report", "--in", text(name, body)] for name, body in calls]
    argvs.append(["solve", "--in", str(tmp_path / "absent.json")])
    _assert_no_garbage([(argv, 2) for argv in argvs])


@pytest.fixture
def swap_solve(monkeypatch):
    "swap_solve(run) makes the solve subcommand call run(args) instead."

    def swap(run):
        monkeypatch.setattr(cli, "cmd_solve", run)
        cli.build_parser.cache_clear()

    yield swap
    cli.build_parser.cache_clear()  # the next call builds it on cmd_solve again


def _recorder(seen, code):
    "A command that records whether the collector runs, then returns or raises code."

    def run(args):
        seen.append(gc.isenabled())
        if isinstance(code, BaseException):
            raise code
        return code

    return run


@pytest.mark.parametrize("code", [0, 1, 2, ValueError("bad"), RuntimeError("escapes")])
def test_a_call_pauses_the_collector_and_enables_it_again(swap_solve, capsys, code):
    seen = []
    swap_solve(_recorder(seen, code))
    assert gc.isenabled()
    if isinstance(code, RuntimeError):
        with pytest.raises(RuntimeError, match="escapes"):
            main(["solve"])
    else:
        assert main(["solve"]) == (2 if isinstance(code, ValueError) else code)
    assert seen == [False]
    assert gc.isenabled()


@pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"], ["solve", "--nope"], []])
def test_argument_parsing_runs_paused_and_its_exit_enables_the_collector(monkeypatch, argv):
    seen = []
    parser = cli.build_parser()

    class Recording:
        def parse_args(self, argv):
            seen.append(gc.isenabled())
            return parser.parse_args(argv)

    monkeypatch.setattr(cli, "build_parser", Recording)
    assert gc.isenabled()
    code, _, _ = _call(argv)
    assert code == (0 if "--help" in argv else 2)
    assert seen == [False]
    assert gc.isenabled()


def test_a_caller_that_paused_the_collector_finds_it_paused(swap_solve, capsys):
    seen = []
    gc.disable()
    try:
        assert main(["orbit", "2 3 0 0 0 0", "--steps", "2"]) == 0
        assert not gc.isenabled()
        assert _call(["--help"])[0] == 0 and _call(["solve", "--nope"])[0] == 2
        assert not gc.isenabled()
        swap_solve(_recorder(seen, RuntimeError("escapes")))
        with pytest.raises(RuntimeError):
            main(["solve"])
        assert not gc.isenabled()
    finally:
        gc.enable()
    assert seen == [False]


def test_no_automatic_collection_runs_inside_a_call(tmp_path, capsys):
    _, u, _ = _fixture_cocycle(seed=626, size=60)
    text = ser.json_text(ser.cocycle_to_json(u))
    infile = tmp_path / "cocycle.json"
    infile.write_text(text)
    starts = []

    def hook(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    threshold = gc.get_threshold()
    gc.set_threshold(50)  # a collection per 50 net new containers
    gc.callbacks.append(hook)
    try:
        # the same decoding outside main does set off collections
        ser.cocycle_from_json(json.loads(text))
        outside = len(starts)
        starts.clear()
        assert main(["solve", "--in", str(infile)]) == 0
    finally:
        gc.callbacks.remove(hook)
        gc.set_threshold(*threshold)
    assert outside > 0
    assert starts == []


# Any one node of a small valid file, replaced by a value of another JSON
# type, is refused or checked: main returns 0, 1 or 2 and never raises.

_JSON_KINDS = {
    type(None): st.none(),
    bool: st.booleans(),
    int: st.integers(-3, 3),
    float: st.floats(-4, 4, allow_nan=False),
    str: st.text(max_size=4),
    list: st.lists(st.integers(-2, 2), max_size=3),
    dict: st.dictionaries(st.text(max_size=3), st.integers(-2, 2), max_size=2),
}


def _paths(node, path=()):
    yield path
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, path + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _paths(child, path + (i,))


def _replaced(node, path, value):
    if not path:
        return value
    copy = dict(node) if isinstance(node, dict) else list(node)
    copy[path[0]] = _replaced(node[path[0]], path[1:], value)
    return copy


def _small_cocycle_file():
    gens = GeneratorSet.symplectic_basis(G, extra=(Curve("z", x_basis(G, 1) + y_basis(G, 2)),))
    return ser.cocycle_to_json(coboundary(rand_sparse(random.Random(618), G, 2), gens))


_FILES = [
    (_small_cocycle_file(), (["check-cocycle"], ["solve", "--genus", "3"])),
    ([ser.relation_to_json(r) for r in builtin_catalog(G)[:3]], (["verify-relations"],)),
]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_a_node_of_another_type_never_escapes_main(tmp_path_factory, data):
    good, commands = data.draw(st.sampled_from(_FILES))
    path = data.draw(st.sampled_from(list(_paths(good))))
    node = good
    for key in path:
        node = node[key]
    kind = data.draw(st.sampled_from([k for k in _JSON_KINDS if type(node) is not k]))
    bad = _replaced(good, path, data.draw(_JSON_KINDS[kind]))
    infile = tmp_path_factory.getbasetemp() / "node.json"
    infile.write_text(json.dumps(bad))
    outfile = str(tmp_path_factory.getbasetemp() / "node.out")
    for command in commands:
        assert main(command + ["--in", str(infile), "--out", outfile]) in (0, 1, 2)
