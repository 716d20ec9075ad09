import json
import random
from fractions import Fraction

import pytest

from twistlab import (
    Cocycle,
    GaussianRational,
    GeneratorSet,
    SparseVector,
    builtin_catalog,
    coboundary,
    x_basis,
    y_basis,
)
from twistlab import serialize as ser
from twistlab.cli import main

from helpers import rand_sparse

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
    ):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2


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


def test_orbit_json_format(tmp_path, capsys):
    out = tmp_path / "orbit.json"
    assert run(["orbit", "0 1 0 0 0 0", "--steps", "2", "--format", "json", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())
    assert [r["n"] for r in rows] == [0, 1, 2]
    assert rows[0]["class"] == "0 1 0 0 0 0"


def test_solve_round_trip(tmp_path, capsys):
    f, u, _ = _fixture_cocycle()
    infile = _write(tmp_path / "cocycle.json", ser.cocycle_to_json(u))
    out = tmp_path / "report.json"
    assert run(["solve", "--in", infile, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["residual"]["square"] == "0/1"
    assert ser.sparse_from_json(report["f"]) == f
    assert all(entry["passed"] for entry in report["smoothness"])


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


def test_decay_report_missing_input(capsys):
    assert run(["decay-report"]) == 2


def test_reports_byte_stable(tmp_path, capsys):
    _, u, _ = _fixture_cocycle(seed=608)
    infile = _write(tmp_path / "cocycle.json", ser.cocycle_to_json(u))
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["solve", "--in", infile, "--out", str(out1)]) == 0
    assert run(["solve", "--in", infile, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
