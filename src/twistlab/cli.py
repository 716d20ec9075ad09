"""Command line front end.

Subcommands: verify-relations, solve, orbit, check-cocycle, decay-report.
Exit status 0 means every check passed, 1 means a verification failed,
2 means malformed input or a violated precondition.
"""

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass

from . import serialize
from .cohomology import (
    NonCocycleError,
    c_pairing,
    matches_generators,
    relation_residual,
    s_vector,
    smoothness_report,
    solve_coboundary,
)
from .fourier import decay_constants
from .lattice import basis_curve_class, choose_increasing_twist, norm1, transvect
from .words import MetadataError, builtin_catalog, check_metadata, word_matrix

PASS, FAIL, BAD_INPUT = 0, 1, 2


@dataclass
class RunConfig:
    genus: int = 3
    infile: str = None
    outfile: str = None
    fmt: str = None

    def __post_init__(self):
        if self.genus < 3:
            raise ValueError("genus < 3")


def _emit(cfg, text):
    if cfg.outfile:
        with open(cfg.outfile, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(cfg, obj):
    _emit(cfg, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _read_infile(cfg):
    if not cfg.infile:
        raise ValueError("this command needs --in")
    with open(cfg.infile) as fh:
        return fh.read()


def _load_cocycle(cfg):
    return serialize.cocycle_from_json(json.loads(_read_infile(cfg)))


def cmd_verify_relations(cfg, dump=False):
    if cfg.infile:
        data = json.loads(_read_infile(cfg))
        relations = [serialize.relation_from_json(obj) for obj in data]
    else:
        relations = builtin_catalog(cfg.genus)
    if dump:
        _emit_json(cfg, [serialize.relation_to_json(rel) for rel in relations])
        return PASS
    instances = []
    failed = []
    for rel in relations:
        lhs = word_matrix(rel.lhs, rel.curves)
        rhs = word_matrix(rel.rhs, rel.curves)
        residual = max(
            (abs(a - b) for ra, rb in zip(lhs.rows, rhs.rows) for a, b in zip(ra, rb)),
            default=0,
        )
        check_metadata(rel)
        ok = lhs == rhs
        if not ok:
            failed.append(rel.name)
        instances.append(
            {"name": rel.name, "passed": ok, "matrix_residual": residual}
        )
    report = {
        "genus": cfg.genus,
        "all_passed": not failed,
        "failed": failed,
        "instances": instances,
    }
    _emit_json(cfg, report)
    if failed:
        print("failed relations: %s" % ", ".join(failed), file=sys.stderr)
        return FAIL
    return PASS


def cmd_solve(cfg):
    u = _load_cocycle(cfg)
    report = solve_coboundary(u)
    obj = serialize.report_to_json(report)
    if report.residual:
        obj["smoothness"] = []
        status = FAIL
    else:
        checks = smoothness_report(report, kmax=5)
        obj["smoothness"] = [{"k": c.k, "passed": c.passed} for c in checks]
        status = PASS if all(c.passed for c in checks) else FAIL
    _emit_json(cfg, obj)
    if status:
        print("reconstruction residual is nonzero or a bound failed", file=sys.stderr)
    return status


def cmd_orbit(cfg, start, steps):
    m = serialize.parse_class(start, genus=cfg.genus)
    if not m:
        raise ValueError("the zero class has no increasing ray")
    if steps < 1:
        raise ValueError("steps must be at least 1")
    idx, eps = choose_increasing_twist(m)
    curve = basis_curve_class(m.genus, idx)
    rows = []
    for n in range(steps + 1):
        point = transvect(curve, eps * n, m)
        rows.append({"n": n, "class": serialize.format_class(point), "norm1": norm1(point)})
    if cfg.fmt == "json":
        _emit_json(cfg, rows)
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=["n", "class", "norm1"])
        writer.writeheader()
        writer.writerows(rows)
        _emit(cfg, buf.getvalue())
    return PASS


def cmd_check_cocycle(cfg):
    u = _load_cocycle(cfg)
    relations = [r for r in builtin_catalog(u.genus) if matches_generators(r, u.gens)]
    rel_report = []
    clean = True
    for rel in relations:
        res = relation_residual(u, rel)
        clean = clean and not res
        rel_report.append({"name": rel.name, "residual": serialize.sqrt_to_json(res)})
    s_report = []
    for curve in u.gens:
        s = s_vector(u, curve)
        clean = clean and not s
        s_report.append(
            {"id": curve.id, "norm": serialize.sqrt_to_json(s.norm())}
        )
    pair_report = []
    gens = list(u.gens)
    for i, a in enumerate(gens):
        for b in gens[i + 1 :]:
            if a.cls == b.cls or a.cls == -b.cls:
                continue
            val = c_pairing(u, a, b)
            pair_report.append(
                {
                    "a": a.id,
                    "b": b.id,
                    "re": serialize.format_fraction(val.re),
                    "im": serialize.format_fraction(val.im),
                }
            )
    report = {
        "genus": u.genus,
        "relation_residuals": rel_report,
        "s_norms": s_report,
        "pairings": pair_report,
        "all_zero": clean,
    }
    _emit_json(cfg, report)
    return PASS if clean else FAIL


def cmd_decay_report(cfg, kmax):
    text = _read_infile(cfg)
    stripped = text.lstrip()
    if stripped.startswith("{"):
        v = serialize.sparse_from_json(json.loads(text))
    else:
        v = serialize.parse_sparse_lines(text)
    orders = range(0, kmax + 1)
    rows = [
        {"k": k, "F": serialize.sqrt_to_json(fk)}
        for k, fk in zip(orders, decay_constants((v,), orders))
    ]
    if cfg.fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["k", "F_square", "F_approx"])
        for row in rows:
            writer.writerow([row["k"], row["F"]["square"], row["F"]["approx"]])
        _emit(cfg, buf.getvalue())
    else:
        _emit_json(cfg, {"kmax": kmax, "constants": rows})
    return PASS


def build_parser():
    parser = argparse.ArgumentParser(
        prog="twistlab",
        description="Exact checks for twist relations, orbit rays, cocycles and coboundaries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--genus", type=int, default=3)
        p.add_argument("--in", dest="infile", default=None)
        p.add_argument("--out", dest="outfile", default=None)
        p.add_argument("--format", dest="fmt", choices=("json", "csv"), default=None)

    verify = sub.add_parser("verify-relations", help="run the relation catalog")
    common(verify)
    verify.add_argument(
        "--dump-catalog",
        action="store_true",
        help="emit the instances as JSON instead of verifying them",
    )
    common(sub.add_parser("solve", help="reconstruct a primitive of a cocycle"))

    orbit = sub.add_parser("orbit", help="emit an increasing twist ray")
    common(orbit)
    orbit.add_argument("start", help="class as 'a1 b1 ... ag bg'")
    orbit.add_argument("--steps", type=int, default=5)

    common(sub.add_parser("check-cocycle", help="relation residuals, s-vectors, pairings"))

    decay = sub.add_parser("decay-report", help="decay constants of a sparse vector")
    common(decay)
    decay.add_argument("--kmax", type=int, default=5)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = RunConfig(
            genus=args.genus,
            infile=args.infile,
            outfile=args.outfile,
            fmt=args.fmt,
        )
        if args.command == "verify-relations":
            return cmd_verify_relations(cfg, dump=args.dump_catalog)
        if args.command == "solve":
            return cmd_solve(cfg)
        if args.command == "orbit":
            return cmd_orbit(cfg, args.start, args.steps)
        if args.command == "check-cocycle":
            return cmd_check_cocycle(cfg)
        if args.command == "decay-report":
            return cmd_decay_report(cfg, args.kmax)
        raise ValueError("unknown command %r" % args.command)
    except (MetadataError, NonCocycleError) as exc:
        print("refused: %s" % exc, file=sys.stderr)
        return BAD_INPUT
    except (ValueError, TypeError, KeyError, OSError, json.JSONDecodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
