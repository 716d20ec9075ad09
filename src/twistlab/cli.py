"""Command line front end.

Subcommands: verify-relations, solve, orbit, check-cocycle, decay-report;
each takes only the options it reads.  Exit status 0 means every check
passed, 1 means a verification failed, 2 means malformed input or a
violated precondition.
"""

import argparse
import csv
import io
import json
import sys

from . import serialize
from .cohomology import (
    NonCocycleError,
    applicable_relations,
    relation_residual,
    s_vector,
    smoothness_report,
    solve_coboundary,
)
from .fourier import decay_constants, inner
from .lattice import basis_curve_class, choose_increasing_twist, norm1, orbit_ray
from .words import MetadataError, builtin_catalog, matrix_residual

PASS, FAIL, BAD_INPUT = 0, 1, 2


def _emit(args, text):
    if args.outfile:
        with open(args.outfile, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(args, obj):
    _emit(args, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _read_infile(args):
    if not args.infile:
        raise ValueError("this command needs --in")
    with open(args.infile) as fh:
        return fh.read()


def _decode_json(args, text):
    "The JSON document text of --in; too deep a nesting or too long an integer is a ValueError."
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("%s: JSON nested too deeply to decode" % args.infile) from None
    except json.JSONDecodeError:
        raise
    except ValueError:  # int() of an integer's digits
        raise serialize._too_long("%s: a JSON integer" % args.infile) from None


def _load_cocycle(args):
    return serialize.cocycle_from_json(_decode_json(args, _read_infile(args)))


def cmd_verify_relations(args):
    if args.infile:
        relations = serialize.relations_from_json(_decode_json(args, _read_infile(args)))
        for rel in relations:
            if any(c.cls.genus != args.genus for c in rel.curves):
                raise ValueError("relation %r is not of genus %d" % (rel.name, args.genus))
    else:
        relations = builtin_catalog(args.genus)
    if args.dump_catalog:
        _emit_json(args, [serialize.relation_to_json(rel) for rel in relations])
        return PASS
    instances = []
    failed = []
    for rel in relations:
        residual = matrix_residual(rel)
        if residual:
            failed.append(rel.name)
        instances.append(
            {"name": rel.name, "passed": not residual, "matrix_residual": residual}
        )
    report = {
        "genus": args.genus,
        "all_passed": not failed,
        "failed": failed,
        "instances": instances,
    }
    _emit_json(args, report)
    if failed:
        print("failed relations: %s" % ", ".join(failed), file=sys.stderr)
        return FAIL
    return PASS


def cmd_solve(args):
    u = _load_cocycle(args)
    if args.genus is not None and args.genus != u.genus:
        raise ValueError("--genus %d but the cocycle has genus %d" % (args.genus, u.genus))
    report = solve_coboundary(u)
    obj = serialize.report_to_json(report)
    if report.residual:
        obj["smoothness"] = []
        status = FAIL
    else:
        checks = smoothness_report(report, kmax=5)
        obj["smoothness"] = [{"k": c.k, "passed": c.passed} for c in checks]
        status = PASS if all(c.passed for c in checks) else FAIL
    _emit_json(args, obj)
    if status:
        print("reconstruction residual is nonzero or a bound failed", file=sys.stderr)
    return status


def cmd_orbit(args):
    m = serialize.parse_class(args.start, genus=args.genus)
    if not m:
        raise ValueError("the zero class has no increasing ray")
    if args.steps < 1:
        raise ValueError("steps must be at least 1")
    idx, eps = choose_increasing_twist(m)
    ray = orbit_ray(basis_curve_class(m.genus, idx), eps, m, args.steps + 1)
    norms = [norm1(point) for point in ray]
    # norm1 grows along the ray and bounds every coordinate, so if the last
    # one prints, every row does
    limit = sys.get_int_max_str_digits()
    if limit and norms[-1] >= 10**limit:
        too_long = 10**limit
        step = next(n for n, norm in enumerate(norms) if norm >= too_long)
        raise serialize._too_long("norm1 at step %d of the ray" % step)
    rows = [
        {"n": n, "class": serialize.format_class(point), "norm1": norm}
        for n, (point, norm) in enumerate(zip(ray, norms))
    ]
    if args.fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=["n", "class", "norm1"])
        writer.writeheader()
        writer.writerows(rows)
        _emit(args, buf.getvalue())
    else:
        _emit_json(args, rows)
    return PASS


def cmd_check_cocycle(args):
    u = _load_cocycle(args)
    rel_report = []
    clean = True
    for rel in applicable_relations(u.gens):
        res = relation_residual(u, rel)
        clean = clean and not res
        rel_report.append({"name": rel.name, "residual": serialize.sqrt_to_json(res)})
    projected = [(curve, s_vector(u, curve)) for curve in u.gens]
    s_report = []
    for curve, s in projected:
        clean = clean and not s
        s_report.append({"id": curve.id, "norm": serialize.sqrt_to_json(s.norm())})
    pair_report = []
    for i, (a, sa) in enumerate(projected):
        for b, sb in projected[i + 1 :]:
            # homologous curves bound, so the pair separates and has no pairing
            if a.cls == b.cls or a.cls == -b.cls:
                continue
            val = inner(sa, sb)
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
    _emit_json(args, report)
    return PASS if clean else FAIL


def cmd_decay_report(args):
    if args.kmax < 0:
        raise ValueError("kmax must be nonnegative")
    text = _read_infile(args)
    if text.lstrip().startswith("{"):
        v = serialize.vector_from_json(_decode_json(args, text))
    else:
        v = serialize.parse_sparse_lines(text)
    orders = range(0, args.kmax + 1)
    rows = [
        {"k": k, "F": serialize.sqrt_to_json(fk)}
        for k, fk in zip(orders, decay_constants((v,), orders))
    ]
    if args.fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["k", "F_square", "F_approx"])
        for row in rows:
            writer.writerow([row["k"], row["F"]["square"], row["F"]["approx"]])
        _emit(args, buf.getvalue())
    else:
        _emit_json(args, {"kmax": args.kmax, "constants": rows})
    return PASS


_OPTIONS = {
    "--genus": {"type": int, "default": 3},
    "--in": {"dest": "infile", "default": None},
    "--out": {"dest": "outfile", "default": None},
    "--format": {"dest": "fmt", "choices": ("json", "csv")},
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="twistlab",
        description="Exact checks for twist relations, orbit rays, cocycles and coboundaries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help, *options, **defaults):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run, **defaults)
        for option in options:
            p.add_argument(option, **_OPTIONS[option])
        return p

    verify = command("verify-relations", cmd_verify_relations, "run the relation catalog",
                     "--genus", "--in", "--out")
    verify.add_argument(
        "--dump-catalog",
        action="store_true",
        help="emit the instances as JSON instead of verifying them",
    )
    solve = command("solve", cmd_solve, "reconstruct a primitive of a cocycle", "--in", "--out")
    solve.add_argument("--genus", type=int, default=None, help="must equal the file's genus")
    orbit = command("orbit", cmd_orbit, "emit an increasing twist ray",
                    "--genus", "--out", "--format", fmt="csv")
    orbit.add_argument("start", help="class as 'a1 b1 ... ag bg'")
    orbit.add_argument("--steps", type=int, default=5)
    command("check-cocycle", cmd_check_cocycle, "relation residuals, s-vectors, pairings",
            "--in", "--out")
    decay = command("decay-report", cmd_decay_report, "decay constants of a sparse vector",
                    "--in", "--out", "--format", fmt="json")
    decay.add_argument("--kmax", type=int, default=5)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "genus", None) is not None and args.genus < 3:
            raise ValueError("genus < 3")
        return args.run(args)
    except (MetadataError, NonCocycleError) as exc:
        print("refused: %s" % exc, file=sys.stderr)
        return BAD_INPUT
    except (ValueError, TypeError, KeyError, OSError, json.JSONDecodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
