"""Seeded inputs for the twistlab benchmark, built with the standard library only.

Nothing here imports twistlab.  The coboundary of a primitive is computed
with the transvection m + <c, m> c written out by hand and every input
file is written as JSON (or sparse-vector text) directly, so a change to
the program's own coboundary or serialize code leaves the inputs
byte-identical.  Each op carries the verdict that check.py expects.

Points are coordinate tuples (a1, b1, ..., ag, bg); a vector is a dict
from points to (re, im) pairs of Fractions with no zero entries.
"""

import hashlib
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

BIG = 10 ** 6  # numerators and denominators of the dense coefficients

# solve-dense: (genus, support size) strata, one call each per pass.  The
# cost of a call grows like the support size times a factor rising with
# g, so sizes shrink as g grows: 8 small calls (10 or 14 points), 20 of
# about 0.25 s and 4 of about 0.5 s (up to 200 points) on a quiet core.
# The median and the 75th percentile both fall inside the middle tier;
# between strata of very different cost they would jump from run to run
# with machine noise.
DENSE_STRATA = tuple((g, n) for g in (3, 4, 5, 6) for n in (10, 14)) + tuple(
    (g, n)
    for g, sizes in (
        (3, (90, 95, 100, 105, 110, 200)),
        (4, (65, 68, 72, 76, 79, 143)),
        (5, (50, 52, 55, 58, 61, 109)),
        (6, (38, 40, 42, 44, 46, 83)),
    )
    for n in sizes
)
# solve-longray: (genus, support size, magnitude of the long coordinate,
# size of its dual coordinate).  Magnitudes are set per stratum so that
# every call costs about 0.3 s on a quiet core, for the same reason.
LONGRAY_STRATA = (
    (3, 3, 240, 1), (3, 4, 580, 2), (3, 5, 220, 1), (3, 6, 380, 2), (3, 3, 590, 2), (3, 4, 280, 1),
    (4, 3, 330, 1), (4, 4, 630, 2), (4, 5, 220, 1), (4, 6, 490, 2), (4, 3, 570, 2), (4, 4, 280, 1),
    (5, 3, 300, 1), (5, 4, 590, 2), (5, 5, 230, 1), (5, 6, 420, 2), (5, 3, 550, 2), (5, 4, 230, 1),
    (6, 3, 270, 1), (6, 4, 540, 2), (6, 5, 220, 1), (6, 6, 410, 2), (6, 3, 590, 2), (6, 4, 280, 1),
)
# audit: cocycle support size per genus, decay-report vector size
AUDIT_GENERA = (3, 4, 5, 6)
AUDIT_SUPPORT = 60
DECAY_SUPPORT = 300

# The ten builtin catalog instances, in catalog order, and the six whose
# curves are all basis classes (the solver's default pre-check).
CATALOG_NAMES = (
    "commuting-x1-x2",
    "commuting-x1-y2",
    "braid-x1-y1",
    "braid-x2-y2",
    "chain-x1-y1-x1+x2",
    "lantern-x1-x2-x3",
    "bounding-pair-x1",
    "bounding-pair-y2",
    "conjugation-x1-y1",
    "conjugation-y2-x2",
)
BASIS_RELATIONS = (
    "commuting-x1-x2",
    "commuting-x1-y2",
    "braid-x1-y1",
    "braid-x2-y2",
    "bounding-pair-x1",
    "bounding-pair-y2",
)


# ------------------------------------------------------------- lattice


def pairing(c, m):
    "Intersection pairing <c, m>: +1 on each (a_j, b_j) pair."
    return sum(c[k] * m[k + 1] - c[k + 1] * m[k] for k in range(0, len(c), 2))


def transvect(c, n, m):
    "n-fold twist of m about c:  m + n <c, m> c."
    t = n * pairing(c, m)
    if not t:
        return m
    return tuple(a + t * b for a, b in zip(m, c))


def basis(g, idx):
    return tuple(1 if k == idx else 0 for k in range(2 * g))


def basis_name(idx):
    return "%s%d" % ("x" if idx % 2 == 0 else "y", idx // 2 + 1)


def norm1(m):
    return sum(abs(a) for a in m)


def twist_matrix(c, n=1):
    "Rows of I + n c w^T with w the pairing row, so that M m = m + n <c, m> c."
    dim = len(c)
    w = [0] * dim
    for k in range(0, dim, 2):
        w[k], w[k + 1] = -c[k + 1], c[k]
    return [[(i == j) + n * c[i] * w[j] for j in range(dim)] for i in range(dim)]


def matmul(A, B):
    cols = list(zip(*B))
    return [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in A]


def word_matrix(word, classes):
    dim = len(next(iter(classes.values())))
    M = [[int(i == j) for j in range(dim)] for i in range(dim)]
    for cid, e in word:
        M = matmul(M, twist_matrix(classes[cid], e))
    return M


# ------------------------------------------------------------- vectors


def add_into(vec, m, re, im):
    old = vec.get(m)
    if old is not None:
        re, im = old[0] + re, old[1] + im
    if re or im:
        vec[m] = (re, im)
    else:
        vec.pop(m, None)


def coboundary(f, g):
    "Values u(c) = f - t_c f on the 2g basis twists, keyed by basis name."
    values = {}
    for idx in range(2 * g):
        c = basis(g, idx)
        val = dict(f)
        for m, (re, im) in f.items():
            add_into(val, transvect(c, 1, m), -re, -im)
        values[basis_name(idx)] = val
    return values


def rand_scalar(rng, bound):
    def part():
        num = 0
        while not num:
            num = rng.randint(-bound, bound)
        return Fraction(num, rng.randint(1, bound))

    return part(), part()


def rand_point(rng, g, bound):
    while True:
        m = tuple(rng.randint(-bound, bound) for _ in range(2 * g))
        if any(m):
            return m


def dense_primitive(rng, g, size):
    f = {}
    while len(f) < size:
        f[rand_point(rng, g, 3)] = rand_scalar(rng, BIG)
    return f


def longray_primitive(rng, g, size, magnitude, step):
    """Points with a b-coordinate of magnitude a..a+9 on one handle, an
    a-coordinate of +-step on the same handle and zeros elsewhere.

    The first nonzero coordinate is the small one, so the solver walks
    each ray along the long coordinate in steps of size step: the case
    where the walk is quadratic in the magnitude.  Point i sits on handle
    i mod g (handles permuted by the seed) and its two coordinates have
    opposite signs for even i, equal signs for odd i; a ray that must
    cross zero is several times longer, so leaving these to the seed
    would make the cost of a call depend on it.
    """
    handles = list(range(g))
    rng.shuffle(handles)
    f = {}
    i = 0
    while len(f) < size:
        j = handles[i % g]
        sign = rng.choice((-1, 1))
        m = [0] * (2 * g)
        m[2 * j] = sign * step
        m[2 * j + 1] = sign * (-1) ** (i + 1) * rng.randint(magnitude, magnitude + 9)
        if tuple(m) not in f:
            f[tuple(m)] = rand_scalar(rng, 1000)
            i += 1
    return f


# ------------------------------------------------------------ encoders


def frac(q):
    return "%d/%d" % (q.numerator, q.denominator)


def sparse_json(g, vec):
    return {
        "genus": g,
        "full": False,
        "coefficients": [
            {"class": list(m), "re": frac(vec[m][0]), "im": frac(vec[m][1])}
            for m in sorted(vec)
        ],
    }


def sparse_text(vec):
    return "".join(
        "%s  %s  %s\n" % (" ".join(map(str, m)), frac(vec[m][0]), frac(vec[m][1]))
        for m in sorted(vec)
    )


def cocycle_json(g, values):
    return {
        "genus": g,
        "generators": [
            {"id": basis_name(idx), "cls": list(basis(g, idx)), "separating": False}
            for idx in range(2 * g)
        ],
        "values": {cid: sparse_json(g, vec) for cid, vec in values.items()},
    }


def dump(obj):
    return json.dumps(obj, sort_keys=True) + "\n"


# ----------------------------------------------------------------- ops


@dataclass
class Op:
    """One CLI call: its arguments (with input file names relative to the
    input directory), the file contents it needs and the expected verdict."""

    label: str
    kind: str
    args: list
    files: dict = field(default_factory=dict)
    expect: dict = field(default_factory=dict)

    def argv(self, indir):
        return [os.path.join(indir, a[1:]) if a.startswith("@") else a for a in self.args]


def solve_op(label, g, f):
    values = coboundary(f, g)
    name = label + ".json"
    return Op(
        label,
        "solve",
        ["solve", "--genus", str(g), "--in", "@" + name],
        {name: dump(cocycle_json(g, values))},
        {"genus": g, "f": f, "values": values},
    )


def perturbation(rng, g):
    """A point p and coefficient d for a perturbation of u(x1).

    p has p[0] = p[1] = p[2] = 0 and p[3] != 0, so it is fixed by the
    twists about x1, y1 and y2 and moved by the twist about x2.  Adding
    d e_p to u(x1) changes the six basis relation residuals by exactly
    (d - t_x2 d, 0, d, 0, 0, 0): squares 2|d|^2, 0, |d|^2, 0, 0, 0.  The
    x1 projected value becomes d e_p, every other one stays zero.
    """
    p = [0, 0, 0, rng.choice((-3, -2, -1, 1, 2, 3))]
    p += [rng.randint(-3, 3) for _ in range(2 * g - 4)]
    return tuple(p), rand_scalar(rng, 1000)


def perturbed_values(rng, g, f):
    values = coboundary(f, g)
    p, d = perturbation(rng, g)
    add_into(values["x1"], p, *d)
    return values, d


def abs2(d):
    return d[0] * d[0] + d[1] * d[1]


def check_op(label, g, values, d=None):
    name = label + ".json"
    d2 = abs2(d) if d else Fraction(0)
    return Op(
        label,
        "check-cocycle",
        ["check-cocycle", "--in", "@" + name],
        {name: dump(cocycle_json(g, values))},
        {
            "genus": g,
            "residuals": dict(zip(BASIS_RELATIONS, (2 * d2, 0, d2, 0, 0, 0))),
            "s_norms": {"x1": d2},
        },
    )


def refused_op(label, g, values):
    name = label + ".json"
    return Op(
        label,
        "solve-refused",
        ["solve", "--genus", str(g), "--in", "@" + name],
        {name: dump(cocycle_json(g, values))},
        {"relation": BASIS_RELATIONS[0]},
    )


def relation_file(rng, g):
    """Relation instances at genus g: two that hold and two that do not.

    A commuting pair of disjoint basis curves and a braid of a dual pair
    hold; a 'commuting' dual pair and a braid with one letter dropped do
    not.  Declared pairings are correct, so no instance is refused.
    """
    j, k = rng.sample(range(g), 2)
    dual = (basis(g, 2 * j), basis(g, 2 * j + 1))
    disjoint = (basis(g, 2 * j + rng.randint(0, 1)), basis(g, 2 * k + rng.randint(0, 1)))
    specs = [
        ("ok-commuting", disjoint, [["a", 1], ["b", 1]], [["b", 1], ["a", 1]]),
        ("ok-braid", dual, [["a", 1], ["b", 1], ["a", 1]], [["b", 1], ["a", 1], ["b", 1]]),
        ("broken-commuting", dual, [["a", 1], ["b", 1]], [["b", 1], ["a", 1]]),
        ("broken-braid", dual, [["a", 1], ["b", 1], ["a", 1]], [["b", 1], ["a", 1]]),
    ]
    rng.shuffle(specs)
    objs, expected = [], []
    for name, (ca, cb), lhs, rhs in specs:
        classes = {"a": ca, "b": cb}
        L, R = word_matrix(lhs, classes), word_matrix(rhs, classes)
        residual = max(abs(x - y) for rl, rr in zip(L, R) for x, y in zip(rl, rr))
        objs.append(
            {
                "name": name,
                "curves": [
                    {"id": cid, "cls": list(cls), "separating": False}
                    for cid, cls in classes.items()
                ],
                "lhs": lhs,
                "rhs": rhs,
                "intersections": [["a", "b", pairing(ca, cb)]],
            }
        )
        expected.append((name, L == R, residual))
    return objs, expected


def decay_op(label, rng, g, fmt):
    vec = dense_primitive(rng, g, DECAY_SUPPORT)
    name = label + (".json" if fmt == "json" else ".txt")
    text = dump(sparse_json(g, vec)) if fmt == "json" else sparse_text(vec)
    return Op(
        label,
        "decay-report",
        ["decay-report", "--in", "@" + name, "--kmax", "5"],
        {name: text},
        {"vec": vec, "kmax": 5},
    )


def solve_dense(rng):
    return [
        solve_op("dense-g%d-n%d" % (g, n), g, dense_primitive(rng, g, n))
        for g, n in DENSE_STRATA
    ]


def solve_longray(rng):
    return [
        solve_op("longray-g%d-n%d-a%d-s%d" % (g, n, a, s), g, longray_primitive(rng, g, n, a, s))
        for g, n, a, s in LONGRAY_STRATA
    ]


def audit(rng):
    ops = []
    for g in AUDIT_GENERA:
        tag = "audit-g%d" % g
        ops.append(
            Op(tag + "-catalog", "verify-builtin", ["verify-relations", "--genus", str(g)],
               expect={"genus": g})
        )
        objs, expected = relation_file(rng, g)
        ops.append(
            Op(
                tag + "-relfile",
                "verify-file",
                ["verify-relations", "--genus", str(g), "--in", "@%s-relations.json" % tag],
                {"%s-relations.json" % tag: dump(objs)},
                {"genus": g, "instances": expected},
            )
        )
        f = dense_primitive(rng, g, AUDIT_SUPPORT)
        ops.append(check_op(tag + "-clean", g, coboundary(f, g)))
        values, d = perturbed_values(rng, g, f)
        ops.append(check_op(tag + "-perturbed", g, values, d))
        values, _ = perturbed_values(rng, g, dense_primitive(rng, g, AUDIT_SUPPORT))
        ops.append(refused_op(tag + "-refused", g, values))
        ops.append(decay_op(tag + "-decay", rng, g, "json" if g % 2 else "text"))
    return ops


WORKLOADS = {"solve-dense": solve_dense, "solve-longray": solve_longray, "audit": audit}


def generate(workload, seed):
    "The ops of one pass, in a seeded order."
    rng = random.Random("%s:%d" % (workload, seed))
    ops = WORKLOADS[workload](rng)
    rng.shuffle(ops)
    return ops


def write_files(ops, indir):
    "Write every input file; return the sha256 digest of the whole input set."
    digest = hashlib.sha256()
    for op in ops:
        digest.update(" ".join(op.args).encode())
        for name in sorted(op.files):
            data = op.files[name].encode()
            digest.update(name.encode() + b"\0" + data)
            with open(os.path.join(indir, name), "wb") as fh:
                fh.write(data)
    return digest.hexdigest()
