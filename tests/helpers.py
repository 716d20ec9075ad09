"""Shared randomized generators and independent oracles for the tests.

Oracles here intentionally avoid the library code paths they check:
matrix products are done on plain lists, the pairing is expanded over
basis pairs, grid means are brute-force sums, and the telescoping solver
is checked against the step-by-step candidate walk it replaced, and the
certificate-first solver against the relation-first order it replaced.
"""

import cmath
import itertools
import math
from fractions import Fraction

from twistlab import (
    GaussianRational,
    HomologyClass,
    NonCocycleError,
    SparseVector,
    TorusPoint,
    TwistWord,
    applicable_relations,
    basis_curve_class,
    choose_increasing_twist,
    relation_residual,
    solve_coboundary,
    transvect,
)


def rand_class(rng, g, coord_bound, nonzero=True):
    while True:
        coords = tuple(rng.randint(-coord_bound, coord_bound) for _ in range(2 * g))
        if any(coords) or not nonzero:
            return HomologyClass(coords)


def rand_class_norm(rng, g, max_norm):
    "Nonzero class with norm1 <= max_norm."
    while True:
        coords = [0] * (2 * g)
        budget = max_norm
        for i in range(2 * g):
            coords[i] = rng.randint(-budget, budget)
            budget -= abs(coords[i])
        rng.shuffle(coords)
        if any(coords):
            return HomologyClass(coords)


def rand_fraction(rng, num_bound=1000, den_bound=1000):
    return Fraction(rng.randint(-num_bound, num_bound), rng.randint(1, den_bound))


def rand_scalar(rng, num_bound=1000, den_bound=1000):
    return GaussianRational(
        rand_fraction(rng, num_bound, den_bound), rand_fraction(rng, num_bound, den_bound)
    )


def rand_sparse(rng, g, size, coord_bound=3, num_bound=1000, den_bound=1000):
    entries = {}
    while len(entries) < size:
        m = rand_class(rng, g, coord_bound)
        entries[m] = rand_scalar(rng, num_bound, den_bound)
    return SparseVector(g, entries)


def rand_basis_word(rng, g, max_len, max_exp=2):
    names = ["%s%d" % (k, j) for j in range(1, g + 1) for k in ("x", "y")]
    letters = []
    for _ in range(rng.randint(1, max_len)):
        e = 0
        while e == 0:
            e = rng.randint(-max_exp, max_exp)
        letters.append((rng.choice(names), e))
    return TwistWord(tuple(letters))


def rand_torus_point(rng, g):
    return TorusPoint.from_angles([rng.uniform(0.0, 2.0 * math.pi) for _ in range(2 * g)])


# ---------------------------------------------------------------- oracles


def oracle_intersection(m, n):
    "Bilinear expansion over basis pairs from the defining table."
    g = m.genus
    total = 0
    for j in range(g):
        aj, bj = m.coords[2 * j], m.coords[2 * j + 1]
        cj, dj = n.coords[2 * j], n.coords[2 * j + 1]
        # i(x_j, y_j) = 1, i(y_j, x_j) = -1, everything else 0
        total += aj * dj * 1 + bj * cj * (-1)
    return total


def mat_mul(A, B):
    n = len(A)
    return [[sum(A[i][k] * B[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def mat_identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def oracle_transvection_rows(c, n=1):
    "I + n c c^T J over plain lists."
    dim = len(c.coords)
    rows = mat_identity(dim)
    w = [0] * dim
    for k in range(0, dim, 2):
        w[k] = -c.coords[k + 1]
        w[k + 1] = c.coords[k]
    for i in range(dim):
        for j in range(dim):
            rows[i][j] += n * c.coords[i] * w[j]
    return rows


def oracle_symplectic(rows):
    "M^T J M == J over plain lists."
    dim = len(rows)
    J = [[0] * dim for _ in range(dim)]
    for k in range(0, dim, 2):
        J[k][k + 1] = 1
        J[k + 1][k] = -1
    Mt = [list(col) for col in zip(*rows)]
    return mat_mul(mat_mul(Mt, J), [list(r) for r in rows]) == J


def brute_grid_mean(v, N):
    "Average of evaluate over the full N^(2g) grid, summed point by point."
    g = v.genus
    total = 0j
    for idx in itertools.product(range(N), repeat=2 * g):
        value = 0j
        for m, coeff in v.items():
            phase = sum(2.0 * math.pi * t * a / N for t, a in zip(idx, m.coords))
            value += complex(coeff) * cmath.exp(1j * phase)
        total += value
    return total / N ** (2 * g)


def oracle_evaluate(v, rho):
    "Monomial products via complex powers, not the angle dot product."
    vals = rho.values
    total = 0j
    for m, coeff in v.items():
        term = complex(coeff)
        for z, a in zip(vals, m.coords):
            term *= z ** a
        total += term
    return total


def oracle_solve(u, relations=None):
    """solve_coboundary in the order it used to run: every relation first,
    refusing at the first nonzero residual, then the telescope and the
    certificate, with refusal switched off."""
    if relations is None:
        relations = applicable_relations(u.gens)
    for rel in relations:
        r = relation_residual(u, rel)
        if r:
            raise NonCocycleError("nonzero residual %s on relation %r" % (r, rel.name))
    return solve_coboundary(u, relations=[])


def _oracle_tables(u):
    "Raw tables of u on the basis twists and their inverses, and n_max."
    g = u.genus
    plus_raw, minus_raw = [], []
    for idx in range(2 * g):
        cls = basis_curve_class(g, idx)
        vp = u.value(u.gens.find_by_class(cls).id)
        plus_raw.append({m.coords: val for m, val in vp.items()})
        minus_raw.append({transvect(cls, -1, m).coords: -val for m, val in vp.items()})
    n_max = 0
    for raw in plus_raw + minus_raw:
        for coords in raw:
            n_max = max(n_max, sum(abs(a) for a in coords))
    return plus_raw, minus_raw, n_max


def _oracle_step(idx, coords):
    dual = coords[idx ^ 1]
    return dual if idx % 2 == 0 else -dual


def _oracle_ray_sum(tables, coords):
    plus_raw, minus_raw, n_max = tables
    idx, eps = choose_increasing_twist(HomologyClass(coords))
    step = eps * _oracle_step(idx, coords)
    raw = plus_raw[idx] if eps > 0 else minus_raw[idx]
    rest = sum(abs(a) for a in coords) - abs(coords[idx])
    total = GaussianRational(0)
    val = coords[idx]
    while True:
        val += step
        if rest + abs(val) > n_max:
            break
        hit = raw.get(coords[:idx] + (val,) + coords[idx + 1 :])
        if hit is not None:
            total = total + hit
    return -total


def oracle_ray_coefficient(u, m):
    """-(sum of u's basis twist coefficients up the increasing ray of m),
    walked one step at a time out to the largest norm in those values."""
    return _oracle_ray_sum(_oracle_tables(u), m.coords)


def oracle_telescope(u):
    """Primitive of u by the candidate-ball walk, kept as a reference solver.

    Every point of the generator-value supports is pulled back along its
    own twist ray while the pullback can still re-enter the open ball of
    radius n_max (the largest norm in those supports); each candidate then
    sums the generator coefficients up its increasing ray, one step at a
    time.  The cost grows with the coordinates, so keep the inputs small.
    """
    tables = _oracle_tables(u)
    plus_raw, minus_raw, n_max = tables
    candidates = set()
    for idx in range(2 * u.genus):
        for raw in (plus_raw[idx], minus_raw[idx]):
            for coords in raw:
                if 0 < sum(abs(a) for a in coords) < n_max:
                    candidates.add(coords)
        for coords in plus_raw[idx]:
            step = _oracle_step(idx, coords)
            if step == 0:
                continue
            rest = sum(abs(a) for a in coords) - abs(coords[idx])
            prev = rest + abs(coords[idx])
            val = coords[idx]
            while True:
                val -= step
                nrm = rest + abs(val)
                if 0 < nrm < n_max:
                    candidates.add(coords[:idx] + (val,) + coords[idx + 1 :])
                if nrm >= n_max and nrm >= prev:
                    break
                prev = nrm
    entries = {HomologyClass(c): _oracle_ray_sum(tables, c) for c in candidates}
    return SparseVector(u.genus, entries)


def oracle_decay(points, orders):
    """Per order k, the largest n^(2k) |coeff|^2 over the (n, coeff) points
    (0 if none), one point at a time in Fraction arithmetic: the square of
    decay_from_norms without its per-coefficient table."""
    points = list(points)
    return [
        max(
            (Fraction(n) ** (2 * k) * (val.re * val.re + val.im * val.im) for n, val in points),
            default=Fraction(0),
        )
        for k in orders
    ]


def oracle_smoothness(f, g_squares, kmax=5):
    """(k, passed, witnesses) per k in 2..kmax, checking every support point
    of f in support order: m is a witness (m, |f_m|^2, G_{k+1}^2 / (k^2
    norm1(m)^(2k))) when k^2 norm1(m)^(2k) |f_m|^2 > G_{k+1}^2, with
    G_{k+1}^2 = g_squares[k]."""
    out = []
    for k in range(2, kmax + 1):
        witnesses = []
        for m in sorted(f.support, key=lambda h: h.coords):
            val = f.coefficient(m)
            abs2 = val.re * val.re + val.im * val.im
            weight = k * k * sum(abs(a) for a in m.coords) ** (2 * k)
            if weight * abs2 > g_squares[k]:
                witnesses.append((m, abs2, g_squares[k] / weight))
        out.append((k, not witnesses, tuple(witnesses)))
    return out
