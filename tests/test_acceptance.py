"""Acceptance suite.

One test per criterion; each prints a single PASS/FAIL line with its
count and elapsed time.  Run with `pytest tests/test_acceptance.py -v -s`
to see the lines live.
"""

import random
import time
from fractions import Fraction

import pytest

from twistlab import (
    Cocycle,
    Curve,
    GeneratorSet,
    SparseVector,
    TwistWord,
    builtin_catalog,
    choose_increasing_twist,
    basis_curve_class,
    coboundary,
    evaluate,
    extend,
    grid_mean,
    inner,
    is_symplectic,
    norm1,
    relation_residual,
    s_vector,
    smoothness_report,
    solve_coboundary,
    act,
    torus_action,
    transvect,
    verify_relation,
    word_matrix,
    x_basis,
    y_basis,
    basis_curves,
)

from helpers import (
    oracle_symplectic,
    rand_basis_word,
    rand_class_norm,
    rand_sparse,
    rand_torus_point,
)

G = 3


def _report(n, ok, detail, t0):
    line = "criterion %d: %s (%s; %.2fs)" % (n, "PASS" if ok else "FAIL", detail, time.perf_counter() - t0)
    print(line)
    assert ok, line


def test_criterion_1_relation_catalog():
    t0 = time.perf_counter()
    total = 0
    for g in (3, 4):
        cat = builtin_catalog(g)
        kinds = {}
        for rel in cat:
            assert verify_relation(rel), rel.name
            kinds.setdefault(rel.name.split("-")[0], 0)
            kinds[rel.name.split("-")[0]] += 1
        assert kinds["commuting"] >= 2
        assert kinds["braid"] >= 2
        assert kinds["chain"] == 1
        assert kinds["lantern"] == 1
        assert kinds["bounding"] == 2
        assert kinds["conjugation"] == 2
        total += len(cat)
    _report(1, True, "%d instances verified for g=3,4" % total, t0)


def test_criterion_2_symplectic_invariant():
    t0 = time.perf_counter()
    rng = random.Random(1002)
    ok = 0
    for _ in range(1000):
        length = rng.randint(1, 10)
        curves = {}
        letters = []
        for i in range(length):
            cid = "c%d" % i
            curves[cid] = Curve(cid, rand_class_norm(rng, G, 10))
            e = 0
            while e == 0:
                e = rng.randint(-2, 2)
            letters.append((cid, e))
        M = word_matrix(TwistWord(tuple(letters)), curves)
        assert is_symplectic(M)
        assert oracle_symplectic([list(r) for r in M.rows])
        ok += 1
    _report(2, ok == 1000, "%d/1000 random words symplectic" % ok, t0)


def test_criterion_3_increasing_rays():
    t0 = time.perf_counter()
    rng = random.Random(1003)
    ok = 0
    for _ in range(1000):
        m = rand_class_norm(rng, G, 50)
        idx, eps = choose_increasing_twist(m)
        c = basis_curve_class(G, idx)
        norms = [norm1(transvect(c, eps * n, m)) for n in range(21)]
        assert all(a < b for a, b in zip(norms, norms[1:])), m
        ok += 1
    _report(3, ok == 1000, "%d/1000 rays strictly increasing for 20 steps" % ok, t0)


def _gens_with_pairs():
    extras = (
        Curve("mix1", x_basis(G, 1) + y_basis(G, 2)),
        Curve("mix2", x_basis(G, 1) + x_basis(G, 2)),
        Curve("mix3", y_basis(G, 1) + y_basis(G, 3)),
    )
    pair_classes = (
        x_basis(G, 1),
        y_basis(G, 2),
        x_basis(G, 3),
        x_basis(G, 1) + x_basis(G, 2),
        y_basis(G, 1) + y_basis(G, 3),
    )
    pairs = []
    for i, cls in enumerate(pair_classes, 1):
        pairs.append(Curve("p%d" % i, cls))
        pairs.append(Curve("q%d" % i, cls))
    return GeneratorSet.symplectic_basis(G, extras + tuple(pairs)), extras


def test_criterion_4_projection_and_torelli_residuals():
    t0 = time.perf_counter()
    rng = random.Random(1004)
    gens, extras = _gens_with_pairs()
    checked = ("x1", "y1", "x2", "y2", "x3", "y3") + tuple(c.id for c in extras)
    zero = SparseVector.zero(G)
    trials = 100
    for _ in range(trials):
        u = coboundary(rand_sparse(rng, G, rng.randint(1, 100)), gens)
        for cid in checked:
            s = s_vector(u, gens.get(cid))
            assert s.norm_sq() == 0 and s == zero
        for i in range(1, 6):
            word = TwistWord.of(("p%d" % i, 1), ("q%d" % i, -1))
            assert extend(u, word) == zero
    _report(
        4,
        True,
        "%d cocycles: %d s-vectors and 5 bounding-pair words all exactly zero"
        % (trials, len(checked)),
        t0,
    )


@pytest.fixture(scope="module")
def round_trips():
    rng = random.Random(1005)
    gens = GeneratorSet.symplectic_basis(G)
    out = []
    t0 = time.perf_counter()
    for _ in range(100):
        size = rng.randint(1, 200)
        f = rand_sparse(rng, G, size, coord_bound=3, num_bound=10 ** 6, den_bound=10 ** 6)
        u = coboundary(f, gens)
        rep = solve_coboundary(u)
        out.append((f, rep))
    return out, time.perf_counter() - t0


def test_criterion_5_solver_round_trip(round_trips):
    instances, solve_time = round_trips
    t0 = time.perf_counter() - solve_time
    ok = 0
    for f, rep in instances:
        assert rep.residual == 0
        assert rep.f == f
        ok += 1
    _report(5, ok == 100, "%d/100 reconstructions exact (residual 0, f identical)" % ok, t0)


def test_criterion_6_smoothness_bounds(round_trips):
    instances, _ = round_trips
    t0 = time.perf_counter()
    failures = 0
    for _, rep in instances:
        for check in smoothness_report(rep, kmax=5):
            if not check.passed:
                failures += 1
    _report(6, failures == 0, "decay bound holds for k=2..5 on all 100 instances", t0)


def test_criterion_7_equivariance():
    t0 = time.perf_counter()
    rng = random.Random(1007)
    table = {c.id: c for c in basis_curves(G)}
    worst = 0.0
    for _ in range(100):
        v = rand_sparse(rng, G, rng.randint(1, 8), num_bound=20, den_bound=10)
        M = word_matrix(rand_basis_word(rng, G, 6), table)
        rho = rand_torus_point(rng, G)
        gap = abs(evaluate(act(M, v), rho) - evaluate(v, torus_action(M.inv(), rho)))
        worst = max(worst, gap)
    _report(7, worst <= 1e-9, "100 triples, worst gap %.2e <= 1e-9" % worst, t0)


def test_criterion_8_quadrature_and_orthonormality():
    t0 = time.perf_counter()
    rng = random.Random(1008)
    worst = 0.0
    for _ in range(50):
        v = rand_sparse(rng, G, rng.randint(1, 12), coord_bound=3)
        biggest = max(abs(a) for m in v.support for a in m.coords)
        worst = max(worst, abs(grid_mean(v, 2 * biggest + 1)))
    basis = [SparseVector.basis(x_basis(G, j)) for j in range(1, G + 1)]
    basis += [SparseVector.basis(y_basis(G, j)) for j in range(1, G + 1)]
    basis.append(SparseVector.basis(2 * x_basis(G, 1) - y_basis(G, 3)))
    exact = True
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            want = 1 if i == j else 0
            exact = exact and inner(a, b) == want
    _report(
        8,
        worst <= 1e-9 and exact,
        "50 grid means, worst |mean| %.2e; basis orthonormality exact" % worst,
        t0,
    )


def test_criterion_9_negative_controls():
    t0 = time.perf_counter()
    rng = random.Random(1009)
    gens = GeneratorSet.symplectic_basis(G)
    braids = [r for r in builtin_catalog(G) if r.name.startswith("braid")]
    caught = 0
    trials = 100
    for _ in range(trials):
        u = coboundary(rand_sparse(rng, G, rng.randint(1, 30)), gens)
        cid = rng.choice(gens.ids())
        bump = SparseVector.basis(
            rand_class_norm(rng, G, 6),
            Fraction(rng.randint(1, 9), rng.randint(1, 9)),
        )
        values = dict(u.values)
        values[cid] = values[cid] + bump
        pert = Cocycle(gens, values)
        flagged = any(relation_residual(pert, rel) for rel in braids)
        if not flagged:
            flagged = solve_coboundary(pert, relations=[]).residual > 0
        if flagged:
            caught += 1
    _report(9, caught == trials, "%d/%d perturbations detected" % (caught, trials), t0)
