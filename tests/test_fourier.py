import cmath
import math
import random
from fractions import Fraction

import pytest

from twistlab import (
    AliasingError,
    ExactSqrt,
    GaussianRational,
    HomologyClass,
    SparseVector,
    SymplecticMatrix,
    TorusPoint,
    act,
    decay_constant,
    decay_constants,
    evaluate,
    grid_mean,
    inner,
    norm1,
    torus_action,
    twist,
    twist_matrix,
    word_matrix,
    x_basis,
    y_basis,
    zero_class,
    basis_curves,
)

from helpers import (
    brute_grid_mean,
    oracle_evaluate,
    oracle_transvection_rows,
    rand_basis_word,
    rand_class,
    rand_sparse,
    rand_torus_point,
)

G = 3


def test_sparse_vector_construction():
    x1 = x_basis(G, 1)
    v = SparseVector(G, {x1: Fraction(1, 2)})
    assert v.coefficient(x1) == GaussianRational(Fraction(1, 2))
    assert not v.coefficient(y_basis(G, 1))
    # zero coefficients are dropped
    assert not SparseVector(G, {x1: 0})
    with pytest.raises(ValueError):
        SparseVector(G, {zero_class(G): 1})
    full = SparseVector(G, {zero_class(G): 1}, full=True)
    assert full.coefficient(zero_class(G)) == 1
    with pytest.raises(ValueError):
        SparseVector(G, {x_basis(4, 1): 1})


def test_sparse_vector_arithmetic():
    x1, y1 = x_basis(G, 1), y_basis(G, 1)
    v = SparseVector(G, {x1: 1, y1: GaussianRational(0, 1)})
    w = SparseVector(G, {x1: -1, y1: GaussianRational(0, 2)})
    assert (v + w).coefficient(x1) == 0
    assert (v + w).coefficient(y1) == GaussianRational(0, 3)
    assert (v - v) == SparseVector.zero(G)
    assert (-v).coefficient(x1) == -1
    assert (v * Fraction(2, 3)).coefficient(x1) == Fraction(2, 3)
    assert v.norm_sq() == 2
    assert v.norm() == ExactSqrt(2)


def test_act_examples():
    y1 = y_basis(G, 1)
    v = SparseVector.basis(y1)
    I = SymplecticMatrix.identity(2 * G)
    assert act(I, v) == v
    moved = act(twist_matrix(x_basis(G, 1)), v)
    assert moved == SparseVector.basis(x_basis(G, 1) + y1)


def test_twist_matches_matrix_action_and_oracle():
    rng = random.Random(302)
    for g in (3, 4):
        for _ in range(60):
            c = rand_class(rng, g, 3)
            n = rng.choice((1, -1, 2, -2))
            v = rand_sparse(rng, g, rng.randint(0, 10))
            got = twist(c, n, v)
            assert got == act(twist_matrix(c, n), v)
            rows = oracle_transvection_rows(c, n)
            moved = {
                HomologyClass([sum(a * b for a, b in zip(row, m.coords)) for row in rows]): val
                for m, val in v.items()
            }
            assert got == SparseVector(g, moved)
    with pytest.raises(ValueError):
        twist(x_basis(4, 1), 1, SparseVector.zero(G))


def test_act_unitary_and_group_action():
    rng = random.Random(301)
    table = {c.id: c for c in basis_curves(G)}
    for _ in range(100):
        v = rand_sparse(rng, G, rng.randint(1, 10))
        w = rand_sparse(rng, G, rng.randint(1, 10))
        M1 = word_matrix(rand_basis_word(rng, G, 4), table)
        M2 = word_matrix(rand_basis_word(rng, G, 4), table)
        assert inner(act(M1, v), act(M1, w)) == inner(v, w)
        assert act(M1 * M2, v) == act(M1, act(M2, v))
        assert act(M1, v).norm_sq() == v.norm_sq()


def test_inner_orthonormal_basis():
    m = x_basis(G, 2)
    n = y_basis(G, 3)
    em, en = SparseVector.basis(m), SparseVector.basis(n)
    assert inner(em, em) == 1
    assert inner(em, en) == 0
    # linear in the first slot, conjugate-linear in the second
    v = 2 * em + GaussianRational(0, 1) * en
    assert inner(v, en) == GaussianRational(0, 1)
    assert inner(en, v) == GaussianRational(0, -1)


def test_inner_conjugate_symmetry():
    rng = random.Random(302)
    for _ in range(100):
        v = rand_sparse(rng, G, 6)
        w = rand_sparse(rng, G, 6)
        assert inner(v, w) == inner(w, v).conjugate()


def test_torus_point_validation():
    with pytest.raises(ValueError):
        TorusPoint([1, 1, 1, 1])  # too short
    with pytest.raises(ValueError):
        TorusPoint([2, 1, 1, 1, 1, 1])  # off the unit circle
    pt = TorusPoint([cmath.rect(1, 0.3)] * 6)
    assert pt.genus == G
    for z in pt.values:
        assert abs(abs(z) - 1) < 1e-12


def test_evaluate_examples():
    rho = rand_torus_point(random.Random(303), G)
    z1 = rho.values[0]
    assert abs(evaluate(SparseVector.basis(x_basis(G, 1)), rho) - z1) < 1e-12
    one = SparseVector.basis(zero_class(G), full=True)
    assert abs(evaluate(one, rho) - 1) < 1e-12
    m = x_basis(G, 1) + 2 * y_basis(G, 2)
    v = SparseVector(G, {m: 1, -m: 1})
    phase = sum(t * a for t, a in zip(rho.angles, m.coords))
    assert abs(evaluate(v, rho) - 2 * math.cos(phase)) < 1e-12


def test_evaluate_against_power_oracle():
    rng = random.Random(304)
    for _ in range(50):
        v = rand_sparse(rng, G, rng.randint(1, 8), num_bound=20, den_bound=10)
        rho = rand_torus_point(rng, G)
        assert abs(evaluate(v, rho) - oracle_evaluate(v, rho)) < 1e-9


def test_torus_action_identity_and_group_law():
    rng = random.Random(305)
    I = SymplecticMatrix.identity(2 * G)
    table = {c.id: c for c in basis_curves(G)}
    rho = rand_torus_point(rng, G)
    assert torus_action(I, rho).angles == rho.angles
    M1 = word_matrix(rand_basis_word(rng, G, 3), table)
    M2 = word_matrix(rand_basis_word(rng, G, 3), table)
    a = torus_action(M1 * M2, rho)
    b = torus_action(M1, torus_action(M2, rho))
    for za, zb in zip(a.values, b.values):
        assert abs(za - zb) < 1e-9


def test_evaluation_equivariance():
    rng = random.Random(306)
    table = {c.id: c for c in basis_curves(G)}
    for _ in range(100):
        v = rand_sparse(rng, G, rng.randint(1, 8), num_bound=20, den_bound=10)
        M = word_matrix(rand_basis_word(rng, G, 6), table)
        rho = rand_torus_point(rng, G)
        lhs = evaluate(act(M, v), rho)
        rhs = evaluate(v, torus_action(M.inv(), rho))
        assert abs(lhs - rhs) <= 1e-9


def test_grid_mean_against_brute_force():
    rng = random.Random(307)
    for N in (3, 5):
        bound = (N - 1) // 2
        v = rand_sparse(rng, G, 4, coord_bound=bound, num_bound=10, den_bound=5)
        assert abs(grid_mean(v, N) - brute_grid_mean(v, N)) < 1e-9


def test_grid_mean_examples():
    v = SparseVector.basis(x_basis(G, 1))
    assert grid_mean(v, 3) == 0
    one = SparseVector.basis(zero_class(G), full=True)
    assert grid_mean(one, 3) == 1
    with pytest.raises(AliasingError):
        grid_mean(v, 1)
    with pytest.raises(AliasingError):
        grid_mean(SparseVector.basis(3 * x_basis(G, 1)), 6)


def test_grid_mean_random_mean_zero():
    rng = random.Random(308)
    for _ in range(50):
        v = rand_sparse(rng, G, rng.randint(1, 12), coord_bound=3)
        biggest = max(abs(a) for m in v.coeffs for a in m.coords)
        assert grid_mean(v, 2 * biggest + 1) == 0


def test_decay_constant_examples():
    assert decay_constant(SparseVector.zero(G), 4) == 0
    m = HomologyClass((1, -2, 0, 0, 0, 0))
    v = SparseVector.basis(m, Fraction(1, 2))
    assert norm1(m) == 3
    assert decay_constant(v, 2) == Fraction(9, 2)
    w = SparseVector(G, {m: Fraction(1, 2), x_basis(G, 1): Fraction(5, 3)})
    assert decay_constant(w, 0) == Fraction(5, 3)


def test_decay_constant_monotone_and_scaling():
    rng = random.Random(309)
    for _ in range(50):
        v = rand_sparse(rng, G, 10)
        sub = SparseVector(G, dict(list(v.coeffs.items())[:5]))
        k = rng.randint(0, 4)
        assert decay_constant(sub, k) <= decay_constant(v, k)
        c = GaussianRational(Fraction(3, 7), Fraction(-2, 5))
        assert decay_constant(v * c, k) == decay_constant(v, k) * abs(c)


def test_decay_constants_match_per_order():
    rng = random.Random(310)
    orders = range(0, 7)
    for _ in range(40):
        vectors = [rand_sparse(rng, G, rng.randint(0, 12)) for _ in range(rng.randint(0, 4))]
        got = decay_constants(vectors, orders)
        assert len(got) == len(orders)
        for k, fk in zip(orders, got):
            assert fk == max((decay_constant(v, k) for v in vectors), default=0)
            brute = max(
                (norm1(m) ** (2 * k) * val.abs2() for v in vectors for m, val in v.items()),
                default=0,
            )
            assert fk.square == brute
    with pytest.raises(ValueError):
        decay_constants([SparseVector.zero(G)], [2, -1])


def test_exact_sqrt_behaviour():
    assert ExactSqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert ExactSqrt(2) > Fraction(7, 5)
    assert ExactSqrt(2) < Fraction(3, 2)
    assert ExactSqrt(2).as_fraction() is None
    assert ExactSqrt(Fraction(49)).as_fraction() == 7
    assert not ExactSqrt(0)
    assert float(ExactSqrt(4)) == 2.0
    assert max(ExactSqrt(2), ExactSqrt(3)) == ExactSqrt(3)
    assert str(ExactSqrt(Fraction(9, 4))) == "3/2"
    assert str(ExactSqrt(2)) == "sqrt(2)"
