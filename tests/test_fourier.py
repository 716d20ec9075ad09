import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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
    basis_curve_class,
)
from twistlab.fourier import coefficient_peaks, decay_from_norms, signed_norm_sq

from helpers import (
    brute_grid_mean,
    oracle_decay,
    oracle_evaluate,
    oracle_transvection_rows,
    rand_basis_word,
    rand_class,
    rand_scalar,
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


@pytest.mark.parametrize(
    "args, name", [((3.9,), "genus"), ((True,), "genus"), ((G, {}, 1), "full"), ((G, {}, None), "full")]
)
def test_sparse_vector_refuses_a_genus_or_flag_of_another_type(args, name):
    # no silent float -> int or int -> bool coercion
    with pytest.raises(TypeError, match="%s must be an? (int|bool), got" % name):
        SparseVector(*args)


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


def _plain(v):
    "The coefficient table as plain (re, im) Fraction pairs."
    return {m.coords: (val.re, val.im) for m, val in v.items()}


def _plain_merge(a, b, sign):
    out = dict(a)
    for m, (re, im) in b.items():
        old_re, old_im = out.pop(m, (0, 0))
        total = (old_re + sign * re, old_im + sign * im)
        if total != (0, 0):
            out[m] = total
    return out


def test_merge_against_plain_dict_oracle():
    rng = random.Random(309)
    pool = [rand_class(rng, G, 2) for _ in range(10)]
    for _ in range(200):
        v = SparseVector(
            G,
            {m: rand_scalar(rng, 5, 3) for m in rng.sample(pool, rng.randint(0, 6))},
            full=rng.random() < 0.3,
        )
        w_entries = {m: rand_scalar(rng, 5, 3) for m in rng.sample(pool, rng.randint(0, 6))}
        for m, val in v.items():
            # exact cancellations in the sum and in the difference
            roll = rng.random()
            if roll < 0.25:
                w_entries[m] = val
            elif roll < 0.5:
                w_entries[m] = -val
        w = SparseVector(G, w_entries, full=rng.random() < 0.3)
        v_before, w_before = _plain(v), _plain(w)
        for sign, got in ((1, v + w), (-1, v - w)):
            assert _plain(got) == _plain_merge(v_before, w_before, sign)
            assert all(got.coeffs.values())
            assert got.full == (v.full or w.full)
        assert not (v - v) and not (w - w)
        assert _plain(v) == v_before and _plain(w) == w_before


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
        # basis classes, their multiples k e_i with |k| >= 2, and negatives
        multiples = [basis_curve_class(g, i) * k for i in range(2 * g) for k in (1, -1, 2, -3)]
        for c in multiples + [rand_class(rng, g, 3) for _ in range(60)]:
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
    # all-empty inputs
    for vectors in ([], [SparseVector.zero(G)] * 3):
        assert all(fk.square == 0 for fk in decay_constants(vectors, orders))
    # ties: equal |coeff|^2 on one norm (1, -i, 3/5 + 4/5 i), and across
    # norms, where n^k |coeff| agree at some order (1 * 4 = 2 * 2 at k = 1)
    units = [1, GaussianRational(0, -1), GaussianRational(Fraction(3, 5), Fraction(4, 5))]
    pool = units + [2, 4, Fraction(1, 2), GaussianRational(-2, 0)]
    for _ in range(60):
        vectors = []
        for _ in range(rng.randint(1, 3)):
            points = [rand_class(rng, G, 1) for _ in range(rng.randint(0, 6))]
            vectors.append(SparseVector(G, {m: rng.choice(pool) for m in points}))
        for k, fk in zip(orders, decay_constants(vectors, orders)):
            brute = max(
                (norm1(m) ** (2 * k) * val.abs2() for v in vectors for m, val in v.items()),
                default=0,
            )
            assert fk.square == brute
    e1, f2 = x_basis(G, 1), x_basis(G, 1) + y_basis(G, 2)
    tied = SparseVector(G, {e1: 4, f2: GaussianRational(0, 2), y_basis(G, 1): -4})
    assert [fk.square for fk in decay_constants([tied], (0, 1, 2))] == [16, 16, 64]
    with pytest.raises(ValueError):
        decay_constants([SparseVector.zero(G)], [2, -1])


_POOL = [HomologyClass(c) for c in ((1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (1, -1, 0, 2, 0, 0),
                                      (0, 0, 0, 0, 3, -1), (2, 1, -1, 0, 0, 1))]
# few denominators, so equal and unequal ones both come up at a point
_part = st.builds(Fraction, st.integers(-6, 6), st.sampled_from((1, 2, 3, 4, 6, 35)))
_vector = st.dictionaries(st.sampled_from(_POOL), st.tuples(_part, _part), max_size=4)
_terms = st.lists(st.tuples(st.sampled_from((1, -1)), _vector, st.booleans()), max_size=5)


@settings(max_examples=300, deadline=None)
@given(_terms)
def test_signed_norm_sq_matches_merged_norm(raw):
    terms = []
    for sign, entries, mirror in raw:
        v = SparseVector(G, {m: GaussianRational(re, im) for m, (re, im) in entries.items()})
        terms.append((sign, v))
        if mirror:
            terms.append((-sign, v))  # an exact cancellation of the whole term
    total = SparseVector.zero(G)
    for sign, v in terms:
        total = total + v if sign > 0 else total - v
    # the oracle sums |coeff|^2 of the merged vector, not through norm_sq
    assert signed_norm_sq(terms) == sum((val.abs2() for val in total.coeffs.values()), Fraction(0))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(_part, _part), min_size=1, max_size=4),
    st.lists(st.tuples(st.integers(0, 40), st.integers(0, 3), st.booleans()), max_size=12),
    st.lists(st.integers(0, 6), max_size=4),
)
def test_decay_from_norms_matches_the_per_point_oracle(values, raw, orders):
    # each drawn value is one object that sits at several norms; a copy flag
    # puts an equal value that is a distinct object at the point instead
    shared = [GaussianRational(re, im) for re, im in values]
    points = []
    for n, i, copy in raw:
        val = shared[i % len(shared)]
        points.append((n, GaussianRational(val.re, val.im) if copy else val))
    got = decay_from_norms(iter(points), orders)
    assert [fk.square for fk in got] == oracle_decay(points, orders)
    # the per-coefficient work runs once per object, at its largest norm
    peaks = coefficient_peaks(points)
    assert sorted(id(val) for *_, val in peaks) == sorted({id(val) for _, val in points})
    for n, num, den, val in peaks:
        assert n == max(m for m, v in points if v is val)
        assert Fraction(num, den) == val.abs2()


def test_exact_sqrt_behaviour():
    assert ExactSqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert ExactSqrt(2) > Fraction(7, 5)
    assert ExactSqrt(2) < Fraction(3, 2)
    assert ExactSqrt(2).as_fraction() is None
    assert ExactSqrt(Fraction(49)).as_fraction() == 7
    assert not ExactSqrt(0)
    assert float(ExactSqrt(4)) == 2.0
    assert max(ExactSqrt(2), ExactSqrt(3)) == ExactSqrt(3)
    # a root exceeds every negative rational, also one whose square is its own
    assert ExactSqrt(1) != -1 and ExactSqrt(1) > -1
    assert ExactSqrt(Fraction(1, 4)) > Fraction(-1, 2)
    assert ExactSqrt(0) > Fraction(-1, 3)
    assert str(ExactSqrt(Fraction(9, 4))) == "3/2"
    assert str(ExactSqrt(2)) == "sqrt(2)"
    # a square past the integer-string limit prints in full
    assert str(ExactSqrt(2 * 10**4400)) == "sqrt(2%s)" % ("0" * 4400)
    assert str(GaussianRational(Fraction(1, 2), Fraction(1, 3))) == "1/2+1/3i"
    assert str(GaussianRational(1, -2)) == "1-2i"
    assert str(GaussianRational(0, 5)) == "0+5i"
