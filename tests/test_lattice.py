import random

import pytest
from hypothesis import given, settings, strategies as st

from twistlab import (
    HomologyClass,
    SymplecticMatrix,
    apply,
    basis_curve_class,
    basis_curve_name,
    choose_increasing_twist,
    dual_terms,
    intersection,
    is_symplectic,
    iter_classes,
    norm1,
    orbit_ray,
    standard_form,
    symplectic_basis,
    transvect,
    twist_matrix,
    x_basis,
    y_basis,
    zero_class,
)

from helpers import (
    oracle_intersection,
    oracle_symplectic,
    oracle_transvection_rows,
    rand_class,
    rand_class_norm,
)

G = 3


def test_class_construction_guards():
    with pytest.raises(ValueError):
        HomologyClass((1, 0, 0, 0))  # genus 2 is below the supported range
    with pytest.raises(ValueError):
        HomologyClass((1, 0, 0, 0, 0))  # odd length
    with pytest.raises(TypeError):
        HomologyClass((1.0, 0, 0, 0, 0, 0))


def test_class_refuses_bools():
    # no silent bool -> int: True would otherwise equal the coordinate 1
    with pytest.raises(TypeError, match="coordinates must be integers, got True"):
        HomologyClass((True, 0, 0, 0, 0, False))
    with pytest.raises(TypeError, match="got False"):
        HomologyClass((1, 0, 0, 0, 0, False))


def test_matrix_refuses_bools_and_floats():
    with pytest.raises(TypeError, match="entries must be integers, got True"):
        SymplecticMatrix(((True, 0), (0, 1)))
    with pytest.raises(TypeError, match="got 1.0"):
        SymplecticMatrix(((1, 0), (0, 1.0)))
    assert SymplecticMatrix(((1, 0), (0, 1))) == SymplecticMatrix.identity(2)


def test_class_arithmetic():
    x1, y1 = x_basis(G, 1), y_basis(G, 1)
    assert (x1 + y1).coords == (1, 1, 0, 0, 0, 0)
    assert (2 * x1 - y1).coords == (2, -1, 0, 0, 0, 0)
    assert not zero_class(G)
    assert x1 != y1 and x1 == x_basis(G, 1)
    assert hash(x1) == hash(x_basis(G, 1))


def test_intersection_basis_table():
    x1, y1 = x_basis(G, 1), y_basis(G, 1)
    assert intersection(x1, y1) == 1
    assert intersection(y1, x1) == -1
    assert intersection(x1, x_basis(G, 2)) == 0
    assert intersection(x1, y_basis(G, 2)) == 0


def test_intersection_examples():
    x1, y1, y2 = x_basis(G, 1), y_basis(G, 1), y_basis(G, 2)
    # bilinear expansion oracle over basis pairs
    m = x1 + 2 * y2
    assert intersection(m, y1) == oracle_intersection(m, y1) == 1


def test_intersection_antisymmetry_bilinearity():
    rng = random.Random(101)
    for _ in range(1000):
        m = rand_class(rng, G, 5, nonzero=False)
        n = rand_class(rng, G, 5, nonzero=False)
        p = rand_class(rng, G, 5, nonzero=False)
        assert intersection(m, m) == 0
        assert intersection(m, n) == -intersection(n, m)
        assert intersection(m + n, p) == intersection(m, p) + intersection(n, p)
        assert intersection(m, n) == oracle_intersection(m, n)


def test_intersection_genus_mismatch():
    with pytest.raises(ValueError):
        intersection(x_basis(3, 1), x_basis(4, 1))


def test_norm1():
    assert norm1(HomologyClass((1, -2, 0, 3, 0, 0))) == 6
    assert norm1(zero_class(G)) == 0
    assert norm1(x_basis(G, 1) + y_basis(G, 1)) == 2


def test_transvect_examples():
    x1, y1 = x_basis(G, 1), y_basis(G, 1)
    assert transvect(x1, 1, x1) == x1
    assert transvect(x1, 1, y1) == x1 + y1
    m = 2 * x1 + 3 * y1
    assert transvect(y1, -1, m) == 2 * x1 + 5 * y1


def test_transvect_properties():
    rng = random.Random(102)
    for _ in range(300):
        c = rand_class(rng, G, 4)
        m = rand_class(rng, G, 4, nonzero=False)
        n, k = rng.randint(-5, 5), rng.randint(-5, 5)
        assert transvect(c, n + k, m) == transvect(c, n, transvect(c, k, m))
        assert transvect(-c, n, m) == transvect(c, n, m)


def test_twist_matrix_against_transvect():
    rng = random.Random(103)
    for _ in range(300):
        c = rand_class(rng, G, 4)
        m = rand_class(rng, G, 4, nonzero=False)
        assert apply(twist_matrix(c), m) == transvect(c, 1, m)
        assert twist_matrix(c).rows == tuple(tuple(r) for r in oracle_transvection_rows(c))


@st.composite
def _spread_class_and_exponent(draw):
    "A class with two or more nonzero coordinates at g = 3..6, and n in +-1..+-5."
    g = draw(st.integers(3, 6))
    coords = st.lists(st.integers(-4, 4), min_size=2 * g, max_size=2 * g)
    c = draw(coords.filter(lambda v: sum(1 for a in v if a) >= 2))
    return HomologyClass(c), draw(st.integers(1, 5)) * draw(st.sampled_from((1, -1)))


@settings(max_examples=200, deadline=None)
@given(_spread_class_and_exponent())
def test_twist_matrix_matches_the_closed_form_oracle(cn):
    c, n = cn
    assert twist_matrix(c, n).rows == tuple(tuple(r) for r in oracle_transvection_rows(c, n))


def test_dual_terms_is_the_pairing_row():
    rng = random.Random(104)
    for g in (3, 4, 6):
        for _ in range(50):
            c = rand_class(rng, g, 5, nonzero=False)
            m = rand_class(rng, g, 5, nonzero=False)
            row = dual_terms(c)
            assert len(row) == sum(1 for a in c.coords if a)
            assert sum(w * m.coords[k] for k, w in row) == oracle_intersection(c, m)
    assert dual_terms(x_basis(G, 2)) == ((3, 1),)
    assert dual_terms(y_basis(G, 2)) == ((2, -1),)
    assert dual_terms(zero_class(G)) == ()


def test_twist_matrix_block_action():
    # on the first block the x1 twist acts as (a, b) -> (a + b, b)
    M = twist_matrix(x_basis(G, 1))
    m = HomologyClass((4, 7, 1, -2, 0, 5))
    assert apply(M, m).coords == (11, 7, 1, -2, 0, 5)


def test_twist_matrix_zero_class_and_inverse():
    assert twist_matrix(zero_class(G)) == SymplecticMatrix.identity(2 * G)
    c = x_basis(G, 1) + y_basis(G, 2)
    M = twist_matrix(c)
    assert M * M.inv() == SymplecticMatrix.identity(2 * G)
    assert twist_matrix(c, -1) == M.inv()


def test_is_symplectic():
    assert is_symplectic(SymplecticMatrix.identity(2 * G))
    assert is_symplectic(twist_matrix(x_basis(G, 1) + y_basis(G, 2)))
    bad = [[0] * 6 for _ in range(6)]
    for i in range(6):
        bad[i][i] = 1
    bad[0][0] = 2
    assert not is_symplectic(SymplecticMatrix(bad))


def test_random_twists_symplectic():
    rng = random.Random(104)
    for _ in range(1000):
        c = rand_class_norm(rng, G, 20)
        M = twist_matrix(c)
        assert is_symplectic(M)
        assert oracle_symplectic([list(r) for r in M.rows])


def test_apply_identity_and_product():
    rng = random.Random(105)
    I = SymplecticMatrix.identity(2 * G)
    for _ in range(200):
        m = rand_class(rng, G, 5, nonzero=False)
        assert apply(I, m) == m
        M1 = twist_matrix(rand_class(rng, G, 3))
        M2 = twist_matrix(rand_class(rng, G, 3))
        assert apply(M1 * M2, m) == apply(M1, apply(M2, m))


def test_standard_form_pairing():
    J = standard_form(G)
    basis = symplectic_basis(G)
    for i, m in enumerate(basis):
        for j, n in enumerate(basis):
            assert intersection(m, n) == sum(
                m.coords[p] * J.rows[p][q] * n.coords[q]
                for p in range(2 * G)
                for q in range(2 * G)
            )


def _ray_norms(m, steps=20):
    idx, eps = choose_increasing_twist(m)
    c = basis_curve_class(m.genus, idx)
    return [norm1(transvect(c, eps * n, m)) for n in range(steps + 1)]


def test_choose_increasing_twist_example():
    m = 2 * x_basis(G, 1) + 3 * y_basis(G, 1)
    idx, eps = choose_increasing_twist(m)
    assert basis_curve_name(idx) == "y1"
    c = basis_curve_class(G, idx)
    # twisted coordinates follow the pattern (2, 3 + 2n, 0, ...)
    for n in range(5):
        assert transvect(c, eps * n, m).coords == (2, 3 + 2 * n, 0, 0, 0, 0)


def test_choose_increasing_twist_postcondition_small():
    for m in (x_basis(G, 1), y_basis(G, 3)):
        norms = _ray_norms(m)
        assert all(a < b for a, b in zip(norms, norms[1:]))
    idx, _ = choose_increasing_twist(y_basis(G, 3))
    assert basis_curve_name(idx) == "x3"


def test_choose_increasing_twist_postcondition_random():
    rng = random.Random(106)
    for _ in range(1000):
        m = rand_class_norm(rng, G, 50)
        norms = _ray_norms(m)
        assert all(a < b for a, b in zip(norms, norms[1:])), m


def test_choose_increasing_twist_zero_rejected():
    with pytest.raises(ValueError):
        choose_increasing_twist(zero_class(G))


def test_orbit_ray():
    x1, y1 = x_basis(G, 1), y_basis(G, 1)
    assert orbit_ray(x_basis(G, 2), 1, x1, 4) == [x1] * 4  # pairing zero: constant
    assert orbit_ray(x1, 1, y1, 3) == [y1, y1 + x1, y1 + 2 * x1]
    rng = random.Random(107)
    for _ in range(200):
        c = rand_class(rng, G, 3)
        m = rand_class(rng, G, 3)
        if intersection(c, m) == 0:
            continue
        ray = orbit_ray(c, rng.choice([1, -1]), m, 10)
        assert len({p.coords for p in ray}) == 10
    with pytest.raises(ValueError):
        orbit_ray(x1, 1, y1, 0)


def test_iter_classes_count():
    # norm <= 1 in rank 6: the zero class plus 12 signed unit vectors
    assert sum(1 for _ in iter_classes(G, 1)) == 13


def test_matrix_pow():
    c = x_basis(G, 1) + 2 * y_basis(G, 3)
    M = twist_matrix(c)
    assert M ** 3 == M * M * M
    assert M ** -2 == M.inv() * M.inv()
    assert M ** 0 == SymplecticMatrix.identity(2 * G)
    assert twist_matrix(c, 5) == M ** 5
