"""The per-line telescoping solver against the step-by-step candidate walk
it replaced (helpers.oracle_telescope), and the one-sided residual
certificate."""

import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from twistlab import (
    Cocycle,
    GaussianRational,
    GeneratorSet,
    HomologyClass,
    SparseVector,
    act,
    coboundary,
    solve_coboundary,
    twist_matrix,
)

from helpers import oracle_ray_coefficient, oracle_telescope, rand_sparse

G = 3


def basis_gens(g=G):
    return GeneratorSet.symplectic_basis(g)


def two_point_primitive(a):
    "The primitive {(a,1,0,0,0,0), (1,a,1,0,0,0)}: two rays of length ~a."
    return SparseVector(
        G, {HomologyClass((a, 1, 0, 0, 0, 0)): 1, HomologyClass((1, a, 1, 0, 0, 0)): 1}
    )


def long_ray_primitive(rng, g, size, magnitude):
    "Points with an a-coordinate of +-1 or +-2 and a b-coordinate near magnitude."
    entries = {}
    for i in range(size):
        coords = [0] * (2 * g)
        j = rng.randrange(g)
        a = rng.choice((1, 2, -1, -2))
        b = rng.randint(magnitude // 2, magnitude)
        coords[2 * j], coords[2 * j + 1] = a, (b if i % 2 else -b)
        entries[HomologyClass(coords)] = rng.randint(1, 9)
    return SparseVector(g, entries)


def test_solver_matches_oracle_on_random_round_trips():
    rng = random.Random(701)
    for g in (3, 4):
        gens = basis_gens(g)
        for _ in range(10):
            f = rand_sparse(rng, g, rng.randint(1, 30), coord_bound=rng.choice((1, 3, 6)))
            u = coboundary(f, gens)
            rep = solve_coboundary(u)
            assert rep.residual == 0
            assert rep.f == f == oracle_telescope(u)


@pytest.mark.parametrize("bound", [10**3, 10**4])
def test_solver_matches_oracle_at_large_coordinates(bound):
    rng = random.Random(bound)
    gens = basis_gens()
    for _ in range(4):
        f = rand_sparse(rng, G, rng.randint(1, 10), coord_bound=bound)
        u = coboundary(f, gens)
        rep = solve_coboundary(u)
        assert rep.residual == 0
        assert rep.f == f == oracle_telescope(u)
    # long rays: the oracle walks them one step at a time, too slowly to
    # run here; a zero certificate makes the primitive unique instead
    for _ in range(4):
        f = long_ray_primitive(rng, G, rng.randint(2, 6), bound)
        rep = solve_coboundary(coboundary(f, gens))
        assert rep.residual == 0 and rep.f == f


@pytest.mark.parametrize("a", [10, 300, 3000])
def test_solver_matches_oracle_on_two_point_primitives(a):
    f = two_point_primitive(a)
    u = coboundary(f, basis_gens())
    rep = solve_coboundary(u)
    assert rep.residual == 0
    assert rep.f == f == oracle_telescope(u)


def test_two_point_primitive_cost_does_not_grow_with_the_coordinate():
    # the step-by-step walk is quadratic in a: about a minute at a = 10^4
    u = coboundary(two_point_primitive(10**4), basis_gens())
    t0 = time.process_time()
    rep = solve_coboundary(u)
    assert time.process_time() - t0 < 1.0
    assert rep.residual == 0 and len(rep.f) == 2


_coord = st.one_of(st.integers(-3, 3), st.integers(-(10**4), 10**4))
_fraction = st.fractions(min_value=-50, max_value=50, max_denominator=50)
_primitive = st.dictionaries(
    st.tuples(*[_coord] * (2 * G)).filter(any), st.tuples(_fraction, _fraction), max_size=8
)


@settings(max_examples=60, deadline=None)
@given(_primitive)
def test_solve_inverts_coboundary(entries):
    f = SparseVector(
        G, {HomologyClass(c): GaussianRational(re, im) for c, (re, im) in entries.items()}
    )
    rep = solve_coboundary(coboundary(f, basis_gens()))
    assert rep.residual == 0
    assert rep.f == f


def _two_sides(f, u, curve):
    "The residuals f - t f - u(c) and f - t^-1 f + t^-1 u(c), by dense matrices."
    t, t_inv = twist_matrix(curve.cls, 1), twist_matrix(curve.cls, -1)
    value = u.value(curve.id)
    return f - act(t, f) - value, f - act(t_inv, f) + act(t_inv, value)


def test_inverse_side_of_the_certificate_is_a_relabelling():
    rng = random.Random(702)
    gens = basis_gens()
    for _ in range(6):
        f = rand_sparse(rng, G, rng.randint(1, 12))
        u = coboundary(f, gens)
        f_off = f + rand_sparse(rng, G, rng.randint(1, 3))
        nonzero = 0
        for curve in gens:
            plus, minus = _two_sides(f_off, u, curve)
            assert minus == -act(twist_matrix(curve.cls, -1), plus)
            assert minus.norm_sq() == plus.norm_sq()
            nonzero += bool(plus)
        assert nonzero


def test_certificate_equals_the_two_sided_maximum():
    rng = random.Random(703)
    gens = basis_gens()
    for _ in range(6):
        u = coboundary(rand_sparse(rng, G, rng.randint(1, 10)), gens)
        values = dict(u.values)
        cid = rng.choice(gens.ids())
        values[cid] = values[cid] + rand_sparse(rng, G, rng.randint(1, 3))
        pert = Cocycle(gens, values)
        rep = solve_coboundary(pert, relations=[])
        want = max(
            side.norm_sq() for curve in gens for side in _two_sides(rep.f, pert, curve)
        )
        assert want > 0
        assert rep.residual.square == want


def test_non_coboundaries_against_the_oracle():
    # Off coboundaries the oracle's candidates can miss a point on a
    # (-1)-ray: it pulls each hit of a twist's table back only against the
    # twist's direction.  The new solver fills such points in; everywhere
    # else the two agree, and every point the oracle misses carries its
    # step-by-step ray sum.
    rng = random.Random(704)
    gens = basis_gens()
    for _ in range(40):
        u = coboundary(rand_sparse(rng, G, rng.randint(1, 10)), gens)
        values = dict(u.values)
        cid = rng.choice(gens.ids())
        values[cid] = values[cid] + rand_sparse(rng, G, rng.randint(1, 3))
        pert = Cocycle(gens, values)
        rep = solve_coboundary(pert, relations=[])
        assert rep.residual > 0
        old = oracle_telescope(pert)
        assert all(rep.f.coefficient(m) == val for m, val in old.items())
        for m, val in rep.f.items():
            if not old.coefficient(m):
                assert val == oracle_ray_coefficient(pert, m)
    # u(y1) = e_p with p = (1,5,0,0,0,0): the (-1)-rays of (1,1..5) meet
    # the inverse table's hit t^-1 p = (1,6); the oracle pulls p back only
    # to (1,6), already outside its ball, so of that line it keeps only p
    zero = SparseVector.zero(G)
    values = {cid: zero for cid in gens.ids()}
    values["y1"] = SparseVector.basis(HomologyClass((1, 5, 0, 0, 0, 0)))
    pert = Cocycle(gens, values)
    rep = solve_coboundary(pert, relations=[])
    assert rep.residual > 0
    assert oracle_telescope(pert).support == (HomologyClass((1, 5, 0, 0, 0, 0)),)
    assert rep.f == SparseVector(G, {HomologyClass((1, b, 0, 0, 0, 0)): 1 for b in range(1, 6)})
