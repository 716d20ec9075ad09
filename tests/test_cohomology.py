import json
import random
from fractions import Fraction

import pytest

from twistlab import (
    Cocycle,
    Curve,
    ExactSqrt,
    GaussianRational,
    GeneratorSet,
    NonCocycleError,
    SolveReport,
    SparseVector,
    TwistWord,
    act,
    builtin_catalog,
    c_pairing,
    coboundary,
    expansion_terms,
    extend,
    inner,
    matches_generators,
    max_relation_residual,
    norm1,
    project_fixed,
    relation_residual,
    s_vector,
    smoothness_report,
    solve_coboundary,
    twist_matrix,
    word_matrix,
    x_basis,
    y_basis,
    zero_class,
)
from twistlab import serialize as ser

from helpers import rand_basis_word, rand_class, rand_sparse

G = 3


def basis_gens(extra=()):
    return GeneratorSet.symplectic_basis(G, extra)


def test_generator_set_validation():
    with pytest.raises(ValueError):
        GeneratorSet([Curve("z", zero_class(G))])
    with pytest.raises(ValueError):
        GeneratorSet([Curve("a", x_basis(G, 1)), Curve("a", y_basis(G, 1))])
    gens = basis_gens()
    assert gens.has_symplectic_basis()
    assert gens.find_by_class(x_basis(G, 2)).id == "x2"
    small = GeneratorSet([Curve("a", x_basis(G, 1))])
    assert not small.has_symplectic_basis()


def test_cocycle_validation():
    gens = basis_gens()
    values = {c.id: SparseVector.zero(G) for c in gens}
    Cocycle(gens, values)
    with pytest.raises(ValueError):
        Cocycle(gens, dict(list(values.items())[:-1]))
    bad = dict(values)
    bad["x1"] = SparseVector(G, {zero_class(G): 1}, full=True)
    with pytest.raises(ValueError):
        Cocycle(gens, bad)


def test_extend_empty_word_is_zero():
    gens = basis_gens()
    u = coboundary(SparseVector.basis(y_basis(G, 1)), gens)
    assert extend(u, TwistWord()) == SparseVector.zero(G)


def test_extend_single_letters():
    gens = basis_gens()
    rng = random.Random(401)
    u = coboundary(rand_sparse(rng, G, 5), gens)
    val = u.value("x1")
    assert extend(u, TwistWord.of(("x1", 1))) == val
    M = twist_matrix(x_basis(G, 1), -1)
    assert extend(u, TwistWord.of(("x1", -1))) == -act(M, val)


def test_extend_two_letters():
    gens = basis_gens()
    rng = random.Random(402)
    u = coboundary(rand_sparse(rng, G, 5), gens)
    got = extend(u, TwistWord.of(("x1", 1), ("y2", 1)))
    want = u.value("x1") + act(twist_matrix(x_basis(G, 1)), u.value("y2"))
    assert got == want


def test_cocycle_identity_on_words():
    # the word identity holds for the extension of arbitrary generator
    # values, not only for coboundaries
    gens = basis_gens()
    rng = random.Random(403)
    arbitrary = Cocycle(gens, {cid: rand_sparse(rng, G, 4) for cid in gens.ids()})
    table = {c.id: c for c in gens}
    for u in (coboundary(rand_sparse(rng, G, 8), gens), arbitrary):
        for _ in range(50):
            w1 = rand_basis_word(rng, G, 4)
            w2 = rand_basis_word(rng, G, 4)
            lhs = extend(u, w1 * w2)
            rhs = extend(u, w1) + act(word_matrix(w1, table), extend(u, w2))
            assert lhs == rhs


def test_extend_conjugation_formula():
    # u(g h g^-1) = (1 - g h g^-1) u(g) + g u(h), a consequence of the
    # word identity and the inverse rule alone
    gens = basis_gens()
    rng = random.Random(426)
    u = Cocycle(gens, {cid: rand_sparse(rng, G, 4) for cid in gens.ids()})
    table = {c.id: c for c in gens}
    for _ in range(25):
        wg = rand_basis_word(rng, G, 3)
        wh = rand_basis_word(rng, G, 3)
        conj = wg * wh * wg.inverse()
        Mg = word_matrix(wg, table)
        Mconj = word_matrix(conj, table)
        ug, uh = extend(u, wg), extend(u, wh)
        assert extend(u, conj) == ug - act(Mconj, ug) + act(Mg, uh)


def test_coboundary_example_and_linearity():
    gens = basis_gens()
    y1 = y_basis(G, 1)
    u = coboundary(SparseVector.basis(y1), gens)
    assert u.value("x1") == SparseVector.basis(y1) - SparseVector.basis(x_basis(G, 1) + y1)
    # the only vector fixed by all generators is zero: zero cocycle
    trivial = coboundary(SparseVector.zero(G), gens)
    assert all(not trivial.value(cid) for cid in gens.ids())
    rng = random.Random(404)
    v = rand_sparse(rng, G, 6)
    w = rand_sparse(rng, G, 6)
    uv, uw, uvw = coboundary(v, gens), coboundary(w, gens), coboundary(v + w, gens)
    for cid in gens.ids():
        assert uvw.value(cid) == uv.value(cid) + uw.value(cid)


def test_coboundary_consistency_on_words():
    gens = basis_gens()
    table = {c.id: c for c in gens}
    rng = random.Random(405)
    for _ in range(50):
        v = rand_sparse(rng, G, 6)
        u = coboundary(v, gens)
        w = rand_basis_word(rng, G, 5)
        assert extend(u, w) == v - act(word_matrix(w, table), v)


def test_relation_residual_zero_for_coboundaries():
    gens = basis_gens()
    rng = random.Random(406)
    u = coboundary(rand_sparse(rng, G, 10), gens)
    cat = [r for r in builtin_catalog(G) if matches_generators(r, gens)]
    assert cat  # commuting and braid instances resolve over the basis
    assert max_relation_residual(u, cat) == 0


def test_relation_residual_perturbed_braid():
    gens = basis_gens()
    rng = random.Random(407)
    u = coboundary(rand_sparse(rng, G, 8), gens)
    values = dict(u.values)
    values["x1"] = values["x1"] + SparseVector.basis(y_basis(G, 1), Fraction(1, 2))
    pert = Cocycle(gens, values)
    braid = next(r for r in builtin_catalog(G) if r.name == "braid-x1-y1")
    assert relation_residual(pert, braid) > 0


def test_relation_residual_empty_relation():
    from twistlab import RelationInstance

    gens = basis_gens()
    rng = random.Random(408)
    u = coboundary(rand_sparse(rng, G, 4), gens)
    rel = RelationInstance(
        name="trivial",
        curves=(Curve("a", x_basis(G, 1)),),
        lhs=TwistWord.of(("a", 1)),
        rhs=TwistWord.of(("a", 1)),
    )
    assert relation_residual(u, rel) == 0


def test_relation_residual_resolves_by_class():
    # conjugation instances need a generator carrying the image class
    extra = (Curve("diag", x_basis(G, 1) + y_basis(G, 1)),)
    gens = basis_gens(extra)
    rng = random.Random(409)
    u = coboundary(rand_sparse(rng, G, 6), gens)
    conj = next(r for r in builtin_catalog(G) if r.name == "conjugation-x1-y1")
    assert matches_generators(conj, gens)
    assert relation_residual(u, conj) == 0
    plain = basis_gens()
    assert not matches_generators(conj, plain)
    u2 = coboundary(rand_sparse(rng, G, 4), plain)
    with pytest.raises(ValueError):
        relation_residual(u2, conj)


def test_project_fixed():
    x1, y1 = x_basis(G, 1), y_basis(G, 1)
    v = SparseVector.basis(x1)
    assert project_fixed(x1, v) == v
    assert project_fixed(x1, SparseVector.basis(y1)) == SparseVector.zero(G)
    rng = random.Random(410)
    for _ in range(50):
        c = rand_class(rng, G, 3)
        v = rand_sparse(rng, G, 8)
        w = rand_sparse(rng, G, 8)
        p = project_fixed(c, v)
        assert project_fixed(c, p) == p
        assert inner(p, w) == inner(v, project_fixed(c, w))


def test_s_vector_vanishes_for_coboundaries():
    extra = (
        Curve("mix1", x_basis(G, 1) + y_basis(G, 2)),
        Curve("mix2", x_basis(G, 1) + x_basis(G, 2)),
    )
    gens = basis_gens(extra)
    rng = random.Random(411)
    for _ in range(20):
        u = coboundary(rand_sparse(rng, G, 10), gens)
        for curve in gens:
            assert not s_vector(u, curve)


def test_s_vector_naturality_for_coboundaries():
    phi_cls = x_basis(G, 1)
    alpha = Curve("y1", y_basis(G, 1))
    image_cls = twist_matrix(phi_cls).apply(alpha.cls)
    gens = basis_gens((Curve("img", image_cls),))
    rng = random.Random(412)
    u = coboundary(rand_sparse(rng, G, 8), gens)
    lhs = s_vector(u, Curve("img", image_cls))
    rhs = act(twist_matrix(phi_cls), s_vector(u, alpha))
    assert lhs == rhs  # both vanish


def test_s_vector_separating_curve_via_word():
    # two homologous generators give an identity-acting word; a separating
    # twist is modelled by it, the projection is the identity, and the
    # value must vanish for coboundaries
    gens = basis_gens((Curve("g1", x_basis(G, 1)), Curve("g2", x_basis(G, 1))))
    rng = random.Random(413)
    u = coboundary(rand_sparse(rng, G, 8), gens)
    sep = Curve("sep", zero_class(G), separating=True)
    word = TwistWord.of(("g1", 1), ("g2", -1))
    s = s_vector(u, sep, word=word)
    assert not s
    with pytest.raises(ValueError):
        s_vector(u, sep)  # no word supplied


def test_bounding_pair_words_vanish():
    gens = basis_gens(
        (
            Curve("p1", x_basis(G, 1)),
            Curve("q1", x_basis(G, 1)),
            Curve("p2", y_basis(G, 3)),
            Curve("q2", y_basis(G, 3)),
        )
    )
    rng = random.Random(414)
    u = coboundary(rand_sparse(rng, G, 10), gens)
    for a, b in (("p1", "q1"), ("p2", "q2"), ("q1", "p1")):
        assert extend(u, TwistWord.of((a, 1), (b, -1))) == SparseVector.zero(G)


def test_fixed_vector_under_commuting_words():
    # words whose matrix commutes with the twist fix the projected value
    gens = basis_gens()
    rng = random.Random(415)
    u = coboundary(rand_sparse(rng, G, 8), gens)
    curve = gens.get("x1")
    s = s_vector(u, curve)
    table = {c.id: c for c in gens}
    for w in (TwistWord.of(("x1", 3)), TwistWord.of(("x2", 1), ("y2", -2))):
        M = word_matrix(w, table)
        T = twist_matrix(curve.cls)
        assert M * T == T * M
        assert act(M, s) == s


def test_c_pairing_zero_and_invariance():
    gens = basis_gens()
    rng = random.Random(416)
    u = coboundary(rand_sparse(rng, G, 8), gens)
    a, b = gens.get("x1"), gens.get("y2")
    assert c_pairing(u, a, b) == GaussianRational(0)
    # perturbing by another coboundary keeps the pairing (both still zero)
    w = rand_sparse(rng, G, 5)
    shifted = Cocycle(
        gens,
        {cid: u.value(cid) + coboundary(w, gens).value(cid) for cid in gens.ids()},
    )
    assert c_pairing(shifted, a, b) == c_pairing(u, a, b)


def test_c_pairing_preconditions():
    gens = basis_gens((Curve("dup", x_basis(G, 1)),))
    rng = random.Random(417)
    u = coboundary(rand_sparse(rng, G, 4), gens)
    a = gens.get("x1")
    with pytest.raises(ValueError):
        c_pairing(u, a, a)
    with pytest.raises(ValueError):
        c_pairing(u, a, gens.get("dup"))  # homologous pair separates
    sep = Curve("sep", zero_class(G), separating=True)
    with pytest.raises(ValueError):
        c_pairing(u, a, sep)


def test_expansion_term_counts():
    # the expansion produces one term per letter: 12 for the chain left
    # side, and the lantern left side groups as 1 + 3
    gens = basis_gens(
        (
            Curve("c", x_basis(G, 1) + x_basis(G, 2)),
            Curve("a0", x_basis(G, 1) + x_basis(G, 2) + x_basis(G, 3)),
            Curve("a12", x_basis(G, 1) + x_basis(G, 2)),
        )
    )
    rng = random.Random(418)
    u = coboundary(rand_sparse(rng, G, 5), gens)
    chain_lhs = TwistWord.of(("x1", 1), ("y1", 1), ("c", 1)) ** 4
    terms = expansion_terms(u, chain_lhs)
    assert len(terms) == 12
    assert sum(terms, SparseVector.zero(G)) == extend(u, chain_lhs)
    lantern_lhs = TwistWord.of(("a0", 1), ("x1", 1), ("x2", 1), ("x3", 1))
    assert len(expansion_terms(u, lantern_lhs)) == 4
    tail = TwistWord.of(("x1", 1), ("x2", 1), ("x3", 1))
    assert len(expansion_terms(u, tail)) == 3
    # grouped form: u(t0 t1 t2 t3) = u(t0) + t0 u(t1 t2 t3)
    M0 = twist_matrix(gens.get("a0").cls)
    assert extend(u, lantern_lhs) == u.value("a0") + act(M0, extend(u, tail))


def test_solver_round_trip_small():
    gens = basis_gens()
    rng = random.Random(419)
    for _ in range(10):
        f = rand_sparse(rng, G, rng.randint(1, 50))
        u = coboundary(f, gens)
        rep = solve_coboundary(u)
        assert rep.residual == 0
        assert rep.f == f
        assert rep.decay and all(k in (2, 3, 4, 5) for k, _, _ in rep.decay)


def test_solver_zero_cocycle():
    gens = basis_gens()
    u = Cocycle(gens, {cid: SparseVector.zero(G) for cid in gens.ids()})
    rep = solve_coboundary(u)
    assert rep.residual == 0
    assert rep.f == SparseVector.zero(G)
    checks = smoothness_report(rep)
    assert all(c.passed for c in checks)  # vacuous


def test_solver_refuses_on_relation_residual():
    gens = basis_gens()
    rng = random.Random(420)
    u = coboundary(rand_sparse(rng, G, 6), gens)
    values = dict(u.values)
    values["x1"] = values["x1"] + SparseVector.basis(y_basis(G, 1))
    pert = Cocycle(gens, values)
    with pytest.raises(NonCocycleError):
        solve_coboundary(pert)


def test_solver_nonzero_residual_when_not_coboundary():
    gens = basis_gens()
    rng = random.Random(421)
    u = coboundary(rand_sparse(rng, G, 6), gens)
    values = dict(u.values)
    values["x3"] = values["x3"] + SparseVector.basis(
        x_basis(G, 1) + 2 * y_basis(G, 3), Fraction(1, 3)
    )
    pert = Cocycle(gens, values)
    rep = solve_coboundary(pert, relations=[])
    assert rep.residual > 0


def test_solver_handles_disguised_coboundary():
    # changing one generator value by (w - t w) for w fixed by the other
    # generators produces the coboundary of f + w; the solver must find it
    gens = basis_gens()
    rng = random.Random(422)
    f = rand_sparse(rng, G, 10)
    u = coboundary(f, gens)
    w = SparseVector(G, {y_basis(G, 1): Fraction(2, 5), 3 * y_basis(G, 1): 1})
    values = dict(u.values)
    values["x1"] = values["x1"] + (w - act(twist_matrix(x_basis(G, 1)), w))
    rep = solve_coboundary(Cocycle(gens, values))
    assert rep.residual == 0
    assert rep.f == f + w


def test_solver_plateau_support():
    # f constant on a point and all of its twist neighbours: the point is
    # invisible in every generator value and must still be reconstructed
    from twistlab import basis_curve_class, transvect

    gens = basis_gens()
    p = 2 * x_basis(G, 1) + 2 * y_basis(G, 2)
    entries = {p: 1}
    for idx in range(2 * G):
        c = basis_curve_class(G, idx)
        for s in (1, -1):
            q = transvect(c, s, p)
            if q != p:
                entries[q] = 1
    f = SparseVector(G, entries)
    u = coboundary(f, gens)
    assert all(not u.value(cid).coefficient(p) for cid in gens.ids())
    rep = solve_coboundary(u)
    assert rep.residual == 0 and rep.f == f


def test_solver_constant_ray_segment():
    # interior points of a constant segment cancel in the twist direction
    from twistlab import transvect

    gens = basis_gens()
    m0 = y_basis(G, 1)
    seg = {transvect(x_basis(G, 1), t, m0): Fraction(3, 7) for t in range(6)}
    f = SparseVector(G, seg)
    rep = solve_coboundary(coboundary(f, gens))
    assert rep.residual == 0 and rep.f == f


def test_solver_requires_basis():
    small = GeneratorSet([Curve("a", x_basis(G, 1))])
    u = Cocycle(small, {"a": SparseVector.zero(G)})
    with pytest.raises(ValueError):
        solve_coboundary(u)


def test_smoothness_single_basis_vector():
    gens = basis_gens()
    f = SparseVector.basis(x_basis(G, 1))
    rep = solve_coboundary(coboundary(f, gens))
    assert rep.residual == 0 and rep.f == f
    checks = smoothness_report(rep, kmax=5)
    assert [c.k for c in checks] == [2, 3, 4, 5]
    assert all(c.passed and not c.witnesses for c in checks)


def test_smoothness_requires_exact_reconstruction():
    gens = basis_gens()
    rng = random.Random(423)
    u = coboundary(rand_sparse(rng, G, 4), gens)
    values = dict(u.values)
    values["y3"] = values["y3"] + SparseVector.basis(x_basis(G, 2) + y_basis(G, 3))
    rep = solve_coboundary(Cocycle(gens, values), relations=[])
    assert rep.residual > 0
    with pytest.raises(ValueError):
        smoothness_report(rep)


def test_smoothness_random_round_trips():
    gens = basis_gens()
    rng = random.Random(424)
    for _ in range(10):
        f = rand_sparse(rng, G, rng.randint(1, 40))
        rep = solve_coboundary(coboundary(f, gens))
        assert all(c.passed for c in smoothness_report(rep, kmax=5))


def test_decay_table_holds_basis_twist_value_constants():
    # G_{k+1} in the report is the largest norm1^(k+1) |coeff| over the
    # values of the basis twists and their inverses, here read through
    # the dense twist matrices
    gens = basis_gens()
    rng = random.Random(425)
    f = rand_sparse(rng, G, 20)
    u = coboundary(f, gens)
    rep = solve_coboundary(u)
    values = []
    for curve in gens:
        vp = u.value(curve.id)
        values += [vp, -act(twist_matrix(curve.cls, -1), vp)]
    for k, fk, gk in rep.decay:
        want = max(norm1(m) ** (2 * (k + 1)) * val.abs2() for v in values for m, val in v.items())
        assert gk.square == want
        assert fk.square == max(norm1(m) ** (2 * k) * val.abs2() for m, val in f.items())


def test_smoothness_report_rechecks_a_saved_report():
    gens = basis_gens()
    rng = random.Random(426)

    def reload(rep):
        return ser.report_from_json(json.loads(json.dumps(ser.report_to_json(rep))))

    for _ in range(5):
        f = rand_sparse(rng, G, rng.randint(1, 30))
        rep = solve_coboundary(coboundary(f, gens))
        assert smoothness_report(reload(rep)) == smoothness_report(rep)
    # a table whose G are all zero fails at every support point, and the
    # witnesses survive the round trip
    zeroed = SolveReport(
        f=rep.f,
        residual=rep.residual,
        decay=tuple((k, fk, ExactSqrt(0)) for k, fk, _ in rep.decay),
    )
    checks = smoothness_report(reload(zeroed))
    assert checks == smoothness_report(zeroed)
    assert all(len(c.witnesses) == len(rep.f) for c in checks)


def test_smoothness_report_needs_each_k_in_the_table():
    f = SparseVector.basis(x_basis(G, 1))
    rep = solve_coboundary(coboundary(f, basis_gens()))
    assert [k for k, _, _ in rep.decay] == [2, 3, 4, 5]
    with pytest.raises(ValueError):
        smoothness_report(rep, kmax=6)
