import json
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from twistlab import (
    Cocycle,
    Curve,
    ExactSqrt,
    GaussianRational,
    GeneratorSet,
    HomologyClass,
    NonCocycleError,
    RelationInstance,
    SolveReport,
    SparseVector,
    TwistWord,
    act,
    builtin_catalog,
    c_pairing,
    coboundary,
    dual_terms,
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
    transvect,
    twist_matrix,
    word_matrix,
    x_basis,
    y_basis,
    zero_class,
)
from twistlab import cohomology
from twistlab import serialize as ser

from helpers import oracle_smoothness, oracle_solve, rand_basis_word, rand_class, rand_sparse

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


@pytest.mark.parametrize("curves", [[1], [Curve("a", x_basis(G, 1)), x_basis(G, 2)]])
def test_generator_set_refuses_a_non_curve_in_any_position(curves):
    with pytest.raises(TypeError, match="^generators must be Curve values$"):
        GeneratorSet(curves)


def test_cocycle_validation():
    gens = basis_gens()
    values = {c.id: SparseVector.zero(G) for c in gens}
    Cocycle(gens, values)
    # a plain list of curves is taken as their generator set
    assert Cocycle(list(gens), values).gens.ids() == gens.ids()
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


def test_max_relation_residual_is_the_largest_residual():
    gens = basis_gens()
    u = coboundary(rand_sparse(random.Random(409), G, 8), gens)
    values = dict(u.values)
    values["y1"] = values["y1"] + SparseVector.basis(x_basis(G, 2), Fraction(1, 3))
    pert = Cocycle(gens, values)
    cat = [r for r in builtin_catalog(G) if matches_generators(r, gens)]
    residuals = [relation_residual(pert, r) for r in cat]
    assert max_relation_residual(pert, cat) == max(residuals) > 0
    assert max_relation_residual(pert, []) == 0


def test_relation_residual_empty_relation():
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


def test_relation_and_word_resolution_errors_name_the_curve():
    gens = basis_gens()
    u = coboundary(rand_sparse(random.Random(410), G, 4), gens)
    stray = RelationInstance(
        name="stray-letter",
        curves=(Curve("a", x_basis(G, 1)),),
        lhs=TwistWord.of(("a", 1)),
        rhs=TwistWord.of(("b", 1)),
    )
    with pytest.raises(ValueError, match="relation references unknown curve 'b'"):
        relation_residual(u, stray)
    unmatched = RelationInstance(
        name="no-generator",
        curves=(Curve("a", x_basis(G, 1)), Curve("d", x_basis(G, 1) + y_basis(G, 1))),
        lhs=TwistWord.of(("a", 1), ("d", -1)),
        rhs=TwistWord(),
    )
    missing = "no generator with class 1 1 0 0 0 0 for relation curve 'd'"
    with pytest.raises(ValueError, match=missing):
        relation_residual(u, unmatched)
    with pytest.raises(ValueError, match="unknown generator id 'z'"):
        expansion_terms(u, TwistWord.of(("x1", 1), ("z", -1)))


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


@st.composite
def _class_and_vector(draw):
    """At g = 3..6, a basis class or one with several nonzero coordinates,
    and a vector of up to 12 points, full or mean-zero."""
    g = draw(st.integers(3, 6))
    coords = st.lists(st.integers(-2, 2), min_size=2 * g, max_size=2 * g)
    spread = coords.filter(lambda v: sum(1 for a in v if a) >= 2)
    basis = st.integers(0, 2 * g - 1).map(lambda i: [int(i == j) for j in range(2 * g)])
    c = HomologyClass(draw(st.one_of(basis, spread)))
    full = draw(st.booleans())
    points = (coords if full else coords.filter(any)).map(HomologyClass)
    v = SparseVector(g, draw(st.dictionaries(points, _scalars(), max_size=12)), full=full)
    return c, v


@settings(max_examples=200, deadline=None)
@given(_class_and_vector())
def test_project_fixed_keeps_the_points_the_twist_fixes(cv):
    c, v = cv
    fixed = {m: val for m, val in v.items() if transvect(c, 1, m) == m}
    got = project_fixed(c, v)
    assert got == SparseVector(v.genus, fixed, full=v.full)
    assert got.full == v.full


def test_project_fixed_refuses_a_class_of_another_genus():
    for v in (SparseVector.zero(4), SparseVector.basis(x_basis(4, 1))):
        with pytest.raises(ValueError, match="genus mismatch: 3 vs 4"):
            project_fixed(x_basis(3, 1), v)


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


def _scalars():
    return st.builds(
        lambda p, q, r: GaussianRational(Fraction(p, q), r),
        st.integers(-9, 9), st.integers(1, 4), st.integers(-9, 9),
    )


@st.composite
def _cocycles(draw):
    """A coboundary at g = 3..6, plus 0..2 bumps d e_p: the bench's (p fixed
    by x1, y1, y2 and moved by x2, on u(x1)), p near 0 on one handle on any
    generator, or p = (a, b) far up the b-line of handle j on u(y_j), whose
    telescope is longer than the input, so both check orders are drawn."""
    g = draw(st.integers(3, 6))
    gens = GeneratorSet.symplectic_basis(g)
    coords = st.lists(st.integers(-2, 2), min_size=2 * g, max_size=2 * g).filter(any)
    f = draw(st.dictionaries(coords.map(HomologyClass), _scalars(), max_size=6))
    values = dict(coboundary(SparseVector(g, f), gens).values)
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(("bench", "near", "far")))
        j = draw(st.integers(0, g - 1))
        p = [0] * (2 * g)
        if kind == "bench":
            cid = "x1"
            p[3] = draw(st.sampled_from((-3, -2, -1, 1, 2, 3)))
            p[4:] = draw(st.lists(st.integers(-3, 3), min_size=2 * g - 4, max_size=2 * g - 4))
        elif kind == "near":
            cid = draw(st.sampled_from(gens.ids()))
            p[2 * j : 2 * j + 2] = draw(st.tuples(st.integers(-2, 2), st.integers(-2, 2)))
        else:
            cid = "y%d" % (j + 1)
            p[2 * j] = draw(st.sampled_from((-2, -1, 1, 2)))
            p[2 * j + 1] = draw(st.integers(60, 300) | st.integers(-300, -60))
        if any(p):
            values[cid] = values[cid] + SparseVector.basis(HomologyClass(p), draw(_scalars()))
    return Cocycle(gens, values)


@settings(max_examples=150, deadline=None)
@given(_cocycles())
def test_certificate_first_solve_matches_the_relation_first_order(u):
    try:
        want = oracle_solve(u)
    except NonCocycleError as exc:
        with pytest.raises(NonCocycleError) as got:
            solve_coboundary(u)
        assert str(got.value) == str(exc)
    else:
        assert solve_coboundary(u) == want


def test_relations_run_only_at_a_nonzero_certificate(monkeypatch):
    evaluated = []
    real = cohomology.relation_residual

    def counted(u, rel):
        evaluated.append(rel.name)
        return real(u, rel)

    monkeypatch.setattr(cohomology, "relation_residual", counted)
    gens = basis_gens()
    u = coboundary(rand_sparse(random.Random(422), G, 40), gens)
    assert solve_coboundary(u).residual == 0
    assert evaluated == []
    # the bench's bump: refused at the first relation, the others not evaluated
    bump = SparseVector.basis(HomologyClass((0, 0, 0, 2, 1, -1)), Fraction(3, 4))
    pert = Cocycle(gens, dict(u.values, x1=u.value("x1") + bump))
    with pytest.raises(NonCocycleError, match="'commuting-x1-x2'"):
        solve_coboundary(pert)
    assert evaluated == ["commuting-x1-x2"]


def test_a_long_telescope_runs_the_relations_first(monkeypatch):
    # u(y1) = e_p far up the y1 line: the telescope's one run would hold
    # 10^9 points, so the relations run before it is expanded
    def bounded_expand(g, runs):
        # fail fast instead of filling memory if the guard ever breaks
        assert sum(len(span) for _, _, span, _ in runs) < 10**6
        return real_expand(g, runs)

    real_expand = cohomology._expand
    monkeypatch.setattr(cohomology, "_expand", bounded_expand)
    gens = basis_gens()
    values = {cid: SparseVector.zero(G) for cid in gens.ids()}
    values["y1"] = SparseVector.basis(HomologyClass((1, 10**9, 0, 0, 0, 0)))
    u = Cocycle(gens, values)
    start = time.process_time()
    with pytest.raises(NonCocycleError, match="'braid-x1-y1'"):
        solve_coboundary(u)
    assert time.process_time() - start < 1.0


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


# coordinates up to 300 move a point both towards and away from 0, so the
# norm of t^-1 p falls both above and below that of p; zeros and small
# coordinates put points on the rays the telescope walks
_coord300 = st.one_of(st.sampled_from((0, 1, -1, 2)), st.integers(-300, 300))
_coeff = st.fractions(min_value=-20, max_value=20, max_denominator=20)


@st.composite
def _basis_cocycle(draw):
    """A coboundary or an arbitrary cocycle on the 2g basis twists, g = 3..6.
    The points of each vector come a few to a line along one coordinate, so
    the telescope meets several hits on one line."""
    g = draw(st.integers(3, 6))
    coords = st.lists(_coord300, min_size=2 * g, max_size=2 * g)

    def vector(idx):
        table = {}
        for base in draw(st.lists(coords, max_size=3)):
            for a in draw(st.lists(_coord300, min_size=1, max_size=3)):
                point = tuple(base[:idx] + [a] + base[idx + 1 :])
                if any(point):
                    table[HomologyClass(point)] = GaussianRational(draw(_coeff), draw(_coeff))
        return SparseVector(g, table)

    gens = GeneratorSet.symplectic_basis(g)
    if draw(st.booleans()):
        return coboundary(vector(draw(st.integers(0, 2 * g - 1))), gens)
    return Cocycle(gens, {c.id: vector(idx) for idx, c in enumerate(gens)})


@settings(max_examples=50, deadline=None)
@given(_basis_cocycle())
def test_decay_table_holds_basis_twist_value_constants(u):
    # G_{k+1} in the report is the largest norm1^(k+1) |coeff| over the
    # values of the basis twists and their inverses, here read through
    # the dense twist matrices
    rep = solve_coboundary(u, relations=[])
    values = []
    for curve in u.gens:
        vp = u.value(curve.id)
        values += [vp, -act(twist_matrix(curve.cls, -1), vp)]
    for k, fk, gk in rep.decay:
        want = [norm1(m) ** (2 * (k + 1)) * val.abs2() for v in values for m, val in v.items()]
        assert gk.square == max(want, default=0)
        have = [norm1(m) ** (2 * k) * val.abs2() for m, val in rep.f.items()]
        assert fk.square == max(have, default=0)


@settings(max_examples=50, deadline=None)
@given(_basis_cocycle())
def test_the_telescope_runs_cover_f_once(u):
    # the guard counts f's points as the sum of the run lengths, which
    # holds because no two runs share a point
    values = [u.value(curve.id) for curve in u.gens]
    rows = [dual_terms(curve.cls)[0] for curve in u.gens]
    runs = cohomology._telescope(values, rows)
    assert sum(len(span) for _, _, span, _ in runs) == len(solve_coboundary(u, relations=[]).f)


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


_small_point = st.lists(st.integers(-6, 6), min_size=2 * G, max_size=2 * G).filter(any)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(_coeff, _coeff).filter(any), min_size=1, max_size=4),
    st.lists(st.tuples(_small_point, st.integers(0, 3), st.booleans()), min_size=1, max_size=10),
)
def test_smoothness_report_matches_the_per_point_oracle(values, raw):
    # f shares each drawn value as one object between points of several
    # norms, or holds an equal copy; the solved f shares one per run
    shared = [GaussianRational(re, im) for re, im in values]
    table = {}
    for coords, i, copy in raw:
        val = shared[i % len(shared)]
        table[HomologyClass(coords)] = GaussianRational(val.re, val.im) if copy else val
    f = SparseVector(G, table)
    solved = solve_coboundary(coboundary(f, basis_gens()), relations=[])
    assert solved.f == f
    for rep in (solved, SolveReport(f=f, residual=ExactSqrt(0), decay=solved.decay)):
        # scale G down until some k fails, and on to G = 0, where all fail
        scale = Fraction(1)
        while True:
            g_squares = {k: gk.square * scale for k, _, gk in rep.decay}
            scaled = SolveReport(
                f=rep.f,
                residual=rep.residual,
                decay=tuple((k, fk, ExactSqrt(g_squares[k])) for k, fk, _ in rep.decay),
            )
            checks = smoothness_report(scaled)
            want = oracle_smoothness(rep.f, g_squares)
            assert [(c.k, c.passed, c.witnesses) for c in checks] == want
            if not scale:
                break
            failed = not all(passed for _, passed, _ in want)
            scale = 0 if failed or scale < Fraction(1, 10**12) else scale / 4
        assert all(len(c.witnesses) == len(f) for c in checks)


def test_smoothness_report_takes_f_from_the_vector_not_the_table():
    # a saved report whose F column reads zero decides as its f does: scale
    # G down until the per-point oracle fails some k, zero F, round-trip
    rep = solve_coboundary(coboundary(rand_sparse(random.Random(427), G, 12), basis_gens()))
    scale = Fraction(1)
    while True:
        g_squares = {k: gk.square * scale for k, _, gk in rep.decay}
        want = oracle_smoothness(rep.f, g_squares)
        if not all(passed for _, passed, _ in want):
            break
        scale /= 4
    edited = SolveReport(
        f=rep.f,
        residual=rep.residual,
        decay=tuple((k, ExactSqrt(0), ExactSqrt(g_squares[k])) for k, _, _ in rep.decay),
    )
    saved = ser.report_from_json(json.loads(json.dumps(ser.report_to_json(edited))))
    assert [(c.k, c.passed, c.witnesses) for c in smoothness_report(saved)] == want


@st.composite
def _edge_primitive(draw):
    """A primitive at g = 3..6 with its points where the decay lemma has the
    least room: norm-1 points, and short lines of points whose increasing
    ray is y-type (the first nonzero coordinate is an a, and b of either
    sign puts the line on eps = +1 or eps = -1) or x-type (the first
    nonzero coordinate is a b), with steps |a| or |b| of 1, 2 and up."""
    g = draw(st.integers(3, 6))
    step = st.one_of(st.sampled_from((1, -1, 2, -2)), st.integers(-40, 40).filter(bool))
    coeff = st.tuples(_coeff, _coeff).filter(any)
    table = {}
    for _ in range(draw(st.integers(1, 6))):
        coords = [0] * (2 * g)
        kind = draw(st.sampled_from(("unit", "y-ray", "x-ray")))
        if kind == "unit":
            coords[draw(st.integers(0, 2 * g - 1))] = draw(st.sampled_from((1, -1)))
            points = [coords]
        else:
            h = 2 * draw(st.integers(0, g - 1))
            rest = 2 * g - h - 2
            coords[h + 2 :] = draw(st.lists(st.integers(-3, 3), min_size=rest, max_size=rest))
            if kind == "y-ray":
                coords[h], coords[h + 1] = draw(step), draw(st.integers(-40, 40))
                moving, s = h + 1, coords[h]
            else:
                coords[h + 1] = draw(step)
                moving, s = h, coords[h + 1]
            points = []
            for j in draw(st.lists(st.integers(0, 3), min_size=1, max_size=3, unique=True)):
                point = list(coords)
                point[moving] += j * s
                points.append(point)
        for point in points:
            table[HomologyClass(point)] = GaussianRational(*draw(coeff))
    return SparseVector(g, table)


@settings(max_examples=100, deadline=None)
@given(_edge_primitive())
def test_every_clean_solve_is_smooth(f):
    # the decay lemma: the telescope's f has k F_k <= G_{k+1} at every k >= 1
    rep = solve_coboundary(coboundary(f, GeneratorSet.symplectic_basis(f.genus)))
    assert rep.residual == 0 and rep.f == f
    assert all(c.passed for c in smoothness_report(rep))
