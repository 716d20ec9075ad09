import random
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from twistlab import (
    Curve,
    HomologyClass,
    MetadataError,
    RelationInstance,
    SymplecticMatrix,
    TwistWord,
    apply,
    basis_curves,
    builtin_catalog,
    find_twist_pair,
    intersection,
    is_torelli,
    matrix_residual,
    norm1,
    transvection_class,
    twist_matrix,
    verify_relation,
    word_matrix,
    x_basis,
    y_basis,
    zero_class,
)

from helpers import mat_identity, mat_mul, oracle_transvection_rows, rand_basis_word

G = 3


def _basis_table(g=G):
    return {c.id: c for c in basis_curves(g)}


def _oracle_word_rows(word, table):
    "Dense product of the oracle transvection matrices, in word order."
    table = table if isinstance(table, dict) else {c.id: c for c in table}
    rows = mat_identity(len(next(iter(table.values())).cls))
    for cid, e in word.letters:
        step = oracle_transvection_rows(table[cid].cls, e)
        rows = mat_mul(rows, step)
    return rows


def test_word_validation():
    with pytest.raises(ValueError):
        TwistWord.of(("x1", 0))
    # no silent int(): a float or a bool exponent is refused, naming the letter
    for bad in (2.9, True):
        with pytest.raises(TypeError, match="exponent of 'x1' must be an integer"):
            TwistWord((("x1", bad),))
    # no silent str(): a numeric curve id is refused, naming the letter
    with pytest.raises(TypeError, match=r"curve id of letter \(7, 1\) must be a string"):
        TwistWord.of((7, 1))
    w = TwistWord.of(("x1", 2), ("y1", -1))
    assert len(w) == 2
    assert list(w.singles()) == [("x1", 1), ("x1", 1), ("y1", -1)]
    assert (w * w.inverse()).letters == (("x1", 2), ("y1", -1), ("y1", 1), ("x1", -2))


def test_word_matrix_empty_and_single():
    table = _basis_table()
    assert word_matrix(TwistWord(), table) == SymplecticMatrix.identity(2 * G)
    w = TwistWord.of(("y2", 1))
    assert word_matrix(w, table) == twist_matrix(y_basis(G, 2))


def test_word_matrix_inverse_and_oracle():
    rng = random.Random(201)
    table = _basis_table()
    for _ in range(100):
        w = rand_basis_word(rng, G, 6)
        M = word_matrix(w, table)
        assert M * word_matrix(w.inverse(), table) == SymplecticMatrix.identity(2 * G)
        assert [list(r) for r in M.rows] == _oracle_word_rows(w, table)


def test_word_matrix_monoid_homomorphism():
    rng = random.Random(202)
    table = _basis_table()
    for _ in range(100):
        w1 = rand_basis_word(rng, G, 5)
        w2 = rand_basis_word(rng, G, 5)
        assert word_matrix(w1 * w2, table) == word_matrix(w1, table) * word_matrix(w2, table)


def test_word_matrix_unresolved_id():
    with pytest.raises(ValueError, match="unresolved curve id 'nope'"):
        word_matrix(TwistWord.of(("nope", 1)), _basis_table())
    # the first unresolved letter from the left is named
    with pytest.raises(ValueError, match="unresolved curve id 'p'"):
        word_matrix(TwistWord.of(("x1", 1), ("p", 1), ("q", -1)), _basis_table())


@pytest.mark.parametrize("first", ["a", "b"])
def test_word_matrix_refuses_a_mixed_genus_table(first):
    curves = dict(a=Curve("a", x_basis(3, 1)), b=Curve("b", y_basis(4, 1)))
    table = {first: curves[first], **curves}
    for word in (TwistWord.of(("a", 1), ("b", 1)), TwistWord.of(("b", -2), ("a", 1))):
        with pytest.raises(ValueError, match="genus mismatch"):
            word_matrix(word, table)


@st.composite
def _table_and_word(draw):
    "A curve table of random classes at g = 3..6 and a word of length 0..8 over it."
    g = draw(st.integers(3, 6))
    coords = st.lists(st.integers(-3, 3), min_size=2 * g, max_size=2 * g)
    spread = coords.filter(lambda v: sum(1 for a in v if a) >= 2)
    basis = st.integers(0, 2 * g - 1).map(lambda i: [int(i == j) for j in range(2 * g)])
    classes = draw(st.lists(st.one_of(spread, spread, basis), min_size=1, max_size=4))
    table = {"c%d" % i: Curve("c%d" % i, HomologyClass(v)) for i, v in enumerate(classes)}
    letter = st.tuples(
        st.sampled_from(sorted(table)), st.integers(1, 3), st.sampled_from((1, -1))
    ).map(lambda t: (t[0], t[1] * t[2]))
    return table, TwistWord(tuple(draw(st.lists(letter, max_size=8))))


@settings(max_examples=200, deadline=None)
@given(_table_and_word())
def test_word_matrix_matches_dense_oracle(table_word):
    table, word = table_word
    assert [list(r) for r in word_matrix(word, table).rows] == _oracle_word_rows(word, table)


@pytest.mark.parametrize("g", range(3, 9))
def test_catalog_word_matrices_match_dense_oracle(g):
    for rel in builtin_catalog(g):
        for word in (rel.lhs, rel.rhs):
            got = [list(r) for r in word_matrix(word, rel.curves).rows]
            assert got == _oracle_word_rows(word, rel.curves), rel.name


def _relation(name, curves, lhs, rhs, inters=()):
    return RelationInstance(name=name, curves=curves, lhs=lhs, rhs=rhs, intersections=inters)


def test_verify_relation_commuting_and_braid():
    x1, x2, y1 = x_basis(G, 1), x_basis(G, 2), y_basis(G, 1)
    commuting = _relation(
        "comm",
        (Curve("a", x1), Curve("b", x2)),
        TwistWord.of(("a", 1), ("b", 1)),
        TwistWord.of(("b", 1), ("a", 1)),
        (("a", "b", 0),),
    )
    assert verify_relation(commuting)
    braid = _relation(
        "braid",
        (Curve("a", x1), Curve("b", y1)),
        TwistWord.of(("a", 1), ("b", 1), ("a", 1)),
        TwistWord.of(("b", 1), ("a", 1), ("b", 1)),
        (("a", "b", 1),),
    )
    assert verify_relation(braid)
    broken = _relation(
        "broken-braid",
        (Curve("a", x1), Curve("b", x2)),
        TwistWord.of(("a", 1), ("b", 1), ("a", 1)),
        TwistWord.of(("b", 1), ("a", 1), ("b", 1)),
    )
    assert not verify_relation(broken)
    # the largest |entry| of lhs - rhs: T_a^2 T_b and T_a T_b^2 differ by one
    assert (matrix_residual(commuting), matrix_residual(broken)) == (0, 1)


@pytest.mark.parametrize("g", range(3, 9))
def test_a_single_twist_against_the_empty_word_has_residual_one(g):
    # T_c - 1 = c (c^T J) has one nonzero entry, +-1: in the last row for
    # c = y_g and in the last column for c = x_g
    for c in basis_curves(g):
        rel = _relation("T_%s = 1" % c.id, (c,), TwistWord.of((c.id, 1)), TwistWord())
        assert matrix_residual(rel) == 1, rel.name


def test_metadata_errors_are_distinct():
    x1, x2 = x_basis(G, 1), x_basis(G, 2)
    rel = _relation(
        "bad-metadata",
        (Curve("a", x1), Curve("b", x2)),
        TwistWord.of(("a", 1), ("b", 1)),
        TwistWord.of(("b", 1), ("a", 1)),
        (("a", "b", 1),),  # declared 1, classes give 0
    )
    with pytest.raises(MetadataError):
        verify_relation(rel)
    with pytest.raises(MetadataError):
        verify_relation(
            _relation(
                "undeclared-curve",
                (Curve("a", x1),),
                TwistWord.of(("a", 1)),
                TwistWord.of(("a", 1)),
                (("a", "zz", 0),),
            )
        )
    # the words are evaluated before the pairings are checked
    with pytest.raises(ValueError, match="unresolved curve id 'zz'"):
        matrix_residual(
            _relation("both", rel.curves, TwistWord.of(("zz", 1)), TwistWord(), rel.intersections)
        )


@pytest.mark.parametrize("g", [3, 4])
def test_builtin_catalog_verifies(g):
    cat = builtin_catalog(g)
    kinds = {}
    for rel in cat:
        assert verify_relation(rel), rel.name
        kinds.setdefault(rel.name.split("-")[0], []).append(rel.name)
    assert len(kinds["commuting"]) >= 2
    assert len(kinds["braid"]) >= 2
    assert len(kinds["chain"]) == 1
    assert len(kinds["lantern"]) == 1
    assert len(kinds["bounding"]) == 2
    assert len(kinds["conjugation"]) == 2


def test_builtin_catalog_genus_guard():
    with pytest.raises(ValueError):
        builtin_catalog(2)


def test_bounding_pair_is_torelli():
    cat = builtin_catalog(G)
    bp = next(r for r in cat if r.name.startswith("bounding"))
    assert word_matrix(bp.lhs, bp.curves) == SymplecticMatrix.identity(2 * G)
    assert is_torelli(bp.lhs, bp.curves)


def test_is_torelli_examples():
    table = _basis_table()
    assert not is_torelli(TwistWord.of(("x1", 1)), table)
    sep = {"s": Curve("s", zero_class(G), separating=True)}
    assert is_torelli(TwistWord.of(("s", 1)), sep)


def test_separating_curve_invariant():
    with pytest.raises(ValueError):
        Curve("bad", x_basis(G, 1), separating=True)


def test_chain_boundary_classes_by_bounded_search():
    cat = builtin_catalog(G)
    chain = next(r for r in cat if r.name.startswith("chain"))
    M = word_matrix(chain.lhs, chain.curves)
    # regression: the frozen boundary classes reproduce the product
    assert word_matrix(chain.rhs, chain.curves) == M
    # re-derive them by bounded search against the matrix oracle
    pair = find_twist_pair(M, 6)
    assert pair is not None
    d, e = pair
    assert norm1(d) <= 6 and norm1(e) <= 6
    assert twist_matrix(d) * twist_matrix(e) == M
    table = chain.table
    assert {d, e} == {table["d"].cls, table["e"].cls}


def test_transvection_class_roundtrip():
    rng = random.Random(203)
    from helpers import rand_class

    for _ in range(100):
        c = rand_class(rng, G, 3)
        got = transvection_class(twist_matrix(c))
        assert got is not None
        assert twist_matrix(got) == twist_matrix(c)
    assert transvection_class(SymplecticMatrix.identity(2 * G)) is None
    # a product of two crossing twists is not a transvection
    M = twist_matrix(x_basis(G, 1)) * twist_matrix(y_basis(G, 1))
    assert transvection_class(M) is None


@pytest.mark.parametrize("dim", [2, 4])
def test_transvection_search_needs_a_genus_3_lattice(dim):
    # [[1, 1], [0, 1]] is a transvection, but of no lattice that classes live on
    M = SymplecticMatrix(
        tuple(tuple(int(i == j or (i, j) == (0, 1)) for j in range(dim)) for i in range(dim))
    )
    for search in (transvection_class, lambda M: find_twist_pair(M, 2)):
        with pytest.raises(ValueError, match="got dimension %d" % dim):
            search(M)


_nonzero_coords = st.lists(st.integers(-4, 4), min_size=2 * G, max_size=2 * G).filter(any)


def _leading_positive(c):
    return c if next(a for a in c.coords if a) > 0 else -c


@settings(max_examples=300, deadline=None)
@given(_nonzero_coords, st.integers(-4, 9))
def test_transvection_class_of_a_twist_power(coords, n):
    # T_c^n = I + n c c^T J is the twist about s c when n = s^2, and no twist otherwise
    c = HomologyClass(coords)
    s = isqrt(n) if n > 0 else 0
    want = s * _leading_positive(c) if n > 0 and s * s == n else None
    assert transvection_class(twist_matrix(c, n)) == want


_row = st.lists(st.integers(-3, 3), min_size=2 * G, max_size=2 * G)
_any_matrix = st.one_of(
    st.lists(_row, min_size=2 * G, max_size=2 * G).map(SymplecticMatrix),
    st.tuples(_nonzero_coords, st.integers(-2, 4), _nonzero_coords, st.integers(-2, 4)).map(
        lambda t: twist_matrix(HomologyClass(t[0]), t[1]) * twist_matrix(HomologyClass(t[2]), t[3])
    ),
)


@settings(max_examples=300, deadline=None)
@given(_any_matrix)
def test_transvection_class_is_sound(M):
    got = transvection_class(M)
    assert got is None or (_leading_positive(got) == got and twist_matrix(got) == M)


def test_conjugation_identity_random():
    rng = random.Random(204)
    table = _basis_table()
    for _ in range(50):
        phi = rand_basis_word(rng, G, 4)
        w = rand_basis_word(rng, G, 4)
        P = word_matrix(phi, table)
        lhs = word_matrix(phi * w * phi.inverse(), table)
        # replace every curve class by its image under phi
        mapped = {}
        for cid, curve in table.items():
            mapped[cid] = Curve(cid, apply(P, curve.cls))
        rhs = word_matrix(w, mapped)
        assert lhs == rhs


def test_boundary_twist_from_lantern_rearrangement():
    # the lantern identity solves for one twist in terms of the other six
    cat = builtin_catalog(G)
    lan = next(r for r in cat if r.name.startswith("lantern"))
    word = TwistWord.of(
        ("a12", 1), ("a13", 1), ("a23", 1), ("a3", -1), ("a2", -1), ("a1", -1)
    )
    assert word_matrix(word, lan.curves) == twist_matrix(lan.table["a0"].cls)


def test_lantern_needs_disjointness():
    # same word shapes with crossing classes must fail
    x1, y1, x2 = x_basis(G, 1), y_basis(G, 1), x_basis(G, 2)
    a0 = x1 + y1 + x2
    rel = _relation(
        "fake-lantern",
        (
            Curve("a0", a0),
            Curve("a1", x1),
            Curve("a2", y1),
            Curve("a3", x2),
            Curve("a12", x1 + y1),
            Curve("a13", x1 + x2),
            Curve("a23", y1 + x2),
        ),
        TwistWord.of(("a0", 1), ("a1", 1), ("a2", 1), ("a3", 1)),
        TwistWord.of(("a12", 1), ("a13", 1), ("a23", 1)),
    )
    assert not verify_relation(rel)
