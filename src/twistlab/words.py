"""Twist words, their evaluation as symplectic matrices, and a catalog of
the standard relations: commuting, braid, chain, lantern, bounding pair,
and conjugation.

Relations are verified in the symplectic representation by exact integer
matrix equality.
"""

from dataclasses import dataclass
from itertools import combinations
from math import isqrt

from .lattice import (
    MIN_GENUS,
    HomologyClass,
    SymplecticMatrix,
    basis_curve_class,
    basis_curve_name,
    intersection,
    iter_classes,
    norm1,
    transvect,
    transvection_matrix,
    twist_matrix,
    x_basis,
    y_basis,
)


@dataclass(frozen=True)
class Curve:
    """A simple closed curve known only by its homology class."""

    id: str
    cls: HomologyClass
    separating: bool = False

    def __post_init__(self):
        if self.separating and self.cls:
            raise ValueError("a separating curve is null-homologous")


@dataclass(frozen=True)
class TwistWord:
    "Sequence of (curve id, nonzero exponent) letters, composed left to right."

    letters: tuple = ()

    def __post_init__(self):
        letters = tuple((c, e) for c, e in self.letters)
        for c, e in letters:
            if type(c) is not str:
                raise TypeError("curve id of letter %r must be a string" % ((c, e),))
            # type(), not isinstance(): a bool is an int subclass
            if type(e) is not int:
                raise TypeError("exponent of %r must be an integer, got %r" % (c, e))
            if e == 0:
                raise ValueError("zero exponent in twist word")
        object.__setattr__(self, "letters", letters)

    @classmethod
    def of(cls, *letters):
        return cls(tuple(letters))

    def inverse(self):
        return TwistWord(tuple((c, -e) for c, e in reversed(self.letters)))

    def __mul__(self, other):
        if not isinstance(other, TwistWord):
            return NotImplemented
        return TwistWord(self.letters + other.letters)

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        return TwistWord(self.letters * n)

    def __len__(self):
        return len(self.letters)

    def singles(self):
        "Expand exponents into a stream of (curve id, +-1) steps."
        for c, e in self.letters:
            s = 1 if e > 0 else -1
            for _ in range(abs(e)):
                yield c, s


class MetadataError(Exception):
    "Declared curve data contradicts the computed intersection pairing."


@dataclass(frozen=True)
class RelationInstance:
    name: str
    curves: tuple
    lhs: TwistWord
    rhs: TwistWord
    # declared pairings: tuples (id, id, intersection number)
    intersections: tuple = ()

    @property
    def table(self):
        return {c.id: c for c in self.curves}


def word_matrix(word, curves):
    """Product of the twist matrices of the word's letters, in word order,
    by transvection_matrix.  A letter whose class has another genus than
    the table's first curve raises ValueError ("genus mismatch").
    """
    table = curves if isinstance(curves, dict) else {c.id: c for c in curves}
    if not table:
        raise ValueError("empty curve table")
    try:
        steps = [(table[cid].cls, e) for cid, e in word.letters]
    except KeyError as exc:
        raise ValueError("unresolved curve id %r" % exc.args[0]) from None
    return transvection_matrix(steps, next(iter(table.values())).cls.genus)


def check_metadata(rel):
    "Raise MetadataError if a declared pairing disagrees with the classes."
    table = rel.table
    for ida, idb, declared in rel.intersections:
        if ida not in table or idb not in table:
            raise MetadataError("%s: undeclared curve in pairing (%s, %s)" % (rel.name, ida, idb))
        got = intersection(table[ida].cls, table[idb].cls)
        if got != declared:
            raise MetadataError(
                "%s: declared i(%s, %s) = %d but classes give %d"
                % (rel.name, ida, idb, declared, got)
            )


def matrix_residual(rel):
    """Largest |entry| of the difference of the two sides' matrices; 0 iff the relation holds.

    Both words are evaluated first; then a declared pairing that disagrees
    with the classes raises MetadataError.
    """
    lhs = word_matrix(rel.lhs, rel.curves)
    rhs = word_matrix(rel.rhs, rel.curves)
    check_metadata(rel)
    return max(
        (abs(a - b) for ra, rb in zip(lhs.rows, rhs.rows) for a, b in zip(ra, rb)), default=0
    )


def verify_relation(rel):
    """True iff both sides evaluate to the same symplectic matrix.

    Metadata inconsistencies raise MetadataError instead of returning False.
    """
    return not matrix_residual(rel)


def is_torelli(word, curves):
    "True iff the word acts trivially on homology (symplectic-level test)."
    M = word_matrix(word, curves)
    return M == SymplecticMatrix.identity(M.dim)


def _check_lattice_dim(M):
    "M must act on a genus-g lattice with g >= MIN_GENUS, where classes live."
    if M.dim < 2 * MIN_GENUS:
        raise ValueError(
            "need a 2g x 2g matrix with g >= %d, got dimension %d" % (MIN_GENUS, M.dim)
        )


def transvection_class(M):
    """The class c with M = I + c (c^T J), or None if M is no transvection.

    M must be 2g x 2g with g >= MIN_GENUS, as classes are; a smaller
    matrix raises ValueError naming its dimension.

    The rank-one factor C = (M - I) J^T is then c c^T: its first nonzero
    diagonal entry is c_i^2 and its row i is c_i c.  c is only determined
    up to sign; the returned representative has a positive leading
    coordinate.
    """
    _check_lattice_dim(M)
    rows = M.rows

    def entry(i, j):
        "C[i][j]: J^T takes column j ^ 1 of M - I, negated where j is odd."
        return (rows[i][j ^ 1] - (i == j ^ 1)) * (-1) ** j

    i = next((i for i in range(M.dim) if entry(i, i)), None)
    if i is None:
        return None  # a zero diagonal makes c = 0: M is the identity or no transvection
    square = entry(i, i)
    ci = isqrt(square) if square > 0 else 0
    row = [entry(i, j) for j in range(M.dim)]
    if ci * ci != square or any(a % ci for a in row):
        return None
    cand = HomologyClass([a // ci for a in row])
    return cand if twist_matrix(cand) == M else None


def find_twist_pair(M, max_norm):
    """Bounded search for classes (d, e) with T_d T_e = M, norm1 <= max_norm.

    Returns the first pair found in enumeration order, or None.  M must be
    2g x 2g with g >= MIN_GENUS, as for transvection_class.
    """
    _check_lattice_dim(M)
    g = M.dim // 2
    identity = SymplecticMatrix.identity(M.dim)
    for d in iter_classes(g, max_norm):
        first = next((a for a in d.coords if a), None)
        if first is None or first < 0:
            continue  # skip zero and sign duplicates
        rest = twist_matrix(d, -1) * M
        if rest == identity:
            continue  # e would be the zero class
        e = transvection_class(rest)
        if e is not None and norm1(e) <= max_norm:
            return d, e
    return None


def builtin_catalog(g):
    """Standard relation instances over the genus-g lattice.

    Contains commuting, braid, chain, lantern, bounding-pair and
    conjugation instances; every one verifies exactly.  Each row gives a
    name, the curve classes by id in curve order, the two words as
    letters, and the declared pairings, which check_metadata checks
    against the classes.
    """
    if g < 3:
        raise ValueError("genus must be at least 3")
    x1, y1 = x_basis(g, 1), y_basis(g, 1)
    x2, y2 = x_basis(g, 2), y_basis(g, 2)
    x3 = x_basis(g, 3)

    def rel(name, classes, lhs, rhs, pairings):
        curves = tuple(Curve(cid, cls) for cid, cls in classes.items())
        return RelationInstance(name, curves, TwistWord(lhs), TwistWord(rhs), pairings)

    ab, ba = (("a", 1), ("b", 1)), (("b", 1), ("a", 1))
    aba, bab = ab + (("a", 1),), ba + (("b", 1),)
    c1c2 = (("c1", 1), ("c2", -1))
    conjugate = (("phi", 1), ("alpha", 1), ("phi", -1)), (("phi_alpha", 1),)
    # Lantern with mutually disjoint classes and a0 = a1 + a2 + a3.
    lantern = dict(a0=x1 + x2 + x3, a1=x1, a2=x2, a3=x3, a12=x1 + x2, a13=x1 + x3, a23=x2 + x3)
    return [
        rel("commuting-x1-x2", dict(a=x1, b=x2), ab, ba, (("a", "b", 0),)),
        rel("commuting-x1-y2", dict(a=x1, b=y2), ab, ba, (("a", "b", 0),)),
        rel("braid-x1-y1", dict(a=x1, b=y1), aba, bab, (("a", "b", 1),)),
        rel("braid-x2-y2", dict(a=x2, b=y2), aba, bab, (("a", "b", 1),)),
        # Chain on (x1, y1, x1+x2).  The boundary classes d = e = x2 were
        # derived once by find_twist_pair against (T_a T_b T_c)^4 and are
        # frozen here as regression data.
        rel(
            "chain-x1-y1-x1+x2",
            dict(a=x1, b=y1, c=x1 + x2, d=x2, e=x2),
            (("a", 1), ("b", 1), ("c", 1)) * 4,
            (("d", 1), ("e", 1)),
            (("a", "b", 1), ("b", "c", -1), ("a", "c", 0), ("d", "e", 0), ("a", "d", 0)),
        ),
        rel(
            "lantern-x1-x2-x3",
            lantern,
            (("a0", 1), ("a1", 1), ("a2", 1), ("a3", 1)),
            (("a12", 1), ("a13", 1), ("a23", 1)),
            tuple((a, b, 0) for a, b in combinations(lantern, 2)),
        ),
        rel("bounding-pair-x1", dict(c1=x1, c2=x1), c1c2, (), (("c1", "c2", 0),)),
        rel("bounding-pair-y2", dict(c1=y2, c2=y2), c1c2, (), (("c1", "c2", 0),)),
        rel(
            "conjugation-x1-y1",
            dict(phi=x1, alpha=y1, phi_alpha=transvect(x1, 1, y1)),
            *conjugate,
            (("phi", "alpha", 1),),
        ),
        rel(
            "conjugation-y2-x2",
            dict(phi=y2, alpha=x2, phi_alpha=transvect(y2, 1, x2)),
            *conjugate,
            (("phi", "alpha", -1),),
        ),
    ]


def basis_curves(g):
    "The 2g basis curves as a curve table (x1, y1, ..., xg, yg)."
    return tuple(Curve(basis_curve_name(i), basis_curve_class(g, i)) for i in range(2 * g))
