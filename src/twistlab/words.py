"""Twist words, their evaluation as symplectic matrices, and a catalog of
the standard relations: commuting, braid, chain, lantern, bounding pair,
and conjugation.

Relations are verified in the symplectic representation by exact integer
matrix equality.
"""

from dataclasses import dataclass
from math import gcd, isqrt

from .lattice import (
    HomologyClass,
    SymplecticMatrix,
    basis_curve_name,
    intersection,
    iter_classes,
    norm1,
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
        letters = tuple((str(c), int(e)) for c, e in self.letters)
        for _, e in letters:
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


def _as_table(curves):
    "A curve table by id, from a dict or an iterable of curves."
    if isinstance(curves, dict):
        return curves
    return {c.id: c for c in curves}


def word_matrix(word, curves):
    "Product of the twist matrices of the word's letters, in word order."
    table = _as_table(curves)
    if not table:
        raise ValueError("empty curve table")
    dim = 2 * next(iter(table.values())).cls.genus
    M = SymplecticMatrix.identity(dim)
    for cid, e in word.letters:
        if cid not in table:
            raise ValueError("unresolved curve id %r" % cid)
        M = M * twist_matrix(table[cid].cls, e)
    return M


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


def verify_relation(rel):
    """True iff both sides evaluate to the same symplectic matrix.

    Metadata inconsistencies raise MetadataError instead of returning False.
    """
    check_metadata(rel)
    return word_matrix(rel.lhs, rel.curves) == word_matrix(rel.rhs, rel.curves)


def is_torelli(word, curves):
    "True iff the word acts trivially on homology (symplectic-level test)."
    table = _as_table(curves)
    if not table:
        raise ValueError("empty curve table")
    dim = 2 * next(iter(table.values())).cls.genus
    return word_matrix(word, table) == SymplecticMatrix.identity(dim)


def transvection_class(M):
    """The class c with M = I + c (c^T J), or None if M is no transvection.

    c is only determined up to sign; the returned representative has a
    positive leading coordinate.
    """
    dim = M.dim
    B = [[M.rows[i][j] - (1 if i == j else 0) for j in range(dim)] for i in range(dim)]
    if all(all(a == 0 for a in row) for row in B):
        return None  # identity: the zero class, not a genuine transvection
    col = None
    for q in range(dim):
        column = [B[i][q] for i in range(dim)]
        if any(column):
            col = column
            break
    g0 = 0
    for a in col:
        g0 = gcd(g0, abs(a))
    prim = [a // g0 for a in col]
    if next(a for a in prim if a) < 0:
        prim = [-a for a in prim]
    # B = (s*prim)(s*prim)^T J for some positive integer s; read s^2 off
    # a nonzero entry of B against the corresponding entry of
    # twist_matrix(prim) - I = prim prim^T J.
    ref_rows = twist_matrix(HomologyClass(prim)).rows
    for i in range(dim):
        for j in range(dim):
            ref = ref_rows[i][j] - (1 if i == j else 0)
            if ref:
                if B[i][j] % ref:
                    return None
                s2 = B[i][j] // ref
                if s2 <= 0:
                    return None
                s = isqrt(s2)
                if s * s != s2:
                    return None
                cand = HomologyClass([s * a for a in prim])
                return cand if twist_matrix(cand) == M else None
    return None


def find_twist_pair(M, max_norm):
    """Bounded search for classes (d, e) with T_d T_e = M, norm1 <= max_norm.

    Returns the first pair found in enumeration order, or None.
    """
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


def _pairs(ids):
    out = []
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            out.append((a, b))
    return out


def builtin_catalog(g):
    """Standard relation instances over the genus-g lattice.

    Contains commuting, braid, chain, lantern, bounding-pair and
    conjugation instances; every one verifies exactly.
    """
    if g < 3:
        raise ValueError("genus must be at least 3")
    x1, y1 = x_basis(g, 1), y_basis(g, 1)
    x2, y2 = x_basis(g, 2), y_basis(g, 2)
    x3 = x_basis(g, 3)
    out = []

    def commuting(name, ca, cb):
        curves = (Curve("a", ca), Curve("b", cb))
        out.append(
            RelationInstance(
                name=name,
                curves=curves,
                lhs=TwistWord.of(("a", 1), ("b", 1)),
                rhs=TwistWord.of(("b", 1), ("a", 1)),
                intersections=(("a", "b", 0),),
            )
        )

    commuting("commuting-x1-x2", x1, x2)
    commuting("commuting-x1-y2", x1, y2)

    def braid(name, ca, cb):
        curves = (Curve("a", ca), Curve("b", cb))
        out.append(
            RelationInstance(
                name=name,
                curves=curves,
                lhs=TwistWord.of(("a", 1), ("b", 1), ("a", 1)),
                rhs=TwistWord.of(("b", 1), ("a", 1), ("b", 1)),
                intersections=(("a", "b", intersection(ca, cb)),),
            )
        )

    braid("braid-x1-y1", x1, y1)
    braid("braid-x2-y2", x2, y2)

    # Chain on (x1, y1, x1+x2).  The boundary classes d = e = x2 were
    # derived once by find_twist_pair against (T_a T_b T_c)^4 and are
    # frozen here as regression data.
    chain_curves = (
        Curve("a", x1),
        Curve("b", y1),
        Curve("c", x1 + x2),
        Curve("d", x2),
        Curve("e", x2),
    )
    abc = TwistWord.of(("a", 1), ("b", 1), ("c", 1))
    out.append(
        RelationInstance(
            name="chain-x1-y1-x1+x2",
            curves=chain_curves,
            lhs=abc ** 4,
            rhs=TwistWord.of(("d", 1), ("e", 1)),
            intersections=(
                ("a", "b", 1),
                ("b", "c", -1),
                ("a", "c", 0),
                ("d", "e", 0),
                ("a", "d", 0),
            ),
        )
    )

    # Lantern with mutually disjoint classes and a0 = a1 + a2 + a3.
    lantern_curves = (
        Curve("a0", x1 + x2 + x3),
        Curve("a1", x1),
        Curve("a2", x2),
        Curve("a3", x3),
        Curve("a12", x1 + x2),
        Curve("a13", x1 + x3),
        Curve("a23", x2 + x3),
    )
    lantern_ids = tuple(c.id for c in lantern_curves)
    out.append(
        RelationInstance(
            name="lantern-x1-x2-x3",
            curves=lantern_curves,
            lhs=TwistWord.of(("a0", 1), ("a1", 1), ("a2", 1), ("a3", 1)),
            rhs=TwistWord.of(("a12", 1), ("a13", 1), ("a23", 1)),
            intersections=tuple((a, b, 0) for a, b in _pairs(lantern_ids)),
        )
    )

    def bounding_pair(name, cls):
        curves = (Curve("c1", cls), Curve("c2", cls))
        out.append(
            RelationInstance(
                name=name,
                curves=curves,
                lhs=TwistWord.of(("c1", 1), ("c2", -1)),
                rhs=TwistWord(),
                intersections=(("c1", "c2", 0),),
            )
        )

    bounding_pair("bounding-pair-x1", x1)
    bounding_pair("bounding-pair-y2", y2)

    def conjugation(name, phi_cls, alpha_cls):
        image = twist_matrix(phi_cls).apply(alpha_cls)
        curves = (
            Curve("phi", phi_cls),
            Curve("alpha", alpha_cls),
            Curve("phi_alpha", image),
        )
        out.append(
            RelationInstance(
                name=name,
                curves=curves,
                lhs=TwistWord.of(("phi", 1), ("alpha", 1), ("phi", -1)),
                rhs=TwistWord.of(("phi_alpha", 1)),
                intersections=(("phi", "alpha", intersection(phi_cls, alpha_cls)),),
            )
        )

    conjugation("conjugation-x1-y1", x1, y1)
    conjugation("conjugation-y2-x2", y2, x2)

    return out


def basis_curves(g):
    "The 2g basis curves as a curve table (x1, y1, ..., xg, yg)."
    out = []
    for idx in range(2 * g):
        j = idx // 2 + 1
        cls = x_basis(g, j) if idx % 2 == 0 else y_basis(g, j)
        out.append(Curve(basis_curve_name(idx), cls))
    return tuple(out)
