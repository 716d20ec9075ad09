"""Cocycles on twist generators, coboundaries, fixed projections, and the
telescoping solver.

A cocycle u into the space of mean-zero Fourier vectors is stored by its
values on a generating set of twists and extended along words by
u(gh) = u(g) + g u(h).  The solver reconstructs, for a cocycle that is
the coboundary of a finitely supported vector f, that vector exactly:
for each candidate support point m it picks a twist ray along which the
norm strictly increases and sums the generator coefficients down the ray,

    f_m = - sum_{r >= 1} g^eps(t_j^{eps r} m),

where g^+ / g^- are the coefficient tables of the values on the basis
twist and its inverse.  The sums are finite because the values are
finitely supported and the ray norms strictly increase.
"""

from dataclasses import dataclass

from .exact import ExactSqrt, GaussianRational
from .fourier import SparseVector, decay_constants, inner, twist
from .lattice import (
    HomologyClass,
    basis_curve_class,
    choose_increasing_twist,
    intersection,
    norm1,
    zero_class,
)
from .words import Curve, TwistWord, builtin_catalog, basis_curves


class NonCocycleError(ValueError):
    "Input failed a relation-residual check and was refused."


class GeneratorSet:
    "Table of non-separating curves intended as a twist generating set."

    def __init__(self, curves):
        curves = tuple(curves)
        if not curves:
            raise ValueError("generator set cannot be empty")
        genus = curves[0].cls.genus
        table = {}
        for c in curves:
            if not isinstance(c, Curve):
                raise TypeError("generators must be Curve values")
            if c.cls.genus != genus:
                raise ValueError("generator classes must share a genus")
            if not c.cls:
                raise ValueError("generator %r has the zero class" % c.id)
            if c.id in table:
                raise ValueError("duplicate generator id %r" % c.id)
            table[c.id] = c
        self.curves = table
        self.genus = genus

    @classmethod
    def symplectic_basis(cls, g, extra=()):
        "The 2g basis twists, optionally followed by extra curves."
        return cls(basis_curves(g) + tuple(extra))

    def __iter__(self):
        return iter(self.curves.values())

    def __len__(self):
        return len(self.curves)

    def __contains__(self, cid):
        return cid in self.curves

    def get(self, cid):
        return self.curves.get(cid)

    def ids(self):
        return tuple(self.curves)

    def find_by_class(self, cls):
        "First generator carrying the given class, or None."
        for c in self.curves.values():
            if c.cls == cls:
                return c
        return None

    def has_symplectic_basis(self):
        g = self.genus
        return all(
            self.find_by_class(basis_curve_class(g, idx)) is not None
            for idx in range(2 * g)
        )


class Cocycle:
    "Cocycle given by one mean-zero value per generator."

    def __init__(self, gens, values):
        if not isinstance(gens, GeneratorSet):
            gens = GeneratorSet(gens)
        values = dict(values)
        if set(values) != set(gens.ids()):
            raise ValueError("values must cover exactly the generator ids")
        z = zero_class(gens.genus)
        for cid, v in values.items():
            if not isinstance(v, SparseVector):
                raise TypeError("value of %r must be a SparseVector" % cid)
            if v.genus != gens.genus:
                raise ValueError("value of %r has the wrong genus" % cid)
            if v.coefficient(z):
                raise ValueError("value of %r is not mean-zero" % cid)
        self.gens = gens
        self.values = values

    @property
    def genus(self):
        return self.gens.genus

    def value(self, cid):
        if cid not in self.values:
            raise ValueError("unknown generator id %r" % cid)
        return self.values[cid]


def coboundary(v, gens):
    "The cocycle c -> v - t_c v of a mean-zero vector v."
    if not isinstance(gens, GeneratorSet):
        gens = GeneratorSet(gens)
    if v.genus != gens.genus:
        raise ValueError("genus mismatch")
    if v.coefficient(zero_class(v.genus)):
        raise ValueError("primitive must be mean-zero")
    values = {c.id: v - twist(c.cls, 1, v) for c in gens}
    return Cocycle(gens, values)


def expansion_terms(u, word):
    """Per-letter terms of the word extension; their sum is extend(u, word).

    The term for a letter at prefix p is p u(letter), with inverse letters
    expanded through u(t^-1) = -t^-1 u(t).  The prefix is kept as its
    (class, sign) steps and applied innermost step first.
    """
    prefix = []
    terms = []
    for cid, s in word.singles():
        curve = u.gens.get(cid)
        if curve is None:
            raise ValueError("unknown generator id %r" % cid)
        val = u.value(cid) if s > 0 else -twist(curve.cls, -1, u.value(cid))
        for cls, t in reversed(prefix):
            val = twist(cls, t, val)
        terms.append(val)
        prefix.append((curve.cls, s))
    return terms


def extend(u, word):
    "Value of the cocycle on a word in its generators."
    total = SparseVector.zero(u.genus)
    for t in expansion_terms(u, word):
        total = total + t
    return total


def _translate_word(word, rel_table, gens):
    letters = []
    for cid, e in word.letters:
        if cid not in rel_table:
            raise ValueError("relation references unknown curve %r" % cid)
        gen = gens.find_by_class(rel_table[cid].cls)
        if gen is None:
            raise ValueError(
                "no generator with class %s for relation curve %r"
                % (rel_table[cid].cls, cid)
            )
        letters.append((gen.id, e))
    return TwistWord(tuple(letters))


def matches_generators(rel, gens):
    "True iff every relation curve class is carried by some generator."
    return all(gens.find_by_class(c.cls) is not None for c in rel.curves)


def relation_residual(u, rel):
    "Norm of extend(lhs) - extend(rhs); zero for genuine cocycles."
    table = rel.table
    lhs = extend(u, _translate_word(rel.lhs, table, u.gens))
    rhs = extend(u, _translate_word(rel.rhs, table, u.gens))
    return (lhs - rhs).norm()


def max_relation_residual(u, relations):
    worst = ExactSqrt(0)
    for rel in relations:
        r = relation_residual(u, rel)
        if r > worst:
            worst = r
    return worst


def project_fixed(c, v):
    "Projection onto the subspace fixed by the twist about the class c."
    out = SparseVector.zero(v.genus, full=v.full)
    out.coeffs = {m: val for m, val in v.coeffs.items() if intersection(c, m) == 0}
    return out


def s_vector(u, curve, word=None):
    """Projection of the curve's cocycle value onto its twist-fixed subspace.

    For a curve outside the generator set, a word expressing its twist in
    the generators must be supplied.
    """
    gen = u.gens.get(curve.id)
    if gen is not None:
        if gen.cls != curve.cls:
            raise ValueError("curve %r disagrees with the generator table" % curve.id)
        val = u.value(curve.id)
    elif word is not None:
        val = extend(u, word)
    else:
        raise ValueError("unknown curve %r and no expressing word given" % curve.id)
    return project_fixed(curve.cls, val)


def c_pairing(u, a, b):
    """Inner product of the two projected values for a jointly
    non-separating pair of curves."""
    if a.id == b.id:
        raise ValueError("(a, a) is not a jointly non-separating pair")
    if not a.cls or not b.cls:
        raise ValueError("both curves must be non-separating")
    if a.cls == b.cls or a.cls == -b.cls:
        raise ValueError("homologous curves bound; the pair separates")
    return inner(s_vector(u, a), s_vector(u, b))


def _basis_twist_values(u):
    "Per interleaved basis index: (class, value of twist, value of inverse)."
    g = u.genus
    out = []
    for idx in range(2 * g):
        cls = basis_curve_class(g, idx)
        gen = u.gens.find_by_class(cls)
        if gen is None:
            raise ValueError("generators must include all 2g basis curves")
        vp = u.value(gen.id)
        vm = -twist(cls, -1, vp)
        out.append((cls, vp, vm))
    return out


@dataclass
class SolveReport:
    f: SparseVector
    residual: ExactSqrt
    decay: tuple  # triples (k, F_k of f, G_{k+1} of the input values)


@dataclass
class SmoothnessCheck:
    k: int
    passed: bool
    # failing support points as (class, |f_m|^2, allowed bound squared)
    witnesses: tuple = ()


def _raw_table(v):
    return {m.coords: val for m, val in v.items()}


def _basis_step(idx, coords):
    # pairing of basis curve idx with the point; the twist about that
    # curve shifts coordinate idx by this amount per application
    dual = coords[idx ^ 1]
    return dual if idx % 2 == 0 else -dual


def solve_coboundary(u, relations=None):
    """Reconstruct a finitely supported primitive of the cocycle u.

    Refuses (NonCocycleError) if u has a nonzero residual on the supplied
    relation catalog; by default the catalog is every builtin instance
    whose curve classes all resolve inside u's generators.  The returned
    report carries the exact residual of the reconstruction: it is zero
    iff u is exactly the coboundary of the returned vector.
    """
    if not u.gens.has_symplectic_basis():
        raise ValueError("solver needs all 2g basis twists among the generators")
    g = u.genus
    if relations is None:
        relations = [r for r in builtin_catalog(g) if matches_generators(r, u.gens)]
    for rel in relations:
        r = relation_residual(u, rel)
        if r:
            raise NonCocycleError(
                "nonzero residual %s on relation %r" % (r, rel.name)
            )

    tables = _basis_twist_values(u)
    plus_raw = [_raw_table(vp) for _, vp, _ in tables]
    minus_raw = [_raw_table(vm) for _, _, vm in tables]

    n_max = 0
    for raw in plus_raw + minus_raw:
        for coords in raw:
            n_max = max(n_max, sum(abs(a) for a in coords))

    # Candidate support: every point of the generator-value supports is
    # pulled back along its own twist ray while the pullback can still
    # re-enter the open ball of radius n_max; any primitive's support is
    # contained in this set because its value at m is a sum of generator
    # coefficients strictly up the ray from m.
    candidates = set()
    for idx in range(2 * g):
        for raw in (plus_raw[idx], minus_raw[idx]):
            for coords in raw:
                nrm = sum(abs(a) for a in coords)
                if 0 < nrm < n_max:
                    candidates.add(coords)
        for coords in plus_raw[idx]:
            step = _basis_step(idx, coords)
            if step == 0:
                continue
            rest = sum(abs(a) for a in coords) - abs(coords[idx])
            prev = rest + abs(coords[idx])
            val = coords[idx]
            while True:
                val -= step
                nrm = rest + abs(val)
                if 0 < nrm < n_max:
                    candidates.add(coords[:idx] + (val,) + coords[idx + 1 :])
                if nrm >= n_max and nrm >= prev:
                    break
                prev = nrm

    f_raw = {}
    zero = GaussianRational(0)
    for coords in candidates:
        idx, eps = choose_increasing_twist(HomologyClass(coords))
        step = eps * _basis_step(idx, coords)
        raw = plus_raw[idx] if eps > 0 else minus_raw[idx]
        rest = sum(abs(a) for a in coords) - abs(coords[idx])
        total = zero
        val = coords[idx]
        while True:
            val += step
            if rest + abs(val) > n_max:
                break
            hit = raw.get(coords[:idx] + (val,) + coords[idx + 1 :])
            if hit is not None:
                total = total + hit
        if total:
            f_raw[coords] = -total

    f = SparseVector.zero(g)
    f.coeffs = {HomologyClass(coords): val for coords, val in f_raw.items()}

    residual_sq = 0
    for curve in u.gens:
        vp = u.value(curve.id)
        for sign in (1, -1):
            want = vp if sign > 0 else -twist(curve.cls, -1, vp)
            diff = (f - twist(curve.cls, sign, f)) - want
            residual_sq = max(residual_sq, diff.norm_sq())

    orders = range(2, 6)
    values = [v for _, vp, vm in tables for v in (vp, vm)]
    decay = zip(
        orders,
        decay_constants((f,), orders),
        decay_constants(values, [k + 1 for k in orders]),
    )
    return SolveReport(f=f, residual=ExactSqrt(residual_sq), decay=tuple(decay))


def smoothness_report(report, kmax=5):
    """Check |f_m| <= G_{k+1} / (k norm1(m)^k) on the reconstructed support.

    G_{k+1}, the largest decay constant of the 4g basis twist values at
    order k+1, is read from the report's decay table; a k in 2..kmax that
    the table lacks raises ValueError.  Witnesses come in support order.
    All comparisons are exact (done on squares).
    """
    if report.residual:
        raise ValueError("smoothness check needs an exact reconstruction")
    g_table = {k: gk for k, _, gk in report.decay}
    f_points = [(m, norm1(m), report.f.coefficient(m).abs2()) for m in report.f.support]
    out = []
    for k in range(2, kmax + 1):
        if k not in g_table:
            raise ValueError("the report's decay table has no G_%d" % (k + 1))
        g_sq = g_table[k].square
        witnesses = []
        for m, n, a2 in f_points:
            lhs_sq = k * k * n ** (2 * k) * a2
            if lhs_sq > g_sq:
                witnesses.append((m, a2, g_sq / (k * k * n ** (2 * k))))
        out.append(SmoothnessCheck(k=k, passed=not witnesses, witnesses=tuple(witnesses)))
    return out
