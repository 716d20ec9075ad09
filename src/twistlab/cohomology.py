"""Cocycles on twist generators, coboundaries, fixed projections, and the
telescoping solver.

A cocycle u into the space of mean-zero Fourier vectors is stored by its
values on a generating set of twists and extended along words by
u(gh) = u(g) + g u(h).  The solver reconstructs, for a cocycle that is
the coboundary of a finitely supported vector f, that vector exactly:
each support point m takes the twist ray along which the norm strictly
increases (choose_increasing_twist), and f_m is the sum of the generator
coefficients up that ray,

    f_m = - sum_{r >= 1} g^eps(t_j^{eps r} m),

where g^+ / g^- are the coefficient tables of the values on the basis
twist and its inverse.  A basis twist moves one coordinate, so each ray
lies on a coordinate line, and the sums are per-line suffix sums of the
finitely many table hits: the work grows with the supports of u and f,
not with the size of their coordinates.
"""

from dataclasses import dataclass
from fractions import Fraction

from .exact import ExactSqrt, GaussianRational
from .fourier import (
    SparseVector,
    decay_constants,
    decay_from_norms,
    inner,
    signed_norm_sq,
    twist,
)
from .lattice import (
    HomologyClass,
    basis_curve_class,
    dual_terms,
    zero_class,
)
from .words import Curve, builtin_catalog, basis_curves


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
        by_class = {}
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
            by_class.setdefault(c.cls, c)
        self.curves = table
        self.by_class = by_class  # class -> first generator carrying it
        self.genus = genus

    @classmethod
    def symplectic_basis(cls, g, extra=()):
        "The 2g basis twists, optionally followed by extra curves."
        return cls(basis_curves(g) + tuple(extra))

    def __iter__(self):
        return iter(self.curves.values())

    def __len__(self):
        return len(self.curves)

    def get(self, cid):
        return self.curves.get(cid)

    def ids(self):
        return tuple(self.curves)

    def find_by_class(self, cls):
        "First generator carrying the given class, or None."
        return self.by_class.get(cls)

    def has_symplectic_basis(self):
        g = self.genus
        return all(basis_curve_class(g, idx) in self.by_class for idx in range(2 * g))


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


def _walk(u, word, gen_of):
    """(sign, vector) per single step of the word, whose signed sum is
    extend(u, word); gen_of maps each letter to its generator.

    A step t at prefix p gives (1, p u(t)), a step t^-1 gives
    (-1, p t^-1 u(t)), as u(t^-1) = -t^-1 u(t).  The prefix is kept as
    its (class, sign) steps and applied innermost step first.
    """
    prefix = []
    for cid, s in word.singles():
        gen = gen_of[cid]
        val = u.value(gen.id)
        if s < 0:
            val = twist(gen.cls, -1, val)
        for cls, t in reversed(prefix):
            val = twist(cls, t, val)
        yield s, val
        prefix.append((gen.cls, s))


def expansion_terms(u, word):
    "Per-letter terms of the word extension; their sum is extend(u, word)."
    for cid, _ in word.letters:
        if u.gens.get(cid) is None:
            raise ValueError("unknown generator id %r" % cid)
    return [val if s > 0 else -val for s, val in _walk(u, word, u.gens.curves)]


def extend(u, word):
    "Value of the cocycle on a word in its generators."
    total = SparseVector.zero(u.genus)
    for t in expansion_terms(u, word):
        total = total + t
    return total


def matches_generators(rel, gens):
    "True iff every relation curve class is carried by some generator."
    return all(c.cls in gens.by_class for c in rel.curves)


def applicable_relations(gens):
    "The builtin relation instances whose curve classes all resolve in gens."
    return [rel for rel in builtin_catalog(gens.genus) if matches_generators(rel, gens)]


def relation_residual(u, rel):
    "Norm of extend(lhs) - extend(rhs); zero for genuine cocycles."
    # each relation curve resolves once, by class, to its first generator
    gen_of = {c.id: u.gens.find_by_class(c.cls) for c in rel.curves}
    for cid, _ in rel.lhs.letters + rel.rhs.letters:
        if cid not in gen_of:
            raise ValueError("relation references unknown curve %r" % cid)
        if gen_of[cid] is None:
            cls = rel.table[cid].cls
            raise ValueError("no generator with class %s for relation curve %r" % (cls, cid))
    terms = list(_walk(u, rel.lhs, gen_of))
    terms += [(-s, val) for s, val in _walk(u, rel.rhs, gen_of)]
    return ExactSqrt(signed_norm_sq(terms))


def max_relation_residual(u, relations):
    worst = ExactSqrt(0)
    for rel in relations:
        r = relation_residual(u, rel)
        if r > worst:
            worst = r
    return worst


def project_fixed(c, v):
    """Projection onto the subspace fixed by the twist about the class c:
    the points m with <c, m> = 0, read off the pairing row (dual_terms)."""
    if c.genus != v.genus:
        raise ValueError("genus mismatch: %d vs %d" % (c.genus, v.genus))
    row = dual_terms(c)
    table = {m: val for m, val in v.items() if not sum(w * m.coords[k] for k, w in row)}
    return SparseVector._of_table(v.genus, table, v.full)


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


def _telescope(values, rows):
    """f_m = -(sum of the hits strictly up the increasing ray of m).

    values[idx] is u on basis curve idx; its points are the hits of the
    twist's table.  rows[idx] is the curve's pairing row, one (dual, w)
    pair: the twist moves coordinate idx by <e_idx, m> = w m[dual] per
    step.  The inverse twist's table u(t^-1) = -t^-1 u(t) is read from the
    same points: each moves one step back along coordinate idx, and its
    coefficient is subtracted instead of added.

    The twist about basis curve idx moves only coordinate idx, by the fixed
    dual coordinate per step, so every ray lies on one coordinate line.
    The hits of each table are grouped by line (index, sign, step, the
    other coordinates, coordinate mod step) and walked inward from the
    outermost one, carrying the sum of the hits already passed as
    unreduced integer ratios; wherever that sum is nonzero, it is reduced
    once and every point of the line that chooses this ray gets -sum.

    Along a line, with s the coordinate measured in the ray direction, the
    points choosing an odd (y-type) index form the half-line s >= 0
    (sign +1) or s >= 1 (sign -1), where the b-coordinate crosses 0; an
    even (x-type) index is chosen, with sign +1, only at s = 0.  Every
    emitted point lies strictly below a hit, so inside the ball of the
    generator supports.

    Returns the stretches as runs (before, after, span, value), at most one
    per hit: value sits at before + (a,) + after for every a in the range span.
    """
    lines = {}
    for idx, (v, (dual, w)) in enumerate(zip(values, rows)):
        handle = idx & ~1  # index of the handle's a-coordinate
        for m, val in v.items():
            coords = m.coords
            step = w * coords[dual]
            # a nonzero coordinate before the handle picks another ray
            if not step or any(coords[:handle]):
                continue
            before, after, a = coords[:idx], coords[idx + 1 :], coords[idx]
            hit = val.ratios()
            # t^-1 moves the point one step back; no point takes an x-type ray with sign -1
            for eps, pos in ((1, a), (-1, a - step)) if idx != handle else ((1, a),):
                key = (idx, eps, eps * step, before, after, pos % abs(step))
                lines.setdefault(key, []).append((pos, hit))

    runs = []
    for (idx, eps, step, before, after, _), hits in lines.items():
        hits.sort(key=lambda hit: hit[0] * step, reverse=True)  # outermost first
        # the running sum of the u(t) coefficients: re = p/q, im = r/t
        p, q, r, t = 0, 1, 0, 1
        for i, (a, (hp, hq, hr, ht)) in enumerate(hits):
            # a - j step is on this sign's half-line for 1 <= j <= last (a / step = s / |step|)
            last = a // step if eps > 0 else -(-a // step) - 1
            if last < 1:
                break
            p, q = (p + hp, q) if q == hq else (p * hq + hp * q, q * hq)
            r, t = (r + hr, t) if t == ht else (r * ht + hr * t, t * ht)
            if not (p or r):
                p, q, r, t = 0, 1, 0, 1
                continue
            re, im = Fraction(p, q), Fraction(r, t)
            p, q = re.as_integer_ratio()
            r, t = im.as_integer_ratio()
            first = 1 if idx % 2 else -(-a // step)  # an x-type ray: s = 0 only
            if i + 1 < len(hits):
                last = min(last, (a - hits[i + 1][0]) // step)  # down to the next hit
            span = range(a - first * step, a - (last + 1) * step, -step)
            # f = -(sum of the table values); the inverse table holds -u(t)
            value = GaussianRational(-re, -im) if eps > 0 else GaussianRational(re, im)
            runs.append((before, after, span, value))
    return runs


def _expand(g, runs):
    "The vector holding each run's value at each of its points."
    of_coords = HomologyClass._of_coords  # the runs' coordinates are ints
    table = {}
    for before, after, span, value in runs:
        for a in span:
            table[of_coords(before + (a,) + after)] = value
    return SparseVector._of_table(g, table, False)


def solve_coboundary(u, relations=None):
    """Reconstruct a finitely supported primitive of the cocycle u.

    Refuses (NonCocycleError) if u has a nonzero residual on the supplied
    relation catalog; by default the catalog is every builtin instance
    whose curve classes all resolve inside u's generators.  The returned
    report carries the exact residual of the reconstruction: it is zero
    iff u is exactly the coboundary of the returned vector.

    The certificate comes first.  Where it is zero, u(c) = f - t_c f for
    every generator c, so extend(u, w) = f - w f on every word w and a
    relation whose two words have equal matrices has residual zero: the
    relations could refuse nothing.  They are evaluated, in catalog order,
    only at the first nonzero certificate term, and the first nonzero one
    is refused, as if they had been checked first.  The exception is an
    input whose telescope would emit more points than u's values hold
    together: then the relations are checked before f is expanded, so the
    cost of refusing a non-cocycle does not grow with its coordinates.

    A caller-supplied relations list must therefore hold in Sp(2g, Z)
    (verify_relation) and resolve in u's generators; it may be evaluated
    only in part, or not at all.  relations=[] disables refusal.
    """
    g = u.genus
    basis = [u.gens.find_by_class(basis_curve_class(g, idx)) for idx in range(2 * g)]
    if not all(basis):
        raise ValueError("solver needs all 2g basis twists among the generators")
    values = [u.value(gen.id) for gen in basis]
    rows = [dual_terms(gen.cls)[0] for gen in basis]

    def refuse_non_cocycle():
        for rel in applicable_relations(u.gens) if relations is None else relations:
            r = relation_residual(u, rel)
            if r:
                raise NonCocycleError(
                    "nonzero residual %s on relation %r" % (r, rel.name)
                )

    runs = _telescope(values, rows)
    checked = False  # whether the relations have run
    if sum(len(span) for _, _, span, _ in runs) > sum(len(v) for v in u.values.values()):
        refuse_non_cocycle()
        checked = True
    f = _expand(g, runs)

    residual_sq = 0
    for curve in u.gens:
        # the t^-1 side f - t^-1 f + t^-1 u(c) is -t^-1 (f - t f - u(c)), a
        # relabelling of this one, so it has the same norm
        terms = ((1, f), (-1, twist(curve.cls, 1, f)), (-1, u.value(curve.id)))
        term = signed_norm_sq(terms)
        if term and not checked:
            refuse_non_cocycle()
            checked = True
        residual_sq = max(residual_sq, term)

    # G reads the 4g basis twist values: u(t) and u(t^-1) = -t^-1 u(t) carry the
    # same coefficient at p and t^-1 p, so p counts once, at the larger norm
    def g_points():
        for idx, (v, (dual, w)) in enumerate(zip(values, rows)):
            for m, val in v.items():
                coords = m.coords
                n, a = sum(map(abs, coords)), coords[idx]
                yield max(n, n - abs(a) + abs(a - w * coords[dual])), val

    orders = range(2, 6)
    decay = zip(
        orders,
        decay_constants((f,), orders),
        decay_from_norms(g_points(), [k + 1 for k in orders]),
    )
    return SolveReport(f=f, residual=ExactSqrt(residual_sq), decay=tuple(decay))


def smoothness_report(report, kmax=5):
    """Check |f_m| <= G_{k+1} / (k norm1(m)^k) on the reconstructed support.

    With F_k = max_m norm1(m)^k |f_m|, the bound holds at every point iff
    k F_k <= G_{k+1}, so each k in 2..kmax is decided by one exact
    comparison of squares, k^2 F_k^2 <= G_{k+1}^2.  F is recomputed from f
    by decay_constants, never read from the report, so a saved report
    whose F column was edited decides the same as the f it holds.
    G_{k+1}, the largest decay constant of the 4g basis twist values at
    order k+1, is read from the report's decay table; a k in 2..kmax that
    the table lacks raises ValueError.  Only a failing k walks the
    support, in order, for its witnesses.

    For the telescope's f the bound always holds (k F_k <= G_{k+1} at
    every k >= 1).  Proof: f_m is minus the sum of the hits strictly up
    the increasing ray of m, and the j-th of them lies at norm at least
    N + j, N = norm1(m) >= 1, as the norm grows by at least 1 per step.
    G counts each hit at max(n, n^-), at least the norm of the hit's
    position, so |hit_j| <= G_{k+1} / (N + j)^(k+1), and summing over j,
    |f_m| <= G_{k+1} int_N^oo x^(-k-1) dx = G_{k+1} / (k N^k).  The
    verdict never rests on this: the comparison is exact either way.
    """
    if report.residual:
        raise ValueError("smoothness check needs an exact reconstruction")
    g_table = {k: gk for k, _, gk in report.decay}
    f = report.f
    orders = range(2, kmax + 1)
    out = []
    for k, fk in zip(orders, decay_constants((f,), orders)):
        if k not in g_table:
            raise ValueError("the report's decay table has no G_%d" % (k + 1))
        g_sq = g_table[k].square
        witnesses = []
        if k * k * fk.square > g_sq:
            for m in f.support:
                abs2 = f.coeffs[m].abs2()
                weight = k * k * sum(map(abs, m.coords)) ** (2 * k)
                if weight * abs2 > g_sq:
                    witnesses.append((m, abs2, g_sq / weight))
        out.append(SmoothnessCheck(k=k, passed=not witnesses, witnesses=tuple(witnesses)))
    return out
