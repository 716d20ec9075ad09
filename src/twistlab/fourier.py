"""Finitely supported Fourier vectors on the character torus.

A lattice class m corresponds to the monomial z1^a1 w1^b1 ... zg^ag wg^bg
on the 2g-torus; those monomials are an orthonormal basis, and symplectic
matrices act by permuting them.  Coefficients are exact rational complex
numbers; evaluation at torus points is the only floating-point path.
"""

import cmath
from fractions import Fraction
from itertools import chain

from .exact import ExactSqrt, GaussianRational, abs2_ratio
from .lattice import HomologyClass, dual_terms


class AliasingError(ValueError):
    "Grid too coarse for the support of the vector."


class SparseVector:
    """Finitely supported map from lattice classes to exact complex numbers.

    By default lives in the mean-zero subspace: the zero class may not
    carry a coefficient unless the vector is constructed with full=True.

    The constructor takes (HomologyClass, value) pairs, and items(),
    support and coefficient() speak in classes.  Inside, coeffs keys each
    coefficient by the coordinate tuple of its class, and the package
    walks that table directly.
    """

    __slots__ = ("genus", "coeffs", "full")

    def __init__(self, genus, coeffs=(), full=False):
        # type(), not isinstance(): a bool is an int subclass
        if type(genus) is not int:
            raise TypeError("genus must be an int, got %r" % (genus,))
        if type(full) is not bool:
            raise TypeError("full must be a bool, got %r" % (full,))
        self.genus = genus
        self.full = full
        items = coeffs.items() if isinstance(coeffs, dict) else coeffs
        self.coeffs = _summed(self._checked(items), full)

    def _checked(self, items):
        for m, val in items:
            if not isinstance(m, HomologyClass):
                raise TypeError("support points must be HomologyClass values")
            if m.genus != self.genus:
                raise ValueError("genus mismatch in support point %s" % (m,))
            yield m.coords, GaussianRational.coerce(val)

    @classmethod
    def _of_table(cls, genus, table, full):
        "The vector owning table, a dict already checked and summed as by _summed."
        out = object.__new__(cls)
        out.genus, out.coeffs, out.full = genus, table, full
        return out

    @classmethod
    def zero(cls, genus, full=False):
        return cls(genus, (), full=full)

    @classmethod
    def basis(cls, m, coeff=1, full=False):
        return cls(m.genus, ((m, coeff),), full=full)

    @property
    def support(self):
        return tuple(HomologyClass(m) for m in sorted(self.coeffs))

    def items(self):
        return [(HomologyClass(m), val) for m, val in self.coeffs.items()]

    def coefficient(self, m):
        return self.coeffs.get(m.coords, GaussianRational(0))

    def __bool__(self):
        return bool(self.coeffs)

    def __len__(self):
        return len(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, SparseVector):
            return self.genus == other.genus and self.coeffs == other.coeffs
        return NotImplemented

    def _merge(self, other, sign):
        if self.genus != other.genus:
            raise ValueError("genus mismatch")
        right = other.coeffs.items()
        if sign < 0:
            right = ((m, -val) for m, val in right)
        full = self.full or other.full
        table = _summed(chain(self.coeffs.items(), right), full)
        return SparseVector._of_table(self.genus, table, full)

    def __add__(self, other):
        if not isinstance(other, SparseVector):
            return NotImplemented
        return self._merge(other, 1)

    def __sub__(self, other):
        if not isinstance(other, SparseVector):
            return NotImplemented
        return self._merge(other, -1)

    def __neg__(self):
        table = {m: -v for m, v in self.coeffs.items()}
        return SparseVector._of_table(self.genus, table, self.full)

    def __mul__(self, scalar):
        scalar = GaussianRational.coerce(scalar)
        table = {m: v * scalar for m, v in self.coeffs.items()} if scalar else {}
        return SparseVector._of_table(self.genus, table, self.full)

    __rmul__ = __mul__

    def norm_sq(self):
        "Squared l2 norm, an exact rational."
        return signed_norm_sq(((1, self),))

    def norm(self):
        return ExactSqrt(self.norm_sq())

    def __repr__(self):
        return "SparseVector(genus=%d, support=%d)" % (self.genus, len(self.coeffs))


def _summed(pairs, full):
    """The coefficient table of (coordinate tuple, GaussianRational) pairs:
    values at one point add up, zero values and zero sums drop, and a
    nonzero value at the zero class is an error unless full."""
    table = {}
    for m, val in pairs:
        if not val:
            continue
        # a tuple of 2g >= 6 coordinates is truthy even when they are all 0
        if not any(m) and not full:
            raise ValueError("zero class in a mean-zero vector; construct with full=True")
        old = table.get(m)
        if old is not None:
            val = old + val
            if not val:
                del table[m]
                continue
        table[m] = val
    return table


def act(M, v):
    "Relabel the support by the matrix action; a basis permutation."
    if M.dim != 2 * v.genus:
        raise ValueError("dimension mismatch")
    table = {M.apply(HomologyClass(m)).coords: val for m, val in v.coeffs.items()}
    return SparseVector._of_table(v.genus, table, v.full)


def twist(c, n, v):
    """The n-fold twist about the class c: relabel the support by the
    transvection m -> m + n <c, m> c.

    Only the coordinates where c is nonzero move, and <c, m> reads only
    their partner coordinates (dual_terms), so a point costs O(|supp c|),
    not O(2g).
    """
    if len(c.coords) != 2 * v.genus:
        raise ValueError("dimension mismatch")
    # an int n keeps every moved coordinate an int, as the table's points must be
    if not isinstance(n, int):
        raise TypeError("the twist exponent must be an int, got %r" % (n,))
    moves = [(k, a) for k, a in enumerate(c.coords) if a]
    reads = [(k, n * w) for k, w in dual_terms(c)]
    table = {}
    for m, val in v.coeffs.items():
        t = 0
        for k, w in reads:
            t += w * m[k]
        if t:
            moved = list(m)
            for k, a in moves:
                moved[k] += t * a
            m = tuple(moved)
        table[m] = val
    return SparseVector._of_table(v.genus, table, v.full)


def signed_norm_sq(terms):
    """Exact squared norm of sum(sign * v) over (sign, SparseVector) terms.

    Each point keeps its real and imaginary parts as unreduced integer
    ratios: numerators add directly over equal denominators and
    cross-multiply otherwise.  A part is zero iff its numerator is, so
    cancellations are decided without a gcd, and only the points left
    nonzero are reduced into the rational total.
    """
    acc = {}
    for sign, v in terms:
        for m, val in v.coeffs.items():
            p, q, r, s = val.ratios()
            if sign < 0:
                p, r = -p, -r
            old = acc.get(m)
            if old is None:
                acc[m] = [p, q, r, s]
                continue
            op, oq, or_, os_ = old
            if q == oq:
                old[0] = op + p
            else:
                old[0], old[1] = op * q + p * oq, oq * q
            if s == os_:
                old[2] = or_ + r
            else:
                old[2], old[3] = or_ * s + r * os_, os_ * s
    total = Fraction(0)
    for p, q, r, s in acc.values():
        if p or r:
            total += Fraction(*abs2_ratio(p, q, r, s))
    return total


def inner(v, w):
    "Hermitian inner product, linear in the first slot."
    if v.genus != w.genus:
        raise ValueError("genus mismatch")
    small, big, flip = (v, w, False) if len(v) <= len(w) else (w, v, True)
    total = GaussianRational(0)
    for m, val in small.coeffs.items():
        other = big.coeffs.get(m)
        if other is None:
            continue
        total = total + (val * other.conjugate() if not flip else other * val.conjugate())
    return total


class TorusPoint:
    "Point of the 2g-torus, stored by its angle coordinates."

    __slots__ = ("angles",)

    def __init__(self, values):
        values = tuple(complex(z) for z in values)
        if len(values) % 2 or len(values) < 6:
            raise ValueError("need 2g unit-modulus values with g >= 3")
        for z in values:
            if abs(abs(z) - 1.0) > 1e-12:
                raise ValueError("torus coordinates must have modulus 1")
        self.angles = tuple(cmath.phase(z) for z in values)

    @classmethod
    def from_angles(cls, angles):
        angles = tuple(float(t) for t in angles)
        if len(angles) % 2 or len(angles) < 6:
            raise ValueError("need 2g angles with g >= 3")
        pt = object.__new__(cls)
        pt.angles = angles
        return pt

    @property
    def genus(self):
        return len(self.angles) // 2

    @property
    def values(self):
        return tuple(cmath.rect(1.0, t) for t in self.angles)

    def character(self, m):
        "Value of the monomial attached to the class m at this point."
        phase = sum(t * a for t, a in zip(self.angles, m.coords))
        return cmath.rect(1.0, phase)

    def __repr__(self):
        return "TorusPoint(angles=%r)" % (self.angles,)


def evaluate(v, rho):
    "Numeric value of the trigonometric sum at a torus point."
    if rho.genus != v.genus:
        raise ValueError("genus mismatch")
    return sum((complex(val) * rho.character(m) for m, val in v.items()), 0j)


def torus_action(M, rho):
    "Pushforward of a torus point: the new point pairs m with the old M^-1 m."
    if M.dim != 2 * rho.genus:
        raise ValueError("dimension mismatch")
    inv = M.inv()
    angles = tuple(
        sum(inv.rows[q][p] * rho.angles[q] for q in range(M.dim)) for p in range(M.dim)
    )
    return TorusPoint.from_angles(angles)


def grid_mean(v, N):
    """Average of evaluate over the uniform N^(2g) grid.

    Requires N to exceed twice the largest coordinate magnitude in the
    support (aliasing guard).  With the guard satisfied, per-coordinate
    geometric sums vanish unless the coordinate is divisible by N, so the
    mean collapses to the coefficient at the zero class.
    """
    if N < 1:
        raise ValueError("grid size must be positive")
    biggest = 0
    for m in v.coeffs:
        for a in m:
            biggest = max(biggest, abs(a))
    if N <= 2 * biggest:
        raise AliasingError("grid size %d too small for coordinates up to %d" % (N, biggest))
    total = GaussianRational(0)
    for m, val in v.coeffs.items():
        if all(a % N == 0 for a in m):
            total = total + val
    return complex(total)


def coefficient_peaks(points):
    """(n, num, den, coeff) once per distinct coefficient object among the
    (n, coeff) points: n is the largest norm it sits at and num/den its
    |coeff|^2 as an unreduced integer ratio.

    n^k |coeff| grows with n, so a bound holds for a coefficient at every
    point iff it holds at its largest norm.  Decoded and solved vectors
    share one object per repeated coefficient, so the work per coefficient
    runs once, not once per point.  Objects are told apart by id, which
    stays unique while the table holds each of them.
    """
    largest = {}
    for n, val in points:
        old = largest.get(id(val))
        if old is None or n > old[0]:
            largest[id(val)] = (n, val)
    return [(n, *abs2_ratio(*val.ratios()), val) for n, val in largest.values()]


def decay_from_norms(points, orders):
    """Per order k, the smallest F with n^k |coeff| <= F over the (n, coeff) points (0 if none).

    |coeff|^2 is computed once per distinct coefficient (coefficient_peaks),
    and only the largest one per norm can attain a maximum; both maxima are
    taken by cross-multiplication, so the one Fraction built per order is
    the printed square.
    """
    orders = tuple(orders)
    if any(k < 0 for k in orders):
        raise ValueError("k must be nonnegative")
    peak = {}
    for n, num, den, _ in coefficient_peaks(points):
        old = peak.get(n)
        if old is None or num * old[1] > old[0] * den:
            peak[n] = (num, den)
    out = []
    for k in orders:
        best_num, best_den = 0, 1
        for n, (num, den) in peak.items():
            num *= n ** (2 * k)
            if num * best_den > best_num * den:
                best_num, best_den = num, den
        out.append(ExactSqrt(Fraction(best_num, best_den)))
    return out


def decay_constants(vectors, orders):
    """Per order k, the smallest F with norm1(m)^k |coeff| <= F over the
    supports of all the vectors (0 if they are all empty)."""
    points = ((sum(map(abs, m)), val) for v in vectors for m, val in v.coeffs.items())
    return decay_from_norms(points, orders)


def decay_constant(v, k):
    "Smallest F with norm1(m)^k |coeff| <= F over the support (0 if empty)."
    return decay_constants((v,), (k,))[0]
