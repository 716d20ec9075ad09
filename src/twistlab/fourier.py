"""Finitely supported Fourier vectors on the character torus.

A lattice class m corresponds to the monomial z1^a1 w1^b1 ... zg^ag wg^bg
on the 2g-torus; those monomials are an orthonormal basis, and symplectic
matrices act by permuting them.  Coefficients are exact rational complex
numbers; evaluation at torus points is the only floating-point path.
"""

import cmath

from .exact import ExactSqrt, GaussianRational
from .lattice import HomologyClass, norm1, transvect


class AliasingError(ValueError):
    "Grid too coarse for the support of the vector."


class SparseVector:
    """Finitely supported map from lattice classes to exact complex numbers.

    By default lives in the mean-zero subspace: the zero class may not
    carry a coefficient unless the vector is constructed with full=True.
    """

    __slots__ = ("genus", "coeffs", "full")

    def __init__(self, genus, coeffs=(), full=False):
        self.genus = int(genus)
        self.full = bool(full)
        table = {}
        items = coeffs.items() if isinstance(coeffs, dict) else coeffs
        for m, val in items:
            if not isinstance(m, HomologyClass):
                raise TypeError("support points must be HomologyClass values")
            if m.genus != self.genus:
                raise ValueError("genus mismatch in support point %s" % (m,))
            val = GaussianRational.coerce(val)
            if not val:
                continue
            if not m and not self.full:
                raise ValueError(
                    "zero class in a mean-zero vector; construct with full=True"
                )
            if m in table:
                val = table[m] + val
                if not val:
                    del table[m]
                    continue
            table[m] = val
        self.coeffs = table

    @classmethod
    def zero(cls, genus, full=False):
        return cls(genus, (), full=full)

    @classmethod
    def basis(cls, m, coeff=1, full=False):
        return cls(m.genus, ((m, coeff),), full=full)

    @property
    def support(self):
        return tuple(sorted(self.coeffs, key=lambda h: h.coords))

    def items(self):
        return self.coeffs.items()

    def coefficient(self, m):
        return self.coeffs.get(m, GaussianRational(0))

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
        table = dict(self.coeffs)
        for m, val in other.coeffs.items():
            new = table.get(m, GaussianRational(0)) + (val if sign > 0 else -val)
            if new:
                table[m] = new
            else:
                table.pop(m, None)
        out = SparseVector.zero(self.genus, full=self.full or other.full)
        out.coeffs = table
        return out

    def __add__(self, other):
        if not isinstance(other, SparseVector):
            return NotImplemented
        return self._merge(other, 1)

    def __sub__(self, other):
        if not isinstance(other, SparseVector):
            return NotImplemented
        return self._merge(other, -1)

    def __neg__(self):
        out = SparseVector.zero(self.genus, full=self.full)
        out.coeffs = {m: -v for m, v in self.coeffs.items()}
        return out

    def __mul__(self, scalar):
        scalar = GaussianRational.coerce(scalar)
        out = SparseVector.zero(self.genus, full=self.full)
        if scalar:
            out.coeffs = {m: v * scalar for m, v in self.coeffs.items()}
        return out

    __rmul__ = __mul__

    def norm_sq(self):
        "Squared l2 norm, an exact rational."
        total = sum((v.abs2() for v in self.coeffs.values()), start=0)
        return total

    def norm(self):
        return ExactSqrt(self.norm_sq())

    def __repr__(self):
        return "SparseVector(genus=%d, support=%d)" % (self.genus, len(self.coeffs))


def act(M, v):
    "Relabel the support by the matrix action; a basis permutation."
    if M.dim != 2 * v.genus:
        raise ValueError("dimension mismatch")
    out = SparseVector.zero(v.genus, full=v.full)
    out.coeffs = {M.apply(m): val for m, val in v.coeffs.items()}
    return out


def twist(c, n, v):
    "The n-fold twist about the class c: relabel the support by transvection."
    if len(c.coords) != 2 * v.genus:
        raise ValueError("dimension mismatch")
    out = SparseVector.zero(v.genus, full=v.full)
    out.coeffs = {transvect(c, n, m): val for m, val in v.coeffs.items()}
    return out


def inner(v, w):
    "Hermitian inner product, linear in the first slot."
    if v.genus != w.genus:
        raise ValueError("genus mismatch")
    small, big, flip = (v, w, False) if len(v) <= len(w) else (w, v, True)
    total = GaussianRational(0)
    for m, val in small.items():
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
        for a in m.coords:
            biggest = max(biggest, abs(a))
    if N <= 2 * biggest:
        raise AliasingError("grid size %d too small for coordinates up to %d" % (N, biggest))
    total = GaussianRational(0)
    for m, val in v.items():
        if all(a % N == 0 for a in m.coords):
            total = total + val
    return complex(total)


def decay_constants(vectors, orders):
    """Per order k, the smallest F with norm1(m)^k |coeff| <= F over the
    supports of all the vectors (0 if they are all empty).

    Each point's (norm1, |coeff|^2) is computed once; only the largest
    |coeff|^2 per norm can attain a maximum, so every order is a maximum
    over the distinct norms.
    """
    orders = tuple(orders)
    if any(k < 0 for k in orders):
        raise ValueError("k must be nonnegative")
    peak = {}
    for v in vectors:
        for m, val in v.items():
            n, a2 = norm1(m), val.abs2()
            if a2 > peak.get(n, 0):
                peak[n] = a2
    return [
        ExactSqrt(max((n ** (2 * k) * a2 for n, a2 in peak.items()), default=0))
        for k in orders
    ]


def decay_constant(v, k):
    "Smallest F with norm1(m)^k |coeff| <= F over the support (0 if empty)."
    return decay_constants((v,), (k,))[0]
