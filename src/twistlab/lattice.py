"""Exact integer model of the genus-g homology lattice.

A class is an integer vector of length 2g in a fixed symplectic basis,
ordered (a1, b1, ..., ag, bg).  The intersection pairing is the standard
antisymmetric form pairing each a/b block to +1, and the Dehn twist about
a class c acts as the transvection m -> m + <c, m> c.  All arithmetic is
over plain Python integers, so products of twist matrices never overflow.
"""

MIN_GENUS = 3


class HomologyClass:
    """Element of the rank-2g lattice, coordinates (a1, b1, ..., ag, bg)."""

    __slots__ = ("coords", "_hash")

    def __init__(self, coords):
        coords = tuple(coords)
        if len(coords) % 2 or len(coords) < 2 * MIN_GENUS:
            raise ValueError(
                "need 2g coordinates with g >= %d, got %d" % (MIN_GENUS, len(coords))
            )
        for c in coords:
            # type(), not isinstance(): a bool is an int subclass
            if type(c) is not int:
                raise TypeError("coordinates must be integers, got %r" % (c,))
        self.coords = coords
        self._hash = hash(coords)

    @classmethod
    def _of_coords(cls, coords):
        "The class of coords, a tuple of 2g ints with g >= MIN_GENUS already checked."
        out = object.__new__(cls)
        out.coords, out._hash = coords, hash(coords)
        return out

    @property
    def genus(self):
        return len(self.coords) // 2

    def __len__(self):
        return len(self.coords)

    def __iter__(self):
        return iter(self.coords)

    def __getitem__(self, i):
        return self.coords[i]

    def __bool__(self):
        return any(self.coords)

    def __eq__(self, other):
        if isinstance(other, HomologyClass):
            return self.coords == other.coords
        return NotImplemented

    def __hash__(self):
        return self._hash

    def __add__(self, other):
        _check_same_genus(self, other)
        return HomologyClass(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        _check_same_genus(self, other)
        return HomologyClass(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return HomologyClass(tuple(-a for a in self.coords))

    def __mul__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        return HomologyClass(tuple(n * a for a in self.coords))

    __rmul__ = __mul__

    def __repr__(self):
        return "HomologyClass(%r)" % (self.coords,)

    def __str__(self):
        return " ".join(str(a) for a in self.coords)


def _check_same_genus(m, n):
    if m.genus != n.genus:
        raise ValueError("genus mismatch: %d vs %d" % (m.genus, n.genus))


def zero_class(g):
    return HomologyClass((0,) * (2 * g))


def x_basis(g, j):
    "The j-th a-type basis class (1-based)."
    return basis_curve_class(g, 2 * j - 2)


def y_basis(g, j):
    "The j-th b-type basis class (1-based)."
    return basis_curve_class(g, 2 * j - 1)


def symplectic_basis(g):
    "All 2g basis classes in interleaved order (x1, y1, ..., xg, yg)."
    return tuple(basis_curve_class(g, i) for i in range(2 * g))


def basis_curve_class(g, index):
    "Interleaved basis curve by index 0..2g-1 (x1, y1, x2, y2, ...)."
    if not 0 <= index < 2 * g:
        raise ValueError("basis curve index out of range")
    coords = [0] * (2 * g)
    coords[index] = 1
    return HomologyClass(coords)


def basis_curve_name(index):
    "Name of the interleaved basis curve at index 0..2g-1: x1, y1, x2, ..."
    kind = "x" if index % 2 == 0 else "y"
    return "%s%d" % (kind, index // 2 + 1)


def dual_terms(c):
    """The pairing row c^T J as (index, weight) pairs, one per nonzero
    coordinate of c:  <c, m> = sum(w * m[k]), as a_j pairs with b_j."""
    return tuple((k ^ 1, a if k % 2 == 0 else -a) for k, a in enumerate(c.coords) if a)


def intersection(m, n):
    "Intersection pairing; +1 on each (a_j, b_j) pair, antisymmetric."
    _check_same_genus(m, n)
    total = 0
    mc, nc = m.coords, n.coords
    for k in range(0, len(mc), 2):
        total += mc[k] * nc[k + 1] - mc[k + 1] * nc[k]
    return total


def norm1(m):
    "Sum of absolute values of the coordinates."
    return sum(map(abs, m.coords))


def transvect(c, n, m):
    "n-fold twist of m about c:  m + n <c, m> c."
    t = n * intersection(c, m)
    if not t:
        return m
    return HomologyClass(tuple(a + t * b for a, b in zip(m.coords, c.coords)))


def _standard_form_rows(dim):
    rows = [[0] * dim for _ in range(dim)]
    for k in range(0, dim, 2):
        rows[k][k + 1] = 1
        rows[k + 1][k] = -1
    return tuple(tuple(r) for r in rows)


class SymplecticMatrix:
    """Square integer matrix in the symplectic coordinates.

    Construction does not check the symplectic condition; use
    is_symplectic().  inv() assumes it and verifies.
    """

    __slots__ = ("rows", "_hash")

    def __init__(self, rows):
        rows = tuple(tuple(r) for r in rows)
        dim = len(rows)
        if dim % 2 or dim < 2:
            raise ValueError("dimension must be even and positive")
        for r in rows:
            if len(r) != dim:
                raise ValueError("matrix must be square")
            for a in r:
                if type(a) is not int:
                    raise TypeError("entries must be integers, got %r" % (a,))
        self.rows = rows
        self._hash = hash(rows)

    @classmethod
    def identity(cls, dim):
        return cls(tuple(tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim)))

    @property
    def dim(self):
        return len(self.rows)

    def __eq__(self, other):
        if isinstance(other, SymplecticMatrix):
            return self.rows == other.rows
        return NotImplemented

    def __hash__(self):
        return self._hash

    def __mul__(self, other):
        if not isinstance(other, SymplecticMatrix):
            return NotImplemented
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        cols = tuple(zip(*other.rows))
        return SymplecticMatrix(
            tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in cols) for row in self.rows)
        )

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inv() ** (-n)
        out = SymplecticMatrix.identity(self.dim)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def transpose(self):
        return SymplecticMatrix(tuple(zip(*self.rows)))

    def inv(self):
        "Inverse via the symplectic identity M^-1 = -J M^T J; verified."
        J = SymplecticMatrix(_standard_form_rows(self.dim))
        minus_j = SymplecticMatrix(tuple(tuple(-a for a in r) for r in J.rows))
        cand = minus_j * self.transpose() * J
        if self * cand != SymplecticMatrix.identity(self.dim):
            raise ValueError("matrix is not symplectic, cannot invert")
        return cand

    def apply(self, m):
        if self.dim != len(m.coords):
            raise ValueError("dimension mismatch")
        return HomologyClass(
            tuple(sum(a * b for a, b in zip(row, m.coords)) for row in self.rows)
        )

    def __repr__(self):
        return "SymplecticMatrix(%r)" % (self.rows,)


def standard_form(g):
    "The block-diagonal pairing matrix J with i(m, n) = m^T J n."
    return SymplecticMatrix(_standard_form_rows(2 * g))


def transvection_matrix(steps, g):
    """Matrix of the product of the twists in steps, (class, exponent) pairs
    in word order: column j is the basis class e_j pushed through the steps,
    last step first, by transvect, O(g^2) per step with no dense product."""
    cols = []
    for m in symplectic_basis(g):
        for c, n in reversed(steps):
            m = transvect(c, n, m)
        cols.append(m.coords)
    return SymplecticMatrix(zip(*cols))


def twist_matrix(c, n=1):
    "Matrix of the n-fold twist about c:  I + n c (c^T J)."
    return transvection_matrix(((c, n),), c.genus)


def is_symplectic(M):
    "True iff M^T J M = J exactly."
    J = SymplecticMatrix(_standard_form_rows(M.dim))
    return M.transpose() * J * M == J


def apply(M, m):
    "Matrix action on a class; agrees with transvect for twist matrices."
    return M.apply(m)


def choose_increasing_twist(m):
    """Pick (basis curve index, sign) whose twist ray strictly grows the norm.

    Scans for the first nonzero coordinate, twists about the dual basis
    curve, and orients the twist so |transvect(c, eps*n, m)| is strictly
    increasing for n = 0, 1, 2, ...  Prefers eps = +1 when both signs work.
    """
    coords = m.coords
    for k, a in enumerate(coords):
        if a:
            if k % 2 == 0:
                # a-type coordinate; twist about the dual b-type curve
                eps = 1 if a * coords[k + 1] <= 0 else -1
            else:
                # b-type coordinate first nonzero, so the paired a is 0
                eps = 1
            return k ^ 1, eps
    raise ValueError("the zero class has no increasing twist ray")


def orbit_ray(c, sign, m, limit):
    "The ray (m, t m, t^2 m, ...) of length limit for the sign-oriented twist t."
    if limit < 1:
        raise ValueError("limit must be at least 1")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    out = [m]
    for t in range(1, limit):
        out.append(transvect(c, sign * t, m))
    return out


def iter_classes(g, max_norm):
    "All classes of the genus-g lattice with norm1 at most max_norm."

    def rec(length, budget):
        if length == 0:
            yield ()
            return
        for v in range(-budget, budget + 1):
            for rest in rec(length - 1, budget - abs(v)):
                yield (v,) + rest

    for coords in rec(2 * g, max_norm):
        yield HomologyClass(coords)
