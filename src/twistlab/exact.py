"""Exact scalars: rational complex numbers and square roots of rationals.

Everything downstream that claims an exact zero test goes through these
two types.  Norms of vectors with rational complex coefficients are
square roots of rationals, so they are kept as their (rational) squares
and compared that way.
"""

from decimal import Decimal
from fractions import Fraction
from functools import total_ordering
from math import isqrt, sqrt


def format_int(n):
    "n in decimal at any length: %d stops at sys.get_int_max_str_digits(), Decimal does not."
    try:
        return "%d" % n
    except ValueError:
        return str(Decimal(n))


def format_fraction(q):
    "q as 'n/d' with d > 0."
    return "%s/%s" % (format_int(q.numerator), format_int(q.denominator))


def _str(q):
    "q as str(Fraction) prints it, 'n' or 'n/d'."
    return format_int(q.numerator) if q.denominator == 1 else format_fraction(q)


def _frac(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError("expected an int or Fraction, got %s" % type(x).__name__)


def abs2_ratio(p, q, r, s):
    "|p/q + i r/s|^2 as an unreduced integer ratio (numerator, denominator)."
    qs = q * s
    return p * p * s * s + r * r * q * q, qs * qs


def _as_gaussian(x):
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x, 0)
    return None


class GaussianRational:
    """Complex number with exact rational real and imaginary parts."""

    # _ratios caches ratios(): nothing assigns re or im after __init__
    __slots__ = ("re", "im", "_ratios")

    def __init__(self, re=0, im=0):
        self.re = _frac(re)
        self.im = _frac(im)
        self._ratios = None

    @classmethod
    def coerce(cls, x):
        got = _as_gaussian(x)
        if got is None:
            raise TypeError("cannot coerce %r to GaussianRational" % (x,))
        return got

    def conjugate(self):
        return GaussianRational(self.re, -self.im)

    def abs2(self):
        "Squared modulus, an exact nonnegative rational."
        return self.re * self.re + self.im * self.im

    def ratios(self):
        "(p, q, r, s) with re = p/q and im = r/s, in lowest terms; read once per object."
        got = self._ratios
        if got is None:
            got = self._ratios = self.re.as_integer_ratio() + self.im.as_integer_ratio()
        return got

    def __abs__(self):
        return ExactSqrt(self.abs2())

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __add__(self, other):
        other = _as_gaussian(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_gaussian(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        other = _as_gaussian(other)
        if other is None:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __eq__(self, other):
        other = _as_gaussian(other)
        if other is None:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return "GaussianRational(%s, %s)" % (_str(self.re), _str(self.im))

    def __str__(self):
        if not self.im:
            return _str(self.re)
        return "%s%s%si" % (_str(self.re), "+" if self.im > 0 else "-", _str(abs(self.im)))


@total_ordering
class ExactSqrt:
    """The nonnegative real sqrt(q) for an exact rational q >= 0.

    Stored by its square; comparisons against ints, Fractions and other
    ExactSqrt values are exact.
    """

    __slots__ = ("square",)

    def __init__(self, square):
        square = _frac(square)
        if square < 0:
            raise ValueError("square must be nonnegative")
        self.square = square

    def as_fraction(self):
        "The exact rational value, or None if the root is irrational."
        n, d = self.square.numerator, self.square.denominator
        rn, rd = isqrt(n), isqrt(d)
        if rn * rn == n and rd * rd == d:
            return Fraction(rn, rd)
        return None

    def __bool__(self):
        return bool(self.square)

    def __float__(self):
        """The nearest float; OverflowError if the root is past float range.

        A square past float range can still have a root inside it, taken
        from the integers as isqrt(n d) / d for square = n/d.
        """
        try:
            return sqrt(float(self.square))
        except OverflowError:
            n, d = self.square.numerator, self.square.denominator
            return isqrt(n * d) / d

    def _cmp(self, other):
        "-1/0/+1 against other, or None if incomparable."
        if isinstance(other, ExactSqrt):
            osq = other.square
        elif isinstance(other, (int, Fraction)):
            if other < 0:
                return 1
            osq = other * other
        else:
            return None
        if self.square == osq:
            return 0
        return -1 if self.square < osq else 1

    def __eq__(self, other):
        c = self._cmp(other)
        if c is None:
            return NotImplemented
        return c == 0

    def __lt__(self, other):
        c = self._cmp(other)
        if c is None:
            return NotImplemented
        return c < 0

    def __mul__(self, other):
        if isinstance(other, ExactSqrt):
            return ExactSqrt(self.square * other.square)
        return NotImplemented

    def __repr__(self):
        return "ExactSqrt(%s)" % _str(self.square)

    def __str__(self):
        f = self.as_fraction()
        if f is not None:
            return _str(f)
        return "sqrt(%s)" % _str(self.square)
