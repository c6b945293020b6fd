"""Exact arithmetic on numbers of the form a + b*sqrt(2) with rational a, b.

Violation verdicts are decided by comparing such numbers against integer
bounds, so every bound and expectation value in this package is a `Quad`.
Floating point appears only at the oracle boundary (``float(q)``) and in
report rendering; the comparisons themselves are pure integer arithmetic and
therefore bit-reproducible.
"""

from __future__ import annotations

from fractions import Fraction
from functools import total_ordering
from math import isqrt

Rational = int | Fraction


@total_ordering
class Quad:
    """The real number ``a + b*sqrt(2)`` with exact rational components.

    sqrt(2) is irrational, so the pair (a, b) is a canonical form: two Quads
    are equal iff both components agree.  Components are `fractions.Fraction`
    values, i.e. arbitrary-precision rationals in lowest terms with positive
    denominator.
    """

    __slots__ = ("_a", "_b")

    def __init__(self, a: Rational = 0, b: Rational = 0) -> None:
        self._a = Fraction(a)
        self._b = Fraction(b)

    @property
    def a(self) -> Fraction:
        return self._a

    @property
    def b(self) -> Fraction:
        return self._b

    def __repr__(self) -> str:
        return f"Quad({self._a}, {self._b})"

    def __str__(self) -> str:
        if self._b == 0:
            return str(self._a)
        sign = "+" if self._b >= 0 else "-"
        return f"{self._a} {sign} {abs(self._b)}*sqrt2"

    @staticmethod
    def _coerce(value: Quad | Rational) -> Quad | None:
        if isinstance(value, Quad):
            return value
        if isinstance(value, (int, Fraction)):
            return Quad(value)
        return None

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: Quad | Rational) -> Quad:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Quad(self._a + o._a, self._b + o._b)

    __radd__ = __add__

    def __sub__(self, other: Quad | Rational) -> Quad:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Quad(self._a - o._a, self._b - o._b)

    def __rsub__(self, other: Quad | Rational) -> Quad:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self) -> Quad:
        return Quad(-self._a, -self._b)

    def __mul__(self, other: Quad | Rational) -> Quad:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Quad(
            self._a * o._a + 2 * self._b * o._b,
            self._a * o._b + self._b * o._a,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: Quad | Rational) -> Quad:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        norm = o._a * o._a - 2 * o._b * o._b
        if norm == 0:
            raise ZeroDivisionError("division by zero Quad")
        return self * Quad(o._a / norm, -o._b / norm)

    # -- exact comparisons ---------------------------------------------------

    def sign(self) -> int:
        """Sign of the real value, decided without floating point.

        When the two components have opposite signs the comparison reduces to
        a**2 versus 2*b**2; equality there is impossible for nonzero
        components because sqrt(2) is irrational.
        """
        sa = (self._a > 0) - (self._a < 0)
        sb = (self._b > 0) - (self._b < 0)
        if sb == 0:
            return sa
        if sa == 0 or sa == sb:
            return sb
        return sa if self._a * self._a > 2 * self._b * self._b else sb

    def __eq__(self, other: object) -> bool:
        o = self._coerce(other) if isinstance(other, (Quad, int, Fraction)) else None
        if o is None:
            return NotImplemented
        return self._a == o._a and self._b == o._b

    def __lt__(self, other: Quad | Rational) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() < 0

    def __hash__(self) -> int:
        return hash((self._a, self._b))

    def __bool__(self) -> bool:
        return self._a != 0 or self._b != 0

    # -- boundary conversions ------------------------------------------------

    def __float__(self) -> float:
        """Double-precision value, accurate even under heavy cancellation.

        The irrational part is resolved by an integer square root carried to
        enough bits that |a| + 2|b| worth of cancellation still leaves the
        final rational-to-float rounding as the dominant error.
        """
        if self._b == 0:
            return float(self._a)
        p = self._a.numerator * self._b.denominator
        q = self._b.numerator * self._a.denominator
        d = self._a.denominator * self._b.denominator
        k = 55 + (abs(p) + 2 * abs(q)).bit_length()
        root = isqrt(2 * q * q << (2 * k))
        num = (p << k) + (root if q > 0 else -root)
        return float(Fraction(num, d << k))

    def as_dict(self) -> dict[str, object]:
        """Exact components as strings plus a decimal approximation."""
        return {"a": str(self._a), "b": str(self._b), "approx": float(self)}


SQRT2 = Quad(0, 1)
