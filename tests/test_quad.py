from __future__ import annotations

import random
from decimal import Decimal, getcontext
from fractions import Fraction

import pytest
from hypothesis import given

from conftest import quads
from lossbell import Quad, SQRT2


def _decimal_value(q: Quad, prec: int = 60) -> Decimal:
    getcontext().prec = prec
    root2 = Decimal(2).sqrt()
    a = Decimal(q.a.numerator) / Decimal(q.a.denominator)
    b = Decimal(q.b.numerator) / Decimal(q.b.denominator)
    return a + b * root2


class TestArithmetic:
    def test_add(self):
        assert Quad(5, 12) + Quad(-3, -3) == Quad(2, 9)
        assert Quad(0, 0) + Quad(7, -2) == Quad(7, -2)
        assert Quad(1, 1) + Quad(1, -1) == Quad(2, 0)

    def test_scale(self):
        assert Quad(5, 12) * Fraction(1, 2) == Quad(Fraction(5, 2), 6)
        assert Quad(3, -4) * 0 == Quad(0, 0)
        assert Quad(4, 11) * 1 == Quad(4, 11)
        assert Fraction(2, 3) * Quad(3, 6) == Quad(2, 4)

    def test_mul_and_div_roundtrip(self):
        x = Quad(Fraction(3, 2), -5)
        y = Quad(-2, Fraction(7, 3))
        assert (x * y) / y == x

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            Quad(1, 1) / Quad(0, 0)

    @given(quads(), quads(), quads())
    def test_ring_axioms(self, x, y, z):
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x
        assert (x * y) * z == x * (y * z)
        assert x * y == y * x
        assert x * (y + z) == x * y + x * z
        assert x + Quad(0) == x
        assert x * Quad(1) == x
        assert x + (-x) == Quad(0)


class TestOrdering:
    def test_known_comparisons(self):
        # 9^2 * 2 = 162 beats 12^2 = 144, so 2 + 9*sqrt2 > 14
        assert (Quad(2, 9) - Quad(14)).sign() == 1
        # 8^2 * 2 = 128 loses to 12^2 = 144, so 1 + 8*sqrt2 < 13
        assert (Quad(1, 8) - Quad(13)).sign() == -1
        assert (Quad(3, -7) - Quad(3, -7)).sign() == 0

    def test_sign(self):
        assert Quad(0, 0).sign() == 0
        assert Quad(-1, 1).sign() == 1  # sqrt2 > 1
        assert Quad(3, -2).sign() == 1  # 3 > 2*sqrt2
        assert Quad(3, -3).sign() == -1  # 3*sqrt2 > 3
        assert Quad(3, -3) < Quad(0)

    def test_float_agreement_on_random_pairs(self):
        rng = random.Random(20240817)
        for _ in range(10_000):
            x = Quad(
                Fraction(rng.randint(-500, 500), rng.randint(1, 30)),
                Fraction(rng.randint(-500, 500), rng.randint(1, 30)),
            )
            y = Quad(
                Fraction(rng.randint(-500, 500), rng.randint(1, 30)),
                Fraction(rng.randint(-500, 500), rng.randint(1, 30)),
            )
            gap = float(x) - float(y)
            if abs(gap) > 1e-9:
                assert (x - y).sign() == (1 if gap > 0 else -1)

    @given(quads(), quads(), quads())
    def test_antisymmetry_and_transitivity(self, x, y, z):
        assert (x - y).sign() == -(y - x).sign()
        if x <= y and y <= z:
            assert x <= z


class TestFloatConversion:
    def test_reference_values(self):
        assert float(Quad(5, 12)) == pytest.approx(21.9705627484771, abs=1e-12)
        assert float(Quad(0, 1)) == pytest.approx(1.4142135623730951, abs=1e-15)
        assert float(Quad(7, 0)) == 7.0

    @given(quads())
    def test_relative_error_bound(self, q):
        value = _decimal_value(q)
        got = Decimal(float(q))
        if value == 0:
            assert got == 0
        else:
            assert abs(got - value) / abs(value) <= Decimal(2) ** -50

    def test_heavy_cancellation(self):
        # a/b near -sqrt2 (a Pell convergent) forces ~2^-39 cancellation
        q = Quad(Fraction(-665857, 470832), 1)
        value = _decimal_value(q, prec=80)
        got = Decimal(float(q))
        assert abs(got - value) / abs(value) <= Decimal(2) ** -50


class TestRendering:
    def test_as_dict(self):
        d = Quad(Fraction(5, 2), -3).as_dict()
        assert d["a"] == "5/2"
        assert d["b"] == "-3"
        assert d["approx"] == pytest.approx(2.5 - 3 * 2**0.5)

    def test_str(self):
        assert str(Quad(5, 12)) == "5 + 12*sqrt2"
        assert str(Quad(Fraction(1, 2), -1)) == "1/2 - 1*sqrt2"
        assert str(Quad(4)) == "4"

    def test_sqrt2_constant(self):
        assert SQRT2 * SQRT2 == Quad(2)
