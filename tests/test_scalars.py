import operator
import random

from fractions import Fraction

import pytest

from macpoly.scalars import (
    ExactScalar,
    QuadExt,
    SeriesScalar,
    parse_scalar,
    q_number,
    q_pochhammer,
)


Q = ExactScalar.q_power
V = ExactScalar.v_power


def rand_scalar(rng, size=3):
    num = {rng.randint(-4, 4): rng.randint(-6, 6) for _ in range(size)}
    den = {rng.randint(-2, 2): rng.randint(-4, 4) for _ in range(size)}
    den[0] = den.get(0, 0) or 1
    try:
        return ExactScalar(num, den)
    except ZeroDivisionError:
        return ExactScalar(num)


class TestQNumber:
    def test_zero(self):
        assert q_number(0, 1).is_zero()

    def test_two_base_one(self):
        # [2]_q = q + q^-1
        assert q_number(2, 1) == Q(1) + Q(-1)

    def test_three_base_two(self):
        # [3]_{q^2} = q^4 + 1 + q^-4, checked against polynomial division
        lhs = q_number(3, 2)
        expected = (Q(6) - Q(-6)) / (Q(2) - Q(-2))
        assert lhs == expected
        assert lhs == Q(4) + 1 + Q(-4)

    def test_negative_argument(self):
        assert q_number(-3, 1) == -q_number(3, 1)

    def test_defining_identity(self):
        for a in range(-4, 5):
            for b in (1, 2, 3):
                lhs = q_number(a, b) * (Q(b) - Q(-b))
                assert lhs == Q(a * b) - Q(-a * b)


class TestQPochhammer:
    def test_empty_product(self):
        assert q_pochhammer(Q(1), 2, 0).is_one()

    def test_vanishing_factor(self):
        # (q^2; q^-2)_2 contains the factor (1 - q^2 q^-2) = 0
        assert q_pochhammer(Q(2), -2, 2).is_zero()

    def test_expansion(self):
        # (q; q^2)_2 = (1-q)(1-q^3) = 1 - q - q^3 + q^4
        val = q_pochhammer(Q(1), 2, 2)
        assert val == 1 - Q(1) - Q(3) + Q(4)


class TestBar:
    def test_fixed_points(self):
        assert ExactScalar.one().bar().is_one()
        sym = Q(1) + Q(-1)
        assert sym.bar() == sym

    def test_qnumber_fixed(self):
        f = q_number(3, 2)
        assert f.bar() == f

    def test_involution_and_multiplicativity(self):
        rng = random.Random(7)
        for _ in range(40):
            f, g = rand_scalar(rng), rand_scalar(rng)
            assert f.bar().bar() == f
            assert (f * g).bar() == f.bar() * g.bar()


class TestFieldAxioms:
    def test_random_field_identities(self):
        rng = random.Random(1)
        for _ in range(40):
            f, g, h = rand_scalar(rng), rand_scalar(rng), rand_scalar(rng)
            assert (f + g) * h == f * h + g * h
            assert (f * g) * h == f * (g * h)
            assert f + g == g + f
            if not f.is_zero():
                assert (f * f.inv()).is_one()

    def test_canonical_form(self):
        # (q^2-1)/(q-1)-style cancellation happens automatically
        f = (Q(2) - 1) / (Q(1) - 1)
        assert f == Q(1) + 1

    def test_denominator_normalisation(self):
        f = ExactScalar({0: 1}, {-3: 2, -1: 4})
        assert min(f.den) == 0
        assert f.den[max(f.den)] > 0


class TestRendering:
    def test_roundtrip(self):
        rng = random.Random(3)
        for _ in range(40):
            f = rand_scalar(rng)
            assert parse_scalar(f.render()) == f


class TestSeries:
    def test_exact_agreement_random(self):
        rng = random.Random(11)
        for _ in range(100):
            f, g = rand_scalar(rng), rand_scalar(rng)
            h = f * g + f - g
            lhs = h.to_series(25)
            rhs = f.to_series(25) * g.to_series(25) + f.to_series(25) - g.to_series(25)
            assert (lhs - rhs).is_zero()

    def test_division(self):
        f = (1 - Q(1)).to_series(30)
        g = (1 - Q(2)).to_series(30)
        h = f / g
        exact = ((1 - Q(1)) / (1 - Q(2))).to_series(20)
        assert (h - exact).is_zero()

    def test_inverse_requires_nonzero(self):
        with pytest.raises(ZeroDivisionError):
            SeriesScalar.zero(10).inv()

    def test_fraction_coeffs(self):
        s = SeriesScalar({0: Fraction(1, 3)}, 10)
        assert (3 * s - 1).is_zero()

    def test_render_roundtrip(self):
        rng = random.Random(5)
        for _ in range(30):
            prec = rng.randint(-2, 12)
            coeffs = {rng.randint(-4, 14): Fraction(rng.randint(-9, 9),
                                                    rng.randint(1, 6))
                      for _ in range(rng.randint(0, 6))}
            s = SeriesScalar(coeffs, prec)
            back = parse_scalar(s.render())
            assert isinstance(back, SeriesScalar)
            assert back.prec == s.prec
            assert back.num == s.num and back.den == s.den
        assert SeriesScalar({}, 5).render() == "0 + O(v^5)"
        assert (SeriesScalar({0: Fraction(1, 2), 3: -1}, 6).render()
                == "(1 - 2*v^3) / 2 + O(v^6)")


class TestQuadExt:
    def test_square_root(self):
        d = q_number(2, 1)  # w^2 = q + q^-1
        w = QuadExt.root(d)
        assert (w * w).a == d
        assert (w * w).b.is_zero()

    def test_inverse(self):
        d = Q(2) + 1
        x = QuadExt(Q(1), Q(-1) + 3, d)
        y = x * x.inv()
        assert y.a.is_one() and y.b.is_zero()

    def test_arithmetic(self):
        d = Q(2)
        w = QuadExt.root(d)
        lhs = (1 + w) * (1 - w)
        assert lhs.a == 1 - d
        assert lhs.b.is_zero()


class TestAgainstSympy:
    """Q(v) arithmetic and reduction against sympy.cancel on random input."""

    @staticmethod
    def _check(op):
        hypothesis = pytest.importorskip("hypothesis")
        sympy = pytest.importorskip("sympy")
        st = hypothesis.strategies
        v = sympy.Symbol("v")
        laurent = st.dictionaries(st.integers(-3, 3), st.integers(-5, 5),
                                  max_size=3)

        def to_sympy(x):
            num = sum(c * v ** e for e, c in x.num.items())
            den = sum(c * v ** e for e, c in x.den.items())
            return num / den

        def reduced(x):
            # den is a polynomial with a constant term, num is v^k times one,
            # and the two share no nonconstant factor
            assert min(x.den) == 0 and x.den[max(x.den)] > 0
            if not x.num:
                return x.den == {0: 1}
            k = min(x.num)
            num = sum(c * v ** (e - k) for e, c in x.num.items())
            den = sum(c * v ** e for e, c in x.den.items())
            return sympy.degree(sympy.gcd(num, den), v) == 0

        @hypothesis.settings(max_examples=60, deadline=None, database=None)
        @hypothesis.given(laurent, laurent, laurent, laurent)
        def run(an, ad, bn, bd):
            if not any(ad.values()) or not any(bd.values()):
                return
            a, b = ExactScalar(an, ad), ExactScalar(bn, bd)
            if op == "div" and b.is_zero():
                return
            fn = getattr(operator, op if op != "div" else "truediv")
            got = fn(a, b)
            assert sympy.cancel(to_sympy(got) - fn(to_sympy(a), to_sympy(b))) == 0
            assert reduced(a) and reduced(b) and reduced(got)

        run()

    @pytest.mark.parametrize("op", ["add", "sub", "mul", "div"])
    def test_operation(self, op):
        self._check(op)
