import math
import operator
import random

from fractions import Fraction

import hypothesis
import pytest
import sympy

from macpoly import cyclotomic, scalars
from macpoly.scalars import (
    ExactScalar,
    SeriesScalar,
    exact_sum_of_products,
    parse_scalar,
    q_number,
    q_pochhammer,
    series_sum_of_products,
)

from oracles import (
    bar_by_reduction,
    gcd_route,
    rational_reconstruct_fractions,
    series_inv_geometric,
    series_mul_loop,
    series_sum_loop,
    to_series_by_long_division,
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

    def test_closed_form_matches_reduction(self):
        # odd and even powers of Phi_1 and Phi_2 (only Phi_1 flips the
        # sign), other Phi_k, leads > 1, numerators with negative
        # exponents, integer denominators, zero, and a denominator that is
        # no product of Phi_k
        rng = random.Random(26)
        values = [ExactScalar.zero(), V(-3, Fraction(2, 3)),
                  ExactScalar({0: 1}, {0: 1, 1: 3, 2: 1}),
                  ExactScalar({-2: 1, 3: 2}, {0: 2, 1: 1, 4: 1})]
        for e1 in range(4):
            for e2 in range(4):
                pairs = [(k, e) for k, e in ((1, e1), (2, e2)) if e]
                pairs += sorted({rng.randint(3, 24): rng.randint(1, 2)
                                 for _ in range(rng.randint(0, 2))}.items())
                for lead in (1, 2, 6):
                    num = {rng.randint(-5, 5): rng.randint(-4, 4)
                           for _ in range(rng.randint(1, 4))}
                    values.append(ExactScalar(
                        num, scalars._cyc_dict(pairs, lead)))
        assert {x.cyc is None for x in values} == {True, False}
        assert any(x.cyc and x.cyc[0] == (1, 3) for x in values)
        assert any(x.cyc and x.den[max(x.den)] > 1 for x in values)
        for x in values:
            got, want = x.bar(), bar_by_reduction(x)
            assert (got.num, got.den, got.cyc) == (want.num, want.den,
                                                   want.cyc), x
            _consistent(got)
            assert got.bar() == x


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


def rand_series(rng):
    """A SeriesScalar on a v-grid of stride 1, 2 or 4, with a negative or
    positive lowest order and a denominator, or one tenth of the time a
    zero of some precision."""
    if rng.random() < 0.1:
        return SeriesScalar.zero(rng.randint(-6, 20))
    g = rng.choice([1, 2, 4])
    low = rng.randint(-6, 6)
    num = {low + g * i: rng.randint(-40, 40) for i in range(rng.randint(0, 9))}
    num[low] = rng.choice([1, -1, 3, -7])
    return SeriesScalar(num, low + rng.randint(1, 30),
                        _den=rng.choice([1, 2, 3, 12]))


def _same(got, want):
    assert (got.num, got.den, got.prec) == (want.num, want.den, want.prec)


class TestSeries:
    def test_exact_agreement_random(self):
        rng = random.Random(11)
        for _ in range(100):
            f, g = rand_scalar(rng), rand_scalar(rng)
            h = f * g + f - g
            lhs = h.to_series(25)
            rhs = f.to_series(25) * g.to_series(25) + f.to_series(25) - g.to_series(25)
            assert (lhs - rhs).is_zero()

    def test_product_matches_loop(self):
        # the packed kernel's one-product case against the double loop
        rng = random.Random(3)
        kinds = set()
        for _ in range(500):
            a, b = rand_series(rng), rand_series(rng)
            got = a * b
            _same(got, series_mul_loop(a, b))
            # a product of nonzero series keeps its lowest term, whose
            # order is below the product's precision
            assert bool(got.num) == bool(a.num and b.num)
            kinds |= {("zero", not (a.num and b.num)),
                      ("den", a.den * b.den != 1),
                      ("neg", bool(got.num) and min(got.num) < 0)}
        assert {("zero", True), ("den", True), ("neg", True)} <= kinds
        # a zero of the lower precision; one known coefficient on each
        # side leaves one term; an int coerces
        x, y = SeriesScalar({2: 1}, 3), SeriesScalar({4: -5, 5: 1}, 5)
        for a, b in ((SeriesScalar.zero(1), y), (y, SeriesScalar.zero(-2)),
                     (x, y), (y, x), (y, y)):
            _same(a * b, series_mul_loop(a, b))
        assert (x * y).num == {6: -5} and (x * y).prec == 7
        _same(y * 6, series_mul_loop(y, SeriesScalar({0: 6}, y.prec)))

    def test_division(self):
        f = (1 - Q(1)).to_series(30)
        g = (1 - Q(2)).to_series(30)
        h = f / g
        exact = ((1 - Q(1)) / (1 - Q(2))).to_series(20)
        assert (h - exact).is_zero()

    def test_inverse_requires_nonzero(self):
        with pytest.raises(ZeroDivisionError):
            SeriesScalar.zero(10).inv()

    @staticmethod
    def _same_inverse(x):
        got, want = x.inv(), series_inv_geometric(x)
        assert (got.num, got.den, got.prec) == (want.num, want.den, want.prec)
        return got

    def test_inverse_matches_geometric_series(self):
        # non-unit leading coefficients, negative leading orders and
        # denominators other than 1, against the geometric-series oracle
        rng = random.Random(11)
        seen = set()
        for _ in range(300):
            m = rng.randint(-6, 4)
            prec = m + rng.randint(1, 30)
            num = {e: rng.randint(-9, 9) for e in range(m + 1, prec)
                   if rng.random() < 0.4}
            num[m] = rng.choice([1, -1, 2, -3, 4, 7, -12])
            x = SeriesScalar(num, prec, _den=rng.choice([1, 2, 6, 35]))
            got = self._same_inverse(x)
            assert (x * got - 1).is_zero()
            lead = x.num[min(x.num)]
            seen |= {("lead", abs(lead) != 1), ("neg", m < 0),
                     ("den", x.den != 1)}
        assert {("lead", True), ("neg", True), ("den", True)} <= seen

    def test_inverse_edge_shapes(self):
        # a single term, and prec - m == 1 (one coefficient known)
        for x in (SeriesScalar({-3: 5}, 9, _den=2),
                  SeriesScalar({4: -3}, 12),
                  SeriesScalar({2: 7, 5: 1}, 3, _den=3),
                  SeriesScalar({-1: -2, 0: 5}, 0)):
            got = self._same_inverse(x)
            assert len(got.num) == 1
        got = self._same_inverse(SeriesScalar({-1: -2, 0: 5}, 0))
        assert (got.num, got.den, got.prec) == ({1: -1}, 2, 2)

    def test_fraction_coeffs(self):
        s = SeriesScalar({0: 1}, 10, _den=3)
        assert (3 * s - 1).is_zero()
        # a Fraction coerces to its numerator over its denominator
        assert s == Fraction(1, 3)
        assert ((SeriesScalar.zero(10) + Fraction(-2, 6)) + s).is_zero()

    def test_render_roundtrip(self):
        rng = random.Random(5)
        for _ in range(30):
            prec = rng.randint(-2, 12)
            coeffs = {rng.randint(-4, 14): Fraction(rng.randint(-9, 9),
                                                    rng.randint(1, 6))
                      for _ in range(rng.randint(0, 6))}
            den = math.lcm(*(c.denominator for c in coeffs.values()))
            s = SeriesScalar({e: int(c * den) for e, c in coeffs.items()},
                             prec, _den=den)
            back = parse_scalar(s.render())
            assert isinstance(back, SeriesScalar)
            assert back.prec == s.prec
            assert back.num == s.num and back.den == s.den
        assert SeriesScalar({}, 5).render() == "0 + O(v^5)"
        assert (SeriesScalar({0: 1, 3: -2}, 6, _den=2).render()
                == "(1 - 2*v^3) / 2 + O(v^6)")


class TestSeriesSumOfProducts:
    """`series_sum_of_products` against the term-by-term sum: exact
    equality of num, den and prec."""

    @staticmethod
    def _check(products, prec):
        got = series_sum_of_products(products, prec)
        want = series_sum_loop(products, prec)
        _same(got, want)
        return got

    def test_empty(self):
        got = self._check([], 7)
        assert (got.num, got.den, got.prec) == ({}, 1, 7)

    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_tuples(self, size):
        # negative exponents, mixed denominators and strides, zeros
        rng = random.Random(size)
        for _ in range(200):
            products = [tuple(rand_series(rng) for _ in range(size))
                        for _ in range(rng.randint(1, 6))]
            self._check(products, rng.randint(-4, 40))

    def test_mixed_tuple_sizes_and_shared_factors(self):
        rng = random.Random(9)
        for _ in range(200):
            pool = [rand_series(rng) for _ in range(4)]
            products = [tuple(rng.choice(pool)
                              for _ in range(rng.randint(1, 3)))
                        for _ in range(rng.randint(1, 8))]
            self._check(products, rng.randint(-4, 40))

    def test_zero_factor_lowers_the_precision(self):
        a = SeriesScalar({-2: 3, 2: 1}, 20, _den=2)
        b = SeriesScalar({0: 1, 4: -1}, 30)
        for zero in (SeriesScalar.zero(9), SeriesScalar.zero(-3)):
            for product in ((zero,), (zero, a), (a, zero), (a, b, zero),
                            (a, zero, b), (zero, a, b)):
                got = self._check([(b,), product], 40)
                assert got.prec <= zero.prec

    def test_product_cut_by_another_precision(self):
        # a product whose order is at or above the precision another
        # product sets adds no term
        low = SeriesScalar({0: 1, 1: 2}, 3)
        high = SeriesScalar({3: 5, 4: 1}, 9)
        for products in ([(low,), (high,)], [(high, low), (low,)],
                         [(high, high), (low, low)], [(low, low), (high,)]):
            self._check(products, 50)
        got = self._check([(high,), (high, low), (SeriesScalar({0: 1}, 3),)],
                          50)
        assert got.num == {0: 1} and got.prec == 3

    def test_strides_mixed_across_products(self, monkeypatch):
        # products on v-grids of stride 4, 2 and 1 share one pack grid,
        # whose stride falls to their gcd
        strides = []
        pack = scalars._pack

        def recorded(num, low, g, B):
            strides.append(g)
            return pack(num, low, g, B)

        monkeypatch.setattr(scalars, "_pack", recorded)
        rng = random.Random(4)
        for grids, want in (((4, 4), 4), ((4, 2), 2), ((4, 2, 1), 1),
                            ((2, 4, 4), 2)):
            for _ in range(20):
                products = []
                for g in grids:
                    a = SeriesScalar({g * i: rng.randint(-9, 9)
                                      for i in range(1, 6)} | {0: 1}, 40)
                    b = SeriesScalar({4 + g * i: rng.randint(-9, 9)
                                      for i in range(1, 4)} | {4: -2}, 44)
                    products.append((a, b))
                strides.clear()
                self._check(products, 60)
                assert set(strides) == {want}

    def test_negative_top_slot(self):
        # the highest coefficient below the precision is negative, so the
        # packed sum is a negative integer
        a = SeriesScalar({0: 1, 4: -3}, 10, _den=3)
        b = SeriesScalar({-4: 2, 0: 5, 8: -7}, 12, _den=2)
        for products in ([(a,)], [(a, b)], [(a,), (a, b), (b, b, a)]):
            got = self._check(products, 40)
            assert got.num[max(got.num)] < 0

    def test_cap_below_every_order(self):
        a = SeriesScalar({-3: 2, 1: 1}, 10)
        b = SeriesScalar({2: 1}, 7, _den=5)
        for cap in (-20, -7, -6):
            got = self._check([(a, a), (b,), (a, b)], cap)
            assert (got.num, got.den, got.prec) == ({}, 1, cap)


class TestToSeries:
    """ExactScalar.to_series against the long-division oracle."""

    @staticmethod
    def _same_series(f, prec):
        got, want = f.to_series(prec), to_series_by_long_division(f, prec)
        assert (got.num, got.den, got.prec) == (want.num, want.den, want.prec), (
            f, prec)
        return got

    def test_matches_long_division(self):
        # negative numerator orders, integer leads and constant terms other
        # than +-1, non-cyclotomic denominators, and precisions at or below
        # 0, at or below the numerator's order, and far above it
        rng = random.Random(29)
        seen = set()
        for _ in range(400):
            f = rand_scalar(rng, size=rng.randint(1, 4))
            o = f.v_order()
            prec = rng.choice([rng.randint(-8, 0), (o or 0) - rng.randint(0, 3),
                               rng.randint(1, 20), rng.randint(60, 120)])
            self._same_series(f, prec)
            if o is not None:
                seen |= {("neg", o < 0), ("lead", abs(f.num[o]) > 1),
                         ("c0", abs(f.den[0]) > 1), ("cyc", f.cyc is None),
                         ("prec<=0", prec <= 0), ("prec<=ord", prec <= o),
                         ("large", prec >= 60)}
        assert {("neg", True), ("lead", True), ("c0", True), ("cyc", True),
                ("prec<=0", True), ("prec<=ord", True),
                ("large", True)} <= seen

    def test_edge_shapes(self):
        # zero, a polynomial, a pure v-power denominator, an order at prec
        cases = [(ExactScalar.zero(), 5), (Q(-2) * 3 + 1, 1),
                 (ExactScalar({-3: 4}, {0: 6}), -2),
                 (ExactScalar({2: 5}, {0: 3, 1: 1}), 2),
                 (ExactScalar({2: 5}, {0: 3, 1: 1}), 3),
                 (ExactScalar({-1: 2}, {0: -3, 2: 7}), 150)]
        for f, prec in cases:
            self._same_series(f, prec)


class TestRationalReconstruct:
    """`rational_reconstruct` in integers against Euclid over Fractions:
    the same ExactScalar, or None where the oracle gives None."""

    @staticmethod
    def _same(series):
        got = scalars.rational_reconstruct(series)
        want = rational_reconstruct_fractions(series)
        if want is None:
            assert got is None, series
        else:
            assert got is not None, series
            assert (got.num, got.den, got.cyc) == (want.num, want.den,
                                                   want.cyc)
        return got

    @pytest.mark.parametrize("order, height, failing", [(60, 2, 7),
                                                         (100, 3, 6)])
    def test_ai2_matrix_entries(self, order, height, failing):
        # every series entry of Q_lam up to the height, failures included:
        # order 60 is too short for 7 entries at height 2 (so verify runs
        # AI2 at 100), and at order 100 the height-3 labels (1, 2) and
        # (2, 1) have three entries each that neither reconstructs
        from macpoly.cases import build_case

        case = build_case("AI2", order=order)
        seen = failed = 0
        for lam in case.restricted.grid(height):
            for row in case.matrix_q(lam):
                for entry in row:
                    for c in entry.terms.values():
                        if isinstance(c, SeriesScalar):
                            seen += 1
                            failed += self._same(c) is None
        assert seen > 50 and failed == failing

    def test_random_fractions(self):
        # products of Phi_k over integer leads, and one non-cyclotomic
        # denominator, expanded to an order that recovers them
        rng = random.Random(47)
        dens = [scalars._cyc_dict(sorted({(k, rng.randint(1, 2)) for k in
                                          rng.sample(range(1, 13), 3)}),
                                  rng.choice([1, 2, 3]))
                for _ in range(8)]
        dens.append({0: 3, 1: -1, 4: 2})
        assert cyclotomic.phi_factors(dens[-1]) is None
        for den in dens:
            for _ in range(5):
                num = {rng.randint(-3, 6): rng.randint(-9, 9)
                       for _ in range(rng.randint(1, 5))}
                x = ExactScalar(num, den)
                if x.is_zero():
                    continue
                span = max(x.num) - min(x.num) + max(x.den)
                got = self._same(x.to_series(x.v_order() + 2 * span + 10))
                assert got == x

    def test_edges(self):
        # zero; a negative lowest order; a series too short for half >= 1
        assert self._same(SeriesScalar.zero(20)).is_zero()
        x = ExactScalar({-3: 2, -1: -1}, {0: 1, 3: -1})
        assert self._same(x.to_series(30)) == x
        assert self._same(x.to_series(-3 + 7)) is None


class TestAgainstSympy:
    """Q(v) arithmetic and reduction against sympy.cancel on random input."""

    @staticmethod
    def _check(op):
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


def _lp_pow(p, n):
    out = {0: 1}
    for _ in range(n):
        out = scalars._lp_mul(out, p)
    return out


def _gcd_op(op, a, b):
    """op(a, b) from unreduced numerator and denominator, by the gcd."""
    mul = scalars._lp_mul
    if op == "mul":
        return gcd_route(mul(a.num, b.num), mul(a.den, b.den))
    if op == "div":
        return gcd_route(mul(a.num, b.den), mul(a.den, b.num))
    bn = b.num if op == "add" else scalars._lp_neg(b.num)
    return gcd_route(scalars._lp_add(mul(a.num, b.den), mul(bn, a.den)),
                      mul(a.den, b.den))


def _consistent(x):
    """den is normalised and, where cyc is known, equals lead * prod Phi_k^e."""
    assert min(x.den) == 0 and x.den[max(x.den)] > 0
    if x.cyc is not None:
        assert x.cyc == tuple(sorted(x.cyc)) and all(e > 0 for _, e in x.cyc)
        assert scalars._cyc_dict(x.cyc, x.den[max(x.den)]) == x.den


class TestCyclotomicHelpers:
    def test_polynomials_against_sympy(self):
        v = sympy.Symbol("v")
        for k in range(1, 61):
            coeffs = sympy.Poly(sympy.cyclotomic_poly(k, v), v).all_coeffs()[::-1]
            assert list(cyclotomic.product_coeffs([(k, 1)])) == [
                int(c) for c in coeffs], k

    def test_k_bound(self):
        for k in range(1, 3000):
            assert k <= cyclotomic.k_bound(cyclotomic.totient(k)), k

    def test_factors(self):
        rng = random.Random(4)
        for _ in range(40):
            pairs = sorted({rng.randint(1, 70): rng.randint(1, 3)
                            for _ in range(rng.randint(0, 4))}.items())
            lead = rng.randint(1, 5)
            assert cyclotomic.phi_factors(scalars._cyc_dict(pairs, lead)) \
                == tuple(pairs)
        # palindromic but not a product of cyclotomic polynomials
        assert cyclotomic.phi_factors({0: 1, 4: -1, 12: 2, 20: -1, 24: 1}) is None
        assert cyclotomic.phi_factors({0: 1, 1: 3, 2: 1}) is None

    def test_multiplicity(self):
        p = scalars._lp_mul(scalars._cyc_dict([(3, 2), (12, 3)]), {-2: 5, 1: 1})
        al, lo = scalars._lp_to_list(p)
        assert cyclotomic.phi_multiplicity(al, lo, 3, 9) == 2
        assert cyclotomic.phi_multiplicity(al, lo, 12, 9) == 3
        assert cyclotomic.phi_multiplicity(al, lo, 12, 2) == 2
        assert cyclotomic.phi_multiplicity(al, lo, 4, 9) == 0


class TestCyclotomicMemo:
    """The product and factorisation tables of `cyclotomic`."""

    @staticmethod
    def _searches(monkeypatch):
        """Empty tables, and the list of the polynomials the uncached
        factor search is run on from now, as sorted items."""
        monkeypatch.setattr(cyclotomic, "_FACTORS", {})
        monkeypatch.setattr(cyclotomic, "_PRODUCTS", {})
        calls, search = [], cyclotomic._search_factors

        def counted(p):
            calls.append(tuple(sorted(p.items())))
            return search(p)

        monkeypatch.setattr(cyclotomic, "_search_factors", counted)
        return calls

    def test_factors_ignore_insertion_order(self, monkeypatch):
        calls = self._searches(monkeypatch)
        p = scalars._cyc_dict([(2, 1), (3, 2), (10, 1)], 3)
        flipped = dict(reversed(list(p.items())))
        assert list(flipped) != list(p)
        want = ((2, 1), (3, 2), (10, 1))
        assert cyclotomic.phi_factors(p) == cyclotomic.phi_factors(
            flipped) == want
        assert len(calls) == 1

    def test_none_is_kept_apart_from_empty(self, monkeypatch):
        calls = self._searches(monkeypatch)
        odd = {0: 1, 4: -1, 12: 2, 20: -1, 24: 1}
        for _ in range(2):
            assert cyclotomic.phi_factors(odd) is None
            assert cyclotomic.phi_factors({0: 3}) == ()
        assert len(calls) == 2
        assert cyclotomic._FACTORS == {tuple(sorted(odd.items())): None,
                                       ((0, 3),): ()}

    def test_one_variable_searches_once_per_polynomial(self, monkeypatch):
        from macpoly.cli import run_verify

        calls = self._searches(monkeypatch)
        for base in ("BII:n=2", "BII:n=3", "CII:n=3"):
            for s in range(3):
                _, status = run_verify("%s,s=%d" % (base, s), height=2)
                assert status == 0
        assert len(set(calls)) == len(calls) <= 70


class TestCyclotomicReduction:
    """Gcd-free reduction over cyclotomic denominators against the gcd
    route and sympy.cancel."""

    @staticmethod
    def _strategies():
        st = hypothesis.strategies
        # 1 +- v^k, Phi_k and 1 - q^k t^m with q = v^2 and t = q^s
        binomial = st.builds(lambda s, k: {0: 1, k: s},
                             st.sampled_from([1, -1]), st.integers(1, 12))
        phi = st.integers(1, 36).map(lambda k: scalars._cyc_dict([(k, 1)]))
        qt = st.builds(lambda k, m, s: {0: 1, 2 * (k + s * m): -1},
                       st.integers(0, 3), st.integers(1, 2), st.integers(1, 3))
        factor = st.one_of(binomial, phi, qt)
        powers = st.lists(st.tuples(factor, st.integers(1, 3)), max_size=3)

        def product(first, rest):
            out = _lp_pow(*first)
            for f, e in rest:
                out = scalars._lp_mul(out, _lp_pow(f, e))
            return out

        # at least one factor with multiplicity >= 2
        den_part = st.builds(product, st.tuples(factor, st.integers(2, 3)), powers)
        laurent = st.dictionaries(st.integers(-3, 3), st.integers(-5, 5),
                                  min_size=1, max_size=3)

        @st.composite
        def scalar(draw):
            den = draw(den_part)
            content = draw(st.integers(1, 6)) * draw(st.sampled_from([1, -1]))
            shift = draw(st.integers(-3, 3))
            den = {e + shift: c * content for e, c in den.items()}
            num = draw(laurent)
            if draw(st.booleans()):  # share factors with the denominator
                num = scalars._lp_mul(num, draw(den_part))
            num = {e: c * draw(st.integers(1, 4)) for e, c in num.items()}
            return num, den

        return scalar()

    @pytest.mark.parametrize("op", ["add", "sub", "mul", "div"])
    def test_operation(self, op):
        v = sympy.Symbol("v")
        scalar = self._strategies()

        def to_sympy(x):
            # (num, den) as sympy polynomials, both shifted by one v-power
            s = -min(0, min(x.num, default=0), min(x.den))
            return tuple(sympy.Poly.from_dict({(e + s,): c for e, c in d.items()}, v)
                         for d in (x.num, x.den))

        def apply(p, q):
            (pn, pd), (qn, qd) = p, q
            if op == "mul":
                return pn * qn, pd * qd
            if op == "div":
                return pn * qd, pd * qn
            return pn * qd + (qn if op == "add" else -qn) * pd, pd * qd

        @hypothesis.settings(max_examples=40, deadline=None, database=None)
        @hypothesis.given(scalar, scalar)
        def run(x, y):
            a, b = ExactScalar(*x), ExactScalar(*y)
            for z, (num, den) in ((a, x), (b, y)):
                ref = gcd_route(num, den)
                assert (z.num, z.den) == (ref.num, ref.den)
                assert z.cyc is not None
                _consistent(z)
            if op == "div" and b.is_zero():
                return
            got = getattr(operator, op if op != "div" else "truediv")(a, b)
            ref = _gcd_op(op, a, b)
            assert (got.num, got.den) == (ref.num, ref.den)
            _consistent(got)
            # the value, by cross-multiplication in sympy's polynomial ring
            (gn, gd), (wn, wd) = to_sympy(got), apply(to_sympy(a), to_sympy(b))
            assert (gn * wd - wn * gd).is_zero
            # round trips whose last step must cancel the other operand's
            # factors
            if b.is_zero():
                return
            if op in ("add", "sub"):
                back = got - b if op == "add" else got + b
            else:
                back = got / b if op == "mul" else got * b
            assert (back.num, back.den, back.cyc) == (a.num, a.den, a.cyc)

        run()

    def test_sum_of_products(self):
        rng = random.Random(8)
        pool = [ExactScalar(*pair) for pair in [
            ({0: 1, 2: -1}, {0: 1, 4: -1}), ({1: 3}, scalars._cyc_dict([(4, 2)], 2)),
            ({0: 2}, {0: 3}), ({0: -1, 6: 1}, scalars._cyc_dict([(2, 1), (6, 2)])),
            ({-1: 1, 1: 1}, scalars._cyc_dict([(1, 1), (4, 1), (12, 1)], 5))]]
        for _ in range(30):
            products = [tuple(rng.choice(pool) for _ in range(rng.randint(1, 3)))
                        for _ in range(rng.randint(1, 6))]
            want = ExactScalar.zero()
            for factors in products:
                term = ExactScalar.one()
                for f in factors:
                    term = term * f
                want = want + term
            got = exact_sum_of_products(products)
            assert got == want
            _consistent(got)

    def test_inexact_list_division_raises(self):
        # the gcd route divides by a primitive gcd, where every step of the
        # long division is exact over the integers; a step that is not
        # raises instead of leaving Z
        with pytest.raises(ArithmeticError):
            ExactScalar._exact_list_div({0: 1, 1: 1}, [1, 2], 0)
        assert ExactScalar._exact_list_div({0: 1, 2: -4}, [1, 2], 0) == \
            {0: 1, 1: -2}

    def test_non_cyclotomic_divisor_takes_the_counted_fallback(self, monkeypatch):
        calls = []
        gcd = scalars._lp_gcd

        def counted(a, b):
            calls.append(1)
            return gcd(a, b)

        monkeypatch.setattr(scalars, "_lp_gcd", counted)
        p = ExactScalar({24: 1, 20: -1, 12: 2, 4: -1, 0: 1})
        y = ExactScalar({0: 1, 2: 1}, scalars._cyc_dict([(1, 1), (8, 2)], 3))
        assert not calls
        # the divisor's numerator is no product of Phi_k: the gcd reduces
        x = (y * p) / p
        assert calls
        assert (x.num, x.den, x.cyc) == (y.num, y.den, y.cyc)
        z = y / p
        assert z.cyc is None and z.den == scalars._lp_mul(y.den, p.num)
        _consistent(z)
        assert z * p == y and (z + y) - y == z


class TestSharedDenominators:
    """A value over known factors reads its denominator from `(cyc, lead)`:
    one shared dict per pair, which no operation changes."""

    @staticmethod
    def _pool(rng):
        pool = [ExactScalar.from_int(3), V(-2, Fraction(5, 6)),
                ExactScalar({0: 1, 2: 1}, {0: 3, 1: -1, 4: 2})]
        for _ in range(12):
            pairs = sorted({rng.randint(1, 12): rng.randint(1, 2)
                            for _ in range(rng.randint(1, 3))}.items())
            num = {rng.randint(-3, 4): rng.randint(-5, 5)
                   for _ in range(rng.randint(1, 3))}
            pool.append(ExactScalar(num, scalars._cyc_dict(
                pairs, rng.choice([1, 2, 6]))))
        return [x for x in pool if not x.is_zero()]

    def test_equal_factors_share_one_den(self):
        one = ExactScalar.one()
        assert one.den is ExactScalar.zero().den is ExactScalar.from_int(7).den
        assert (ExactScalar.from_fraction(Fraction(2, 3)).den
                is V(4, Fraction(-1, 3)).den is ExactScalar({1: 5}, {0: -3}).den)
        x = ExactScalar({0: 2}, {0: 1, 2: -1})  # 2 / (1 - v^2)
        y = ExactScalar({1: 1}, {0: 1, 1: 1}) * ExactScalar({0: 4}, {0: 2, 1: -2})
        z = one / ExactScalar({0: 1, 1: -1}) + one / ExactScalar({0: 1, 1: 1})
        assert x.cyc == y.cyc == z.cyc == ((1, 1), (2, 1))
        assert x.den is y.den is z.den
        assert exact_sum_of_products([(x, x), (y,)]).den is (x * x + y).den

    def test_random_operations_leave_the_table_as_built(self):
        rng = random.Random(33)
        pool = self._pool(rng)
        seen = []
        for _ in range(300):
            a, b = rng.choice(pool), rng.choice(pool)
            op = rng.choice([operator.add, operator.sub, operator.mul,
                             operator.truediv])
            got = op(a, b)
            seen.append(got)
            if not got.is_zero() and len(pool) < 40:
                pool.append(got)
        assert {x.cyc is None for x in seen} == {True, False}
        for x in seen:
            if x.cyc is not None:
                assert x.den is scalars._DENS[x.cyc, x.den[max(x.den)]]
        for (cyc, lead), den in scalars._DENS.items():
            assert den == scalars._cyc_dict(cyc, lead), (cyc, lead)

    @pytest.mark.parametrize("num, den", [
        ({0: 6, 3: -4}, {0: -8}),        # negative lead, content 2
        ({-2: 9}, {2: -6}),              # a monomial over a negative one
        ({1: -5, 2: 10}, {-1: -15}),
        ({0: 4}, {0: 6, 1: -2, 4: 4}),   # monomials over 2 (3 - v + 2 v^4)
        ({3: -1}, {1: 1, 2: 3, 3: 1}),   # v (1 + 3 v + v^2)
        ({-1: 6}, {0: -9, 2: 3, 5: -3}),
    ])
    def test_constructor_matches_the_gcd_route(self, num, den):
        got, ref = ExactScalar(num, den), gcd_route(num, den)
        assert (got.num, got.den) == (ref.num, ref.den)
        assert got.cyc == (() if len(den) == 1 else None)
        _consistent(got)

    @pytest.mark.parametrize("op", ["add", "sub", "mul", "div"])
    def test_mixed_operands_match_the_gcd_route(self, op):
        rng = random.Random(34)
        pool = self._pool(rng)
        fn = getattr(operator, op if op != "div" else "truediv")
        mixed = 0
        for a in pool:
            for b in pool:
                if (a.cyc is None) == (b.cyc is None):
                    continue
                mixed += 1
                got, ref = fn(a, b), _gcd_op(op, a, b)
                assert (got.num, got.den) == (ref.num, ref.den), (a, b)
                _consistent(got)
        assert mixed >= 20
