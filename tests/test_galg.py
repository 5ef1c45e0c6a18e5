import random

from macpoly.galg import GAElement, MatGAElement, ga_from_json, solve_linear
from macpoly.roots import build_root_datum
from macpoly.scalars import ExactScalar

Q = ExactScalar.q_power
ONE = ExactScalar.one()


def mono(e, c=None, lat="X"):
    return GAElement.monomial(e, lat, c)


def rand_elem(rng, rank=2, lat="X"):
    out = GAElement.zero(lat)
    for _ in range(rng.randint(1, 4)):
        e = tuple(rng.randint(-3, 3) for _ in range(rank))
        c = ExactScalar.v_power(rng.randint(-2, 2), rng.randint(-3, 3))
        out = out + mono(e, c, lat)
    return out


class TestRing:
    def test_product_support(self):
        rng = random.Random(2)
        for _ in range(20):
            f, g = rand_elem(rng), rand_elem(rng)
            fg = f * g
            mink = {tuple(a + b for a, b in zip(e1, e2))
                    for e1 in f.support() for e2 in g.support()}
            assert fg.support() <= mink

    def test_commutative(self):
        rng = random.Random(3)
        for _ in range(20):
            f, g = rand_elem(rng), rand_elem(rng)
            assert f * g == g * f

    def test_lattice_mismatch(self):
        import pytest

        with pytest.raises(ValueError):
            mono((1,), lat="X") + mono((1,), lat="2L")


class TestStructureMaps:
    def test_constant_term(self):
        d = build_root_datum("A", 2)
        orbit = d.weyl_orbit((1, 0))
        m = GAElement({e: ONE for e in orbit}, "X")
        assert m.constant_term().is_zero()
        sq = (mono((1,)) + mono((-1,))).lattice  # smoke: 1-dim lattice tag
        f = GAElement({(1,): ONE, (-1,): ONE}, sq)
        assert (f * f).constant_term() == 2

    def test_simple_reflection_on_monomial(self):
        d = build_root_datum("A", 2)
        f = mono((1, 0))
        img = f.weyl_act(lambda e: d.reflect(0, e))
        assert img == mono((-1, 1))  # s_1 w_1 = w_1 - a_1 = w_2 - w_1

    def test_weyl_act_is_ring_map(self):
        d = build_root_datum("A", 2)
        rng = random.Random(4)
        for _ in range(10):
            f, g = rand_elem(rng), rand_elem(rng)
            act = lambda e: d.reflect(0, e)
            lhs = (f * g).weyl_act(act)
            rhs = f.weyl_act(act) * g.weyl_act(act)
            assert lhs == rhs

    def test_ct_invariant_under_weyl(self):
        d = build_root_datum("A", 2)
        rng = random.Random(6)
        for _ in range(10):
            f = rand_elem(rng)
            g = f.weyl_act(lambda e: d.act_word((0, 1), e))
            assert f.constant_term() == g.constant_term()

    def test_shift_act(self):
        d = build_root_datum("A", 2)
        # (-rho) shift of e^{w1} in A2 is q^{-1} e^{w1}; doubled pairing -2
        f = mono((1, 0))
        shifted = f.shift_act(lambda e: -d.pair_two_rho(e))
        assert shifted.terms[(1, 0)] == Q(-1)

    def test_shift_composition(self):
        rng = random.Random(8)
        d = build_root_datum("A", 2)
        p1 = lambda e: d.pair_two_rho(e)
        p2 = lambda e: 3 * e[0] - e[1]
        for _ in range(10):
            f = rand_elem(rng)
            lhs = f.shift_act(p1).shift_act(p2)
            rhs = f.shift_act(lambda e: p1(e) + p2(e))
            assert lhs == rhs

    def test_involutions(self):
        f = mono((1, 0), Q(1))
        assert f.invol_zero().terms[(1, 0)] == Q(-1)
        g = mono((1, 0)) + mono((-1, 0))
        assert g.invol_inv() == g
        rng = random.Random(9)
        for _ in range(10):
            h = rand_elem(rng)
            assert h.bar_full().bar_full() == h
            assert h.invol_zero().invol_zero() == h

    def test_json_roundtrip(self):
        rng = random.Random(10)
        for _ in range(10):
            f = rand_elem(rng)
            assert ga_from_json(f.to_json(), f.lattice) == f


class TestDivision:
    def test_exact(self):
        rng = random.Random(11)
        for _ in range(25):
            f, g = rand_elem(rng), rand_elem(rng)
            if g.is_zero():
                continue
            prod = f * g
            assert prod.exact_div(g) == f

    def test_inexact_raises(self):
        import pytest

        f = mono((1, 0)) + mono((0, 0))
        g = mono((2, 0)) + mono((0, 0))
        with pytest.raises(ArithmeticError):
            g.exact_div(f * f)


class TestLinearSolve:
    def test_solve_random(self):
        import pytest

        rng = random.Random(12)
        overdetermined = 0
        for _ in range(15):
            n = rng.randint(1, 4)
            # up to two extra rows: basis expansions send such systems
            rows = n + rng.randint(0, 2)
            A = [[ExactScalar.v_power(rng.randint(-1, 1), rng.randint(-3, 3))
                  for _ in range(n)] for _ in range(rows)]
            x = [ExactScalar.v_power(rng.randint(-1, 1), rng.randint(-3, 3))
                 for _ in range(n)]
            b = []
            for i in range(rows):
                acc = ExactScalar.zero()
                for j in range(n):
                    acc = acc + A[i][j] * x[j]
                b.append(acc)
            try:
                sol = solve_linear(A, b)
            except ArithmeticError:
                continue
            assert len(sol) == n and all(s == t for s, t in zip(sol, x))
            overdetermined += rows > n
        assert overdetermined
        one = ExactScalar.one()
        with pytest.raises(ArithmeticError, match="inconsistent"):
            solve_linear([[one], [one]], [one, ExactScalar.from_int(2)])


class TestMatrix:
    def test_identity(self):
        I = MatGAElement.identity(3, "X", 2)
        assert (I * I) == I
