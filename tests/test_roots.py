import itertools
import random

import pytest

from macpoly.roots import (
    RestrictedSystem,
    RootDatum,
    build_root_datum,
    central_scalar,
    freudenthal,
    weyl_character,
)
from macpoly.scalars import ExactScalar

Q = ExactScalar.q_power


class TestRootDatum:
    def test_a2_cartan(self):
        d = build_root_datum("A", 2)
        assert d.pair_simple(0, d.alpha_coords[1]) == -1
        assert d.pair_two_rho(d.fundamental_weight(0)) == 2

    def test_b2_two_rho(self):
        d = build_root_datum("B", 2)
        assert d.eps == (2, 1)
        assert d.pair_two_rho(d.alpha_coords[1]) == 2 * d.eps[1]

    def test_d4_orbit_size(self):
        d = build_root_datum("D", 4)
        assert len(d.weyl_orbit(d.fundamental_weight(0))) == 8

    def test_a2_orbit_of_first_fundamental(self):
        d = build_root_datum("A", 2)
        assert d.weyl_orbit((1, 0)) == {(1, 0), (-1, 1), (0, -1)}
        assert d.weyl_orbit(d.zero) == {(0, 0)}
        assert len(build_root_datum("B", 2).weyl_orbit((0, 1))) == 4

    def test_all_types_build(self):
        for series, rank in [("A", 1), ("A", 5), ("B", 3), ("C", 3),
                             ("D", 4), ("E", 6), ("F", 4), ("G", 2)]:
            d = build_root_datum(series, rank)
            n_pos = len(d.positive_roots())
            assert 2 * n_pos == len(set().union(
                *[d.weyl_orbit(a) for a in d.alpha_coords]))

    def test_unknown_type(self):
        with pytest.raises(ValueError):
            build_root_datum("Z", 2)
        with pytest.raises(ValueError):
            build_root_datum("E", 9)

    def test_braid_and_involution(self):
        rng = random.Random(5)
        for series, rank in [("A", 2), ("B", 2), ("C", 3), ("D", 4)]:
            d = build_root_datum(series, rank)
            for _ in range(10):
                x = tuple(rng.randint(-4, 4) for _ in range(rank))
                for i in range(rank):
                    assert d.reflect(i, d.reflect(i, x)) == x
                    for j in range(rank):
                        if i != j and d.A[i][j] * d.A[j][i] == 1:
                            lhs = d.act_word((i, j, i), x)
                            rhs = d.act_word((j, i, j), x)
                            assert lhs == rhs

    def test_dominance(self):
        d = build_root_datum("A", 2)
        w1, w2 = d.fundamental_weight(0), d.fundamental_weight(1)
        lam = (1, 1)
        assert d.dominance_leq(lam, lam)
        assert d.dominance_leq((0, 0), lam)  # w1 + w2 = alpha1 + alpha2
        assert not d.dominance_leq(w1, w2)
        assert not d.dominance_leq(w2, w1)

    def test_reflection_word(self):
        d = build_root_datum("D", 4)
        beta = next(r for r in d.positive_roots()
                    if d.height(r) == max(d.height(s) for s in d.positive_roots()))
        word = d.reflection_word(beta)
        # s_beta(beta) = -beta and s_beta^2 = id
        assert d.act_word(word, beta) == tuple(-c for c in beta)
        x = (1, -2, 0, 3)
        assert d.act_word(word, d.act_word(word, x)) == x

    def test_w0_permutes_fundamentals(self):
        d = build_root_datum("A", 2)
        # -w0 acts as the diagram flip on A2
        w1 = d.fundamental_weight(0)
        anti = d.dominant_rep(tuple(-c for c in w1))
        assert anti == d.fundamental_weight(1)


class TestFreudenthal:
    def test_a2_fundamental(self):
        d = build_root_datum("A", 2)
        t = freudenthal(d, (1, 0))
        assert t.dim() == 3
        assert all(m == 1 for m in t.mult.values())

    def test_a2_adjoint(self):
        d = build_root_datum("A", 2)
        t = freudenthal(d, (1, 1))
        assert t.dim() == 8
        assert t.mult[(0, 0)] == 2

    def test_outside_hull(self):
        d = build_root_datum("A", 2)
        t = freudenthal(d, (1, 0))
        assert (5, 5) not in t.mult

    def test_w_invariance(self):
        d = build_root_datum("B", 2)
        t = freudenthal(d, (1, 1))
        for nu, m in t.mult.items():
            for i in range(2):
                assert t.mult[d.reflect(i, nu)] == m

    def test_against_weyl_character(self):
        for series, rank in [("A", 2), ("B", 2), ("A", 3)]:
            d = build_root_datum(series, rank)
            lams = [lam for lam in
                    [(1, 0), (0, 1), (1, 1), (2, 0), (2, 1)][: 4 + rank]
                    if len(lam) == rank or rank != 2]
            if rank == 3:
                lams = [(1, 0, 0), (0, 1, 0), (1, 0, 1)]
            for lam in lams:
                if d.weyl_dim(lam) > 200:
                    continue
                t = freudenthal(d, lam)
                ch = weyl_character(d, lam)
                assert t.mult == ch, (series, rank, lam)


class TestCentralScalar:
    def test_trivial(self):
        d = build_root_datum("A", 2)
        val, central = central_scalar(d, (0, 0), (0, 0))
        assert val.is_one()

    def test_a2_zero_weight(self):
        d = build_root_datum("A", 2)
        val, central = central_scalar(d, (0, 0), (1, 1))
        # sum over the 8 weights of the adjoint rep of q^{-<2rho, nu>}
        t = freudenthal(d, (1, 1))
        expected = ExactScalar.zero()
        for nu, m in t.mult.items():
            expected = expected + ExactScalar.q_power(-d.pair_two_rho(nu), m)
        assert val == expected
        assert central  # 2 h_{w1+w2} = 2(h1+h2) lies in Y

    def test_spectrum_separation(self):
        d = build_root_datum("A", 2)
        val0, _ = central_scalar(d, (0, 0), (1, 1))
        val1, _ = central_scalar(d, (1, 1), (1, 1))
        assert val0 != val1

    def test_nonintegral_rejected(self):
        d = build_root_datum("A", 2)
        with pytest.raises(ValueError):
            central_scalar(d, (1, 0), (1, 0))


class TestRestrictedSystem:
    def test_rank1_order(self):
        r = RestrictedSystem(1)
        keys = [r.order_key((m,)) for m in (0, 1, -1, 2, -2)]
        assert keys == sorted(keys)

    def test_rank2_orbits(self):
        r = RestrictedSystem(2)
        assert len(r.weyl_orbit((1, 0))) == 3
        assert len(r.weyl_orbit((1, 1))) == 6

    def test_dominance(self):
        r = RestrictedSystem(2)
        assert r.dominance_leq((0, 0), (1, 1))
        assert not r.dominance_leq((1, 0), (0, 1))

    def test_dominant_below(self):
        r = RestrictedSystem(2)
        below = r.dominant_below((1, 1))
        assert (0, 0) in below and (1, 1) in below
        assert all(r.order_key(mu) <= r.order_key((1, 1)) for mu in below)
        below = r.dominant_below((2, 2))
        assert (1, 1) in below and (0, 0) in below

    def test_min_coset_length(self):
        r = RestrictedSystem(2)
        assert r.min_coset_length((1, 1)) == 0
        assert r.min_coset_length((-1, -1)) == 3

    @pytest.mark.parametrize("rank", [1, 2])
    def test_agrees_with_type_a_datum(self, rank):
        r, d = RestrictedSystem(rank), build_root_datum("A", rank)
        assert isinstance(r, RootDatum)
        for x in itertools.product(range(-5, 6), repeat=rank):
            for i in range(rank):
                assert r.reflect(i, x) == d.reflect(i, x)
                assert r.is_dominant(x, (i,)) == d.is_dominant(x, (i,))
            assert r.dominant_rep(x) == d.dominant_rep(x)
            assert r.is_dominant(x) == d.is_dominant(x)
            assert r.weyl_orbit(x) == d.weyl_orbit(x)

    def test_positive_root_order(self):
        # the weight factors, and so the weight-cache keys, follow this order
        assert RestrictedSystem(1)._positive_roots() == ((2,),)
        r = RestrictedSystem(2)
        assert r._positive_roots() == ((2, -1), (-1, 2), (1, 1))
        assert sorted(r._positive_roots()) == list(r.positive_roots())

    def test_grid(self):
        assert RestrictedSystem(1).grid(2) == [(0,), (1,), (2,)]
        assert RestrictedSystem(2).grid(2) == [(0, 0), (0, 1), (0, 2), (1, 0),
                                               (1, 1), (2, 0)]
