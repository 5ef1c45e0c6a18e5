import itertools
import random

import pytest

from macpoly.roots import (
    RestrictedSystem,
    RootDatum,
    build_root_datum,
    central_scalar,
    freudenthal,
)
from macpoly.scalars import ExactScalar

from oracles import central_scalar_chained, weyl_character

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
                             ("D", 4)]:
            d = build_root_datum(series, rank)
            n_pos = len(d.positive_roots())
            assert 2 * n_pos == len(set().union(
                *[d.weyl_orbit(a) for a in d.alpha_coords]))

    def test_unknown_type(self):
        # the cases are of types A-D; the exceptional series are not built
        for series, rank in [("Z", 2), ("E", 6), ("E", 9), ("F", 4),
                             ("G", 2)]:
            with pytest.raises(ValueError,
                               match="unknown series %r" % series):
                build_root_datum(series, rank)

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
        assert sum(t.values()) == 3
        assert all(m == 1 for m in t.values())

    def test_a2_adjoint(self):
        d = build_root_datum("A", 2)
        t = freudenthal(d, (1, 1))
        assert sum(t.values()) == 8
        assert t[(0, 0)] == 2

    def test_outside_hull(self):
        d = build_root_datum("A", 2)
        t = freudenthal(d, (1, 0))
        assert (5, 5) not in t

    def test_w_invariance(self):
        d = build_root_datum("B", 2)
        t = freudenthal(d, (1, 1))
        for nu, m in t.items():
            for i in range(2):
                assert t[d.reflect(i, nu)] == m

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
                assert t == ch, (series, rank, lam)


def _box_weights(datum, lam):
    """`is_weight` on a box one step beyond the convex hull of W lam, which
    holds every weight of the module."""
    m = max(abs(c) for x in datum.orbit(tuple(lam)) for c in x) + 1
    return {mu for mu in itertools.product(range(-m, m + 1), repeat=datum.rank)
            if datum.is_weight(lam, mu)}


# every (case, generator) pair whose multiplier module verify's recurrence
# check tests steps against
MULTIPLIER_CASES = (
    [(c, i) for c in ("A2G", "AII5", "AI2") for i in (0, 1)]
    + [("DII:n=%d" % n, 0) for n in (2, 3, 4)]
    + [("BII:n=%d,s=%d" % (n, s), 0) for n in (2, 3) for s in range(3)]
    + [("CII:n=3,s=%d" % s, 0) for s in range(3)])


class TestIsWeight:
    """The saturation test against Freudenthal's support."""

    @pytest.mark.parametrize("cid, i", MULTIPLIER_CASES)
    def test_multiplier_modules(self, cid, i):
        from macpoly.cases import build_case

        case = build_case(cid)
        pi = tuple(int(k == i) for k in range(case.rank))
        hw = case.satake.from_restricted(pi)
        assert _box_weights(case.datum, hw) == set(freudenthal(case.datum, hw))

    @pytest.mark.parametrize("series, rank, lams", [
        ("B", 3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1)]),
        ("C", 3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)]),
        ("D", 4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 0, 0, 1)]),
    ])
    def test_small_highest_weights(self, series, rank, lams):
        d = build_root_datum(series, rank)
        for lam in lams:
            assert _box_weights(d, lam) == set(freudenthal(d, lam)), lam

    def test_non_dominant_highest_weight_raises(self):
        d = build_root_datum("A", 2)
        with pytest.raises(ValueError, match="dominant"):
            freudenthal(d, (1, -1))


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
        for nu, m in t.items():
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

    @pytest.mark.parametrize("case_id, lams, mus", [
        # AI2's central_spectrum grid and columns
        ("AI2", [(0, 0), (1, 1), (3, 0), (0, 3)], [(1, 0), (1, 1)]),
        # pairs of weights on A2G's A2xA2; a lam with (1, 0) in the factor
        # that mu moves gives non-integral exponents, which both routes
        # refuse
        ("A2G", [a + b for a in [(0, 0), (1, 1), (3, 0), (1, 0)]
                 for b in [(0, 0), (1, 1), (0, 3)]],
         [(1, 0, 0, 0), (0, 0, 0, 1), (1, 1, 0, 0), (1, 0, 1, 0)]),
    ])
    def test_matches_chained_sums(self, case_id, lams, mus):
        from macpoly.cases import build_case

        d = build_case(case_id).datum
        refused = 0
        for mu in mus:
            for lam in lams:
                try:
                    want = central_scalar_chained(d, lam, mu)
                except ValueError:
                    refused += 1
                    with pytest.raises(ValueError):
                        central_scalar(d, lam, mu)
                    continue
                got = central_scalar(d, lam, mu)
                assert got == want, (lam, mu)
                assert (got[0].den, got[0].cyc) == (want[0].den, want[0].cyc)
        assert refused < len(lams) * len(mus)

    def test_one_table_per_highest_weight(self, monkeypatch):
        # AI2's central_spectrum asks for 8 scalars over 2 highest weights:
        # the multiplicity recursion runs once per highest weight
        import macpoly.roots as roots
        from macpoly.cli import run_verify

        calls = []
        fresh = roots.freudenthal

        def counted(datum, lam):
            calls.append(lam)
            return fresh(datum, lam)

        monkeypatch.setattr(roots, "freudenthal", counted)
        report, status = run_verify("AI2", height=0)
        assert status == 0
        assert [c["status"] for c in report["checks"]
                if c["name"] == "central_spectrum"] == ["pass"]
        assert sorted(calls) == [(1, 0), (1, 1)]

    def test_shared_table_is_read_only(self):
        d = build_root_datum("A", 2)
        table = d.multiplicities((1, 1))
        assert isinstance(table, tuple)
        assert d.multiplicities((1, 1)) is table
        assert dict(table) == freudenthal(d, (1, 1))


def _dominance_by_fractions(d, mu, lam):
    """mu <= lam read off the Fraction root coordinates; the oracle of the
    integer-only `dominance_leq`."""
    coords = d.alpha_expansion(tuple(a - b for a, b in zip(lam, mu)))
    return all(c.denominator == 1 and c >= 0 for c in coords)


class TestIntegerDominance:
    def test_matches_fraction_oracle(self):
        from macpoly.cases import build_case

        data = {"B2": build_root_datum("B", 2)}
        for cid in ["AI2", "A2G", "AII5", "DII:n=2", "DII:n=3", "BII:n=2,s=1",
                    "BII:n=3,s=1", "CII:n=3,s=1"]:
            case = build_case(cid)
            data[cid] = case.datum
            data[cid + " restricted"] = case.restricted
        # both sides depend on lam - mu alone, so pairs (mu, mu + diff) from
        # one base point mu cover every pair of the box of radius 4 at rank
        # <= 3, where diff runs over the box of radius 8; above, diff runs
        # over the box of radius 4
        denominators = set()
        for name, d in data.items():
            radius = 8 if d.rank <= 3 else 4
            mu = tuple((-1) ** i * (i % 3) for i in range(d.rank))
            for diff in itertools.product(range(-radius, radius + 1),
                                          repeat=d.rank):
                lam = tuple(a + b for a, b in zip(mu, diff))
                assert (d.dominance_leq(mu, lam)
                        == _dominance_by_fractions(d, mu, lam)), (name, diff)
            denominators.add(d._alpha_inverse_int()[0])
        # D > 1 is exercised, including D = 6 (A5); no Cartan matrix of
        # types A-D has determinant 1, so D = 1 is not
        assert denominators >= {2, 3, 4, 6}


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

    @pytest.mark.parametrize("rank", [1, 2])
    def test_order_key_walk_is_shortest(self, rank):
        # the walk ends at the dominant point of x's orbit after as many
        # steps as the shortest Weyl word taking x there has letters
        r = RestrictedSystem(rank)
        words = sorted(r.weyl_elements(), key=len)
        for x in itertools.product(range(-6, 7), repeat=rank):
            w = next(w for w in words if r.is_dominant(r.act_word(w, x)))
            assert r.order_key(x)[1:3] == (r.act_word(w, x), len(w)), x

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
