import itertools

import pytest

from macpoly.cases import (
    build_case,
    kravchuk_consistency,
    kravchuk_eigen,
    kravchuk_orthogonality_denominator,
    parse_case_id,
    qkrawtchouk,
)
from macpoly.families import aw_oracle
from macpoly.galg import GAElement
from macpoly.roots import regularity_scalar
from macpoly.scalars import ExactScalar

Q = ExactScalar.q_power


class TestCaseIds:
    def test_parse(self):
        assert parse_case_id("BII:n=2,s=1") == ("BII", {"n": 2, "s": 1})
        assert parse_case_id("AI2") == ("AI2", {})

    def test_unknown(self):
        with pytest.raises(ValueError):
            build_case("ZII:n=2")

    def test_bad_rank(self):
        with pytest.raises(ValueError):
            build_case("CII:n=2,s=0")
        with pytest.raises(ValueError):
            build_case("DII:n=1")


class TestRestrictedCoordinates:
    # per case, one ambient weight off 2L: a non-integral or an out-of-span one
    OFF = {"A2G": (1, 0, 0, 0), "AII5": (1, 0, 0, 0, 0), "AI2": (1, 0),
           "DII:n=2": (1, 0), "BII:n=2,s=1": (0, 1)}

    @pytest.mark.parametrize("cid", sorted(OFF))
    def test_round_trip(self, cid):
        satake = build_case(cid).satake
        r = len(satake.pi_vectors)
        for c in itertools.product(range(-3, 4), repeat=r):
            assert satake.to_restricted(satake.from_restricted(c)) == c
        assert satake.to_restricted(self.OFF[cid]) is None


class TestBottomData:
    @pytest.mark.parametrize("cid", ["AI2", "A2G", "AII5", "DII:n=2",
                                     "DII:n=3", "BII:n=2,s=1", "CII:n=3,s=1"])
    def test_normalised_at_one(self, cid):
        case = build_case(cid)
        case.bottom_restrictions()

    def test_dii_patterns(self, ):
        case = build_case("DII:n=3")
        # one bottom restricts by identity weights, the other by the
        # involution-reflected weights
        for mu, f in case.bottom_weights[1]:
            assert f == GAElement.monomial(mu, f.lattice)
        for mu, f in case.bottom_weights[0]:
            assert f == GAElement.monomial(case.satake.theta(mu), f.lattice)

    def test_bii_zero_parameter_trivial(self):
        case = build_case("BII:n=2,s=0")
        for mu, f in case.bottom_weights[0]:
            assert f == GAElement.monomial(mu, f.lattice)


class TestMatrixWeights:
    @pytest.mark.parametrize("cid", ["AI2", "A2G", "AII5", "DII:n=2",
                                     "DII:n=3", "BII:n=2,s=2", "CII:n=3,s=2"])
    def test_matches_golden(self, cid):
        case = build_case(cid)
        res = case.matrix_weight_check()
        assert res["status"] == "pass", res

    @pytest.mark.parametrize("cid", ["AI2", "A2G", "DII:n=2", "BII:n=2,s=1"])
    def test_symmetries(self, cid):
        case = build_case(cid)
        res = case.weight_symmetry_check()
        assert res["status"] == "pass", res

    def test_dii_bottom_swap_is_theta(self):
        case = build_case("DII:n=3")
        M = case.matrix_weight()
        assert M[0, 1] == M[1, 0].invol_inv()
        assert M[0, 0] == M[1, 1]

    def test_negative_control(self):
        # a wrong conjugation preset must break the transpose symmetry test:
        # conjugating an off-diagonal entry by q -> 1/q only is not enough
        case = build_case("DII:n=3")
        M = case.matrix_weight()
        tampered = M[0, 1].scale(Q(1))
        assert not (tampered.invol_inv() - M[1, 0]).is_zero()


class TestRatioIdentity:
    @pytest.mark.parametrize("cid", ["DII:n=2", "DII:n=3", "A2G", "AII5", "AI2"])
    def test_identity(self, cid):
        case = build_case(cid)
        res = case.delta0_identity_check()
        assert res["status"] == "pass", res
        # one calibrated constant per column, all equal
        diag = res["calibrated_diagonal"]
        assert len(set(diag)) == 1

    def test_displayed_rank1_form(self):
        # cross-multiplied form of the displayed one-variable ratio:
        # ratio * (q^{1-n} e - q^{n-1} e^{-1}) = q^{1-n} (e - e^{-1})
        case = build_case("DII:n=3")
        n = 3
        num, den = case.delta0()
        lhs_num = GAElement.monomial((1,), case.lattice, Q(1 - n)) - \
            GAElement.monomial((-1,), case.lattice, Q(n - 1))
        rhs_num = (GAElement.monomial((1,), case.lattice) -
                   GAElement.monomial((-1,), case.lattice)).scale(Q(1 - n))
        # num/den == rhs_num/lhs_num as rational functions
        assert num * lhs_num == rhs_num * den


class TestMatrixFamily:
    def test_q0_identity(self):
        for cid in ["DII:n=2", "A2G"]:
            case = build_case(cid)
            case.set_grid_height(1)
            Q0 = case.matrix_q(case.restricted.zero)
            nb = len(case.bottoms)
            from macpoly.galg import MatGAElement

            assert Q0 == MatGAElement.identity(nb, case.lattice, case.rank)

    def test_dii_first_column(self):
        case = build_case("DII:n=2")
        case.set_grid_height(2)
        col = case.vector_member(1, (1,)).slots
        expected0 = GAElement.monomial((0,), case.lattice,
                                       -(ExactScalar.one() / (Q(1) + Q(-1))))
        assert col[0] == expected0
        assert col[1] == case.m_of((1,))

    def test_diagonal_leading_terms(self):
        case = build_case("A2G")
        case.set_grid_height(2)
        lam = (1, 1)
        Qm = case.matrix_q(lam)
        for b in range(3):
            diag = Qm[b, b]
            assert diag.terms[lam].is_one()

    def test_diagonal_entries_invariant(self):
        case = build_case("AII5")
        case.set_grid_height(2)
        Qm = case.matrix_q((1, 0))
        for b in range(3):
            f = Qm[b, b]
            for i in range(2):
                assert f.weyl_act(lambda e: case.restricted.reflect(i, e)) == f

    def test_pairing_symmetry(self):
        # with the exponent-flip conjugation and the reflection-symmetric
        # weight matrix, the vector pairing is symmetric
        import random

        case = build_case("A2G")
        case.set_grid_height(2)
        rng = random.Random(5)
        for _ in range(6):
            u = [GAElement.monomial((rng.randint(-2, 2), rng.randint(-2, 2)),
                                    case.lattice, Q(rng.randint(-2, 2)))
                 for _ in range(3)]
            w = [GAElement.monomial((rng.randint(-2, 2), rng.randint(-2, 2)),
                                    case.lattice, Q(rng.randint(-2, 2)))
                 for _ in range(3)]
            assert case._vector_pair(u, w) == case._vector_pair(w, u)

    def test_specialisation_at_v_one(self):
        # weight-matrix entries specialise to nonnegative integers at v = 1
        from fractions import Fraction

        def at_one(c):
            return Fraction(sum(c.num.values()), sum(c.den.values()))

        for cid in ("DII:n=3", "A2G", "AII5"):
            case = build_case(cid)
            M = case.matrix_weight()
            for i in range(M.size):
                for j in range(M.size):
                    val = at_one(M[i, j].evaluate_at_one())
                    assert val.denominator == 1 and val >= 0, (cid, i, j)
            # the diagonal specialises to the dimension of the bottom module
            diag = at_one(M[0, 0].evaluate_at_one())
            assert diag == len(case.bottom_weights[0])


class TestIdentification:
    def test_dii_grid(self):
        case = build_case("DII:n=2")
        case.set_grid_height(3)
        for m in (0, 1, -1, 2):
            res = case.identify((m,))
            assert res["status"] == "pass", res

    def test_a2g_t_bijection_monotone(self):
        case = build_case("A2G")
        # t^{-1} monotone: ambient dominance comparability transports to the
        # restricted construction order
        R = case.restricted
        mus = [mu for mu in [(x, y) for x in range(-3, 4) for y in range(0, 4)]
               if R.is_dominant(mu, case.J)]
        for mu1 in mus:
            for mu2 in mus:
                b1, l1 = case.t_map(mu1)
                b2, l2 = case.t_map(mu2)
                if (b1, l1) == (b2, l2):
                    assert mu1 == mu2
                    continue
                if case._dominated(b1, l1, b2, l2) and (b1, l1) != (b2, l2):
                    assert R.order_key(mu1) < R.order_key(mu2), (mu1, mu2)

    def test_bii_quotients_are_oracle(self):
        for s in (0, 1, 2):
            case = build_case("BII:n=3,s=%d" % s)
            case.set_grid_height(3)
            for m in range(4):
                Qm = case.matrix_q((m,))
                assert (Qm[0, 0] - aw_oracle(case.aw, m, case.lattice)).is_zero()


class TestKravchuk:
    @pytest.mark.parametrize("cid", ["BII:n=2,s=3", "BII:n=3,s=2",
                                     "CII:n=3,s=3", "CII:n=4,s=2"])
    def test_eigenpairs(self, cid):
        case = build_case(cid)
        assert kravchuk_consistency(case)
        s = case.extra["s"]
        evs = []
        for i in range(s + 1):
            r = kravchuk_eigen(case, i)
            assert r["residual_zero"], (cid, i)
            assert r["nonzero"]
            evs.append(r["eigenvalue"])
        for i in range(len(evs)):
            for j in range(i):
                assert not (evs[i] - evs[j]).is_zero()

    def test_s_zero(self):
        case = build_case("BII:n=2,s=0")
        r = kravchuk_eigen(case, 0)
        assert r["residual_zero"] and len(r["vector"]) == 1

    def test_orthogonality_sum_nonzero(self):
        for s in (1, 2, 3):
            case = build_case("CII:n=3,s=%d" % s)
            for i in range(s + 1):
                assert not kravchuk_orthogonality_denominator(case, i).is_zero()

    def test_kravchuk_polynomial_values(self):
        # degree-0 member is 1; the sum truncates at the index
        assert qkrawtchouk(0, Q(2), -Q(2), 3).is_one()
        v = qkrawtchouk(1, Q(0), -Q(4), 2)
        assert not v.is_zero()


class TestRegularity:
    def test_empty_sequence(self):
        # the empty pair leaves every h regular
        case = build_case("AI2")
        rep = regularity_scalar(case.satake, (), ())
        assert rep["C"].is_one() and rep["regular"]

    def test_single_root_symbolic(self):
        case = build_case("AI2")
        rep = regularity_scalar(case.satake, ((),), (0,))
        pref, aff = rep["C"]
        assert pref.is_one()
        # exponent -<h, 2 alpha_1>: coefficients -2 a_{i,1}
        assert aff.coeffs == (-4, 2)
        assert rep["exceptional"] is not None

    def test_numeric_values(self):
        case = build_case("AI2")
        # on the exceptional locus R = 1; off it, regular
        on = regularity_scalar(case.satake, ((),), (0,), h=(0, 0))
        assert on["R"].is_one() and not on["regular"]
        off = regularity_scalar(case.satake, ((),), (0,), h=(1, 0))
        assert off["regular"]

    def test_cyclic_product(self):
        case = build_case("AI2")
        two = regularity_scalar(case.satake, ((), ()), (0, 1), h=(2, 1))
        c1 = regularity_scalar(case.satake, ((), ()), (0, 1), h=(2, 1))["C"]
        c2 = regularity_scalar(case.satake, ((), ()), (1, 0), h=(2, 1))["C"]
        assert two["R"] == c1 * c2


class TestRecurrence:
    @pytest.mark.parametrize("cid,lam", [("DII:n=2", (1,)), ("DII:n=3", (0,)),
                                         ("A2G", (0, 0))])
    def test_expansion(self, cid, lam):
        case = build_case(cid)
        case.set_grid_height(sum(abs(x) for x in lam) + 2)
        rep = case.recurrence_coeffs(0, lam)
        assert rep["residual_zero"]
        assert rep["steps_in_weights"]
        assert rep["top_nonzero"]


class TestCaches:
    def test_engines_follow_order(self):
        # engines, family specs and vector members are cached per order, so
        # changing the order never returns an object built at the old one
        case = build_case("AI2")
        case.order = 20
        nabla, delta = case.nabla_engine(4), case.delta_engine(4)
        spec = case.family_spec(4)
        case.order = 30
        assert case.nabla_engine(4) is not nabla
        assert case.nabla_engine(4).order == 30
        assert case.delta_engine(4) is not delta
        assert case.delta_engine(4).order == 30
        assert case.family_spec(4) is not spec
        assert case.family_spec(4).engine_sym.order == 30
        case.order = 20
        assert case.nabla_engine(4) is nabla

    def test_vector_members_follow_order(self):
        case = build_case("DII:n=2")
        case.set_grid_height(1)
        member = case.vector_member(0, (1,))
        case.order = 40
        assert case.vector_member(0, (1,)) is not member


class TestMomentPairing:
    """The moment-table pairing against the materialised-product oracle."""

    @staticmethod
    def _random_vectors(case, rng, count):
        den = ExactScalar.one() + Q(1)
        out = []
        for _ in range(count):
            vec = []
            for _ in case.bottoms:
                f = GAElement.zero(case.lattice)
                for _ in range(rng.randint(0, 2)):
                    e = tuple(rng.randint(-2, 2) for _ in range(case.rank))
                    c = Q(rng.randint(-2, 2))
                    if rng.random() < 0.5:
                        c = c / den
                    f = f + GAElement.monomial(e, case.lattice, c)
                vec.append(f)
            out.append(vec)
        return out

    @pytest.mark.parametrize("cid", ["A2G", "AII5", "DII:n=2"])
    def test_matches_materialised_products(self, cid):
        import itertools
        import random

        case = build_case(cid)
        case.set_grid_height(2)
        eng = case.nabla_engine(case._vector_hint())
        assert eng._exact_product is not None
        M = case.matrix_weight()
        if case.rank == 1:
            grid = [(m,) for m in range(3)]
        else:
            grid = [(x, y) for x in range(3) for y in range(3 - x)]
        members = [case.vector_member(b, lam).slots
                   for lam in grid for b in range(len(case.bottoms))]
        for u, w in itertools.combinations_with_replacement(members, 2):
            assert (eng.vector_pair_moments(u, M, w) ==
                    eng.vector_pair_products(u, M, w))
        rng = random.Random(11)
        vecs = self._random_vectors(case, rng, 8) + rng.sample(members, 4)
        for u in vecs:
            for w in vecs:
                assert (eng.vector_pair_moments(u, M, w) ==
                        eng.vector_pair_products(u, M, w))

    def test_exact_engine_takes_moment_route(self):
        case = build_case("A2G")
        case.set_grid_height(1)
        eng = case.nabla_engine(case._vector_hint())
        u = [case.m_of((1, 0)), case.one(), GAElement.zero(case.lattice)]
        assert not eng._moments
        case._vector_pair(u, u)
        assert len(eng._moments) == 1
