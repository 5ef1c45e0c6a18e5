import dataclasses
import itertools
import math
import random
import re
from fractions import Fraction

import pytest

from macpoly import cases, families, galg
from macpoly.cases import (
    build_case,
    kravchuk_consistency,
    kravchuk_eigen,
    kravchuk_orthogonality_denominator,
    parse_case_id,
    qkrawtchouk,
)
from macpoly.families import AWFunctional, PolyFamilySpec, aw_oracle
from macpoly.galg import GAElement, solve_linear
from macpoly.roots import regularity_scalar
from macpoly.scalars import ExactScalar, SeriesScalar, q_number

from oracles import (
    aw_reduce,
    ct_norm,
    delta0_rows_by_complements,
    recurrence_by_projection,
    vector_pair_products,
    weight_coefficient_sum,
)

Q = ExactScalar.q_power


class TestCaseIds:
    def test_parse(self):
        assert parse_case_id("BII:n=2,s=1") == ("BII", {"n": 2, "s": 1})
        assert parse_case_id("AI2") == ("AI2", {})

    @pytest.mark.parametrize("cid, missing", [("CII", "n, s"),
                                              ("BII:s=1", "n"),
                                              ("DII", "n")])
    def test_missing_parameter(self, cid, missing):
        # every parameter is named in the id; none has a default
        with pytest.raises(ValueError, match="missing parameter %s$"
                           % missing):
            parse_case_id(cid)

    def test_derived_fields(self):
        case = build_case("BII:n=3,s=2")
        assert case.extra == {"n": 3, "s": 2}
        assert case.lattice == "2L:BII:n=3,s=2"
        assert case.restricted is case.satake.restricted

    def test_unknown(self):
        with pytest.raises(ValueError):
            build_case("ZII:n=2")

    @pytest.mark.parametrize("cid", ["AI2:n=5", "A2G:s=0", "BII:n=2,n=3",
                                     "BII:n=2,s=0,t=1", "DII:s=1", "BII:n=2,"])
    def test_unknown_or_repeated_parameter(self, cid):
        with pytest.raises(ValueError, match="parameter"):
            parse_case_id(cid)

    @pytest.mark.parametrize("cid, key, value", [("BII:n=2,s=-1", "s", "-1"),
                                                 ("BII:n=2,s=x", "s", "x"),
                                                 ("DII:n=", "n", "")])
    def test_bad_parameter_value(self, cid, key, value):
        with pytest.raises(ValueError, match="case [A-Z]+: %s must be an "
                           "integer >= 0, got '%s'" % (key, value)):
            parse_case_id(cid)

    def test_bad_rank(self):
        with pytest.raises(ValueError):
            build_case("CII:n=2,s=0")
        with pytest.raises(ValueError):
            build_case("DII:n=1")

    def test_dii_spin_orbit_bound(self, monkeypatch, capsys):
        # DII:n has 2^(n-1) spin weights, refused over the Freudenthal
        # bound before any is enumerated
        import macpoly.cases as cases
        from macpoly.cli import main

        def no_work(*args):
            raise AssertionError("the root datum was built")

        monkeypatch.setattr(cases, "build_root_datum", no_work)
        with pytest.raises(ValueError, match="2\\^\\(n-1\\) <= 12000"):
            build_case("DII:n=15")
        assert main(["verify", "--case", "DII:n=15"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        # the bound is where the orbit outgrows it
        monkeypatch.undo()
        monkeypatch.setattr(cases, "FREUDENTHAL_DIM_BOUND", 4)
        assert build_case("DII:n=3").tag == "DII:n=3"
        with pytest.raises(ValueError):
            build_case("DII:n=4")


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
        assert case.bottom_normalisation_check() == {"status": "pass"}

    # DII:n=2 with every bottom weight scaled by 2
    SCALED = """
import dataclasses
from macpoly.cases import build_case
from macpoly.scalars import ExactScalar
case = build_case("DII:n=2")
two = ExactScalar.from_int(2)
case = dataclasses.replace(case, bottom_weights=[
    [(mu, f.scale(two)) for mu, f in entries]
    for entries in case.bottom_weights])
result = case.bottom_normalisation_check()
"""

    WANT = {"status": "fail",
            "detail": "bottom 0, weight (1, 0): restriction is 2 at 1, not 1"}

    def test_scaled_bottom_fails(self):
        # a failed check, not an error
        names = {}
        exec(self.SCALED, names)
        assert names["result"] == self.WANT

    def test_scaled_bottom_fails_without_asserts(self):
        # the check does not rest on `assert`, so `python -O` keeps it
        import json
        import os
        import subprocess
        import sys

        import macpoly

        src = os.path.dirname(os.path.dirname(macpoly.__file__))
        code = self.SCALED + (
            "import json, sys\n"
            "print(json.dumps([sys.flags.optimize, result]))\n")
        done = subprocess.run([sys.executable, "-O", "-c", code],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, check=True)
        assert json.loads(done.stdout) == [1, self.WANT]

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


class TestSatakeCheck:
    """`SatakeDatum.check` raises a ValueError naming the failed condition."""

    @pytest.mark.parametrize("change, message", [
        ({"theta_rows": ((1, 1), (0, 1))},
         r"Theta is not an involution: Theta\^2 moves \(0, 1\)"),
        ({"theta_rows": ((1, 0), (0, 1))},
         r"Theta is not -1 on 2L at \(1, 1\)"),
        ({"wsigma_words": ((),)},
         r"restricted reflection 0 mismatch at \(1, 1\)"),
    ])
    def test_failed_condition_is_named(self, change, message):
        satake = build_case("DII:n=2").satake
        assert satake.check() is None
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(satake, **change).check()

    def test_raises_without_asserts(self):
        # the check does not rest on `assert`, so `python -O` keeps it
        import json
        import os
        import subprocess
        import sys

        import macpoly

        src = os.path.dirname(os.path.dirname(macpoly.__file__))
        code = (
            "import dataclasses, json, sys\n"
            "from macpoly.cases import build_case\n"
            "satake = build_case('DII:n=2').satake\n"
            "bad = dataclasses.replace(satake, theta_rows=((1, 0), (0, 1)))\n"
            "try:\n"
            "    result = ['returned', bad.check()]\n"
            "except ValueError as exc:\n"
            "    result = ['ValueError', str(exc)]\n"
            "print(json.dumps([sys.flags.optimize, result]))\n")
        done = subprocess.run([sys.executable, "-O", "-c", code],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, check=True)
        assert json.loads(done.stdout) == [
            1, ["ValueError", "Theta is not -1 on 2L at (1, 1)"]]


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
        M = case.matrix_weight
        assert M[0][1] == M[1][0].invol_inv()
        assert M[0][0] == M[1][1]

    def test_negative_control(self):
        # a wrong conjugation preset must break the transpose symmetry test:
        # conjugating an off-diagonal entry by q -> 1/q only is not enough
        case = build_case("DII:n=3")
        M = case.matrix_weight
        tampered = M[0][1].scale(Q(1))
        assert not (tampered.invol_inv() - M[1][0]).is_zero()


RATIO_CASES = ["DII:n=2", "DII:n=3", "A2G", "AII5", "AI2"]


class TestRatioIdentity:
    @pytest.mark.parametrize("cid", RATIO_CASES)
    def test_identity(self, cid):
        case = build_case(cid)
        res = case.delta0_identity_check()
        assert res["status"] == "pass", res
        # one calibrated constant per column, all equal
        diag = res["calibrated_diagonal"]
        assert len(set(diag)) == 1

    @pytest.mark.parametrize("cid", RATIO_CASES)
    def test_rows_match_per_word_loop(self, cid):
        case = build_case(cid)
        rows = case.delta0_rows()
        want = delta0_rows_by_complements(case)
        assert len(rows) == len(want) == len(case.gamma_basis)
        for row, want_row in zip(rows, want):
            assert len(row) == len(want_row)
            for m, w in zip(row, want_row):
                assert m == w

    @pytest.mark.parametrize("cid", RATIO_CASES)
    def test_tampered_parameter_fails(self, cid):
        case = build_case(cid)
        tampered = dataclasses.replace(case, t=case.t * Q(1))
        assert tampered.delta0_identity_check()["status"] == "fail"

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
            Q0 = case.matrix_q(case.restricted.zero)
            nb = len(case.bottoms)
            one = GAElement.one(case.lattice, case.rank)
            zero = GAElement.zero(case.lattice)
            assert len(Q0) == nb and all(len(row) == nb for row in Q0)
            for i, row in enumerate(Q0):
                for j, entry in enumerate(row):
                    assert entry == (one if i == j else zero), (cid, i, j)

    def test_dii_first_column(self):
        case = build_case("DII:n=2")
        col = case.vector_member(1, (1,))
        expected0 = GAElement.monomial((0,), case.lattice,
                                       -(ExactScalar.one() / (Q(1) + Q(-1))))
        assert col[0] == expected0
        assert col[1] == case.m_of((1,))

    def test_diagonal_leading_terms(self):
        case = build_case("A2G")
        lam = (1, 1)
        Qm = case.matrix_q(lam)
        for b in range(3):
            diag = Qm[b][b]
            assert diag.terms[lam].is_one()

    def test_diagonal_entries_invariant(self):
        case = build_case("AII5")
        Qm = case.matrix_q((1, 0))
        for b in range(3):
            f = Qm[b][b]
            for i in range(2):
                assert f.map_exponents(
                    lambda e: case.restricted.reflect(i, e)) == f

    def test_pairing_symmetry(self):
        # with the exponent-flip conjugation and the reflection-symmetric
        # weight matrix, the vector pairing is symmetric
        import random

        case = build_case("A2G")
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
            M = case.matrix_weight
            for i, row in enumerate(M):
                for j, entry in enumerate(row):
                    val = at_one(entry.evaluate_at_one())
                    assert val.denominator == 1 and val >= 0, (cid, i, j)
            # the diagonal specialises to the dimension of the bottom module
            diag = at_one(M[0][0].evaluate_at_one())
            assert diag == len(case.bottom_weights[0])


class TestIdentification:
    def test_dii_grid(self):
        case = build_case("DII:n=2")
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
                x1, x2 = case._label(b1, l1)[0], case._label(b2, l2)[0]
                if case.datum.dominance_leq(x1, x2) and (b1, l1) != (b2, l2):
                    assert R.order_key(mu1) < R.order_key(mu2), (mu1, mu2)

    @pytest.mark.parametrize("cid", ["A2G", "AII5", "AI2"])
    def test_rank2_grid_is_t_map_preimage(self, cid):
        from macpoly.cli import _identify_grid

        case = build_case(cid)
        for H in range(1, 5):
            grid = _identify_grid(case, H)
            images = [case.t_map(mu) for mu in grid]
            assert sorted(images) == [
                (b, lam) for b in range(len(case.bottoms))
                for lam in case.restricted.grid(H - 1)]

    def test_bii_quotients_are_oracle(self):
        for s in (0, 1, 2):
            case = build_case("BII:n=3,s=%d" % s)
            for m in range(4):
                Qm = case.matrix_q((m,))
                assert (Qm[0][0] - aw_oracle(case.aw, m, case.lattice)).is_zero()


def _dense_gamma_expansion(case, f):
    """Coefficients of f over the gamma basis by one dense solve over every
    m_d g_y with d of height <= the top height of f + 2; oracle of the
    triangular peeling."""
    H = max((case.restricted.order_key(e)[0] for e in f.support()),
            default=0) + 2
    cols, labels = [], []
    for yi, g in enumerate(case.gamma_basis):
        for d in case.restricted.grid(H):
            cols.append(case.m_of(d) * g)
            labels.append((yi, d))
    support = set(f.support())
    for c in cols:
        support |= c.support()
    support = sorted(support)
    zero = ExactScalar.zero()
    rows = [[c.terms.get(e, zero) for c in cols] for e in support]
    sol = solve_linear(rows, [f.terms.get(e, zero) for e in support])
    out = [GAElement.zero(case.lattice) for _ in case.gamma_basis]
    for (yi, d), c in zip(labels, sol):
        out[yi] = out[yi] + case.m_of(d).scale(c)
    return out


def _j_labels(case, H):
    """Every J-dominant label whose dominant representative has height2 <= H."""
    R = case.restricted
    box = range(-2 * H - 2, 2 * H + 3)
    return sorted(mu for mu in itertools.product(box, repeat=R.rank)
                  if R.is_dominant(mu, case.J)
                  and R.height2(R.dominant_rep(mu)) <= H)


class TestGammaPeel:
    """Triangular peeling over the gamma basis against the dense solve."""

    @pytest.mark.parametrize("cid,H,order", [("A2G", 3, 60), ("AII5", 3, 60),
                                             ("AI2", 1, 72), ("DII:n=2", 3, 60)])
    def test_matches_dense_solve(self, cid, H, order):
        case = build_case(cid, order=order)
        spec = case.family_spec
        for mu in _j_labels(case, H):
            P = spec.family_member(case.J, mu)
            peeled = case.expand_in_gamma_basis(P)
            dense = _dense_gamma_expansion(case, P)
            for a, b in zip(peeled, dense):
                assert a.support() == b.support(), (cid, mu)
                for e, c in a.terms.items():
                    assert (c - b.terms[e]).is_zero(), (cid, mu, e)
                    if isinstance(c, SeriesScalar):
                        assert c.prec == b.terms[e].prec

    @pytest.mark.parametrize("cid", ["A2G", "AII5", "AI2", "DII:n=2",
                                     "BII:n=2,s=1"])
    def test_recovers_random_coefficients(self, cid):
        case = build_case(cid)
        rng = random.Random(11)
        doms = case.restricted.grid(3)
        for _ in range(6):
            coeffs = {}
            f = GAElement.zero(case.lattice)
            for yi, g in enumerate(case.gamma_basis):
                for d in rng.sample(doms, rng.randint(1, 3)):
                    c = ExactScalar.from_fraction(
                        Fraction(rng.choice([-3, -2, -1, 1, 2, 3]),
                                 rng.randint(1, 4)))
                    coeffs[(yi, d)] = c
                    f = f + (case.m_of(d) * g).scale(c)
            H = max(case.restricted.order_key(e)[0] for e in f.support()) + 2
            assert case._gamma_peel(f, H) == coeffs
            got = case.expand_in_gamma_basis(f)
            for yi in range(len(case.gamma_basis)):
                want = GAElement.zero(case.lattice)
                for (y, d), c in coeffs.items():
                    if y == yi:
                        want = want + case.m_of(d).scale(c)
                assert got[yi] == want

    @pytest.mark.parametrize("exponent", [(1, -1), (0, -2)])
    def test_non_j_dominant_input_raises(self, exponent):
        case = build_case("A2G")
        f = GAElement.monomial(exponent, case.lattice)
        named = re.escape("e.g. %s" % (exponent,))
        with pytest.raises(ArithmeticError, match=named):
            case.expand_in_gamma_basis(f)
        # an invariant part on top is peeled off first
        with pytest.raises(ArithmeticError, match=named):
            case.expand_in_gamma_basis(
                f + case.m_of((1, 1)) * case.gamma_basis[1])

    def test_missing_orbit_partner_raises(self):
        # (1, 1) is J-dominant, but its J-orbit partner (2, -1) is missing
        case = build_case("A2G")
        f = GAElement.monomial((1, 1), case.lattice)
        with pytest.raises(ArithmeticError, match="not W_J-invariant"):
            case.expand_in_gamma_basis(f)

    def test_top_above_table_raises(self):
        case = build_case("A2G")
        f = case.m_of((2, 1)) * case.gamma_basis[2]
        top = case._top_j_dominant(f.terms)
        with pytest.raises(ArithmeticError, match=re.escape(
                "exponent %s has no gamma-basis column" % (top,))):
            case._gamma_peel(f, 1)
        assert case._gamma_peel(f, 3) == {(2, (2, 1)): ExactScalar.one()}

    def test_lead_clash_raises(self):
        case = build_case("DII:n=2")
        case = dataclasses.replace(
            case, gamma_basis=case.gamma_basis + case.gamma_basis[:1])
        with pytest.raises(ArithmeticError, match=re.escape(
                "columns (0, (0,)) and (2, (0,)) share the lead")):
            case.expand_in_gamma_basis(case.one())


def _identify_labels(case, H):
    from macpoly.cli import _identify_grid

    return _identify_grid(case, H)


def _phi_root(d):
    """A root of Phi_d in GF(p) for a prime d dividing p - 1."""
    p = galg.GF_P
    for a in itertools.count(2):
        x = pow(a, (p - 1) // d, p)
        if x != 1:
            return x


_unperturbed = cases.ExampleCase.vector_member


class TestGammaImage:
    """`identify` through the column's gamma-image, against the peel of the
    Gram-Schmidt-built J-member, the route of series J-pairings and the
    oracle here."""

    @pytest.mark.parametrize("cid,H", [
        ("A2G", 3), ("AII5", 3), ("DII:n=2", 3), ("DII:n=3", 3),
        ("BII:n=2,s=1", 2), ("CII:n=3,s=2", 2)])
    def test_matches_peel_route(self, cid, H):
        new, old = build_case(cid), build_case(cid)
        old.family_spec.exact = lambda J: False  # the peel, as on AI2
        for h in range(1, H + 1):
            for mu in _identify_labels(new, h):
                got, want = new.identify(mu), old.identify(mu)
                assert got["status"] == want["status"] == "pass", (cid, mu)
                assert got["column"] == want["column"], (cid, mu)
                assert got["constant"] == want["constant"], (cid, mu)
        J = new.J
        assert new.family_spec._certified[J]
        assert J not in old.family_spec._certified

    def test_series_pairing_keeps_the_peel(self):
        case = build_case("AI2")
        spec = case.family_spec
        assert not case.delta_engine.exact and not spec.exact(case.J)
        for mu in _identify_labels(case, 1):
            assert case.identify(mu)["status"] == "pass"
        assert not spec._grams and not spec._certified
        assert case.J in spec._families

    @pytest.mark.parametrize("cid", [
        "A2G", "AII5", "AI2", "DII:n=2", "DII:n=3", "BII:n=2,s=0",
        "BII:n=3,s=2", "CII:n=3,s=1"])
    def test_below_sets_nest(self, cid):
        # one certificate over the longest below-set serves every label
        case = build_case(cid)
        R = case.restricted
        for H in range(1, 4):
            belows = [families.j_dominant_below(R, case.J, mu)
                      for mu in _identify_labels(case, H)]
            longest = max(belows, key=len)
            assert longest == sorted(longest, key=R.order_key)
            for below in belows:
                assert below == longest[:len(below)], (cid, H)

    @staticmethod
    def _with_column_added(monkeypatch, mu, extra):
        """identify(mu) on A2G with extra(case), a list of slots, added to
        mu's column."""
        case = build_case("A2G")
        assert case.identify(mu)["status"] == "pass"
        target = case.t_map(mu)

        def perturbed(self, b_idx, lam):
            col = _unperturbed(self, b_idx, lam)
            if (b_idx, tuple(lam)) != target:
                return col
            return [c + d for c, d in zip(col, extra(self))]

        monkeypatch.setattr(cases.ExampleCase, "vector_member", perturbed)
        return build_case("A2G").identify(mu)

    def test_lower_member_added_fails_orthogonality(self, monkeypatch):
        mu = (1, 1)
        R = build_case("A2G").restricted
        nu = families.j_dominant_below(R, (1,), mu)[-1]
        res = self._with_column_added(
            monkeypatch, mu,
            lambda case: _unperturbed(case, *case.t_map(nu)))
        assert res["status"] == "fail"
        assert res["detail"] == ("the column's image is not orthogonal to "
                                 "m^J_%s" % (nu,))

    def test_report_says_why_a_label_fails(self, monkeypatch):
        # the perturbation above, through verify: the report keeps the
        # detail, which names the nu, for the failing label alone
        from macpoly.cli import run_verify

        mu = (1, 1)
        R = build_case("A2G").restricted
        nu = families.j_dominant_below(R, (1,), mu)[-1]
        self._with_column_added(
            monkeypatch, mu,
            lambda case: _unperturbed(case, *case.t_map(nu)))
        report, status = run_verify("A2G", height=2)
        assert status == 1
        entry = next(c for c in report["checks"]
                     if c["name"] == "identification")
        assert entry["status"] == "fail"
        assert entry["constants"][str(mu)] is None
        assert entry["failures"] == {
            str(mu): "the column's image is not orthogonal to m^J_%s" % (nu,)}

    @pytest.mark.parametrize("extra", [
        # orthogonal to every lead below (1, 1), but with a J-dominant
        # exponent above it
        lambda case: _unperturbed(case, *case.t_map((2, 1))),
        # e^(0, 1) without its J-orbit partner e^(1, -1): g_0 is 1
        lambda case: [GAElement.monomial((0, 1), case.lattice)
                      if b == case.gamma_bottoms[0]
                      else GAElement.zero(case.lattice) for b in range(3)],
    ], ids=["higher-member", "not-W_J-invariant"])
    def test_column_off_the_j_span_fails(self, monkeypatch, extra):
        res = self._with_column_added(monkeypatch, (1, 1), extra)
        assert res["status"] == "fail"
        assert res["detail"] == ("the column's image is not W_J-invariant "
                                 "over (1, 1) and the labels below it")

    def test_zero_leading_minor_is_refused(self, monkeypatch):
        # <m_1, m_1> set so that the second leading minor vanishes while
        # the Gram stays regular: a pivot search with row swaps would pass
        case = build_case("A2G")
        R, J, lat, mu = case.restricted, case.J, case.lattice, (1, 1)
        x0, x1 = families.j_dominant_below(R, J, mu)[:2]
        m0, m1 = (families.monomial_J(R, J, x, lat).terms for x in (x0, x1))
        pair = PolyFamilySpec.pair

        def tampered(self, f, g, symmetric):
            if f.terms == g.terms == m1:
                a = [[pair(self, GAElement(s, lat), GAElement(t, lat),
                           symmetric) for t in (m0, m1)] for s in (m0, m1)]
                return a[1][0] * a[0][1] / a[0][0]
            return pair(self, f, g, symmetric)

        monkeypatch.setattr(PolyFamilySpec, "pair", tampered)
        case = build_case("A2G")
        with pytest.raises(ArithmeticError, match="no point certifies"):
            case.identify(mu)
        spec, below = case.family_spec, families.j_dominant_below(R, J, mu)
        rows = [[spec._grams[J, x, y] for y in below] for x in below]
        assert solve_linear(rows, [ExactScalar.one()] * len(below))
        assert not spec._certified[J]
        from macpoly.cli import run_verify

        report, rc = run_verify("A2G", 2)
        [ident] = [c for c in report["checks"]
                   if c["name"] == "identification"]
        assert ident["status"] == "error" and rc == 1

    def test_only_prefixes_share_a_certificate(self):
        case = build_case("A2G")
        spec, J = case.family_spec, case.J
        x0, x1 = families.j_dominant_below(case.restricted, J, (1, 1))[:2]
        spec.certify_j_gram(J, [x0, x1])
        spec._grams[J, x1, x1] = ExactScalar.zero()
        spec.certify_j_gram(J, [x0])  # a prefix: certified with [x0, x1]
        with pytest.raises(ArithmeticError, match="no point certifies"):
            spec.certify_j_gram(J, [x1, x0])

    def test_vanishing_denominator_is_retried(self, monkeypatch):
        case = build_case("BII:n=2,s=1")
        root = _phi_root(5)
        labels = _identify_labels(case, 3)
        for mu in labels:
            case.identify(mu)
        spec = case.family_spec
        assert any(galg._mod_p(x, root) is None for x in spec._grams.values())
        below = spec._certified[case.J]
        rows = [[spec._grams[case.J, x, y] for y in below] for x in below]
        monkeypatch.setattr(galg, "GF_POINTS", (root,))
        assert not galg.leading_minors_nonzero(rows)
        with pytest.raises(ArithmeticError, match="no point certifies"):
            build_case("BII:n=2,s=1").identify(labels[-1])
        monkeypatch.setattr(galg, "GF_POINTS", (root, 3))
        assert galg.leading_minors_nonzero(rows)
        fresh = build_case("BII:n=2,s=1")
        assert [fresh.identify(mu) for mu in labels] == [
            case.identify(mu) for mu in labels]


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
            assert isinstance(r["eigenvalue"], ExactScalar)
            evs.append(r["eigenvalue"])
        for i in range(len(evs)):
            for j in range(i):
                assert not (evs[i] - evs[j]).is_zero()

    @staticmethod
    def _tamper(monkeypatch, change):
        """Make every Kravchuk check read data edited by `change`."""
        from macpoly import cases

        real = cases.kravchuk_data

        def data(case):
            d = real(case)
            change(d)
            return d

        monkeypatch.setattr(cases, "kravchuk_data", data)

    @pytest.mark.parametrize("cid,wrong", [
        # BII: a2 = x^2 / disc, with disc dropped
        ("BII:n=2,s=2", lambda d: d["x"] * d["x"]),
        # CII: a2 = x^2, with a spurious [2]_q
        ("CII:n=3,s=2", lambda d: d["x"] * d["x"] * q_number(2, 1))])
    def test_tampered_a2_fails(self, cid, wrong, monkeypatch):
        case = build_case(cid)
        self._tamper(monkeypatch, lambda d: d.update(a2=wrong(d)))
        assert not kravchuk_consistency(case)
        for i in range(case.extra["s"] + 1):
            assert not kravchuk_eigen(case, i)["residual_zero"], i

    @pytest.mark.parametrize("cid", ["BII:n=2,s=2", "CII:n=3,s=2"])
    def test_tampered_c_r_fails(self, cid, monkeypatch):
        case = build_case(cid)
        s = case.extra["s"]

        def change(d):
            c_r = d["c_r"]
            d["c_r"] = lambda r: c_r(r) * 2 if r == s else c_r(r)

        self._tamper(monkeypatch, change)
        assert not kravchuk_consistency(case)
        for i in range(s + 1):
            assert not kravchuk_eigen(case, i)["residual_zero"], i

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
        rep = regularity_scalar(case.satake, ())
        assert rep["C"].is_one() and rep["regular"]

    def test_single_root_symbolic(self):
        case = build_case("AI2")
        rep = regularity_scalar(case.satake, (0,))
        pref, aff = rep["C"]
        assert pref.is_one()
        # exponent -<h, 2 alpha_1>: coefficients -2 a_{i,1}
        assert aff.coeffs == (-4, 2)
        assert rep["exceptional"] is not None

    def test_numeric_values(self):
        case = build_case("AI2")
        # on the exceptional locus R = 1; off it, regular
        on = regularity_scalar(case.satake, (0,), h=(0, 0))
        assert on["R"].is_one() and not on["regular"]
        off = regularity_scalar(case.satake, (0,), h=(1, 0))
        assert off["regular"]

    def test_cyclic_product(self):
        case = build_case("AI2")
        two = regularity_scalar(case.satake, (0, 1), h=(2, 1))
        c1 = regularity_scalar(case.satake, (0, 1), h=(2, 1))["C"]
        c2 = regularity_scalar(case.satake, (1, 0), h=(2, 1))["C"]
        assert two["R"] == c1 * c2


class TestRecurrence:
    @pytest.mark.parametrize("cid,lam", [("DII:n=2", (1,)), ("DII:n=3", (0,)),
                                         ("A2G", (0, 0))])
    def test_expansion(self, cid, lam):
        case = build_case(cid)
        rep = case.recurrence_coeffs(0, lam)
        assert rep["residual_zero"]
        assert rep["steps_in_weights"]
        assert rep["top_nonzero"]

    def test_non_dominant_multiplier_raises(self):
        case = build_case("DII:n=3")
        satake = dataclasses.replace(case.satake, pi_vectors=((-1, 0, 0),))
        bad = dataclasses.replace(case, satake=satake)
        with pytest.raises(ValueError, match=r"\(-1, 0, 0\) is not dominant"):
            bad.recurrence_coeffs(0, (0,))

    @pytest.mark.parametrize("cid, height, order", [
        ("A2G", 2, 60), ("AII5", 2, 60), ("DII:n=3", 2, 60),
        ("BII:n=3,s=2", 2, 60), ("CII:n=3,s=1", 2, 60), ("AI2", 1, 100)])
    def test_peel_matches_projection(self, cid, height, order):
        # the peel against the projection onto every member at or below
        # lam + pi, for each i whose pi is dominant: exact engines give
        # equal coefficients; AI2's series agree to the projection's
        # precision, and its top coefficient is exactly 1
        case = build_case(cid, order=order)
        expansions = 0
        for i in range(case.rank):
            pi = tuple(int(k == i) for k in range(case.rank))
            if not case.datum.is_dominant(case.satake.from_restricted(pi)):
                continue
            for lam in case.restricted.grid(height):
                rep = case.recurrence_coeffs(i, lam)
                want, residual_zero = recurrence_by_projection(case, i, lam)
                assert rep["residual_zero"] and residual_zero
                assert rep["coeffs"].keys() == want.keys()
                top = tuple(a + c for a, c in zip(lam, pi))
                for b, coeffs in rep["coeffs"].items():
                    one = coeffs[b, top]
                    assert type(one) is ExactScalar and one.is_one()
                    if cid != "AI2":
                        assert coeffs == want[b]
                        continue
                    assert coeffs.keys() == want[b].keys()
                    for y, c in coeffs.items():
                        proj = want[b][y]
                        assert getattr(c, "prec", proj.prec) >= proj.prec
                        assert (proj - c).is_zero()
                expansions += 1
        assert expansions == {"A2G": 12, "AII5": 12, "DII:n=3": 3,
                              "BII:n=3,s=2": 3, "CII:n=3,s=1": 3,
                              "AI2": 6}[cid]

    @staticmethod
    def _above_grid(monkeypatch, change):
        """A2G at height 1 with `change(case, member, top)` applied to the
        column-0 member at the top label (0, lam + pi) of verify's
        recurrence, which lies above the grid; verify runs on that case."""
        from macpoly import cli

        case = build_case("A2G", order=60)
        lam = case.restricted.grid(1)[1]
        top = (lam[0] + 1, lam[1])
        assert top not in case.restricted.grid(1)
        change(case, case._family.member((0, top)), top)
        monkeypatch.setattr(cli, "build_case", lambda *a, **k: case)
        report, rc = cli.run_verify("A2G", 1)
        statuses = {c["name"]: c["status"] for c in report["checks"]}
        rec = statuses.pop("recurrence")
        assert set(statuses.values()) == {"pass"}
        return case, lam, top, rec, report, rc

    @pytest.mark.parametrize("lead", [
        ExactScalar.from_int(2), SeriesScalar.one(100)], ids=["2", "series"])
    def test_member_not_one_at_its_lead_raises(self, monkeypatch, lead):
        # 2, or 1 only to a v-order, at the member's lead
        def change_the_lead(case, member, top):
            member[0] = GAElement({**member[0].terms, top: lead},
                                  case.lattice)

        case, lam, top, rec, report, rc = self._above_grid(
            monkeypatch, change_the_lead)
        msg = "A2G recurrence: member (0, %s) is not 1 at its lead" % (top,)
        with pytest.raises(ArithmeticError, match="^%s$" % re.escape(msg)):
            case.recurrence_coeffs(0, lam)
        # verify records the typed error and still writes the report
        assert rec == "error" and rc == 1
        [entry] = [c for c in report["checks"] if c["name"] == "recurrence"]
        assert entry["detail"] == "ArithmeticError: " + msg

    def test_perturbed_member_above_the_grid_fails(self, monkeypatch):
        # one lower coefficient doubled, at an exponent that is no label's
        # lead: the peel leaves it in the residual
        def doubled_below(case, member, top):
            e = next(e for e in member[0].terms
                     if not case.restricted.is_dominant(e))
            member[0] = member[0] + GAElement.monomial(
                e, case.lattice, member[0].terms[e])

        case, lam, top, rec, report, rc = self._above_grid(
            monkeypatch, doubled_below)
        assert not case.recurrence_coeffs(0, lam)["residual_zero"]
        assert rec == "fail" and rc == 1

    def test_target_off_the_labels_leaves_a_residual(self, monkeypatch):
        # one extra monomial e^nu in the product, at a label (0, nu) that
        # is not at or below (0, lam + pi)
        case = build_case("A2G", order=60)
        lam, top, nu = (1, 0), (2, 0), (4, 0)
        assert (0, nu) not in case._vector_downset(0, top) + [(0, top)]
        extra = GAElement.monomial(nu, case.lattice)
        member = PolyFamilySpec.family_member

        class PlusOnce:
            # P_pi, whose first product with a slot gains e^nu
            def __init__(self, P):
                self.P, self.left = P, True

            def __mul__(self, s):
                out, self.left = self.P * s + extra * self.left, False
                return out

        monkeypatch.setattr(PolyFamilySpec, "family_member",
                            lambda self, J, mu: PlusOnce(member(self, J, mu)))
        rep = case.recurrence_coeffs(0, lam)
        assert not rep["residual_zero"]
        assert rep["steps_in_weights"] and rep["top_nonzero"]

    @pytest.mark.parametrize("cid, order", [
        ("A2G", 60), ("AI2", 100), ("BII:n=3,s=2", 60)])
    def test_pairs_nothing(self, cid, order, monkeypatch):
        # with P_pi, Q_lam and every member at or below lam + pi built,
        # the expansion pairs nothing and inverts no norm
        from macpoly.families import GramSchmidt
        from macpoly.weights import WeightEngine

        case = build_case(cid, order=order)
        pi = (1,) + (0,) * (case.rank - 1)
        lam = case.restricted.grid(1)[1]
        top = tuple(a + c for a, c in zip(lam, pi))
        case.family_spec.family_member(tuple(range(case.rank)), pi)
        for b in range(len(case.bottoms)):
            case.vector_member(b, lam)
            for y in case._vector_downset(b, top) + [(b, top)]:
                case._family.member(y)

        def refuse(*args, **kwargs):
            raise AssertionError("the recurrence paired or inverted")

        monkeypatch.setattr(WeightEngine, "vector_pair", refuse)
        monkeypatch.setattr(GramSchmidt, "pairing", refuse)
        monkeypatch.setattr(GramSchmidt, "inverse", refuse)
        rep = case.recurrence_coeffs(0, lam)
        assert rep["residual_zero"] and rep["top_nonzero"]
        assert rep["steps_in_weights"]


class TestPlan:
    """A case is built for one order, and keeps it."""

    @pytest.mark.parametrize("name", ["order"])
    def test_plan_is_fixed(self, name):
        case = build_case("DII:n=2")
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(case, name, 3)

    def test_two_orders_share_nothing(self):
        # a second plan is a second case: no engine, spec or member of one
        # is returned by the other
        low = build_case("AI2", order=20)
        high = build_case("AI2", order=30)
        assert low.nabla_engine.order == low.delta_engine.order == 20
        assert high.nabla_engine.order == high.delta_engine.order == 30
        assert high.family_spec.engine_sym is high.nabla_engine
        for name in ("nabla_engine", "delta_engine", "family_spec"):
            assert getattr(low, name) is getattr(low, name)
            assert getattr(low, name) is not getattr(high, name)
        assert (low.vector_member(0, (0, 0))
                is not high.vector_member(0, (0, 0)))

    def test_replace_shares_no_memo(self):
        case = build_case("DII:n=2")
        member = case.vector_member(0, (1,))
        other = dataclasses.replace(case, order=40)
        assert other.order == 40
        assert other.vector_member(0, (1,)) is not member
        assert case.vector_member(0, (1,)) is member

    @pytest.mark.parametrize("plan, message", [
        ({"order": 0}, "order must be > 0, got 0"),
        ({"order": -3}, "order must be > 0, got -3")])
    def test_bad_plan(self, plan, message):
        with pytest.raises(ValueError, match=message):
            build_case("DII:n=2", **plan)


class TestCaches:
    def test_each_gram_entry_paired_once(self, monkeypatch):
        # members are cached per label, so a pair of member objects stands
        # for a pair of labels: over one verify no engine pairs the same two
        # objects twice, vector and scalar families alike
        from macpoly.cli import run_verify
        from macpoly.weights import WeightEngine

        seen, held, repeated = set(), [], []
        vector_pair = WeightEngine.vector_pair

        def counted(self, u, M, w, group=None):
            held.append((u, w))  # keeps every id in `seen` taken
            key = (id(self), id(M), tuple(map(id, u)), tuple(map(id, w)))
            if key in seen:
                repeated.append(key)
            seen.add(key)
            return vector_pair(self, u, M, w, group)

        monkeypatch.setattr(WeightEngine, "vector_pair", counted)
        report, status = run_verify("A2G", height=2)
        assert status == 0
        assert held and not repeated

    def test_each_argument_cut_and_each_label_placed_once(self, monkeypatch):
        # over one verify, the engines cut one block list per distinct
        # (element, group) they are asked for, and the case computes one
        # ambient weight per distinct label
        from macpoly.cases import ExampleCase
        from macpoly.cli import run_verify
        from macpoly.weights import WeightEngine

        asked, cuts, looked, placed = [], [], [], []
        blocks, cut = WeightEngine._blocks, WeightEngine._cut
        label, ambient = ExampleCase._label, ExampleCase._ambient

        def counted_blocks(self, f, group):
            asked.append((self, f, group))  # keeps every id taken
            return blocks(self, f, group)

        def counted_cut(self, f, group):
            cuts.append(1)
            return cut(self, f, group)

        def counted_label(self, b, lam):
            looked.append((self, b, lam))
            return label(self, b, lam)

        def counted_ambient(self, b, lam):
            placed.append(1)
            return ambient(self, b, lam)

        monkeypatch.setattr(WeightEngine, "_blocks", counted_blocks)
        monkeypatch.setattr(WeightEngine, "_cut", counted_cut)
        monkeypatch.setattr(ExampleCase, "_label", counted_label)
        monkeypatch.setattr(ExampleCase, "_ambient", counted_ambient)
        report, status = run_verify("A2G", height=1)
        assert status == 0
        distinct = {(id(e), id(f), id(g)) for e, f, g in asked}
        assert len(cuts) == len(distinct) < len(asked)
        labels = {(id(c), b, lam) for c, b, lam in looked}
        assert len(placed) == len(labels) < len(looked)


class TestAWMomentPairing:
    """The one-variable moment table against term-by-term reduction."""

    @pytest.mark.parametrize("cid", ["BII:n=2,s=1", "CII:n=3,s=2"])
    def test_pairing_products(self, cid):
        # the engine's lambda route against the functional on the
        # materialised product, for members and random W-invariant vectors
        import random

        case = build_case(cid)
        M = case.matrix_weight
        L = AWFunctional(case.aw_zonal, case.lattice)
        members = [case.vector_member(b, (m,))
                   for m in range(3) for b in range(len(case.bottoms))]
        rng = random.Random(7)
        den = ExactScalar.one() + Q(1)
        invariants = []
        for _ in range(6):
            f = GAElement.zero(case.lattice)
            for k in rng.sample(range(4), rng.randint(1, 3)):
                c = Q(rng.randint(-2, 2))
                if rng.random() < 0.5:
                    c = c / den
                f = f + GAElement({(k,): c, (-k,): c}, case.lattice)
            invariants.append([f])
        vectors = members + invariants
        # flip(w) * M once per w; the 81 products are u * (flip(w) * M)
        flipped = [w[0].invol_inv() * M[0][0] for w in vectors]
        for u in vectors:
            for w, wm in zip(vectors, flipped):
                h = u[0] * wm
                assert case._vector_pair(u, w) == L.value(h) == aw_reduce(L, h)

    @pytest.mark.parametrize("cid", ["BII:n=2,s=1", "CII:n=3,s=2"])
    def test_one_functional_per_parameter_set(self, cid, monkeypatch):
        # the family spec, the nabla engine and the difference_operator
        # check share one functional per parameter set
        import macpoly.cases as cases_mod
        from macpoly.cli import run_verify

        built = []

        class Counted(AWFunctional):
            def __init__(self, params, lattice):
                built.append(params)
                super().__init__(params, lattice)

        monkeypatch.setattr(cases_mod, "AWFunctional", Counted)
        case = build_case(cid)
        # the family engines read the one functional's weight
        assert (case.family_spec.engine_sym._lookup.__self__
                is case.aw_functional(case.aw))
        built.clear()
        report, _ = run_verify(cid, height=1)
        assert all(c["status"] == "pass" for c in report["checks"])
        assert sorted(built, key=repr) == sorted({case.aw, case.aw_zonal},
                                                 key=repr)

    def test_no_series_weight(self):
        # the invariant family pairs through the moments of the exact
        # functional, an engine with no spec and nothing to expand
        case = build_case("BII:n=2,s=1")
        engine = case.family_spec.engine_sym
        assert engine.spec is None
        assert engine._lookup.__self__ is case.aw_functional(case.aw)

    def test_verify_expands_no_series_weight(self, monkeypatch):
        from macpoly.cli import run_verify
        from macpoly.weights import WeightEngine

        def refuse(self):
            raise AssertionError("series weight expanded")

        monkeypatch.setattr(WeightEngine, "_build_series", refuse)
        report, status = run_verify("BII:n=2,s=1", height=1)
        assert status == 0
        assert all(c["status"] == "pass" for c in report["checks"])


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

    @pytest.mark.parametrize("cid", ["A2G", "AII5", "DII:n=2", "BII:n=2,s=1",
                                     "CII:n=3,s=2"])
    def test_matches_materialised_products(self, cid):
        import itertools
        import random

        case = build_case(cid)
        eng = case.nabla_engine
        assert eng._lookup is not None
        M = case.matrix_weight
        if case.rank == 1:
            grid = [(m,) for m in range(3)]
        else:
            grid = [(x, y) for x in range(3) for y in range(3 - x)]
        members = [case.vector_member(b, lam)
                   for lam in grid for b in range(len(case.bottoms))]
        for u, w in itertools.combinations_with_replacement(members, 2):
            assert (eng.vector_pair(u, M, w) ==
                    vector_pair_products(eng, u, M, w))
        rng = random.Random(11)
        vecs = (self._random_vectors(case, rng, 8)
                + rng.sample(members, min(4, len(members))))
        for u in vecs:
            for w in vecs:
                assert (eng.vector_pair(u, M, w) ==
                        vector_pair_products(eng, u, M, w))

    def test_exact_engine_takes_moment_route(self):
        case = build_case("A2G")
        eng = case.nabla_engine
        u = [case.m_of((1, 0)), case.one(), GAElement.zero(case.lattice)]
        assert not eng._moments
        case._vector_pair(u, u)
        assert len(eng._moments) == 1


def _perturb_tail(f, rng, extra=40):
    """f with random coefficients filled in above each series precision."""
    terms = {}
    for e, c in f.terms.items():
        if isinstance(c, SeriesScalar):
            tail = {k: Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                    for k in range(c.prec, c.prec + extra)}
            den = math.lcm(c.den, *(t.denominator for t in tail.values()))
            num = {e: n * (den // c.den) for e, n in c.num.items()}
            num.update((k, int(t * den)) for k, t in tail.items())
            c = SeriesScalar(num, c.prec + extra, _den=den)
        terms[e] = c
    return GAElement(terms, f.lattice)


@pytest.fixture(scope="module")
def ai2_pairings():
    """AI2 at order 100, height 2: every unordered pair of vector members,
    paired from moment tables and through materialised products."""
    case = build_case("AI2", order=100)
    eng = case.nabla_engine
    M = case.matrix_weight
    members = [case.vector_member(b, lam)
               for lam in case.restricted.grid(2)
               for b in range(len(case.bottoms))]
    pairs = [(u, w, eng.vector_pair(u, M, w),
              vector_pair_products(eng, u, M, w))
             for u, w in itertools.combinations_with_replacement(members, 2)]
    return case, eng, M, members, pairs


class TestSeriesMomentPairing:
    """Series-weight moment tables against the materialised-product oracle."""

    def test_members_match_products(self, ai2_pairings):
        _, eng, _, _, pairs = ai2_pairings
        assert eng._lookup is None
        for _, _, moment, product in pairs:
            assert moment.prec >= product.prec
            assert (moment - product).is_zero()
        # the moment route is never certified lower, and sometimes higher
        assert any(m.prec > p.prec for _, _, m, p in pairs)
        assert min(m.prec for _, _, m, _ in pairs) == eng.order

    def test_random_vectors_match_products(self, ai2_pairings):
        import random

        case, eng, M, members, _ = ai2_pairings
        rng = random.Random(17)

        def coefficient():
            if rng.random() < 0.5:
                return Q(rng.randint(-1, 1)) / (ExactScalar.one() + Q(1))
            o = rng.randint(-2, 0)
            return SeriesScalar({o: 2 * (rng.randint(-3, 3) or 1),
                                 o + 1: rng.randint(-3, 3),
                                 o + 5: 2 * rng.randint(-3, 3)},
                                rng.choice([96, 100, 104]), _den=2)

        vecs = []
        for _ in range(6):
            vec = []
            for _ in case.bottoms:
                terms = {}
                for _ in range(rng.randint(0, 3)):
                    e = tuple(rng.randint(-1, 1) for _ in range(case.rank))
                    terms[e] = coefficient()
                vec.append(GAElement(terms, case.lattice))
            vecs.append(vec)
        vecs += rng.sample(members, 3)
        for u, w in itertools.combinations_with_replacement(vecs, 2):
            moment = eng.vector_pair(u, M, w)
            product = vector_pair_products(eng, u, M, w)
            assert moment.prec >= product.prec
            assert (moment - product).is_zero()

    def test_higher_orders_are_sound(self, ai2_pairings):
        # where the moment route certifies more than the products route,
        # any completion of the coefficients above their precision, paired
        # on a weight expanded to a higher order, agrees below the claim
        import random

        case, eng, M, _, pairs = ai2_pairings
        higher = [(u, w, m) for u, w, m, p in pairs if m.prec > p.prec]
        assert higher
        big = build_case("AI2", order=140).nabla_engine
        rng = random.Random(3)
        for u, w, moment in higher:
            for _ in range(2):
                got = vector_pair_products(
                    big, [_perturb_tail(f, rng) for f in u], M,
                    [_perturb_tail(f, rng) for f in w])
                assert got.prec >= moment.prec
                assert (got - moment).is_zero()

    def test_equal_entries_share_a_table(self, ai2_pairings):
        _, eng, M, _, _ = ai2_pairings
        tables = eng._moment_tables(M)
        cells = [(i, j) for i in range(len(M)) for j in range(len(M))]
        for a in cells:
            for b in cells:
                assert ((tables[a[0]][a[1]] is tables[b[0]][b[1]])
                        == (M[a[0]][a[1]] == M[b[0]][b[1]]))
        assert tables[0][0] is tables[2][2]
        filled = [m for row in tables for t in row for m in t.values.values()]
        assert filled and all(isinstance(m, SeriesScalar) for m in filled
                              if m is not None)


class TestOrbitPairing:
    """The block route of `vector_pair` on AI2 at order 100, height 2."""

    def test_members_pair_through_orbit_blocks(self, ai2_pairings):
        # every member slot is one block per orbit, so its pairings read
        # fewer Gram entries than they have exponent pairs
        case, eng, M, members, _ = ai2_pairings
        W = case.restricted
        tables = eng._moment_tables(M)
        grams, exponent_pairs = set(), set()
        for u, w in itertools.combinations_with_replacement(members, 2):
            pair = eng.vector_pair(u, M, w, W)
            assert pair.prec == eng.order
            assert (pair - eng.vector_pair(u, M, w)).is_zero()
            for i, ui in enumerate(u):
                blocks_u = eng._blocks(ui, W)
                assert all(A == W.orbit(next(iter(A))) for A, _ in blocks_u)
                for j, wj in enumerate(w):
                    table = tables[i][j]
                    if table.order is None:
                        continue
                    exponent_pairs.update((id(table), a, b) for a in ui.terms
                                          for b in wj.terms)
                    for A, _ in blocks_u:
                        for B, _ in eng._blocks(wj, W):
                            assert (A, B) in table.grams
                            grams.add((id(table), A, B))
        assert 0 < len(grams) < len(exponent_pairs)

    def test_changed_orbit_coefficient_matches_products(self, ai2_pairings):
        # a slot that is not constant on an orbit pairs that orbit exponent
        # by exponent; the value is the products route's, certified no lower
        case, eng, M, members, _ = ai2_pairings
        W = case.restricted
        rng = random.Random(5)
        wide = [u for u in members
                if any(len(W.orbit(e)) > 1 for f in u for e in f.terms)]
        for u in rng.sample(wide, 3):
            slot, e = next((i, e) for i, f in enumerate(u)
                           for e in sorted(f.terms) if len(W.orbit(e)) > 1)
            changed = list(u)
            changed[slot] = u[slot] + GAElement.monomial(e, case.lattice, Q(1))
            assert ((frozenset((e,)), changed[slot].terms[e])
                    in eng._blocks(changed[slot], W))
            for w in rng.sample(members, 2):
                for a, b in ((changed, w), (w, changed)):
                    got = eng.vector_pair(a, M, b, W)
                    want = vector_pair_products(eng, a, M, b)
                    assert got.prec >= want.prec
                    assert (got - want).is_zero()
                    assert (got - eng.vector_pair(a, M, b)).is_zero()

    def test_integer_weight_coefficients_match_series_sums(self, ai2_pairings):
        # every coefficient the run read, against the sum of series products
        _, eng, _, _, _ = ai2_pairings
        assert eng._w_cache
        for nu, got in eng._w_cache.items():
            want = weight_coefficient_sum(eng, nu)
            assert (got.num, got.den, got.prec) == (want.num, want.den,
                                                    want.prec)


class TestSeriesWeightRequired:
    @pytest.mark.parametrize("cid", ["BII:n=2,s=1", "CII:n=3,s=2"])
    def test_one_variable_cases_have_no_series_weight(self, cid):
        # the zonal engine is the exact one-variable moment functional;
        # there is no non-symmetric weight
        case = build_case(cid)
        eng = case.nabla_engine
        assert eng.spec is None and eng._lookup is not None
        assert case.nabla_engine is eng
        with pytest.raises(ValueError, match="no series weight"):
            case.delta_engine

    @pytest.mark.parametrize("cid", ["BII:n=2,s=1", "CII:n=3,s=2"])
    def test_one_variable_ct_norm(self, cid):
        # ct(W) of the moment engine is lambda(0) = L(1) = 1, exactly
        case = build_case(cid)
        norm = ct_norm(case.nabla_engine)
        assert isinstance(norm, ExactScalar) and norm.is_one()
        L = AWFunctional(case.aw_zonal, case.lattice)
        assert norm == L.value(case.one())
