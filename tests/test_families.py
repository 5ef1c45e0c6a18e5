import itertools
import random
import re
from dataclasses import replace
from fractions import Fraction

import pytest

from macpoly import cyclotomic, scalars
from macpoly.cases import build_case
from macpoly.families import (
    AWFunctional,
    AWParams,
    GramSchmidt,
    PolyFamilySpec,
    _aw_binomial,
    _aw_factors,
    _aw_quotient,
    aw_eigenvalue,
    aw_numerators,
    aw_oracle,
    aw_recurrence,
    eigen_check,
    j_dominant_below,
    monomial,
    monomial_J,
)
from macpoly.galg import GAElement
from macpoly.roots import RestrictedSystem, build_root_datum
from macpoly.scalars import ExactScalar, SeriesScalar
from macpoly.weights import (
    WeightEngine,
    macdonald_nonsym_weight,
    macdonald_sym_weight,
)

from oracles import (
    aw_coefficients_by_division,
    aw_moments_by_rows,
    aw_operator,
    aw_operator_direct,
    aw_reduce,
    aw_weight,
    ct_norm,
    dense_solve_member,
    support_triangular,
    sym_pair,
    weyl_character,
)

Q = ExactScalar.q_power
ONE = ExactScalar.one()
R1 = RestrictedSystem(1)
R2 = RestrictedSystem(2)
ONE_VARIABLE = ["%s,s=%d" % (base, s) for base in ("BII:n=2", "BII:n=3", "CII:n=3")
                for s in range(3)]


def mono(e, c=None, lat="2L"):
    return GAElement.monomial(e, lat, c)


def rank1_spec(k, with_functional=False, params=None):
    """Family data for the one-variable weight with integer parameter k."""
    t = Q(k)
    sym = macdonald_sym_weight(R1, 2, t, "2L")
    nonsym = macdonald_nonsym_weight(R1, 2, t, "2L")
    return PolyFamilySpec(
        restricted=R1, lattice="2L",
        engine_sym=WeightEngine(sym),
        engine_nonsym=WeightEngine(nonsym),
        label="rank1-k%d" % k)


class TestMonomials:
    def test_zero_is_one(self):
        assert monomial(R2, (0, 0), "2L") == GAElement.one("2L", 2)

    def test_empty_parabolic(self):
        lam = (3, -1)
        assert monomial_J(R2, (), lam, "2L") == mono(lam)

    def test_j_orbit(self):
        m = monomial_J(R2, (1,), (1, 0), "2L")
        # s_2 fixes (1,0)
        assert m == mono((1, 0))
        m = monomial_J(R2, (1,), (0, 1), "2L")
        assert m == mono((0, 1)) + mono((1, -1))

    def test_not_dominant_raises(self):
        with pytest.raises(ValueError):
            monomial_J(R2, (1,), (0, -1), "2L")

    def test_full_orbit_invariance(self):
        m = monomial(R2, (1, 1), "2L")
        for i in range(2):
            assert m.map_exponents(lambda e: R2.reflect(i, e)) == m

    def test_down_sets(self):
        below = j_dominant_below(R1, (), (-2,))
        assert below == [(0,), (1,), (-1,), (2,)]
        # the one-variable lattice is nonreduced: all lower orbit sums occur
        assert j_dominant_below(R1, (0,), (2,)) == [(0,), (1,)]

    @pytest.mark.parametrize("R", [R1, R2], ids=["rank1", "rank2"])
    def test_down_sets_by_brute_force(self, R):
        # every J-dominant x with a key below mu's; the labels of mu in
        # [-3, 3]^rank have dominant points of height <= 6, whose orbits
        # lie in [-6, 6]^rank
        box = list(itertools.product(range(-6, 7), repeat=R.rank))
        keys = {x: R.order_key(x) for x in box}
        for J in itertools.chain.from_iterable(
                itertools.combinations(range(R.rank), k)
                for k in range(R.rank + 1)):
            for mu in itertools.product(range(-3, 4), repeat=R.rank):
                if not R.is_dominant(mu, J):
                    continue
                assert keys[mu][0] <= 6
                want = sorted((x for x in box if R.is_dominant(x, J)
                               and keys[x] < keys[mu]), key=keys.get)
                assert j_dominant_below(R, J, mu) == want, (J, mu)


class TestAWOracle:
    PARAMS = AWParams.from_labels(Fraction(3, 2), Fraction(5, 2), 0, 0)

    def test_p0_p1(self):
        p = self.PARAMS
        assert aw_oracle(p, 0, "2L") == GAElement.one("2L", 1)
        b0, _ = aw_recurrence(p, 0)
        P1 = aw_oracle(p, 1, "2L")
        assert P1 == mono((1,)) + mono((-1,)) - GAElement.one("2L", 1).scale(b0)

    def test_eigen_report(self):
        report = eigen_check(AWFunctional(self.PARAMS), 4)
        assert report["residual_zero"] and report["distinct"]
        assert report["annihilated"]
        assert len(report["rows"]) == 5

    def test_eigen_report_checks_the_moments(self):
        L = AWFunctional(self.PARAMS)
        L._moment(4)
        L._moments[3] = L._moments[3] + ONE
        assert not eigen_check(L, 4)["annihilated"]

    def test_constant_eigenvalue_zero(self):
        one = GAElement.one("2L", 1)
        assert aw_operator(self.PARAMS, "2L")(one).is_zero()
        assert aw_eigenvalue(self.PARAMS, 0).is_zero()

    def test_operator_vs_recurrence_family(self):
        p = AWParams.from_labels(Fraction(5, 2), Fraction(3, 2), 1, 0)
        operator = aw_operator(p, "2L")
        for m in range(4):
            P = aw_oracle(p, m, "2L")
            assert operator(P) == P.scale(aw_eigenvalue(p, m))


def _case_params():
    """The (params, lattice) of the nine one-variable cases, `aw` and
    `aw_zonal` each."""
    cases = [build_case(cid) for cid in ONE_VARIABLE]
    return [(p, case.lattice) for case in cases
            for p in (case.aw, case.aw_zonal)]


def _random_params(seed, count):
    """`count` seeded AWParams.from_labels, half of them with random signs
    on a, b, c, d."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        labels = [Fraction(rng.randint(-4, 4), 2) for _ in range(4)]
        p = AWParams.from_labels(*labels, qhat_log=rng.randint(1, 3))
        if k % 2:
            p = replace(p, **{x: getattr(p, x) * rng.choice((1, -1))
                              for x in "abcd"})
        out.append(p)
    return out


def _n(k, lattice="2L"):
    """n_k = e^k + e^-k, and n_0 = 1."""
    if k == 0:
        return GAElement.one(lattice, 1)
    return mono((k,), lat=lattice) + mono((-k,), lat=lattice)


def _outcome(coefficients):
    """(num, den, cyc) of each scalar coefficients() returns, or the
    ZeroDivisionError class if it raised one."""
    try:
        return [(x.num, x.den, x.cyc) for x in coefficients()]
    except ZeroDivisionError:
        return ZeroDivisionError


def _closed_form(params, m):
    """A_m, C_m, b_m and c_m as the closed form builds them."""
    return ([_aw_quotient(*f) for f in _aw_factors(params, m)]
            + list(aw_recurrence(params, m)))


class TestAWClosedForm:
    """The recurrence coefficients built from their cyclotomic factors."""

    @pytest.mark.parametrize("c", [1, -1])
    def test_binomial_factors(self, c):
        for n in range(-64, 65):
            coeff, shift, phis = _aw_binomial(c, n)
            pairs = tuple(sorted(phis.items()))
            got = {i + shift: coeff * x for i, x
                   in enumerate(cyclotomic.product_coeffs(pairs)) if coeff * x}
            want = {0: 1}
            want[n] = want.get(n, 0) - c
            assert got == {e: x for e, x in want.items() if x}, n
            if n > 0:
                # phi_factors splits off the lead -c as the helper does
                assert (shift, coeff) == (0, -c)
                assert cyclotomic.phi_factors(want) == pairs, n

    @pytest.mark.parametrize("cid", ONE_VARIABLE)
    def test_case_parameters_match_division(self, cid):
        case = build_case(cid)
        for p in (case.aw, case.aw_zonal):
            for m in range(13):
                want = _outcome(lambda: aw_coefficients_by_division(p, m))
                assert want is not ZeroDivisionError, m
                assert _outcome(lambda: _closed_form(p, m)) == want, m

    def test_random_labels_match_division(self):
        # any signs: the coefficients 2 and -2 reach both sides
        raised = 0
        for p in _random_params(25, 100):
            for m in range(13):
                want = _outcome(lambda: aw_coefficients_by_division(p, m))
                assert _outcome(lambda: _closed_form(p, m)) == want, (p, m)
                raised += want is ZeroDivisionError
        assert raised  # zero denominators are among the labels drawn

    def test_no_factor_search(self, monkeypatch):
        cases = [build_case(cid) for cid in ONE_VARIABLE]
        params = [p for case in cases for p in (case.aw, case.aw_zonal)]
        calls, search = [], cyclotomic.phi_factors

        def counted(p):
            calls.append(p)
            return search(p)

        monkeypatch.setattr(cyclotomic, "phi_factors", counted)
        monkeypatch.setattr(scalars, "phi_factors", counted)
        for p in params:
            for m in range(13):
                aw_recurrence(p, m)
        assert calls == []
        aw_coefficients_by_division(params[0], 3)
        assert calls  # the wrapper sees the division route's searches

    @pytest.mark.parametrize("bad", [ExactScalar.v_power(3, 2),
                                     ExactScalar({0: 1, 1: 1}),
                                     ExactScalar({1: 1}, {0: 2})],
                             ids=["2v^3", "1+v", "v/2"])
    @pytest.mark.parametrize("name", "abcd")
    def test_rejects_non_unit_parameter(self, name, bad):
        p = AWParams.from_labels(Fraction(3, 2), Fraction(5, 2), 0, 0)
        with pytest.raises(ValueError, match=re.escape(
                "parameter %s = %s is not" % (name, bad.render()))):
            replace(p, **{name: bad})


class TestAWColumnOperator:
    """The operator applied by integer columns against the direct route
    over Q(v) (`aw_operator_direct`)."""

    @pytest.mark.parametrize("cid", ONE_VARIABLE)
    def test_members(self, cid):
        case = build_case(cid)
        operator = aw_operator(case.aw, case.lattice)
        direct = aw_operator_direct(case.aw, case.lattice)
        for m in range(6):
            P = aw_oracle(case.aw, m, case.lattice)
            assert operator(P) == direct(P), m

    def test_columns_match_direct(self):
        params = _case_params() + [(p, "2L") for p in _random_params(35, 12)]
        for p, lattice in params:
            operator = aw_operator(p, lattice)
            direct = aw_operator_direct(p, lattice)
            for k in range(9):
                assert operator(_n(k, lattice)) == direct(_n(k, lattice)), (
                    p, k)

    def test_random_symmetric(self):
        import random

        p = AWParams.from_labels(Fraction(5, 2), Fraction(3, 2), 1, 0)
        operator = aw_operator(p, "2L")
        direct = aw_operator_direct(p, "2L")
        rng = random.Random(11)
        for _ in range(12):
            f = TestAWFunctional._random_invariant(rng)
            assert operator(f) == direct(f)

    def test_rejects_non_invariant(self):
        p = AWParams.from_labels(Fraction(3, 2), Fraction(5, 2), 0, 0)
        operator = aw_operator(p, "2L")
        with pytest.raises(ValueError):
            operator(mono((2,)))
        with pytest.raises(ValueError):
            operator(mono((1,)) + mono((-1,), Q(1)))


class TestAWNumerators:
    """The Askey-Wilson polynomials in integer Laurent arithmetic
    (`aw_numerators`) against the recurrence family, and the operator
    check that reads them (`eigen_check`)."""

    @staticmethod
    def _lead(p, m):
        """(abcd qh^(m-1); qh)_m over Q(v)."""
        abcd = p.a * p.b * p.c * p.d
        out = ONE
        for i in range(m):
            out = out * (ONE - abcd * p.qhat ** (m - 1 + i))
        return out

    @staticmethod
    def _element(coeffs, lattice):
        """The symmetric Laurent polynomial with coefficient coeffs[i] at
        e^i and e^-i."""
        terms = {}
        for i, c in enumerate(coeffs):
            if c:
                terms[(i,)] = terms[(-i,)] = ExactScalar(c)
        return GAElement(terms, lattice)

    def _check(self, p, lattice):
        """p_m = lead_m * P_m for m <= 8 where the recurrence has no zero
        denominator; p_m raises exactly when some factor of its lead or
        of an earlier one vanishes.  Returns the degrees compared."""
        leads = [self._lead(p, m) for m in range(9)]
        compared = 0
        for m in range(9):
            vanish = any(x.is_zero() for x in leads[:m + 1])
            try:
                got = aw_numerators(p, m)[m]
            except ZeroDivisionError as err:
                assert vanish and str(err) == (
                    "zero Askey-Wilson denominator factor"), (p, m)
                continue
            assert not vanish, (p, m)
            assert len(got) == m + 1
            try:
                want = aw_oracle(p, m, lattice).scale(leads[m])
            except ZeroDivisionError:
                continue
            assert self._element(got, lattice) == want, (p, m)
            compared += 1
        return compared

    @pytest.mark.parametrize("cid", ONE_VARIABLE)
    def test_case_numerators_match_recurrence(self, cid):
        case = build_case(cid)
        for p in (case.aw, case.aw_zonal):
            assert self._check(p, case.lattice) == 9

    def test_random_numerators_match_recurrence(self):
        counts = [self._check(p, "2L") for p in _random_params(38, 24)]
        assert sum(c == 9 for c in counts) >= 12
        assert min(counts) < 9  # parameters with zero factors are drawn

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("at", ["constant", "top", "middle"])
    def test_perturbed_numerator_fails(self, m, at, monkeypatch):
        import macpoly.families as families_mod

        build = families_mod.aw_numerators

        def perturbed(params, upto):
            out = build(params, upto)
            i = {"constant": 0, "top": m, "middle": m // 2}[at]
            out[m][i] = scalars._lp_add(out[m][i], {2: 1})
            return out

        p = TestAWOracle.PARAMS
        assert eigen_check(AWFunctional(p), 4)["residual_zero"]
        monkeypatch.setattr(families_mod, "aw_numerators", perturbed)
        assert not eigen_check(AWFunctional(p), 4)["residual_zero"]

    def test_repeated_eigenvalue_is_reported(self, monkeypatch):
        # lambda_m = lambda_n only where abcd qh^(m+n-1) = 1, which makes
        # the lead of p_n vanish and raises first: only a wrong eigenvalue
        # reaches the test
        import macpoly.families as families_mod

        build = families_mod.aw_eigenvalue
        monkeypatch.setattr(families_mod, "aw_eigenvalue",
                            lambda params, m: build(params, min(m, 1)))
        report = eigen_check(AWFunctional(TestAWOracle.PARAMS), 4)
        assert not report["distinct"] and not report["residual_zero"]

    @pytest.mark.parametrize("j", [0, 1, 2, 4, 6, 8])
    def test_vanishing_lead_raises(self, j):
        # abcd qh^j = 1 at qh = v^4, as in the functional's zero
        # denominator test: the lead of p_m vanishes for m - 1 <= j <= 2m - 2
        p = AWParams(Q(1), Q(1, -1), Q(-1 - j), Q(-1 - j, -1))
        first = (j + 3) // 2  # the least m with j <= 2m - 2
        message = "^zero Askey-Wilson denominator factor$"
        assert len(aw_numerators(p, first - 1)) == first
        with pytest.raises(ZeroDivisionError, match=message):
            aw_numerators(p, first)
        if first <= 4:
            with pytest.raises(ZeroDivisionError, match=message):
                eigen_check(AWFunctional(p, "2L"), 4)
        else:
            report = eigen_check(AWFunctional(p, "2L"), 4)
            assert report["residual_zero"] and report["annihilated"]

    def test_eigenvalue_in_integers(self):
        params = [p for p, _ in _case_params()] + _random_params(39, 12)
        for p in params:
            abcd = p.a * p.b * p.c * p.d
            qh = p.qhat
            for m in range(9):
                lam = aw_eigenvalue(p, m)
                want = (qh ** (-m)) * (ONE - qh ** m) * (
                    ONE - abcd * qh ** (m - 1))
                assert lam == want and lam.den == {0: 1}, (p, m)


class TestAWFunctional:
    def test_orthogonality(self):
        p = AWParams.from_labels(Fraction(3, 2), Fraction(5, 2), 0, 0)
        L = AWFunctional(p, "2L")
        pair = lambda f, g: L.value(f * g.invol_inv())
        for m in range(4):
            for k in range(m):
                val = pair(aw_oracle(p, m, "2L"), aw_oracle(p, k, "2L"))
                assert val.is_zero(), (m, k)
            norm = pair(aw_oracle(p, m, "2L"), aw_oracle(p, m, "2L"))
            assert not norm.is_zero()

    def test_normalisation(self):
        p = AWParams.from_labels(Fraction(3, 2), Fraction(3, 2), 0, 0)
        L = AWFunctional(p, "2L")
        assert L.value(GAElement.one("2L", 1)).is_one()

    def test_matches_series_pairing(self):
        # the same moments through the truncated constant-term route
        p = AWParams.from_labels(Fraction(3, 2), Fraction(5, 2), 0, 0)
        L = AWFunctional(p, "2L")
        eng = WeightEngine(aw_weight((p.a, p.b, p.c, p.d), "2L"),
                           order=40)
        norm = ct_norm(eng)
        for k in range(1, 4):
            mk = mono((k,)) + mono((-k,))
            exact = L.value(mk)
            series = eng.ct_pair(mk) / norm
            assert (exact.to_series(series.prec) - series).is_zero()

    def test_rejects_non_invariant(self):
        p = AWParams.from_labels(Fraction(3, 2), Fraction(5, 2), 0, 0)
        L = AWFunctional(p, "2L")
        with pytest.raises(ValueError):
            L.value(mono((-3,)))
        with pytest.raises(ValueError):
            L.value(mono((1,)) + mono((-1,)) + mono((-3,)))

    @staticmethod
    def _random_invariant(rng):
        den = ONE + Q(1)
        h = GAElement.zero("2L")
        for _ in range(rng.randint(1, 5)):
            k = rng.randint(0, 8)
            c = Q(rng.randint(-3, 3), rng.choice([1, -1, 2]))
            if rng.random() < 0.5:
                c = c / (den if rng.random() < 0.5 else ONE - Q(2))
            h = h + mono((k,), c)
            if k:
                h = h + mono((-k,), c)
        return h

    @pytest.mark.parametrize("labels", [
        (Fraction(3, 2), Fraction(5, 2), 0, 0),
        (Fraction(5, 2), Fraction(3, 2), 1, 0)])
    def test_moment_table_matches_reduction(self, labels):
        import random

        p = AWParams.from_labels(*labels)
        L = AWFunctional(p, "2L")
        rng = random.Random(7)
        for _ in range(12):
            h = self._random_invariant(rng)
            assert L.value(h) == aw_reduce(L, h)
        assert len(L._moments) == 9

    @staticmethod
    def _check_moments(p, lattice):
        """mu_0..mu_8 by the q-beta integral against the connection rows
        and against reduction over the recurrence family; where the rows
        divide by zero, the q-beta route does so exactly when
        (abcd; qh)_8 = 0."""
        L = AWFunctional(p, lattice)
        try:
            rows = aw_moments_by_rows(p, 8)
        except ZeroDivisionError:
            abcd = p.a * p.b * p.c * p.d
            vanish = any((ONE - abcd * p.qhat ** j).is_zero()
                         for j in range(8))
            try:
                L._moment(8)
            except ZeroDivisionError:
                assert vanish, p
            else:
                assert not vanish, p
            return False
        for k in range(9):
            want = aw_reduce(L, _n(k, lattice))
            assert L._moment(k) == rows[k] == want, (p, k)
        return True

    @pytest.mark.parametrize("cid", ONE_VARIABLE)
    def test_moments_match_reduction(self, cid):
        case = build_case(cid)
        for params in (case.aw, case.aw_zonal):
            assert self._check_moments(params, case.lattice)

    def test_random_moments_match_reduction(self):
        done = [self._check_moments(p, "2L") for p in _random_params(36, 16)]
        assert sum(done) >= 8 and not all(done)  # both branches are taken

    @pytest.mark.parametrize("j", [0, 2])
    def test_zero_denominator_raises(self, j):
        # abcd qh^j = 1 at qh = v^4: a = v^2, b = -v^2, c = v^(-2-2j),
        # d = -c; only library callers can build such parameters
        p = AWParams(Q(1), Q(1, -1), Q(-1 - j), Q(-1 - j, -1))
        L = AWFunctional(p, "2L")
        message = "^zero Askey-Wilson denominator factor$"
        kept = L._moment(j)
        for _ in range(2):
            with pytest.raises(ZeroDivisionError, match=message):
                L.value(_n(j + 1))
        assert L._moments[j:] == [kept]  # nothing kept past mu_j
        with pytest.raises(ZeroDivisionError, match=message):
            aw_moments_by_rows(p, j + 1)


class TestPairingRoute:
    """`PolyFamilySpec.pair`, the moment-table route, against `sym_pair`,
    ct_pair of the materialised product f * flip(g)."""

    @staticmethod
    def _pairs(case, H=3):
        """Every pair of members of the case's J-family and of its
        W-invariant family whose labels lie in orbits of height <= H."""
        R = case.restricted
        spec = case.family_spec
        for J in sorted({tuple(case.J), tuple(range(case.rank))}):
            symmetric = J == tuple(range(case.rank))
            engine = spec.engine_sym if symmetric else spec.engine_nonsym
            labels = sorted({x for d in R.grid(H) for x in R.weyl_orbit(d)
                             if R.is_dominant(x, J)}, key=R.order_key)
            members = [spec.family_member(J, mu) for mu in labels]
            for f in members:
                for g in members:
                    yield spec.pair(f, g, symmetric), sym_pair(f, g, engine)

    @pytest.mark.parametrize("cid", ["A2G", "AII5", "DII:n=2", "BII:n=2,s=1",
                                     "BII:n=3,s=2", "CII:n=3,s=2"])
    def test_exact_weights(self, cid):
        # finite specs and the one-variable moment functional alike
        case = build_case(cid)
        count = 0
        for got, want in self._pairs(case):
            assert isinstance(got, ExactScalar) and got == want
            count += 1
        assert count > 0

    @pytest.mark.parametrize("order", [72, 100])
    def test_series_weights(self, order):
        # vector_pair guards the block orders plus the table order, ct_pair
        # the orders of the product's terms: neither refuses a pair here,
        # and the moment route certifies at least the product's order
        case = build_case("AI2", order=order)
        count = 0
        for got, want in self._pairs(case):
            assert got.prec >= want.prec
            diff = got - want
            assert diff.is_zero() and diff.prec == want.prec
            count += 1
        assert count > 0


class TestGramInverse:
    """Each Gram norm is inverted once per label, in the `GramSchmidt`
    drivers' memos (the case's vector family, the spec's family per J),
    and a zero norm is still the typed degenerate-entry error."""

    @staticmethod
    def _drivers(case):
        return [case._family, *case.family_spec._families.values()]

    @pytest.mark.parametrize("cid, kind", [("DII:n=2", ExactScalar),
                                           ("AI2", SeriesScalar)])
    def test_zero_norm_is_degenerate(self, cid, kind, monkeypatch):
        from macpoly.cases import ExampleCase

        # every member pairs to zero with itself, exactly or in series
        vector_pair, family_pair = ExampleCase._vector_pair, PolyFamilySpec.pair

        def zero_norms(pair):
            def paired(self, f, g, *rest):
                got = pair(self, f, g, *rest)
                return got - got if f is g else got
            return paired

        monkeypatch.setattr(ExampleCase, "_vector_pair",
                            zero_norms(vector_pair))
        monkeypatch.setattr(PolyFamilySpec, "pair", zero_norms(family_pair))
        case = build_case(cid)
        spec, grid = case.family_spec, case.restricted.grid(2)
        with pytest.raises(ArithmeticError,
                           match=r"^degenerate Gram entry \(.* vector "):
            for lam in grid:
                for b in range(len(case.bottoms)):
                    case.vector_member(b, lam)
        with pytest.raises(ArithmeticError,
                           match=r"^degenerate Gram entry \(.*/\(0,.*\) at "):
            for mu in grid:
                spec.family_member(tuple(range(case.rank)), mu)
        # the zero norms were paired, and none was inverted
        drivers = self._drivers(case)
        assert len(drivers) == 2
        for family in drivers:
            norms = list(family._paired.values())
            assert norms and all(isinstance(n, kind) and n.is_zero()
                                 for n in norms)
            assert not family._inverted

    @pytest.mark.parametrize("cid, kind", [("DII:n=2", ExactScalar),
                                           ("AI2", SeriesScalar)])
    def test_one_inverse_per_label(self, cid, kind, monkeypatch):
        import sys

        calls = []
        inv = kind.inv

        def counted(self):
            if sys._getframe(1).f_code.co_name == "inverse":
                calls.append(self)
            return inv(self)

        monkeypatch.setattr(kind, "inv", counted)
        case = build_case(cid, order=100)
        for lam in case.restricted.grid(2):
            case.recurrence_coeffs(0, lam)
        kept = 0
        for family in self._drivers(case):
            for x, value in family._inverted.items():
                assert (value * family._paired[x, x] - 1).is_zero()
                kept += 1
        assert kept > 5 and len(calls) == kept


class TestGramSchmidt:
    """The driver alone, over the vector labels (b, lam) of DII:n=2."""

    def test_members_orthogonal_and_paired_once(self):
        case = build_case("DII:n=2")
        seen = []

        def pair(u, w):
            seen.append((u, w))  # keeps the arguments alive for `is`
            return case._vector_pair(u, w)

        family = GramSchmidt(case._vector_lead,
                             lambda x: case._vector_downset(*x), pair,
                             "DII vector")
        labels = [(b, lam) for lam in case.restricted.grid(3)
                  for b in range(len(case.bottoms))]
        below = 0
        for x in labels:
            P = family.member(x)
            assert len(P) == len(case.bottoms)
            for y in family.below(x):
                # asked twice, paired once
                assert family.pairing(x, y).is_zero()
                assert family.pairing(x, y).is_zero()
                below += 1
            assert not family.pairing(x, x).is_zero()
        assert below > len(labels)
        # the pair calls between two members, by label: each label pair
        # once, and exactly the pairings the driver keeps
        label_of = {id(m): x for x, m in family._built.items()}
        paired = [(label_of[id(u)], label_of[id(w)]) for u, w in seen
                  if id(u) in label_of and id(w) in label_of]
        assert len(paired) == len(set(paired))
        assert set(paired) == set(family._paired)


class TestGramSchmidtCalibration:
    def test_aw_via_series_pairing_matches_oracle(self):
        # the flip conjugation makes the Gram-Schmidt family reproduce the
        # recurrence family; this pins the pairing convention used everywhere
        p = AWParams.from_labels(Fraction(3, 2), Fraction(5, 2), 0, 0)
        spec = PolyFamilySpec(
            restricted=R1, lattice="2L",
            engine_sym=WeightEngine(aw_weight((p.a, p.b, p.c, p.d), "2L"),
                                    order=50),
            label="aw-series")
        for m in range(3):
            P = spec.family_member((0,), (m,))
            O = aw_oracle(p, m, "2L")
            for e, c in P.terms.items():
                oc = O.terms.get(e, ExactScalar.zero())
                if not hasattr(c, "prec"):
                    c = c.to_series(40)
                assert (c - oc.to_series(c.prec)).is_zero(), (m, e)
            for e in O.terms:
                assert e in P.terms

    def test_aw_via_exact_functional_matches_oracle(self):
        p = AWParams.from_labels(Fraction(3, 2), Fraction(5, 2), 0, 0)
        spec = PolyFamilySpec(
            restricted=R1, lattice="2L",
            engine_sym=WeightEngine.from_moments(AWFunctional(p, "2L").weight),
            label="aw-exact")
        for m in range(5):
            assert spec.family_member((0,), (m,)) == aw_oracle(p, m, "2L")


class TestRank1Families:
    def test_ultraspherical_p1(self):
        spec = rank1_spec(2)
        P1 = spec.family_member((0,), (1,))
        assert P1 == mono((1,)) + mono((-1,))

    def test_nonsym_first_members(self):
        spec = rank1_spec(2)
        assert spec.family_member((), (0,)) == GAElement.one("2L", 1)
        assert spec.family_member((), (1,)) == mono((1,))
        Em = spec.family_member((), (-1,))
        expected = mono((-1,)) + mono((1,), ONE / (1 + Q(2)))
        assert Em == expected

    def test_nonsym_orthogonality(self):
        spec = rank1_spec(3)
        grid = [(0,), (1,), (-1,), (2,), (-2,)]
        polys = {m: spec.family_member((), m) for m in grid}
        for i, m in enumerate(grid):
            for k in grid[:i]:
                v = spec.pair(polys[m], polys[k], symmetric=False)
                assert v.is_zero(), (m, k)

    def test_symmetrization(self):
        # a combination a E_m + E_{-m} reproduces P_m
        spec = rank1_spec(2)
        for m in (1, 2, 3):
            Em = spec.family_member((), (m,))
            Emm = spec.family_member((), (-m,))
            Pm = spec.family_member((0,), (m,))
            rem = Pm - Emm  # fixes the e^{-m} coefficient
            a = rem.terms.get((m,), ExactScalar.zero())
            assert (rem - Em.scale(a)).is_zero()

    def test_triangularity(self):
        spec = rank1_spec(3)
        for m in (0, 1, -1, 2, -2):
            E = spec.family_member((), (m,))
            assert support_triangular(R1, E, (m,))

    def test_dense_solve_oracle(self):
        spec = rank1_spec(2)
        for J, mu in [((0,), (3,)), ((), (-2,)), ((), (2,))]:
            assert dense_solve_member(spec, J, mu) == spec.family_member(J, mu)

    def test_qinv_of_symmetric_family(self):
        spec = rank1_spec(2)
        for m in range(4):
            P = spec.family_member((0,), (m,))
            assert P.invol_zero() == P


class TestRank2Families:
    def a2_group_spec(self):
        t = Q(2)
        return PolyFamilySpec(
            restricted=R2, lattice="2L",
            engine_sym=WeightEngine(macdonald_sym_weight(R2, 2, t, "2L")),
            engine_nonsym=WeightEngine(macdonald_nonsym_weight(R2, 2, t, "2L")),
            label="a2-group")

    def test_schur_oracle(self):
        # at t equal to the base the symmetric family is the character basis
        spec = self.a2_group_spec()
        datum = build_root_datum("A", 2)
        for lam in [(1, 0), (0, 1), (1, 1), (2, 0)]:
            P = spec.family_member((0, 1), lam)
            ch = weyl_character(datum, lam)
            expected = GAElement(
                {e: ExactScalar.from_int(m) for e, m in ch.items()}, "2L")
            assert P == expected, lam

    def test_intermediate_members(self):
        spec = self.a2_group_spec()
        assert spec.family_member((1,), (0, 0)) == GAElement.one("2L", 2)
        P = spec.family_member((1,), (1, 0))
        assert P.terms[(1, 0)].is_one()
        assert support_triangular(R2, P, (1, 0))

    def test_intermediate_orthogonality(self):
        spec = self.a2_group_spec()
        grid = [(0, 0), (1, 0), (-1, 1), (0, 1)]
        polys = {mu: spec.family_member((1,), mu) for mu in grid}
        for i, mu in enumerate(grid):
            for nu in grid[:i]:
                v = spec.pair(polys[mu], polys[nu], symmetric=False)
                assert v.is_zero(), (mu, nu)

    def test_dense_solve_oracle(self):
        spec = self.a2_group_spec()
        for J, mu in [((0, 1), (1, 1)), ((1,), (0, 1)), ((1,), (-1, 1))]:
            assert dense_solve_member(spec, J, mu) == spec.family_member(J, mu)
