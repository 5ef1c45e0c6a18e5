import json
import random

import pytest

from macpoly.galg import GAElement
from macpoly.roots import RestrictedSystem
from macpoly.scalars import ExactScalar, SeriesScalar
from macpoly.weights import (
    INF,
    PochFactor,
    TruncationError,
    WeightEngine,
    WeightSpec,
    macdonald_nonsym_weight,
    macdonald_sym_weight,
)

from oracles import (
    aw_weight,
    ct_norm,
    exact_expansion,
    factor_env_loop,
    flat_table_loop,
    infinite_ratio_form,
    series_plan,
    series_sum_loop,
    sym_pair,
    vector_pair_products,
    weight_coefficient_scan,
    weight_coefficient_sum,
)

Q = ExactScalar.q_power
ONE = ExactScalar.one()
R1 = RestrictedSystem(1)
R2 = RestrictedSystem(2)


def mono(e, c=None, lat="2L"):
    return GAElement.monomial(e, lat, c)


# a finite spec whose plus coefficient v^-2 has negative order
NEGATIVE_MINIMUM = WeightSpec(
    [PochFactor(ExactScalar.v_power(-2), (2,), 2, 2, 1)],
    [PochFactor(ONE, (2,), 2, 2, 1)], "2L", rank=1)


def _no_expansion(*args):
    raise AssertionError("a table expanded where one was expected read")


def _expansion_key(part, terms):
    """The cut of the part's expansion whose table is `terms`; the part may
    be shared, and so hold other holders' expansions."""
    (key,) = [k for k, got in part._expansions.items() if got is terms]
    return key


def _past_top(part, table):
    """A height past the top of `table`, a table of `part`, by twice the
    part's tallest factor."""
    return (max(map(sum, table), default=0)
            + 2 * max(sum(f.exponent) for f in part.factors))


class TestWeightForms:
    """The builders emit (c e^a; qh)_k where t = qh^k and the infinite ratio
    otherwise; an engine takes a spec of one form only."""

    @pytest.mark.parametrize("builder", [macdonald_sym_weight,
                                         macdonald_nonsym_weight])
    @pytest.mark.parametrize("source", [
        (R1, 1), (R1, 3), (R2, 1), (R2, 2), "A2G", "AII5", "DII:n=2",
        "DII:n=3"], ids=["rank1-k1", "rank1-k3", "rank2-k1", "rank2-k2",
                         "A2G", "AII5", "DII:n=2", "DII:n=3"])
    def test_finite_form_expands_as_the_ratio(self, builder, source):
        # the exact engine's weight, its finite factors multiplied out,
        # equals the exact expansion of the weight's definition
        if isinstance(source, str):
            from macpoly.cases import build_case

            case = build_case(source)
            R, qhat_log, t, lat = (case.restricted, case.qhat_log, case.t,
                                   case.lattice)
            k = None
        else:
            (R, k), qhat_log, lat = source, 2, "2L"
            t = Q(2 * k)
        spec = builder(R, qhat_log, t, lat)
        ratio = infinite_ratio_form(spec)
        shift = Q(qhat_log) if builder is macdonald_nonsym_weight else ONE
        parts = []
        for c, finite, infinite in ((ONE, spec.plus, ratio.plus),
                                    (shift, spec.minus, ratio.minus)):
            assert k is None or all(f.length == k for f in finite)
            # the ratio form is the weight's definition: per positive root
            # a, (c e^a; qh)_inf / (c t e^a; qh)_inf
            assert [(f.coeff, f.exponent, f.side) for f in infinite] == [
                (x, a, side) for a in R._positive_roots()
                for x, side in ((c, 1), (c * t, -1))]
            # to 2 beyond the finite product's top height, so the ratio's
            # terms above it must cancel
            H = sum(sum(f.exponent) * f.length for f in finite) + 2
            parts.append(GAElement(exact_expansion(infinite, H), lat))
        W = GAElement(WeightEngine(spec)._lookup.__self__, lat)
        assert W == parts[0] * parts[1].invol_inv()

    def test_case_forms(self):
        from macpoly.cases import build_case

        for cid in ("A2G", "AII5", "DII:n=2", "DII:n=3", "AI2"):
            case = build_case(cid)
            for builder in (macdonald_sym_weight, macdonald_nonsym_weight):
                spec = builder(case.restricted, case.qhat_log, case.t,
                               case.lattice)
                lengths = {f.length for f in spec.plus + spec.minus}
                if cid == "AI2":
                    # t = q^2 is no power of qh = q^4: every root keeps its
                    # infinite ratio, in root order, as the cache key holds it
                    assert lengths == {INF}
                    assert spec.plus[:2] == [
                        PochFactor(ONE, (2, -1), 4, INF, 1),
                        PochFactor(Q(2), (2, -1), 4, INF, -1)]
                else:
                    assert INF not in lengths
                    roots = case.restricted._positive_roots()
                    assert len(spec.plus) == len(roots)

    def test_mixed_spec_is_refused(self):
        finite = [PochFactor(ONE, (2,), 2, 2, 1)]
        infinite = [PochFactor(ONE, (2,), 2, INF, 1),
                    PochFactor(Q(4), (2,), 2, INF, -1)]
        for plus, minus in ((finite, infinite), (finite + infinite, [])):
            with pytest.raises(ValueError, match="mixes"):
                WeightEngine(WeightSpec(plus, minus, "2L", rank=1))


class TestExpansion:
    def test_finite_denominator_is_refused(self):
        with pytest.raises(ValueError, match="numerator"):
            PochFactor(ONE, (2,), 2, 3, -1)
        PochFactor(ONE, (2,), 2, 3, 1)

    def test_cone_part_refuses_a_finite_factor(self):
        from macpoly.weights import ConePart

        with pytest.raises(ValueError, match="infinite factors"):
            ConePart([PochFactor(ONE, (2,), 2, 3, 1)])

    def test_empty(self):
        spec = WeightSpec([], [], "2L", rank=1)
        eng = WeightEngine(spec)
        assert eng.ct_pair(GAElement.one("2L", 1)).is_one()

    def test_single_finite(self):
        # (e^{2}; q^2)_1 = 1 - e^{2}
        spec = WeightSpec([PochFactor(ONE, (2,), 2, 1, 1)], [], "2L", rank=1)
        eng = WeightEngine(spec)
        W = GAElement(eng._lookup.__self__, "2L")
        assert W == mono((0,)) - mono((2,))

    def test_qbinomial_head(self):
        # 1/(q e^{2}; q^2)_inf = 1 + q e^{2}/(1-q^2) + ..., in the oracle
        # and in the series table
        from macpoly.weights import ConePart

        factors = [PochFactor(Q(1), (2,), 2, INF, -1)]
        f = exact_expansion(factors, 2)
        assert f[(0,)].is_one()
        assert f[(2,)] == Q(1) / (1 - Q(2))
        table = ConePart(factors).expand(20)
        assert (table[(2,)] - f[(2,)].to_series(20)).is_zero()

    def test_heights_agree(self):
        # exact expansions taken to two heights agree where both reach, and
        # the series table agrees with them below its cut
        from macpoly.weights import ConePart

        factors = [PochFactor(Q(1), (1,), 2, INF, -1),
                   PochFactor(ONE, (2,), 2, INF, 1)]
        part = ConePart(factors)
        small, big = exact_expansion(factors, 4), exact_expansion(factors, 7)
        flat = part.expand(20)
        for e, c in small.items():
            assert big[e] == c
            assert (flat[e] - c.to_series(20)).is_zero()


class TestPairings:
    def test_exact_vs_series_backends(self):
        # a finite weight paired by the exact engine, and in its
        # infinite-ratio form by the series engine
        spec = WeightSpec(
            [PochFactor(ONE, (2,), 2, 2, 1)],
            [PochFactor(ONE, (2,), 2, 2, 1)], "2L", rank=1)
        exact_engine = WeightEngine(spec)
        series_engine = WeightEngine(infinite_ratio_form(spec), order=30)
        assert series_engine._lookup is None
        rng = random.Random(0)
        for _ in range(8):
            f = mono((rng.randint(-2, 2),)) + mono((rng.randint(-2, 2),), Q(1))
            g = mono((rng.randint(-2, 2),))
            lhs = sym_pair(f, g, exact_engine)
            assert isinstance(lhs, ExactScalar)
            rhs = sym_pair(f, g, series_engine)
            assert rhs.prec == series_engine.order
            assert (rhs - lhs.to_series(rhs.prec)).is_zero()

    def test_sym_pair_normalized_one(self):
        spec = WeightSpec([PochFactor(ONE, (2,), 2, 1, 1)],
                          [PochFactor(ONE, (2,), 2, 1, 1)], "2L", rank=1)
        eng = WeightEngine(spec)
        one = GAElement.one("2L", 1)
        assert (sym_pair(one, one, eng) / ct_norm(eng)).is_one()

    def test_orbit_sum_orthogonal_to_one(self):
        # single-parameter one-variable weight at the first nontrivial level
        spec = macdonald_sym_weight(R1, 2, Q(2), "2L")
        eng = WeightEngine(spec)
        m1 = mono((1,)) + mono((-1,))
        assert sym_pair(m1, GAElement.one("2L", 1), eng).is_zero()

    def test_series_weight_norm_matches_exact(self):
        # an integer-parameter weight paired through the series machinery
        # in its infinite-ratio form agrees with its exact finite form below
        # the working order
        spec = macdonald_sym_weight(R1, 2, Q(2), "2L")
        eng_series = WeightEngine(infinite_ratio_form(spec), order=30)
        eng_exact = WeightEngine(spec)
        for m in range(3):
            f = mono((m,)) + mono((-m,)) if m else GAElement.one("2L", 1)
            lhs = eng_series.ct_pair(f)
            rhs = eng_exact.ct_pair(f).to_series(lhs.prec)
            assert (lhs - rhs).is_zero()

    @pytest.mark.parametrize("order", [20, 40])
    def test_aw_series_weight_matches_functional(self, order):
        # the one-variable weight as a series engine pairs every e^k + e^-k
        # to the moment functional's value, far above the degrees a family
        # of low degree reads
        from fractions import Fraction

        from macpoly.families import AWFunctional, AWParams

        p = AWParams.from_labels(Fraction(3, 2), Fraction(5, 2), 0, 0)
        L = AWFunctional(p, "2L")
        eng = WeightEngine(aw_weight((p.a, p.b, p.c, p.d), "2L"),
                           order=order)
        norm = ct_norm(eng)
        for k in range(1, 16):
            mk = mono((k,)) + mono((-k,))
            got = eng.ct_pair(mk) / norm
            assert got.prec == order
            assert (L.value(mk).to_series(order) - got).is_zero(), k

    def test_negative_minimum_matches_exact_everywhere(self):
        # the infinite-ratio form of a finite weight pairs every monomial as
        # the exact engine does, also beyond the finite weight's support
        series = WeightEngine(infinite_ratio_form(NEGATIVE_MINIMUM), order=20)
        exact = WeightEngine(NEGATIVE_MINIMUM)
        beyond = 0
        for m in range(-12, 13):
            f = mono((m,), ONE + Q(1))
            want = exact.ct_pair(f)
            beyond += want.is_zero()
            got = series.ct_pair(f)
            assert got.prec == series.order
            assert (got - want.to_series(got.prec)).is_zero(), m
        assert beyond > 10


class TestRank2Weights:
    def test_group_weight_is_finite(self):
        spec = macdonald_sym_weight(R2, 2, Q(2), "2L")
        eng = WeightEngine(spec)
        assert eng._lookup is not None
        # ct of the weight: for the unit-parameter family this is #W / stabiliser
        val = ct_norm(eng)
        assert not val.is_zero()

    def test_nonsym_weight_finite_k(self):
        spec = macdonald_nonsym_weight(R2, 2, Q(2), "2L")
        eng = WeightEngine(spec)
        assert eng._lookup is not None

    def test_w_invariance_of_symmetric_weight(self):
        spec = macdonald_sym_weight(R2, 2, Q(2), "2L")
        W = GAElement(WeightEngine(spec)._lookup.__self__, "2L")
        for i in range(2):
            assert W.map_exponents(lambda e: R2.reflect(i, e)) == W


class TestSeriesWeightCoefficient:
    def test_matches_series_sums(self):
        # odd v-powers and coefficients over several denominators, so every
        # row is cut at its own order and rescaled to the common denominator
        third = ONE / ExactScalar.from_int(3)
        plus = [PochFactor(ONE, (2,), 1, INF, 1),
                PochFactor(ExactScalar.v_power(1) / ExactScalar.from_int(2),
                           (1,), 1, INF, -1),
                PochFactor(-ExactScalar.v_power(3) * third, (1,), 2, INF, -1)]
        spec = WeightSpec(plus, list(plus), "2L", rank=1)
        eng = WeightEngine(spec, order=24)
        assert len({c.den for c in eng._plus_terms.values()}) > 2
        odd = False
        for k in range(-4, 5):
            got = eng._weight_coefficient((k,))
            want = weight_coefficient_sum(eng, (k,))
            assert (got.num, got.den, got.prec) == (want.num, want.den,
                                                    want.prec)
            odd = odd or any(e % 2 for e in got.num)
        assert odd


class TestSeriesWeightOrders:
    def test_ai2_orders_agree_below_the_lower_work(self):
        # W(nu) of AI2's zonal weight from the order-60 and the order-100
        # engines agree below the order-60 engine's working order, on a box
        # of exponents far above the heights a low family reads
        from macpoly.cases import build_case

        low = build_case("AI2", order=60).nabla_engine
        high = build_case("AI2", order=100).nabla_engine
        assert low._work == 68
        box = range(-14, 15)
        for nu in ((a, b) for a in box for b in box):
            got = low._weight_coefficient(nu)
            assert got.prec == low._work
            assert (got - high._weight_coefficient(nu)).is_zero(), nu


class TestPackedKernel:
    """`_pack` and `_unpack`: signed B-bit slots on a strided v-grid."""

    B = 9
    TOP = (1 << (B - 1)) - 1  # the largest slot value

    @pytest.mark.parametrize("g", [1, 2, 4])
    @pytest.mark.parametrize("low", [-7, 0, 5])
    def test_round_trip(self, g, low):
        from macpoly.scalars import _pack, _unpack

        B, top = self.B, self.TOP
        # extreme slots next to each other, runs of zero slots, and a
        # negative top slot that leaves the packed integer negative
        for coeffs in ([top, -top, 0, 0, 0, 1, -1, 0, 0, -top, top, 3],
                       [-1, 0, 0, 0, top, 0, -top],
                       [0, 0, 5],
                       [-top]):
            num = {low + g * i: c for i, c in enumerate(coeffs) if c}
            packed = _pack(num, low, g, B)
            high = low + g * (len(coeffs) - 1)  # the top slot's power
            assert (packed < 0) == (coeffs[-1] < 0)
            for limit in (high + 1, high + 5 * g + 3, 10 ** 6):
                assert _unpack(packed, low, g, B, limit) == num
            for limit in (low, low + 1, low + 2 * g, high, high - g + 1):
                assert _unpack(packed, low, g, B, limit) == {
                    e: c for e, c in num.items() if e < limit}

    def test_empty(self):
        from macpoly.scalars import _pack, _unpack

        assert _pack({}, 3, 2, self.B) == 0
        assert _unpack(0, 3, 2, self.B, 100) == {}

    @pytest.mark.parametrize("g", [1, 2, 4])
    def test_products_and_sums(self, g):
        from macpoly.scalars import _pack, _unpack

        # a sum of packed products on one grid is the sum of the
        # convolutions, while the slot bound holds
        rng = random.Random(g)
        for _ in range(50):
            polys = []
            for _ in range(6):
                low = g * rng.randint(-5, 5)
                polys.append((low, {low + g * i: rng.randint(-99, 99)
                                    for i in range(rng.randint(1, 12))}))
            base = min(a + b for (a, _), (b, _) in zip(polys[::2],
                                                       polys[1::2]))
            want, total = {}, 0
            B = (3 * 12 * 99 * 99).bit_length() + 2
            for (la, a), (lb, b) in zip(polys[::2], polys[1::2]):
                for e1, c1 in a.items():
                    for e2, c2 in b.items():
                        want[e1 + e2] = want.get(e1 + e2, 0) + c1 * c2
                total += (_pack(a, la, g, B) * _pack(b, lb, g, B)) << (
                    B * ((la + lb - base) // g))
            want = {e: c for e, c in want.items() if c}
            assert _unpack(total, base, g, B, 10 ** 6) == want
            cut = base + g * rng.randint(0, 12) + rng.randint(0, g - 1)
            assert _unpack(total, base, g, B, cut) == {
                e: c for e, c in want.items() if e < cut}


class TestPackedWeightCoefficient:
    """W(nu) from packed products on AI2's engines, and from a disk cache
    that holds the nested loops' flat tables."""

    def test_ai2_matches_series_sums(self):
        from macpoly.cases import build_case

        case = build_case("AI2", order=100)
        for eng in (case.nabla_engine, case.delta_engine):
            assert eng._stride == 4
            for a in range(-4, 5):
                for b in range(-4, 5):
                    got = eng._weight_coefficient((a, b))
                    want = weight_coefficient_sum(eng, (a, b))
                    assert (got.num, got.den, got.prec) == (
                        want.num, want.den, want.prec)
            # only the coefficients some product read were packed
            packs_p, packs_m = eng._packs
            assert 0 < len(packs_p) < len(eng._plus_terms)

    def test_ai2_verify_sums_match_the_loop(self, tmp_path, monkeypatch):
        import macpoly.weights as wm
        from macpoly.cli import run_verify

        # every pairing sum of a cold and a warm AI2 verify, against the
        # term-by-term sum
        kernel, calls = wm.series_sum_of_products, []

        def checked(products, prec):
            products = list(products)
            got = kernel(products, prec)
            want = series_sum_loop(products, prec)
            assert (got.num, got.den, got.prec) == (
                want.num, want.den, want.prec)
            calls.append(len(products))
            return got

        monkeypatch.setattr(wm, "series_sum_of_products", checked)
        monkeypatch.setattr(wm, "_cache_dir", str(tmp_path))
        for _ in ("cold", "warm"):
            calls.clear()
            _, status = run_verify("AI2", height=1)
            assert status == 0
            assert len(calls) > 100 and max(calls) > 1

    def test_cache_of_the_loops_reads_back(self, tmp_path, monkeypatch):
        import macpoly.weights as wm

        # a version-6 file per part written from the nested loops' table is
        # the file this build writes, and reads back to the same W(nu)
        spec = macdonald_nonsym_weight(R2, 2, Q(3), "2L")
        monkeypatch.setattr(wm, "_cache_dir", None)
        fresh = WeightEngine(spec, order=24)
        loops, packed = tmp_path / "loops", tmp_path / "packed"
        loops.mkdir()
        packed.mkdir()
        names = []
        for part, terms in zip(fresh._parts, (fresh._plus_terms,
                                              fresh._minus_terms)):
            cut = _expansion_key(part, terms)
            names.append(wm._part_key(part.factors, cut) + ".json")
            (loops / names[-1]).write_text(wm._part_text(
                names[-1][:-5],
                flat_table_loop(part, _past_top(part, terms), cut)))
        assert len(set(names)) == 2

        def rebuild():
            # the parts outlive `fresh`'s build, so forget their tables
            for part in fresh._parts:
                part._expansions.clear()
            return WeightEngine(spec, order=24)

        monkeypatch.setattr(wm, "_cache_dir", str(packed))
        rebuild()
        assert sorted(p.name for p in packed.iterdir()) == sorted(names)
        for name in names:
            assert (packed / name).read_bytes() == (loops / name).read_bytes()

        monkeypatch.setattr(wm.ConePart, "_expand", _no_expansion)
        monkeypatch.setattr(wm, "_cache_dir", str(loops))
        cached = rebuild()
        for a in range(-4, 5):
            for b in range(-4, 5):
                got = cached._weight_coefficient((a, b))
                want = fresh._weight_coefficient((a, b))
                assert (got.num, got.den, got.prec) == (
                    want.num, want.den, want.prec)


class TestWeightCoefficientScan:
    """`_weight_coefficient` over the order table `_set_parts` keeps, on
    AI2's symmetric (nabla) and nonsymmetric (delta) engines."""

    @pytest.mark.parametrize("which, symmetric", [("nabla_engine", True),
                                                  ("delta_engine", False)])
    def test_ai2_box(self, which, symmetric, monkeypatch):
        # every nu in the box against the scan over all plus terms with
        # min(); every W(nu) is exact to `work`, W(-nu) is served from
        # W(nu) exactly when the two parts are one, and the engine scans
        # once per canonical exponent
        from macpoly.cases import build_case

        eng = getattr(build_case("AI2", order=100), which)
        assert (eng._minus_terms is eng._plus_terms) == symmetric
        scans = _count_scans(monkeypatch)
        box = range(-12, 13)
        served = 0
        for nu in ((a, b) for a in box for b in box):
            neg = (-nu[0], -nu[1])
            before = eng._w_cache.get(neg)
            got = eng._weight_coefficient(nu)
            want = weight_coefficient_scan(eng, nu)
            assert (got.num, got.den, got.prec) == (want.num, want.den,
                                                    want.prec), nu
            assert got.prec == eng._work
            if before is not None and nu != neg:
                assert (got is before) == symmetric, nu
                served += 1
        assert sorted(scans) == sorted({eng._canonical((a, b))
                                        for a in box for b in box})

    def test_served_negation_skips_the_scan(self):
        # a symmetric engine answers W(-nu) from its cache alone
        from macpoly.cases import build_case

        eng = build_case("AI2", order=100).nabla_engine
        got = eng._weight_coefficient((3, -2))
        eng._plus_lows = []  # a scan would now find no products
        assert eng._weight_coefficient((-3, 2)) is got
        assert eng._weight_coefficient((1, 1)).is_zero()


class TestSeriesVectorPair:
    """vector_pair on a series weight: moment tables, guards, sharing."""

    @staticmethod
    def _engines():
        spec = macdonald_sym_weight(R1, 2, Q(2), "2L")
        return (WeightEngine(infinite_ratio_form(spec), order=30),
                WeightEngine(spec))

    @staticmethod
    def _matrix():
        one = GAElement.one("2L", 1)
        f = mono((1,)) + mono((-1,))
        return [[one, f], [f, one.scale(Q(-1))]]

    def test_matches_exact_weight_and_products(self):
        series, exact = self._engines()
        M = self._matrix()
        rng = random.Random(2)

        def vec():
            return [mono((rng.randint(-1, 1),), Q(rng.randint(-1, 1))) +
                    mono((rng.randint(-1, 1),)) for _ in range(2)]

        for _ in range(8):
            u, w = vec(), vec()
            got = series.vector_pair(u, M, w)
            assert got.prec == series.order
            assert (got - exact.vector_pair(u, M, w).to_series(got.prec)).is_zero()
            assert (got - vector_pair_products(series, u, M, w)).is_zero()

    def test_margin_guard(self):
        # the orders of the coefficients and of M together exceed the margin
        series, _ = self._engines()
        M = [[mono((0,), ExactScalar.v_power(-4))]]
        one = [GAElement.one("2L", 1)]
        deep = [mono((0,), SeriesScalar({-5: 1, -4: 2}, 30))]
        with pytest.raises(TruncationError, match="margin"):
            series.vector_pair(deep, M, one)
        with pytest.raises(TruncationError, match="margin"):
            vector_pair_products(series, deep, M, one)
        series.vector_pair([mono((0,), SeriesScalar({-4: 1}, 30))], M, one)

    def test_equal_entries_share_a_series_table(self):
        series, _ = self._engines()
        M = self._matrix()
        tables = series._moment_tables(M)
        assert tables[0][1] is tables[1][0]
        assert tables[0][0] is not tables[1][1]
        series.vector_pair([mono((1,)), mono((0,))], M, [mono((0,)), mono((1,))])
        filled = [m for row in tables for t in row for m in t.values.values()]
        assert filled and all(isinstance(m, SeriesScalar) for m in filled
                              if m is not None)


class TestCacheKey:
    """A series table's disk-cache key holds every input of its expansion:
    each field of each factor and the order prec.  The engine's order and
    MARGIN reach it only through prec."""

    FACTORS = [PochFactor(ONE, (2,), 2, INF, 1),
               PochFactor(Q(2), (2,), 2, INF, -1)]

    def test_version(self, monkeypatch):
        import macpoly.weights as wm

        assert wm.CACHE_VERSION == 6
        key = wm._part_key(self.FACTORS, 60)
        monkeypatch.setattr(wm, "CACHE_VERSION", wm.CACHE_VERSION + 1)
        assert wm._part_key(self.FACTORS, 60) != key

    def test_every_field(self):
        from dataclasses import replace

        import macpoly.weights as wm

        base = self.FACTORS
        keys = {wm._part_key(base, 60)}
        # finite factors are numerator factors: the length goes on base[0]
        for i, change in ((1, {"coeff": Q(4)}), (1, {"exponent": (4,)}),
                          (1, {"base_log": 4}), (0, {"length": 3}),
                          (1, {"side": 1})):
            factors = list(base)
            factors[i] = replace(factors[i], **change)
            keys.add(wm._part_key(factors, 60))
        keys.add(wm._part_key(base, 61))
        assert len(keys) == 7
        assert wm._part_key(list(base), 60) in keys

    def test_plan_reaches_the_key(self, monkeypatch):
        import macpoly.weights as wm

        spec = WeightSpec(self.FACTORS, list(self.FACTORS), "2L", rank=1)

        def plan_and_key(order):
            eng = WeightEngine(spec, order=order)
            assert eng._minus_terms is eng._plus_terms
            part = eng._parts[0]
            cut = _expansion_key(part, eng._plus_terms)
            return cut, wm._part_key(part.factors, cut)

        base, order = plan_and_key(60), plan_and_key(61)
        monkeypatch.setattr(wm, "MARGIN", wm.MARGIN + 1)
        margin = plan_and_key(60)
        # a higher order raises the cut, and with it the key
        assert order[0] > base[0] and order[1] != base[1]
        # order and MARGIN enter the cut only through their sum
        assert margin == order


class TestDigest:
    """Both cache digests, the file key and the table's, are the hex SHA-1
    that hashlib gives (hashlib is only the oracle here), with or without
    the interpreter's built-in SHA-1 module."""

    @staticmethod
    def _file():
        """The key's input, the key, the table text and the file text of a
        real cone-part table."""
        import macpoly.weights as wm

        eng = WeightEngine(macdonald_nonsym_weight(R2, 2, Q(3), "2L"),
                           order=24)
        part = eng._parts[0]
        cut = _expansion_key(part, eng._plus_terms)
        blob = repr((wm.CACHE_VERSION, [f.to_json() for f in part.factors],
                     cut)).encode()
        key = wm._part_key(part.factors, cut)
        text = wm._part_text(key, eng._plus_terms).encode()
        table = text[text.index(wm._TABLE_SEP) + len(wm._TABLE_SEP):-1]
        assert table.startswith(b'{"den": ') and len(table) > 1000
        return blob, key, table, text

    @pytest.mark.parametrize("builtin", [True, False])
    def test_equals_hashlib(self, monkeypatch, builtin):
        import hashlib
        import sys

        import macpoly.weights as wm

        if not builtin:
            # as on an interpreter built without the module
            monkeypatch.setitem(sys.modules, "_sha1", None)
        blob, _, table, text = self._file()
        for data in (b"", b"abc", blob, table, text):
            assert wm._digest(data) == hashlib.sha1(data).hexdigest()

    def test_file_holds_hashlib_digests(self):
        import hashlib

        import macpoly.weights as wm

        blob, key, table, text = self._file()
        assert key == hashlib.sha1(blob).hexdigest()
        assert text.startswith(b'{"key": "%s", "sha1": "%s"' % (
            key.encode(), hashlib.sha1(table).hexdigest().encode()))
        assert wm._part_table(text, key) is not None


class TestTermOrders:
    """The closed-form term orders of an infinite factor (`_term_order`)
    against their recurrence (`factor_env_loop`), and the lowest and last
    terms read from them."""

    FACTORS = [PochFactor(ExactScalar.v_power(oc), (1,), base_log, INF, side)
               for oc in range(-6, 7) for base_log in range(1, 5)
               for side in (1, -1)]

    def test_closed_form(self):
        from macpoly.weights import _term_order

        for f in self.FACTORS:
            assert ([_term_order(f, k) for k in range(31)]
                    == factor_env_loop(f, 30)), f

    def test_lowest_and_last_term(self):
        from macpoly.weights import _last_term, _lowest

        for f in self.FACTORS:
            env = factor_env_loop(f, 80)
            if f.side == -1 and f.coeff.v_order() <= 0:
                with pytest.raises(TruncationError, match="never gains"):
                    _lowest(f)
                continue
            assert _lowest(f) == min(env), f
            # the last term below `need`, and no earlier than the lowest
            first_low = env.index(min(env))
            for need in range(min(env) - 2, 40):
                want = max([first_low] + [k for k, o in enumerate(env)
                                          if o < need])
                assert want < 80 and _last_term(f, need) == want, (f, need)

    def test_orders_of_the_exact_terms(self):
        from macpoly.weights import _term_order

        from oracles import _factor_terms

        for f in self.FACTORS:
            if abs(f.coeff.v_order()) <= 2 and f.base_log <= 2:
                for k, c in _factor_terms(f, 6):
                    assert c.v_order() == _term_order(f, k), (f, k)


class TestSeriesPlan:
    """A series engine's plan, its working order and the two cuts, equals
    the plan from the lowest orders of the factors' exact terms
    (`series_plan`)."""

    @staticmethod
    def _check(eng):
        cuts = tuple(_expansion_key(part, terms) for part, terms in
                     zip(eng._parts, (eng._plus_terms, eng._minus_terms)))
        assert (eng._work, cuts) == series_plan(eng.spec, eng.order)

    @pytest.mark.parametrize("height", [1, 2, 3])
    @pytest.mark.parametrize("order", [60, 100, 150])
    def test_ai2(self, order, height, monkeypatch):
        # the plan depends on the order alone: the vector members up to
        # family height `height` pair from the planned tables, with no
        # refusal and no further expansion
        import macpoly.weights as wm
        from macpoly.cases import build_case

        case = build_case("AI2", order=order)
        self._check(case.nabla_engine)
        self._check(case.delta_engine)
        monkeypatch.setattr(wm.ConePart, "_expand", _no_expansion)
        for lam in case.restricted.grid(height):
            for b in range(len(case.bottoms)):
                case.vector_member(b, lam)

    def test_negative_orders(self):
        from macpoly.weights import _first_gain

        factors = TestSharedParts.NEGATIVE_ORDERS
        self._check(WeightEngine(WeightSpec(factors, factors, "2L", rank=1),
                                 order=20))
        spec = infinite_ratio_form(NEGATIVE_MINIMUM)
        # the plus coefficient v^-2 against the base's v^4: the terms fall
        # once, then rise
        assert _first_gain(spec.plus[0]) == 2
        self._check(WeightEngine(spec, order=20))

    @pytest.mark.parametrize("order", [0, -1])
    def test_denominator_that_never_gains(self, order):
        # a denominator factor whose coefficient has order <= 0 adds a
        # term of order <= 0 at every step, so no cut bounds its terms:
        # refused at build
        spec = WeightSpec([PochFactor(ONE, (2,), 2, INF, 1),
                           PochFactor(ExactScalar.v_power(order), (1,), 2,
                                      INF, -1)], [], "2L", rank=1)
        with pytest.raises(TruncationError, match="never gains"):
            WeightEngine(spec, order=20)


class TestSharedParts:
    """One cone part per list of factors, held weakly, with one expansion
    per cut."""

    FACTORS = [PochFactor(Q(1), (1,), 2, INF, -1), PochFactor(ONE, (2,), 2, INF, 1)]

    def test_registry_keys(self):
        from dataclasses import replace

        from macpoly.weights import cone_part

        part = cone_part(self.FACTORS)
        assert cone_part(list(self.FACTORS)) is part
        others = [cone_part([self.FACTORS[0], replace(self.FACTORS[1], **c)])
                  for c in ({"coeff": Q(2)}, {"exponent": (4,)},
                            {"base_log": 4}, {"side": -1})]
        assert len({id(p) for p in [part] + others}) == 5

    def test_equal_factor_lists_share_one_part(self):
        from macpoly.weights import cone_part

        # the factors rebuilt field by field: equal, not the same objects
        part = cone_part(self.FACTORS)
        rebuilt = [PochFactor(Q(1), (1,), 2, INF, -1),
                   PochFactor(ExactScalar.one(), (2,), 2, INF, 1)]
        assert rebuilt == self.FACTORS
        assert cone_part(rebuilt) is part
        assert cone_part(tuple(rebuilt)) is part

    def test_memo_keys(self):
        from macpoly.weights import cone_part

        part = cone_part(self.FACTORS)
        got = part.expand(20)
        assert part.expand(20) is got
        variants = [part.expand(21), part.expand(30)]
        assert all(v is not got for v in variants)
        assert {c.prec for c in variants[0].values()} == {21}
        # a higher cut keeps more of the terms
        assert (sum(len(c.num) for c in variants[1].values())
                > sum(len(c.num) for c in got.values()))

    @staticmethod
    def _check_flat(part, cut):
        # the flat table equals the exact expansion, taken past its top
        # height, cut at `cut`, term by term, and holds no term that
        # vanishes below the cut
        flat = part.expand(cut)
        exact = exact_expansion(part.factors, _past_top(part, flat))
        kept = 0
        for e, c in exact.items():
            s = c.to_series(cut)
            if s.is_zero():
                assert e not in flat
            else:
                assert flat[e].prec == cut and (flat[e] - s).is_zero()
                kept += 1
        assert len(flat) == kept
        return flat

    def test_flat_matches_exact_ai2(self):
        from macpoly.cases import build_case
        from macpoly.weights import cone_part

        case = build_case("AI2")
        for builder in (macdonald_sym_weight, macdonald_nonsym_weight):
            spec = builder(case.restricted, case.qhat_log, case.t,
                           case.lattice)
            for factors in (spec.plus, spec.minus):
                part = cone_part(factors)
                assert len(self._check_flat(part, 24)) > 1

    NEGATIVE_ORDERS = [PochFactor(ExactScalar.v_power(-2), (2,), 2, INF, 1),
                       PochFactor(ExactScalar.v_power(-1, 3), (1,), 2, INF, 1),
                       PochFactor(Q(1), (1,), 2, INF, -1)]

    def test_flat_matches_exact_negative_orders(self):
        from macpoly.weights import cone_part

        # factors whose terms reach negative v-orders, so the running
        # product is cut above `cut`
        part = cone_part(self.NEGATIVE_ORDERS)
        flat = self._check_flat(part, 10)
        assert min(c.min_order() for c in flat.values()) < 0

    @staticmethod
    def _check_oracle(part, cut):
        # the flat table equals the nested loops' table, taken past its top
        # height, in num, den and prec
        got = part.expand(cut)
        want = flat_table_loop(part, _past_top(part, got), cut)
        assert got.keys() == want.keys()
        for e, c in got.items():
            w = want[e]
            assert (c.num, c.den, c.prec) == (w.num, w.den, w.prec)

    @pytest.mark.parametrize("cut", [60, 150])
    def test_flat_rows_off_the_offset_grid(self, cut):
        from macpoly.weights import cone_part

        # each term of 1/(v e^1; q^2)_inf has v-powers k + 4j, 4-strided from
        # its lowest, and (e^2; q^2)_inf's powers are multiples of 4; so
        # products that land on one exponent start at v-orders that differ
        # by 1, 2 or 3, and only the stride 1 aligns their slots
        factors = [PochFactor(ExactScalar.v_power(1), (1,), 2, INF, -1),
                   PochFactor(ONE, (2,), 2, INF, 1),
                   PochFactor(ExactScalar.v_power(2, -1), (1,), 2, INF, -1)]
        part = cone_part(factors)
        self._check_oracle(part, cut)
        # the exact expansion, too slow to take past the top height here,
        # agrees on the heights <= 10
        flat = part.expand(cut)
        for e, c in exact_expansion(factors, 10).items():
            s = c.to_series(cut)
            assert (flat[e] - s).is_zero() if e in flat else s.is_zero()
        lows = {c.min_order() % 4 for c in flat.values()}
        assert len(lows) > 2

    def test_flat_matches_loops(self):
        from macpoly.cases import build_case

        # every flat table an AI2 engine builds, and the negative-order
        # part above
        case = build_case("AI2", order=100)
        engines = (case.nabla_engine, case.delta_engine)
        parts = {id(p): p for eng in engines for p in eng._parts}
        seen = 0
        for part in parts.values():
            for cut in list(part._expansions):
                self._check_oracle(part, cut)
                seen += 1
        assert seen == 2
        from macpoly.weights import cone_part

        self._check_oracle(cone_part(self.NEGATIVE_ORDERS), 10)

    def test_series_cut_with_negative_minimum_order(self):
        # a finite spec paired in its infinite-ratio form: the plus part
        # reaches order -2, so the minus part is cut at work + 2, and the
        # pairings agree with the exact engine below the guaranteed order
        spec = NEGATIVE_MINIMUM
        series = WeightEngine(infinite_ratio_form(spec), order=20)
        exact = WeightEngine(spec)
        assert min(c.min_order() for c in series._plus_terms.values()) == -2
        minus_part = series._parts[1]
        cut = _expansion_key(minus_part, series._minus_terms)
        assert cut == series._work + 2
        self._check_flat(minus_part, cut)
        for m in range(-2, 3):
            f = mono((m,), ONE + Q(1))
            got = series.ct_pair(f)
            assert got.prec == series.order
            assert (got - exact.ct_pair(f).to_series(got.prec)).is_zero()

    def test_engines_share_the_plus_part(self, tmp_path, monkeypatch):
        # built cold, and warm from the files the cold build wrote
        import gc
        import weakref

        import macpoly.weights as wm
        from macpoly.cases import build_case

        monkeypatch.setattr(wm, "_cache_dir", str(tmp_path))
        refs = []
        for warm in (False, True):
            if warm:
                # the cold parts are gone, so their tables are read back
                gc.collect()
                assert all(r() is None for r in refs)
                assert len(list(tmp_path.iterdir())) == 2
                monkeypatch.setattr(wm.ConePart, "_expand", _no_expansion)
            case = build_case("AI2")
            nabla, delta = case.nabla_engine, case.delta_engine
            assert nabla._plus_terms is delta._plus_terms
            assert nabla._plus_terms is nabla._minus_terms
            refs = [weakref.ref(p) for p in nabla._parts + delta._parts]
            del case, nabla, delta

    def test_second_case_expands_nothing(self, monkeypatch):
        # while one AI2 case lives, a second case of the same order finds
        # its tables in the parts' memo, which is keyed by the cut alone
        import macpoly.weights as wm
        from macpoly.cases import build_case

        monkeypatch.setattr(wm, "_cache_dir", None)
        first = build_case("AI2")
        eng = first.nabla_engine
        monkeypatch.setattr(wm.ConePart, "_expand", _no_expansion)
        second = build_case("AI2")
        assert second.nabla_engine is not eng
        assert second.nabla_engine._plus_terms is eng._plus_terms

    def test_cold_ai2_verify_expands_two_parts(self, monkeypatch):
        import macpoly.weights as wm
        from macpoly.cli import run_verify

        monkeypatch.setattr(wm, "_cache_dir", None)
        calls = []
        expand = wm.ConePart._expand

        def counted(self, prec):
            calls.append(prec)
            return expand(self, prec)

        monkeypatch.setattr(wm.ConePart, "_expand", counted)
        report, status = run_verify("AI2", height=1)
        assert status == 0
        assert len(calls) == 2

    def test_warm_ai2_verify_expands_nothing(self, monkeypatch, tmp_path):
        import macpoly.weights as wm
        from macpoly.cli import run_verify

        monkeypatch.setattr(wm, "_cache_dir", str(tmp_path))
        cold, status = run_verify("AI2", height=1)
        assert status == 0
        names = sorted(p.name for p in tmp_path.iterdir())
        assert len(names) == 2
        monkeypatch.setattr(wm.ConePart, "_expand", _no_expansion)
        warm, status = run_verify("AI2", height=1)
        assert status == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == names
        assert json.dumps(warm) == json.dumps(cold)

    def test_parts_die_with_their_case(self):
        import gc
        import weakref

        import macpoly.weights as wm
        from macpoly.cases import build_case

        gc.collect()
        before = len(wm._parts)
        case = build_case("AI2")
        parts = case.nabla_engine._parts + case.delta_engine._parts
        refs = [weakref.ref(p) for p in parts]
        # the zonal plus and minus parts and the plus part of the
        # non-symmetric weight are one part
        assert len({id(p) for p in parts}) == 2
        assert len(wm._parts) == before + 2
        del case, parts
        gc.collect()
        assert all(r() is None for r in refs)
        assert len(wm._parts) == before

    @pytest.mark.parametrize("cid", ["AI2", "A2G", "BII:n=2,s=1"])
    def test_engines_freed_without_the_cyclic_gc(self, cid):
        # series, exact and moment engines hold no reference cycle, so a
        # paired case and its engines go with their last reference, by
        # reference counts alone
        import gc
        import weakref

        from macpoly.cases import build_case

        gc.disable()
        try:
            case = build_case(cid)
            spec = case.family_spec
            for lam in case.restricted.grid(1):
                for b in range(len(case.bottoms)):
                    case.vector_member(b, lam)
                m = case.m_of(lam)
                assert spec.pair(m, m, True) is not None
                if spec.engine_nonsym is not None:
                    assert spec.pair(m, m, False) is not None
            engines = [case.nabla_engine, spec.engine_sym]
            if case.aw is None:
                engines.append(case.delta_engine)
            refs = [weakref.ref(x) for x in [case, spec] + engines]
            del case, spec, engines, m
            assert all(r() is None for r in refs)
        finally:
            gc.enable()


def _fields(x):
    """A scalar's stored fields, so two results compare term by term (a
    series by its numerator, denominator and precision)."""
    return (type(x).__name__, x.num, x.den, getattr(x, "prec", None))


def _pairings(case, height=1):
    """Every Gram entry and every recurrence coefficient of the vector
    family over the labels up to `height`, as stored fields."""
    grid = case.restricted.grid(height)
    grams = [[[_fields(x) for x in row] for row in case.gram_block(l, m)]
             for l in grid for m in grid]
    recs = [{b: {x: _fields(c) for x, c in coeffs.items()}
             for b, coeffs in case.recurrence_coeffs(0, l)["coeffs"].items()}
            for l in grid]
    return grams, recs


class TestBlockMemo:
    """The blocks of `vector_pair` are cut once per engine per argument."""

    @pytest.mark.parametrize("cid", ["A2G", "AI2", "BII:n=2,s=1"])
    def test_pairings_match_an_engine_without_the_memo(self, cid,
                                                       monkeypatch):
        # exact, series and moment engines: the memo changes no value
        from macpoly.cases import ExampleCase, build_case

        def fresh_label(case, b, lam):
            x = case._ambient(b, lam)
            return x, (case.datum.pair_two_rho(x), lam, b)

        monkeypatch.setattr(WeightEngine, "_blocks",
                            lambda self, f, group: self._cut(f, group))
        monkeypatch.setattr(ExampleCase, "_label", fresh_label)
        fresh = build_case(cid)
        want = _pairings(fresh)
        assert not fresh.nabla_engine._cuts and not fresh._labels
        monkeypatch.undo()
        case = build_case(cid)
        assert _pairings(case) == want
        assert case.nabla_engine._cuts and case._labels

    def test_group_is_part_of_the_key(self):
        # one element paired with and without the group: each call reads
        # the blocks of its own cut
        from macpoly.cases import build_case

        case = build_case("A2G")
        eng, W = case.nabla_engine, case.restricted
        f = case.m_of((1, 0))
        with_group = eng._blocks(f, W)
        without = eng._blocks(f, None)
        assert with_group == eng._cut(f, W) and len(with_group) == 1
        assert without == eng._cut(f, None) and len(without) == len(f.terms)
        assert eng._blocks(f, W) is with_group
        assert eng._blocks(f, None) is without
        unit = [[GAElement.one(case.lattice, case.rank)]]
        assert eng.vector_pair([f], unit, [f], W) == eng.vector_pair(
            [f], unit, [f])


def _count_scans(monkeypatch):
    """Count the calls of `WeightEngine._scan` from now on."""
    calls = []
    scan = WeightEngine._scan

    def counted(self, nu):
        calls.append(nu)
        return scan(self, nu)

    monkeypatch.setattr(WeightEngine, "_scan", counted)
    return calls


def _box(r):
    return [(a, b) for a in range(-r, r + 1) for b in range(-r, r + 1)]


def _prove_by_pairing(case, eng):
    """Pair 1 with 1 through `eng` with the case's Weyl group, the way
    every pairing of the vector family passes it."""
    one = case.one()
    eng.vector_pair([one], [[one]], [one], case.restricted)


class TestOrbitSharing:
    """W(nu) and the moments of a W-invariant weight are computed once per
    Weyl orbit, and every value equals the one computed without sharing."""

    @pytest.mark.parametrize("cid", ["AI2", "A2G", "AII5"])
    def test_pairings_match_an_engine_without_sharing(self, cid,
                                                      monkeypatch):
        # series (AI2 at its verify order 100) and exact weights, every
        # Gram entry and recurrence coefficient at heights <= 2
        from macpoly.cases import build_case

        def refuse(self, group):
            self._proofs[id(group)] = (group, False)

        monkeypatch.setattr(WeightEngine, "_prove", refuse)
        monkeypatch.setattr(WeightEngine, "_canonical", lambda self, nu: nu)
        fresh = build_case(cid, order=100 if cid == "AI2" else 60)
        want = _pairings(fresh, 2)
        assert fresh.nabla_engine._orbits is None
        monkeypatch.undo()
        case = build_case(cid, order=fresh.order)
        assert _pairings(case, 2) == want
        eng = case.nabla_engine
        assert eng._orbits is case.restricted
        for _, rows in eng._moments.values():
            assert all(t.orbits is case.restricted for row in rows
                       for t in row)

    def test_weight_coefficients_in_a_box(self, monkeypatch):
        # once proven, every W(nu) of AI2's zonal weight in a 25 x 25 box
        # equals the uncached scan, and the engine scans once per canonical
        # exponent: the least dominant representative of nu and -nu
        from macpoly.cases import build_case

        case = build_case("AI2", order=100)
        eng, R = case.nabla_engine, case.restricted
        _prove_by_pairing(case, eng)
        assert eng._orbits is R
        eng._w_cache.clear()
        scans = _count_scans(monkeypatch)
        reps = set()
        for nu in _box(12):
            got = eng._weight_coefficient(nu)
            want = weight_coefficient_scan(eng, nu)
            assert (got.num, got.den, got.prec) == (want.num, want.den,
                                                    want.prec), nu
            reps.add(min(R.dominant_rep(nu),
                         R.dominant_rep(tuple(-x for x in nu))))
        assert sorted(scans) == sorted(reps)
        assert all(R.is_dominant(nu) for nu in scans)
        assert len(scans) < len(_box(12)) // 6

    @pytest.mark.parametrize("cid", ["AI2", "A2G", "AII5"])
    def test_moments_in_a_box(self, cid):
        # every moment of every entry of M in a box, filled once per orbit,
        # equals the moment filled at every exponent
        from macpoly.cases import build_case
        from macpoly.weights import _MomentTable

        case = build_case(cid, order=100 if cid == "AI2" else 60)
        eng, R = case.nabla_engine, case.restricted
        _prove_by_pairing(case, eng)
        tables = {id(t): t for row in eng._moment_tables(case.matrix_weight)
                  for t in row}
        box = _box(4)
        for table in tables.values():
            assert table.orbits is R
            plain = _MomentTable(table.f, table.terms)
            for nu in box:
                got, want = eng._moment(table, nu), eng._moment(plain, nu)
                assert (got is None) == (want is None), nu
                if got is not None:
                    assert _fields(got) == _fields(want), nu
            assert len(plain.values) == len(box)
            reps = {R.dominant_rep(nu) for nu in box}
            filled = {id(m) for m in table.values.values() if m is not None}
            assert len(filled) <= len(reps) < len(box)
            assert set(table.values) == set(box) | reps


class TestOrbitRefusal:
    """Weights and entries that are not W-invariant share nothing across
    orbits: the engine proves invariance itself and refuses these."""

    def test_delta_engine(self, monkeypatch):
        # AI2's non-symmetric weight, paired with the Weyl group: every
        # W(nu) is scanned at nu itself and equals the scan
        from macpoly.cases import build_case

        case = build_case("AI2", order=100)
        eng = case.delta_engine
        _prove_by_pairing(case, eng)
        assert eng._proofs[id(case.restricted)] == (case.restricted, False)
        assert eng._orbits is None
        eng._w_cache.clear()
        scans = _count_scans(monkeypatch)
        for nu in _box(6):
            got = eng._weight_coefficient(nu)
            want = weight_coefficient_scan(eng, nu)
            assert (got.num, got.den, got.prec) == (want.num, want.den,
                                                    want.prec), nu
        assert sorted(scans) == sorted(_box(6))

    @pytest.mark.parametrize("cid", ["AI2", "A2G"])
    def test_symmetric_spec_with_one_factor_dropped(self, cid, monkeypatch):
        # the zonal spec less its first plus factor (series on AI2, finite
        # on A2G): no proof, so no W(nu) and no moment is shared
        from macpoly.cases import build_case

        case = build_case(cid)
        spec = macdonald_sym_weight(case.restricted, case.qhat_log, case.t,
                                    case.lattice)
        eng = WeightEngine(WeightSpec(spec.plus[1:], spec.minus,
                                      spec.lattice), order=24)
        scans = _count_scans(monkeypatch)
        _prove_by_pairing(case, eng)
        assert eng._orbits is None
        assert not eng._proofs[id(case.restricted)][1]
        (table,), = eng._moment_tables([[case.matrix_weight[0][0]]])
        assert table.orbits is None
        if eng._lookup is None:
            for nu in _box(6):
                got = eng._weight_coefficient(nu)
                want = weight_coefficient_scan(eng, nu)
                assert (got.num, got.den, got.prec) == (
                    want.num, want.den, want.prec), nu
            assert set(_box(6)) <= set(scans)
            assert len(scans) == len(set(scans))

    def test_entry_that_is_not_invariant(self):
        # a hand-made entry on A2G's proven exact weight: its table fills
        # every exponent, and each moment is ct(e^nu f W)
        from macpoly.cases import build_case

        case = build_case("A2G")
        eng = case.nabla_engine
        _prove_by_pairing(case, eng)
        assert eng._orbits is case.restricted
        f = mono((1, 0), lat=case.lattice) + mono((0, 2), Q(1),
                                                  lat=case.lattice)
        (table,), = eng._moment_tables([[f]])
        assert table.orbits is None
        for nu in _box(3):
            got = eng._moment(table, nu)
            want = eng.ct_pair(mono(nu, lat=case.lattice) * f)
            assert (got is None and want.is_zero()) or got == want, nu
        assert len(table.values) == len(_box(3))


class TestMemoInitialiser:
    """Both constructors set the pairing memos and orbit fields in one
    place (`_memos`)."""

    def test_pairs_through_both_kinds_of_engine(self):
        # an exact engine and an engine over its coefficient lookup alone
        # pair alike; only the engine with a spec proves W-invariance
        spec = macdonald_sym_weight(R2, 1, Q(2), "2L")
        exact = WeightEngine(spec)
        assert exact._lookup is not None
        moments = WeightEngine.from_moments(exact._lookup)
        assert set(vars(moments)) <= set(vars(exact))
        for eng in (exact, moments):
            assert (eng._moments, eng._singles, eng._cuts, eng._proofs,
                    eng._orbits) == ({}, {}, {}, {}, None)
        one = GAElement.one("2L", 2)
        m = mono((1, 0)) + mono((-1, 1)) + mono((0, -1))
        M = [[one, m], [m, one]]
        u = [m, one + mono((1, 1))]
        w = [one, m]
        got = [eng.vector_pair(u, M, w, R2) for eng in (exact, moments)]
        assert got[0] == got[1]
        assert exact._orbits is R2 and moments._orbits is None
        assert moments._proofs[id(R2)] == (R2, False)
        for eng in (exact, moments):
            assert eng._moments and eng._cuts
