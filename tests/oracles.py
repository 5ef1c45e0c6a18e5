"""Oracles that only the tests use: the one-variable weight as a series
spec and its functional by reduction, the constant term of a weight,
pairings through materialised products, support triangularity, a series
weight's coefficients as sums of series products, a cone part's flat table
by nested integer loops and series inversion by the geometric series."""

from macpoly.galg import GAElement
from macpoly.scalars import ExactScalar, SeriesScalar
from macpoly.weights import INF, PochFactor, WeightSpec


def aw_plus_factors(params, qhat_log=2):
    """One-variable weight numerator (z^2;qh)_inf over four shifted factors."""
    out = [PochFactor(ExactScalar.one(), (2,), qhat_log, INF, 1)]
    for p in params:
        out.append(PochFactor(p, (1,), qhat_log, INF, -1))
    return out


def aw_weight(params, lattice, qhat_log=2, tag=""):
    plus = aw_plus_factors(params, qhat_log)
    return WeightSpec(plus, list(plus), lattice, lambda e: e[0], tag=tag)


def ct_norm(engine, rank=1):
    """ct(W), the constant term of the engine's weight; `rank` is the
    exponent length of a weight known only by its moments."""
    if engine.spec is None:
        return engine._exact_sum([((0,) * rank, ExactScalar.one())])
    return engine.ct_pair(GAElement.one(engine.spec.lattice, engine.spec.rank))


def aw_reduce(L, h):
    """L(h) for the one-variable functional L by reduction against its
    recurrence family, term by term: the oracle of its moment table.  Only
    the top exponent is compared with its mirror at each step."""
    rem = h
    while not rem.is_zero():
        k = max(0, max(e[0] for e in rem.terms))
        if k == 0:
            return rem.constant_term()
        lead = rem.terms.get((k,))
        if lead is None or rem.terms.get((-k,)) != lead:
            raise ValueError("functional argument is not W-invariant")
        rem = rem - L.member(k).scale(lead)
    return ExactScalar.zero()


def vector_pair_products(engine, u, M, w):
    """The vector pairing as ct_pair of each materialised product
    u_i M_ij flip(w_j); the oracle of `WeightEngine.vector_pair`."""
    acc = engine.ct_pair(GAElement.zero(M.lattice))
    for i, ui in enumerate(u):
        for j, wj in enumerate(w):
            acc = acc + engine.ct_pair(ui * M[i, j] * wj.invol_inv())
    return acc


def sym_pair(f, g, engine):
    """ct(f * flip(g) * W) as `ct_pair` of the materialised product; the
    oracle of the families' pairing route `PolyFamilySpec.pair`."""
    return engine.ct_pair(f * g.invol_inv())


def support_triangular(restricted, poly, mu):
    """Every exponent weakly below mu in the construction order."""
    key = restricted.order_key(mu)
    return all(restricted.order_key(e) <= key for e in poly.support())


def weight_coefficient_sum(engine, nu):
    """A series weight's coefficient at nu as the sum of the products
    plus[mu] * minus[mu - nu] in the series ring, skipping the products
    that vanish below the working order."""
    work = engine._work
    acc = SeriesScalar.zero(work)
    minus = engine._minus_terms
    for mu, pc in engine._plus_terms.items():
        mc = minus.get(tuple(m - t for m, t in zip(mu, nu)))
        if mc is None:
            continue
        op, om = pc.min_order(), mc.min_order()
        if op is None or om is None or op + om >= work:
            continue
        acc = acc + pc * mc
    return acc


def flat_table_loop(part, H, cut):
    """A cone part's flat table (`ConePart._flat_table`) by the nested
    integer loops of the running product: every product of a running
    polynomial and a factor term, term by term, cut at each row's limit."""
    import math

    from macpoly.weights import _flat_factor_terms

    rows, widest = part._shapes(H)
    lows, series = {}, {}
    for shape, (f, kmax) in widest.items():
        lows[shape], series[shape] = _flat_factor_terms(f, kmax)
    rest = total = sum(lows[shape] for _, _, shape in rows)
    tables = {}
    for shape, low in lows.items():
        terms = series[shape](cut - total + low)
        fden = math.lcm(*(s.den for _, s in terms))
        tables[shape] = fden, [
            (k, min(s.num),
             sorted((v, n * (fden // s.den)) for v, n in s.num.items()))
            for k, s in terms if s.num]
    rank = len(part.factors[0].exponent) if part.factors else 1
    acc = {(0,) * rank: {0: 1}}
    den = 1
    for f, hf, shape in rows:
        fden, table = tables[shape]
        den *= fden
        rest -= lows[shape]
        limit = cut - rest
        nxt = {}
        for e, poly in acc.items():
            he = part.heightfn(e)
            items = sorted(poly.items())
            for k, v0, row in table:
                if he + k * hf > H:
                    break
                ee = tuple(x + k * y for x, y in zip(e, f.exponent))
                out = nxt.setdefault(ee, {})
                for v1, c1 in items:
                    if v1 + v0 >= limit:
                        break
                    for v2, c2 in row:
                        v = v1 + v2
                        if v >= limit:
                            break
                        out[v] = out.get(v, 0) + c1 * c2
        acc = {}
        for ee, poly in nxt.items():
            poly = {v: c for v, c in poly.items() if c}
            if poly:
                acc[ee] = poly
    return {e: SeriesScalar(poly, cut, _den=den) for e, poly in acc.items()}


def series_inv_geometric(x):
    """1/x for a SeriesScalar x by the geometric series in
    u = 1 - x / (c0 v^m), one convolution per power of u over the common
    denominator c0^k; the oracle of `SeriesScalar.inv`."""
    if not x.num:
        raise ZeroDivisionError("inverting a series that is 0 to working order")
    m = min(x.num)
    c0 = x.num[m]
    n = x.prec - m
    u = {e - m: -c for e, c in x.num.items() if e != m}  # over den c0
    out, outden = {0: 1}, 1
    power, powden = {0: 1}, 1
    for _ in range(n):
        if not power or not u:
            break
        nxt = {}
        for e1, c1 in power.items():
            for e2, c2 in u.items():
                e = e1 + e2
                if e < n:
                    nxt[e] = nxt.get(e, 0) + c1 * c2
        power = {e: c for e, c in nxt.items() if c}
        powden *= c0
        scale = powden // outden  # outden always divides powden here
        out = {e: c * scale for e, c in out.items()}
        outden = powden
        for e, c in power.items():
            out[e] = out.get(e, 0) + c
    # x^-1 = (den / c0) v^-m sum out / outden
    num = {e - m: c * x.den for e, c in out.items()}
    return SeriesScalar(num, x.prec - 2 * m, _den=outden * c0)
