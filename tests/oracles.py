"""Oracles that only the tests use: the one-variable weight as a series
spec, its functional by reduction, its moments by the recurrence's
connection-coefficient rows, its recurrence coefficients by division and
its q-difference operator by products and division over Q(v), a finite
weight's infinite-ratio
form, the exact expansion of a product of factors to a height, the
constant term of a weight,
pairings through materialised products, support triangularity, a series
weight's coefficients as sums of series products, series products and sums
of products by term-by-term loops, a cone part's flat table
by nested integer loops, a factor's term orders by their recurrence, a
series plan from exact factor terms, series
inversion by the geometric series, the series of an exact
value by long division, family members by one dense solve, Weyl
characters by the alternating-sum formula, a central scalar by chained
sums over a fresh multiplicity table, the ratio identity's rows
by the per-word loop, a fraction by the pseudo-remainder gcd alone,
v -> 1/v of an exact value by reduction, a series
weight's coefficient by the scan over every plus term, and rational
reconstruction by Euclid over the rationals."""

from dataclasses import replace
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import sub

from macpoly.families import aw_recurrence, j_dominant_below, monomial_J
from macpoly.galg import GAElement, solve_linear
from macpoly.roots import freudenthal
from macpoly.scalars import (ExactScalar, SeriesScalar, _list_strip,
                             _lp_flip, _lp_norm, _lp_shift, _make, _pack,
                             _unpack, exact_sum_of_products)
from macpoly.weights import INF, PochFactor, WeightSpec


def aw_plus_factors(params, qhat_log=2):
    """One-variable weight numerator (z^2;qh)_inf over four shifted factors."""
    out = [PochFactor(ExactScalar.one(), (2,), qhat_log, INF, 1)]
    for p in params:
        out.append(PochFactor(p, (1,), qhat_log, INF, -1))
    return out


def aw_weight(params, lattice, qhat_log=2):
    plus = aw_plus_factors(params, qhat_log)
    return WeightSpec(plus, list(plus), lattice)


def infinite_ratio_form(spec):
    """A spec of finite factors as infinite ratios, each (c e^a; p)_k
    written (c e^a; p)_inf / (c p^k e^a; p)_inf: the series form of the
    same weight, the oracle of a finite form the weight builders emit."""

    def ratios(factors):
        out = []
        for f in factors:
            shifted = f.coeff * ExactScalar.q_power(f.base_log * f.length)
            out += [replace(f, length=INF),
                    replace(f, coeff=shifted, length=INF, side=-1)]
        return out

    return WeightSpec(ratios(spec.plus), ratios(spec.minus), spec.lattice,
                      spec.rank)


def _factor_terms(f, kmax):
    """Terms (k, scalar), k <= kmax, of the factor's expansion in powers of
    e^exponent: a finite factor multiplied out, an infinite one by Euler's
    expansions."""
    p = 2 * f.base_log  # v-exponent of the base
    if f.length is not INF:
        poly = {0: ExactScalar.one()}
        for j in range(f.length):
            fac = f.coeff * ExactScalar.v_power(p * j)
            nxt = dict(poly)
            for k, c in poly.items():
                s = nxt.get(k + 1, ExactScalar.zero()) - c * fac
                if s.is_zero():
                    nxt.pop(k + 1, None)
                else:
                    nxt[k + 1] = s
            poly = nxt
        return [(k, c) for k, c in sorted(poly.items()) if k <= kmax]
    pfac = ppow = coe = ExactScalar.one()
    step = ExactScalar.v_power(p)
    out = [(0, ExactScalar.one())]
    for k in range(1, kmax + 1):
        ppow = ppow * step  # q^{bk}
        pfac = pfac * (ExactScalar.one() - ppow)  # (p;p)_k
        coe = coe * f.coeff
        if f.side == -1:
            out.append((k, coe / pfac))
        else:
            sign = -1 if k % 2 else 1
            out.append((k, ExactScalar.v_power(p * (k * (k - 1) // 2),
                                               sign) * coe / pfac))
    return out


def exact_expansion(factors, H):
    """The terms {exponent: ExactScalar} of height (coordinate sum) <= H of
    a product of positive-cone factors, finite or infinite, each expanded
    exactly: the reference for the series tables of `ConePart.expand` and
    for an exact weight multiplied out."""
    rank = len(factors[0].exponent) if factors else 1
    acc = {(0,) * rank: ExactScalar.one()}
    for f in factors:
        hf = sum(f.exponent)
        terms = _factor_terms(f, H // hf)
        nxt = {}
        for e, c in acc.items():
            he = sum(e)
            for k, fc in terms:
                if he + k * hf > H:
                    break
                ee = tuple(x + k * y for x, y in zip(e, f.exponent))
                s = nxt.get(ee, ExactScalar.zero()) + c * fc
                if s.is_zero():
                    nxt.pop(ee, None)
                else:
                    nxt[ee] = s
        acc = nxt
    return acc


def constant_term(f):
    """The coefficient of e^0 in a group-algebra element."""
    for e, c in f.terms.items():
        if not any(e):
            return c
    return ExactScalar.zero()


def ct_norm(engine, rank=1):
    """ct(W), the constant term of the engine's weight; `rank` is the
    exponent length of a weight known only by its moments."""
    spec = engine.spec
    if spec is None:
        return engine.ct_pair(GAElement.one(None, rank))
    return engine.ct_pair(GAElement.one(spec.lattice, spec.rank))


def aw_reduce(L, h):
    """L(h) for the one-variable functional L by reduction against its
    recurrence family, term by term: the oracle of its moment table.  Only
    the top exponent is compared with its mirror at each step."""
    rem = h
    while not rem.is_zero():
        k = max(0, max(e[0] for e in rem.terms))
        if k == 0:
            return constant_term(rem)
        lead = rem.terms.get((k,))
        if lead is None or rem.terms.get((-k,)) != lead:
            raise ValueError("functional argument is not W-invariant")
        rem = rem - L.member(k).scale(lead)
    return ExactScalar.zero()


def aw_moments_by_rows(params, K):
    """mu_0..mu_K of the one-variable functional by its recurrence: the
    modified Chebyshev algorithm (Gautschi, Orthogonal Polynomials, 2004,
    2.1.7).  The rows of n_k = e^k + e^-k = sum_j a_{k,j} P_j (n_0 = 1) grow
    by a_{k+1,j} = a_{k,j-1} + b_j a_{k,j} + c_{j+1} a_{k,j+1} - s_k a_{k-1,j},
    with s_1 = 2 and s_k = 1 for k >= 2 (from
    (z + 1/z) n_k = n_{k+1} + s_k n_{k-1}), one exact sum of products per
    entry, and mu_k = a_{k,0}.  The oracle of the q-beta moments of
    `AWFunctional`; b_j and c_j are computed as the rows first need them."""
    coeffs = {}

    def bc(j):
        if j not in coeffs:
            coeffs[j] = aw_recurrence(params, j)
        return coeffs[j]

    prev, cur = [], [ExactScalar.one()]
    out = [cur[0]]
    for k in range(K):
        minus_s = ExactScalar.from_int(-2 if k == 1 else -1)
        row = []
        for j in range(k + 2):
            products = [(cur[j - 1],)] if j else []
            if j <= k:
                products.append((bc(j)[0], cur[j]))
            if j < k:
                products.append((bc(j + 1)[1], cur[j + 1]))
                products.append((minus_s, prev[j]))
            row.append(exact_sum_of_products(products))
        prev, cur = cur, row
        out.append(row[0])
    return out


def aw_operator_direct(params, lattice):
    """The q-difference operator applied directly, as a map f -> D f:
    `up`/`down` times the shifted differences of f over Q(v), then one
    exact division in the group algebra.  The oracle of `aw_operator`'s
    integer columns, and of the operator on general f."""
    qh = params.qhat
    one = GAElement.one(lattice, 1)

    def lin(p, e):
        return one - GAElement.monomial(e, lattice, p)

    def quartic(e):
        return (lin(params.a, e) * lin(params.b, e) * lin(params.c, e)
                * lin(params.d, e))

    def dfac(e):
        return lin(ExactScalar.one(), e) * lin(qh, e)

    Dplus, Dminus = dfac((2,)), dfac((-2,))
    up = quartic((1,)) * Dminus
    down = quartic((-1,)) * Dplus
    den = Dplus * Dminus

    def shift(g, sgn):
        return GAElement({e: c * (qh ** (sgn * e[0]))
                          for e, c in g.terms.items()}, lattice)

    def apply(f):
        num = up * (shift(f, 1) - f) + down * (shift(f, -1) - f)
        return num.exact_div(den)

    return apply


def aw_coefficients_by_division(params, m):
    """(A_m, C_m, b_m, c_m) of the one-variable recurrence with each of
    A_m, C_m multiplied out as scalars and divided, b_m = a + 1/a - A_m - C_m
    and c_m = A_{m-1} C_m: the oracle of the closed form in `families`."""
    one = ExactScalar.one()
    a, b, c, d = params.a, params.b, params.c, params.d
    qh, abcd = params.qhat, a * b * c * d

    def A(m):
        num = ((one - a * b * qh ** m) * (one - a * c * qh ** m) *
               (one - a * d * qh ** m) * (one - abcd * qh ** (m - 1)))
        den = a * (one - abcd * qh ** (2 * m - 1)) * (one - abcd * qh ** (2 * m))
        return num / den

    def C(m):
        num = (a * (one - qh ** m) * (one - b * c * qh ** (m - 1)) *
               (one - b * d * qh ** (m - 1)) * (one - c * d * qh ** (m - 1)))
        den = ((one - abcd * qh ** (2 * m - 2))
               * (one - abcd * qh ** (2 * m - 1)))
        return num / den

    Am, Cm = A(m), C(m)
    cm = ExactScalar.zero() if m == 0 else A(m - 1) * Cm
    return Am, Cm, a + a.inv() - Am - Cm, cm


def vector_pair_products(engine, u, M, w):
    """The vector pairing as ct_pair of each materialised product
    u_i M_ij flip(w_j); the oracle of `WeightEngine.vector_pair`."""
    acc = engine.ct_pair(GAElement.zero(M[0][0].lattice))
    for i, ui in enumerate(u):
        for j, wj in enumerate(w):
            acc = acc + engine.ct_pair(ui * M[i][j] * wj.invol_inv())
    return acc


def sym_pair(f, g, engine):
    """ct(f * flip(g) * W) as `ct_pair` of the materialised product; the
    oracle of the families' pairing route `PolyFamilySpec.pair`."""
    return engine.ct_pair(f * g.invol_inv())


def delta0_rows_by_complements(case):
    """The rows of `ExampleCase.delta0_rows` by the per-word loop: for each
    Weyl word w, w(g_y conj(g_{y'}) den) times the product of (1 - e^{-b})
    over the roots b not in w(R+), summed and divided exactly by the
    product D of (1 - e^{-b}) over all roots, then by #W."""
    _, den = case.delta0()
    R = case.restricted
    pos = R._positive_roots()
    allroots = list(pos) + [tuple(-x for x in a) for a in pos]

    def factor(b):
        return case.one() - GAElement.monomial(tuple(-x for x in b),
                                               case.lattice)

    D = case.one()
    for b in allroots:
        D = D * factor(b)
    words = R.weyl_elements()
    count = ExactScalar.from_int(len(words))
    rows = []
    for gi in case.gamma_basis:
        row = []
        for gj in case.gamma_basis:
            G = gi * gj.bar_full() * den
            acc = GAElement.zero(case.lattice)
            for w in words:
                wset = {R.act_word(w, a) for a in pos}
                term = G.map_exponents(lambda e: R.act_word(w, e))
                for b in allroots:
                    if b not in wset:
                        term = term * factor(b)
                acc = acc + term
            row.append(acc.exact_div(D).scale(count.inv()))
        rows.append(row)
    return rows


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
        acc = acc + series_mul_loop(pc, mc)
    return acc


def series_mul_loop(a, b):
    """a * b for SeriesScalars by the double loop over their terms, cut at
    min(a.prec + ord b, b.prec + ord a); a zero operand gives the zero of
    the lower precision.  The oracle of `SeriesScalar.__mul__`."""
    if not a.num or not b.num:
        return SeriesScalar({}, min(a.prec, b.prec))
    oa, ob = min(a.num), min(b.num)
    prec = min(a.prec + ob, b.prec + oa)
    out = {}
    for e1, c1 in a.num.items():
        for e2, c2 in b.num.items():
            e = e1 + e2
            if e < prec:
                out[e] = out.get(e, 0) + c1 * c2
    return SeriesScalar(out, prec, _den=a.den * b.den)


def series_sum_loop(products, prec):
    """The sum of the products of the tuples of SeriesScalars in
    `products`, term by term from the zero of precision `prec`, each
    product by `series_mul_loop`.  The oracle of
    `scalars.series_sum_of_products`."""
    acc = SeriesScalar.zero(prec)
    for factors in products:
        acc = acc + reduce(series_mul_loop, factors)
    return acc


def flat_table_loop(part, H, cut):
    """A cone part's flat table (`ConePart._expand`) by the nested
    integer loops of the running product: every product of a running
    polynomial and a factor term of height <= H, term by term, cut at each
    row's limit.  Taken past the top height of `ConePart.expand(cut)`, it
    is that table."""
    import math

    from macpoly import weights

    rows = [(f, sum(f.exponent), weights._lowest(f)) for f in part.factors]
    rest = total = sum(low for _, _, low in rows)
    rank = len(part.factors[0].exponent) if part.factors else 1
    acc = {(0,) * rank: {0: 1}}
    den = 1
    for f, hf, low in rows:
        terms = weights._factor_terms(f, H // hf, cut - total + low)
        fden = math.lcm(*(s.den for _, s in terms))
        table = [(k, min(s.num),
                  sorted((v, n * (fden // s.den)) for v, n in s.num.items()))
                 for k, s in terms if s.num]
        den *= fden
        rest -= low
        limit = cut - rest
        nxt = {}
        for e, poly in acc.items():
            he = sum(e)
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


def factor_env_loop(f, kmax):
    """The v-orders of an infinite factor's terms k <= kmax by the
    recurrence of its Euler expansion: term k adds ord(c), plus
    2 base_log (k - 1) on a numerator, to the order of term k - 1.  The
    oracle of `weights._term_order`."""
    oc = f.coeff.v_order()
    out = [0]
    for k in range(1, kmax + 1):
        shift = 0 if f.side == -1 else 2 * f.base_log * (k - 1)
        out.append(out[-1] + oc + shift)
    return out


def series_plan(spec, order, kmax=8):
    """A series engine's (work, (plus cut, minus cut)): each part's lowest
    order is the sum of its factors' lowest term orders, read from their
    exact terms (`_factor_terms`) k <= kmax; the tests' factors reach
    their lowest term by k = 2."""
    from macpoly.weights import MARGIN

    def lowest(factors):
        return sum(min(c.v_order() for _, c in _factor_terms(f, kmax))
                   for f in factors)

    low_p, low_m = lowest(spec.plus), lowest(spec.minus)
    work = order + MARGIN - low_m - low_p
    return work, (work - low_m, work - low_p)


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


def to_series_by_long_division(x, prec):
    """An ExactScalar x as a SeriesScalar valid strictly below order prec,
    by long division in Fraction arithmetic; the oracle of
    `ExactScalar.to_series`."""
    if not x.num:
        return SeriesScalar({}, prec)
    den_items = sorted(x.den.items())
    c0 = Fraction(den_items[0][1])
    rest = den_items[1:]
    out = {}
    work = {e: Fraction(c) / c0 for e, c in x.num.items()}
    # long division: repeatedly peel off the lowest term of the remainder
    while work:
        e = min(work)
        if e >= prec:
            break
        c = work.pop(e)
        if not c:
            continue
        out[e] = out.get(e, Fraction(0)) + c
        for de, dc in rest:
            ee = e + de
            if ee < prec:
                work[ee] = work.get(ee, Fraction(0)) - c * Fraction(dc) / c0
    out = {e: c for e, c in out.items() if c and e < prec}
    # integer numerators over the lcm of the coefficient denominators
    den = 1
    for c in out.values():
        den = lcm(den, c.denominator)
    return SeriesScalar({e: int(c * den) for e, c in out.items()}, prec,
                        _den=den)


def dense_solve_member(spec, J, mu):
    """A `PolyFamilySpec` member by one linear solve, independent of the
    recursive construction: <P, m_nu> = 0 over all lower nu, with the new
    member in the left slot of the pairing (the convention the recursive
    construction uses)."""
    J = tuple(sorted(J))
    symmetric = J == tuple(range(spec.restricted.rank))
    cands = j_dominant_below(spec.restricted, J, mu)
    m_mu = monomial_J(spec.restricted, J, mu, spec.lattice)
    if not cands:
        return m_mu
    basis = [monomial_J(spec.restricted, J, nu, spec.lattice) for nu in cands]
    rows = [[spec.pair(bk, bn, symmetric) for bk in basis] for bn in basis]
    rhs = [-spec.pair(m_mu, bn, symmetric) for bn in basis]
    sol = solve_linear(rows, rhs)
    out = m_mu
    for c, b in zip(sol, basis):
        out = out + b.scale(c)
    return out


def weyl_character(datum, lam):
    """Character of L(lam) as {weight: multiplicity}, by the alternating-sum
    formula; the oracle of `roots.freudenthal`."""
    n = datum.rank
    rho2 = tuple(2 * r for r in datum.rho_x())
    assert all(r.denominator == 1 for r in rho2)
    rho2 = tuple(int(r) for r in rho2)

    def alternating(shift):
        elems = {}
        # enumerate the Weyl group by orbit of a regular point with signs
        start = tuple(Fraction(x) for x in shift)
        frontier = {start: 1}
        seen = {start: 1}
        while frontier:
            nxt = {}
            for y, sgn in frontier.items():
                for i in range(n):
                    z = tuple(y[j] - datum.pair_simple(i, y) *
                              datum.alpha_coords[i][j] for j in range(n))
                    if z not in seen:
                        seen[z] = -sgn
                        nxt[z] = -sgn
            frontier = nxt
        for y, sgn in seen.items():
            elems[tuple(int(c) for c in y)] = sgn
        return elems

    # numerator over denominator, exactly, in the doubled lattice so that
    # rho-shifts stay integral
    lam2rho2 = tuple(2 * lam[i] + rho2[i] for i in range(n))
    num = alternating(lam2rho2)
    den = alternating(rho2)
    num_el = GAElement({e: ExactScalar.from_int(c) for e, c in num.items()}, "doubled")
    den_el = GAElement({e: ExactScalar.from_int(c) for e, c in den.items()}, "doubled")
    quot = num_el.exact_div(den_el)
    out = {}
    for e, c in quot.terms.items():
        assert all(x % 2 == 0 for x in e)
        fr = c.as_fraction()
        assert fr.denominator == 1
        out[tuple(x // 2 for x in e)] = int(fr)
    return out


def central_scalar_chained(datum, lam, mu):
    """`roots.central_scalar` by one reduced sum per weight of L(mu), over a
    multiplicity table recomputed on every call: its oracle."""
    h2 = datum.h_embed_doubled(mu)
    central = all(c.denominator == 1 for c in h2)
    acc = ExactScalar.zero()
    for nu, m in freudenthal(datum, mu).items():
        gexp = -2 * datum.bilinear(lam, nu) - datum.pair_two_rho(nu)
        vexp = 2 * Fraction(gexp)
        if vexp.denominator != 1:
            raise ValueError("non-integral exponent for lam=%s, mu=%s" % (lam, mu))
        acc = acc + ExactScalar.v_power(int(vexp), m)
    return acc, central


def gcd_route(num, den):
    """num / den reduced by the pseudo-remainder gcd alone
    (`ExactScalar._gcd_reduce`), never by the cyclotomic route: den is
    shifted to lowest exponent 0 first.  The reference of the constructor
    and of the operations on reduced values."""
    num, den = _lp_norm(num), _lp_norm(den)
    shift = min(den)
    num, den = _lp_shift(num, -shift), _lp_shift(den, -shift)
    if not num:
        return ExactScalar.zero()
    return _make(*ExactScalar._gcd_reduce(num, den))


def bar_by_reduction(x):
    """x with v -> 1/v, its flipped numerator and denominator reduced as a
    new fraction: the oracle of the closed form `ExactScalar.bar`."""
    return ExactScalar(_lp_flip(x.num), _lp_flip(x.den))


def weight_coefficient_scan(engine, nu):
    """A series weight's coefficient at nu from packed products, scanning
    every plus term and taking each pair's lowest orders with `min`, its
    order the lowest of `work` and every product's: the oracle of
    `WeightEngine._weight_coefficient`, uncached."""
    work = prec = engine._work
    minus = engine._minus_terms
    pairs = []
    for mu, pc in engine._plus_terms.items():
        mk = tuple(map(sub, mu, nu))
        mc = minus.get(mk)
        if mc is None or not pc.num or not mc.num:
            continue
        op, om = min(pc.num), min(mc.num)
        if op + om < work:
            prec = min(prec, pc.prec + om, mc.prec + op)
            pairs.append((op + om, pc, mc))
    g, B = engine._stride, engine._width
    dp, dm = engine._w_dens
    base = min((p[0] for p in pairs), default=prec)
    total = 0
    for o, pc, mc in pairs:
        p1 = _pack(pc.num, min(pc.num), g, B) * (dp // pc.den)
        p2 = _pack(mc.num, min(mc.num), g, B) * (dm // mc.den)
        total += (p1 * p2) << (B * ((o - base) // g))
    return SeriesScalar(_unpack(total, base, g, B, prec), prec, _den=dp * dm)


def rational_reconstruct_fractions(series, margin=6):
    """The rational function behind a truncated series by the extended
    Euclidean algorithm over Fractions on (v^N, c(v)), stopped at the
    balanced degree split and verified against the series; None when no
    fraction of admissible degree matches.  The oracle of
    `scalars.rational_reconstruct`."""
    if series.is_zero():
        return ExactScalar.zero()
    m = series.min_order()
    N = series.prec - m
    half = (N - margin) // 2
    if half < 1:
        return None
    c = [Fraction(0)] * N
    for e, co in series.coeffs.items():
        c[e - m] = co

    def poly_mul(a, b):
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        out[i + j] += x * y
        return _list_strip(out)

    def poly_sub(a, b):
        out = list(a) + [Fraction(0)] * (len(b) - len(a))
        for i, y in enumerate(b):
            out[i] -= y
        return _list_strip(out)

    def poly_divmod(a, b):
        a = list(a)
        qout = [Fraction(0)] * max(0, len(a) - len(b) + 1)
        while len(a) >= len(b) and a:
            f = a[-1] / b[-1]
            d = len(a) - len(b)
            qout[d] = f
            for i in range(len(b)):
                a[d + i] -= f * b[i]
            _list_strip(a)
        return qout, a

    r0 = [Fraction(0)] * N + [Fraction(1)]  # v^N
    r1 = _list_strip(list(c))
    t0, t1 = [], [Fraction(1)]
    while r1 and len(r1) - 1 > half:
        qpoly, r = poly_divmod(r0, r1)
        r0, r1 = r1, r
        t0, t1 = t1, poly_sub(t0, poly_mul(qpoly, t1))
    if not r1 or not t1:
        return None
    if len(t1) - 1 > N - half - margin:
        return None
    den = 1
    for x in r1 + t1:
        den = den * x.denominator // gcd(den, x.denominator)
    num_d = {i + m: int(x * den) for i, x in enumerate(r1) if x}
    den_d = {i: int(x * den) for i, x in enumerate(t1) if x}
    try:
        cand = ExactScalar(num_d, den_d)
    except ZeroDivisionError:
        return None
    if den_d.get(0, 0) == 0:
        return None
    if not (cand.to_series(series.prec) - series).is_zero():
        return None
    return cand
