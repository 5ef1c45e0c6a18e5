"""Oracles that only the tests use: the one-variable weight as a series
spec and its functional by reduction, the constant term of a weight,
pairings through materialised products, support triangularity and a series
weight's coefficients as sums of series products."""

from macpoly.galg import GAElement
from macpoly.scalars import ExactScalar, SeriesScalar
from macpoly.weights import INF, PochFactor, WeightSpec


def aw_plus_factors(params, qhat_log=2):
    """One-variable weight numerator (z^2;qh)_inf over four shifted factors."""
    out = [PochFactor(ExactScalar.one(), (2,), qhat_log, INF, 1)]
    for p in params:
        out.append(PochFactor(p, (1,), qhat_log, INF, -1))
    return out


def aw_weight(params, lattice, qhat_log=2, minus_conj="flip", tag=""):
    plus = aw_plus_factors(params, qhat_log)
    return WeightSpec(plus, list(plus), lattice, lambda e: e[0],
                      minus_conj=minus_conj, tag=tag)


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
