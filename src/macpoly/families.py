"""Orthogonal polynomial families on the restricted lattices.

Families are constructed by Gram-Schmidt against the orbit-sum monomial
basis, ordered by a total refinement of the triangularity order (dominant
representatives by dominance, antidominant largest inside an orbit).  An
independent dense-solve path and the one-variable three-term recurrence
serve as oracles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .galg import GAElement, solve_linear
from .scalars import ExactScalar
from .weights import WeightEngine, sym_pair

ONE = ExactScalar.one()


# ---------------------------------------------------------------------------
# orbit-sum monomials
# ---------------------------------------------------------------------------


def monomial(restricted, lam, lattice):
    """m_lam: sum of e^mu over the full Weyl orbit of a dominant lam."""
    return monomial_J(restricted, tuple(range(restricted.rank)), lam, lattice)


def monomial_J(restricted, J, lam, lattice):
    """Orbit sum over the parabolic subgroup generated by J."""
    if not restricted.is_dominant(lam, J):
        raise ValueError("%s is not dominant for J=%s" % (lam, J))
    orbit = restricted.weyl_orbit(lam, J)
    return GAElement({e: ONE for e in orbit}, lattice)


def j_dominant_below(restricted, J, mu):
    """Strictly lower J-dominant weights for the construction order."""
    rep = restricted.dominant_rep(mu)
    key_mu = restricted.order_key(mu)
    out = set()
    for d in restricted.dominant_below(rep):
        for x in restricted.weyl_orbit(d):
            if restricted.is_dominant(x, J) and restricted.order_key(x) < key_mu:
                out.add(x)
    return sorted(out, key=restricted.order_key)


# ---------------------------------------------------------------------------
# family construction
# ---------------------------------------------------------------------------


@dataclass
class PolyFamilySpec:
    """Everything needed to build one family of orthogonal polynomials."""

    restricted: object
    lattice: str
    engine_sym: WeightEngine = None  # W-invariant pairing weight
    engine_nonsym: WeightEngine = None  # weight for the non-invariant families
    conj: str = "flip"
    exact_functional: object = None  # optional exact pairing for rank 1
    label: str = ""
    _cache: dict = field(default_factory=dict)

    def pair(self, f, g, symmetric):
        if symmetric and self.exact_functional is not None:
            return self.exact_functional.pair(f, g, self.conj)
        engine = self.engine_sym if symmetric else self.engine_nonsym
        if engine is None:
            raise ValueError("no pairing configured for this family")
        return sym_pair(f, g, engine, conj=self.conj)

    def family_member(self, J, mu):
        J = tuple(sorted(J))
        mu = tuple(mu)
        key = (J, mu)
        if key not in self._cache:
            self._cache[key] = self._construct(J, mu)
        return self._cache[key]

    def _construct(self, J, mu):
        symmetric = J == tuple(range(self.restricted.rank))
        m = monomial_J(self.restricted, J, mu, self.lattice)
        cands = j_dominant_below(self.restricted, J, mu)
        prevs = [self.family_member(J, nu) for nu in cands]
        pair = lambda f, g: self.pair(f, g, symmetric)
        _, member = orthogonalize_step(m, prevs, pair, "%s/%s at %s"
                                       % (self.label, J, mu))
        return member

    def dense_solve_member(self, J, mu):
        """Independent construction by one linear solve; oracle path.

        Solves for <P, m_nu> = 0 over all lower nu, with the new member in
        the left slot of the pairing (the same convention the recursive
        construction uses).
        """
        J = tuple(sorted(J))
        symmetric = J == tuple(range(self.restricted.rank))
        cands = j_dominant_below(self.restricted, J, mu)
        m_mu = monomial_J(self.restricted, J, mu, self.lattice)
        if not cands:
            return m_mu
        basis = [monomial_J(self.restricted, J, nu, self.lattice) for nu in cands]
        rows = [[self.pair(bk, bn, symmetric) for bk in basis] for bn in basis]
        rhs = [-self.pair(m_mu, bn, symmetric) for bn in basis]
        sol = solve_linear(rows, rhs)
        out = m_mu
        for c, b in zip(sol, basis):
            out = out + b.scale(c)
        return out


def orthogonalize_step(lead, prevs, pair, what=""):
    """Project lead onto prevs, lead in the left slot of the pairing.

    Returns (coeffs, residual) with residual = lead - sum coeffs[k] prevs[k].
    The pairing need not be symmetric; the family satisfies <P_i, P_j> = 0
    for j earlier than i, which makes the Gram matrix of `prevs` triangular,
    so the projection coefficients come from one forward substitution.
    """
    vals = [pair(lead, p) for p in prevs]
    norms = [pair(p, p) for p in prevs]
    cross = {}
    coeffs = [None] * len(prevs)
    for k in range(len(prevs)):
        if norms[k].is_zero():
            raise ArithmeticError("degenerate Gram entry (%s)" % what)
        acc = vals[k]
        for j in range(k):
            ejk = cross.get((j, k))
            if ejk is None:
                ejk = pair(prevs[j], prevs[k])
                cross[(j, k)] = ejk
            acc = acc - coeffs[j] * ejk
        coeffs[k] = acc / norms[k]
    out = lead
    for c, p in zip(coeffs, prevs):
        out = out - p.scale(c)
    return coeffs, out


def sym_macdonald(spec, lam):
    """Monic W-invariant member with leading orbit sum at dominant lam."""
    return spec.family_member(tuple(range(spec.restricted.rank)), lam)


def nonsym_macdonald(spec, m):
    """Rank-1 non-symmetric member E_m, leading term e^{m}."""
    if spec.restricted.rank != 1:
        raise ValueError("non-symmetric families implemented in rank 1 only")
    return spec.family_member((), (m,))


def intermediate_macdonald(spec, J, mu):
    """The W_J-invariant member with leading J-orbit sum at mu."""
    return spec.family_member(tuple(J), mu)


def support_triangular(restricted, poly, mu):
    """Every exponent weakly below mu in the construction order."""
    key = restricted.order_key(mu)
    return all(restricted.order_key(e) <= key for e in poly.support())


# ---------------------------------------------------------------------------
# one-variable family data: recurrence, operator, exact functional
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AWParams:
    """Four parameters and the base exponent of the one-variable weight."""

    a: ExactScalar
    b: ExactScalar
    c: ExactScalar
    d: ExactScalar
    qhat_log: int = 2

    @property
    def qhat(self):
        return ExactScalar.q_power(self.qhat_log)

    def abcd(self):
        return self.a * self.b * self.c * self.d

    @classmethod
    def from_labels(cls, l1, l2, l3, l4, qhat_log=2):
        """Half-integer labels, mapped via (qh^l1, -qh^l2, qh^{l3+1/2}, -qh^{l4+1/2})."""
        from fractions import Fraction

        qh = Fraction(qhat_log)
        mk = lambda e, s: ExactScalar.q_power(qh * Fraction(e), s)
        return cls(mk(l1, 1), mk(l2, -1),
                   mk(Fraction(l3) + Fraction(1, 2), 1),
                   mk(Fraction(l4) + Fraction(1, 2), -1), qhat_log)


def _aw_A(params, m):
    a, b, c, d = params.a, params.b, params.c, params.d
    qh = params.qhat
    abcd = params.abcd()
    num = ((ONE - a * b * qh ** m) * (ONE - a * c * qh ** m) *
           (ONE - a * d * qh ** m) * (ONE - abcd * qh ** (m - 1)))
    den = a * (ONE - abcd * qh ** (2 * m - 1)) * (ONE - abcd * qh ** (2 * m))
    return num / den


def _aw_C(params, m):
    a, b, c, d = params.a, params.b, params.c, params.d
    qh = params.qhat
    abcd = params.abcd()
    num = (a * (ONE - qh ** m) * (ONE - b * c * qh ** (m - 1)) *
           (ONE - b * d * qh ** (m - 1)) * (ONE - c * d * qh ** (m - 1)))
    den = (ONE - abcd * qh ** (2 * m - 2)) * (ONE - abcd * qh ** (2 * m - 1))
    return num / den


def aw_recurrence(params, m):
    """(b_m, c_m) with (z + 1/z) P_m = P_{m+1} + b_m P_m + c_m P_{m-1}."""
    Am = _aw_A(params, m)
    Cm = _aw_C(params, m)
    bm = params.a + params.a.inv() - Am - Cm
    cm = ExactScalar.zero() if m == 0 else _aw_A(params, m - 1) * Cm
    return bm, cm


def aw_oracle(params, m, lattice="aw"):
    """Monic-in-orbit-sum polynomial from the three-term recurrence."""
    z = GAElement.monomial((1,), lattice)
    zi = GAElement.monomial((-1,), lattice)
    x = z + zi
    prev = GAElement.zero(lattice)
    cur = GAElement.one(lattice, 1)
    for k in range(m):
        bk, ck = aw_recurrence(params, k)
        nxt = x * cur - cur.scale(bk) - prev.scale(ck)
        prev, cur = cur, nxt
    return cur


def aw_operator_apply(params, f):
    """Second-order q-difference operator on symmetric Laurent polynomials.

    Constants are eigenfunctions with eigenvalue 0; the m-th family member
    has eigenvalue q^{-m}(1-q^m)(1-abcd q^{m-1}) in the base q of the weight.
    """
    lat = f.lattice
    qh = params.qhat

    def shift(g, sgn):
        return GAElement({e: c * (qh ** (sgn * e[0])) for e, c in g.terms.items()}, lat)

    one = GAElement.one(lat, 1)
    z = GAElement.monomial((1,), lat)
    zi = GAElement.monomial((-1,), lat)

    def lin(p, mono):
        return one - mono.scale(p)

    Nplus = lin(params.a, z) * lin(params.b, z) * lin(params.c, z) * lin(params.d, z)
    Nminus = lin(params.a, zi) * lin(params.b, zi) * lin(params.c, zi) * lin(params.d, zi)
    Dplus = (one - z * z) * (one - (z * z).scale(qh))
    Dminus = (one - zi * zi) * (one - (zi * zi).scale(qh))
    num = (Nplus * Dminus * (shift(f, 1) - f) +
           Nminus * Dplus * (shift(f, -1) - f))
    return num.exact_div(Dplus * Dminus)


def aw_eigenvalue(params, m):
    qh = params.qhat
    return (qh ** (-m)) * (ONE - qh ** m) * (ONE - params.abcd() * qh ** (m - 1))


class AWFunctional:
    """Exact moment functional of the one-variable weight.

    Built from the three-term recurrence: a symmetric Laurent polynomial is
    expanded over the recurrence family and the functional reads off the
    constant component.  Normalised so that L(1) = 1.
    """

    def __init__(self, params, lattice="aw"):
        self.params = params
        self.lattice = lattice
        self._family = [GAElement.one(lattice, 1)]

    def _extend(self, m):
        while len(self._family) <= m:
            k = len(self._family)
            self._family.append(aw_oracle(self.params, k, self.lattice))

    def value(self, h):
        """L(h) for a W-invariant h."""
        acc = ExactScalar.zero()
        rem = h
        while not rem.is_zero():
            k = max(e[0] for e in rem.terms)
            k = max(k, 0)
            if k == 0:
                acc = acc + rem.constant_term()
                break
            lead = rem.terms.get((k,))
            if lead is None or rem.terms.get((-k,)) != lead:
                raise ValueError("functional argument is not W-invariant")
            self._extend(k)
            rem = rem - self._family[k].scale(lead)
        return acc

    def pair(self, f, g, conj="flip"):
        return self.value(f * g.conjugate(conj))


def eigen_check(params, upto, central_rows=None):
    """Diagonalisation report for the one-variable operator.

    Returns rows (m, eigenvalue) for the family members up to `upto`,
    asserting a zero residual and pairwise-distinct eigenvalues.  Optional
    `central_rows` data is attached unchanged for side-by-side reporting.
    """
    rows = []
    seen = []
    for m in range(upto + 1):
        P = aw_oracle(params, m)
        image = aw_operator_apply(params, P)
        lam = aw_eigenvalue(params, m)
        residual = image - P.scale(lam)
        if not residual.is_zero():
            raise AssertionError("non-eigenfunction at m=%d: residual %r"
                                 % (m, residual))
        assert all(not (lam - s).is_zero() for s in seen), (
            "eigenvalue collision at m=%d" % m)
        seen.append(lam)
        rows.append({"m": m, "eigenvalue": lam})
    report = {"rows": rows, "distinct": True}
    if central_rows is not None:
        report["central"] = central_rows
    return report
