"""Orthogonal polynomial families on the restricted lattices.

Families are constructed by Gram-Schmidt against the orbit-sum monomial
basis, ordered by a total refinement of the triangularity order (dominant
representatives by dominance, antidominant largest inside an orbit).  An
independent dense-solve path serves as their oracle.  In rank one, the
q-difference operator, the Askey-Wilson polynomials it diagonalises and
the moment functional are built in integer Laurent arithmetic in (e, v);
the three-term recurrence (`aw_oracle`) is their oracle.
"""

from __future__ import annotations

import weakref
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, prod

from .galg import GAElement, leading_minors_nonzero
from .scalars import (ZERO, ExactScalar, _cyc_dict, _den, _lp_add, _lp_mul,
                      _lp_neg, _lp_shift, _make, exact_sum_of_products)
from .weights import WeightEngine

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
    """Strictly lower J-dominant weights for the construction order.

    The candidates are the orbits of the dominant labels up to mu's height
    (`grid`): a height-bounded chain, not the dominance cone, since the
    one-variable lattices carry nonreduced weights whose families walk down
    in single steps, and extra candidates are harmless for the
    orthogonalisation.  An orbit whose dominant label comes after mu's in
    the order only holds keys above mu's, which the test below drops.
    """
    key_mu = restricted.order_key(mu)
    out = set()
    for d in restricted.grid(key_mu[0]):  # key_mu[0]: the height of mu
        for x in restricted.weyl_orbit(d):
            if restricted.is_dominant(x, J) and restricted.order_key(x) < key_mu:
                out.add(x)
    return sorted(out, key=restricted.order_key)


# ---------------------------------------------------------------------------
# family construction
# ---------------------------------------------------------------------------


@dataclass
class PolyFamilySpec:
    """Everything needed to build one family of orthogonal polynomials.

    Each parabolic subset J gets its own `GramSchmidt` driver over the
    J-dominant labels, with the one-slot leads `[monomial_J(mu)]` and the
    candidates `j_dominant_below`; `family_member` returns slot 0.  It
    pairs through `WeightEngine.vector_pair` with the 1x1 unit it holds."""

    restricted: object
    lattice: str
    engine_sym: WeightEngine = None  # W-invariant pairing weight
    engine_nonsym: WeightEngine = None  # weight for the non-invariant families
    label: str = ""
    # J -> the GramSchmidt driver of the J-invariant family
    _families: dict = field(default_factory=dict)
    # (J, x) -> m^J_x; (J, x, y) -> <m^J_x, m^J_y>; J -> the longest list
    # of labels whose Gram is certified (`certify_j_gram`)
    _leads: dict = field(default_factory=dict)
    _grams: dict = field(default_factory=dict)
    _certified: dict = field(default_factory=dict)

    def __post_init__(self):
        self._unit = [[GAElement.one(self.lattice, self.restricted.rank)]]

    def _engine(self, symmetric):
        engine = self.engine_sym if symmetric else self.engine_nonsym
        if engine is None:
            raise ValueError("no pairing configured for this family")
        return engine

    def pair(self, f, g, symmetric):
        """ct(f flip(g) W): W-invariant families pair by Weyl orbits, the
        others exponent by exponent."""
        return self._engine(symmetric).vector_pair(
            [f], self._unit, [g], self.restricted if symmetric else None)

    def exact(self, J):
        """Whether the J-invariant family pairs exactly in Q(v)."""
        return self._engine(J == tuple(range(self.restricted.rank))).exact

    def match_member(self, J, mu, image):
        """Whether G = sum c g over the (c, g) pairs of `image` is
        P^J_mu / C, decided without building P^J_mu:
        {"status": "pass", "constant": C rendered} when
        1. G is W_J-invariant, its J-dominant exponents lie in {mu} and
           below(mu) (`j_dominant_below`), and mu is among them;
        2. <G, m^J_nu> = 0 for every nu in below(mu), G in the left slot,
           where Gram-Schmidt puts P;
        3. the Gram of the m^J_nu has nonzero leading minors
           (`certify_j_gram`), so that P^J_mu exists and is unique;
        then C = 1 / G[e^mu].  Else {"status": "fail"} with a detail
        naming the failed condition.  For an exact J-pairing only: a
        truncated series that reads zero is zero only to its order."""
        R = self.restricted
        symmetric = J == tuple(range(R.rank))
        G = GAElement.zero(self.lattice)
        for c, g in image:
            G = G + c * g
        below, terms = j_dominant_below(R, J, mu), G.terms
        tops = {e: R.weyl_orbit(e, J) for e in terms if R.is_dominant(e, J)}
        if (mu not in tops or not set(tops) <= {mu, *below}
                or sum(map(len, tops.values())) != len(terms)
                or any(terms.get(e) != terms[x]
                       for x, orbit in tops.items() for e in orbit)):
            return {"status": "fail", "detail": "the column's image is not "
                    "W_J-invariant over %s and the labels below it" % (mu,)}
        for nu in below:
            if not self.pair(G, self.j_lead(J, nu), symmetric).is_zero():
                return {"status": "fail", "detail": "the column's image is "
                        "not orthogonal to m^J_%s" % (nu,)}
        self.certify_j_gram(J, below)
        return {"status": "pass", "constant": terms[mu].inv().render()}

    def j_lead(self, J, x):
        """m^J_x, built once per spec, so its blocks are cut once."""
        got = self._leads.get((J, x))
        if got is None:
            got = self._leads[J, x] = monomial_J(self.restricted, J, x,
                                                 self.lattice)
        return got

    def certify_j_gram(self, J, below):
        """Prove every leading minor of the Gram <m^J_x, m^J_y> over the
        key-ordered labels `below` nonzero (`leading_minors_nonzero`), so
        that Gram-Schmidt over them meets no zero norm and each P^J over
        them is unique; ArithmeticError where that cannot be proven.  Each
        entry is paired once.  The longest certified list serves each of
        its prefixes; a list that is not one is certified on its own."""
        done = self._certified.setdefault(J, [])
        if below == done[:len(below)]:
            return
        gram, symmetric = self._grams, J == tuple(range(self.restricted.rank))
        for x in below:
            for y in below:
                if (J, x, y) not in gram:
                    gram[J, x, y] = self.pair(self.j_lead(J, x),
                                              self.j_lead(J, y), symmetric)
        if not leading_minors_nonzero([[gram[J, x, y] for y in below]
                                       for x in below]):
            raise ArithmeticError(
                "%s/%s: no point certifies the leading minors of the Gram "
                "over %s" % (self.label, J, below))
        if len(below) > len(done):
            done[:] = below

    def family_member(self, J, mu):
        return self._family(tuple(sorted(J))).member(tuple(mu))[0]

    def _family(self, J):
        """The driver of the family invariant under the parabolic on J."""
        if J not in self._families:
            # through a weak proxy: the spec holds the driver, and a
            # reference cycle would keep both alive until the cyclic gc
            R, lattice = self.restricted, self.lattice
            spec = weakref.proxy(self)
            symmetric = J == tuple(range(R.rank))
            self._families[J] = GramSchmidt(
                lambda mu: [monomial_J(R, J, mu, lattice)],
                lambda mu: j_dominant_below(R, J, mu),
                lambda u, w: spec.pair(u[0], w[0], symmetric),
                "%s/%s at" % (self.label, J))
        return self._families[J]


class GramSchmidt:
    """One family built by Gram-Schmidt, member by member, keyed by labels.

    `member(x)` projects `lead(x)` off the members at the labels `below(x)`
    (`orthogonalize_step`).  Every member is a list of slots: a vector
    family has one slot per bottom, a scalar family one slot.  The driver
    keeps, by label, each member, each pairing `<P_x, P_y>` and each
    inverse norm `1 / <P_x, P_x>`, computed once; `pair(u, w)` pairs two
    lists of slots, and `what` prefixes a label in error messages.
    """

    def __init__(self, lead, below, pair, what):
        self.lead, self.below, self.pair, self.what = lead, below, pair, what
        self._built = {}  # x -> P_x
        self._paired = {}  # (x, y) -> <P_x, P_y>
        self._inverted = {}  # x -> 1 / <P_x, P_x>

    def member(self, x):
        """P_x, built once."""
        if x not in self._built:
            lead, below = self.lead(x), self.below(x)
            _, self._built[x] = orthogonalize_step(
                lead, [self.member(y) for y in below], self.pair,
                lambda j, k: self.pairing(below[j], below[k]),
                lambda k: self.inverse(below[k]), "%s %s" % (self.what, x))
        return self._built[x]

    def pairing(self, x, y):
        """<P_x, P_y>, paired once."""
        if (x, y) not in self._paired:
            self._paired[x, y] = self.pair(self.member(x), self.member(y))
        return self._paired[x, y]

    def inverse(self, x):
        """1 / <P_x, P_x>, inverted once."""
        if x not in self._inverted:
            self._inverted[x] = self.pairing(x, x).inv()
        return self._inverted[x]


def orthogonalize_step(lead, prevs, pair, gram, inverse, what=""):
    """Project lead onto prevs, lead in the left slot of the pairing.

    `lead` and each of `prevs` are lists of slots.  Returns (coeffs,
    residual) with residual = lead - sum coeffs[k] prevs[k], slot by slot.
    `gram(j, k)` = <prevs[j], prevs[k]> (j <= k) and `inverse(k)` =
    1 / gram(k, k) come from a `GramSchmidt` driver's label-keyed memo, so
    each norm is inverted once per label; `inverse` is asked only for a
    nonzero norm.  The pairing need not be symmetric; the family satisfies
    <P_i, P_j> = 0 for j earlier than i, which makes the Gram matrix of
    `prevs` triangular, so the projection coefficients come from one
    forward substitution.
    """
    coeffs = []
    for k, p in enumerate(prevs):
        if gram(k, k).is_zero():
            raise ArithmeticError("degenerate Gram entry (%s)" % what)
        acc = pair(lead, p)
        for j in range(k):
            acc = acc - coeffs[j] * gram(j, k)
        coeffs.append(acc * inverse(k))
    out = lead
    for c, p in zip(coeffs, prevs):
        out = [o - s.scale(c) for o, s in zip(out, p)]
    return coeffs, out


# ---------------------------------------------------------------------------
# one-variable family data: recurrence, operator, Askey-Wilson
# polynomials, exact functional
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AWParams:
    """Four parameters and the base exponent of the one-variable weight."""

    a: ExactScalar
    b: ExactScalar
    c: ExactScalar
    d: ExactScalar
    qhat_log: int = 2

    def __post_init__(self):
        for name in "abcd":
            x = getattr(self, name)
            if x.den != {0: 1} or [abs(c) for c in x.num.values()] != [1]:
                raise ValueError("Askey-Wilson parameter %s = %s is not +-v^k"
                                 % (name, x.render()))

    @property
    def qhat(self):
        return ExactScalar.q_power(self.qhat_log)

    @classmethod
    def from_labels(cls, l1, l2, l3, l4, qhat_log=2):
        """Half-integer labels, mapped via (qh^l1, -qh^l2, qh^{l3+1/2}, -qh^{l4+1/2})."""
        qh = Fraction(qhat_log)
        mk = lambda e, s: ExactScalar.q_power(qh * Fraction(e), s)
        return cls(mk(l1, 1), mk(l2, -1),
                   mk(Fraction(l3) + Fraction(1, 2), 1),
                   mk(Fraction(l4) + Fraction(1, 2), -1), qhat_log)


def _aw_binomial(c, n):
    """1 - c v^n for c = +-1 as (coeff, v-shift, Counter of Phi_k), by
    v^n - 1 = prod_{d | n} Phi_d and v^n + 1 = prod_{d | 2n, d not | n} Phi_d.
    For n < 0 the factor -c v^n comes out first; n = 0 gives 0 or 2."""
    if n < 0:
        coeff, _, phis = _aw_binomial(c, -n)
        return -c * coeff, n, phis
    top = n if c == 1 else 2 * n
    return -c if n else 1 - c, 0, Counter(
        d for d in range(1, top + 1) if top % d == 0 and (c == 1 or n % d))


def _aw_quotient(num, den):
    """prod num / prod den, lists of `_aw_binomial` factors, reduced: the
    Phi_k are monic, irreducible and pairwise distinct, so cancelling them
    by multiset min and the coefficients by their gcd leaves lowest terms."""
    cn, cd = prod(f[0] for f in num), prod(f[0] for f in den)
    if not cd:
        raise ZeroDivisionError("zero Askey-Wilson denominator factor")
    if not cn:
        return ZERO
    top = sum((f[2] for f in num), Counter())
    bottom = sum((f[2] for f in den), Counter())
    shift = sum(f[1] for f in num) - sum(f[1] for f in den)
    common = top & bottom
    g = gcd(cn, cd) if cd > 0 else -gcd(cn, cd)
    pairs = tuple(sorted((bottom - common).items()))
    return _make(_lp_shift(_cyc_dict(sorted((top - common).items()), cn // g),
                           shift), _den(pairs, cd // g), pairs)


def _aw_unit(params, names=""):
    """prod(names) = sign v^k as (sign, k), `names` a string of parameters
    out of "abcd", each +-v^k."""
    units = [next(iter(getattr(params, x).num.items())) for x in names]
    return prod(s for _, s in units), sum(k for k, _ in units)


def _aw_term(params, j, names=""):
    """1 - prod(names) qh^j as an `_aw_binomial` factor."""
    sign, k = _aw_unit(params, names)
    return _aw_binomial(sign, k + 2 * params.qhat_log * j)


def _aw_lin(params, j, names=""):
    """1 - prod(names) qh^j as an integer Laurent polynomial in v."""
    sign, k = _aw_unit(params, names)
    return _lp_add({0: 1}, {k + 2 * params.qhat_log * j: -sign})


def _aw_factors(params, m):
    """A_m and C_m as (numerator, denominator) factor lists, in the base qh
    of the weight (Koekoek-Lesky-Swarttouw, section 14.1):
    A_m = (1-ab qh^m)(1-ac qh^m)(1-ad qh^m)(1-abcd qh^(m-1))
          / (a (1-abcd qh^(2m-1))(1-abcd qh^(2m))),
    C_m = a (1-qh^m)(1-bc qh^(m-1))(1-bd qh^(m-1))(1-cd qh^(m-1))
          / ((1-abcd qh^(2m-2))(1-abcd qh^(2m-1)))."""
    f = lambda j, names="": _aw_term(params, j, names)
    [(k, sign)] = params.a.num.items()
    unit_a = (sign, k, Counter())
    A = ([f(m, "ab"), f(m, "ac"), f(m, "ad"), f(m - 1, "abcd")],
         [unit_a, f(2 * m - 1, "abcd"), f(2 * m, "abcd")])
    C = ([unit_a, f(m), f(m - 1, "bc"), f(m - 1, "bd"), f(m - 1, "cd")],
         [f(2 * m - 2, "abcd"), f(2 * m - 1, "abcd")])
    return A, C


def aw_recurrence(params, m):
    """(b_m, c_m) with (z + 1/z) P_m = P_{m+1} + b_m P_m + c_m P_{m-1}:
    b_m = a + 1/a - A_m - C_m, and c_m = A_{m-1} C_m as one quotient of the
    joined factor lists."""
    A, C = _aw_factors(params, m)
    [(k, sign)] = params.a.num.items()
    bm = (params.a + ExactScalar.v_power(-k, sign) - _aw_quotient(*A)
          - _aw_quotient(*C))
    if not m:
        return bm, ZERO
    num, den = _aw_factors(params, m - 1)[0]
    return bm, _aw_quotient(num + C[0], den + C[1])


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


def _zv_mul(f, g, out=None):
    """out + f g for integer Laurent polynomials in (e, v), each
    {e-exponent: {v-exponent: int}} with no zero entry."""
    out = dict(out or {})
    for z1, p1 in f.items():
        for z2, p2 in g.items():
            out[z1 + z2] = _lp_add(out.get(z1 + z2, {}), _lp_mul(p1, p2))
    return {z: p for z, p in out.items() if p}


def aw_columns(params):
    """The second-order q-difference operator D on symmetric Laurent
    polynomials, by its columns: `column(k)` is D(n_k) on n_k = e^k + e^-k,
    as an integer Laurent polynomial in (e, v), built once per k on first use.

    The direct formula (Koekoek-Lesky-Swarttouw, section 14.1) is
    D f = (up (f(qh e) - f) + down (f(e / qh) - f)) / (Dplus Dminus), with
    Dplus = (1 - e^2)(1 - qh e^2), Dminus its flip, up = Dminus times the
    product of (1 - x e) over x = a, b, c, d and down the flip of up.  All
    are integer Laurent polynomials in (e, v), so a column is one exact
    long division in integers by the unit lead qh e^4 of Dplus Dminus, and
    has no denominator.  D f = sum_{k>0} f_k D(n_k), since D 1 = 0; the
    degree-m Askey-Wilson polynomial has eigenvalue `aw_eigenvalue`.
    """
    step = 2 * params.qhat_log  # qh = v^step
    lin = lambda k, s, z: {0: {0: 1}, z: {k: -s}}  # 1 - s v^k e^z
    down = Dplus = _zv_mul(lin(0, 1, 2), lin(step, 1, 2))
    up = Dminus = _zv_mul(lin(0, 1, -2), lin(step, 1, -2))
    for x in (params.a, params.b, params.c, params.d):
        [(k, s)] = x.num.items()
        up, down = _zv_mul(up, lin(k, s, 1)), _zv_mul(down, lin(k, s, -1))
    # -Dplus Dminus, e^-4 .. e^4: the lead of Dplus Dminus is qh e^4
    minus_den = _zv_mul(_zv_mul(Dplus, Dminus), {0: {0: -1}})
    columns = {}

    def column(k):
        col = columns.get(k)
        if col is None:
            rise, fall = {step * k: 1, 0: -1}, {-step * k: 1, 0: -1}
            num = _zv_mul(down, {k: fall, -k: rise},
                          _zv_mul(up, {k: rise, -k: fall}))
            col = {}
            for z in range(max(num) - 4, min(num) + 3, -1):  # top down
                q = col[z] = _lp_shift(num.get(z + 4, {}), -step)
                for zd, p in minus_den.items():
                    num[z + zd] = _lp_add(num.get(z + zd, {}), _lp_mul(q, p))
            if any(num.values()):
                raise ArithmeticError("inexact Askey-Wilson column")
            col = columns[k] = {z: q for z, q in col.items() if q}
        return col

    return column


def aw_eigenvalue(params, m):
    """lambda_m = qh^-m (1 - qh^m)(1 - abcd qh^(m-1)), the operator's
    eigenvalue on the degree-m member, from its integer Laurent polynomial
    in v."""
    lam = _lp_mul(_lp_add({-2 * params.qhat_log * m: 1}, {0: -1}),
                  _aw_lin(params, m - 1, "abcd"))
    return _make(lam, _den(()), ())


def _aw_phi_step(params, f, n):
    """f (1 - a qh^n e)(1 - a qh^n / e), one factor of
    phi_k = (a e, a/e; qh)_k, for a symmetric f by its coefficients at
    e^0..e^d (e^-i has that of e^i), integer Laurent polynomials in v:
    the factor is (1 + a^2 qh^2n) - a qh^n (e + 1/e)."""
    [(j, s)] = params.a.num.items()
    j += 2 * params.qhat_log * n  # a qh^n = s v^j
    d = len(f) - 1
    f = f + [{}, {}]
    return [_lp_add(_lp_add(f[i], _lp_shift(f[i], 2 * j)),
                    {e + j: -s * x for e, x in
                     _lp_add(f[abs(i - 1)], f[i + 1]).items()})
            for i in range(d + 2)]


def aw_numerators(params, upto):
    """The Askey-Wilson polynomials p_0..p_upto in integer Laurent
    arithmetic: p_m by its coefficients at e^0..e^m (p_m is symmetric),
    each an integer Laurent polynomial in v.

    p_m = a^-m (ab, ac, ad; qh)_m
          4phi3(qh^-m, abcd qh^(m-1), a e, a/e; ab, ac, ad; qh, qh)
    (Askey and Wilson, Mem. AMS 54 (1985) no. 319) is sum_k c_mk phi_k over
    phi_k = (a e, a/e; qh)_k, and by
    (qh^-m; qh)_k / (qh; qh)_k = (-1)^k qh^(k(k-1)/2 - mk) [m, k]_qh,
    c_mk = (-1)^k a^-m qh^(k(k+1)/2 - mk) [m, k]_qh (abcd qh^(m-1); qh)_k
           (ab qh^k, ac qh^k, ad qh^k; qh)_(m-k):
    a Gaussian binomial times binomials 1 - (+-v^N), so p_m has integer
    coefficients.  The sum runs by Horner's rule over the factors of
    phi_k (`_aw_phi_step`).  The lead of p_m at e^m is
    (abcd qh^(m-1); qh)_m, and p_m / lead is the monic member of the
    three-term recurrence (`aw_oracle`); where abcd qh^j = 1 makes a lead
    vanish, p_m raises
    `ZeroDivisionError("zero Askey-Wilson denominator factor")`.
    """
    step = 2 * params.qhat_log
    sign_a, k_a = _aw_unit(params, "a")
    gauss, out = [{0: 1}], []
    for m in range(upto + 1):
        if m:  # [m, k] = [m-1, k-1] + qh^k [m-1, k]
            gauss = [_lp_add(gauss[k - 1] if k else {},
                             _lp_shift(gauss[k], step * k) if k < m else {})
                     for k in range(m + 1)]
        lead = [_aw_lin(params, m - 1 + i, "abcd") for i in range(m)]
        if not all(lead):
            raise ZeroDivisionError("zero Askey-Wilson denominator factor")
        p = [{}]
        for k in range(m, -1, -1):
            c = gauss[k]
            for f in lead[:k] + [_aw_lin(params, j, x) for j in range(k, m)
                                 for x in ("ab", "ac", "ad")]:
                c = _lp_mul(c, f)
            sign = sign_a ** m * (-1) ** k
            shift = step * (k * (k + 1) // 2 - m * k) - m * k_a
            if k < m:
                p = _aw_phi_step(params, p, k)
            p[0] = _lp_add(p[0], {e + shift: sign * x for e, x in c.items()})
        out.append(p)
    return out


class AWFunctional:
    """Exact moment functional of the one-variable weight, L(1) = 1.

    The moments mu_n = L(e^n + e^-n) come from the Askey-Wilson q-beta
    integral (Askey and Wilson, Mem. AMS 54 (1985) no. 319):
    L(phi_n) = (ab, ac, ad; qh)_n / (abcd; qh)_n on phi_n = (a e, a/e; qh)_n,
    one `_aw_quotient` of factor lists that grow with n.  phi_n is kept as
    integer Laurent polynomials in (e, v) (`_aw_phi_step`), and its lead at
    e^n is the unit (-a)^n qh^(n(n-1)/2): mu_n is L(phi_n) less phi_n's
    lower coefficients against mu_0..mu_{n-1}, over that unit, in one exact
    sum of products.  L(h) = h_0 + sum_{k>0} h_k mu_k; on W-invariants it
    is the constant-term pairing with the flip-symmetric weight
    lambda(0) = 1, lambda(+-k) = mu_k / 2 (`weight`).  The polynomials the
    functional annihilates are checked against it by `eigen_check`.
    """

    def __init__(self, params, lattice="aw"):
        self.params = params
        self.lattice = lattice
        self._moments = [ONE]
        # phi_n at e^0..e^n, (ab, ac, ad; qh)_n and (abcd; qh)_n
        self._phi = ([{0: 1}], [], [])
        self._weight = [ONE]

    def _moment(self, k):
        """mu_k = L(e^k + e^-k) for k > 0, and mu_0 = L(1) = 1."""
        while len(self._moments) <= k:
            n, p = len(self._moments), self.params
            f, num, den = self._phi
            f = _aw_phi_step(p, f, n - 1)
            num = num + [_aw_term(p, n - 1, x) for x in ("ab", "ac", "ad")]
            den = den + [_aw_term(p, n - 1, "abcd")]
            [(lead, sign)] = f[n].items()
            products = [(_aw_quotient(num, den + [(sign, lead, Counter())]),)]
            products += [(_make({e - lead: -sign * x for e, x in f[i].items()},
                                _den(()), ()), self._moments[i])
                         for i in range(n) if f[i]]
            self._moments.append(exact_sum_of_products(products))
            self._phi = (f, num, den)
        return self._moments[k]

    def weight(self, nu):
        """lambda(nu): mu_|k| / 2 at nu = (k,) != 0, and 1 at 0."""
        k = abs(nu[0])
        while len(self._weight) <= k:
            self._weight.append(self._moment(len(self._weight)) / 2)
        return self._weight[k]

    def value(self, h):
        """L(h) for a W-invariant h."""
        terms = h.terms
        for (e,), c in terms.items():
            if terms.get((-e,)) != c:
                raise ValueError("functional argument is not W-invariant")
        c0 = terms.get((0,))
        products = [] if c0 is None else [(c0,)]
        products += [(c, self._moment(e)) for (e,), c in terms.items() if e > 0]
        return exact_sum_of_products(products)


def eigen_check(family, upto):
    """The one-variable operator on the Askey-Wilson polynomials
    p_0..p_upto of `family` (an AWFunctional), all in integer Laurent
    arithmetic (`aw_numerators`, `aw_columns`): rows (m, eigenvalue),
    whether every residual sum_{k>0} p_m[k] D(n_k) - lambda_m p_m vanishes,
    whether the eigenvalues are distinct and whether
    L(p_m) = <p_m, 1> = 0 for m > 0 (the moments against the family).
    p_m is its nonzero lead times the monic member, so each test reads the
    same on the member."""
    params = family.params
    column = aw_columns(params)
    rows, exact, distinct, annihilated = [], True, True, True
    for m, p in enumerate(aw_numerators(params, upto)):
        lam = aw_eigenvalue(params, m)
        if exact:  # D p_m = sum_{k>0} p_m[k] D(n_k), since D 1 = 0
            res = _zv_mul({0: _lp_neg(lam.num)},
                          {z: p[abs(z)] for z in range(-m, m + 1)})
            for k in range(1, m + 1):
                res = _zv_mul({0: p[k]}, column(k), res)
            exact = not res
        distinct = distinct and all(lam != r["eigenvalue"] for r in rows)
        if m and annihilated:
            coeffs = [_make(c, _den(()), ()) for c in p]
            annihilated = family.value(GAElement(
                {(s * k,): c for k, c in enumerate(coeffs) for s in (1, -1)},
                family.lattice)).is_zero()
        rows.append({"m": m, "eigenvalue": lam})
    return {"rows": rows, "residual_zero": exact, "distinct": distinct,
            "annihilated": annihilated}
