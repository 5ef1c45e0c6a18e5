"""Exact coefficient arithmetic for the field Q(v), with q = v^2.

All polynomial data is kept as sparse integer Laurent polynomials in the
single variable v.  A field element is a reduced fraction num/den of two
such polynomials; the denominator is normalised to have lowest exponent 0
and positive leading coefficient, and gcd(num, den) = 1 holds after every
operation.

Denominators built from factors like (1 - q^k t^m) are products of
cyclotomic polynomials Phi_k(v), and each `ExactScalar` reads its
denominator from that factorisation, den = lead * prod Phi_k^e_k: sums and
products keep only the pairs (k, e_k) and the integer lead, and `den` is
the one dict of the shared table `_DENS` for them.  The gcd of num and den
is prod Phi_k^min(e_k, v_k(num)), so reduction needs no polynomial gcd:
the exact divisibility tests of `cyclotomic` give each multiplicity, and
the exact divisions that follow verify the result.  Sums and products test
only the Phi_k that can cancel (gcd-pruned fraction arithmetic, Henrici
1956).  Every other fraction goes through the constructor, which factors
its denominator; one that is not such a product falls back to the
pseudo-remainder gcd `_lp_gcd`.

A truncated Laurent-series backend (`SeriesScalar`) mirrors the same
arithmetic modulo O(v^prec) and is used wherever infinite products have to
be expanded.  A series is an integer Laurent polynomial over one integer
denominator, and an exact value expands as its numerator times the series
inverse of its denominator.  These two types are the whole scalar layer.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd, inf

from .cyclotomic import div_monic, phi_factors, phi_multiplicity, product_coeffs


# ---------------------------------------------------------------------------
# sparse integer Laurent polynomials: dict {exponent: coeff}, no zero coeffs
# ---------------------------------------------------------------------------


def _lp_norm(d):
    return {e: c for e, c in d.items() if c}


def _lp_add(a, b):
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def _lp_neg(a):
    return {e: -c for e, c in a.items()}


def _lp_mul(a, b):
    if not a or not b:
        return {}
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def _lp_shift(a, k):
    return {e + k: c for e, c in a.items()}


def _lp_content(a):
    g = 0
    for c in a.values():
        g = int_gcd(g, abs(c))
        if g == 1:
            return 1
    return g


def _lp_flip(a):
    return {-e: c for e, c in a.items()}


def _lp_to_list(a):
    """Shift to lowest exponent 0 and return (dense coeff list, shift)."""
    if not a:
        return [], 0
    lo, hi = min(a), max(a)
    out = [0] * (hi - lo + 1)
    for e, c in a.items():
        out[e - lo] = c
    return out, lo


def _list_strip(xs):
    while xs and xs[-1] == 0:
        xs.pop()
    return xs


def _list_pdivmod(a, b):
    """Pseudo-division of dense integer polynomials (low to high), b
    nonzero: (q, r, s) with lc(b)^s a = q b + r and deg r < deg b, s the
    number of reduction steps taken."""
    db, lb = len(b) - 1, b[-1]
    r = list(a)
    q = [0] * max(0, len(r) - db)
    s = 0
    while len(r) > db:
        d, lr = len(r) - 1 - db, r[-1]
        r = [x * lb for x in r]
        for i, x in enumerate(b):
            r[d + i] -= lr * x
        q = [x * lb for x in q]
        q[d] += lr
        s += 1
        _list_strip(r)
    return q, r, s


def _list_primitive(a):
    g = 0
    for c in a:
        g = int_gcd(g, abs(c))
        if g == 1:
            return list(a)
    if g == 0:
        return []
    return [c // g for c in a]


def _lp_gcd(a, b):
    """Gcd of two Laurent polynomials, primitive with positive lead."""
    if not a:
        return _lp_norm(dict(b))
    if not b:
        return _lp_norm(dict(a))
    la, _ = _lp_to_list(a)
    lb, _ = _lp_to_list(b)
    la, lb = _list_primitive(la), _list_primitive(lb)
    if len(la) < len(lb):
        la, lb = lb, la
    while lb:
        la, lb = lb, _list_primitive(_list_pdivmod(la, lb)[1])
    if la[-1] < 0:
        la = [-c for c in la]
    return {i: c for i, c in enumerate(la) if c}


# ---------------------------------------------------------------------------
# gcd-free cancellation against cyclotomic denominators
# ---------------------------------------------------------------------------


def _cyc_dict(pairs, scale=1):
    """scale * prod Phi_k^e as a Laurent polynomial dict."""
    return {i: c * scale for i, c in enumerate(product_coeffs(pairs)) if c}


# (cyc, lead) -> lead * prod Phi_k^e, the one dict of every scalar over it
_DENS = {}


def _den(cyc, lead=1):
    """The denominator dict of the factors `cyc` (a tuple of (k, e) pairs)
    over the integer lead, built on first use and shared; no one changes it."""
    got = _DENS.get((cyc, lead))
    if got is None:
        got = _DENS[cyc, lead] = _cyc_dict(cyc, lead)
    return got


def _lp_div_cyc(a, pairs):
    """Exact quotient of the Laurent polynomial a by prod Phi_k^e."""
    al, sh = _lp_to_list(a)
    g = product_coeffs(pairs)
    q = div_monic(al, len(g) - 1, [(j, c) for j, c in enumerate(g[:-1]) if c])
    return {i + sh: c for i, c in enumerate(q) if c}


def _common(p, pairs, skip=()):
    """The (k, m) with Phi_k^m, m > 0, in gcd(p, prod Phi_k^e), over the
    (k, e) pairs whose k is not in `skip`."""
    pairs = [(k, e) for k, e in pairs if k not in skip]
    if not pairs or len(p) == 1:
        return []
    al, lo = _lp_to_list(p)
    return [(k, m) for k, e in pairs if (m := phi_multiplicity(al, lo, k, e))]


def _make(num, den, cyc):
    out = ExactScalar.__new__(ExactScalar)
    out.num = num
    out.den = den
    out.cyc = cyc
    return out


def _cyc_less(cyc, cut):
    """cyc with the (k, m) of `cut` taken off; the pairs left as they were
    are shared with cyc."""
    m = dict(cut)
    return tuple(p if p[0] not in m else (p[0], p[1] - m[p[0]])
                 for p in cyc if p[1] != m.get(p[0]))


def _settle(num, cyc, lead, tests):
    """The reduced form of num / (lead * prod Phi_k^e over the pairs of cyc).

    Only the Phi_k of `tests`, (k, cap) pairs, and the integer content can
    cancel; the denominator is read from the factors and the lead left.
    """
    if not num:
        return ZERO
    cut = _common(num, tests)
    if cut:
        cyc = _cyc_less(cyc, cut)
        num = _lp_div_cyc(num, cut)
    if lead > 1:
        cg = int_gcd(_lp_content(num), lead)
        if cg > 1:
            num = {e: x // cg for e, x in num.items()}
            lead //= cg
    return _make(num, _den(cyc, lead), cyc)


def _lp_scale(a, m):
    return a if m == 1 else {e: c * m for e, c in a.items()}


class ExactScalar:
    """An element of Q(v) in canonical reduced form.

    `cyc` factors the denominator as den = lead * prod Phi_k^e: sorted
    (k, e) pairs, () for an integer denominator, None when den is not a
    product of cyclotomic polynomials (then every operation on the value
    goes through the constructor and reduces with the pseudo-remainder
    gcd).  With `cyc` known, `den` is `_den(cyc, lead)`, shared with every
    value over the same factors and lead, and never changed.
    """

    __slots__ = ("num", "den", "cyc")

    def __init__(self, num, den=None):
        num = _lp_norm(num)
        den = {0: 1} if den is None else _lp_norm(den)
        if not den:
            raise ZeroDivisionError("zero denominator in Q(v)")
        # pull the denominator's lowest v-power into the numerator
        shift = min(den)
        if shift:
            den = _lp_shift(den, -shift)
            num = _lp_shift(num, -shift)
        if den[max(den)] < 0:
            num, den = _lp_neg(num), _lp_neg(den)
        cyc = phi_factors(den) if num else ()
        if cyc is None:
            self.num, self.den, self.cyc = self._gcd_reduce(num, den)
        else:
            r = _settle(num, cyc, den[max(den)], cyc)
            self.num, self.den, self.cyc = r.num, r.den, r.cyc

    @staticmethod
    def _gcd_reduce(num, den):
        """(num, den, cyc) of num / den by the pseudo-remainder gcd; num is
        nonzero and den has lowest exponent 0.  The gcd is primitive with a
        positive lead and divides den, so it is 1 or has more than one term."""
        g = _lp_gcd(num, den)
        if len(g) > 1:
            gl, gsh = _lp_to_list(g)
            num = ExactScalar._exact_list_div(num, gl, gsh)
            den = ExactScalar._exact_list_div(den, gl, gsh)
        # sign and content normalisation; g divides den, whose constant
        # term is nonzero, so den / g keeps lowest exponent 0
        if den[max(den)] < 0:
            num, den = _lp_neg(num), _lp_neg(den)
        cg = int_gcd(_lp_content(num), _lp_content(den))
        if cg > 1:
            num = {e: x // cg for e, x in num.items()}
            den = {e: x // cg for e, x in den.items()}
        # the gcd may have taken the non-cyclotomic part of den away
        cyc = phi_factors(den) if len(g) > 1 else None
        return num, (den if cyc is None else _den(cyc, den[max(den)])), cyc

    @staticmethod
    def _exact_list_div(a, bl, bsh):
        """Divide Laurent poly a by dense poly bl (shifted by bsh); exact.

        bl is a primitive gcd, so by Gauss's lemma every step divides over
        the integers; one that does not raises ArithmeticError."""
        al, ash = _lp_to_list(a)
        if not al:
            return {}
        q = [0] * (len(al) - len(bl) + 1)
        r = list(al)
        lb = bl[-1]
        for i in range(len(q) - 1, -1, -1):
            c = r[i + len(bl) - 1]
            if c % lb != 0:
                raise ArithmeticError("inexact polynomial division")
            qi = c // lb
            q[i] = qi
            if qi:
                for j, bc in enumerate(bl):
                    r[i + j] -= qi * bc
        if any(r):
            raise ArithmeticError("inexact polynomial division")
        return {i + ash - bsh: c for i, c in enumerate(q) if c}

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_int(cls, n):
        return _make({0: n} if n else {}, _den(()), ())

    @classmethod
    def from_fraction(cls, fr):
        fr = Fraction(fr)
        return _make({0: fr.numerator} if fr.numerator else {},
                     _den((), fr.denominator), ())

    @classmethod
    def v_power(cls, k, coeff=1):
        if not coeff:
            return cls.zero()
        fr = Fraction(coeff)
        return _make({k: fr.numerator}, _den((), fr.denominator), ())

    @classmethod
    def q_power(cls, k, coeff=1):
        """coeff * q^k with q = v^2; k may be a Fraction with denominator 2."""
        fr = Fraction(k)
        ve = fr * 2
        if ve.denominator != 1:
            raise ValueError("q-exponent must be a half integer: %s" % (k,))
        return cls.v_power(int(ve), coeff)

    @classmethod
    def zero(cls):
        return _make({}, _den(()), ())

    @classmethod
    def one(cls):
        return _make({0: 1}, _den(()), ())

    # -- queries ------------------------------------------------------------

    def is_zero(self):
        return not self.num

    def is_one(self):
        return self.num == {0: 1} and self.den == {0: 1}

    def v_order(self):
        """Lowest v-exponent of the value; None for 0."""
        return min(self.num) if self.num else None

    def as_fraction(self):
        """The value as a rational number, if it is constant in v."""
        if not self.num:
            return Fraction(0)
        if set(self.num) != {0} or set(self.den) != {0}:
            raise ValueError("not a constant: %s" % self)
        return Fraction(self.num[0], self.den[0])

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, SeriesScalar):
            return NotImplemented
        other = _coerce(other)
        if not self.num:
            return other
        if not other.num:
            return self
        fa, fb = self.cyc, other.cyc
        a, b = self.den, other.den
        if fa is None or fb is None:
            return ExactScalar(_lp_add(_lp_mul(self.num, b),
                                       _lp_mul(other.num, a)), _lp_mul(a, b))
        ca, cb = a[max(a)], b[max(b)]
        g = int_gcd(ca, cb)
        ma, mb = cb // g, ca // g
        if fa == fb:
            num = _lp_add(_lp_scale(self.num, ma), _lp_scale(other.num, mb))
            return _settle(num, fa, ca * ma, fa)
        # over the lcm: only a Phi_k at the same power in both can cancel
        ea, eb = dict(fa), dict(fb)
        up_a = [(k, e - ea.get(k, 0)) for k, e in fb if e > ea.get(k, 0)]
        up_b = [(k, e - eb.get(k, 0)) for k, e in fa if e > eb.get(k, 0)]
        num = _lp_add(_lp_mul(self.num, _cyc_dict(up_a, ma)),
                      _lp_mul(other.num, _cyc_dict(up_b, mb)))
        tests = [(k, e) for k, e in fa if eb.get(k) == e]
        top = {p[0]: p for p in fa}
        for p in fb:
            if p[1] > ea.get(p[0], 0):
                top[p[0]] = p
        return _settle(num, tuple(top[k] for k in sorted(top)), ca * ma,
                       tests)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return _make(_lp_neg(self.num), self.den, self.cyc)

    def __sub__(self, other):
        if isinstance(other, SeriesScalar):
            return NotImplemented
        return self.__add__(_coerce(other).__neg__())

    def __rsub__(self, other):
        return _coerce(other).__sub__(self)

    def __mul__(self, other):
        if isinstance(other, SeriesScalar):
            return NotImplemented
        other = _coerce(other)
        if self.is_zero() or other.is_zero():
            return ExactScalar.zero()
        if self.is_one():
            return other
        if other.is_one():
            return self
        fa, fb = self.cyc, other.cyc
        if fa is None or fb is None:
            return ExactScalar(_lp_mul(self.num, other.num),
                               _lp_mul(self.den, other.den))
        a, b, c, d = self.num, self.den, other.num, other.den
        lb, ld = b[max(b)], d[max(d)]
        # a/b and c/d are reduced, so only a against the Phi_k and lead of
        # d alone and c against those of b alone can cancel
        cut_a = _common(a, fb, dict(fa))
        cut_c = _common(c, fa, dict(fb))
        if cut_a:
            a = _lp_div_cyc(a, cut_a)
            fb = _cyc_less(fb, cut_a)
        if cut_c:
            c = _lp_div_cyc(c, cut_c)
            fa = _cyc_less(fa, cut_c)
        if ld > 1:
            g = int_gcd(_lp_content(a), ld)
            if g > 1:
                a = {e: x // g for e, x in a.items()}
                ld //= g
        if lb > 1:
            g = int_gcd(_lp_content(c), lb)
            if g > 1:
                c = {e: x // g for e, x in c.items()}
                lb //= g
        if fa and fb:
            both = {p[0]: p for p in fa}
            for p in fb:
                q = both.get(p[0])
                both[p[0]] = p if q is None else (p[0], q[1] + p[1])
            fa = tuple(both[k] for k in sorted(both))
        cyc = fa or fb
        return _make(_lp_mul(a, c), _den(cyc, lb * ld), cyc)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        if isinstance(other, SeriesScalar):
            return NotImplemented
        other = _coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero in Q(v)")
        if self.is_zero():
            return ExactScalar.zero()
        if self.cyc is not None and other.cyc is not None:
            # d/c is reduced; it needs c factored as a denominator
            c = other.num
            s = min(c)
            p = _lp_shift(c, -s) if s else c
            if p[max(p)] < 0:
                p, d = _lp_neg(p), _lp_neg(other.den)
            else:
                d = other.den
            cyc = () if len(p) == 1 else phi_factors(p)
            if cyc is not None:
                return self.__mul__(_make(_lp_shift(d, -s),
                                          _den(cyc, p[max(p)]), cyc))
        return ExactScalar(_lp_mul(self.num, other.den),
                           _lp_mul(self.den, other.num))

    def __rtruediv__(self, other):
        return _coerce(other).__truediv__(self)

    def inv(self):
        return ExactScalar.one() / self

    def __pow__(self, n):
        if n < 0:
            return self.inv() ** (-n)
        out = ExactScalar.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, int):
            other = ExactScalar.from_int(other)
        if not isinstance(other, ExactScalar):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((tuple(sorted(self.num.items())),
                     tuple(sorted(self.den.items()))))

    def bar(self):
        """Substitute v -> 1/v (equivalently q -> 1/q) and renormalise.

        A denominator lead * prod Phi_k^e of degree D > 0 needs no new
        reduction: each Phi_k with k >= 2 is palindromic and Phi_1(1/v) =
        -v^-1 Phi_1(v), so with e_1 the exponent of Phi_1, den(1/v) =
        (-1)^e_1 v^-D den(v).  The result keeps den and cyc over the
        numerator (-1)^e_1 v^D num(1/v), already reduced.  A constant
        denominator, which the constructor reduces by its integer content
        alone, and one that is no such product go through the constructor.
        """
        cyc = self.cyc
        if not cyc:
            return ExactScalar(_lp_flip(self.num), _lp_flip(self.den))
        s = -1 if cyc[0][0] == 1 and cyc[0][1] & 1 else 1
        top = max(self.den)
        return _make({top - e: s * c for e, c in self.num.items()},
                     self.den, cyc)

    # -- rendering ----------------------------------------------------------

    def __repr__(self):
        return "ExactScalar(%s)" % self.render()

    def render(self):
        n = _render_poly(self.num)
        if self.den == {0: 1}:
            return n
        return "(%s) / (%s)" % (n, _render_poly(self.den))

    def to_series(self, prec):
        """Expand as a SeriesScalar valid strictly below order prec.

        The denominator's lowest power is 0, so its inverse taken to order
        prec - min(0, ord num) makes the product with the numerator exact
        below prec."""
        if not self.num or min(self.num) >= prec:
            return SeriesScalar({}, prec)
        if len(self.den) == 1:
            return SeriesScalar(self.num, prec, _den=self.den[0])
        inv = SeriesScalar(self.den, prec - min(0, min(self.num))).inv()
        return SeriesScalar(self.num, prec) * inv


# the zero every reduction returns; scalars are immutable, so the zero
# entries a Gram memo keeps share it
ZERO = ExactScalar.zero()


def exact_sum_of_products(products):
    """Sum over `products` (tuples of ExactScalar factors) of each product.

    Numerators are multiplied and added unreduced, one accumulator per
    distinct denominator product.  The accumulators are put over the lcm of
    those products, a maximum of cyclotomic exponents, and the sum is
    reduced once; the value equals the term-by-term reduced sum.
    """
    # id(factor) -> (factor, index of its denominator in dens); holding the
    # factor keeps its id from being reused within the call
    seen = {}
    den_index = {}
    dens = []  # (den, cyc, lead)
    sums = {}  # tuple of denominator indices -> numerator accumulator
    for factors in products:
        key = []
        num = None
        for f in factors:
            got = seen.get(id(f))
            if got is None:
                den, cyc = f.den, f.cyc
                lead = den[max(den)]
                ident = ((cyc, lead) if cyc is not None
                         else (None, tuple(sorted(den.items()))))
                k = den_index.get(ident)
                if k is None:
                    k = den_index[ident] = len(dens)
                    dens.append((den, cyc, lead))
                got = seen[id(f)] = (f, k)
            key.append(got[1])
            num = f.num if num is None else _lp_mul(num, f.num)
        key = tuple(key)
        acc = sums.get(key)
        if acc is None:
            acc = sums[key] = {}
        for e, c in num.items():
            acc[e] = acc.get(e, 0) + c
    if any(cyc is None for _, cyc, _ in dens):
        total = ExactScalar.zero()
        for key, num in sums.items():
            den = {0: 1}
            for k in key:
                den = _lp_mul(den, dens[k][0])
            total = total + ExactScalar(num, den)
        return total
    groups = {}  # (cyc, lead) of a denominator product -> numerator
    for key, num in sums.items():
        exps = {}
        lead = 1
        for k in key:
            _, cyc, c = dens[k]
            lead *= c
            for p, e in cyc:
                exps[p] = exps.get(p, 0) + e
        ident = (tuple(sorted(exps.items())), lead)
        acc = groups.get(ident)
        if acc is None:
            groups[ident] = num
        else:
            for e, c in num.items():
                acc[e] = acc.get(e, 0) + c
    top = {}
    lcm = 1
    for cyc, c in groups:
        lcm = lcm * c // int_gcd(lcm, c)
        for k, e in cyc:
            if e > top.get(k, 0):
                top[k] = e
    total = {}
    for (cyc, c), num in groups.items():
        have = dict(cyc)
        cof = _cyc_dict(sorted((k, e - have.get(k, 0)) for k, e in top.items()
                               if e > have.get(k, 0)), lcm // c)
        for e1, c1 in num.items():
            if c1:
                for e2, c2 in cof.items():
                    e = e1 + e2
                    total[e] = total.get(e, 0) + c1 * c2
    top = tuple(sorted(top.items()))
    return _settle(_lp_norm(total), top, lcm, top)


def _pack(num, low, g, B):
    """{v-power: int} as one integer (Kronecker substitution): the
    coefficient of v^(low + g*i) in the signed B-bit slot i.  Every power
    must be low plus a multiple of g >= 0, and every coefficient below
    2^(B-1) in absolute value; a product or sum of packs of one low grid
    then holds its coefficients in the same slots while they stay in range."""
    total = 0
    for e, c in num.items():
        total += c << (B * ((e - low) // g))
    return total


def _unpack(total, low, g, B, limit):
    """The inverse of `_pack`, read below the v-power `limit`: the signed
    B-bit slots of `total` as {low + g*i: coefficient}, zeros left out."""
    out = {}
    mask, half, full = (1 << B) - 1, 1 << (B - 1), 1 << B
    e = low
    while total and e < limit:
        c = total & mask
        total >>= B
        if c >= half:  # a negative slot borrowed one from the slot above
            c -= full
            total += 1
        if c:
            out[e] = c
        e += g
    return out


def series_sum_of_products(products, prec):
    """Sum over `products` (tuples of SeriesScalar factors) of each product,
    added to the zero series of precision `prec`.

    The series twin of `exact_sum_of_products`: num, den and prec equal
    those of the term-by-term sum.  Each product's lowest order and
    certified precision follow the chain rule of `SeriesScalar.__mul__`
    from its factors' lowest orders, without multiplying; a zero factor
    still lowers the precision to the min of the precisions.  The products
    that reach below the final precision are Kronecker products (`_pack`)
    on one v-grid over the lcm of their denominators.  Its stride divides
    every factor's offsets from its lowest power and every product's
    order, and a slot holds the sum of the products' l1 norms, so the
    shifted products add up in one integer that one `_unpack` reads.
    """
    lows = {}  # id(factor) -> (factor, lowest order or None for a zero)
    live = []  # (order, factors) of the nonzero products
    for factors in products:
        p = o = None
        for f in factors:
            got = lows.get(id(f))
            if got is None:
                got = lows[id(f)] = (f, min(f.num) if f.num else None)
            fo = got[1]
            if p is None:
                p, o = f.prec, fo
            elif o is None or fo is None:
                p, o = min(p, f.prec), None
            else:
                p, o = min(p + fo, f.prec + o), o + fo
        if p < prec:
            prec = p
        if o is not None:
            live.append((o, factors))
    live = [(o, factors) for o, factors in live if o < prec]
    if not live:
        return SeriesScalar({}, prec)
    base = min(o for o, _ in live)
    g, den = 0, 1
    norms = {}  # id(factor) -> l1 norm of its numerator
    rows = []  # (order, factors, denominator, l1 norm bound) per product
    for o, factors in live:
        g = int_gcd(g, o - base)
        d = norm = 1
        for f in factors:
            n = norms.get(id(f))
            if n is None:
                low = lows[id(f)][1]
                g = int_gcd(g, *(e - low for e in f.num))
                n = norms[id(f)] = sum(map(abs, f.num.values()))
            d *= f.den
            norm *= n
        den = den * d // int_gcd(den, d)
        rows.append((o, factors, d, norm))
    g = g or 1
    B = sum(norm * (den // d) for _, _, d, norm in rows).bit_length() + 2
    packs = {}  # id(factor) -> its pack
    total = 0
    for o, factors, d, _ in rows:
        t = 1
        for f in factors:
            pf = packs.get(id(f))
            if pf is None:
                pf = packs[id(f)] = _pack(f.num, lows[id(f)][1], g, B)
            t *= pf
        if d != den:
            t *= den // d
        total += t << (B * ((o - base) // g))
    return SeriesScalar(_unpack(total, base, g, B, prec), prec, _den=den)


def _coerce(x):
    if isinstance(x, ExactScalar):
        return x
    if isinstance(x, int):
        return ExactScalar.from_int(x)
    if isinstance(x, Fraction):
        return ExactScalar.from_fraction(x)
    raise TypeError("cannot coerce %r into Q(v)" % (x,))


def _render_poly(d):
    if not d:
        return "0"
    parts = []
    for e in sorted(d):
        c = d[e]
        if e == 0:
            parts.append(str(c))
        elif c == 1:
            parts.append("v^%d" % e)
        elif c == -1:
            parts.append("-v^%d" % e)
        else:
            parts.append("%d*v^%d" % (c, e))
    s = " + ".join(parts)
    return s.replace("+ -", "- ")


def parse_scalar(text):
    """Parse the output of ExactScalar.render or SeriesScalar.render."""
    text = text.strip()
    body, sep, tail = text.rpartition("O(v^")
    if sep:
        body = body.rstrip().removesuffix("+").strip()
        prec = int(tail.removesuffix(")"))
        if body.startswith("(") and ") / " in body:
            num, den = body[1:].split(") / ")
            return SeriesScalar(_parse_poly(num), prec, _den=int(den))
        return SeriesScalar(_parse_poly(body), prec, _den=1)
    if text.startswith("(") and ") / (" in text:
        left, right = text[1:-1].split(") / (")
        return ExactScalar(_parse_poly(left), _parse_poly(right))
    return ExactScalar(_parse_poly(text))


def _parse_poly(text):
    text = text.replace("- ", "+ -").replace(" ", "")
    out = {}
    for term in text.split("+"):
        if not term:
            continue
        if "v^" in term:
            coeff, _, exp = term.partition("v^")
            if coeff in ("", "-"):
                coeff += "1"
            else:
                coeff = coeff.rstrip("*")
            out[int(exp)] = out.get(int(exp), 0) + int(coeff)
        else:
            out[0] = out.get(0, 0) + int(term)
    return _lp_norm(out)


# ---------------------------------------------------------------------------
# truncated Laurent series in v
# ---------------------------------------------------------------------------


class SeriesScalar:
    """Laurent series in v with rational coefficients, exact below `prec`.

    Coefficients at exponents >= prec are unknown and never stored.  All
    operations propagate the validity order conservatively.  Internally the
    coefficients are integers over one common denominator, so a product
    is one Kronecker product of packed integers: `__mul__` is the
    one-product case of `series_sum_of_products`.
    """

    __slots__ = ("num", "den", "prec")

    def __init__(self, num, prec, _den=1):
        """`num` maps exponents to integer numerators over `_den`."""
        self.prec = prec
        if _den < 0:
            _den = -_den
            num = {e: -c for e, c in num.items()}
        self.num = {e: c for e, c in num.items() if c and e < prec}
        self.den = _den
        self._reduce()

    def _reduce(self):
        if not self.num:
            self.den = 1
            return
        g = self.den
        for c in self.num.values():
            g = int_gcd(g, c)
            if g == 1:
                return
        if g > 1:
            self.num = {e: c // g for e, c in self.num.items()}
            self.den //= g

    @property
    def coeffs(self):
        return {e: Fraction(c, self.den) for e, c in self.num.items()}

    @classmethod
    def zero(cls, prec):
        return cls({}, prec)

    @classmethod
    def one(cls, prec):
        return cls({0: 1}, prec)

    def is_zero(self):
        return not self.num

    def min_order(self):
        return min(self.num) if self.num else None

    def __add__(self, other):
        other = self._coerce(other)
        prec = min(self.prec, other.prec)
        g = int_gcd(self.den, other.den)
        fa = other.den // g
        fb = self.den // g
        out = {e: c * fa for e, c in self.num.items() if e < prec}
        for e, c in other.num.items():
            if e >= prec:
                continue
            s = out.get(e, 0) + c * fb
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return SeriesScalar(out, prec, _den=self.den * fa)

    __radd__ = __add__

    def __neg__(self):
        return SeriesScalar({e: -c for e, c in self.num.items()}, self.prec,
                            _den=self.den)

    def __sub__(self, other):
        return self.__add__(self._coerce(other).__neg__())

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __mul__(self, other):
        return series_sum_of_products([(self, self._coerce(other))], inf)

    __rmul__ = __mul__

    def inv(self):
        if not self.num:
            raise ZeroDivisionError("inverting a series that is 0 to working order")
        m = min(self.num)
        c0 = self.num[m]
        n = self.prec - m
        # with a_j the numerator at v^(m+j), 1/self = den v^-m sum_k b_k v^k
        # where b_k = B_k / c0^(k+1): B_0 = 1 and, in one pass,
        # B_k = -sum_{j>=1} a_j c0^(j-1) B_{k-j}
        steps = []
        scale = 1
        for j in range(1, n):
            a = self.num.get(m + j)
            if a:
                steps.append((j, a * scale))
            scale *= c0
        Bs = [1]
        for k in range(1, n):
            s = 0
            for j, a in steps:
                if j > k:
                    break
                s += a * Bs[k - j]
            Bs.append(-s)
        # over the common denominator c0^n
        num = {}
        cpow = 1
        for k in range(n - 1, -1, -1):
            if Bs[k]:
                num[k - m] = Bs[k] * cpow * self.den
            cpow *= c0
        return SeriesScalar(num, self.prec - 2 * m, _den=cpow)

    def __truediv__(self, other):
        return self.__mul__(self._coerce(other).inv())

    def __rtruediv__(self, other):
        return self._coerce(other).__truediv__(self)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, ExactScalar)):
            other = self._coerce(other)
        if not isinstance(other, SeriesScalar):
            return NotImplemented
        return (self - other).is_zero()

    def _coerce(self, x):
        if isinstance(x, SeriesScalar):
            return x
        if isinstance(x, ExactScalar):
            return x.to_series(self.prec)
        if isinstance(x, (int, Fraction)):
            fr = Fraction(x)
            return SeriesScalar({0: fr.numerator}, self.prec, _den=fr.denominator)
        raise TypeError("cannot coerce %r into series ring" % (x,))

    def __repr__(self):
        terms = ["%s*v^%d" % (c, e) for e, c in sorted(self.coeffs.items())]
        return "SeriesScalar(%s + O(v^%d))" % (" + ".join(terms) or "0", self.prec)

    def render(self):
        """Integer numerator over the common denominator, then the order."""
        n = _render_poly(self.num)
        if self.den != 1:
            n = "(%s) / %d" % (n, self.den)
        return "%s + O(v^%d)" % (n, self.prec)


# ---------------------------------------------------------------------------
# q-conventions
# ---------------------------------------------------------------------------


def q_number(a, b=1):
    """[a]_{q^b} = (q^{ab} - q^{-ab}) / (q^b - q^{-b}), expanded exactly.

    Always a Laurent polynomial in q^b: sum of q^{b(a-1-2j)} for 0 <= j < a.
    """
    if b < 1:
        raise ValueError("q-number base exponent must be >= 1")
    if a == 0:
        return ExactScalar.zero()
    sign = 1
    if a < 0:
        a, sign = -a, -1
    num = {}
    for j in range(a):
        num[2 * b * (a - 1 - 2 * j)] = sign
    return _make(num, _den(()), ())


def q_pochhammer(c, base_log, n):
    """prod_{j=0}^{n-1} (1 - c * q^{base_log * j}) for finite n >= 0."""
    if base_log == 0:
        raise ValueError("Pochhammer base exponent must be nonzero")
    if n < 0:
        raise ValueError("Pochhammer length must be a natural number")
    c = _coerce(c)
    out = ExactScalar.one()
    step = ExactScalar.q_power(base_log)
    fac = c
    for _ in range(n):
        out = out * (ExactScalar.one() - fac)
        fac = fac * step
    return out


def _euclid_step(r0, r1, t0, t1):
    """One step of the extended Euclidean algorithm in integers, on dense
    polynomials (low to high) with r1 nonzero.

    Pseudo-division gives lc(r1)^s r0 = q r1 + r, and the cofactor
    follows as lc(r1)^s t0 - q t1.  The pair is divided by the gcd of both
    contents, so it stays a nonzero integer multiple of the step over Q.
    """
    q, r, s = _list_pdivmod(r0, r1)
    scale = r1[-1] ** s
    t = [x * scale for x in t0] + [0] * max(0, len(q) + len(t1) - 1 - len(t0))
    for i, x in enumerate(q):
        if x:
            for j, y in enumerate(t1):
                t[i + j] -= x * y
    _list_strip(t)
    g = int_gcd(*r, *t)
    if g > 1:
        r = [x // g for x in r]
        t = [x // g for x in t]
    return r, t


# trailing coefficients `rational_reconstruct` leaves to check its fraction
RECONSTRUCT_MARGIN = 6


def rational_reconstruct(series):
    """Recover the exact rational function behind a truncated series.

    Runs the extended Euclidean algorithm on (v^N, c(v)), c the integer
    numerator of v^-m * series, and stops at the balanced degree split.
    Each step is a pseudo-division in integers that carries the cofactor t
    alongside the remainder r (`_euclid_step`; Brown, J. ACM 18 (1971);
    von zur Gathen and Gerhard, Modern Computer Algebra, 5.7 and 6.12), so
    every (r, t) is a multiple of the pair over Q: the degrees, and so the
    stop, are the same, and the fraction is v^m r / (den t).  The result
    is verified against the input to its full working order and returned
    as an ExactScalar, or None when no fraction of admissible degree
    matches.
    """
    if series.is_zero():
        return ExactScalar.zero()
    m = series.min_order()
    N = series.prec - m
    half = (N - RECONSTRUCT_MARGIN) // 2
    if half < 1:
        return None
    c = [0] * N
    for e, co in series.num.items():
        c[e - m] = co
    r0, r1 = [0] * N + [1], _list_strip(c)  # v^N and c
    t0, t1 = [], [1]
    while r1 and len(r1) - 1 > half:
        r, t = _euclid_step(r0, r1, t0, t1)
        r0, r1, t0, t1 = r1, r, t1, t
    if not r1 or not t1:
        return None
    # t must be a unit mod v^N: t(0) != 0
    if len(t1) - 1 > N - half - RECONSTRUCT_MARGIN or not t1[0]:
        return None
    cand = ExactScalar({i + m: x for i, x in enumerate(r1) if x},
                       {i: x * series.den for i, x in enumerate(t1) if x})
    check = cand.to_series(series.prec)
    if not (check - series).is_zero():
        return None
    return cand
