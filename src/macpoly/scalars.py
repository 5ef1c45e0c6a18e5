"""Exact coefficient arithmetic for the field Q(v), with q = v^2.

All polynomial data is kept as sparse integer Laurent polynomials in the
single variable v.  A field element is a reduced fraction num/den of two
such polynomials; the denominator is normalised to have lowest exponent 0
and positive leading coefficient, and gcd(num, den) = 1 holds after every
operation.

A truncated Laurent-series backend (`SeriesScalar`) mirrors the same
arithmetic modulo O(v^prec) and is used wherever infinite products have to
be expanded.  `QuadExt` adjoins a single formal square root on top of the
exact field.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd

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


def _lp_ord(a):
    return min(a) if a else None


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


def _list_prem(a, b):
    """Pseudo-remainder of dense integer polynomials (low-to-high)."""
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    while len(a) - 1 >= db and a:
        da = len(a) - 1
        la = a[-1]
        a = [c * lb for c in a]
        for i, bc in enumerate(b):
            a[da - db + i] -= la * bc
        _list_strip(a)
    return a


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
        la, lb = lb, _list_primitive(_list_prem(la, lb))
    if la[-1] < 0:
        la = [-c for c in la]
    return {i: c for i, c in enumerate(la) if c}


class ExactScalar:
    """An element of Q(v) in canonical reduced form."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None, reduce=True):
        if den is None:
            den = {0: 1}
        num = _lp_norm(num)
        den = _lp_norm(den)
        if not den:
            raise ZeroDivisionError("zero denominator in Q(v)")
        if reduce:
            num, den = self._reduce(num, den)
        self.num = num
        self.den = den

    @staticmethod
    def _reduce(num, den):
        # pull the denominator's lowest v-power into the numerator
        shift = _lp_ord(den)
        if shift:
            den = _lp_shift(den, -shift)
            num = _lp_shift(num, -shift)
        if not num:
            return {}, {0: 1}
        if len(den) == 1:
            c = den[0]
            if c < 0:
                c = -c
                num = _lp_neg(num)
            g = int_gcd(_lp_content(num), c)
            if g > 1:
                num = {e: x // g for e, x in num.items()}
                c //= g
            return num, {0: c}
        if len(num) == 1:
            # den starts at order 0, so only integer content can cancel
            if den[max(den)] < 0:
                num, den = _lp_neg(num), _lp_neg(den)
            cg = int_gcd(_lp_content(num), _lp_content(den))
            if cg > 1:
                num = {e: x // cg for e, x in num.items()}
                den = {e: x // cg for e, x in den.items()}
            return num, den
        g = _lp_gcd(num, den)
        if len(g) > 1 or _lp_ord(g) != 0 or g.get(0) != 1:
            gl, gsh = _lp_to_list(g)
            num = ExactScalar._exact_list_div(num, gl, gsh)
            den = ExactScalar._exact_list_div(den, gl, gsh)
        # sign and content normalisation
        if den[max(den)] < 0:
            num, den = _lp_neg(num), _lp_neg(den)
        shift = _lp_ord(den)
        if shift:
            den = _lp_shift(den, -shift)
            num = _lp_shift(num, -shift)
        cg = int_gcd(_lp_content(num), _lp_content(den))
        if cg > 1:
            num = {e: x // cg for e, x in num.items()}
            den = {e: x // cg for e, x in den.items()}
        return num, den

    @staticmethod
    def _exact_list_div(a, bl, bsh):
        """Divide Laurent poly a by dense poly bl (shifted by bsh); exact."""
        al, ash = _lp_to_list(a)
        if not al:
            return {}
        q = [0] * (len(al) - len(bl) + 1)
        r = list(al)
        lb = bl[-1]
        for i in range(len(q) - 1, -1, -1):
            c = r[i + len(bl) - 1]
            if c % lb != 0:
                # divide over Q instead
                return ExactScalar._exact_list_div_q(al, ash, bl, bsh)
            qi = c // lb
            q[i] = qi
            if qi:
                for j, bc in enumerate(bl):
                    r[i + j] -= qi * bc
        if any(r):
            raise ArithmeticError("inexact polynomial division")
        return {i + ash - bsh: c for i, c in enumerate(q) if c}

    @staticmethod
    def _exact_list_div_q(al, ash, bl, bsh):
        aq = [Fraction(c) for c in al]
        q = [Fraction(0)] * (len(al) - len(bl) + 1)
        lb = Fraction(bl[-1])
        for i in range(len(q) - 1, -1, -1):
            qi = aq[i + len(bl) - 1] / lb
            q[i] = qi
            if qi:
                for j, bc in enumerate(bl):
                    aq[i + j] -= qi * bc
        if any(aq):
            raise ArithmeticError("inexact polynomial division")
        m = 1
        for c in q:
            m = m * c.denominator // int_gcd(m, c.denominator)
        return {i + ash - bsh: int(c * m) for i, c in enumerate(q) if c}

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_int(cls, n):
        return cls({0: n} if n else {}, reduce=False)

    @classmethod
    def from_fraction(cls, fr):
        fr = Fraction(fr)
        return cls({0: fr.numerator} if fr.numerator else {},
                   {0: fr.denominator}, reduce=False)

    @classmethod
    def v_power(cls, k, coeff=1):
        if not coeff:
            return cls.zero()
        fr = Fraction(coeff)
        return cls({k: fr.numerator}, {0: fr.denominator}, reduce=False)

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
        return cls({}, reduce=False)

    @classmethod
    def one(cls):
        return cls({0: 1}, reduce=False)

    # -- queries ------------------------------------------------------------

    def is_zero(self):
        return not self.num

    def is_one(self):
        return self.num == {0: 1} and self.den == {0: 1}

    def v_order(self):
        """Lowest v-exponent of the value; None for 0."""
        if not self.num:
            return None
        return _lp_ord(self.num)

    def as_fraction(self):
        """The value as a rational number, if it is constant in v."""
        if not self.num:
            return Fraction(0)
        if set(self.num) != {0} or set(self.den) != {0}:
            raise ValueError("not a constant: %s" % self)
        return Fraction(self.num[0], self.den[0])

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (SeriesScalar, QuadExt)):
            return NotImplemented
        other = _coerce(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.den == other.den:
            return ExactScalar(_lp_add(self.num, other.num), dict(self.den))
        num = _lp_add(_lp_mul(self.num, other.den), _lp_mul(other.num, self.den))
        return ExactScalar(num, _lp_mul(self.den, other.den))

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        out = ExactScalar.__new__(ExactScalar)
        out.num = _lp_neg(self.num)
        out.den = dict(self.den)
        return out

    def __sub__(self, other):
        if isinstance(other, (SeriesScalar, QuadExt)):
            return NotImplemented
        return self.__add__(_coerce(other).__neg__())

    def __rsub__(self, other):
        return _coerce(other).__sub__(self)

    def __mul__(self, other):
        if isinstance(other, (SeriesScalar, QuadExt)):
            return NotImplemented
        other = _coerce(other)
        if self.is_zero() or other.is_zero():
            return ExactScalar.zero()
        if self.is_one():
            return other
        if other.is_one():
            return self
        return ExactScalar(_lp_mul(self.num, other.num),
                           _lp_mul(self.den, other.den))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        if isinstance(other, (SeriesScalar, QuadExt)):
            return NotImplemented
        other = _coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero in Q(v)")
        if self.is_zero():
            return ExactScalar.zero()
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
        """Substitute v -> 1/v (equivalently q -> 1/q) and renormalise."""
        return ExactScalar(_lp_flip(self.num), _lp_flip(self.den))

    # -- rendering ----------------------------------------------------------

    def __repr__(self):
        return "ExactScalar(%s)" % self.render()

    def render(self):
        n = _render_poly(self.num)
        if self.den == {0: 1}:
            return n
        return "(%s) / (%s)" % (n, _render_poly(self.den))

    def to_series(self, prec):
        """Expand as a SeriesScalar valid strictly below order prec."""
        if not self.num:
            return SeriesScalar({}, prec)
        den_items = sorted(self.den.items())
        c0 = Fraction(den_items[0][1])
        rest = den_items[1:]
        out = {}
        work = {e: Fraction(c) / c0 for e, c in self.num.items()}
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
        return SeriesScalar({e: c for e, c in out.items() if c and e < prec}, prec)


def exact_sum_of_products(products):
    """Sum over `products` (tuples of ExactScalar factors) of each product.

    Numerators are multiplied and added unreduced, one accumulator per
    distinct denominator, and each accumulator is reduced once at the end;
    the value equals the term-by-term reduced sum.
    """
    # id(factor) -> (factor, index of its denominator in dens); holding the
    # factor keeps its id from being reused within the call
    seen = {}
    den_index = {}
    dens = []
    sums = {}  # tuple of denominator indices -> numerator accumulator
    for factors in products:
        key = []
        num = None
        for f in factors:
            got = seen.get(id(f))
            if got is None:
                items = tuple(sorted(f.den.items()))
                k = den_index.get(items)
                if k is None:
                    k = den_index[items] = len(dens)
                    dens.append(f.den)
                got = seen[id(f)] = (f, k)
            key.append(got[1])
            num = f.num if num is None else _lp_mul(num, f.num)
        key = tuple(key)
        acc = sums.get(key)
        if acc is None:
            acc = sums[key] = {}
        for e, c in num.items():
            acc[e] = acc.get(e, 0) + c
    by_den = {}
    for key, num in sums.items():
        den = {0: 1}
        for k in key:
            den = _lp_mul(den, dens[k])
        items = tuple(sorted(den.items()))
        got = by_den.get(items)
        if got is None:
            by_den[items] = (den, num)
        else:
            acc = got[1]
            for e, c in num.items():
                acc[e] = acc.get(e, 0) + c
    total = ExactScalar.zero()
    for den, num in by_den.values():
        total = total + ExactScalar(num, den)
    return total


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
    """Parse the output of ExactScalar.render back into an ExactScalar."""
    text = text.strip()
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
    coefficients are integers over one common denominator, which keeps the
    hot convolution loops in plain integer arithmetic.
    """

    __slots__ = ("num", "den", "prec")

    def __init__(self, coeffs, prec, _den=None):
        self.prec = prec
        if _den is not None:
            if _den < 0:
                _den = -_den
                coeffs = {e: -c for e, c in coeffs.items()}
            self.num = {e: c for e, c in coeffs.items() if c and e < prec}
            self.den = _den
            self._reduce()
            return
        den = 1
        vals = {}
        for e, c in coeffs.items():
            if not c or e >= prec:
                continue
            fr = Fraction(c)
            vals[e] = fr
            den = den * fr.denominator // int_gcd(den, fr.denominator)
        self.num = {e: int(c * den) for e, c in vals.items()}
        self.den = den

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
        other = self._coerce(other)
        if not self.num or not other.num:
            return SeriesScalar({}, min(self.prec, other.prec))
        oa = min(self.num)
        ob = min(other.num)
        prec = min(self.prec + ob, other.prec + oa)
        out = {}
        for e1, c1 in self.num.items():
            for e2, c2 in other.num.items():
                e = e1 + e2
                if e >= prec:
                    continue
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return SeriesScalar(out, prec, _den=self.den * other.den)

    __rmul__ = __mul__

    def inv(self):
        if not self.num:
            raise ZeroDivisionError("inverting a series that is 0 to working order")
        m = min(self.num)
        c0 = self.num[m]
        n = self.prec - m
        # u = 1 - self/(c0 v^m); invert 1 - u by geometric series, over a
        # common denominator c0 at each stage
        u = {e - m: -c for e, c in self.num.items() if e != m}  # over den c0
        out = {0: 1}
        outden = 1
        power = {0: 1}
        powden = 1
        for _ in range(n):
            if not power or not u:
                break
            nxt = {}
            for e1, c1 in power.items():
                for e2, c2 in u.items():
                    e = e1 + e2
                    if e >= n:
                        continue
                    s = nxt.get(e, 0) + c1 * c2
                    if s:
                        nxt[e] = s
                    else:
                        nxt.pop(e, None)
            power = nxt
            powden = powden * c0
            scale = powden // outden  # outden always divides powden here
            out = {e: c * scale for e, c in out.items()}
            outden = powden
            for e, c in power.items():
                s = out.get(e, 0) + c
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        # result = (den / c0) * sum out/outden; total denominator outden*c0/den
        num = {e - m: c * self.den for e, c in out.items()}
        return SeriesScalar(num, self.prec - 2 * m, _den=outden * c0)

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

    def __hash__(self):
        raise TypeError("SeriesScalar is unhashable")

    def _coerce(self, x):
        if isinstance(x, SeriesScalar):
            return x
        if isinstance(x, ExactScalar):
            return x.to_series(self.prec)
        if isinstance(x, (int, Fraction)):
            return SeriesScalar({0: Fraction(x)}, self.prec)
        raise TypeError("cannot coerce %r into series ring" % (x,))

    def __repr__(self):
        terms = ["%s*v^%d" % (c, e) for e, c in sorted(self.coeffs.items())]
        return "SeriesScalar(%s + O(v^%d))" % (" + ".join(terms) or "0", self.prec)


# ---------------------------------------------------------------------------
# quadratic extension Q(v)(w), w^2 = disc
# ---------------------------------------------------------------------------


class QuadExt:
    """a + b*w with w^2 = disc, over ExactScalar.

    Used only where a single formal square root is needed; disc must agree
    between operands.
    """

    __slots__ = ("a", "b", "disc")

    def __init__(self, a, b, disc):
        self.a = _coerce(a)
        self.b = _coerce(b)
        self.disc = disc

    @classmethod
    def of(cls, x, disc):
        if isinstance(x, QuadExt):
            return x
        return cls(_coerce(x), ExactScalar.zero(), disc)

    @classmethod
    def root(cls, disc):
        return cls(ExactScalar.zero(), ExactScalar.one(), disc)

    def is_zero(self):
        return self.a.is_zero() and self.b.is_zero()

    def __add__(self, other):
        other = QuadExt.of(other, self.disc)
        return QuadExt(self.a + other.a, self.b + other.b, self.disc)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt(-self.a, -self.b, self.disc)

    def __sub__(self, other):
        return self.__add__(QuadExt.of(other, self.disc).__neg__())

    def __rsub__(self, other):
        return QuadExt.of(other, self.disc).__sub__(self)

    def __mul__(self, other):
        other = QuadExt.of(other, self.disc)
        return QuadExt(self.a * other.a + self.b * other.b * self.disc,
                       self.a * other.b + self.b * other.a, self.disc)

    __rmul__ = __mul__

    def inv(self):
        nrm = self.a * self.a - self.b * self.b * self.disc
        if nrm.is_zero():
            raise ZeroDivisionError("non-invertible element of quadratic extension")
        return QuadExt(self.a / nrm, -self.b / nrm, self.disc)

    def __truediv__(self, other):
        return self.__mul__(QuadExt.of(other, self.disc).inv())

    def __rtruediv__(self, other):
        return QuadExt.of(other, self.disc).__truediv__(self)

    def __pow__(self, n):
        if n < 0:
            return self.inv() ** (-n)
        out = QuadExt.of(ExactScalar.one(), self.disc)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        other = QuadExt.of(other, self.disc)
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        raise TypeError("QuadExt is unhashable")

    def __repr__(self):
        return "QuadExt(%s + (%s)*w)" % (self.a.render(), self.b.render())


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
    return ExactScalar(num, reduce=False)


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


def rational_reconstruct(series, margin=6):
    """Recover the exact rational function behind a truncated series.

    Runs the extended Euclidean algorithm on (v^N, c(v)) and stops at the
    balanced degree split; the result is verified against the input to its
    full working order and returned as an ExactScalar, or None when no
    fraction of admissible degree matches.
    """
    if series.is_zero():
        return ExactScalar.zero()
    m = series.min_order()
    N = series.prec - m
    half = (N - margin) // 2
    if half < 1:
        return None
    # dense power-series coefficients of v^{-m} * series
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
    # clear rational content into integers
    den = 1
    for x in r1 + t1:
        den = den * x.denominator // int_gcd(den, x.denominator)
    num_d = {i + m: int(x * den) for i, x in enumerate(r1) if x}
    den_d = {i: int(x * den) for i, x in enumerate(t1) if x}
    try:
        cand = ExactScalar(num_d, den_d)
    except ZeroDivisionError:
        return None
    if den_d.get(0, 0) == 0:
        return None
    check = cand.to_series(series.prec)
    if not (check - series).is_zero():
        return None
    return cand


ZERO = ExactScalar.zero()
ONE = ExactScalar.one()
