"""Weight distributions built from q-Pochhammer factors.

A weight is a product P * flip(P') of two positive-cone parts; the second
part is reflected into the negative cone (e^mu -> e^-mu).  A spec's
factors are all finite numerator factors, which multiply out to an exact
Laurent polynomial, or all infinite, numerators over denominators, which
are paired in truncated series with explicit accounting of the v-order lost
to truncation.  The weight builders pick the form: (c e^a; qh)_k where
t = qh^k, the infinite ratio (c e^a; qh)_inf / (c t e^a; qh)_inf otherwise.
"""

from __future__ import annotations

import json
import math
import os
import weakref
from collections import Counter
from contextlib import suppress
from dataclasses import dataclass
from operator import eq, sub

from .galg import GAElement
from .scalars import (ExactScalar, SeriesScalar, _pack, _unpack,
                      exact_sum_of_products, series_sum_of_products)

INF = None  # length tag for infinite Pochhammer factors


@dataclass(frozen=True)
class PochFactor:
    """(coeff * e^exponent ; q^base_log)_length, on one side of a fraction."""

    coeff: ExactScalar
    exponent: tuple
    base_log: int
    length: object  # int >= 0 or INF
    side: int  # +1 numerator, -1 denominator

    def __post_init__(self):
        if self.base_log == 0:
            raise ValueError("Pochhammer base exponent must be nonzero")
        if self.length is INF and self.base_log < 0:
            raise ValueError("infinite factors need a positive base")
        if self.length is not INF and self.side == -1:
            raise ValueError("finite factors must be numerator factors")

    def to_json(self):
        return {"coeff": self.coeff.render(), "exponent": list(self.exponent),
                "base_log": self.base_log,
                "length": "inf" if self.length is INF else self.length,
                "side": self.side}


class WeightSpec:
    """plus-part factors and a reflected second part.

    `minus` lists factors in positive-cone form; the weight contains their
    image under e^mu -> e^-mu.
    """

    def __init__(self, plus, minus, lattice, rank=None):
        self.plus = list(plus)
        self.minus = list(minus)
        self.lattice = lattice
        if rank is None:
            allf = self.plus + self.minus
            rank = len(allf[0].exponent) if allf else 1
        self.rank = rank


# ---------------------------------------------------------------------------
# expansion of one cone part
# ---------------------------------------------------------------------------


class TruncationError(ArithmeticError):
    pass


# optional on-disk cache for the series tables of cone parts; versioned,
# invalidated on bump.  Version 6 stores one file per table: its integer
# numerators over one denominator, named by and holding its key, a hash of
# the factors and the order the table is exact below, and next to the key
# the hash of the table's text, so an edited table is a miss.  Both hashes
# are hex SHA-1 (`_digest`), taken from the interpreter's built-in module
# so that a cached run maps no crypto library.
CACHE_VERSION = 6
_cache_dir = None
_TABLE_SEP = b'", "table": '  # between a file's digest and its table


def set_cache_dir(path):
    """Cache series tables under `path` (None or empty: off); unchanged on
    error."""
    global _cache_dir
    if path:
        os.makedirs(path, exist_ok=True)
    _cache_dir = path or None


def _digest(data):
    """The hex SHA-1 digest of the bytes `data`, from CPython's built-in
    `_sha1`: the digest `hashlib.sha1` gives, without the OpenSSL libcrypto
    that the first import of hashlib maps (+3.6 MB RSS)."""
    try:
        from _sha1 import sha1
    except ImportError:  # an interpreter built without the module
        from hashlib import sha1
    return sha1(data).hexdigest()


def _part_key(factors, prec):
    blob = repr((CACHE_VERSION, [f.to_json() for f in factors], prec))
    return _digest(blob.encode())


def _part_text(key, terms):
    """The cache file of the flat cone-part table `terms` under `key`
    (`_part_key`), a JSON object: the key, the sha1 of the table's text, and
    the table, the terms' integer numerators over their common
    denominator."""
    den = math.lcm(*(c.den for c in terms.values()))
    # encoded row by row: json.dumps of the whole table gives the same text
    # but holds every row's lists and encoded pieces at once
    table = '{"den": %d, "terms": [%s]}' % (den, ", ".join(json.dumps(
        [list(e), [[k, n * (den // c.den)] for k, n in sorted(c.num.items())]])
        for e, c in sorted(terms.items())))
    return '{"key": "%s", "sha1": "%s", "table": %s}' % (
        key, _digest(table.encode()), table)


def _part_table(raw, key):
    """The table of the cache file bytes `raw` (`_part_text`), or None if
    the file holds another key or its table's text, as read, does not hash
    to the digest stored next to the key.  Bytes that are not such a file
    raise ValueError."""
    head = b'{"key": "%s", "sha1": "' % key.encode()
    mid = len(head) + 40
    start = mid + len(_TABLE_SEP)
    if raw[:len(head)] != head or raw[mid:start] != _TABLE_SEP:
        return None
    table, end = json.JSONDecoder().raw_decode(raw.decode("ascii"), start)
    return table if _digest(raw[start:end]).encode() == raw[len(head):mid] \
        else None


def _term_order(f, k):
    """The v-order of term k of the infinite factor's Euler expansion
    (Gasper-Rahman, *Basic Hypergeometric Series*, 1.3): c^k over
    (qh; qh)_k on a denominator, times (-1)^k qh^(k(k-1)/2) on a numerator,
    with qh = v^(2 base_log).  So k ord(c), plus base_log k(k-1) on a
    numerator."""
    order = k * f.coeff.v_order()
    return order if f.side == -1 else order + f.base_log * k * (k - 1)


def _lowest(f):
    """The lowest v-order of any term of the infinite factor: that of term
    k0 - 1 (`_first_gain`)."""
    return _term_order(f, _first_gain(f) - 1)


def _factor_terms(f, kmax, prec):
    """The infinite factor's terms k <= kmax as (k, SeriesScalar), exact
    below prec.

    Term k is term k - 1 times -side c v^shift / (1 - v^{pk}), with p the
    base's v-exponent and shift p (k - 1) on a numerator, 0 on a
    denominator (the Euler expansions), so the terms are computed in the
    series ring.
    """
    p = 2 * f.base_log
    # a coefficient of negative order costs that much precision per step
    work = prec + kmax * max(0, -f.coeff.v_order())
    step = f.coeff.to_series(work) * -f.side
    term = SeriesScalar.one(work)
    out = [(0, term)]
    for k in range(1, kmax + 1):
        shift = 0 if f.side == -1 else p * (k - 1)
        t = term * step
        t = SeriesScalar({e + shift: n for e, n in t.num.items()},
                         t.prec + shift, _den=t.den)
        term = _over_one_minus(t, p * k)
        out.append((k, term))
    return out


def _over_one_minus(x, step):
    """x / (1 - v^step) for step > 0, to x's precision."""
    out = {}
    for e in range(min(x.num, default=x.prec), x.prec):
        c = x.num.get(e, 0) + out.get(e - step, 0)
        if c:
            out[e] = c
    return SeriesScalar(out, x.prec, _den=x.den)


def _first_gain(f):
    """k0, the first k >= 1 whose term of the infinite factor has v-order
    at least that of term k - 1 (`_term_order`).  The increments
    ord(c) + 2 base_log (k - 1) on a numerator, ord(c) on a denominator,
    are nondecreasing in k, so the lowest term order is at k0 - 1.  A
    denominator of coefficient order <= 0 never gains: TruncationError."""
    oc = f.coeff.v_order()
    if f.side == -1:
        if oc <= 0:
            raise TruncationError("denominator factor of coefficient "
                                  "order %d never gains order" % oc)
        return 1
    return max(1, 1 - oc // (2 * f.base_log))


def _last_term(f, need):
    """The last k whose term of the infinite factor has v-order below
    `need` (`_term_order`), and at least k0 - 1 (`_first_gain`).  The
    orders fall until k0 - 1 and rise after it, so the walk starts there
    and stops before the first term at `need` or above."""
    k = _first_gain(f) - 1
    while _term_order(f, k + 1) < need:
        k += 1
    return k


class ConePart:
    """The series tables of a product of infinite positive-cone factors,
    each cut at a v-order.

    Build parts through `cone_part`, which shares one part among all
    holders of the same factors.  A part keeps each table it has computed,
    so every holder reads the same tables.
    """

    def __init__(self, factors):
        self.factors = factors
        for f in factors:
            if sum(f.exponent) <= 0:
                raise ValueError("factor exponent %s is not in the positive cone"
                                 % (f.exponent,))
            if f.length is not INF:
                raise ValueError("a cone part takes infinite factors, got "
                                 "length %s" % f.length)
        self._expansions = {}

    def expand(self, prec):
        """All terms that may have v-order below `prec`, as exponent ->
        SeriesScalar, exact below it.

        Every coefficient carries `prec` as its order (a flat cut); terms
        that vanish below it are left out.  Computed once per `prec`; the
        result is shared, so holders must not change it.  With a cache
        directory set, the table is first looked up on disk (`_cached`).
        """
        got = self._expansions.get(prec)
        if got is None:
            got = self._expansions[prec] = (
                self._expand(prec) if _cache_dir is None
                else self._cached(prec))
        return got

    def _cached(self, prec):
        """The series table of `prec` from its file in the cache directory,
        else expanded and stored there.  A file that holds another key, or
        a table that does not match its digest, is a miss."""
        key = _part_key(self.factors, prec)
        path = os.path.join(_cache_dir, key + ".json")
        try:
            with open(path, "rb") as fh:
                table = _part_table(fh.read(), key)
            if table is not None:
                den = table["den"]
                return {tuple(e): SeriesScalar(dict(num), prec, _den=den)
                        for e, num in table["terms"]}
        except (OSError, ValueError, LookupError, TypeError):
            pass  # missing, unreadable or malformed: a miss, rebuilt below
        got = self._expand(prec)
        tmp = "%s.%d.tmp" % (path, os.getpid())
        try:
            with open(tmp, "w") as fh:
                fh.write(_part_text(key, got))
            os.replace(tmp, path)
        except OSError:
            # an unwritable cache costs only the store: keep the fresh table
            with suppress(OSError):
                os.remove(tmp)
        return got

    def _expand(self, cut):
        """The expansion as exponent -> SeriesScalar, exact below `cut`.

        A term of the product takes one term of each factor, and the other
        factors add at least the part's lowest order less this factor's
        lowest, so each factor's terms run to its `_last_term` below `cut`
        less that.  Factors of one shape (coeff, base_log, side) differ
        only in their exponent and share one expansion of their terms.

        The product is accumulated as exponent -> {v-power: int} over one
        common denominator.  Factor terms may have negative v-order, so the
        running product is kept to `cut` minus the lowest order the factors
        still to come can add, and each factor's terms to `cut` minus the
        lowest order all the other factors can add.

        Each row multiplies packed integers (`_pack`) on the v-grid of
        stride g, the gcd of every v-power of every factor term.  Products
        that land on one exponent start at different v-orders, so g must
        divide the powers themselves, not only their offsets from each
        term's lowest one.  A row's slots hold B bits, from a bound on every
        coefficient it sums: the largest l1 norm of a running polynomial
        times the l1 norm of all the factor's terms.
        """
        total = self.lowest_order()
        tables, g = {}, 0
        for f in self.factors:
            shape = (f.coeff, f.base_log, f.side)
            if shape in tables:
                continue
            low = _lowest(f)
            prec = cut - total + low
            terms = [(k, s) for k, s in _factor_terms(
                f, _last_term(f, prec), prec) if s.num]
            fden = math.lcm(*(s.den for _, s in terms))
            table = [(k, {v: n * (fden // s.den) for v, n in s.num.items()})
                     for k, s in terms]
            for _, num in table:
                g = math.gcd(g, *num)
            tables[shape] = low, fden, table, sum(
                abs(n) for _, num in table for n in num.values())
        g = g or 1
        rank = len(self.factors[0].exponent) if self.factors else 1
        acc = {(0,) * rank: {0: 1}}
        den, rest = 1, total
        for f in self.factors:
            flow, fden, table, mass = tables[f.coeff, f.base_log, f.side]
            den *= fden
            rest -= flow
            limit = cut - rest
            B = (mass * max((sum(map(abs, poly.values()))
                             for poly in acc.values()), default=0)
                 ).bit_length() + 2
            packed = [(k, min(num), _pack(num, min(num), g, B))
                      for k, num in table]
            nxt = {}  # exponent -> [lowest v-power, packed sum]
            for e, poly in acc.items():
                v1 = min(poly)
                p1 = _pack(poly, v1, g, B)
                for k, v2, p2 in packed:
                    low = v1 + v2
                    if low >= limit:
                        continue
                    ee = tuple(x + k * y for x, y in zip(e, f.exponent))
                    out = nxt.get(ee)
                    if out is None:
                        nxt[ee] = [low, p1 * p2]
                    elif low >= out[0]:
                        out[1] += (p1 * p2) << (B * ((low - out[0]) // g))
                    else:
                        out[1] = (out[1] << (B * ((out[0] - low) // g))
                                  ) + p1 * p2
                        out[0] = low
            acc = {}
            for ee, (low, t) in nxt.items():
                poly = _unpack(t, low, g, B, limit)
                if poly:
                    acc[ee] = poly
        return {e: SeriesScalar(poly, cut, _den=den) for e, poly in acc.items()}

    def lowest_order(self):
        """The lowest v-order of any term, each factor's lowest summed (at
        most 0, the order of the term 1)."""
        return sum(_lowest(f) for f in self.factors)


_parts = weakref.WeakValueDictionary()


def cone_part(factors):
    """The shared ConePart of `factors`.

    Parts are told apart by every field of every factor, in order.  The
    registry holds parts weakly: a part lives while some holder (an engine)
    keeps it, and a later request for the same part while it lives gets
    the same object.
    """
    key = tuple((f.coeff, f.exponent, f.base_log, f.length, f.side)
                for f in factors)
    part = _parts.get(key)
    if part is None:
        part = _parts[key] = ConePart(factors)
    return part


# ---------------------------------------------------------------------------
# pairing engine
# ---------------------------------------------------------------------------


# v-orders a series weight is worked beyond its certified order, which the
# pairing coefficients' negative orders may use up
MARGIN = 8


class WeightEngine:
    """Prepared weight for constant-term pairing against finite elements.

    An exact engine reads the weight through one coefficient lookup
    `_lookup(nu)` (None where there is no term): the terms of a spec of
    finite factors multiplied out once, or a weight known by its moments
    (`from_moments`).  A spec of infinite factors is expanded to every term
    that may reach below the working order, so every W(nu) is exact below
    it; its engine has no lookup.  A spec that mixes the two is refused.

    Every pairing takes one path for all three sources; `_coefficient`
    (W(nu)), `_lift`, `_sum` and `_finish` hold what differs.
    """

    def __init__(self, spec, order=60):
        self._memos(spec)
        self.order = order
        infinite = {f.length is INF for f in spec.plus + spec.minus}
        if len(infinite) > 1:
            raise ValueError("a weight spec mixes finite and infinite factors")
        if infinite == {True}:
            self._build_series()
        else:
            self._build_exact()

    @classmethod
    def from_moments(cls, weight):
        """Exact engine over the coefficient lookup `weight(nu)` alone, such
        as the one-variable moment functional's `AWFunctional.weight`; it
        has no spec and expands nothing."""
        engine = cls.__new__(cls)
        engine._memos(None)
        engine._lookup = weight
        return engine

    def _memos(self, spec):
        """What both constructors set: the spec, no lookup yet, and the
        pairing memos and orbit proofs, all empty.  `_shape` is what a proof
        of W-invariance reads (`_prove`); the builders set it, and an engine
        over moments alone has none, so it shares nothing across orbits."""
        self.spec, self._lookup, self._shape = spec, None, None
        self._moments = {}  # id(M) -> (M, moment tables of M)
        self._singles = {}  # e -> {e}, one block per exponent for the Grams
        self._cuts = {}  # (id(f), id(group)) -> (f, group, blocks of f)
        self._proofs = {}  # id(group) -> (group, W constant on its orbits)
        self._orbits = None  # the first group W is proven constant on

    # -- construction --------------------------------------------------------

    def _build_exact(self):
        """Multiply the finite factors out: (c e^a; p)_k is the product of
        1 - c p^j e^a over j < k, with e^-a for a factor of the minus part."""
        spec = self.spec
        one = GAElement.one(spec.lattice, spec.rank)
        W = one
        for sign, factors in ((1, spec.plus), (-1, spec.minus)):
            for f in factors:
                a = tuple(sign * x for x in f.exponent)
                for j in range(f.length):
                    c = f.coeff * ExactScalar.q_power(f.base_log * j)
                    W = W * (one - GAElement.monomial(a, spec.lattice, c))
        self._shape = W.terms
        self._lookup = W.terms.get

    def _build_series(self):
        """Set the working order from the parts' lowest orders, then hold
        both parts, shared through `cone_part`, expanded to it."""
        spec = self.spec
        # the factors as the weight holds them, minus on -a: exponent ->
        # multiset of the other fields
        self._shape = {}
        for sign, factors in ((1, spec.plus), (-1, spec.minus)):
            for f in factors:
                self._shape.setdefault(tuple(sign * x for x in f.exponent),
                                       Counter())[
                    f.coeff, f.base_log, f.length, f.side] += 1
        plus, minus = self._parts = tuple(cone_part(fs)
                                          for fs in (spec.plus, spec.minus))
        low_p, low_m = plus.lowest_order(), minus.lowest_order()
        self._work = work = self.order + MARGIN - low_m - low_p
        # each part is cut flat where its products with the other part no
        # longer reach below `work`: at `work` less the other part's lowest
        # order
        self._set_parts(plus.expand(work - low_m),
                        minus.expand(work - low_p))

    def _set_parts(self, plus, minus):
        """Hold the expanded parts, with the common denominator of each, the
        grid of their packed coefficients and each nonzero coefficient's
        lowest v-power (`_weight_coefficient`).

        The stride g is the gcd of every v-power's offset from its part's
        lowest one, so each coefficient packs on a grid of stride g from its
        own lowest power, and a product's grid is fixed by its lowest power.
        Slots hold B bits: a coefficient of W(nu) sums at most one product
        per plus term, each bounded by the largest l1 norms of the two
        parts' numerators over their common denominators.
        """
        self._plus_terms, self._minus_terms = plus, minus
        self._w_dens = tuple(math.lcm(*(c.den for c in part.values()))
                             for part in (plus, minus))
        self._w_cache = {}
        lows_p = {mu: (c, min(c.num)) for mu, c in plus.items() if c.num}
        lows_m = lows_p if minus is plus else {
            mk: (c, min(c.num)) for mk, c in minus.items() if c.num}
        self._plus_lows = [(mu, c, low) for mu, (c, low) in lows_p.items()]
        self._minus_lows = lows_m
        g, norms = 0, []
        for lows, d in zip((lows_p, lows_m), self._w_dens):
            low = min((o for _, o in lows.values()), default=0)
            norm = 0
            for c, _ in lows.values():
                g = math.gcd(g, *(e - low for e in c.num))
                norm = max(norm, sum(map(abs, c.num.values())) * (d // c.den))
            norms.append(norm)
        self._stride = g or 1
        self._width = (len(plus) * norms[0] * norms[1]).bit_length() + 2
        # each coefficient is packed the first time a product reads it
        packs = {}
        self._packs = (packs, packs if minus is plus else {})

    def _weight_coefficient(self, nu):
        """Series coefficient sum_mu plus[mu] minus[mu - nu] of the weight at
        exponent nu, scanned (`_scan`) once at its canonical exponent
        (`_canonical`) and cached under both."""
        got = self._w_cache.get(nu)
        if got is None:
            key = self._canonical(nu)
            got = self._w_cache.get(key)
            if got is None:
                got = self._w_cache[key] = self._scan(key)
            self._w_cache[nu] = got
        return got

    def _canonical(self, nu):
        """The exponent W(nu) is scanned at: the dominant representative of
        nu once W is proven constant on the Weyl orbits (`_prove`), else nu;
        when the two parts are one (`minus is plus`), the least of that of
        nu and that of -nu, since mu -> mu - nu maps the products of W(-nu)
        one to one onto those of W(nu)."""
        orbits = self._orbits
        rep = nu if orbits is None else orbits.dominant_rep(nu)
        if self._minus_terms is not self._plus_terms:
            return rep
        neg = tuple(-x for x in nu)
        return min(rep, neg if orbits is None else orbits.dominant_rep(neg))

    def _scan(self, nu):
        """W(nu) over all plus terms.  The products are packed integers
        (`_pack`) over the parts' common denominators, summed on the grid of
        the lowest product.

        The sum is exact below `work`: each part is cut flat at `work` less
        the other part's lowest order, and a product of a plus term of
        lowest order op and a minus term of order om is exact below
        min(cut_p + om, cut_m + op) >= work.  Products of order >= work are
        left out.  So W(nu) and W(w nu) are one series wherever the weight
        is constant on orbits.
        """
        work, minus = self._work, self._minus_lows
        pairs = []
        for mu, pc, op in self._plus_lows:
            mk = tuple(map(sub, mu, nu))
            hit = minus.get(mk)
            if hit is not None and op + hit[1] < work:
                pairs.append((mu, pc, op, mk, *hit))
        g, B = self._stride, self._width
        (dp, dm), (packs_p, packs_m) = self._w_dens, self._packs
        base = min((op + om for _, _, op, _, _, om in pairs), default=work)
        total = 0
        for mu, pc, op, mk, mc, om in pairs:
            p1 = packs_p.get(mu)
            if p1 is None:
                p1 = packs_p[mu] = _pack(pc.num, op, g, B) * (dp // pc.den)
            p2 = packs_m.get(mk)
            if p2 is None:
                p2 = packs_m[mk] = _pack(mc.num, om, g, B) * (dm // mc.den)
            total += (p1 * p2) << (B * ((op + om - base) // g))
        return SeriesScalar(_unpack(total, base, g, B, work), work,
                            _den=dp * dm)

    # -- pairing --------------------------------------------------------------

    @property
    def exact(self):
        """Whether pairings are exact in Q(v), not truncated series."""
        return self._lookup is not None

    def _coefficient(self, nu):
        """W(nu), None where it vanishes."""
        if self._lookup is not None:
            return self._lookup(nu)
        w = self._weight_coefficient(nu)
        return None if w.is_zero() else w

    def _lift(self, c):
        """c in the weight's ring: on a series weight, a working-order series."""
        if self._lookup is not None or isinstance(c, SeriesScalar):
            return c
        return c.to_series(self._work)

    def _sum(self, products):
        """The sum of the products of the tuples of factors in `products`:
        with one reduction per distinct denominator on an exact weight, to
        the working order on a series weight."""
        if self._lookup is not None:
            return exact_sum_of_products(products)
        return series_sum_of_products(products, self._work)

    def _finish(self, acc):
        """The pairing `acc`, on a series weight cut at the engine's order."""
        if self._lookup is not None:
            return acc
        return SeriesScalar(acc.num, min(acc.prec, self.order),
                            _den=acc.den)

    @staticmethod
    def _check_slack(orders):
        """Refuse coefficients of the v-orders `orders` whose lowest uses up
        more than the margin of a series weight."""
        worst = min(orders, default=0)
        if -worst > MARGIN:
            raise TruncationError(
                "coefficient orders consume %d of the %d-order margin"
                % (-worst, MARGIN))

    def ct_pair(self, h):
        """ct(h * W) = sum_e h_e W(-e) for a finite h."""
        terms = [(self._lift(c), self._coefficient(tuple(-x for x in e)))
                 for e, c in h.terms.items()]
        if self._lookup is None:
            self._check_slack(c.min_order() for c, _ in terms
                              if not c.is_zero())
        return self._finish(self._sum([(c, w) for c, w in terms
                                       if w is not None]))

    def vector_pair(self, u, M, w, group=None):
        """sum_{i,j} ct(u_i M_ij flip(w_j) W) for vectors u, w and matrix M
        (a list of rows), from the moments m_ij(nu) = ct(e^nu M_ij W) of M.

        Each slot is cut into blocks once per engine (`_blocks`): orbits of
        `group` (a root datum, read through its `orbit`) on which its
        coefficient is constant, and single exponents.  By bilinearity the
        pairing is sum u_i[A] w_j[B] G_ij(A, B) over blocks A of u_i and B of
        w_j, with G_ij(A, B) the sum of m_ij(a - b) over a in A, b in B
        (`_gram`).  On series weights the margin guard covers, per cell, the
        lowest orders of u_i[A] and w_j[B] plus that of M_ij.

        The weight's invariance under `group` is proven once (`_prove`)
        before M's tables are made, so they can share moments by orbit.
        """
        if group is not None and id(group) not in self._proofs:
            self._prove(group)
        tables = self._moment_tables(M)
        us = [self._blocks(f, group) for f in u]
        ws = [self._blocks(f, group) for f in w]
        cells = [(tables[i][j], ui, wj) for i, ui in enumerate(us)
                 for j, wj in enumerate(ws)
                 if ui and wj and tables[i][j].order is not None]
        if self._lookup is None:
            def low(blocks):
                return min(c.min_order() for _, c in blocks)
            self._check_slack(low(ui) + low(wj) + table.order
                              for table, ui, wj in cells)
        products = []
        for table, ui, wj in cells:
            for A, ca in ui:
                for B, cb in wj:
                    g = self._gram(table, A, B)
                    if g is not None:
                        products.append((ca, cb, g))
        return self._finish(self._sum(products))

    def _prove(self, group):
        """Decide once per group whether W is constant on its Weyl orbits:
        the spec's factors (minus on -a) of a series weight, the terms of an
        exact one, are permuted by every simple reflection (`_stable`).  The
        first group that passes is kept in `_orbits`; W(nu) is then scanned
        at one exponent per orbit (`_canonical`), and the moment tables made
        afterwards test their own entries (`_moment_tables`)."""
        stable = self._shape is not None and _stable(group, self._shape, eq)
        self._proofs[id(group)] = (group, stable)
        if stable and self._orbits is None:
            self._orbits = group

    def _blocks(self, f, group):
        """The blocks of f under `group` (`_cut`), cut once per engine.

        Keyed by the ids of f and `group`; the entry holds both, so the ids
        stay theirs while kept.
        """
        got = self._cuts.get((id(f), id(group)))
        if got is None:
            got = self._cuts[id(f), id(group)] = (f, group,
                                                  self._cut(f, group))
        return got[2]

    def _cut(self, f, group):
        """f as (block, coefficient) pairs: each orbit of `group` (None: no
        orbits) on which f has one coefficient is a block, and each other
        exponent is a block of its own.  Coefficients are lifted into the
        weight's ring."""
        terms, singles = f.terms, self._singles
        out, done = [], set()
        for e, c in terms.items():
            if e in done:
                continue
            orbit = (singles.setdefault(e, frozenset((e,))) if group is None
                     else group.orbit(e))
            if all(_same(terms.get(x), c) for x in orbit):
                parts = [(orbit, c)]
            else:
                parts = [(singles.setdefault(x, frozenset((x,))), terms[x])
                         for x in orbit if x in terms]
            for block, c in parts:
                done |= block
                c = self._lift(c)
                if not c.is_zero():
                    out.append((block, c))
        return out

    def _gram(self, table, A, B):
        """G(A, B) = sum_{a in A, b in B} ct(e^{a - b} f W) for the entry f
        of `table`, cached on the table; None where it vanishes."""
        key = (A, B)
        try:
            return table.grams[key]
        except KeyError:
            pass
        moments = [m for m in (self._moment(table, tuple(
            x - y for x, y in zip(a, b))) for a in A for b in B)
            if m is not None]
        g = (moments[0] if len(moments) == 1
             else self._sum((m,) for m in moments))
        g = table.grams[key] = None if g.is_zero() else g
        return g

    def _moment_tables(self, M):
        """Per-entry moment tables of M against this weight; equal entries
        share one table.  A table whose entry is constant on the orbits of
        `_orbits` fills its moments once per orbit (`_moment`).

        Keyed by id(M); the entry holds M, so the id stays M's while kept.
        """
        got = self._moments.get(id(M))
        if got is None:
            distinct, rows = [], []
            for row in M:
                out = []
                for f in row:
                    table = next((t for t in distinct if t.f == f), None)
                    if table is None:
                        orbits = self._orbits
                        if orbits is not None and not _stable(
                                orbits, f.terms, _same):
                            orbits = None
                        table = _MomentTable(f, [(e, self._lift(c))
                                                 for e, c in f.terms.items()],
                                             orbits)
                        distinct.append(table)
                    out.append(table)
                rows.append(out)
            got = self._moments[id(M)] = (M, rows)
        return got[1]

    def _moment(self, table, nu):
        """ct(e^nu f W) = sum_e f[e] W(-(e + nu)) for the entry f of
        `table`, filled into the table once; None where it vanishes.  When
        f and W are constant on the orbits of `table.orbits`, so is the
        moment, and it is filled only at dominant exponents."""
        try:
            return table.values[nu]
        except KeyError:
            pass
        orbits = table.orbits
        if orbits is not None and not orbits.is_dominant(nu):
            m = self._moment(table, orbits.dominant_rep(nu))
        else:
            products = []
            for e, c in table.terms:
                w = self._coefficient(tuple(-(x + y) for x, y in zip(e, nu)))
                if w is not None:
                    products.append((c, w))
            m = self._sum(products)
            m = None if m.is_zero() else m
        table.values[nu] = m
        return m


class _MomentTable:
    """The moments of one entry f of M, nu -> ct(e^nu f W), as filled by
    `WeightEngine._moment`.  `terms` holds f's terms, with coefficients
    lifted into the weight's ring; `order` is the lowest v-order among them
    (None for f = 0); `orbits` is the group on whose orbits f and W are
    both constant, or None."""

    __slots__ = ("f", "terms", "orbits", "order", "values", "grams")

    def __init__(self, f, terms, orbits=None):
        self.f = f
        self.terms = terms
        self.orbits = orbits
        self.order = min((c.v_order() for c in f.terms.values()), default=None)
        self.values = {}
        self.grams = {}  # (block A, block B) -> G(A, B), from `_gram`


def _stable(group, terms, same):
    """Every simple reflection of `group` maps each exponent of `terms`
    (exponent -> value) to one whose value is the `same`.  The reflections
    are bijections, so they then permute the terms, and what the terms add
    or multiply up to is constant on the Weyl orbits."""
    return all(same(terms.get(group.reflect(i, e)), c)
               for i in range(group.rank) for e, c in terms.items())


def _same(a, b):
    """a and b are one coefficient: equal exactly, or as series to the same
    order."""
    if isinstance(b, SeriesScalar):
        return (isinstance(a, SeriesScalar) and a.prec == b.prec
                and a.den == b.den and a.num == b.num)
    return isinstance(a, ExactScalar) and a == b


# ---------------------------------------------------------------------------
# standard weight builders (restricted coordinates)
# ---------------------------------------------------------------------------


def _ratio(c, t, a, qhat_log):
    """(c e^a; qh)_inf / (c t e^a; qh)_inf with qh = q^qhat_log: the finite
    numerator factor (c e^a; qh)_k where t = qh^k, else the two infinite
    factors."""
    k = _qhat_power(t, qhat_log)
    if k is not None:
        return [PochFactor(c, a, qhat_log, k, 1)]
    return [PochFactor(c, a, qhat_log, INF, 1),
            PochFactor(c * t, a, qhat_log, INF, -1)]


def _qhat_power(t, qhat_log):
    """k >= 0 with t == q^{qhat_log * k}, else None."""
    if len(t.num) != 1 or len(t.den) != 1 or 0 not in t.den:
        return None
    (e, c), = t.num.items()
    k, r = divmod(e, 2 * qhat_log)
    return k if c == t.den[0] and not r and k >= 0 else None


def macdonald_sym_weight(restricted, qhat_log, t, lattice):
    """prod_{a>0} (e^a; qh)_inf / (t e^a; qh)_inf times its reflection."""
    plus = []
    for a in restricted._positive_roots():
        plus += _ratio(ExactScalar.one(), t, a, qhat_log)
    return WeightSpec(plus, list(plus), lattice)


def macdonald_nonsym_weight(restricted, qhat_log, t, lattice):
    """The one-sided-shifted product used for the non-W-invariant families:
    prod_{a>0} (e^a; qh)_inf / (t e^a; qh)_inf times the reflection of
    prod_{a>0} (qh e^a; qh)_inf / (qh t e^a; qh)_inf."""
    qh = ExactScalar.q_power(qhat_log)
    plus, minus = [], []
    for a in restricted._positive_roots():
        plus += _ratio(ExactScalar.one(), t, a, qhat_log)
        minus += _ratio(qh, t, a, qhat_log)
    return WeightSpec(plus, minus, lattice)
