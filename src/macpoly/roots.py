"""Finite-type root data, Weyl combinatorics and weight multiplicities.

Weights carry integer coordinates in the fundamental-weight basis of X
(simply connected datum) or in the simple-root basis (adjoint datum).
Coweights carry integer coordinates in the simple-coroot basis of Y.
Half-integral objects (2*rho, the embedding lambda -> h_lambda) are kept
doubled or as exact Fractions so that every pairing used downstream stays
integral.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .galg import GAElement, solve_linear
from .scalars import ExactScalar, ZERO


# ---------------------------------------------------------------------------
# Cartan matrices; rows/cols follow Bourbaki labelling
# ---------------------------------------------------------------------------


def cartan_matrix(series, rank):
    n = rank
    if n < 1:
        raise ValueError("rank out of range: %d" % n)
    A = [[2 * (i == j) for j in range(n)] for i in range(n)]

    def chain(pairs):
        for i, j in pairs:
            A[i][j] = -1
            A[j][i] = -1

    if series == "A":
        chain((i, i + 1) for i in range(n - 1))
    elif series == "B":
        if n < 2:
            raise ValueError("type B needs rank >= 2")
        chain((i, i + 1) for i in range(n - 2))
        A[n - 2][n - 1] = -1
        A[n - 1][n - 2] = -2
    elif series == "C":
        if n < 2:
            raise ValueError("type C needs rank >= 2")
        chain((i, i + 1) for i in range(n - 2))
        A[n - 2][n - 1] = -2
        A[n - 1][n - 2] = -1
    elif series == "D":
        if n < 3:
            raise ValueError("type D needs rank >= 3")
        chain((i, i + 1) for i in range(n - 2))
        chain([(n - 3, n - 1)])
    elif series == "E":
        if n not in (6, 7, 8):
            raise ValueError("type E needs rank 6, 7 or 8")
        # node 1 attaches to node 3; node 2 attaches to node 4 (Bourbaki)
        chain([(0, 2), (2, 3), (1, 3)] + [(i, i + 1) for i in range(3, n - 1)])
    elif series == "F":
        if n != 4:
            raise ValueError("type F needs rank 4")
        chain([(0, 1), (2, 3)])
        A[1][2] = -2
        A[2][1] = -1
    elif series == "G":
        if n != 2:
            raise ValueError("type G needs rank 2")
        A[0][1] = -3
        A[1][0] = -1
    else:
        raise ValueError("unknown series %r" % (series,))
    return tuple(tuple(row) for row in A)


def symmetrizers(A):
    """Minimal positive integers eps with diag(eps) @ A symmetric."""
    n = len(A)
    eps = [None] * n
    for start in range(n):
        if eps[start] is not None:
            continue
        eps[start] = Fraction(1)
        queue = [start]
        while queue:
            i = queue.pop()
            for j in range(n):
                if i != j and A[i][j] and eps[j] is None:
                    eps[j] = eps[i] * A[i][j] / A[j][i]
                    queue.append(j)
    lcm = 1
    for e in eps:
        lcm = lcm * e.denominator // _igcd(lcm, e.denominator)
    eps = [e * lcm for e in eps]
    g = 0
    for e in eps:
        g = _igcd(g, e.numerator)
    return tuple(int(e / g) for e in eps)


def _igcd(a, b):
    a, b = abs(int(a)), abs(int(b))
    while b:
        a, b = b, a % b
    return a


def _mat_inv_fractions(A):
    """Inverse of an invertible rational matrix, as rows of Fractions."""
    n = len(A)
    rows = [[ExactScalar.from_fraction(a) for a in row] for row in A]
    ident = [[ExactScalar.from_int(int(i == j)) for j in range(n)] for i in range(n)]
    return [[c.as_fraction() for c in row] for row in solve_linear(rows, ident)]


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RootDatum:
    series: str
    rank: int
    lattice: str  # "sc" (X = weight lattice) or "adjoint" (X = root lattice)
    A: tuple
    eps: tuple
    # pairing_rows[i][j] = <h_i, e_j> for the chosen X-basis (e_j)
    pairing_rows: tuple
    alpha_coords: tuple  # simple roots in X-coordinates
    two_rho: tuple  # 2*rho in integer h-coordinates
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def zero(self):
        return (0,) * self.rank

    def pair(self, h_coords, x):
        """<h, x> for h in Fraction/int h-coordinates and x in X-coordinates."""
        return sum(Fraction(h_coords[i]) * sum(self.pairing_rows[i][j] * x[j]
                                               for j in range(self.rank))
                   for i in range(self.rank))

    def pair_simple(self, i, x):
        return sum(p * c for p, c in zip(self.pairing_rows[i], x))

    def pair_two_rho(self, x):
        """<2 rho, x>, always an integer."""
        val = sum(self.two_rho[i] * self.pair_simple(i, x) for i in range(self.rank))
        return int(val)

    def reflect(self, i, x):
        c = self.pair_simple(i, x)
        return tuple(a - c * b for a, b in zip(x, self.alpha_coords[i]))

    def act_word(self, word, x):
        """Apply s_{i_1} ... s_{i_k} (word applied right to left) to x in X."""
        for i in reversed(word):
            x = self.reflect(i, x)
        return x

    def weyl_orbit(self, x, J=None):
        """Orbit of x under the subgroup generated by the reflections in J
        (all simple reflections by default)."""
        gens = range(self.rank) if J is None else J
        seen = {tuple(x)}
        frontier = [tuple(x)]
        while frontier:
            nxt = []
            for y in frontier:
                for i in gens:
                    z = self.reflect(i, y)
                    if z not in seen:
                        seen.add(z)
                        nxt.append(z)
            frontier = nxt
        return seen

    def is_dominant(self, x, J=None):
        """Dominance for the simple coroots in J (all by default)."""
        idx = range(self.rank) if J is None else J
        return all(self.pair_simple(i, x) >= 0 for i in idx)

    def dominant_rep(self, x):
        x = tuple(x)
        while True:
            for i in range(self.rank):
                if self.pair_simple(i, x) < 0:
                    x = self.reflect(i, x)
                    break
            else:
                return x

    def alpha_expansion(self, x):
        """Coordinates of x in the simple-root basis (Fractions)."""
        key = ("ainv",)
        if key not in self._cache:
            # columns of M are the alpha_coords
            M = [[self.alpha_coords[j][i] for j in range(self.rank)]
                 for i in range(self.rank)]
            self._cache[key] = _mat_inv_fractions(M)
        inv = self._cache[key]
        return tuple(sum(inv[i][j] * x[j] for j in range(self.rank))
                     for i in range(self.rank))

    def dominance_leq(self, mu, lam):
        """mu <= lam: the difference is a nonnegative integer root combination."""
        diff = tuple(lam[i] - mu[i] for i in range(self.rank))
        coords = self.alpha_expansion(diff)
        return all(c.denominator == 1 and c >= 0 for c in coords)

    def height(self, x):
        """Root-basis coordinate sum; raises if x is not in the root lattice."""
        coords = self.alpha_expansion(x)
        if any(c.denominator != 1 for c in coords):
            raise ValueError("%s is not in the root lattice" % (x,))
        return int(sum(coords))

    def positive_roots(self):
        key = ("posroots",)
        if key not in self._cache:
            roots = set()
            for i in range(self.rank):
                roots |= self.weyl_orbit(self.alpha_coords[i])
            pos = []
            for r in roots:
                coords = self.alpha_expansion(r)
                if all(c >= 0 for c in coords):
                    pos.append(r)
            self._cache[key] = tuple(sorted(pos))
        return self._cache[key]

    def bilinear(self, x, y):
        """The W-invariant form on X with alpha_i . alpha_i = 2 eps_i."""
        # x . y = <h_x, y> with h_{alpha_i} = eps_i h_i
        ax = self.alpha_expansion(x)
        return sum(ax[i] * self.eps[i] * self.pair_simple(i, y)
                   for i in range(self.rank))

    def h_embed_doubled(self, x):
        """2*h_x in h-coordinates (Fractions), <h_x, mu> = x . mu."""
        ax = self.alpha_expansion(x)
        return tuple(2 * ax[i] * self.eps[i] for i in range(self.rank))

    def reflection_word(self, beta):
        """A Weyl word acting as the reflection in the root beta."""
        # walk beta to a simple root, conjugate
        target = dict((self.alpha_coords[i], i) for i in range(self.rank))
        frontier = {tuple(beta): ()}
        seen = {tuple(beta)}
        while True:
            for y, w in list(frontier.items()):
                if y in target:
                    i = target[y]
                    return tuple(reversed(w)) + (i,) + w
            nxt = {}
            for y, w in frontier.items():
                for i in range(self.rank):
                    z = self.reflect(i, y)
                    if z not in seen:
                        seen.add(z)
                        nxt[z] = (i,) + w
            frontier = nxt

    def fundamental_weight(self, i):
        if self.lattice == "sc":
            return tuple(int(i == j) for j in range(self.rank))
        raise ValueError("fundamental weights only live in the sc lattice")

    def weyl_dim(self, lam):
        """Dimension of the simple module with highest weight lam."""
        rho = self.rho_x()
        dim = Fraction(1)
        for beta in self.positive_roots():
            num = self.bilinear(tuple(lam[i] + rho[i] for i in range(self.rank)), beta)
            den = self.bilinear(rho, beta)
            dim *= Fraction(num, den)
        assert dim.denominator == 1
        return int(dim)

    def rho_x(self):
        """Half sum of positive roots as an X tensor Q vector."""
        key = ("rhox",)
        if key not in self._cache:
            tot = [Fraction(0)] * self.rank
            for beta in self.positive_roots():
                for j in range(self.rank):
                    tot[j] += Fraction(beta[j], 2)
            self._cache[key] = tuple(tot)
        return self._cache[key]


def build_composite_datum(parts, lattice="sc"):
    """Root datum of a product type, e.g. [("A", 2), ("A", 2)]."""
    blocks = [cartan_matrix(s, r) for s, r in parts]
    n = sum(len(b) for b in blocks)
    A = [[0] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, v in enumerate(row):
                A[off + i][off + j] = v
        off += len(b)
    return _datum_from_cartan("x".join("%s%d" % p for p in parts),
                              tuple(tuple(r) for r in A), lattice)


def build_root_datum(series, rank, lattice="sc"):
    return _datum_from_cartan(series, cartan_matrix(series, rank), lattice)


def _datum_from_cartan(series, A, lattice):
    rank = len(A)
    eps = symmetrizers(A)
    n = rank
    if lattice == "sc":
        pairing = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        alpha = tuple(tuple(A[i][j] for i in range(n)) for j in range(n))
    elif lattice == "adjoint":
        pairing = A
        alpha = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    else:
        raise ValueError("lattice must be 'sc' or 'adjoint'")
    # 2 rho solves <2rho, alpha_j> = 2 eps_j
    AT = [[Fraction(A[i][j]) for i in range(n)] for j in range(n)]
    inv = _mat_inv_fractions(AT)
    two_rho = tuple(sum(inv[i][j] * 2 * eps[j] for j in range(n)) for i in range(n))
    if any(c.denominator != 1 for c in two_rho):
        raise ValueError("2*rho is not integral for %s%d" % (series, rank))
    datum = RootDatum(series, rank, lattice, A, eps, pairing, alpha,
                      tuple(int(c) for c in two_rho))
    for i in range(n):
        for j in range(n):
            assert datum.pair_simple(i, datum.alpha_coords[j]) == A[i][j]
        assert datum.pair_two_rho(datum.alpha_coords[i]) == 2 * eps[i]
    return datum


# ---------------------------------------------------------------------------
# weight multiplicities
# ---------------------------------------------------------------------------


@dataclass
class WeightMultTable:
    highest: tuple
    mult: dict  # weight -> positive int

    def dim(self):
        return sum(self.mult.values())

    def weights(self):
        return self.mult.keys()


def freudenthal(datum, lam, dim_bound=12000):
    """Multiplicity table of the simple module with highest weight lam."""
    if not datum.is_dominant(lam):
        raise ValueError("highest weight must be dominant")
    total = datum.weyl_dim(lam)
    if total > dim_bound:
        raise ValueError("dimension %d exceeds bound %d" % (total, dim_bound))
    n = datum.rank
    pos = datum.positive_roots()
    rho = datum.rho_x()
    lam_rho = tuple(Fraction(lam[i]) + rho[i] for i in range(n))
    norm_lr = datum.bilinear(lam_rho, lam_rho)

    # candidate weights: hull points below lam, gathered by closure under
    # positive-root steps, then processed in increasing depth so that every
    # contributor of the recursion is already known
    candidates = {tuple(lam): 0}
    frontier = [tuple(lam)]
    while frontier:
        nxt = []
        for mu in frontier:
            for beta in pos:
                nu = tuple(mu[i] - beta[i] for i in range(n))
                if nu in candidates or not _in_hull(datum, lam, nu):
                    continue
                candidates[nu] = datum.height(
                    tuple(lam[i] - nu[i] for i in range(n)))
                nxt.append(nu)
        frontier = nxt

    mult = {tuple(lam): 1}
    for nu in sorted(candidates, key=candidates.get):
        if nu == tuple(lam):
            continue
        nu_rho = tuple(Fraction(nu[i]) + rho[i] for i in range(n))
        denom = norm_lr - datum.bilinear(nu_rho, nu_rho)
        acc = Fraction(0)
        for alpha in pos:
            j = 1
            while True:
                xi = tuple(nu[i] + j * alpha[i] for i in range(n))
                if not _in_hull(datum, lam, xi):
                    break
                m = mult.get(xi, 0)
                if m:
                    acc += 2 * m * datum.bilinear(xi, alpha)
                j += 1
        if acc:
            assert denom != 0
            val = acc / denom
            assert val.denominator == 1 and val > 0
            mult[nu] = int(val)
    table = WeightMultTable(tuple(lam), mult)
    assert table.dim() == total, "Freudenthal total %d != Weyl dim %d" % (
        table.dim(), total)
    return table


def _in_hull(datum, lam, xi):
    return datum.dominance_leq(datum.dominant_rep(xi), lam)


def weyl_character(datum, lam):
    """Character of L(lam) by the alternating-sum formula; oracle use only."""
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


def central_scalar(datum, lam, mu, table=None):
    """Sum of q^{-2 lam . nu - <2rho, nu>} dim L(mu)_nu over weights nu.

    Requires every v-exponent to be integral; 2 h_mu in Y is flagged (the
    corresponding element is central only in that case) but the scalar is
    still returned when the exponents close up.
    """
    if table is None:
        table = freudenthal(datum, mu)
    h2 = datum.h_embed_doubled(mu)
    central = all(c.denominator == 1 for c in h2)
    acc = ZERO
    for nu, m in table.mult.items():
        gexp = -2 * datum.bilinear(lam, nu) - datum.pair_two_rho(nu)
        vexp = 2 * Fraction(gexp)
        if vexp.denominator != 1:
            raise ValueError("non-integral exponent for lam=%s, mu=%s" % (lam, mu))
        acc = acc + ExactScalar.v_power(int(vexp), m)
    return acc, central


# ---------------------------------------------------------------------------
# regularity certificates of the double-coset decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AffineExponent:
    """const + sum coeffs[i] * <h, alpha_i-coordinate>, h symbolic in Y."""

    const: Fraction
    coeffs: tuple

    def __add__(self, other):
        return AffineExponent(self.const + other.const,
                              tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def is_constant(self):
        return all(c == 0 for c in self.coeffs)

    def hyperplane(self):
        """Render 'sum c_i h_i = -const' as the exceptional locus."""
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                terms.append("%s*h%d" % (c, i + 1))
        return "%s = %s" % (" + ".join(terms) if terms else "0", -self.const)


def regularity_scalar(satake, J, K, h=None, params=None):
    """Certificate scalars (C, R) for a regular pair, plus a regularity flag.

    K is a sequence of I_circ indices, J a matching sequence of I_bullet
    index sequences.  With h=None the q-exponent is returned symbolically
    as an AffineExponent in the h-coordinates; otherwise h is an integer
    h-coordinate vector and exact scalars are returned.
    """
    datum = satake.datum
    n = len(K)
    if len(J) != n:
        raise ValueError("J and K must have equal length")
    if params is None:
        params = {}

    def C_exp(Kseq, Jseq):
        i1 = Kseq[0]
        # sum over later entries of <eps_{i1} h_{i1}, -Theta(alpha_{i_j} + wt(J_j))>
        total = Fraction(0)
        for pos in range(1, len(Kseq)):
            w = list(datum.alpha_coords[Kseq[pos]])
            for jb in Jseq[pos]:
                for t in range(datum.rank):
                    w[t] += datum.alpha_coords[jb][t]
            th = satake.theta(tuple(w))
            total += -datum.eps[i1] * datum.pair_simple(i1, th)
        a1 = datum.alpha_coords[i1]
        th_a1 = satake.theta(a1)
        # -<h, alpha_{i1} - Theta(alpha_{i1})>: coefficient of h_i is <h_i, .>
        lin = tuple(-(a1[t] - th_a1[t]) for t in range(datum.rank))
        coeffs = tuple(Fraction(datum.pair_simple(i, lin))
                       for i in range(datum.rank))
        pref = _param_ratio(satake, i1, params)
        return pref, AffineExponent(total, coeffs)

    def _eval(pref, aff):
        if h is None:
            return pref, aff
        gexp = aff.const + sum(aff.coeffs[i] * h[i] for i in range(datum.rank))
        return pref * ExactScalar.q_power(gexp), None

    if n == 0:
        # the empty pair imposes no condition: every h is regular
        one = ExactScalar.one()
        return {"C": one, "R": one, "r_nonzero": True, "r_not_one": False,
                "regular": True, "exponent": None}

    prefs = []
    affs = []
    Kc, Jc = list(K), list(J)
    for _ in range(n):
        p, a = C_exp(Kc, Jc)
        prefs.append(p)
        affs.append(a)
        Kc = Kc[1:] + Kc[:1]
        Jc = Jc[1:] + Jc[:1]

    if h is None:
        C_val = (prefs[0], affs[0])
        R_aff = affs[0]
        R_pref = prefs[0]
        for p, a in zip(prefs[1:], affs[1:]):
            R_aff = R_aff + a
            R_pref = R_pref * p
        r_nonzero = not R_pref.is_zero()
        # R = 1 on the hyperplane where the exponent cancels the prefactor
        if R_pref.is_one():
            r_not_one = not R_aff.is_constant() or R_aff.const != 0
            locus = R_aff.hyperplane()
        else:
            r_not_one = True
            locus = None if R_aff.is_constant() else R_aff.hyperplane()
        return {"C": C_val, "R": (R_pref, R_aff), "r_nonzero": r_nonzero,
                "r_not_one": r_not_one, "regular": r_nonzero and r_not_one,
                "exceptional": locus, "exponent": R_aff}

    C0, _ = _eval(prefs[0], affs[0])
    R = ExactScalar.one()
    for p, a in zip(prefs, affs):
        val, _ = _eval(p, a)
        R = R * val
    r_nonzero = not R.is_zero()
    r_not_one = not R.is_one()
    return {"C": C0, "R": R, "r_nonzero": r_nonzero, "r_not_one": r_not_one,
            "regular": r_nonzero and r_not_one, "exponent": None}


def _param_ratio(satake, i1, params):
    d = params.get("d", {}).get(satake.tau[i1])
    c = params.get("c", {}).get(satake.tau[i1])
    out = ExactScalar.one()
    if d is not None:
        out = out * d
    if c is not None:
        out = out / c
    return out


# ---------------------------------------------------------------------------
# Satake data for the example cases
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SatakeDatum:
    """Ambient datum plus the involution/restriction data of one case."""

    name: str
    datum: RootDatum
    I_bullet: frozenset
    tau: tuple  # involutive index map
    theta_rows: tuple  # Theta as a matrix on X-coordinates (row per output)
    restricted: "RestrictedSystem"
    pi_vectors: tuple  # basis of 2L, as X-coordinate vectors
    wsigma_words: tuple  # ambient Weyl words realising the restricted s_i
    bottoms: tuple  # the bottom weights, as X-coordinate vectors

    def theta(self, x):
        n = self.datum.rank
        return tuple(sum(self.theta_rows[i][j] * x[j] for j in range(n))
                     for i in range(n))

    def from_restricted(self, coords):
        n = self.datum.rank
        return tuple(sum(coords[k] * self.pi_vectors[k][i]
                         for k in range(len(self.pi_vectors)))
                     for i in range(n))

    @cached_property
    def _left_inverse(self):
        """(P^T P)^{-1} P^T, P the matrix with the pi_vectors as columns."""
        P = self.pi_vectors
        gram = [[sum(a * b for a, b in zip(u, w)) for w in P] for u in P]
        inv = _mat_inv_fractions(gram)
        return tuple(tuple(sum(inv[k][l] * P[l][i] for l in range(len(P)))
                           for i in range(self.datum.rank))
                     for k in range(len(P)))

    def to_restricted(self, x):
        """Coordinates of x in the 2L basis; None if x is not in 2L."""
        c = [sum(a * b for a, b in zip(row, x)) for row in self._left_inverse]
        if any(v.denominator != 1 for v in c):
            return None
        c = tuple(int(v) for v in c)
        return c if self.from_restricted(c) == tuple(x) else None

    def check(self):
        """Structural sanity of the stored tables."""
        datum = self.datum
        n = datum.rank
        # Theta is an involution and acts as -1 on 2L
        for j in range(n):
            e = tuple(int(i == j) for i in range(n))
            assert self.theta(self.theta(e)) == e
        for v in self.pi_vectors:
            assert self.theta(v) == tuple(-c for c in v)
        # the stored words act on 2L like the abstract restricted reflections
        for k, word in enumerate(self.wsigma_words):
            for idx, v in enumerate(self.pi_vectors):
                img = datum.act_word(word, v)
                unit = tuple(int(t == idx) for t in range(len(self.pi_vectors)))
                abstract = self.restricted.reflect(k, unit)
                assert img == self.from_restricted(abstract), (
                    "restricted reflection %d mismatch" % k)
        return True


# ---------------------------------------------------------------------------
# restricted (small-rank type A) systems in the basis of its fund. weights
# ---------------------------------------------------------------------------


class RestrictedSystem(RootDatum):
    """The type A root datum of rank 1 or 2, in fundamental-weight coordinates.

    This is the system in which the orthogonal-polynomial families live;
    its roots are the doubled restricted roots of the ambient datum.  On top
    of the datum it carries the family order and the height grid.
    """

    def __init__(self, rank):
        if rank not in (1, 2):
            raise ValueError("restricted systems implemented for rank 1 and 2")
        a = build_root_datum("A", rank)
        super().__init__(a.series, a.rank, a.lattice, a.A, a.eps,
                         a.pairing_rows, a.alpha_coords, a.two_rho)

    # bound in this class too: perfbench/tracer.py times
    # RestrictedSystem.dominance_leq by name
    dominance_leq = RootDatum.dominance_leq

    def weyl_elements(self):
        """All group elements as reduced words."""
        if self.rank == 1:
            return [(), (0,)]
        return [(), (0,), (1,), (0, 1), (1, 0), (0, 1, 0)]

    def height2(self, x):
        """Twice the root-coordinate sum of x (integer for lattice points)."""
        if self.rank == 1:
            return x[0]
        return x[0] + x[1]  # (x+y) is the height of x wrt the simple roots

    def min_coset_length(self, x):
        """Length of the minimal w with w(x) dominant."""
        x = tuple(x)
        length = 0
        while True:
            for i in range(self.rank):
                if self.pair_simple(i, x) < 0:
                    x = self.reflect(i, x)
                    length += 1
                    break
            else:
                return length

    def order_key(self, x):
        """Total refinement of the polynomial-family order.

        Dominant representatives are compared by height (then lex as a
        deterministic tie-break across incomparable weights); elements of
        one orbit are compared by minimal coset length, the antidominant
        element being largest.
        """
        rep = self.dominant_rep(x)
        return (self.height2(rep), rep, self.min_coset_length(x), x)

    def dominant_below(self, lam):
        """Dominant weights weakly below lam in the construction order.

        This is the height-bounded chain (not the dominance cone): the
        one-variable lattices carry nonreduced weights whose families walk
        down in single steps, and extra candidates are harmless for the
        orthogonalisation.
        """
        key = self.order_key(lam)
        out = [x for x in self.grid(self.height2(lam)) if self.order_key(x) <= key]
        return sorted(out, key=self.order_key)

    def grid(self, H):
        """Dominant labels with height2 <= H, in lexicographic order."""
        return [x for x in itertools.product(range(H + 1), repeat=self.rank)
                if self.height2(x) <= H]

    def _positive_roots(self):
        # this order, not the sorted one of positive_roots(), is the order
        # of the weight factors, and so part of the weight-cache key
        if self.rank == 1:
            return ((2,),)
        return ((2, -1), (-1, 2), (1, 1))
