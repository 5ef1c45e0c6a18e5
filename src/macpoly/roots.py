"""Finite-type root data, Weyl combinatorics and weight multiplicities.

Weights carry integer coordinates in the fundamental-weight basis of X,
the weight lattice of a simply connected datum, so a weight's pairing with
the i-th simple coroot is its i-th coordinate.  Coweights carry integer
coordinates in the simple-coroot basis of Y.
Half-integral objects (2*rho, the embedding lambda -> h_lambda) are kept
doubled or as exact Fractions so that every pairing used downstream stays
integral.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .galg import solve_linear
from .scalars import ExactScalar


# ---------------------------------------------------------------------------
# Cartan matrices of types A-D; rows/cols follow Bourbaki labelling
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
    lcm = math.lcm(*(e.denominator for e in eps))
    eps = [e * lcm for e in eps]
    g = math.gcd(*(e.numerator for e in eps))
    return tuple(int(e / g) for e in eps)


def _mat_inv_fractions(A):
    """Inverse of an invertible rational matrix, as rows of Fractions."""
    n = len(A)
    rows = [[ExactScalar.from_fraction(a) for a in row] for row in A]
    ident = [[ExactScalar.from_int(int(i == j)) for j in range(n)] for i in range(n)]
    return [[c.as_fraction() for c in row] for row in solve_linear(rows, ident)]


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RootDatum:
    rank: int
    A: tuple
    eps: tuple
    alpha_coords: tuple  # simple roots in X-coordinates
    two_rho: tuple  # 2*rho in integer h-coordinates
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def zero(self):
        return (0,) * self.rank

    def pair_simple(self, i, x):
        """<h_i, x>: the i-th fundamental-weight coordinate of x."""
        return x[i]

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

    def orbit(self, x):
        """The full Weyl orbit of x as a frozenset, computed once per x."""
        key = ("orbit", x)
        got = self._cache.get(key)
        if got is None:
            got = self._cache[key] = frozenset(self.weyl_orbit(x))
        return got

    def multiplicities(self, mu):
        """The (weight, multiplicity) pairs of L(mu) (`freudenthal`) as a
        tuple, computed once per mu."""
        key = ("multiplicities", mu)
        got = self._cache.get(key)
        if got is None:
            got = self._cache[key] = tuple(freudenthal(self, mu).items())
        return got

    def is_dominant(self, x, J=None):
        """Dominance for the simple coroots in J (all by default)."""
        idx = range(self.rank) if J is None else J
        return all(self.pair_simple(i, x) >= 0 for i in idx)

    def dominant_rep(self, x):
        return self._dominant_walk(x)[0]

    def _dominant_walk(self, x):
        """(dominant representative of x, number of steps): reflect in the
        first simple root x pairs negatively with until none is left.  A
        step in alpha_i drops alpha_i from the positive roots x pairs
        negatively with and permutes the rest, so the count is that number
        of roots, the length of the minimal w with w(x) dominant."""
        x = tuple(x)
        steps = 0
        while True:
            for i in range(self.rank):
                if self.pair_simple(i, x) < 0:
                    x = self.reflect(i, x)
                    steps += 1
                    break
            else:
                return x, steps

    def _alpha_inverse(self):
        """Inverse of the matrix with the alpha_coords as columns (Fractions)."""
        key = ("ainv",)
        if key not in self._cache:
            M = [[self.alpha_coords[j][i] for j in range(self.rank)]
                 for i in range(self.rank)]
            self._cache[key] = _mat_inv_fractions(M)
        return self._cache[key]

    def alpha_expansion(self, x):
        """Coordinates of x in the simple-root basis (Fractions)."""
        inv = self._alpha_inverse()
        return tuple(sum(inv[i][j] * x[j] for j in range(self.rank))
                     for i in range(self.rank))

    def _alpha_inverse_int(self):
        """(D, N) with N = D * inverse an integer matrix, D > 0 minimal."""
        key = ("ainv_int",)
        if key not in self._cache:
            inv = self._alpha_inverse()
            D = math.lcm(*(c.denominator for row in inv for c in row))
            N = tuple(tuple(int(c * D) for c in row) for row in inv)
            self._cache[key] = (D, N)
        return self._cache[key]

    def dominance_leq(self, mu, lam):
        """mu <= lam: the difference is a nonnegative integer root combination.

        Integer-only: D * (root coordinates of lam - mu) = N (lam - mu) must
        be nonnegative and divisible by D.
        """
        D, N = self._alpha_inverse_int()
        diff = [a - b for a, b in zip(lam, mu)]
        for row in N:
            s = sum(n * d for n, d in zip(row, diff))
            if s < 0 or s % D:
                return False
        return True

    def is_weight(self, lam, mu):
        """mu is a weight of the simple module of dominant highest weight lam.

        Its weights form a saturated set, so this holds iff the dominant
        representative of mu lies below lam (Humphreys, *Introduction to Lie
        Algebras*, 21.3).  The caller checks that lam is dominant.
        """
        return self.dominance_leq(self.dominant_rep(mu), lam)

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
        return tuple(int(i == j) for j in range(self.rank))

    def weyl_dim(self, lam):
        """Dimension of the simple module with highest weight lam."""
        rho = self.rho_x()
        dim = Fraction(1)
        for beta in self.positive_roots():
            num = self.bilinear(tuple(lam[i] + rho[i] for i in range(self.rank)), beta)
            den = self.bilinear(rho, beta)
            dim *= Fraction(num, den)
        if dim.denominator != 1:
            raise ArithmeticError("Weyl dimension %s of %s is not an integer"
                                  % (dim, lam))
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


def build_composite_datum(parts):
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
    return _datum_from_cartan(tuple(tuple(r) for r in A))


def build_root_datum(series, rank):
    return _datum_from_cartan(cartan_matrix(series, rank))


def _datum_from_cartan(A):
    n = len(A)
    eps = symmetrizers(A)
    # alpha_j = sum_i <h_i, alpha_j> omega_i, the j-th column of A
    alpha = tuple(tuple(A[i][j] for i in range(n)) for j in range(n))
    # 2 rho solves <2rho, alpha_j> = 2 eps_j
    AT = [[Fraction(A[i][j]) for i in range(n)] for j in range(n)]
    inv = _mat_inv_fractions(AT)
    two_rho = tuple(sum(inv[i][j] * 2 * eps[j] for j in range(n)) for i in range(n))
    if any(c.denominator != 1 for c in two_rho):
        raise ValueError("2*rho is not integral for %s" % (A,))
    datum = RootDatum(n, A, eps, alpha, tuple(int(c) for c in two_rho))
    for i in range(n):
        if datum.pair_two_rho(alpha[i]) != 2 * eps[i]:
            raise ArithmeticError("<2 rho, alpha_%d> != 2 eps_%d for %s"
                                  % (i + 1, i + 1, A))
    return datum


# ---------------------------------------------------------------------------
# weight multiplicities
# ---------------------------------------------------------------------------


# the largest module `freudenthal` tabulates
FREUDENTHAL_DIM_BOUND = 12000


def freudenthal(datum, lam):
    """Weight multiplicities {weight: multiplicity} of the simple module
    with highest weight lam."""
    if not datum.is_dominant(lam):
        raise ValueError("highest weight must be dominant")
    total = datum.weyl_dim(lam)
    if total > FREUDENTHAL_DIM_BOUND:
        raise ValueError("dimension %d exceeds bound %d"
                         % (total, FREUDENTHAL_DIM_BOUND))
    n = datum.rank
    pos = datum.positive_roots()
    rho = datum.rho_x()
    lam_rho = tuple(Fraction(lam[i]) + rho[i] for i in range(n))
    norm_lr = datum.bilinear(lam_rho, lam_rho)

    # the weights, gathered by closure under positive-root steps, then
    # processed in increasing depth so that every contributor of the
    # recursion is already known
    candidates = {tuple(lam): 0}
    frontier = [tuple(lam)]
    while frontier:
        nxt = []
        for mu in frontier:
            for beta in pos:
                nu = tuple(mu[i] - beta[i] for i in range(n))
                if nu in candidates or not datum.is_weight(lam, nu):
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
                if not datum.is_weight(lam, xi):
                    break
                m = mult.get(xi, 0)
                if m:
                    acc += 2 * m * datum.bilinear(xi, alpha)
                j += 1
        if acc:
            if denom == 0:
                raise ArithmeticError("Freudenthal denominator vanishes at %s"
                                      % (nu,))
            val = acc / denom
            if val.denominator != 1 or val <= 0:
                raise ArithmeticError("Freudenthal multiplicity %s at %s is "
                                      "not a positive integer" % (val, nu))
            mult[nu] = int(val)
    if sum(mult.values()) != total:
        raise ArithmeticError("Freudenthal total %d != Weyl dim %d"
                              % (sum(mult.values()), total))
    return mult


def central_scalar(datum, lam, mu):
    """Sum of q^{-2 lam . nu - <2rho, nu>} dim L(mu)_nu over weights nu.

    Requires every v-exponent to be integral; 2 h_mu in Y is flagged (the
    corresponding element is central only in that case) but the scalar is
    still returned when the exponents close up.
    """
    h2 = datum.h_embed_doubled(mu)
    central = all(c.denominator == 1 for c in h2)
    acc = {}  # the scalar as a Laurent polynomial {v-exponent: coefficient}
    for nu, m in datum.multiplicities(mu):
        gexp = -2 * datum.bilinear(lam, nu) - datum.pair_two_rho(nu)
        vexp = 2 * Fraction(gexp)
        if vexp.denominator != 1:
            raise ValueError("non-integral exponent for lam=%s, mu=%s" % (lam, mu))
        k = int(vexp)
        acc[k] = acc.get(k, 0) + m
    return ExactScalar(acc), central


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


def regularity_scalar(satake, K, h=None):
    """Certificate scalars (C, R) for a regular pair, plus a regularity flag.

    K is a sequence of I_circ indices, each with an empty I_bullet
    sequence.  C and R are q powers with prefactor 1.  With h=None each is
    returned symbolically as (prefactor, AffineExponent) in the
    h-coordinates; otherwise h is an integer h-coordinate vector and exact
    scalars are returned.
    """
    datum = satake.datum
    n = len(K)
    one = ExactScalar.one()

    def C_exp(Kseq):
        i1 = Kseq[0]
        # sum over later entries of <eps_{i1} h_{i1}, -Theta(alpha_{i_j})>
        total = Fraction(0)
        for k in Kseq[1:]:
            th = satake.theta(datum.alpha_coords[k])
            total += -datum.eps[i1] * datum.pair_simple(i1, th)
        a1 = datum.alpha_coords[i1]
        th_a1 = satake.theta(a1)
        # -<h, alpha_{i1} - Theta(alpha_{i1})>: coefficient of h_i is <h_i, .>
        lin = tuple(-(a1[t] - th_a1[t]) for t in range(datum.rank))
        coeffs = tuple(Fraction(datum.pair_simple(i, lin))
                       for i in range(datum.rank))
        return AffineExponent(total, coeffs)

    def _eval(aff):
        gexp = aff.const + sum(aff.coeffs[i] * h[i] for i in range(datum.rank))
        return ExactScalar.q_power(gexp)

    if n == 0:
        # the empty pair imposes no condition: every h is regular
        return {"C": one, "R": one, "regular": True, "exponent": None}

    affs = []
    Kc = list(K)
    for _ in range(n):
        affs.append(C_exp(Kc))
        Kc = Kc[1:] + Kc[:1]

    if h is None:
        R_aff = affs[0]
        for a in affs[1:]:
            R_aff = R_aff + a
        # R = 1 exactly on the hyperplane where its exponent vanishes
        return {"C": (one, affs[0]), "R": (one, R_aff),
                "regular": not R_aff.is_constant() or R_aff.const != 0,
                "exceptional": R_aff.hyperplane(), "exponent": R_aff}

    R = one
    for a in affs:
        R = R * _eval(a)
    return {"C": _eval(affs[0]), "R": R, "regular": not R.is_one(),
            "exponent": None}


# ---------------------------------------------------------------------------
# Satake data for the example cases
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SatakeDatum:
    """Ambient datum plus the involution/restriction data of one case."""

    datum: RootDatum
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
        """Structural sanity of the stored tables; raises ValueError naming
        the first condition that fails."""
        datum = self.datum
        n = datum.rank
        for j in range(n):
            e = tuple(int(i == j) for i in range(n))
            if self.theta(self.theta(e)) != e:
                raise ValueError("Theta is not an involution: Theta^2 moves %s"
                                 % (e,))
        for v in self.pi_vectors:
            if self.theta(v) != tuple(-c for c in v):
                raise ValueError("Theta is not -1 on 2L at %s" % (v,))
        # the stored words act on 2L like the abstract restricted reflections
        for k, word in enumerate(self.wsigma_words):
            for idx, v in enumerate(self.pi_vectors):
                img = datum.act_word(word, v)
                unit = tuple(int(t == idx) for t in range(len(self.pi_vectors)))
                abstract = self.restricted.reflect(k, unit)
                if img != self.from_restricted(abstract):
                    raise ValueError("restricted reflection %d mismatch at %s"
                                     % (k, v))


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
        super().__init__(a.rank, a.A, a.eps, a.alpha_coords, a.two_rho)

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
        return sum(x)

    def order_key(self, x):
        """Total refinement of the polynomial-family order.

        Dominant representatives are compared by height (then lex as a
        deterministic tie-break across incomparable weights); elements of
        one orbit are compared by minimal coset length, the antidominant
        element being largest.  One walk to the dominant chamber
        (`_dominant_walk`) gives both.
        """
        rep, length = self._dominant_walk(x)
        return (self.height2(rep), rep, length, x)

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
