"""Sparse exact arithmetic in group algebras k[X] and k[2L].

A GAElement is a finite map from integer exponent vectors to scalars.
Coefficients are exact rational functions (`ExactScalar`) or truncated
series (`SeriesScalar`); mixing lattices is an error, mixing the two
scalar types is the caller's responsibility.  Zero coefficients are
dropped in one place, the constructor; the operations accumulate
freely and leave that to it.

There is no matrix type: a matrix weight is a list of rows of
GAElements, read as ``M[i][j]``.
"""

from __future__ import annotations

from .scalars import ExactScalar, parse_scalar


class GAElement:
    """Finite k-linear combination of lattice exponentials e^mu."""

    __slots__ = ("terms", "lattice")

    def __init__(self, terms, lattice):
        self.terms = {tuple(e): c for e, c in terms.items() if not c.is_zero()}
        self.lattice = lattice

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, lattice):
        return cls({}, lattice)

    @classmethod
    def one(cls, lattice, rank):
        return cls({(0,) * rank: ExactScalar.one()}, lattice)

    @classmethod
    def monomial(cls, exponent, lattice, coeff=None):
        coeff = ExactScalar.one() if coeff is None else coeff
        return cls({tuple(exponent): coeff}, lattice)

    # -- ring operations ----------------------------------------------------

    def _check(self, other):
        if self.lattice != other.lattice:
            raise ValueError("lattice mismatch: %r vs %r"
                             % (self.lattice, other.lattice))

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e)
            out[e] = c if s is None else s + c
        return GAElement(out, self.lattice)

    def __neg__(self):
        return GAElement({e: -c for e, c in self.terms.items()}, self.lattice)

    def __sub__(self, other):
        return self.__add__(other.__neg__())

    def __mul__(self, other):
        if not isinstance(other, GAElement):
            return self.scale(other)
        self._check(other)
        if not self.terms or not other.terms:
            return GAElement.zero(self.lattice)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                p = c1 * c2
                s = out.get(e)
                out[e] = p if s is None else s + p
        return GAElement(out, self.lattice)

    __rmul__ = __mul__

    def scale(self, scalar):
        return GAElement({e: c * scalar for e, c in self.terms.items()},
                         self.lattice)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, GAElement):
            return NotImplemented
        if self.lattice != other.lattice:
            return False
        return (self - other).is_zero()

    # -- structure maps -----------------------------------------------------

    def map_exponents(self, fn):
        """e^mu -> e^{fn(mu)}, such as a Weyl group action on exponents."""
        out = {}
        for e, c in self.terms.items():
            e2 = tuple(fn(e))
            s = out.get(e2)
            out[e2] = c if s is None else s + c
        return GAElement(out, self.lattice)

    def map_coeffs(self, fn):
        return GAElement({e: fn(c) for e, c in self.terms.items()}, self.lattice)

    def support(self):
        return set(self.terms)

    def evaluate_at_one(self):
        """Sum of all coefficients (the exponential map e^mu -> 1)."""
        acc = ExactScalar.zero()
        for c in self.terms.values():
            acc = acc + c
        return acc

    def invol_inv(self):
        """e^mu -> e^{-mu}, coefficients untouched."""
        return self.map_exponents(lambda e: tuple(-x for x in e))

    def invol_zero(self):
        """q -> 1/q on coefficients, exponents untouched (anti-linear)."""
        return self.map_coeffs(lambda c: c.bar())

    def bar_full(self):
        """q -> 1/q together with e^mu -> e^{-mu}."""
        return self.invol_inv().map_coeffs(lambda c: c.bar())

    def shift_act(self, pairing_doubled):
        """h-shift: e^mu -> q^{<h, mu>} e^mu, via mu -> <2h, mu> (integer)."""
        return GAElement({e: c * ExactScalar.v_power(pairing_doubled(e))
                          for e, c in self.terms.items()}, self.lattice)

    # -- division -----------------------------------------------------------

    def _grlex_leading(self):
        return max(self.terms, key=lambda e: (sum(e), e))

    def exact_div(self, other):
        """Exact division in the group algebra; raises if not divisible."""
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero in group algebra")
        if self.is_zero():
            return GAElement.zero(self.lattice)
        lead = other._grlex_leading()
        lead_c = other.terms[lead]
        rest = [(e, c) for e, c in other.terms.items() if e != lead]
        rem = {e: c for e, c in self.terms.items()}
        quot = {}
        # an exact quotient has at most |f| * |g| support; anything beyond
        # signals an inexact division running away into lower terms
        max_steps = 4 * len(self.terms) * len(other.terms) + 64
        steps = 0
        while rem:
            steps += 1
            if steps > max_steps:
                raise ArithmeticError("group-algebra division is not exact")
            e = max(rem, key=lambda t: (sum(t), t))
            c = rem.pop(e)
            qe = tuple(x - y for x, y in zip(e, lead))
            qc = c / lead_c
            quot[qe] = qc
            for e2, c2 in rest:
                ee = tuple(x + y for x, y in zip(qe, e2))
                s = rem.get(ee)
                s = -(qc * c2) if s is None else s - qc * c2
                if s.is_zero():
                    rem.pop(ee, None)
                else:
                    rem[ee] = s
        return GAElement(quot, self.lattice)

    # -- rendering ----------------------------------------------------------

    def sorted_items(self):
        return sorted(self.terms.items(), key=lambda t: t[0])

    def render(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.sorted_items():
            parts.append("(%s)*e^%s" % (c.render(), list(e)))
        return " + ".join(parts)

    def to_json(self):
        return [{"exponent": list(e), "coeff": c.render()}
                for e, c in self.sorted_items()]

    def __repr__(self):
        return "GAElement[%s](%s)" % (self.lattice, self.render())


def ga_from_json(data, lattice):
    return GAElement({tuple(item["exponent"]): parse_scalar(item["coeff"])
                      for item in data}, lattice)


def scalar_ratio(pairs):
    """The scalar c with target = c * source, read at the first term of the
    first nonzero source over (source, target) pairs of GAElements.

    Returns the index of that pair instead when its target lacks the term,
    and None when every source vanishes.  The caller checks the residual.
    """
    for k, (source, target) in enumerate(pairs):
        for e, c in source.terms.items():
            t = target.terms.get(e)
            return k if t is None else t / c
    return None


# ---------------------------------------------------------------------------
# exact linear algebra over any of the scalar backends
# ---------------------------------------------------------------------------


def solve_linear(rows, rhs):
    """Solve A x = b by Gaussian elimination over a field backend.

    `rows` is a list of lists of scalars, `rhs` a list of scalars (or a
    list of lists for several right-hand sides).  Returns the solution
    list; raises ArithmeticError when the matrix is singular to working
    precision.
    """
    n = len(rows)
    multi = rhs and isinstance(rhs[0], list)
    b = [list(r) for r in rhs] if multi else [[r] for r in rhs]
    m = len(rows[0]) if rows else 0
    if n != len(b):
        raise ValueError("%d rows but %d right-hand-side rows" % (n, len(b)))
    aug = [list(rows[i]) + b[i] for i in range(n)]
    width = m + len(b[0])
    row = 0
    pivots = []
    for col in range(m):
        piv = next((r for r in range(row, n) if not aug[r][col].is_zero()), None)
        if piv is None:
            continue
        aug[row], aug[piv] = aug[piv], aug[row]
        pv = aug[row][col]
        aug[row] = [x / pv for x in aug[row]]
        for r in range(n):
            if r != row and not aug[r][col].is_zero():
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[row])]
        pivots.append(col)
        row += 1
        if row == n:
            break
    if len(pivots) < m:
        raise ArithmeticError("singular linear system")
    for r in range(row, n):
        for k in range(m, width):
            if not aug[r][k].is_zero():
                raise ArithmeticError("inconsistent linear system")
    sol = [None] * m
    for r, col in enumerate(pivots):
        sol[col] = aug[r][m:] if multi else aug[r][m]
    return sol


# the field GF(GF_P) of `leading_minors_nonzero`, and its points in turn
GF_P = (1 << 61) - 1
GF_POINTS = (3, 5, 7)


def _mod_p(x, v0):
    """The ExactScalar x at v = v0 in GF(GF_P); None where its denominator
    vanishes there."""
    den = sum(c * pow(v0, e, GF_P) for e, c in x.den.items()) % GF_P
    if den:
        num = sum(c * pow(v0, e, GF_P) for e, c in x.num.items())
        return num * pow(den, -1, GF_P) % GF_P
    return None


def leading_minors_nonzero(rows):
    """Whether every leading minor of the square matrix `rows` of
    ExactScalars is proven nonzero at a point v0 of GF_POINTS: where every
    denominator is a unit at v0, v -> v0 is a ring map into GF(GF_P), so a
    minor nonzero there is nonzero in Q(v).  The elimination makes none of
    `solve_linear`'s row swaps: its k-th pivot is the k-th leading minor
    over the one before.  A point where a pivot or a denominator vanishes
    proves nothing, and the next is tried."""
    for v0 in GF_POINTS:
        a = [[_mod_p(x, v0) for x in row] for row in rows]
        if any(None in row for row in a):
            continue
        for k, top in enumerate(a):
            if not top[k]:
                break
            inv = pow(top[k], -1, GF_P)
            for row in a[k + 1:]:
                f = row[k] * inv % GF_P
                row[k + 1:] = [(x - f * t) % GF_P
                               for x, t in zip(row[k + 1:], top[k + 1:])]
        else:
            return True
    return False
