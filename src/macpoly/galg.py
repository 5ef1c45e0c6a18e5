"""Sparse exact arithmetic in group algebras k[X] and k[2L].

A GAElement is a finite map from integer exponent vectors to scalars.
Coefficients may live in any of the scalar backends (exact rational
functions, truncated series, quadratic extension); mixing lattices is an
error, mixing backends is the caller's responsibility.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import ExactScalar


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
            s = c if s is None else s + c
            if s.is_zero():
                out.pop(e, None)
            else:
                out[e] = s
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
                s = p if s is None else s + p
                if s.is_zero():
                    out.pop(e, None)
                else:
                    out[e] = s
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

    def __hash__(self):
        raise TypeError("GAElement is unhashable")

    # -- structure maps -----------------------------------------------------

    def map_exponents(self, fn):
        out = {}
        for e, c in self.terms.items():
            e2 = tuple(fn(e))
            s = out.get(e2)
            s = c if s is None else s + c
            if not s.is_zero():
                out[e2] = s
            else:
                out.pop(e2, None)
        return GAElement(out, self.lattice)

    def map_coeffs(self, fn):
        return GAElement({e: fn(c) for e, c in self.terms.items()}, self.lattice)

    def relabel(self, lattice, fn=None):
        if fn is None:
            return GAElement(dict(self.terms), lattice)
        return GAElement({tuple(fn(e)): c for e, c in self.terms.items()}, lattice)

    def constant_term(self):
        for e, c in self.terms.items():
            if all(x == 0 for x in e):
                return c
        return ExactScalar.zero()

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

    def conjugate(self, preset):
        if preset == "flip":
            return self.invol_inv()
        if preset == "bar_flip":
            return self.bar_full()
        if preset == "zero":
            return self.invol_zero()
        if preset == "none":
            return self
        raise ValueError("unknown conjugation preset %r" % (preset,))

    def weyl_act(self, reflect_word):
        """Apply a lattice map given as a callable on exponent tuples."""
        return self.map_exponents(reflect_word)

    def shift_act(self, pairing_doubled):
        """h-shift: e^mu -> q^{<h, mu>} e^mu, via mu -> <2h, mu> (integer)."""
        out = {}
        for e, c in self.terms.items():
            d = pairing_doubled(e)
            d = Fraction(d)
            if d.denominator != 1:
                raise ValueError("non-integral shift pairing at %s" % (e,))
            out[e] = c * ExactScalar.v_power(int(d))
        return GAElement(out, self.lattice)

    def to_series(self, prec):
        return GAElement({e: c.to_series(prec) for e, c in self.terms.items()},
                         self.lattice)

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

    def render(self, symbol="e"):
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.sorted_items():
            cr = c.render() if hasattr(c, "render") else repr(c)
            parts.append("(%s)*%s^%s" % (cr, symbol, list(e)))
        return " + ".join(parts)

    def to_json(self):
        return [{"exponent": list(e), "coeff": c.render()}
                for e, c in self.sorted_items()]

    def __repr__(self):
        return "GAElement[%s](%s)" % (self.lattice, self.render())


def ga_from_json(data, lattice):
    from .scalars import parse_scalar

    return GAElement({tuple(item["exponent"]): parse_scalar(item["coeff"])
                      for item in data}, lattice)


class MatGAElement:
    """Square matrix of group-algebra elements over one lattice."""

    __slots__ = ("rows", "lattice")

    def __init__(self, rows):
        self.rows = [list(r) for r in rows]
        n = len(self.rows)
        assert all(len(r) == n for r in self.rows)
        self.lattice = self.rows[0][0].lattice if n else None

    @classmethod
    def identity(cls, n, lattice, rank):
        one = GAElement.one(lattice, rank)
        zero = GAElement.zero(lattice)
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)])

    @property
    def size(self):
        return len(self.rows)

    def __getitem__(self, ij):
        return self.rows[ij[0]][ij[1]]

    def __add__(self, other):
        return MatGAElement([[a + b for a, b in zip(ra, rb)]
                             for ra, rb in zip(self.rows, other.rows)])

    def __sub__(self, other):
        return MatGAElement([[a - b for a, b in zip(ra, rb)]
                             for ra, rb in zip(self.rows, other.rows)])

    def __mul__(self, other):
        n = self.size
        if isinstance(other, MatGAElement):
            out = []
            for i in range(n):
                row = []
                for j in range(n):
                    acc = GAElement.zero(self.lattice)
                    for k in range(n):
                        acc = acc + self.rows[i][k] * other.rows[k][j]
                    row.append(acc)
                out.append(row)
            return MatGAElement(out)
        return MatGAElement([[entry * other for entry in row] for row in self.rows])

    def map_entries(self, fn):
        return MatGAElement([[fn(entry) for entry in row] for row in self.rows])

    def column(self, j):
        return [self.rows[i][j] for i in range(self.size)]

    def is_zero(self):
        return all(entry.is_zero() for row in self.rows for entry in row)

    def __eq__(self, other):
        if not isinstance(other, MatGAElement):
            return NotImplemented
        return (self - other).is_zero()

    def __hash__(self):
        raise TypeError("MatGAElement is unhashable")

    def __repr__(self):
        return "MatGAElement(%s)" % self.rows


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
    assert n == len(b)
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
