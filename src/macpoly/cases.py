"""The worked example cases and their verification machinery.

Each case bundles an ambient root datum with an involution, a restricted
lattice carrying the polynomial families, golden bottom-restriction data,
the matrix weight, and the maps needed to identify matrix columns with
the partially symmetric families.

Case identifiers: "BII:n=<int>,s=<int>", "CII:n=<int>,s=<int>",
"DII:n=<int>", "AI2", "A2G", "AII5".
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction

from .families import (
    AWFunctional,
    AWParams,
    GramSchmidt,
    PolyFamilySpec,
    monomial,
    orthogonalize_step,
)
from .galg import GAElement, scalar_ratio
from .roots import (
    FREUDENTHAL_DIM_BOUND,
    RestrictedSystem,
    SatakeDatum,
    _datum_from_cartan,
    build_composite_datum,
    build_root_datum,
    freudenthal,
)
from .scalars import (
    ExactScalar,
    SeriesScalar,
    q_number,
    q_pochhammer,
    rational_reconstruct,
)
from .weights import (
    WeightEngine,
    macdonald_nonsym_weight,
    macdonald_sym_weight,
)

ONE = ExactScalar.one()
Q = ExactScalar.q_power
V = ExactScalar.v_power


# the parameters each case takes
_CASE_KEYS = {"BII": ("n", "s"), "CII": ("n", "s"), "DII": ("n",),
              "AI2": (), "A2G": (), "AII5": ()}


def parse_case_id(text):
    """(head, {key: int}); ValueError for an unknown case, a key the case
    does not take, given twice or missing, or a value not an integer >= 0."""
    head, _, rest = text.partition(":")
    head = head.strip()
    if head not in _CASE_KEYS:
        raise ValueError("unknown case id %r" % (text,))
    params, keys = {}, _CASE_KEYS[head]
    for item in rest.split(",") if rest else ():
        k, _, v = item.partition("=")
        k = k.strip()
        if k not in keys or k in params:
            raise ValueError("case %s: unknown or repeated parameter %r (it "
                             "takes %s)"
                             % (head, item, ", ".join(keys) or "none"))
        v = v.strip()
        if not (v.isascii() and v.isdigit()):
            raise ValueError("case %s: %s must be an integer >= 0, got %r"
                             % (head, k, v))
        params[k] = int(v)
    missing = [k for k in keys if k not in params]
    if missing:
        raise ValueError("case %s: missing parameter %s"
                         % (head, ", ".join(missing)))
    return head, params


def build_case(case_id, order=60):
    """The case `case_id`, planned for one v-order `order`; ValueError for
    a bad id or order.  A second order is a second case."""
    if order <= 0:
        raise ValueError("order must be > 0, got %d" % order)
    head, params = parse_case_id(case_id)
    if head in ("AI2", "A2G", "AII5"):
        return _build_a2_family(head, order)
    if head == "DII":
        return _build_dii(params["n"], order)
    return _build_small_b(head, params["n"], params["s"], order)


def list_cases():
    return [head + (":" + ",".join(k + "=<int>" for k in keys) if keys else "")
            for head, keys in _CASE_KEYS.items()]


# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ExampleCase:
    """One case, planned once: its engines, family spec and vector family
    are built for one v-order, so every memo is keyed by labels only.
    The vector family is one `GramSchmidt` driver over the labels
    (b, lam), whose members are lists with one slot per bottom.  Re-plan
    with `build_case` or `dataclasses.replace`."""

    tag: str
    satake: SatakeDatum
    qhat_log: int
    t: ExactScalar  # deformation scalar of the restricted weight
    bottom_weights: list  # per bottom: list of (mu in X-coords, GAElement in X)
    golden_matrix_fn: object
    # identification data
    gamma_basis: list = None  # restricted elements e_y, listed bottom-by-bottom
    gamma_bottoms: list = None  # bottom index receiving each basis element
    t_map: object = None  # restricted J-dominant mu -> (bottom index, lam)
    J: tuple = ()  # parabolic subset of the restricted simple reflections
    aw: AWParams = None  # one-variable data (small-B cases)
    aw_zonal: AWParams = None
    order: int = 60  # working v-order of the series engines
    # AWParams -> its one-variable moment functional
    _functionals: dict = field(init=False, default_factory=dict)
    # H -> gamma-basis lead table of height H
    _gamma_tables: dict = field(init=False, default_factory=dict)
    # label (b, lam) -> (its ambient weight, its pair key)
    _labels: dict = field(init=False, default_factory=dict)

    # -- basic objects ------------------------------------------------------

    @property
    def datum(self):
        return self.satake.datum

    @property
    def bottoms(self):
        return self.satake.bottoms

    @property
    def restricted(self):
        return self.satake.restricted

    @cached_property
    def lattice(self):
        return "2L:" + self.tag

    @cached_property
    def extra(self):
        return parse_case_id(self.tag)[1]

    @property
    def rank(self):
        return self.restricted.rank

    def one(self):
        return GAElement.one(self.lattice, self.rank)

    def m_of(self, lam):
        return monomial(self.restricted, lam, self.lattice)

    # -- bottom restrictions and the matrix weight ---------------------------

    def bottom_normalisation_check(self):
        """Every golden restriction is 1 under e^mu -> 1."""
        for b, entries in enumerate(self.bottom_weights):
            for mu, f in entries:
                val = f.evaluate_at_one()
                if not val.is_one():
                    return {"status": "fail",
                            "detail": "bottom %d, weight %s: restriction is "
                                      "%s at 1, not 1" % (b, mu, val.render())}
        return {"status": "pass"}

    @cached_property
    def matrix_weight(self):
        """Trace-paired matrix weight in restricted coordinates, as a list
        of rows."""
        datum = self.datum
        nb = len(self.bottoms)
        weights = [[mu for mu, _ in bw] for bw in self.bottom_weights]
        for b, w in enumerate(weights):
            if w != weights[0]:
                raise ValueError("bottom %d lists the weights %s, bottom 0 "
                                 "lists %s" % (b, w, weights[0]))
        rows = []
        for i in range(nb):
            row = []
            for j in range(nb):
                acc = GAElement.zero(self.lattice)
                pairs = zip(self.bottom_weights[i], self.bottom_weights[j])
                for (_, f_i), (_, f_j) in pairs:
                    a = f_i.shift_act(lambda e: -datum.pair_two_rho(e))
                    b = f_j.shift_act(lambda e: -datum.pair_two_rho(e))
                    prod = a * b.invol_inv()
                    acc = acc + self._to_restricted(prod)
                row.append(acc)
            rows.append(row)
        return rows

    def _to_restricted(self, f):
        out = {}
        for e, c in f.terms.items():
            r = self.satake.to_restricted(e)
            if r is None:
                raise ValueError("matrix weight exponent %s outside 2L" % (e,))
            s = out.get(r)
            out[r] = c if s is None else s + c
        return GAElement(out, self.lattice)

    def matrix_weight_check(self):
        """Computed vs printed matrix weight, up to one global scalar."""
        M = self.matrix_weight
        G = self.golden_matrix_fn(self)
        cells = [(i, j) for i in range(len(M)) for j in range(len(M))]
        pairs = [(M[i][j], G[i][j]) for i, j in cells]
        kappa = scalar_ratio(pairs)
        if isinstance(kappa, int):
            return {"status": "fail",
                    "detail": "support mismatch at %s" % (cells[kappa],)}
        if kappa is None:
            return {"status": "fail", "detail": "no usable entry"}
        ok = all((m.scale(kappa) - g).is_zero() for m, g in pairs)
        return {"status": "pass" if ok else "fail", "scalar": kappa.render()}

    def weight_symmetry_check(self):
        """Reflection-transpose symmetry, q -> 1/q invariance, W-invariance."""
        M = self.matrix_weight
        n = len(M)
        failures = []
        for i in range(n):
            for j in range(n):
                if not (M[i][j].invol_inv() - M[j][i]).is_zero():
                    failures.append(("transpose", i, j))
                if not (M[i][j].invol_zero() - M[i][j]).is_zero():
                    failures.append(("qinv", i, j))
        for i in range(n):
            for w in range(self.rank):
                img = M[i][i].map_exponents(
                    lambda e: self.restricted.reflect(w, e))
                if not (img - M[i][i]).is_zero():
                    failures.append(("weyl", i, w))
        return {"status": "pass" if not failures else "fail",
                "failures": failures}

    # -- pairings and polynomial families -------------------------------------

    @cached_property
    def nabla_engine(self):
        """The zonal weight's engine; on BII/CII the one-variable moment
        functional, exact at every order."""
        if self.aw is not None:
            return WeightEngine.from_moments(
                self.aw_functional(self.aw_zonal).weight)
        spec = macdonald_sym_weight(self.restricted, self.qhat_log, self.t,
                                    self.lattice)
        return WeightEngine(spec, order=self.order)

    @cached_property
    def delta_engine(self):
        """The non-symmetric weight's engine; on BII/CII, which have none,
        reading it raises ValueError."""
        if self.aw is not None:
            raise ValueError(
                "case %s has no series weight: it pairs through the "
                "one-variable moment functional" % self.tag)
        spec = macdonald_nonsym_weight(self.restricted, self.qhat_log, self.t,
                                       self.lattice)
        return WeightEngine(spec, order=self.order)

    def aw_functional(self, params):
        """The one-variable moment functional for `params`, one per case and
        parameter set, shared by every check."""
        if params not in self._functionals:
            self._functionals[params] = AWFunctional(params, self.lattice)
        return self._functionals[params]

    @cached_property
    def family_spec(self):
        if self.aw is not None:
            sym = WeightEngine.from_moments(self.aw_functional(self.aw).weight)
            nonsym = None
        else:
            sym, nonsym = self.nabla_engine, self.delta_engine
        return PolyFamilySpec(restricted=self.restricted, lattice=self.lattice,
                              engine_sym=sym, engine_nonsym=nonsym,
                              label=self.tag)

    # -- vector-valued family --------------------------------------------------

    def _vector_pair(self, u, w):
        """<u, w> = sum ct(u_i M_ij flip(w_j) nabla), from the moment tables
        of M on the nabla engine (exact, series or one-variable)."""
        return self.nabla_engine.vector_pair(
            u, self.matrix_weight, w, self.restricted)

    @cached_property
    def _family(self):
        """The vector family over the labels (b, lam).  It reaches the case
        through a weak proxy, since the case holds it: a reference cycle
        would keep the case and its engines alive until the cyclic gc."""
        case = weakref.proxy(self)
        return GramSchmidt(lambda x: case._vector_lead(x),
                           lambda x: case._vector_downset(*x),
                           lambda u, w: case._vector_pair(u, w),
                           "%s vector" % self.tag)

    def _vector_lead(self, x):
        """m_lam in slot b and zero elsewhere, at the label x = (b, lam)."""
        b_idx, lam = x
        lead = [GAElement.zero(self.lattice)] * len(self.bottoms)
        lead[b_idx] = self.m_of(lam)
        return lead

    def _ambient(self, b_idx, lam):
        """The ambient weight of the label (b, lam): lam plus bottom b."""
        x = self.satake.from_restricted(lam)
        return tuple(a + b for a, b in zip(x, self.bottoms[b_idx]))

    def _label(self, b_idx, lam):
        """(ambient weight, pair key) of the label (b, lam), computed once
        per case."""
        got = self._labels.get((b_idx, lam))
        if got is None:
            x = self._ambient(b_idx, lam)
            got = self._labels[b_idx, lam] = (
                x, (self.datum.pair_two_rho(x), lam, b_idx))
        return got

    def _vector_downset(self, b_idx, lam):
        """Pairs (b', mu) strictly below (b, lam) in the ambient dominance."""
        top, key = self._label(b_idx, lam)
        out = []
        for mu in self.restricted.grid(self.restricted.height2(lam) + 2):
            for bp in range(len(self.bottoms)):
                x, k = self._label(bp, mu)
                if k < key and self.datum.dominance_leq(x, top):
                    out.append((k, bp, mu))
        out.sort()
        return [(bp, mu) for _, bp, mu in out]

    def vector_member(self, b_idx, lam):
        """The orthogonal vector polynomial with leading m_lam in slot b,
        as its list of slots."""
        return self._family.member((b_idx, tuple(lam)))

    def matrix_q(self, lam):
        """Matrix polynomial whose b-th column is the (b, lam) vector member."""
        nb = len(self.bottoms)
        cols = [self.vector_member(b, lam) for b in range(nb)]
        return [[cols[b][i] for b in range(nb)] for i in range(nb)]

    def gram_block(self, lam, mu):
        """Matrix of pairings <column i of Q_lam, column j of Q_mu>."""
        lam, mu = tuple(lam), tuple(mu)
        nb = len(self.bottoms)
        return [[self._family.pairing((i, lam), (j, mu)) for j in range(nb)]
                for i in range(nb)]

    def qinv_check(self, lam):
        """Every entry of Q_lam fixed under q -> 1/q, exactly.

        Series-backend coefficients are first reconstructed as exact
        rational functions (and the reconstruction is verified against the
        series to its full working order).  A coefficient that does not
        reconstruct is a shortfall of the working order, not a broken
        identity: "shortfall" lists those `entries` with the `order`, and
        "fail" lists the recovered entries that break q -> 1/q in
        `failures`, next to any shortfall.
        """
        Qm = self.matrix_q(lam)
        bad = []
        unrecovered = []
        for i, row in enumerate(Qm):
            for j, entry in enumerate(row):
                coeffs = {}
                for e, c in entry.terms.items():
                    if isinstance(c, SeriesScalar):
                        c = rational_reconstruct(c)
                        if c is None:
                            unrecovered.append((i, j, e))
                            continue
                    coeffs[e] = c
                exact = GAElement(coeffs, entry.lattice)
                if not (exact.invol_zero() - exact).is_zero():
                    bad.append((i, j))
        out = {"status": "fail" if bad else "shortfall" if unrecovered
               else "pass", "failures": bad}
        if unrecovered:
            out.update(entries=unrecovered, order=self.order)
        return out

    # -- identification ---------------------------------------------------------

    def expand_in_gamma_basis(self, f):
        """Coefficients of a W_J-invariant f over the basis g_y: the
        W-invariant c_y with f = sum_y c_y g_y.

        The products m_d g_y have pairwise distinct leads (R^{W_J} is free
        over R^W on the gamma basis), so f is peeled from its top
        J-dominant exponent down; see `_gamma_peel`.
        """
        H = max((self.restricted.order_key(e)[0] for e in f.support()),
                default=0) + 2
        out = [GAElement.zero(self.lattice) for _ in self.gamma_basis]
        for (yi, d), c in self._gamma_peel(f, H).items():
            out[yi] = out[yi] + self.m_of(d).scale(c)
        return out

    def _top_j_dominant(self, exponents):
        """The order_key-maximal J-dominant exponent, or None."""
        R = self.restricted
        return max((e for e in exponents if R.is_dominant(e, self.J)),
                   key=R.order_key, default=None)

    def _gamma_table(self, H):
        """lead -> (y, d, column, lead coefficient) over the columns
        m_d g_y, d in grid(H); the lead is the column's top J-dominant
        exponent.  Raises ArithmeticError on a lead clash."""
        if H not in self._gamma_tables:
            table = {}
            for yi, g in enumerate(self.gamma_basis):
                for d in self.restricted.grid(H):
                    col = self.m_of(d) * g
                    lead = self._top_j_dominant(col.terms)
                    if lead in table:
                        raise ArithmeticError(
                            "gamma-basis columns %s and %s share the lead %s"
                            % (table[lead][:2], (yi, d), lead))
                    table[lead] = (yi, d, col, col.terms[lead])
            self._gamma_tables[H] = table
        return self._gamma_tables[H]

    def _gamma_peel(self, f, H):
        """{(y, d): c} with f = sum c m_d g_y over d in grid(H), by
        subtracting, for the top J-dominant exponent of the remainder, the
        column with that lead.

        Each step removes the top J-dominant exponent and adds only lower
        ones, so it terminates.  Raises ArithmeticError naming the exponent
        when a top exponent has no column in the table of height H, or
        when a nonzero remainder has no J-dominant exponent (f is not
        W_J-invariant).
        """
        table = self._gamma_table(H)
        rem = dict(f.terms)
        coeffs = {}
        while rem:
            top = self._top_j_dominant(rem)
            if top is None:
                raise ArithmeticError(
                    "remainder has no J-dominant exponent, e.g. %s: the "
                    "input is not W_J-invariant" % (min(rem),))
            if top not in table:
                raise ArithmeticError(
                    "exponent %s has no gamma-basis column of height <= %d"
                    % (top, H))
            yi, d, col, lead_c = table[top]
            c = rem.pop(top) / lead_c
            coeffs[(yi, d)] = c
            for e, ce in col.terms.items():
                if e == top:
                    continue
                s = rem.get(e)
                s = -(c * ce) if s is None else s - c * ce
                if s.is_zero():
                    rem.pop(e, None)
                else:
                    rem[e] = s
        return coeffs

    def identify(self, mu):
        """Match the J-invariant family member P^J_mu with the column at
        t_map(mu).  An exact J-pairing decides from the column's gamma-image
        sum_y col[gamma_bottoms[y]] g_y alone (`match_member`); a series one
        builds P^J_mu and peels it over the gamma basis."""
        spec, (b_idx, lam) = self.family_spec, self.t_map(mu)
        col = self.vector_member(b_idx, lam)
        out = {"mu": mu, "column": (b_idx, lam)}
        if spec.exact(self.J):
            return dict(out, **spec.match_member(self.J, mu, zip(
                (col[b] for b in self.gamma_bottoms), self.gamma_basis)))
        coeffs = self.expand_in_gamma_basis(spec.family_member(self.J, mu))
        target = [GAElement.zero(self.lattice)] * len(self.bottoms)
        for c, b in zip(coeffs, self.gamma_bottoms):
            target[b] = target[b] + c
        # proportionality: target = C_mu * col
        pairs = list(zip(col, target))
        C = scalar_ratio(pairs)
        if isinstance(C, int):
            return dict(out, status="fail", detail="support mismatch")
        if C is None:
            return dict(out, status="fail", detail="no usable entry")
        residual_zero = all((c.scale(C) - t).is_zero() for c, t in pairs)
        return dict(out, status="pass" if residual_zero else "fail",
                    constant=C.render())

    # -- recurrence ------------------------------------------------------------

    def recurrence_coeffs(self, i, lam):
        """Expansion of P_{pi_i} * Q_lam over the matrix family."""
        spec = self.family_spec
        pi = tuple(int(k == i) for k in range(self.rank))
        hw = self.satake.from_restricted(pi)
        if not self.datum.is_dominant(hw):
            raise ValueError("multiplier highest weight %s is not dominant"
                             % (hw,))
        P = spec.family_member(tuple(range(self.rank)), pi)
        top = tuple(a + c for a, c in zip(lam, pi))
        family = self._family
        out = {}
        residual_cols = []
        for b in range(len(self.bottoms)):
            target = [P * s for s in self.vector_member(b, lam)]
            # everything at or below lam + pi in the ambient order
            ups = self._vector_downset(b, top) + [(b, top)]
            cvec, rem = orthogonalize_step(
                target, [family.member(x) for x in ups], self._vector_pair,
                lambda j, k: family.pairing(ups[j], ups[k]),
                lambda k: family.inverse(ups[k]),
                "%s recurrence (%s, %s)" % (self.tag, b, lam))
            residual_cols.append(all(s.is_zero() for s in rem))
            out[b] = {t: c for t, c in zip(ups, cvec) if not c.is_zero()}
        # every step must be a weight of the multiplier module, and the top
        # coefficient must be nonzero
        steps_ok = True
        top_ok = True
        for b, coeffs in out.items():
            cval = coeffs.get((b, top))
            if cval is None or cval.is_zero():
                top_ok = False
            base = self._label(b, tuple(lam))[0]
            for (bp, mu) in coeffs:
                step = tuple(a - c for a, c in zip(self._label(bp, mu)[0],
                                                   base))
                if not self.datum.is_weight(hw, step):
                    steps_ok = False
        return {"coeffs": out, "residual_zero": all(residual_cols),
                "steps_in_weights": steps_ok, "top_nonzero": top_ok}

    # -- the rational weight ratio and its defining identity ---------------------

    def delta0(self):
        """(numerator, denominator) of prod (1 - e^{-a}) / (1 - t e^{-a})."""
        if self.t is None:
            raise ValueError("no single-parameter ratio for %s" % self.tag)
        num = self.one()
        den = self.one()
        for a in self.restricted._positive_roots():
            nega = tuple(-x for x in a)
            num = num * (self.one() - _exp(nega, self.lattice))
            den = den * (self.one() - _exp(nega, self.lattice, self.t))
        return num, den

    def delta0_rows(self):
        """m_{y,y'} = (1/#W) sum_w w(g_y conj(g_{y'}) / ratio), as rows.

        By the Weyl denominator formula each entry is one alternant
        quotient A(e^rho g_y conj(g_{y'}) den) / (#W A(e^rho)), with
        A(f) = sum_w sgn(w) w(f) and den the ratio's denominator
        (conjugation inverts both q and the exponents).
        """
        _, den = self.delta0()
        R = self.restricted
        rho2 = [sum(c) for c in zip(*R._positive_roots())]
        if any(c % 2 for c in rho2):
            raise ValueError("rho is not a lattice point for %s" % self.tag)
        rho = tuple(c // 2 for c in rho2)
        words = R.weyl_elements()  # reduced words: sgn(w) = (-1)^len(w)

        def alternant(f):
            # A(e^rho f)
            acc = GAElement.zero(self.lattice)
            for w in words:
                term = f.map_exponents(lambda e: R.act_word(
                    w, tuple(x + r for x, r in zip(e, rho))))
                acc = acc - term if len(w) % 2 else acc + term
            return acc

        delta = alternant(self.one())
        scale = ExactScalar.from_int(len(words)).inv()
        g = self.gamma_basis
        return [[alternant(gi * gj.bar_full() * den).exact_div(delta).scale(scale)
                 for gj in g] for gi in g]

    def delta0_identity_check(self):
        """Symmetrised basis products against the matrix weight.

        Calibrates one diagonal map d so that m_{y,y'} d_{y'} =
        M_{G(y),G(y')} for all entries of `delta0_rows`.  The calibrated
        diagonal is reported rather than asserted.
        """
        m_rows = self.delta0_rows()
        M = self.matrix_weight
        nb = len(self.gamma_basis)
        gb = self.gamma_bottoms
        columns = [[(m_rows[yi][yj], M[gb[yi]][gb[yj]]) for yi in range(nb)]
                   for yj in range(nb)]
        diag = []
        for yj, pairs in enumerate(columns):
            d = scalar_ratio(pairs)
            if isinstance(d, int):
                return {"status": "fail",
                        "detail": "support (%d,%d)" % (d, yj)}
            if d is None:
                return {"status": "fail", "detail": "column %d vanishes" % yj}
            diag.append(d)
        ok = all((m.scale(d) - t).is_zero()
                 for pairs, d in zip(columns, diag) for m, t in pairs)
        return {"status": "pass" if ok else "fail",
                "calibrated_diagonal": [d.render() for d in diag]}


# ---------------------------------------------------------------------------
# one-variable eigenvector data for the integrable small-B cases
# ---------------------------------------------------------------------------


def qkrawtchouk(i, y, p, N):
    """Terminating basic hypergeometric sum in base q^{-2}, evaluated at y."""
    acc = ExactScalar.zero()
    for k in range(min(i, N) + 1):
        num = (q_pochhammer(Q(2 * i), -2, k) *
               q_pochhammer(y, -2, k) *
               q_pochhammer(-(p * Q(-2 * i)), -2, k))
        den = (q_pochhammer(Q(2 * N), -2, k) *
               q_pochhammer(Q(-2), -2, k))
        acc = acc + num / den * Q(-2 * k)
    return acc


def kravchuk_data(case):
    """Tridiagonal coefficients and closed-form constants for one case.

    The off-diagonal constant is a = x / w with w^2 = disc on BII and a = x
    on CII.  Only x and a2 = a^2 are kept; both lie in Q(v).
    """
    kind, params = parse_case_id(case.tag)
    n, s = params["n"], params["s"]
    two = q_number(2, 1)
    dq = Q(1) - Q(-1)  # q - 1/q
    if kind == "BII":
        sign = 1 if n % 2 == 0 else -1
        disc = two * ExactScalar.from_int(sign)  # w^2 = (-1)^n [2]_q
        x = dq * V(2 * s + 2 * n - 3)
        a2 = x * x / disc
        Cc = ExactScalar.from_int(-1)
        bshift = ExactScalar.zero()

        def b_r(r):
            return ExactScalar.zero()

        def c_r(r):
            val = (ExactScalar.from_int(sign) * Q(3 - 2 * n) * two *
                   (ONE - Q(2 * r)) * (ONE - Q(2 * (r - s - 1))))
            return -(val / (dq * dq))
    else:
        x = -dq * Q(s + 1)
        a2 = x * x
        Cc = -Q(4 - 2 * n)
        bshift = ONE - Q(2 * s + 4 - 2 * n)

        def b_r(r):
            return -(Q(r - 1 - s) * q_number(r, 1) +
                     Q(r + 3 - 2 * n) * q_number(s - r, 1))

        def c_r(r):
            val = (Q(2 - 2 * n) *
                   (ONE - Q(2 * r)) * (ONE - Q(2 * (r - s - 1))))
            return -(val / (dq * dq))

    return {"s": s, "x": x, "a2": a2, "C": Cc, "bshift": bshift,
            "b_r": b_r, "c_r": c_r}


def kravchuk_eigen(case, i):
    """Closed-form eigenvector and eigenvalue of the tridiagonal action.

    The eigenvector's entries are a_j = a^(-j) base_j with base_j in Q(v),
    and its eigenvalue is lambda = mu / a.  Times a^(r+1), the three-term
    relation at r reads
        mu base_r = base_{r+1} + b_r x base_r + c_r a2 base_{r-1}
    over Q(v); it takes b_r a = b_r x, which holds because b_r = 0 on BII,
    the one case with a != x.  Returns the vector (base_{s-r})_r, the
    eigenvalue as mu / x (lambda on CII, lambda / w on BII), and whether
    every residual is identically zero.
    """
    data = kravchuk_data(case)
    s = data["s"]
    if not (0 <= i <= s):
        raise ValueError("eigenvector index out of range")
    x, a2, Cc = data["x"], data["a2"], data["C"]
    p = -(Cc * Q(2 * s))
    # evaluation points q^{2j}, i.e. argument j in the inverted base
    base = [q_pochhammer(Q(2 * s), -2, j) * qkrawtchouk(i, Q(2 * j), p, s)
            for j in range(s + 1)]
    mu = Q(2 * i) + Cc * Q(2 * s - 2 * i) - data["bshift"]
    zero = ExactScalar.zero()
    residuals = []
    for r in range(s + 1):
        up = base[r + 1] if r + 1 <= s else zero
        dn = base[r - 1] if r - 1 >= 0 else zero
        res = mu * base[r] - (up + data["b_r"](s - r) * x * base[r] +
                              data["c_r"](s + 1 - r) * a2 * dn)
        residuals.append(res)
    vector = [base[s - r] for r in range(s + 1)]
    return {"vector": vector, "eigenvalue": mu / x,
            "residual_zero": all(r.is_zero() for r in residuals),
            "nonzero": any(not b.is_zero() for b in vector)}


def kravchuk_orthogonality_denominator(case, i):
    """The normalising sum of the discrete orthogonality relation."""
    data = kravchuk_data(case)
    s = data["s"]
    Cc = data["C"]
    p = -(Cc * Q(2 * s))
    acc = ExactScalar.zero()
    base = Cc * Q(2 * s)
    for r in range(s + 1):
        ratio = (q_pochhammer(Q(2 * s), -2, s - r) /
                 q_pochhammer(Q(-2), -2, s - r))
        kv = qkrawtchouk(i, Q(2 * s - 2 * r), p, s)
        acc = acc + (base ** (r - s)) * ratio * kv * kv
    return acc


def kravchuk_consistency(case):
    """Cross-check of the tridiagonal data against the closed constants."""
    data = kravchuk_data(case)
    s = data["s"]
    a2, Cc = data["a2"], data["C"]
    ok = True
    for r in range(s + 2):
        lhs = data["c_r"](s + 1 - r)
        rhs = (Cc * Q(2 * s) / a2) * (
            (ONE - Q(-2 * r)) * (ONE - Q(-2 * r + 2 * s + 2)))
        if not (lhs - rhs).is_zero():
            ok = False
    return ok


# ---------------------------------------------------------------------------
# case builders
# ---------------------------------------------------------------------------


def _ga(terms, lattice):
    return GAElement({tuple(e): c for e, c in terms}, lattice)


_exp = GAElement.monomial


def _balanced(u, w, lattice, tau_log):
    """(q^t e^u + q^{-t} e^w) / (q^t + q^{-t}) with t = tau_log."""
    den = Q(tau_log) + Q(-tau_log)
    return _ga([(u, Q(tau_log) / den), (w, Q(-tau_log) / den)], lattice)


def _neg_rows(n):
    return tuple(tuple(-(i == j) for j in range(n)) for i in range(n))


def _matrix_of_word(datum, word):
    n = datum.rank
    cols = [datum.act_word(word, tuple(int(i == j) for i in range(n)))
            for j in range(n)]
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))


def _longest_word(datum, subset):
    """Reduced word of the longest element of the parabolic on `subset`."""
    y = tuple(1 if j in subset else 0 for j in range(datum.rank))
    word = []
    while True:
        i = next((i for i in subset if datum.pair_simple(i, y) > 0), None)
        if i is None:
            return tuple(word)
        y = datum.reflect(i, y)
        word.append(i)


def _bullet_module_weights(datum, subset, hw):
    """Ambient weights (with multiplicity) of the black-node module at hw.

    The module is simple over the parabolic subsystem on `subset`; its
    weight table comes from the multiplicity recursion on the subsystem,
    transported back along the simple roots.
    """
    subset = list(subset)
    subA = tuple(tuple(datum.A[i][j] for j in subset) for i in subset)
    sub = _datum_from_cartan(subA)
    sub_hw = tuple(int(datum.pair_simple(i, hw)) for i in subset)
    out = []
    for nu, mult in freudenthal(sub, sub_hw).items():
        # nu = sub_hw - sum c_i alpha_i in subsystem coordinates
        diff = tuple(sub_hw[t] - nu[t] for t in range(len(subset)))
        coords = sub.alpha_expansion(diff)
        if any(c.denominator != 1 or c < 0 for c in coords):
            raise ArithmeticError("weight %s is not below %s by a sum of "
                                  "simple roots" % (nu, sub_hw))
        amb = list(hw)
        for t, c in enumerate(coords):
            for j in range(datum.rank):
                amb[j] -= int(c) * datum.alpha_coords[subset[t]][j]
        out.extend([tuple(amb)] * mult)
    return out


def _build_a2_family(tag, order):
    lat, xlat = "2L:" + tag, "X:" + tag
    restricted = RestrictedSystem(2)
    if tag == "AI2":
        datum = build_root_datum("A", 2)
        theta_rows = _neg_rows(2)
        pi = ((2, 0), (0, 2))
        wwords = ((0,), (1,))
        bottoms = ((1, 0), (1, 1), (0, 1))
        mus = [(1, 0), (-1, 1), (0, -1)]
        a1, a2, a12 = (2, -1), (-1, 2), (1, 1)
        psi1 = [_exp(mu, xlat) for mu in mus]
        psi2 = [_balanced(a2, tuple(-x for x in a2), xlat, 1),
                _balanced(a12, tuple(-x for x in a12), xlat, 1),
                _balanced(a1, tuple(-x for x in a1), xlat, 1)]
        psi3 = [_exp((-1, 0), xlat), _exp((1, -1), xlat), _exp((0, 1), xlat)]
        qhat_log, t, tlog = 4, Q(2), 1
        prefactor = ONE
    elif tag == "A2G":
        datum = build_composite_datum([("A", 2), ("A", 2)])
        tau_idx = (2, 3, 0, 1)
        theta_rows = tuple(tuple(-(j == tau_idx[i]) for j in range(4))
                           for i in range(4))
        pi = ((1, 0, 1, 0), (0, 1, 0, 1))
        wwords = ((0, 2), (1, 3))
        bottoms = ((1, 0, 0, 0), (0, 1, 1, 0), (0, 0, 0, 1))
        mus = [(1, 0, 0, 0), (-1, 1, 0, 0), (0, -1, 0, 0)]
        psi1 = [_exp(mu, xlat) for mu in mus]
        psi2 = [_balanced((0, 1, -1, 1), (1, -1, 0, -1), xlat, 1),
                _balanced((0, 1, 1, 0), (-1, 0, 0, -1), xlat, 1),
                _balanced((1, -1, 1, 0), (-1, 0, -1, 1), xlat, 1)]
        psi3 = [_exp((0, 0, -1, 0), xlat), _exp((0, 0, 1, -1), xlat),
                _exp((0, 0, 0, 1), xlat)]
        qhat_log, t, tlog = 2, Q(2), 1
        prefactor = ONE
    elif tag == "AII5":
        datum = build_root_datum("A", 5)
        wbullet = _matrix_of_word(datum, (0, 2, 4))
        theta_rows = tuple(tuple(-wbullet[i][j] for j in range(5))
                           for i in range(5))
        pi = ((0, 1, 0, 0, 0), (0, 0, 0, 1, 0))
        wwords = ((1, 0, 2, 1), (3, 2, 4, 3))
        bottoms = ((1, 0, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 0, 1))
        mus = [(1, 0, 0, 0, 0), (-1, 1, 0, 0, 0), (0, -1, 1, 0, 0),
               (0, 0, -1, 1, 0), (0, 0, 0, -1, 1), (0, 0, 0, 0, -1)]
        psi1 = [_exp(mu, xlat) for mu in mus]
        psi2 = [_balanced((1, -1, 0, 1, 0), (1, 0, 0, -1, 0), xlat, 2),
                _balanced((-1, 0, 0, 1, 0), (-1, 1, 0, -1, 0), xlat, 2),
                _balanced((0, 0, 1, 0, 0), (0, -1, 1, -1, 0), xlat, 2),
                _balanced((0, 1, -1, 1, 0), (0, 0, -1, 0, 0), xlat, 2),
                _balanced((0, 1, 0, -1, 1), (0, -1, 0, 0, 1), xlat, 2),
                _balanced((0, 1, 0, 0, -1), (0, -1, 0, 1, -1), xlat, 2)]
        psi3 = [_exp((1, -1, 0, 0, 0), xlat), _exp((-1, 0, 0, 0, 0), xlat),
                _exp((0, 0, 1, -1, 0), xlat), _exp((0, 1, -1, 0, 0), xlat),
                _exp((0, 0, 0, 0, 1), xlat), _exp((0, 0, 0, 1, -1), xlat)]
        qhat_log, t, tlog = 2, Q(4), 2
        prefactor = Q(1) + Q(-1)
    else:
        raise ValueError(tag)

    satake = SatakeDatum(datum, theta_rows, restricted, pi, wwords, bottoms)
    satake.check()

    bottom_weights = [list(zip(mus, psi1)), list(zip(mus, psi2)),
                      list(zip(mus, psi3))]

    tau_sc = Q(tlog)  # the square root of t

    def golden(case):
        m1, m2 = case.m_of((1, 0)), case.m_of((0, 1))
        m12 = case.m_of((1, 1))
        one = case.one()
        three = one.scale(q_number(3, tlog))
        mid = (m12 + one.scale(ExactScalar.from_int(2))).scale(
            ((tau_sc + tau_sc.inv()) ** 2).inv()) + one
        rows = [[three, m2, m1], [m1, mid, m2], [m2, m1, three]]
        return [[e.scale(prefactor) for e in row] for row in rows]

    # basis of the J-invariants over the W-invariants, and the column map
    e1 = GAElement.one(lat, 2)
    es1 = _ga([((0, 1), ONE), ((1, -1), ONE)], lat).scale(
        (ONE + (tau_sc * tau_sc).inv()).inv())
    es2s1 = _exp((1, 0), lat, tau_sc * tau_sc)

    def t_map(mu):
        a, b = mu
        if a > 0:
            return 0, (a - 1, b)
        if a + b > 0:
            return 1, (-a, a + b - 1)
        return 2, (b, -a - b)

    return ExampleCase(
        tag=tag, satake=satake, qhat_log=qhat_log, t=t,
        bottom_weights=bottom_weights, golden_matrix_fn=golden,
        gamma_basis=[e1, es1, es2s1], gamma_bottoms=[2, 1, 0],
        t_map=t_map, J=(1,), order=order)


def _build_dii(n, order):
    if n < 2 or 2 ** (n - 1) > FREUDENTHAL_DIM_BOUND:
        raise ValueError("the 2-vector one-variable case needs n >= 2 and "
                         "2^(n-1) <= %d spin weights" % FREUDENTHAL_DIM_BOUND)
    tag = "DII:n=%d" % n
    lat = "2L:" + tag
    xlat = "X:" + tag
    restricted = RestrictedSystem(1)
    if n == 2:
        datum = build_composite_datum([("A", 1), ("A", 1)])
        theta_rows = ((0, -1), (-1, 0))
        pi = ((1, 1),)
        wwords = ((0, 1),)
        bottoms = ((1, 0), (0, 1))  # identity pattern first
        id_slot, theta_slot = 0, 1
        mus = [(1, 0), (-1, 0)]
    else:
        datum = build_root_datum("D", n)
        rows = [[int(i == j) for j in range(n)] for i in range(n)]
        rows[0][0] = -1
        for j in range(1, n - 2):
            rows[0][j] = -2
        rows[0][n - 2] = rows[0][n - 1] = -1
        theta_rows = tuple(tuple(r) for r in rows)
        pi = (tuple(int(j == 0) for j in range(n)),)
        top = max(datum.positive_roots(), key=datum.height)
        wwords = ((0,) + datum.reflection_word(top),)
        bottoms = (tuple(int(j == n - 2) for j in range(n)),
                   tuple(int(j == n - 1) for j in range(n)))
        id_slot, theta_slot = 1, 0
        mus = sorted(datum.weyl_orbit(bottoms[1]))

    satake = SatakeDatum(datum, theta_rows, restricted, pi, wwords, bottoms)
    satake.check()

    bottom_weights = [None, None]
    bottom_weights[id_slot] = [(mu, _exp(mu, xlat)) for mu in mus]
    bottom_weights[theta_slot] = [(mu, _exp(satake.theta(mu), xlat))
                                  for mu in mus]

    def golden(case):
        one = case.one()
        m1 = case.m_of((1,))
        diag = one.scale(Q(n - 1) + Q(1 - n))
        return [[diag, m1], [m1, diag]]

    def t_map(mu):
        (m,) = mu
        if m >= 1:
            return id_slot, (m - 1,)
        return theta_slot, (-m,)

    basis = [None, None]
    basis[theta_slot] = GAElement.one(lat, 1)  # v1 maps to the theta bottom
    basis[id_slot] = _exp((1,), lat, Q(n - 1))

    return ExampleCase(
        tag=tag, satake=satake, qhat_log=2, t=Q(2 * (n - 1)),
        bottom_weights=bottom_weights, golden_matrix_fn=golden,
        gamma_basis=basis, gamma_bottoms=[0, 1],
        t_map=t_map, J=(), order=order)


def _build_small_b(kind, n, s, order):
    if kind == "BII" and n < 2:
        raise ValueError("BII needs n >= 2")
    if kind == "CII" and n <= 2:
        raise ValueError("CII needs n > 2")
    tag = "%s:n=%d,s=%d" % (kind, n, s)
    lat = "2L:" + tag
    xlat = "X:" + tag
    restricted = RestrictedSystem(1)
    if kind == "BII":
        datum = build_root_datum("B", n)
        k_idx = 0
        I_bullet = frozenset(range(1, n))
        Cc = ExactScalar.from_int(-1)
        labels = (Fraction(2 * n - 1, 2), Fraction(2 * n - 1, 2) + s, 0, 0)
    else:
        datum = build_root_datum("C", n)
        k_idx = 1
        I_bullet = frozenset({0} | set(range(2, n)))
        Cc = Q(2 - n) * Q(2 - n) * ExactScalar.from_int(-1)  # -q^{4-2n}
        labels = (Fraction(2 * n - 1, 2), Fraction(3, 2) + s, n - 2, 0)
    omega = datum.fundamental_weight(k_idx)
    if datum.pair_two_rho(omega) != 2 * (2 * n - 1):
        raise ArithmeticError("<2 rho, omega_%d> != %d for %s"
                              % (k_idx + 1, 2 * (2 * n - 1), tag))

    wb_word = _longest_word(datum, sorted(I_bullet))
    wb = _matrix_of_word(datum, wb_word)
    theta_rows = tuple(tuple(-wb[i][j] for j in range(n)) for i in range(n))
    pi = (omega,)
    wwords = (datum.reflection_word(omega),)
    bottoms = ((0,) * n,)  # single bottom, stored at the zero representative

    satake = SatakeDatum(datum, theta_rows, restricted, pi, wwords, bottoms)
    satake.check()

    # restriction: e^mu prod_{j<s} (1 - C q^{2j} e^{-w_k}) / (C; q^2)_s,
    # one diagonal entry per weight mu of the bottom module
    neg = tuple(-x for x in omega)
    f = GAElement.one(xlat, n)
    for j in range(s):
        f = f * (GAElement.one(xlat, n) -
                 _exp(neg, xlat, Cc * Q(2 * j)))
    f = f.scale(q_pochhammer(Cc, 2, s).inv())
    b_hw = (tuple(s * int(j == n - 1) for j in range(n)) if kind == "BII"
            else tuple(s * int(j == 0) for j in range(n)))
    gamma_weights = _bullet_module_weights(datum, sorted(I_bullet), b_hw)
    bottom_weights = [[(mu, _exp(mu, xlat) * f) for mu in gamma_weights]]

    def golden(case):
        # (C q^{2n-1} e^{-w}, C q^{2n-1} e^{w}; q^2)_s / (C;q^2)_s^2
        acc = case.one()
        for j in range(s):
            fac = Cc * Q(2 * n - 1 + 2 * j)
            acc = acc * (case.one() - _exp((-1,), lat, fac))
            acc = acc * (case.one() - _exp((1,), lat, fac))
        return [[acc.scale((q_pochhammer(Cc, 2, s) ** 2).inv())]]

    aw = AWParams.from_labels(*labels)
    aw_zonal = AWParams.from_labels(labels[0], labels[0] if kind == "BII"
                                    else Fraction(3, 2), labels[2], labels[3])

    def t_map(mu):
        return 0, mu

    return ExampleCase(
        tag=tag, satake=satake, qhat_log=2, t=None,
        bottom_weights=bottom_weights, golden_matrix_fn=golden,
        gamma_basis=[GAElement.one(lat, 1)], gamma_bottoms=[0],
        t_map=t_map, J=(0,), aw=aw, aw_zonal=aw_zonal, order=order)

