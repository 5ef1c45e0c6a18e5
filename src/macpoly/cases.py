"""The worked example cases and their verification machinery.

Each case bundles an ambient root datum with an involution, a restricted
lattice carrying the polynomial families, golden bottom-restriction data,
the matrix weight, and the maps needed to identify matrix columns with
the partially symmetric families.

Case identifiers: "BII:n=<int>,s=<int>", "CII:n=<int>,s=<int>",
"DII:n=<int>", "AI2", "A2G", "AII5".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .families import (
    AWFunctional,
    AWParams,
    PolyFamilySpec,
    monomial,
    orthogonalize_step,
)
from .galg import GAElement, MatGAElement, solve_linear
from .roots import (
    RestrictedSystem,
    SatakeDatum,
    build_composite_datum,
    build_root_datum,
)
from .scalars import ExactScalar, QuadExt, q_number, q_pochhammer
from .weights import (
    WeightEngine,
    aw_weight,
    macdonald_nonsym_weight,
    macdonald_sym_weight,
)

ONE = ExactScalar.one()
Q = ExactScalar.q_power
V = ExactScalar.v_power


def parse_case_id(text):
    head, _, rest = text.partition(":")
    params = {}
    if rest:
        for item in rest.split(","):
            k, _, v = item.partition("=")
            params[k.strip()] = int(v)
    return head.strip(), params


def build_case(case_id, **overrides):
    head, params = parse_case_id(case_id)
    params.update(overrides)
    if head == "AI2":
        return _build_a2_family("AI2")
    if head == "A2G":
        return _build_a2_family("A2G")
    if head == "AII5":
        return _build_a2_family("AII5")
    if head == "DII":
        return _build_dii(params.get("n", 2))
    if head in ("BII", "CII"):
        return _build_small_b(head, params.get("n", 2), params.get("s", 0))
    raise ValueError("unknown case id %r" % (case_id,))


def list_cases():
    return ["BII:n=<int>,s=<int>", "CII:n=<int>,s=<int>", "DII:n=<int>",
            "AI2", "A2G", "AII5"]


# ---------------------------------------------------------------------------


@dataclass
class ExampleCase:
    tag: str
    satake: SatakeDatum
    restricted: RestrictedSystem
    lattice: str
    qhat_log: int
    t: ExactScalar  # deformation scalar of the restricted weight
    tau_scalar: ExactScalar  # square root of t used by the golden matrices
    bottom_weights: list  # per bottom: list of (mu in X-coords, GAElement in X)
    golden_matrix_fn: object
    # identification data
    gamma_basis: list = None  # restricted elements e_y, listed bottom-by-bottom
    gamma_bottoms: list = None  # bottom index receiving each basis element
    t_map: object = None  # restricted J-dominant mu -> (bottom index, lam)
    J: tuple = ()  # parabolic subset of the restricted simple reflections
    aw: AWParams = None  # one-variable data (small-B cases)
    aw_zonal: AWParams = None
    extra: dict = field(default_factory=dict)
    order: int = 60
    _cache: dict = field(default_factory=dict)

    # -- basic objects ------------------------------------------------------

    @property
    def datum(self):
        return self.satake.datum

    @property
    def bottoms(self):
        return self.satake.bottoms

    @property
    def rank(self):
        return self.restricted.rank

    def one(self):
        return GAElement.one(self.lattice, self.rank)

    def m_of(self, lam):
        return monomial(self.restricted, lam, self.lattice)

    # -- bottom restrictions and the matrix weight ---------------------------

    def bottom_restrictions(self):
        """Golden restriction diagonals; checks the unit normalisation."""
        for entries in self.bottom_weights:
            for _, f in entries:
                val = f.evaluate_at_one()
                assert val.is_one(), "restriction not normalised at 1"
        return self.bottom_weights

    def matrix_weight(self):
        """Trace-paired matrix weight in restricted coordinates."""
        if "M" in self._cache:
            return self._cache["M"]
        datum = self.datum
        nb = len(self.bottoms)
        rows = []
        for i in range(nb):
            row = []
            for j in range(nb):
                acc = GAElement.zero(self.lattice)
                pairs = zip(self.bottom_weights[i], self.bottom_weights[j])
                for (mu_i, f_i), (mu_j, f_j) in pairs:
                    assert mu_i == mu_j
                    a = f_i.shift_act(lambda e: -datum.pair_two_rho(e))
                    b = f_j.shift_act(lambda e: -datum.pair_two_rho(e))
                    prod = a * b.invol_inv()
                    acc = acc + self._to_restricted(prod)
                row.append(acc)
            rows.append(row)
        M = MatGAElement(rows)
        self._cache["M"] = M
        return M

    def _to_restricted(self, f):
        out = {}
        for e, c in f.terms.items():
            r = self.satake.to_restricted(e)
            if r is None:
                raise ValueError("matrix weight exponent %s outside 2L" % (e,))
            s = out.get(r)
            s = c if s is None else s + c
            if not s.is_zero():
                out[r] = s
            else:
                out.pop(r, None)
        return GAElement(out, self.lattice)

    def golden_matrix(self):
        return self.golden_matrix_fn(self)

    def matrix_weight_check(self):
        """Computed vs printed matrix weight, up to one global scalar."""
        M = self.matrix_weight()
        G = self.golden_matrix()
        kappa = None
        for i in range(M.size):
            for j in range(M.size):
                if not M[i, j].is_zero():
                    for e, c in M[i, j].terms.items():
                        g = G[i, j].terms.get(e)
                        if g is None:
                            return {"status": "fail",
                                    "detail": "support mismatch at %s" % ((i, j),)}
                        kappa = g / c
                        break
                    break
            if kappa is not None:
                break
        if kappa is None or kappa.is_zero():
            return {"status": "fail", "detail": "no usable entry"}
        ok = all((M[i, j].scale(kappa) - G[i, j]).is_zero()
                 for i in range(M.size) for j in range(M.size))
        return {"status": "pass" if ok else "fail", "scalar": kappa.render()}

    def weight_symmetry_check(self):
        """Reflection-transpose symmetry, q -> 1/q invariance, W-invariance."""
        M = self.matrix_weight()
        n = M.size
        failures = []
        for i in range(n):
            for j in range(n):
                if not (M[i, j].invol_inv() - M[j, i]).is_zero():
                    failures.append(("transpose", i, j))
                if not (M[i, j].invol_zero() - M[i, j]).is_zero():
                    failures.append(("qinv", i, j))
        for i in range(n):
            for w in range(self.rank):
                img = M[i, i].weyl_act(lambda e: self.restricted.reflect(w, e))
                if not (img - M[i, i]).is_zero():
                    failures.append(("weyl", i, w))
        return {"status": "pass" if not failures else "fail",
                "failures": failures}

    # -- pairings and polynomial families -------------------------------------

    def nabla_engine(self, height_hint=8):
        key = ("nabla", height_hint, self.order)
        if key not in self._cache:
            if self.aw is not None:
                spec = aw_weight((self.aw_zonal.a, self.aw_zonal.b,
                                  self.aw_zonal.c, self.aw_zonal.d),
                                 self.lattice, self.aw_zonal.qhat_log,
                                 tag="zonal:" + self.tag)
            else:
                spec = macdonald_sym_weight(self.restricted, self.qhat_log,
                                            self.t, self.lattice,
                                            tag="zonal:" + self.tag)
            self._cache[key] = WeightEngine(spec, order=self.order,
                                            height_hint=height_hint)
        return self._cache[key]

    def delta_engine(self, height_hint=8):
        key = ("delta", height_hint, self.order)
        if key not in self._cache:
            spec = macdonald_nonsym_weight(self.restricted, self.qhat_log,
                                           self.t, self.lattice,
                                           tag="nonsym:" + self.tag)
            self._cache[key] = WeightEngine(spec, order=self.order,
                                            height_hint=height_hint)
        return self._cache[key]

    def family_spec(self, height_hint=8):
        key = ("famspec", height_hint, self.order)
        if key not in self._cache:
            if self.aw is not None:
                fs = PolyFamilySpec(
                    restricted=self.restricted, lattice=self.lattice,
                    engine_sym=self.nabla_engine(height_hint),
                    exact_functional=AWFunctional(self.aw, self.lattice),
                    label=self.tag)
            else:
                fs = PolyFamilySpec(
                    restricted=self.restricted, lattice=self.lattice,
                    engine_sym=self.nabla_engine(height_hint),
                    engine_nonsym=self.delta_engine(height_hint),
                    label=self.tag)
            self._cache[key] = fs
        return self._cache[key]

    # -- vector-valued family --------------------------------------------------

    def _vector_pair(self, u, w):
        """<u, w> = sum ct(u_i M_ij flip(w_j) nabla)."""
        M = self.matrix_weight()
        if self.aw is not None:
            # one-variable exact route: weight polynomial inserted into the
            # zonal moment functional
            L = self._cache.setdefault(
                "awfun0", AWFunctional(self.aw_zonal, self.lattice))
            return L.value(u[0] * w[0].invol_inv() * M[0, 0])
        return self.nabla_engine(self._vector_hint()).vector_pair(u, M, w)

    def _vec_pair(self, f, g):
        return self._vector_pair(f.slots, g.slots)

    def _vector_hint(self):
        return self._cache.get("vector_hint", 10)

    def set_grid_height(self, H):
        """Plan expansions for vector pairings up to family height H."""
        # supports of products u_i M_ij flip(w_j): heights up to
        # 2*H plus the weight-matrix spread
        M = self.matrix_weight()
        spread = 0
        for row in M.rows:
            for entry in row:
                for e in entry.support():
                    spread = max(spread, abs(self.restricted.height2(e)))
        self._cache["vector_hint"] = 2 * H + spread + 2
        return self._cache["vector_hint"]

    def _pair_key(self, b_idx, lam):
        x = self.satake.from_restricted(lam)
        total = tuple(a + b for a, b in zip(x, self.bottoms[b_idx]))
        return (self.datum.pair_two_rho(total), lam, b_idx)

    def _vector_downset(self, b_idx, lam):
        """Pairs (b', mu) strictly below (b, lam) in the ambient dominance."""
        key = self._pair_key(b_idx, lam)
        out = []
        for mu in self.restricted.grid(self.restricted.height2(lam) + 2):
            for bp in range(len(self.bottoms)):
                k = self._pair_key(bp, mu)
                if k < key and self._dominated(bp, mu, b_idx, lam):
                    out.append((k, bp, mu))
        out.sort()
        return [(bp, mu) for _, bp, mu in out]

    def _dominated(self, bp, mu, b_idx, lam):
        xm = self.satake.from_restricted(mu)
        xl = self.satake.from_restricted(lam)
        lo = tuple(a + b for a, b in zip(xm, self.bottoms[bp]))
        hi = tuple(a + b for a, b in zip(xl, self.bottoms[b_idx]))
        return self.datum.dominance_leq(lo, hi)

    def vector_member(self, b_idx, lam):
        """The orthogonal vector polynomial with leading m_lam in slot b."""
        key = ("vec", b_idx, tuple(lam), self.order)
        if key in self._cache:
            return self._cache[key]
        nb = len(self.bottoms)
        lead = [GAElement.zero(self.lattice)] * nb
        lead[b_idx] = self.m_of(lam)
        prevs = [self.vector_member(bp, mu)
                 for bp, mu in self._vector_downset(b_idx, lam)]
        _, vec = orthogonalize_step(_VecPoly(lead, self), prevs, self._vec_pair,
                                    "%s vector (%s, %s)" % (self.tag, b_idx, lam))
        self._cache[key] = vec
        return vec

    def matrix_q(self, lam):
        """Matrix polynomial whose b-th column is the (b, lam) vector member."""
        nb = len(self.bottoms)
        cols = [self.vector_member(b, lam) for b in range(nb)]
        rows = [[cols[b].slots[i] for b in range(nb)] for i in range(nb)]
        return MatGAElement(rows)

    def gram_block(self, lam, mu):
        """Matrix of pairings <column i of Q_lam, column j of Q_mu>."""
        A = self.matrix_q(lam)
        B = self.matrix_q(mu)
        nb = len(self.bottoms)
        out = []
        for i in range(nb):
            row = []
            for j in range(nb):
                row.append(self._vector_pair(A.column(i), B.column(j)))
            out.append(row)
        return out

    def qinv_check(self, lam):
        """Every entry of Q_lam fixed under q -> 1/q, exactly.

        Series-backend coefficients are first reconstructed as exact
        rational functions (and the reconstruction is verified against the
        series to its full working order).
        """
        from .scalars import SeriesScalar, rational_reconstruct

        Qm = self.matrix_q(lam)
        bad = []
        unrecovered = []
        for i in range(Qm.size):
            for j in range(Qm.size):
                entry = Qm[i, j]
                coeffs = {}
                for e, c in entry.terms.items():
                    if isinstance(c, SeriesScalar):
                        rec = rational_reconstruct(c)
                        if rec is None:
                            unrecovered.append((i, j, e))
                            continue
                        coeffs[e] = rec
                    else:
                        coeffs[e] = c
                exact = GAElement(coeffs, entry.lattice)
                if not (exact.invol_zero() - exact).is_zero():
                    bad.append((i, j))
        if unrecovered:
            return {"status": "fail", "detail": "reconstruction failed",
                    "entries": unrecovered}
        return {"status": "pass" if not bad else "fail", "failures": bad}

    # -- identification ---------------------------------------------------------

    def expand_in_gamma_basis(self, f):
        """Coefficients of f over the basis e_y, W-invariant coefficients."""
        H = max((self.restricted.order_key(e)[0] for e in f.support()),
                default=0) + 2
        doms = self.restricted.grid(H)
        cols = []
        labels = []
        for yi, g in enumerate(self.gamma_basis):
            for d in doms:
                cols.append(self.m_of(d) * g)
                labels.append((yi, d))
        support = set()
        for c in cols:
            support |= c.support()
        support |= f.support()
        support = sorted(support)
        zero = ExactScalar.zero()
        rows = [[c.terms.get(e, zero) for c in cols] for e in support]
        rhs = [f.terms.get(e, zero) for e in support]
        sol = solve_linear(rows, rhs)
        out = [GAElement.zero(self.lattice) for _ in self.gamma_basis]
        for (yi, d), c in zip(labels, sol):
            if not c.is_zero():
                out[yi] = out[yi] + self.m_of(d).scale(c)
        return out

    def identify(self, mu):
        """Match the J-invariant family member at mu with a matrix column."""
        spec = self.family_spec(self._vector_hint())
        P = spec.family_member(self.J, mu)
        coeffs = self.expand_in_gamma_basis(P)
        b_idx, lam = self.t_map(mu)
        col = self.vector_member(b_idx, lam).slots
        target = [GAElement.zero(self.lattice)] * len(self.bottoms)
        for yi, c in enumerate(coeffs):
            target[self.gamma_bottoms[yi]] = target[self.gamma_bottoms[yi]] + c
        # proportionality: target = C_mu * col
        C = None
        for t_entry, c_entry in zip(target, col):
            if not c_entry.is_zero():
                for e, cc in c_entry.terms.items():
                    tt = t_entry.terms.get(e)
                    if tt is None:
                        return {"status": "fail", "mu": mu,
                                "detail": "support mismatch"}
                    C = tt / cc
                    break
                break
        if C is None or C.is_zero():
            return {"status": "fail", "mu": mu, "detail": "no usable entry"}
        residual_zero = all(
            (t_entry - c_entry.scale(C)).is_zero()
            for t_entry, c_entry in zip(target, col))
        return {"status": "pass" if residual_zero else "fail", "mu": mu,
                "column": (b_idx, lam),
                "constant": C.render() if hasattr(C, "render") else repr(C)}

    # -- recurrence ------------------------------------------------------------

    def recurrence_coeffs(self, i, lam):
        """Expansion of P_{pi_i} * Q_lam over the matrix family."""
        spec = self.family_spec(self._vector_hint())
        pi = tuple(int(k == i) for k in range(self.rank))
        P = spec.family_member(tuple(range(self.rank)), pi)
        nb = len(self.bottoms)
        top = tuple(a + c for a, c in zip(lam, pi))
        # everything at or below lam + pi in the ambient order
        grid = self.restricted.grid(self.restricted.height2(top) + 2)
        out = {}
        residual_cols = []
        for b in range(nb):
            col = self.vector_member(b, lam)
            target = _VecPoly([P * s for s in col.slots], self)
            ups = sorted(((bp, mu) for mu in grid for bp in range(nb)
                          if self._dominated(bp, mu, b, top)),
                         key=lambda t: self._pair_key(*t))
            mems = [self.vector_member(bp, mu) for bp, mu in ups]
            cvec, rem = orthogonalize_step(
                target, mems, self._vec_pair,
                "%s recurrence (%s, %s)" % (self.tag, b, lam))
            residual_cols.append(all(s.is_zero() for s in rem.slots))
            out[b] = {t: c for t, c in zip(ups, cvec) if not c.is_zero()}
        # every step must be a weight of the multiplier module, and the top
        # coefficient must be nonzero
        wset = self.multiplier_weights(i)
        steps_ok = True
        top_ok = True
        for b, coeffs in out.items():
            cval = coeffs.get((b, top))
            if cval is None or cval.is_zero():
                top_ok = False
            for (bp, mu) in coeffs:
                xm = self.satake.from_restricted(mu)
                nu = tuple(a + c for a, c in zip(xm, self.bottoms[bp]))
                xt = self.satake.from_restricted(lam)
                base = tuple(a + c for a, c in zip(xt, self.bottoms[b]))
                step = tuple(a - c for a, c in zip(nu, base))
                if step not in wset:
                    steps_ok = False
        return {"coeffs": out, "residual_zero": all(residual_cols),
                "steps_in_weights": steps_ok, "top_nonzero": top_ok}

    def multiplier_weights(self, i):
        """Ambient weights of the module generated at the i-th generator."""
        from .roots import freudenthal

        key = ("mweights", i)
        if key not in self._cache:
            pi = tuple(int(k == i) for k in range(self.rank))
            hw = self.satake.from_restricted(pi)
            table = freudenthal(self.datum, hw)
            self._cache[key] = set(table.mult)
        return self._cache[key]

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

    def delta0_identity_check(self):
        """Symmetrised basis products against the matrix weight.

        Computes m_{y,y'} = (1/#W) sum_w w(g_y conj(g_{y'}) / ratio) by cross
        multiplication and exact division (conjugation inverts both q and
        the exponents), then calibrates one diagonal map d so that
        m_{y,y'} d_{y'} = M_{G(y),G(y')} for all entries.  The calibrated
        diagonal is reported rather than asserted.
        """
        num, den = self.delta0()
        R = self.restricted
        pos = R._positive_roots()
        allroots = list(pos) + [tuple(-x for x in a) for a in pos]
        D = self.one()
        for b in allroots:
            D = D * (self.one() - _exp(tuple(-x for x in b), self.lattice))
        M = self.matrix_weight()
        nb = len(self.gamma_basis)
        words = R.weyl_elements()
        count = ExactScalar.from_int(len(words))
        m_rows = []
        for yi in range(nb):
            row = []
            for yj in range(nb):
                G = self.gamma_basis[yi] * self.gamma_basis[yj].bar_full() * den
                acc = GAElement.zero(self.lattice)
                for w in words:
                    wset = {R.act_word(w, a) for a in pos}
                    comp = [b for b in allroots if b not in wset]
                    term = G.weyl_act(lambda e: R.act_word(w, e))
                    for b in comp:
                        term = term * (self.one() -
                                       _exp(tuple(-x for x in b), self.lattice))
                    acc = acc + term
                row.append(acc.exact_div(D).scale(count.inv()))
            m_rows.append(row)
        diag = []
        for yj in range(nb):
            d = None
            for yi in range(nb):
                lhs = m_rows[yi][yj]
                target = M[self.gamma_bottoms[yi], self.gamma_bottoms[yj]]
                if lhs.is_zero():
                    continue
                for e, c in lhs.terms.items():
                    tc = target.terms.get(e)
                    if tc is None:
                        return {"status": "fail",
                                "detail": "support (%d,%d)" % (yi, yj)}
                    d = tc / c
                    break
                break
            if d is None or d.is_zero():
                return {"status": "fail", "detail": "column %d vanishes" % yj}
            diag.append(d)
        ok = all(
            (m_rows[yi][yj].scale(diag[yj]) -
             M[self.gamma_bottoms[yi], self.gamma_bottoms[yj]]).is_zero()
            for yi in range(nb) for yj in range(nb))
        return {"status": "pass" if ok else "fail",
                "calibrated_diagonal": [d.render() for d in diag],
                "conjugation": "bar_flip"}


# ---------------------------------------------------------------------------
# one-variable eigenvector data for the integrable small-B cases
# ---------------------------------------------------------------------------


def qkrawtchouk(i, y, p, N):
    """Terminating basic hypergeometric sum in base q^{-2}, evaluated at y."""
    acc = ExactScalar.zero()
    for k in range(0, min(i, N) + 1):
        num = (q_pochhammer(Q(2 * i), -2, k) *
               q_pochhammer(y, -2, k) *
               q_pochhammer(-(p * Q(-2 * i)), -2, k))
        den = (q_pochhammer(Q(2 * N), -2, k) *
               q_pochhammer(Q(-2), -2, k))
        acc = acc + num / den * Q(-2 * k)
    return acc


def kravchuk_data(case):
    """Tridiagonal coefficients and closed-form constants for one case."""
    kind = case.extra["kind"]
    n, s = case.extra["n"], case.extra["s"]
    c = case.extra["c_param"]
    two = q_number(2, 1)
    dq = Q(1) - Q(-1)  # q - 1/q
    if kind == "BII":
        sign = 1 if n % 2 == 0 else -1
        disc = two * c * ExactScalar.from_int(sign)  # w^2 = (-1)^n [2]_q c
        w = QuadExt.root(disc)
        lift = lambda x: QuadExt.of(x, disc)
        a = lift(dq * V(2 * s + 2 * n - 3)) / w
        Cc = ExactScalar.from_int(-1)
        bshift = ExactScalar.zero()

        def b_r(r):
            return ExactScalar.zero()

        def c_r(r):
            val = (c * ExactScalar.from_int(sign) * Q(3 - 2 * n) * two *
                   (ONE - Q(2 * r)) * (ONE - Q(2 * (r - s - 1))))
            return -(val / (dq * dq))
    else:
        disc = None
        lift = lambda x: x
        a = -(dq / c) * Q(s + 1)
        Cc = -Q(4 - 2 * n)
        bshift = ONE - Q(2 * s + 4 - 2 * n)

        def b_r(r):
            return -(c * (Q(r - 1 - s) * q_number(r, 1) +
                          Q(r + 3 - 2 * n) * q_number(s - r, 1)))

        def c_r(r):
            val = (c * c * Q(2 - 2 * n) *
                   (ONE - Q(2 * r)) * (ONE - Q(2 * (r - s - 1))))
            return -(val / (dq * dq))

    return {"kind": kind, "n": n, "s": s, "a": a, "C": Cc, "bshift": bshift,
            "b_r": b_r, "c_r": c_r, "lift": lift, "disc": disc}


def kravchuk_eigen(case, i):
    """Closed-form eigenvector and eigenvalue of the tridiagonal action.

    Returns the vector (a_{s-r})_r, the eigenvalue, and the residual of the
    three-term relation; the residual must be identically zero.
    """
    data = kravchuk_data(case)
    s = data["s"]
    if not (0 <= i <= s):
        raise ValueError("eigenvector index out of range")
    a, Cc, bshift, lift = data["a"], data["C"], data["bshift"], data["lift"]
    p = -(Cc * Q(2 * s))

    def coef(j):
        # evaluation point q^{2j}, i.e. x = j in the inverted base
        base = q_pochhammer(Q(2 * s), -2, j) * qkrawtchouk(i, Q(2 * j), p, s)
        return (a ** (-j)) * lift(base)

    avec = [coef(j) for j in range(s + 1)]
    lam = lift(Q(2 * i) + Cc * Q(2 * s - 2 * i) - bshift) / a
    zero = lift(ExactScalar.zero())
    residuals = []
    for r in range(s + 1):
        up = avec[r + 1] if r + 1 <= s else zero
        dn = avec[r - 1] if r - 1 >= 0 else zero
        res = lam * avec[r] - (up + lift(data["b_r"](s - r)) * avec[r] +
                               lift(data["c_r"](s + 1 - r)) * dn)
        residuals.append(res)
    vector = [avec[s - r] for r in range(s + 1)]
    return {"vector": vector, "eigenvalue": lam,
            "residual_zero": all(r.is_zero() for r in residuals),
            "nonzero": any(not x.is_zero() for x in vector)}


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
    a, Cc, lift = data["a"], data["C"], data["lift"]
    a2 = a * a
    ok = True
    for r in range(0, s + 2):
        lhs = lift(data["c_r"](s + 1 - r))
        rhs = (lift(Cc * Q(2 * s)) / a2) * lift(
            (ONE - Q(-2 * r)) * (ONE - Q(-2 * r + 2 * s + 2)))
        if not (lhs - rhs).is_zero():
            ok = False
    return ok


class _VecPoly:
    """Vector of restricted-lattice polynomials with scale/sub support."""

    __slots__ = ("slots", "case")

    def __init__(self, slots, case):
        self.slots = list(slots)
        self.case = case

    def scale(self, c):
        return _VecPoly([s.scale(c) for s in self.slots], self.case)

    def __sub__(self, other):
        return _VecPoly([a - b for a, b in zip(self.slots, other.slots)],
                        self.case)


# ---------------------------------------------------------------------------
# case builders
# ---------------------------------------------------------------------------


def _ga(terms, lattice):
    return GAElement({tuple(e): c for e, c in terms}, lattice)


def _exp(e, lattice, c=None):
    return GAElement.monomial(e, lattice, c)


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
    rho_par = [sum(1 for i in subset if i == j) for j in range(datum.rank)]
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
    from .roots import _datum_from_cartan, freudenthal

    subset = list(subset)
    subA = tuple(tuple(datum.A[i][j] for j in subset) for i in subset)
    sub = _datum_from_cartan("sub", subA, "sc")
    sub_hw = tuple(int(datum.pair_simple(i, hw)) for i in subset)
    table = freudenthal(sub, sub_hw)
    out = []
    for nu, mult in table.mult.items():
        # nu = sub_hw - sum c_i alpha_i in subsystem coordinates
        diff = tuple(sub_hw[t] - nu[t] for t in range(len(subset)))
        coords = sub.alpha_expansion(diff)
        assert all(c.denominator == 1 and c >= 0 for c in coords)
        amb = list(hw)
        for t, c in enumerate(coords):
            for j in range(datum.rank):
                amb[j] -= int(c) * datum.alpha_coords[subset[t]][j]
        out.extend([tuple(amb)] * mult)
    return out


def _build_a2_family(tag):
    lat = "2L:" + tag
    restricted = RestrictedSystem(2)
    if tag == "AI2":
        datum = build_root_datum("A", 2)
        tau_idx = (0, 1)
        theta_rows = _neg_rows(2)
        pi = ((2, 0), (0, 2))
        wwords = ((0,), (1,))
        bottoms = ((1, 0), (1, 1), (0, 1))
        mus = [(1, 0), (-1, 1), (0, -1)]
        a1, a2, a12 = (2, -1), (-1, 2), (1, 1)
        xlat = "X:" + tag
        psi1 = [_exp(mu, xlat) for mu in mus]
        psi2 = [_balanced(a2, tuple(-x for x in a2), xlat, 1),
                _balanced(a12, tuple(-x for x in a12), xlat, 1),
                _balanced(a1, tuple(-x for x in a1), xlat, 1)]
        psi3 = [_exp((-1, 0), xlat), _exp((1, -1), xlat), _exp((0, 1), xlat)]
        qhat_log, t, tau_scalar, tlog = 4, Q(2), Q(1), 1
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
        xlat = "X:" + tag
        psi1 = [_exp(mu, xlat) for mu in mus]
        psi2 = [_balanced((0, 1, -1, 1), (1, -1, 0, -1), xlat, 1),
                _balanced((0, 1, 1, 0), (-1, 0, 0, -1), xlat, 1),
                _balanced((1, -1, 1, 0), (-1, 0, -1, 1), xlat, 1)]
        psi3 = [_exp((0, 0, -1, 0), xlat), _exp((0, 0, 1, -1), xlat),
                _exp((0, 0, 0, 1), xlat)]
        qhat_log, t, tau_scalar, tlog = 2, Q(2), Q(1), 1
        prefactor = ONE
    elif tag == "AII5":
        datum = build_root_datum("A", 5)
        tau_idx = tuple(range(5))
        wbullet = _matrix_of_word(datum, (0, 2, 4))
        theta_rows = tuple(tuple(-wbullet[i][j] for j in range(5))
                           for i in range(5))
        pi = ((0, 1, 0, 0, 0), (0, 0, 0, 1, 0))
        wwords = ((1, 0, 2, 1), (3, 2, 4, 3))
        bottoms = ((1, 0, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 0, 1))
        mus = [(1, 0, 0, 0, 0), (-1, 1, 0, 0, 0), (0, -1, 1, 0, 0),
               (0, 0, -1, 1, 0), (0, 0, 0, -1, 1), (0, 0, 0, 0, -1)]
        xlat = "X:" + tag
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
        qhat_log, t, tau_scalar, tlog = 2, Q(4), Q(2), 2
        prefactor = Q(1) + Q(-1)
    else:
        raise ValueError(tag)

    I_bullet = frozenset() if tag != "AII5" else frozenset({0, 2, 4})
    satake = SatakeDatum(tag, datum, I_bullet, tau_idx, theta_rows,
                         restricted, pi, wwords, bottoms)
    satake.check()

    bottom_weights = [list(zip(mus, psi1)), list(zip(mus, psi2)),
                      list(zip(mus, psi3))]

    def golden(case):
        m1, m2 = case.m_of((1, 0)), case.m_of((0, 1))
        m12 = case.m_of((1, 1))
        one = case.one()
        tau = case.tau_scalar
        three = one.scale(q_number(3, tlog))
        mid = (m12 + one.scale(ExactScalar.from_int(2))).scale(
            ((tau + tau.inv()) ** 2).inv()) + one
        rows = [[three, m2, m1], [m1, mid, m2], [m2, m1, three]]
        return MatGAElement([[e.scale(prefactor) for e in row] for row in rows])

    # basis of the J-invariants over the W-invariants, and the column map
    tau_sc = Q(tlog)
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

    case = ExampleCase(
        tag=tag, satake=satake, restricted=restricted, lattice=lat,
        qhat_log=qhat_log, t=t, tau_scalar=Q(tlog),
        bottom_weights=bottom_weights, golden_matrix_fn=golden,
        gamma_basis=[e1, es1, es2s1], gamma_bottoms=[2, 1, 0],
        t_map=t_map, J=(1,))
    return case


def _build_dii(n):
    if n < 2:
        raise ValueError("the 2-vector one-variable case needs n >= 2")
    tag = "DII:n=%d" % n
    lat = "2L:" + tag
    xlat = "X:" + tag
    restricted = RestrictedSystem(1)
    if n == 2:
        datum = build_composite_datum([("A", 1), ("A", 1)])
        tau_idx = (1, 0)
        theta_rows = ((0, -1), (-1, 0))
        pi = ((1, 1),)
        wwords = ((0, 1),)
        bottoms = ((1, 0), (0, 1))  # identity pattern first
        id_slot, theta_slot = 0, 1
        mus = [(1, 0), (-1, 0)]
    else:
        datum = build_root_datum("D", n)
        tau_idx = tuple(range(n))
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

    I_bullet = frozenset(range(1, n)) if n > 2 else frozenset()
    satake = SatakeDatum(tag, datum, I_bullet, tau_idx, theta_rows,
                         restricted, pi, wwords, bottoms)
    satake.check()

    def theta(mu):
        return satake.theta(mu)

    psi_id = [(mu, _exp(mu, xlat)) for mu in mus]
    psi_theta = [(mu, _exp(theta(mu), xlat)) for mu in mus]
    bottom_weights = [None, None]
    bottom_weights[id_slot] = psi_id
    bottom_weights[theta_slot] = psi_theta

    def golden(case):
        one = case.one()
        m1 = case.m_of((1,))
        diag = one.scale(Q(n - 1) + Q(1 - n))
        return MatGAElement([[diag, m1], [m1, diag]])

    v2 = _exp((1,), lat, Q(n - 1))

    def t_map(mu):
        (m,) = mu
        if m >= 1:
            return id_slot, (m - 1,)
        return theta_slot, (-m,)

    gamma_bottoms = [None, None]
    basis = [None, None]
    basis[theta_slot] = GAElement.one(lat, 1)  # v1 maps to the theta bottom
    basis[id_slot] = v2
    gamma = [basis[0], basis[1]]

    case = ExampleCase(
        tag=tag, satake=satake, restricted=restricted, lattice=lat,
        qhat_log=2, t=Q(2 * (n - 1)), tau_scalar=Q(n - 1),
        bottom_weights=bottom_weights, golden_matrix_fn=golden,
        gamma_basis=gamma, gamma_bottoms=[0, 1],
        t_map=t_map, J=(),
        extra={"n": n})
    return case


def _build_small_b(kind, n, s, c_param=None):
    if kind == "BII" and n < 2:
        raise ValueError("BII needs n >= 2")
    if kind == "CII" and n <= 2:
        raise ValueError("CII needs n > 2")
    tag = "%s:n=%d,s=%d" % (kind, n, s)
    lat = "2L:" + tag
    xlat = "X:" + tag
    restricted = RestrictedSystem(1)
    c_param = ONE if c_param is None else c_param
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
    assert datum.pair_two_rho(datum.fundamental_weight(k_idx)) == 2 * (2 * n - 1)

    wb_word = _longest_word(datum, sorted(I_bullet))
    wb = _matrix_of_word(datum, wb_word)
    theta_rows = tuple(tuple(-wb[i][j] for j in range(n)) for i in range(n))
    pi = (datum.fundamental_weight(k_idx),)
    wwords = (datum.reflection_word(datum.fundamental_weight(k_idx)),)
    bottoms = ((0,) * n,)  # single bottom, stored at the zero representative

    satake = SatakeDatum(tag, datum, I_bullet, tuple(range(n)), theta_rows,
                         restricted, pi, wwords, bottoms)
    satake.check()

    # restriction: e^mu prod_{j<s} (1 - C q^{2j} e^{-w_k}) / (C; q^2)_s,
    # one diagonal entry per weight mu of the bottom module
    neg = tuple(-x for x in datum.fundamental_weight(k_idx))
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
        return MatGAElement([[acc.scale((q_pochhammer(Cc, 2, s) ** 2).inv())]])

    aw = AWParams.from_labels(*labels)
    aw_zonal = AWParams.from_labels(labels[0], labels[0] if kind == "BII"
                                    else Fraction(3, 2), labels[2], labels[3])

    def t_map(mu):
        return 0, mu

    case = ExampleCase(
        tag=tag, satake=satake, restricted=restricted, lattice=lat,
        qhat_log=2, t=None, tau_scalar=None,
        bottom_weights=bottom_weights, golden_matrix_fn=golden,
        gamma_basis=[GAElement.one(lat, 1)], gamma_bottoms=[0],
        t_map=t_map, J=(0,),
        aw=aw, aw_zonal=aw_zonal,
        extra={"n": n, "s": s, "kind": kind, "C": Cc, "c_param": c_param})
    return case

