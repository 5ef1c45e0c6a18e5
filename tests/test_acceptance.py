"""End-to-end acceptance suite.

Each top-level test covers one numbered acceptance criterion, runs it at
the stated grid and tolerance, and prints one pass/fail line.  Exactness
means coefficient-level identity in Q(v); the series cases certify their
residuals to the tracked v-adic order (>= 60 unless stated).
"""

import random
import time

from fractions import Fraction

import pytest

from macpoly.cases import (
    build_case,
    kravchuk_consistency,
    kravchuk_eigen,
    kravchuk_orthogonality_denominator,
)
from macpoly.families import AWFunctional, AWParams, aw_oracle, eigen_check
from macpoly.roots import (
    build_root_datum,
    central_scalar,
    freudenthal,
    regularity_scalar,
)
from macpoly.scalars import ExactScalar, SeriesScalar
from macpoly.weights import WeightEngine

from oracles import aw_weight, ct_norm, dense_solve_member, weyl_character

Q = ExactScalar.q_power

SMALL_B_RANGE = (["BII:n=%d,s=%d" % (n, s) for n in (2, 3) for s in (0, 1, 2)]
                 + ["CII:n=3,s=%d" % s for s in (0, 1, 2)])


def _announce(num, name, ok, detail=""):
    line = "ACCEPTANCE %d %-24s %s" % (num, name, "PASS" if ok else "FAIL")
    if detail:
        line += "  (%s)" % detail
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def grid_cases():
    """The case instances with their full height-3 matrix families built."""
    out = {}
    for cid, order in [("DII:n=2", 60), ("A2G", 60), ("AII5", 60),
                       ("AI2", 72), ("BII:n=2,s=1", 60), ("CII:n=3,s=1", 60)]:
        case = build_case(cid, order=order)
        for lam in case.restricted.grid(3):
            for b in range(len(case.bottoms)):
                case.vector_member(b, lam)
        out[cid] = case
    return out


class TestCriterion1:
    def test_matrix_weights_match(self):
        ids = ["DII:n=2", "AI2", "A2G", "AII5"] + SMALL_B_RANGE
        details = []
        ok = True
        for cid in ids:
            t0 = time.time()
            case = build_case(cid)
            res = case.matrix_weight_check()
            dt = time.time() - t0
            ok = ok and res["status"] == "pass" and dt < 10.0
            details.append("%s:%s" % (cid, res["status"]))
        _announce(1, "matrix weights", ok, "%d cases, exact" % len(ids))


class TestCriterion2:
    def test_orthogonality_grids(self, grid_cases):
        ok = True
        details = []
        for cid, case in grid_cases.items():
            t0 = time.time()
            grid = case.restricted.grid(3)
            nb = len(case.bottoms)
            min_prec = None
            good = True
            for i, lam in enumerate(grid):
                for mu in grid[: i + 1]:
                    block = case.gram_block(lam, mu)
                    for r in range(nb):
                        for c in range(nb):
                            val = block[r][c]
                            if isinstance(val, SeriesScalar):
                                p = val.prec
                                min_prec = p if min_prec is None else min(min_prec, p)
                            if lam == mu and r == c:
                                good = good and not val.is_zero()
                            else:
                                good = good and val.is_zero()
            dt = time.time() - t0
            good = good and dt < 120.0
            if min_prec is not None:
                good = good and min_prec >= 60
                details.append("%s O(v^%d) %.0fs" % (cid, min_prec, dt))
            else:
                details.append("%s exact %.0fs" % (cid, dt))
            ok = ok and good
        _announce(2, "orthogonality", ok, "; ".join(details))


class TestCriterion3:
    def test_identifications(self, grid_cases):
        ok = True
        count = 0
        # rank-2 cases: every J-dominant label of height <= 3
        for cid in ("AI2", "A2G", "AII5"):
            case = grid_cases[cid]
            R = case.restricted
            mus = sorted({(a, b) for a in range(-4, 5) for b in range(0, 5)
                          if R.height2(R.dominant_rep((a, b))) <= 3})
            for mu in mus:
                res = case.identify(mu)
                ok = ok and res["status"] == "pass"
                count += 1
        # two-vector one-variable case
        case = grid_cases["DII:n=2"]
        for m in (0, 1, -1, 2):
            res = case.identify((m,))
            ok = ok and res["status"] == "pass"
            count += 1
        # small-B quotients against the recurrence oracle
        for cid in SMALL_B_RANGE:
            case = build_case(cid)
            for m in range(4):
                Qm = case.matrix_q((m,))
                diff = Qm[0][0] - aw_oracle(case.aw, m, case.lattice)
                ok = ok and diff.is_zero()
                count += 1
        _announce(3, "identification", ok, "%d instances" % count)


class TestCriterion4:
    def test_q_inversion(self, grid_cases):
        ok = True
        details = []
        for cid, case in grid_cases.items():
            if cid == "AI2":
                continue  # the exact reconstruction runs at higher order below
            for lam in case.restricted.grid(3):
                res = case.qinv_check(lam)
                ok = ok and res["status"] == "pass"
            details.append(cid)
        big = build_case("AI2", order=150)
        for lam in big.restricted.grid(3):
            res = big.qinv_check(lam)
            ok = ok and res["status"] == "pass"
        details.append("AI2(reconstructed)")
        _announce(4, "q -> 1/q invariance", ok, ", ".join(details))


class TestCriterion5:
    def test_kravchuk_eigenstructure(self):
        ok = True
        count = 0
        for cid_base in ("BII:n=2", "BII:n=3", "CII:n=3"):
            for s in range(0, 5):
                case = build_case("%s,s=%d" % (cid_base, s))
                ok = ok and kravchuk_consistency(case)
                evs = []
                for i in range(s + 1):
                    r = kravchuk_eigen(case, i)
                    ok = ok and r["residual_zero"] and r["nonzero"]
                    evs.append(r["eigenvalue"])
                    count += 1
                for i in range(len(evs)):
                    for j in range(i):
                        ok = ok and not (evs[i] - evs[j]).is_zero()
                if s <= 3:
                    for i in range(s + 1):
                        d = kravchuk_orthogonality_denominator(case, i)
                        ok = ok and not d.is_zero()
        _announce(5, "q-Kravchuk eigenpairs", ok,
                  "%d eigenpairs, residuals identically zero" % count)


class TestCriterion6:
    def test_operator_and_central_spectrum(self):
        params = AWParams.from_labels(Fraction(3, 2), Fraction(5, 2), 0, 0)
        report = eigen_check(AWFunctional(params), 4)
        ok = (report["residual_zero"] and report["distinct"]
              and len(report["rows"]) == 5)

        datum = build_root_datum("A", 2)
        grid = [(0, 0), (1, 1), (3, 0), (0, 3)]  # dominant, height <= 3
        cols = {}
        for mu in [(1, 0), (1, 1)]:
            cols[mu] = [central_scalar(datum, lam, mu)[0] for lam in grid]
        # the non-symmetric label separates the grid on its own
        first = cols[(1, 0)]
        for i in range(len(grid)):
            for j in range(i):
                ok = ok and not (first[i] - first[j]).is_zero()
        # the joint spectrum over both labels is pairwise distinct
        joint = list(zip(cols[(1, 0)], cols[(1, 1)]))
        for i in range(len(grid)):
            for j in range(i):
                ok = ok and not all((a - b).is_zero()
                                    for a, b in zip(joint[i], joint[j]))
        _announce(6, "operator/central spectrum", ok,
                  "5 distinct operator eigenvalues; joint spectrum separates")


class TestCriterion7:
    def test_regularity_certificates(self):
        case = build_case("AI2")
        ok = True
        loci = []
        seqs = [(0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)]
        for K in seqs:
            rep = regularity_scalar(case.satake, K)
            exp = rep["exponent"]
            # R is a q power: nonzero everywhere, equal to 1 exactly on one
            # affine hyperplane, which we exhibit and probe on both sides
            ok = ok and not exp.is_constant()
            loci.append("K=%s: %s" % (list(K), rep["exceptional"]))
            on_h = _solve_on_locus(exp)
            val_on = regularity_scalar(case.satake, K, h=on_h)
            ok = ok and val_on["R"].is_one()
            off_h = tuple(x + 1 for x in on_h)
            val_off = regularity_scalar(case.satake, K, h=off_h)
            if not val_off["regular"]:
                off_h = tuple(x + 2 for x in on_h)
                val_off = regularity_scalar(case.satake, K, h=off_h)
            ok = ok and val_off["regular"]
        _announce(7, "regularity certificates", ok, "; ".join(loci))


def _solve_on_locus(exp):
    # integer point with const + sum coeffs*h = 0
    for h1 in range(-6, 7):
        for h2 in range(-6, 7):
            if exp.const + exp.coeffs[0] * h1 + exp.coeffs[1] * h2 == 0:
                return (h1, h2)
    raise AssertionError("no integer point on the locus")


class TestCriterion8:
    def test_gram_schmidt_vs_dense_solve(self, grid_cases):
        ok = True
        count = 0
        specs = []
        for cid in ("A2G", "DII:n=2"):
            specs.append(grid_cases[cid].family_spec)
        targets = {
            0: [((0, 1), (1, 1)), ((0, 1), (2, 0)), ((1,), (0, 1)),
                ((1,), (-1, 1)), ((1,), (1, 1))],
            1: [((0,), (2,)), ((0,), (3,)), ((), (2,)), ((), (-2,)),
                ((), (-1,))],
        }
        for idx, spec in enumerate(specs):
            for J, mu in targets[idx]:
                lhs = spec.family_member(J, mu)
                rhs = dense_solve_member(spec, J, mu)
                ok = ok and (lhs - rhs).is_zero()
                count += 1
        _announce(8, "dual-route families", ok, "%d members" % count)

    def test_freudenthal_vs_character(self):
        ok = True
        count = 0
        for series in ("A", "B"):
            datum = build_root_datum(series, 2)
            for a in range(0, 7):
                for b in range(0, 7):
                    lam = (a, b)
                    if datum.weyl_dim(lam) > 200:
                        continue
                    ok = ok and freudenthal(datum, lam) == weyl_character(
                        datum, lam)
                    count += 1
        _announce(8, "multiplicity oracle", ok,
                  "%d modules of dim <= 200" % count)

    def test_backend_agreement(self):
        rng = random.Random(2024)
        ok = True
        for _ in range(100):
            vals = []
            for _ in range(3):
                num = {rng.randint(-4, 4): rng.randint(-5, 5) for _ in range(3)}
                den = {0: rng.randint(1, 4), rng.randint(1, 3): rng.randint(-3, 3)}
                vals.append(ExactScalar(num, den))
            f, g, h = vals
            expr = f * g + h - f * h
            if not g.is_zero():
                expr = expr + f / (g * g + 1)
            lhs = expr.to_series(30)
            rf, rg, rh = (x.to_series(30) for x in vals)
            rhs = rf * rg + rh - rf * rh
            if not g.is_zero():
                rhs = rhs + rf / (rg * rg + 1)
            ok = ok and (lhs - rhs).is_zero()
        _announce(8, "backend agreement", ok, "100 random expressions")

    def test_series_route_cross_check(self):
        # the exact one-variable pairing route agrees with the truncated
        # constant-term route on the small-B weight
        case = build_case("BII:n=2,s=1")
        eng = WeightEngine(aw_weight(
            (case.aw.a, case.aw.b, case.aw.c, case.aw.d), case.lattice),
            order=60)
        norm = ct_norm(eng)
        ok = True
        for m in range(1, 5):
            for k in range(m):
                Pm = aw_oracle(case.aw, m, case.lattice)
                Pk = aw_oracle(case.aw, k, case.lattice)
                val = eng.ct_pair(Pm * Pk.invol_inv()) / norm
                ok = ok and val.is_zero() and val.prec >= 40
        _announce(8, "series pairing route", ok, "P_0..P_4 orthogonal to O(v^60)")
