"""Command-line front end: compute family members, run verification suites,
render weights and polynomials, list the available cases.

Exit codes: 0 success, 1 at least one verification check failed,
2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import weights as weights_mod
from .cases import (
    build_case,
    kravchuk_consistency,
    kravchuk_eigen,
    kravchuk_orthogonality_denominator,
    list_cases,
)
from .families import (
    aw_eigenvalue,
    aw_operator_apply,
    aw_oracle,
    intermediate_macdonald,
    nonsym_macdonald,
    sym_macdonald,
)
from .roots import central_scalar, regularity_scalar

CONFIG_ERROR = 2
CHECK_FAILED = 1


class ConfigError(ValueError):
    """A bad command-line value; reported in one line with exit code 2."""


def _parse_coords(text, flag="--lam"):
    try:
        return tuple(int(x) for x in text.split(",") if x.strip() != "")
    except ValueError:
        raise ConfigError("%s needs comma-separated integers, got %r"
                          % (flag, text)) from None


def _render_ga(f, fmt, symbol="e", wsym="\\varpi"):
    if fmt == "json":
        return json.dumps(f.to_json(), sort_keys=True)
    if fmt == "latex":
        parts = []
        for e, c in f.sorted_items():
            cr = c.render() if hasattr(c, "render") else repr(c)
            exps = "+".join("%d%s_%d" % (x, wsym, i + 1)
                            for i, x in enumerate(e) if x) or "0"
            parts.append("\\left(%s\\right) %s^{%s}" % (cr, symbol, exps))
        return " + ".join(parts) or "0"
    return f.render(symbol)


def cmd_cases(args):
    for c in list_cases():
        print(c)
    return 0


def cmd_compute(args):
    try:
        case = build_case(args.case)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return CONFIG_ERROR
    case.order = args.order
    lam = _parse_coords(args.lam)
    if len(lam) != case.rank:
        print("error: --lam needs %d coordinates" % case.rank, file=sys.stderr)
        return CONFIG_ERROR
    if args.family == "intermediate":
        J = _parse_coords(args.J, "--J") if args.J else case.J
    else:
        J = () if args.family == "nonsym" else tuple(range(case.rank))
    if not all(j in range(case.rank) for j in J):
        raise ConfigError("--J indices must lie in 0..%d, got %s"
                          % (case.rank - 1, list(J)))
    if not case.restricted.is_dominant(lam, J):
        raise ConfigError("--lam %s is not dominant for J=%s"
                          % (list(lam), list(J)))
    hint = max(args.height, case.restricted.height2(case.restricted.dominant_rep(lam)) + 2)
    spec = case.family_spec(2 * hint)
    if args.family == "sym":
        out = sym_macdonald(spec, lam)
    elif args.family == "nonsym":
        if case.rank != 1:
            print("error: non-symmetric family is rank-1 only", file=sys.stderr)
            return CONFIG_ERROR
        out = nonsym_macdonald(spec, lam[0])
    elif args.family == "intermediate":
        out = intermediate_macdonald(spec, J, lam)
    elif args.family == "matrix":
        case.set_grid_height(case.restricted.height2(
            case.restricted.dominant_rep(lam)) + 1)
        Qm = case.matrix_q(lam)
        rows = [[_render_ga(Qm[i, j], args.format) for j in range(Qm.size)]
                for i in range(Qm.size)]
        text = (json.dumps(rows, sort_keys=True) if args.format == "json"
                else "\n".join(" | ".join(r) for r in rows))
        _emit(text, args.output)
        return 0
    else:
        print("error: unknown family %r" % args.family, file=sys.stderr)
        return CONFIG_ERROR
    _emit(_render_ga(out, args.format), args.output)
    return 0


def _emit(text, output):
    if output:
        with open(output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_render(args):
    try:
        case = build_case(args.case)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return CONFIG_ERROR
    if args.what == "M":
        M = case.matrix_weight()
    else:
        lam = _parse_coords(args.lam)
        case.set_grid_height(case.restricted.height2(
            case.restricted.dominant_rep(lam)) + 1)
        M = case.matrix_q(lam)
    wsym = "\\varpi"
    if args.basis == "ambient":
        M = M.map_entries(lambda f: f.relabel(
            "X-view", case.satake.from_restricted))
        wsym = "\\omega"
    rows = [[_render_ga(M[i, j], args.format, "e", wsym)
             for j in range(M.size)] for i in range(M.size)]
    if args.format == "latex":
        body = " \\\\\n".join(" & ".join(r) for r in rows)
        _emit("\\begin{pmatrix}\n%s\n\\end{pmatrix}" % body, args.output)
    elif args.format == "json":
        _emit(json.dumps(rows, sort_keys=True), args.output)
    else:
        _emit("\n".join(" | ".join(r) for r in rows), args.output)
    return 0


# ---------------------------------------------------------------------------
# verification suite
# ---------------------------------------------------------------------------


def _identify_grid(case, H):
    if case.rank == 1:
        if case.aw is not None:
            return [(m,) for m in range(H + 1)]
        out = [(0,)]
        for m in range(1, H + 1):
            out += [(m,), (-m,)]
        return out
    out = []
    for lam in case.restricted.grid(H - 1):
        for b in range(len(case.bottoms)):
            mu = _t_inverse(case, b, lam)
            if mu is not None:
                out.append(mu)
    return sorted(set(out))


def _t_inverse(case, b, lam):
    H = case.restricted.height2(case.restricted.dominant_rep(lam)) + 2
    box = range(-2 * H - 2, 2 * H + 3)
    for mu in ([(m,) for m in box] if case.rank == 1
               else [(x, y) for x in box for y in box]):
        if case.restricted.is_dominant(mu, case.J) and case.t_map(mu) == (b, tuple(lam)):
            return mu
    return None


def run_verify(case_id, height=2, order=60):
    if height < 0:
        return ({"error": "lambda height must be >= 0, got %d" % height},
                CONFIG_ERROR)
    try:
        case = build_case(case_id)
    except ValueError as exc:
        return {"error": str(exc)}, CONFIG_ERROR
    if case.tag == "AI2":
        # the exact rational reconstruction behind the q -> 1/q check needs
        # a comfortable working order
        order = max(order, 100)
    case.order = order
    checks = []

    def record(name, result):
        entry = {"name": name}
        entry.update(result)
        checks.append(entry)

    case.bottom_restrictions()
    record("bottom_normalisation", {"status": "pass"})
    record("matrix_weight", case.matrix_weight_check())
    record("weight_symmetry", case.weight_symmetry_check())
    if case.t is not None:
        record("ratio_identity", case.delta0_identity_check())

    case.set_grid_height(height)
    grid = case.restricted.grid(height)
    # orthogonality: all distinct column pairs
    ortho_ok = True
    for i, lam in enumerate(grid):
        for mu in grid[: i + 1]:
            blocks = case.gram_block(lam, mu)
            nb = len(blocks)
            for r in range(nb):
                for c in range(nb):
                    val = blocks[r][c]
                    if lam == mu and r == c:
                        if val.is_zero():
                            ortho_ok = False
                    elif not val.is_zero():
                        ortho_ok = False
    record("orthogonality", {"status": "pass" if ortho_ok else "fail",
                             "grid": [list(g) for g in grid]})

    idents = [case.identify(mu) for mu in _identify_grid(case, height)]
    record("identification", {
        "status": "pass" if all(r["status"] == "pass" for r in idents) else "fail",
        "constants": {str(r["mu"]): r.get("constant") for r in idents}})

    qinv_ok = all(case.qinv_check(lam)["status"] == "pass" for lam in grid)
    record("q_inversion", {"status": "pass" if qinv_ok else "fail"})

    rec = case.recurrence_coeffs(0, grid[min(1, len(grid) - 1)])
    record("recurrence", {
        "status": "pass" if rec["residual_zero"] and rec["steps_in_weights"]
        and rec["top_nonzero"] else "fail"})

    if case.aw is not None:
        s = case.extra["s"]
        eig_ok = kravchuk_consistency(case)
        evs = []
        for i in range(s + 1):
            r = kravchuk_eigen(case, i)
            eig_ok = eig_ok and r["residual_zero"] and r["nonzero"]
            evs.append(r["eigenvalue"])
        eig_ok = eig_ok and all(not (evs[i] - evs[j]).is_zero()
                                for i in range(len(evs)) for j in range(i))
        eig_ok = eig_ok and not kravchuk_orthogonality_denominator(case, 0).is_zero()
        record("kravchuk_eigen", {"status": "pass" if eig_ok else "fail"})
        # operator diagonalisation on the identified one-variable family
        op_ok = True
        seen = []
        for m in range(5):
            P = aw_oracle(case.aw, m, case.lattice)
            lam_m = aw_eigenvalue(case.aw, m)
            if not (aw_operator_apply(case.aw, P) - P.scale(lam_m)).is_zero():
                op_ok = False
            if any((lam_m - x).is_zero() for x in seen):
                op_ok = False
            seen.append(lam_m)
        record("difference_operator", {"status": "pass" if op_ok else "fail"})

    if case.tag == "AI2":
        hyper = []
        reg_ok = True
        seqs = [((0,),), ((1,),), ((0, 0),), ((0, 1),), ((1, 0),), ((1, 1),)]
        for (K,) in seqs:
            rep = regularity_scalar(case.satake, tuple(() for _ in K), K)
            if rep["exponent"].is_constant() and rep["exponent"].const == 0:
                reg_ok = False
            hyper.append({"K": list(K), "locus": rep.get("exceptional")})
        record("regularity", {"status": "pass" if reg_ok else "fail",
                              "exceptional": hyper})
        # spectrum separation: the first column separates the grid by itself;
        # the diagram-symmetric column only separates jointly (the flip-related
        # pair 3w1/3w2 shares its value there, by the flip symmetry)
        datum = case.datum
        grid6 = [(0, 0), (1, 1), (3, 0), (0, 3)]
        cols = {}
        for mu in [(1, 0), (1, 1)]:
            cols[mu] = [central_scalar(datum, lam, mu)[0] for lam in grid6]
        spec_ok = True
        first = cols[(1, 0)]
        for i in range(len(grid6)):
            for j in range(i):
                if (first[i] - first[j]).is_zero():
                    spec_ok = False
        joint = list(zip(*cols.values()))
        for i in range(len(grid6)):
            for j in range(i):
                if all((a - b).is_zero() for a, b in zip(joint[i], joint[j])):
                    spec_ok = False
        record("central_spectrum", {"status": "pass" if spec_ok else "fail",
                                    "grid": [list(g) for g in grid6]})

    status = 0 if all(c["status"] == "pass" for c in checks) else CHECK_FAILED
    report = {"case": case.tag, "preset": "flip", "order": order,
              "height": height, "checks": checks}
    return report, status


def cmd_verify(args):
    if args.cache_dir:
        weights_mod.set_cache_dir(args.cache_dir)
    report, status = run_verify(args.case, height=args.lambda_height,
                                order=args.order)
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    if "error" in report:
        print("error: %s" % report["error"], file=sys.stderr)
    else:
        for c in report["checks"]:
            print("%-22s %s" % (c["name"], c["status"]), file=sys.stderr)
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="macpoly",
        description="exact families of vector-valued orthogonal polynomials")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cases", help="list case identifiers")
    p.set_defaults(fn=cmd_cases)

    p = sub.add_parser("compute", help="compute one family member")
    p.add_argument("--case", required=True)
    p.add_argument("--family", default="sym",
                   choices=["sym", "nonsym", "intermediate", "matrix"])
    p.add_argument("--J", default=None, help="comma separated parabolic indices")
    p.add_argument("--lam", "--lambda", dest="lam", required=True)
    p.add_argument("--order", type=int, default=60)
    p.add_argument("--height", type=int, default=4)
    p.add_argument("--format", default="text", choices=["text", "json", "latex"])
    p.add_argument("--output", default=None)
    p.set_defaults(fn=cmd_compute)

    p = sub.add_parser("verify", help="run the verification suite for a case")
    p.add_argument("--case", required=True)
    p.add_argument("--lambda-height", type=int, default=2)
    p.add_argument("--order", type=int, default=60)
    p.add_argument("--report", default=None)
    p.add_argument("--cache-dir", default=os.environ.get("MACPOLY_CACHE"))
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("render", help="render the weight matrix or a member")
    p.add_argument("--case", required=True)
    p.add_argument("--what", default="M", choices=["M", "Q"])
    p.add_argument("--lam", "--lambda", dest="lam", default="0")
    p.add_argument("--format", default="latex", choices=["text", "json", "latex"])
    p.add_argument("--basis", default="restricted",
                   choices=["restricted", "ambient"],
                   help="exponent basis for rendering")
    p.add_argument("--output", default=None)
    p.set_defaults(fn=cmd_render)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
