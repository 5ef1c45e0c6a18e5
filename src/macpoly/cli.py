"""Command-line front end: compute family members, run verification suites,
render weights and polynomials, list the available cases.

Exit codes: 0 success, 1 at least one verification check failed,
2 configuration error.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import sys

from . import weights as weights_mod
from .cases import (
    build_case,
    kravchuk_consistency,
    kravchuk_eigen,
    kravchuk_orthogonality_denominator,
    list_cases,
    parse_case_id,
)
from .families import eigen_check
from .roots import central_scalar, regularity_scalar
from .scalars import SeriesScalar

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


def _parse_label(case, text, J):
    """--lam as a label of `case` dominant for the indices J."""
    lam = _parse_coords(text)
    if len(lam) != case.rank:
        raise ConfigError("--lam needs %d coordinates" % case.rank)
    if not case.restricted.is_dominant(lam, J):
        raise ConfigError("--lam %s is not dominant for J=%s"
                          % (list(lam), list(J)))
    return lam


def _render_ga(f, fmt, wsym="\\varpi"):
    if fmt == "json":
        return json.dumps(f.to_json(), sort_keys=True)
    if fmt == "latex":
        parts = []
        for e, c in f.sorted_items():
            exps = "+".join("%d%s_%d" % (x, wsym, i + 1)
                            for i, x in enumerate(e) if x) or "0"
            parts.append("\\left(%s\\right) e^{%s}" % (c.render(), exps))
        return " + ".join(parts) or "0"
    return f.render()


def _matrix_json(M):
    """A matrix as JSON rows of its cells' `to_json` lists."""
    return json.dumps([[f.to_json() for f in row] for row in M],
                      sort_keys=True)


def _build_case(case_id, order=60):
    try:
        return build_case(case_id, order=order)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def cmd_cases(args):
    for c in list_cases():
        print(c)
    return 0


def cmd_compute(args):
    if args.J is not None and args.family != "intermediate":
        raise ConfigError("--J applies to --family intermediate only")
    case = _build_case(args.case, args.order)
    if args.family == "intermediate":
        J = case.J if args.J is None else _parse_coords(args.J, "--J")
    else:
        J = () if args.family == "nonsym" else tuple(range(case.rank))
    if not all(j in range(case.rank) for j in J):
        raise ConfigError("--J indices must lie in 0..%d, got %s"
                          % (case.rank - 1, list(J)))
    if len(set(J)) != len(J):
        raise ConfigError("--J repeats an index: %s" % list(J))
    lam = _parse_label(case, args.lam, J)
    if not J and case.rank != 1:
        raise ConfigError("non-symmetric family is rank-1 only")
    if case.aw is not None and J != tuple(range(case.rank)):
        raise ConfigError("case %s has only W-invariant families: it pairs "
                          "through the one-variable moment functional"
                          % case.tag)
    with _open_output(args.output) as fh:
        if args.family == "matrix":
            M = case.matrix_q(lam)
            print(_matrix_json(M) if args.format == "json"
                  else "\n".join(" | ".join(_render_ga(f, args.format)
                                            for f in row) for row in M),
                  file=fh)
            return 0
        out = case.family_spec.family_member(J, lam)
        print(_render_ga(out, args.format), file=fh)
    return 0


def _open_output(path):
    """The output stream; a file is opened before any work, so a bad path
    costs none."""
    if not path:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w")
    except OSError as exc:
        raise _path_error(exc) from None


def _path_error(exc):
    return ConfigError("cannot use %r: %s" % (exc.filename, exc.strerror))


def cmd_render(args):
    if args.lam is not None and args.what != "Q":
        raise ConfigError("--lam applies to --what Q only")
    case = _build_case(args.case)
    if args.what == "Q":
        lam = _parse_label(case, "0" if args.lam is None else args.lam,
                           range(case.rank))
    with _open_output(args.output) as fh:
        if args.what == "M":
            M = case.matrix_weight
        else:
            M = case.matrix_q(lam)
        wsym = "\\varpi"
        if args.basis == "ambient":
            M = [[f.map_exponents(case.satake.from_restricted) for f in row]
                 for row in M]
            wsym = "\\omega"
        if args.format == "json":
            text = _matrix_json(M)
        else:
            rows = [[_render_ga(f, args.format, wsym) for f in row]
                    for row in M]
            if args.format == "latex":
                body = " \\\\\n".join(" & ".join(r) for r in rows)
                text = "\\begin{pmatrix}\n%s\n\\end{pmatrix}" % body
            else:
                text = "\n".join(" | ".join(r) for r in rows)
        print(text, file=fh)
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
    # the J-dominant mu whose t_map lands in the labels of height H - 1;
    # the box holds each of their preimages
    labels = set(case.restricted.grid(H - 1))
    box = range(-2 * H - 4, 2 * H + 5)
    return [mu for mu in itertools.product(box, repeat=2)
            if case.restricted.is_dominant(mu, case.J)
            and case.t_map(mu)[1] in labels]


def run_verify(case_id, height=2, order=60):
    try:
        if height < 0:
            raise ValueError("height must be >= 0, got %d" % height)
        # the exact rational reconstruction behind AI2's q -> 1/q check
        # needs a comfortable working order
        raised = 0 < order < 100 and parse_case_id(case_id)[0] == "AI2"
        case = build_case(case_id, order=100 if raised else order)
    except ValueError as exc:
        return {"error": str(exc)}, CONFIG_ERROR
    if raised:
        print("note: AI2 runs at order 100, not %d, for the q -> 1/q check"
              % order, file=sys.stderr)
    checks = []

    def error(exc):
        return {"status": "error",
                "detail": "%s: %s" % (type(exc).__name__, exc)}

    def record(name, check):
        # a check that raises is recorded as an error; later checks still run
        try:
            result = check()
        except Exception as exc:
            result = error(exc)
        entry = {"name": name}
        entry.update(result)
        checks.append(entry)

    record("bottom_normalisation", case.bottom_normalisation_check)
    record("matrix_weight", case.matrix_weight_check)
    record("weight_symmetry", case.weight_symmetry_check)
    if case.t is not None:
        record("ratio_identity", case.delta0_identity_check)

    try:
        case.matrix_weight  # every pairing reads it
        grid = case.restricted.grid(height)
    except Exception as exc:
        # the checks over the label grid need the matrix weight: record why
        # they are skipped and run the others
        checks.append({"name": "grid_setup", **error(exc)})
        grid = None

    def orthogonality():
        # all distinct column pairs; the certified order is the lowest
        # precision among series Gram entries
        ok = True
        certified = None
        for i, lam in enumerate(grid):
            for mu in grid[: i + 1]:
                blocks = case.gram_block(lam, mu)
                nb = len(blocks)
                for r in range(nb):
                    for c in range(nb):
                        val = blocks[r][c]
                        if isinstance(val, SeriesScalar):
                            certified = (val.prec if certified is None
                                         else min(certified, val.prec))
                        if lam == mu and r == c:
                            if val.is_zero():
                                ok = False
                        elif not val.is_zero():
                            ok = False
        return {"status": "pass" if ok else "fail",
                "grid": [list(g) for g in grid],
                "certified_order": "exact" if certified is None else certified}

    if grid is not None:
        record("orthogonality", orthogonality)

    def identification():
        # why each failing label failed; a passing check has no such key
        idents = [case.identify(mu) for mu in _identify_grid(case, height)]
        failures = {str(r["mu"]): r.get("detail") for r in idents
                    if r["status"] != "pass"}
        return {"status": "fail" if failures else "pass",
                "constants": {str(r["mu"]): r.get("constant") for r in idents},
                **({"failures": failures} if failures else {})}

    if grid is not None:
        record("identification", identification)

    def q_inversion():
        # every label that does not pass, as qinv_check reports it; the
        # check is a shortfall when no recovered entry breaks q -> 1/q
        failed = []
        for lam in grid:
            res = case.qinv_check(lam)
            if res["status"] != "pass":
                failed.append({"lambda": list(lam), **res})
        if not failed:
            return {"status": "pass"}
        broken = any(f["status"] == "fail" for f in failed)
        return {"status": "fail" if broken else "shortfall",
                "failed_labels": failed}

    if grid is not None:
        record("q_inversion", q_inversion)

    def recurrence():
        rec = case.recurrence_coeffs(0, grid[min(1, len(grid) - 1)])
        ok = (rec["residual_zero"] and rec["steps_in_weights"]
              and rec["top_nonzero"])
        return {"status": "pass" if ok else "fail"}

    if grid is not None:
        record("recurrence", recurrence)

    if case.aw is not None:
        def kravchuk():
            s = case.extra["s"]
            ok = kravchuk_consistency(case)
            evs = []
            for i in range(s + 1):
                r = kravchuk_eigen(case, i)
                ok = ok and r["residual_zero"] and r["nonzero"]
                evs.append(r["eigenvalue"])
            ok = ok and all(not (evs[i] - evs[j]).is_zero()
                            for i in range(len(evs)) for j in range(i))
            ok = ok and not kravchuk_orthogonality_denominator(case, 0).is_zero()
            return {"status": "pass" if ok else "fail"}

        record("kravchuk_eigen", kravchuk)

        def difference_operator():
            # operator diagonalisation on the identified one-variable
            # family, and its functional's moments against the family
            report = eigen_check(case.aw_functional(case.aw), 4)
            ok = (report["residual_zero"] and report["distinct"]
                  and report["annihilated"])
            return {"status": "pass" if ok else "fail"}

        record("difference_operator", difference_operator)

    if case.tag == "AI2":
        def regularity():
            hyper = []
            ok = True
            for K in ((0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)):
                rep = regularity_scalar(case.satake, K)
                if rep["exponent"].is_constant() and rep["exponent"].const == 0:
                    ok = False
                hyper.append({"K": list(K), "locus": rep.get("exceptional")})
            return {"status": "pass" if ok else "fail", "exceptional": hyper}

        record("regularity", regularity)

        def central_spectrum():
            # the first column separates the grid by itself; the
            # diagram-symmetric column only separates jointly (the
            # flip-related pair 3w1/3w2 shares its value there, by the flip
            # symmetry)
            datum = case.datum
            grid6 = [(0, 0), (1, 1), (3, 0), (0, 3)]
            cols = {}
            for mu in [(1, 0), (1, 1)]:
                cols[mu] = [central_scalar(datum, lam, mu)[0] for lam in grid6]
            ok = True
            first = cols[(1, 0)]
            for i in range(len(grid6)):
                for j in range(i):
                    if (first[i] - first[j]).is_zero():
                        ok = False
            joint = list(zip(*cols.values()))
            for i in range(len(grid6)):
                for j in range(i):
                    if all((a - b).is_zero() for a, b in zip(joint[i], joint[j])):
                        ok = False
            return {"status": "pass" if ok else "fail",
                    "grid": [list(g) for g in grid6]}

        record("central_spectrum", central_spectrum)

    status = 0 if all(c["status"] == "pass" for c in checks) else CHECK_FAILED
    report = {"case": case.tag, "order": case.order,
              "height": height, "checks": checks}
    return report, status


def cmd_verify(args):
    try:
        weights_mod.set_cache_dir(args.cache_dir)
    except OSError as exc:
        raise _path_error(exc) from None
    with _open_output(args.report) as fh:
        report, status = run_verify(args.case, height=args.lambda_height,
                                    order=args.order)
        print(json.dumps(report, indent=2, sort_keys=True), file=fh)
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
    p.add_argument("--format", default="text", choices=["text", "json", "latex"])
    p.add_argument("--output", default=None)
    p.set_defaults(fn=cmd_compute)

    p = sub.add_parser("verify", help="run the verification suite for a case")
    p.add_argument("--case", required=True)
    p.add_argument("--lambda-height", type=int, default=2)
    p.add_argument("--order", type=int, default=60)
    p.add_argument("--report", default=None)
    p.add_argument("--cache-dir")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("render", help="render the weight matrix or a member")
    p.add_argument("--case", required=True)
    p.add_argument("--what", default="M", choices=["M", "Q"])
    p.add_argument("--lam", "--lambda", dest="lam", default=None)
    p.add_argument("--format", default="latex", choices=["text", "json", "latex"])
    p.add_argument("--basis", default="restricted",
                   choices=["restricted", "ambient"],
                   help="exponent basis for rendering")
    p.add_argument("--output", default=None)
    p.set_defaults(fn=cmd_render)

    # argparse reads a label such as -1,2 as an option: join it to its flag
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] in ("--lam", "--lambda") and argv[i][1:2].isdigit():
            argv[i - 1:i + 1] = [argv[i - 1] + "=" + argv[i]]
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
