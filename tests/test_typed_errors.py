"""Checks on data and results raise typed errors, never `assert`, so that
`python -O` keeps them."""

import ast
import json
import os
import subprocess
import sys

import macpoly

SRC = os.path.dirname(macpoly.__file__)


def test_no_assert_in_src():
    found = []
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as fh:
                tree = ast.parse(fh.read(), name)
            found += ["%s:%d" % (name, node.lineno) for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)]
    assert found == []


def test_checks_hold_under_optimize():
    code = (
        "import dataclasses, json, sys\n"
        "from macpoly.cases import build_case\n"
        "from macpoly.galg import solve_linear\n"
        "from macpoly.scalars import ExactScalar\n"
        "def outcome(fn):\n"
        "    try:\n"
        "        return ['returned', repr(fn())]\n"
        "    except ValueError as exc:\n"
        "        return ['ValueError', str(exc)]\n"
        "case = build_case('DII:n=2')\n"
        "short = [case.bottom_weights[0], case.bottom_weights[1][:1]]\n"
        "bad = dataclasses.replace(case, bottom_weights=short)\n"
        "one = ExactScalar.one()\n"
        "print(json.dumps([sys.flags.optimize,\n"
        "                  outcome(lambda: bad.matrix_weight),\n"
        "                  outcome(lambda: solve_linear([[one]], [one, one]))]))\n")
    done = subprocess.run([sys.executable, "-O", "-c", code],
                          env=dict(os.environ,
                                   PYTHONPATH=os.path.dirname(SRC)),
                          capture_output=True, text=True, check=True)
    assert json.loads(done.stdout) == [
        1,
        ["ValueError", "bottom 1 lists the weights [(1, 0)], bottom 0 lists "
                       "[(1, 0), (-1, 0)]"],
        ["ValueError", "1 rows but 2 right-hand-side rows"]]
