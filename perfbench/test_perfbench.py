"""Tests of the benchmark itself (not collected by the repository's suite).

    python3 -m pytest -q perfbench
"""

import json
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from tracer import TARGETS, Tracer, install  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SMALL = [("DII-n3-h1", ["--case", "DII:n=3", "--lambda-height", "1"]),
         ("BII-n2-s1-h1", ["--case", "BII:n=2,s=1", "--lambda-height", "1"])]


def test_traced_counts_repeat():
    none = {rid: [] for rid, _ in SMALL}
    a, b = (run.run_pass("small", SMALL, none, trace=True) for _ in range(2))
    assert a["failed"] == b["failed"] == 0
    assert run.counts(a["trace"]) == run.counts(b["trace"])
    stats = a["trace"]["stats"]
    assert stats["scalars.ExactScalar.init"]["calls"] > 0
    assert stats["families.AWFunctional.value"]["calls"] > 0
    # request spans are top level and carry their request id
    reqs = [s for s in a["trace"]["spans"] if s[0] == "cli.request"]
    assert [(s[3], s[4]) for s in reqs] == [(-1, rid) for rid, _ in SMALL]
    # every per-layer metric but the overhead ratio is read from the trace
    for m in run.load_spec()["per_layer"]:
        if m["name"] != "trace.overhead_ratio":
            assert run.layer_value(m["name"], a["trace"]) is not None, m["name"]


def test_install_patches_by_name_imports():
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    from macpoly import cases, cli, families, roots, scalars

    tracer = Tracer()
    assert install(tracer) == []
    assert cases.orthogonalize_step is families.orthogonalize_step
    assert hasattr(families.orthogonalize_step, "__wrapped__")
    assert cli.central_scalar is roots.central_scalar
    assert hasattr(roots.central_scalar, "__wrapped__")
    scalars.ExactScalar.from_int(2) * scalars.ExactScalar.from_int(3)
    assert tracer.stats["scalars.ExactScalar.mul"].calls == 1


def test_missing_target_is_absent_not_zero():
    trace = {"spans": [],
             "stats": {"scalars.ExactScalar.init": {
                 "calls": 3, "self_s": 0.5, "incl_s": 0.5, "extra": {}}}}
    assert run.layer_value("scalars.lp_gcd.calls", trace) is None
    assert run.layer_value("scalars.lp_gcd.trivial_ratio", trace) is None
    assert run.layer_value("scalars.ExactScalar.init.calls", trace) == 3
    assert run.layer_value("scalars.ExactScalar.self_s", trace) == 0.5
    assert run.layer_value("roots.self_s", trace) is None


def test_self_time_excludes_child_spans():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])

    def inner():
        now[0] += 2.0

    def outer():
        now[0] += 1.0
        traced_inner()
        now[0] += 3.0

    traced_inner = tracer.wrap("m.inner", inner, coarse=True)
    traced_outer = tracer.wrap("m.outer", outer, coarse=True)
    tracer.request = "r1"
    traced_outer()
    out, inn = tracer.stats["m.outer"], tracer.stats["m.inner"]
    assert (out.calls, out.self_s, out.incl_s) == (1, 4.0, 6.0)
    assert (inn.calls, inn.self_s, inn.incl_s) == (1, 2.0, 2.0)
    assert tracer.spans == [("m.outer", 0.0, 6.0, -1, "r1"),
                            ("m.inner", 1.0, 3.0, 0, "r1")]


def test_recursive_inclusive_time_counts_outermost_call():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])

    def rec(n):
        now[0] += 1.0
        if n:
            traced(n - 1)

    traced = tracer.wrap("m.rec", rec)
    traced(2)
    st = tracer.stats["m.rec"]
    assert (st.calls, st.self_s, st.incl_s) == (3, 3.0, 3.0)


def test_failed_checks():
    expected = [{"name": "a", "status": "pass"},
                {"name": "b", "status": "pass", "grid": [[0]]}]

    def reply(checks, rc=0):
        return {"rc": rc, "stdout": json.dumps({"checks": checks})}

    ok = [{"name": "a", "status": "pass", "seconds": 1.5},
          {"name": "b", "status": "pass", "grid": [[0]], "counters": {}},
          {"name": "new_check", "status": "pass"}]
    assert run.failed_checks(expected, reply(ok)) == set()
    assert run.failed_checks(expected, reply(ok[:1])) == {"b"}
    bad = [dict(ok[0], status="fail"), ok[1]]
    assert run.failed_checks(expected, reply(bad)) == {"a"}
    moved = [ok[0], dict(ok[1], grid=[[1]])]
    assert run.failed_checks(expected, reply(moved)) == {"b"}
    assert run.failed_checks(expected, reply(ok, rc=1)) == {"a", "b"}
    assert run.failed_checks(expected, {"error": "boom"}) == {"a", "b"}
    assert run.failed_checks(expected, None) == {"a", "b"}


def test_seed_permutes_requests():
    first = run.requests_for("one-variable", 1)
    assert first == run.requests_for("one-variable", 1)
    assert sorted(first) == sorted(run.requests_for("one-variable", 2))
    orders = {tuple(r for r, _ in run.requests_for("one-variable", s))
              for s in range(5)}
    assert len(orders) > 1
    for seed in range(5):
        assert [r for r, _ in run.requests_for("series-cache", seed)] == [
            "AI2-h1.cold", "AI2-h1.warm"]


def test_expected_covers_every_request():
    expected = run.load_expected()
    assert sorted(expected) == sorted(run.WORKLOADS)
    for workload in run.WORKLOADS:
        rids = sorted(r for r, _ in run.requests_for(workload, 0))
        assert sorted(expected[workload]) == rids
        for checks in expected[workload].values():
            assert checks and all(c["status"] == "pass" for c in checks)


def test_benchmark_json_shape():
    spec = run.load_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    names = [m["name"] for k in ("end_to_end", "per_layer") for m in spec[k]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])
    requests = {r for w in run.WORKLOADS for r, _ in run.requests_for(w, 0)}
    assert {n[len("cli.request."):-2] for n in names
            if n.startswith("cli.request.")} == requests
    traced = {t[2] for t in TARGETS}
    for n in names:
        if n.endswith((".calls", ".self_s", ".s")) and not n.startswith(
                ("cli.", "trace.")) and n.rsplit(".", 1)[0] not in run.SELF_GROUPS:
            assert n.rsplit(".", 1)[0] in traced, n
