#!/usr/bin/env python3
"""Benchmark of ``macpoly verify``, driven through ``macpoly.cli.main``.

Usage, from the repository root::

    python3 perfbench/run.py --workload exact-grid --seed 1 --seconds 32 --trace 0

A run makes passes over one workload's requests.  Each pass is a closed loop
with one client: a fresh child interpreter (``perfbench/child.py``) imports
``macpoly.cli`` and serves the requests one at a time, and this process
times every request from outside and checks every report.

``--trace 0`` prints the end-to-end metrics (medians over the passes that fit
in ``--seconds``); ``--trace 1`` makes one untraced and two traced passes and
prints the per-layer metrics.  Lines starting with ``#`` give the machine,
every pass, and figures that are not gated, such as wall times.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; ``attempted`` counts expected
verify checks and ``failed`` those that did not hold (their ratio is the
``fail_ratio`` printed on the line before).  See ``README.md``.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
EXPECTED = os.path.join(HERE, "expected.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

SETUP_SAMPLES = 15       # child spawns per untraced run, passes included
CHILD_DEADLINE_S = 150   # a child still busy after this is killed
RESULT_FIELDS = ("constants", "scalar", "grid", "exceptional")

SMALL_B = [k % s for k in ("BII:n=2,s=%d", "BII:n=3,s=%d", "CII:n=3,s=%d")
           for s in range(3)]

# name -> (requests as (case, height, role), shuffled by the seed?)
WORKLOADS = {
    "exact-grid": ([("A2G", 2, ""), ("AII5", 2, "")], True),
    "series-cache": ([("AI2", 1, "cold"), ("AI2", 1, "warm")], False),
    "one-variable": ([(c, 2, "") for c in SMALL_B], True),
}


def label(case, height, role=""):
    """Metric-safe request name, e.g. ``BII-n2-s0-h2`` or ``AI2-h1.cold``."""
    name = "%s-h%d" % (case.replace(":", "-").replace("=", "")
                       .replace(",", "-"), height)
    return name + ("." + role if role else "")


def requests_for(workload, seed):
    """The run's requests as (label, verify argv without --cache-dir)."""
    reqs, shuffled = WORKLOADS[workload]
    reqs = list(reqs)
    if shuffled:
        random.Random(seed).shuffle(reqs)
    return [(label(c, h, r), ["--case", c, "--lambda-height", str(h),
                              "--order", "60"]) for c, h, r in reqs]


# ---------------------------------------------------------------------------
# child process
# ---------------------------------------------------------------------------


class ChildDied(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    # verify --cache-dir defaults to MACPOLY_CACHE; an inherited value would
    # turn cold weight expansions into cache reads
    env.pop("MACPOLY_CACHE", None)
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


class Child:
    """A fresh interpreter serving verify requests over a line protocol."""

    def __init__(self, cwd, trace=False):
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-B", CHILD] + (["--trace"] if trace else []),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            cwd=cwd, env=child_env())
        self.watchdog = threading.Timer(CHILD_DEADLINE_S, self.proc.kill)
        self.watchdog.start()
        try:
            ready = self._recv()
        except ChildDied:
            self.close()
            raise
        self.setup_wall_s = time.perf_counter() - start
        self.setup_s = ready["ref_cpu_s"]

    def _recv(self):
        line = self.proc.stdout.readline()
        if not line:
            raise ChildDied("child exited early (code %s)" % self.proc.poll())
        return json.loads(line)

    def request(self, rid, argv):
        """Serve one request; return (wall seconds, reply)."""
        start = time.perf_counter()
        self.proc.stdin.write(json.dumps({"id": rid, "argv": argv}) + "\n")
        self.proc.stdin.flush()
        reply = self._recv()
        return time.perf_counter() - start, reply

    def finish(self):
        """End input and return the child's final message."""
        self.proc.stdin.close()
        try:
            return self._recv()
        finally:
            self.close()

    def close(self):
        if self.proc.poll() is None and not self.proc.stdin.closed:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_DEADLINE_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.watchdog.cancel()
        self.proc.stdout.close()


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------


def load_expected():
    with open(EXPECTED) as fh:
        return json.load(fh)


def result_view(check):
    """The parts of a check compared across reports; cost fields such as
    per-check seconds, counters or plans are ignored."""
    return {k: check[k] for k in ("name", "status") + RESULT_FIELDS if k in check}


def failed_checks(expected, reply):
    """Names of expected checks that did not hold in one reply."""
    names = [c["name"] for c in expected]
    if reply is None or "error" in reply or reply.get("rc") != 0:
        return set(names)
    try:
        report = json.loads(reply["stdout"])
        got = {c["name"]: result_view(c) for c in report["checks"]}
    except (ValueError, KeyError, TypeError):
        return set(names)
    return {c["name"] for c in expected if got.get(c["name"]) != c}


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


def run_pass(workload, requests, expected, trace=False):
    """One fresh child serves every request once.

    Returns a dict with ``ref_cpu_s`` and ``cpu_s`` (the child's CPU
    seconds over all requests, with and without rescaling), ``wall_s``
    (first request start to last request end, as seen from this process),
    ``setup_s``, ``rss_mb``, ``attempted``, ``failed``, the reference
    clock's ``ref_samples`` and ``ref_disturbed``, the replies and, when
    traced, the trace.
    """
    cache = workload == "series-cache"
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        cache_dir = os.path.join(tmp, "cache")
        os.mkdir(cache_dir)
        out = {"attempted": 0, "failed": 0, "replies": {}, "seconds": {},
               "cpu_s": 0.0, "ref_cpu_s": 0.0}
        child = Child(tmp, trace)
        out["setup_s"] = child.setup_s
        out["setup_wall_s"] = child.setup_wall_s
        first = last = None
        alive = True
        after_cold = []
        try:
            for rid, argv in requests:
                if cache:
                    argv = argv + ["--cache-dir", cache_dir]
                reply = None
                if alive:
                    try:
                        secs, reply = child.request(rid, argv)
                        t_end = time.perf_counter()
                        first = (t_end - secs) if first is None else first
                        last = t_end
                        out["seconds"][rid] = secs
                        out["cpu_s"] += reply["cpu_s"]
                        out["ref_cpu_s"] += reply["ref_cpu_s"]
                    except ChildDied:
                        alive = False
                out["replies"][rid] = reply
                bad = failed_checks(expected[rid], reply)
                out["attempted"] += len(expected[rid])
                out["failed"] += len(bad)
                if rid.endswith(".cold"):
                    after_cold = sorted(os.listdir(cache_dir))
            final = child.finish() if alive else {}
        finally:
            child.close()
        if cache:
            # the warm report must match the cold one, and the warm request
            # must read the cold request's cache files, not write new ones
            cold, warm = (out["replies"].get(r) for r, _ in requests)
            reused = bool(after_cold) and sorted(os.listdir(cache_dir)) == after_cold
            out["attempted"] += 1
            out["failed"] += int(not reused or not same_results(cold, warm))
    out["wall_s"] = (last - first) if first is not None else None
    out["rss_mb"] = final.get("maxrss_kb", 0) / 1024.0
    out["ref_samples"] = final.get("ref_samples", 0)
    out["ref_disturbed"] = final.get("ref_disturbed", 0)
    out["trace"] = final.get("trace")
    return out


def same_results(a, b):
    try:
        ra, rb = (json.loads(r["stdout"])["checks"] for r in (a, b))
    except (TypeError, KeyError, ValueError):
        return False
    return [result_view(c) for c in ra] == [result_view(c) for c in rb]


def setup_probe():
    """Spawn a child that only imports ``macpoly.cli``, then end it."""
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        child = Child(tmp)
        child.finish()
        return child


# ---------------------------------------------------------------------------
# per-layer metrics from a traced pass
# ---------------------------------------------------------------------------

# self time of a layer (or class) summed over these traced targets
SELF_GROUPS = {
    "scalars.ExactScalar": ["scalars.ExactScalar." + m
                            for m in ("init", "add", "sub", "mul", "div")],
    "scalars.SeriesScalar": ["scalars.SeriesScalar." + m
                             for m in ("init", "add", "mul", "inv")],
    "roots": ["roots.dominance_leq", "roots.freudenthal",
              "roots.central_scalar", "roots.regularity_scalar"],
    "cli": ["cli.request"],
}
EXTRA_FIELDS = ("term_pairs", "hits", "misses", "bytes_written")


def layer_value(name, trace):
    """Value of per-layer metric `name` in one traced pass, or None when the
    targets it reads no longer exist (the tracer then has no stat for them)."""
    stats = trace["stats"]
    if name.startswith("cli.request."):
        rid = name[len("cli.request."):-len(".s")]
        return sum(s[2] - s[1] for s in trace["spans"]
                   if s[0] == "cli.request" and s[4] == rid)
    target, field = name.rsplit(".", 1)
    if field == "self_s" and target in SELF_GROUPS:
        parts = [stats[t]["self_s"] for t in SELF_GROUPS[target] if t in stats]
        return sum(parts) if parts else None
    st = stats.get(target)
    if st is None:
        return None
    if field == "calls":
        return st["calls"]
    if field == "self_s":
        return st["self_s"]
    if field == "s":
        return st["incl_s"]
    if field == "trivial_ratio":
        return st["extra"].get("trivial", 0) / st["calls"] if st["calls"] else 0.0
    if field in EXTRA_FIELDS:
        return st["extra"].get(field, 0)
    raise KeyError("no rule for per-layer metric %r" % name)


def counts(trace):
    return {n: (s["calls"], sorted(s["extra"].items()))
            for n, s in trace["stats"].items()}


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def median_of(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def run_untraced(workload, seed, seconds, expected):
    """Passes until `seconds` are spent, plus set-up-only children.

    ``ref_cpu_s`` is the CPU time the child spends serving the requests,
    rescaled to the reference CPU speed (``refclock.py``): for this
    single-threaded program CPU time is the wall time a user waits on an
    unshared machine, and the rescaling removes the drift of CPU speed
    on a shared one.  ``setup_s`` is the child's CPU time from its start
    to ``macpoly.cli`` imported, rescaled the same way; it leaves out time
    the child spends waiting, which on a shared machine swings with steal.
    Raw CPU and wall times, spawn-to-ready wall time included, are
    returned in ``info``.
    """
    requests = requests_for(workload, seed)
    probes = [setup_probe() for _ in range(SETUP_SAMPLES - 1)]
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(workload, requests, expected))
        elapsed = time.perf_counter() - start
        # start another pass only if it is expected to end within budget
        if elapsed + elapsed / len(passes) > seconds:
            break
    metrics = {
        "ref_cpu_s": median_of(p["ref_cpu_s"] for p in passes),
        "setup_s": statistics.median(
            [c.setup_s for c in probes] + [p["setup_s"] for p in passes]),
        "peak_rss_mb": median_of(p["rss_mb"] for p in passes),
    }
    info = {"cpu_s": median_of(p["cpu_s"] for p in passes),
            "wall_s": median_of(p["wall_s"] for p in passes),
            "setup_wall_s": statistics.median(
                [c.setup_wall_s for c in probes]
                + [p["setup_wall_s"] for p in passes]),
            "ref_disturbed_share": disturbed_share(passes)}
    return passes, metrics, info


def disturbed_share(passes):
    """Share of the reference clock's samples that were disturbed."""
    samples = sum(p["ref_samples"] for p in passes)
    return sum(p["ref_disturbed"] for p in passes) / samples if samples else 0.0


def info_unit(name):
    return "s" if name.endswith("_s") else "ratio"


def run_traced(workload, seed, expected, wanted):
    """One untraced and two traced passes; per-layer metrics.

    Counts come from the first traced pass and must repeat exactly in the
    second; times are the median of the two.
    """
    requests = requests_for(workload, seed)
    plain = run_pass(workload, requests, expected)
    traced = [run_pass(workload, requests, expected, trace=True)
              for _ in range(2)]
    metrics = {}
    repeat = all(p["trace"] for p in traced)
    if repeat:
        repeat = counts(traced[0]["trace"]) == counts(traced[1]["trace"])
        for m in wanted:
            name = m["name"]
            if name == "trace.overhead_ratio":
                value = (median_of(p["ref_cpu_s"] for p in traced)
                         / plain["ref_cpu_s"] if plain["ref_cpu_s"] else None)
            elif m["unit"] == "s":
                vals = [layer_value(name, p["trace"]) for p in traced]
                value = None if None in vals else statistics.median(vals)
            else:
                value = layer_value(name, traced[0]["trace"])
            if value is not None:
                metrics[name] = value
    # the traced passes must make exactly the same calls
    plain["attempted"] += 1
    plain["failed"] += int(not repeat)
    info = {"ref_cpu_s": plain["ref_cpu_s"],
            "traced_ref_cpu_s": median_of(p["ref_cpu_s"] for p in traced),
            "ref_disturbed_share": disturbed_share([plain] + traced)}
    return [plain] + traced, metrics, info


def env_stamp():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit, dirty = "unknown", None
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or "unknown"
        if commit != "unknown":
            dirty = bool(subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"],
                cwd=ROOT, capture_output=True, text=True,
                timeout=10).stdout.strip())
    except (OSError, subprocess.SubprocessError):
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "commit": commit,
            "dirty": dirty}


def load_spec():
    with open(SPEC) as fh:
        return json.load(fh)


def measure(workload, seed, seconds, trace):
    """Run one workload.

    Returns ``(result, passes, info)``: the result object printed last by
    ``main``, the raw passes, and figures printed for information only
    (wall times, which include time stolen by the hypervisor).
    """
    spec = load_spec()
    expected = load_expected()[workload]
    if trace:
        wanted = spec["per_layer"]
        passes, values, info = run_traced(workload, seed, expected, wanted)
    else:
        wanted = spec["end_to_end"]
        passes, values, info = run_untraced(workload, seed, seconds, expected)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if values.get(m["name"]) is not None}
    info["fail_ratio"] = failed / attempted
    return ({"correct": failed == 0, "attempted": attempted, "failed": failed,
             "metrics": metrics}, passes, info)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "macpoly", "cli.py")):
        print("error: no macpoly sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    seconds = args.seconds
    if seconds is None:
        seconds = load_spec()["run_seconds"]
    try:
        result, passes, info = measure(args.workload, args.seed, seconds,
                                       args.trace)
    except ChildDied as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    order = [rid for rid, _ in requests_for(args.workload, args.seed)]
    print("# env %s" % json.dumps(env_stamp(), sort_keys=True))
    print("# workload %s seed %d order %s" % (args.workload, args.seed,
                                               " ".join(order)))
    for p in passes:
        print("#   pass ref_cpu_s %.4f cpu_s %.4f wall_s %s setup_s %.4f "
              "rss_mb %.2f failed %d/%d disturbed %d/%d traced %s"
              % (p["ref_cpu_s"], p["cpu_s"],
                 "-" if p["wall_s"] is None else "%.4f" % p["wall_s"],
                 p["setup_s"], p["rss_mb"], p["failed"], p["attempted"],
                 p["ref_disturbed"], p["ref_samples"], p["trace"] is not None))
    for name, m in result["metrics"].items():
        print("# %s %s %s" % (name, m["value"], m["unit"]))
    for name, value in info.items():
        print("# %s %s %s" % (name, value, info_unit(name)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
