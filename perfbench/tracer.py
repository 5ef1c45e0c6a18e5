"""Outside-in layer tracing for the verify benchmark.

The wrappers are installed from here onto the public functions and methods
of the ``macpoly`` modules; nothing inside ``src/`` knows about them.  Every
wrapped call lands on one call stack, so a function's self time is its
duration minus the time covered by the wrapped calls it made.

Two kinds of target:

* hot ops (``scalars``, ``galg``, ``roots``) are only aggregated into a
  call count, a self time and an inclusive time, because there are
  millions of them;
* coarse spans (``cases``, ``families``, ``weights``, ``cli``) are also kept
  in memory as ``(name, start, end, parent, request)`` tuples, where
  ``parent`` is the index of the enclosing coarse span or -1.

Inclusive time (``incl``) counts only outermost calls of a name, so a
recursive function such as ``ExampleCase.vector_member`` is not counted
twice.
"""

from __future__ import annotations

import functools
import importlib
import os
import time

MODULES = ("scalars", "galg", "weights", "families", "cases", "roots", "cli")

# (module, attribute path, metric name, coarse?)
TARGETS = [
    ("scalars", "ExactScalar.__init__", "scalars.ExactScalar.init", False),
    ("scalars", "ExactScalar.__add__", "scalars.ExactScalar.add", False),
    ("scalars", "ExactScalar.__sub__", "scalars.ExactScalar.sub", False),
    ("scalars", "ExactScalar.__mul__", "scalars.ExactScalar.mul", False),
    ("scalars", "ExactScalar.__truediv__", "scalars.ExactScalar.div", False),
    ("scalars", "ExactScalar.to_series", "scalars.ExactScalar.to_series", False),
    ("scalars", "_lp_gcd", "scalars.lp_gcd", False),
    ("scalars", "SeriesScalar.__init__", "scalars.SeriesScalar.init", False),
    ("scalars", "SeriesScalar.__add__", "scalars.SeriesScalar.add", False),
    ("scalars", "SeriesScalar.__mul__", "scalars.SeriesScalar.mul", False),
    ("scalars", "SeriesScalar.inv", "scalars.SeriesScalar.inv", False),
    ("scalars", "rational_reconstruct", "scalars.rational_reconstruct", False),
    ("galg", "GAElement.__mul__", "galg.GAElement.mul", False),
    ("galg", "solve_linear", "galg.solve_linear", False),
    ("roots", "RootDatum.dominance_leq", "roots.dominance_leq", False),
    ("roots", "RestrictedSystem.dominance_leq", "roots.dominance_leq", False),
    ("roots", "freudenthal", "roots.freudenthal", False),
    ("roots", "central_scalar", "roots.central_scalar", False),
    ("roots", "regularity_scalar", "roots.regularity_scalar", False),
    ("weights", "WeightEngine.__init__", "weights.WeightEngine.init", True),
    ("weights", "WeightEngine._build_series", "weights.WeightEngine.build_series", True),
    ("weights", "WeightEngine.ct_pair", "weights.WeightEngine.ct_pair", True),
    ("families", "orthogonalize_step", "families.orthogonalize_step", True),
    ("families", "AWFunctional.value", "families.AWFunctional.value", True),
    ("families", "aw_oracle", "families.aw_oracle", True),
    ("families", "PolyFamilySpec.family_member", "families.PolyFamilySpec.family_member", True),
    ("cases", "ExampleCase.vector_member", "cases.vector_member", True),
    ("cases", "ExampleCase.gram_block", "cases.gram_block", True),
    ("cases", "ExampleCase.identify", "cases.identify", True),
    ("cases", "ExampleCase.qinv_check", "cases.qinv_check", True),
    ("cases", "ExampleCase.recurrence_coeffs", "cases.recurrence_coeffs", True),
    ("cases", "ExampleCase.matrix_weight_check", "cases.matrix_weight_check", True),
    ("cases", "kravchuk_eigen", "cases.kravchuk", True),
    ("cases", "kravchuk_consistency", "cases.kravchuk", True),
    ("cases", "kravchuk_orthogonality_denominator", "cases.kravchuk", True),
]


class Stat:
    __slots__ = ("calls", "self_s", "incl_s", "depth", "extra")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0
        self.depth = 0
        self.extra = {}


class Tracer:
    """One call stack shared by every wrapper installed in a process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = []       # per active call: [child seconds, span index]
        self.spans = []       # (name, start, end, parent, request)
        self.stats = {}
        self.request = None   # id of the verify request being served

    def stat(self, name):
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        return st

    def wrap(self, name, fn, coarse=False, after=None):
        """Return fn timed under `name`; `after(st, args, result)` may add
        work counts to ``st.extra``."""
        st = self.stat(name)
        stack, spans, clock = self.stack, self.spans, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            if coarse:
                span = len(spans)
                spans.append(None)
            else:
                span = parent
            frame = [0.0, span]
            stack.append(frame)
            st.depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                st.depth -= 1
                dur = end - start
                if stack:
                    stack[-1][0] += dur
                st.calls += 1
                st.self_s += dur - frame[0]
                if not st.depth:
                    st.incl_s += dur
                if coarse:
                    spans[span] = (name, start, end, parent, self.request)
            if after is not None:
                after(st, args, result)
            return result

        return traced


def _count_gcd(st, args, result):
    if result == {0: 1}:
        st.extra["trivial"] = st.extra.get("trivial", 0) + 1


def _count_term_pairs(st, args, result):
    a, b = args[0], args[1]
    terms = getattr(b, "terms", None)
    if terms is not None:
        st.extra["term_pairs"] = (st.extra.get("term_pairs", 0)
                                  + len(a.terms) * len(terms))


AFTER = {"scalars.lp_gcd": _count_gcd, "galg.GAElement.mul": _count_term_pairs}


def _cache_probe(tracer, weights_mod, fn):
    """Wrap WeightEngine._build_series to count disk-cache hits and misses.

    A call with a cache directory set is a hit when it leaves the directory
    listing unchanged (the file existed before the call) and a miss when it
    adds files; the added bytes are counted as written.
    """
    st = tracer.stat("weights.cache")

    @functools.wraps(fn)
    def probed(*args, **kwargs):
        path = weights_mod._cache_dir
        if path is None:
            return fn(*args, **kwargs)
        before = set(os.listdir(path))
        result = fn(*args, **kwargs)
        added = set(os.listdir(path)) - before
        ex = st.extra
        if added:
            ex["misses"] = ex.get("misses", 0) + 1
            ex["bytes_written"] = ex.get("bytes_written", 0) + sum(
                os.path.getsize(os.path.join(path, f)) for f in added)
        else:
            ex["hits"] = ex.get("hits", 0) + 1
        return result

    return probed


def _replace_everywhere(modules, old, new):
    """Point every module-level name bound to `old` at `new`, so that
    by-name imports (``from .families import orthogonalize_step``) see the
    wrapper too."""
    for mod in modules.values():
        for key, val in list(vars(mod).items()):
            if val is old:
                setattr(mod, key, new)


def install(tracer):
    """Install the wrappers; return the names of targets that are missing.

    A target that no longer exists (for example ``scalars._lp_gcd`` once
    the gcd is gone) is skipped, and its metrics are reported as absent.
    """
    modules = {m: importlib.import_module("macpoly." + m) for m in MODULES}
    missing = []
    for mod_name, path, name, coarse in TARGETS:
        owner = modules[mod_name]
        parts = path.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part, None)
        attr = parts[-1]
        fn = vars(owner).get(attr) if owner is not None else None
        if fn is None:
            missing.append(name)
            continue
        new = tracer.wrap(name, fn, coarse, AFTER.get(name))
        if name == "weights.WeightEngine.build_series":
            new = _cache_probe(tracer, modules["weights"], new)
        if isinstance(owner, type):
            # aliases such as ``__rmul__ = __mul__`` share the function
            for key, val in list(vars(owner).items()):
                if val is fn:
                    setattr(owner, key, new)
        else:
            _replace_everywhere(modules, fn, new)
    return missing
