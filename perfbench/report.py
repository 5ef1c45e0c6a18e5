#!/usr/bin/env python3
"""Run every workload once and print its metrics by name, with units.

    python3 perfbench/report.py [--trace] [--out FILE]

Prints, for each workload, the end-to-end metrics (``ref_cpu_s``,
``setup_s``, ``peak_rss_mb``), the ``fail_ratio`` of its checks and the raw
CPU and wall times; with ``--trace`` also every per-layer metric.  ``--out``
writes the same figures and the machine stamp to a JSON file.  Each
workload is measured for ``run_seconds`` of ``BENCHMARK.json``, with seed
``SEED``.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

SEED = 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    seconds = run.load_spec()["run_seconds"]
    stamp = run.env_stamp()
    print("env %s" % json.dumps(stamp, sort_keys=True))
    results = {}
    for workload in run.WORKLOADS:
        rows = {}
        for trace in ([False, True] if args.trace else [False]):
            result, _, info = run.measure(workload, SEED, seconds, trace)
            rows.update({k: (m["value"], m["unit"])
                         for k, m in result["metrics"].items()})
            prefix = "traced." if trace else ""
            rows.update({prefix + k: (v, run.info_unit(k))
                         for k, v in info.items()})
        results[workload] = {k: {"value": v, "unit": u}
                             for k, (v, u) in rows.items()}
        print("\n[%s]" % workload)
        for name, (value, unit) in rows.items():
            print("  %-40s %14.6g %s" % (name, value, unit))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"env": stamp, "seed": SEED, "results": results},
                      fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
