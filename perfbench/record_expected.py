#!/usr/bin/env python3
"""Write ``perfbench/expected.json``: for every request of every workload,
the checks its verify report must contain, each with its name, status and
result fields (``constants``, ``scalar``, ``grid``, ``exceptional``).

Run it only on a commit whose reports are known to be right; the file in
the repository was recorded on the commit that introduced the benchmark,
where every check of every request passes::

    python3 perfbench/record_expected.py
"""

import sys

sys.dont_write_bytecode = True

import json  # noqa: E402
import os  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402


def main():
    expected = {}
    for workload in run.WORKLOADS:
        requests = run.requests_for(workload, 0)
        never = {rid: [] for rid, _ in requests}
        p = run.run_pass(workload, requests, never)
        expected[workload] = {}
        for rid, _ in requests:
            reply = p["replies"][rid]
            if reply is None or "error" in reply or reply["rc"] != 0:
                sys.exit("error: %s did not pass: %s" % (rid, reply))
            checks = json.loads(reply["stdout"])["checks"]
            expected[workload][rid] = [run.result_view(c) for c in checks]
    with open(run.EXPECTED, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
