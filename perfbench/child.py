"""Child side of the verify benchmark: one fresh interpreter per pass.

Protocol, one JSON object per line:

* the child imports ``macpoly.cli`` (and installs the tracer when started
  with ``--trace``), then writes ``{"cpu_s", "ref_cpu_s"}``, the CPU
  seconds it has used so far, interpreter start-up included, raw and
  rescaled to the reference speed (see ``refclock.py``);
* for every request line ``{"id": ..., "argv": [...]}`` read from stdin it
  calls ``macpoly.cli.main(["verify", *argv])`` and answers
  ``{"id", "cpu_s", "ref_cpu_s", "rc", "stdout"}``, or
  ``{"id", "cpu_s", "ref_cpu_s", "error"}`` if the call raised;
* at end of input it writes ``{"maxrss_kb", "ref_samples",
  "ref_disturbed", "trace"}`` and exits; the two counts are the reference
  clock's speed samples and how many of them were disturbed.

The verify report is the captured standard output of ``cli.main``; the
parent decodes and checks it.
"""

import sys

sys.dont_write_bytecode = True

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from refclock import RefClock  # noqa: E402


def _send(channel, obj):
    channel.write(json.dumps(obj) + "\n")
    channel.flush()


def main():
    channel = sys.stdout
    trace = "--trace" in sys.argv[1:]
    clock = RefClock()
    clock.start()
    from macpoly import cli

    entry = cli.main
    tracer = None
    if trace:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
        entry = tracer.wrap("cli.request", cli.main, coarse=True)
    cpu, ref = clock.read()
    _send(channel, {"cpu_s": cpu, "ref_cpu_s": ref})

    for line in sys.stdin:
        req = json.loads(line)
        if tracer is not None:
            tracer.request = req["id"]
        out, err = io.StringIO(), io.StringIO()
        reply = {"id": req["id"]}
        cpu0, ref0 = clock.read()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                reply["rc"] = entry(["verify"] + req["argv"])
            reply["stdout"] = out.getvalue()
        except SystemExit as exc:
            reply["error"] = "exit %r: %s" % (exc.code, err.getvalue()[-2000:])
        except Exception:
            reply["error"] = traceback.format_exc()[-4000:]
        cpu, ref = clock.read()
        reply["cpu_s"], reply["ref_cpu_s"] = cpu - cpu0, ref - ref0
        _send(channel, reply)

    clock.stop()

    final = {"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             "ref_samples": clock.samples, "ref_disturbed": clock.disturbed}
    if tracer is not None:
        final["trace"] = {
            "stats": {name: {"calls": st.calls, "self_s": st.self_s,
                             "incl_s": st.incl_s, "extra": st.extra}
                      for name, st in tracer.stats.items()},
            "spans": tracer.spans,
        }
    _send(channel, final)


if __name__ == "__main__":
    main()
