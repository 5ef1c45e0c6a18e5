"""CPU time rescaled to a reference CPU speed.

On a shared virtual machine the speed of a CPU second drifts: a neighbour on
the same physical core can make the same pure-Python work take 1.7 times
longer for minutes at a time, and the hypervisor also steals wall time.
Neither wall time nor CPU time of a fixed workload is then steady from one
run to the next.

``RefClock`` samples the speed while the program runs.  Every ``PERIOD_S``
CPU seconds a profiling-timer signal interrupts the program and times two
fixed calibration loops, ``REPEATS`` times each, keeping the fastest time
of each; the CPU time of the interval just ended is divided by the sum of
the two.  The total, multiplied by ``REF_LOOP_S``, is the CPU time the same
work would take on a CPU that runs both loops in ``REF_LOOP_S`` seconds.
The loops cost about 3% of the CPU time.

One loop computes and the other reads memory.  When a neighbour slows the
CPU, the compute loop alone slows less than the program under test and the
memory loop more; their sum tracks it within about 1.5%.

The loops are timed with a wall clock, so a repeat during which the
hypervisor stole the CPU, or which found its caches cold, reads slow;
keeping the fastest repeat discards it.  A sample in which a loop's second
or later repeat took more than ``DISTURBED`` times its fastest is counted
as disturbed, so that the share of such samples can be reported.
"""

import signal
import time
from array import array

REF_LOOP_S = 7.5e-5  # time of both loops on the reference CPU
PERIOD_S = 0.01     # CPU seconds between samples
REPEATS = 3         # timings of each loop per sample; the fastest is kept
DISTURBED = 1.5     # slowest / fastest repeat that marks a sample disturbed


# 1 MiB table read by the memory loop
_TABLE = array("q", range(1 << 17))


def _compute_loop():
    # small-int arithmetic and dict updates, like the coefficient loops of
    # the program under test
    d = {}
    x = 1
    for _ in range(200):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        k = x % 97
        d[k] = d.get(k, 0) + x
    return d


def _memory_loop():
    # reads spread over ``_TABLE``, which lean on the memory caches that a
    # neighbour on the same core shares
    table = _TABLE
    x = acc = 1
    for _ in range(200):
        x = (x * 1103515245 + 12345) & 0x1FFFF
        acc += table[x]
    return acc


def _fastest(loop):
    """(fastest, slowest but the first) of ``REPEATS`` timings of `loop`;
    the first timing often finds the caches cold after the program's work."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        loop()
        times.append(time.perf_counter() - start)
    return min(times), max(times[1:])


class RefClock:
    """Reads (CPU seconds, reference CPU seconds) since process start."""

    def __init__(self):
        self.cpu = 0.0     # process CPU time at the end of the last interval
        self.ref = 0.0
        self.samples = 0
        self.disturbed = 0
        self._busy = False

    def _sample(self, *_):
        if self._busy:
            return
        self._busy = True
        now = time.process_time()
        # the process CPU clock was seen not to advance inside this handler,
        # so the loops are timed with the monotonic clock
        fast_c, slow_c = _fastest(_compute_loop)
        fast_m, slow_m = _fastest(_memory_loop)
        self.ref += (now - self.cpu) * REF_LOOP_S / (fast_c + fast_m)
        self.samples += 1
        self.disturbed += (slow_c > DISTURBED * fast_c
                           or slow_m > DISTURBED * fast_m)
        self.cpu = now
        self._busy = False

    def start(self):
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_IGN)

    def read(self):
        """Close the current interval; return (cpu_s, ref_cpu_s)."""
        self._sample()
        return self.cpu, self.ref
