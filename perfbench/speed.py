"""How fast the host runs pure Python right now, sampled while passes run.

The benchmark runs on a shared host whose speed moves by 20-70 % in phases
of seconds to minutes; a slow phase costs CPU time as well as wall time.
prismring is pure Python (dicts keyed by packed integer monomials, modular
integer arithmetic), so a fixed reference kernel of the same kind slows
down with it. :class:`Sampler` runs that kernel from a ``SIGALRM`` handler
every ``INTERVAL_S`` seconds, in the benchmark's own thread, so it
interleaves with prismring's bytecode instead of competing with it for a
core. A pass's time minus the samples taken inside it, divided by the
host's speed during the pass, is its time at reference speed.

The kernel uses only the standard library and never calls prismring: a
change to the program cannot change the reference.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.25  # one sample every quarter second of measuring
REFERENCE_S = 0.010  # a kernel call at reference speed: near its median on the host in README.md
MOD = 1073741789
_TERMS = 48  # terms in each reducer of the kernel
_ROUNDS = 600  # reductions in one sample


def _kernel_inputs():
    """Fixed reducers, as in a GF(p) reducer: (packed monomial, coefficient)."""
    x = 12345
    reducers = []
    for _ in range(8):
        terms = []
        for _ in range(_TERMS):
            x = (x * 1103515245 + 12345) % 2**31
            terms.append(((x % 4096) << 32 | (x >> 12) % 4096, x % MOD))
        reducers.append(terms)
    return reducers


_REDUCERS = _kernel_inputs()


def kernel() -> int:
    """Fixed work in the style of ``_reduce_gf``; returns a check value."""
    r = {}
    for k in range(_ROUNDS):
        terms = _REDUCERS[k % len(_REDUCERS)]
        shift = (k % 16) << 32 | k % 16
        mult = k + 1
        for e, c in terms:
            ee = e + shift
            v = (r.get(ee, 0) - mult * c) % MOD
            if v:
                r[ee] = v
            else:
                r.pop(ee, None)
    return sum(r.values()) % MOD


KERNEL_CHECK = kernel()


def timed_kernel():
    """(wall, cpu) seconds of one kernel call."""
    w0, c0 = time.perf_counter(), time.process_time()
    if kernel() != KERNEL_CHECK:
        raise AssertionError("speed kernel returned a different value")
    return time.perf_counter() - w0, time.process_time() - c0


class Sampler:
    """Kernel samples taken on a timer while the ``with`` block runs.

    ``samples`` holds (start, wall, cpu) of every sample. ``window(a, b)``
    gives the samples that started in [a, b) and the wall and CPU time they
    took, so that a pass can leave them out of its own time.
    """

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []
        self._old = None
        self._busy = False

    def _tick(self, signum, frame):
        if self._busy:  # a tick that arrives during a sample is dropped
            return
        self._busy = True
        start = time.perf_counter()
        wall, cpu = timed_kernel()
        self.samples.append((start, wall, cpu))
        self._busy = False

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        if not self.samples:  # a block shorter than the interval
            self._tick(signal.SIGALRM, None)

    def window(self, start, end):
        inside = [s for s in self.samples if start <= s[0] < end]
        return inside, sum(s[1] for s in inside), sum(s[2] for s in inside)

