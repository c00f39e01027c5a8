"""Host pace: a fixed reference kernel timed between operations.

On a shared host the speed of one core drifts by tens of percent over
seconds to minutes (the same pure-Python loop takes 0.17 s or 0.26 s a few
seconds apart, and its process time moves with its wall time, so the drift
is not preemption).  The pace flips between states about 2x apart within
a second or two, so a run measured in a slow spell reads slower than one in
a fast spell although the program did the same work.

The reference kernel is the kind of work the program does (interpreted
integer arithmetic and 2x2 float products through numpy) but none of its
code, and it allocates no objects the garbage collector tracks, so no change
to the program can make it slower or faster.  It is timed right before and
right after every operation, and the operation's time is scaled by
``NOMINAL_S`` over the mean of those two samples: it reads in seconds of a
host on which the kernel takes ``NOMINAL_S``.  A slower program still reads
slower, by the same share, while a spell of the host that spans the
operation moves the kernel and the program together and cancels.  The
kernel's time correlates with that of an in-process operation at about 0.9
(log-log, over 170 operations) but with that of a fresh interpreter only at
about 0.3, so times taken in other processes are left as measured.

On a 2-vCPU x86-64 host, five 40-45 s runs per workload gave a quartile
spread over seeds of 0.12-0.24 for the median latency as measured; read at
nominal pace, ten runs per workload gave 0.033 (deep-single) and 0.049
(many-trials), and 0.023 and 0.051 for the wall time.
"""

from __future__ import annotations

import time

import numpy as np

# median kernel time on a 2-vCPU x86-64 host with Python 3.11 and numpy 2.4;
# it fixes the unit of the scaled metrics and must not change between commits
NOMINAL_S = 0.028
KERNEL_STEPS = 12000

_ROTATION = np.array([[0.6, -0.8], [0.8, 0.6]])


def kernel() -> float:
    m = np.eye(2)
    acc = 0
    for i in range(KERNEL_STEPS):
        m = m @ _ROTATION
        acc += (i * i) % 7
    return float(m[0, 0]) + acc


class Pace:
    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> float:
        t0 = time.perf_counter()
        kernel()
        elapsed = time.perf_counter() - t0
        self.samples.append(elapsed)
        return elapsed


def scaled(seconds: float, pace_s: float) -> float:
    """A time measured while the kernel took ``pace_s``, at nominal pace."""
    return seconds * NOMINAL_S / pace_s
