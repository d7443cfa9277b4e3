"""Machine speed reference for the end-to-end times.

On a shared host the same op can take anywhere from 1x to 1.6x its
fastest time, in spells from under a second to minutes, and the process's
CPU time grows with it: the processor itself runs slower.  No statistic
over one run removes that.  So the benchmark times a fixed round of
pure-Python work just before and just after each timed op, in the same
process, and scales the op's wall time to the speed at which that round
takes ``REFERENCE_S``:

    scaled = wall time * REFERENCE_S / mean(reference() before, after)

Set-up times are scaled by a reference taken in the parent process just
before each start.

The round is benchmark code, so a change to the program moves the scaled
time by the same share as the wall time; only the machine's drift cancels.
Every run prints the unscaled wall times as well.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

# About one round's time on a 2-vCPU Intel Xeon KVM guest in its faster spells.
REFERENCE_S = 0.005
ROUNDS = 3


def reference_round() -> float:
    """Time one round of fixed work: Fraction sums and dict updates, the
    kind of interpreter work the program does.  The collector is off, so
    the program's heap does not change the round's cost."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc, table = Fraction(0), {}
        for i in range(1, 1500):
            acc += Fraction(i % 7, i)
            table[i % 97] = table.get(i % 97, 0) + i * i
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def reference() -> float:
    """The machine's current speed: median time of ``ROUNDS`` rounds."""
    return statistics.median(reference_round() for _ in range(ROUNDS))


def scale(wall: float, reference_s: float) -> float:
    """``wall`` seconds measured at ``reference_s`` per round, at the
    reference speed."""
    return wall * REFERENCE_S / reference_s
