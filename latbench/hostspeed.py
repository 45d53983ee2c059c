"""Host speed probe: a fixed pure-Python kernel timed between operations.

The benchmark runs on a few cores of a shared host whose speed drifts with
the load of its other tenants: the same curves counted a minute apart took
up to 35% longer or shorter, on every family at once.  That drift is the
host's, not the program's, so the benchmark times this kernel around its
set-ups and operations and scales their times to a fixed reference speed:

    scaled time = measured time * REFERENCE_PROBE_S / median probe time

The kernel calls nothing in latcurve, so a change to the library moves the
scaled times exactly as it moves the measured ones.  It mixes what the
library spends its time on: an interpreted small-int loop, products and
quotients of integers of a few hundred bits, Fraction sums and short-lived
lists of integers.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

# A fixed reference probe time, near the median on the host the benchmark
# was defined on (CPython 3.11.7, 2-core x86-64 container).  It sets the
# scale of the reported times and nothing else.
REFERENCE_PROBE_S = 0.010

_A = 3**400
_B = 7**380


def kernel() -> int:
    s = 0
    for i in range(12000):
        s += i * i % 7
    for i in range(1200):
        s += (_A + i) * (_B - i) // (_A - i) % 7
    f = Fraction(0)
    for i in range(1, 250):
        f += Fraction(i, i + 7)
    rows = [[j * 3**30 for j in range(30)] for _ in range(600)]
    return s + f.numerator % 7 + len(rows)


class HostSpeed:
    """The probe times of one pass, and the slowdown its times are divided by."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> None:
        start = perf_counter()
        kernel()
        self.samples.append(perf_counter() - start)

    def slowdown(self) -> float:
        """Median probe time over the reference: above 1 on a slow host."""
        return statistics.median(self.samples) / REFERENCE_PROBE_S

    def describe(self) -> str:
        return (
            f"host speed: median probe {1e3 * statistics.median(self.samples):.3f} ms over "
            f"{len(self.samples)} probes, reference {1e3 * REFERENCE_PROBE_S:.3f} ms; "
            f"times are divided by {self.slowdown():.4f}"
        )
