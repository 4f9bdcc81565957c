"""Machine-speed calibration for the timing metrics.

The benchmark's box is shared: its speed drifts by 10-30% over seconds
to minutes while the program does exactly the same work, and process CPU
time drifts with wall time, so the cause is contention for the
processor and its memory, not scheduling.  Medians over a run cannot
remove drift on that time scale.

So every timing metric is also reported *at reference speed*: each raw
time is multiplied by ``REFERENCE_S / c``, where ``c`` is the time this
module's fixed kernel took right around that unit of work.  The kernel
does what the simulator's inner loop does -- fancy-index gathers and
bitwise updates over a (4096 lanes x 264 cells) ``uint64`` block -- so
it slows down when the program does.  It never calls the program, so a
change to the program moves the normalised numbers exactly as much as
the raw ones.  The raw numbers stay in the run record.
"""

import statistics
import time

import numpy as np

#: Seconds one :func:`probe` takes at reference speed (a 2-core Xeon
#: VM at its usual speed).  Only scales the normalised numbers.
REFERENCE_S = 0.03

_LANES, _CELLS, _READS = 4096, 264, 48


class Calibrator:
    """The fixed kernel, its inputs built once, and the probes taken."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._source = rng.integers(0, 2 ** 62, size=(_LANES, _CELLS),
                                    dtype=np.uint64)
        self._index = rng.integers(0, _CELLS, size=(_LANES, _READS))
        self._rows = np.arange(_LANES)[:, None]
        self.probes = []        # (monotonic time, seconds)

    def _kernel(self):
        acc = np.zeros((_LANES, _READS), dtype=np.uint64)
        for _ in range(20):
            acc |= self._source[self._rows, self._index]
            acc ^= acc >> np.uint64(3)
        return acc

    def probe(self, repeats=3):
        """Median kernel time over ``repeats`` calls, recorded."""
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - t0)
        seconds = statistics.median(times)
        self.probes.append((time.monotonic(), seconds))
        return seconds

    @staticmethod
    def factor(*probes):
        """Multiplier taking a raw time to reference speed, from the
        probes taken around it."""
        return REFERENCE_S / statistics.mean(probes)
