"""A fixed load that gauges how fast the machine runs at the moment.

The reference machine is shared with other tenants, and its speed swings by
up to a factor of two over seconds to minutes; wall and CPU time both grow
in a slow spell. Before each call of the program, the worker asks this
module's server (``python3 perfbench/speed.py``, a process of its own that
never imports the program) to time one load. The harness then scales the
run's times by ``REFERENCE_S`` over the loads' median time, so a run made in
a slow spell reads like one made in a calm one. A change to the program does
not change the load, so it shows in full.

Protocol: each line read from standard input holds a count ``n``; the server
times ``n`` loads and answers with one line, the JSON list of their times.
It ends at the end of its input.

The load mixes what the workloads spend their time on: an interpreted
Python loop, ``eigh`` of a small symmetric matrix, small matrix products,
and two passes over an array larger than the processor's caches. The gauge
only tracks the calls' speed when it runs on the same CPU as they do; the
harness pins itself and all its children to one CPU.
"""

import json
import statistics
import sys
import time

# Median time of one load on the reference machine in a calm spell (see
# README.md); a scaled time is in seconds at that speed.
REFERENCE_S = 0.04


class Gauge:
    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        sym = rng.random((23, 23))
        self._sym = sym + sym.T
        self._mat = rng.random((60, 60))
        self._big = np.ones(8 * 2**20)  # 64 MiB
        self._eigh = np.linalg.eigh
        self.samples = []

    def _load(self) -> float:
        total = 0
        for i in range(120000):
            total += i * i
        for _ in range(240):
            self._eigh(self._sym)
        for _ in range(240):
            self._mat @ self._mat
        self._big *= 1.0
        return total + self._big.sum()

    def sample(self, reps: int) -> None:
        """Time ``reps`` loads."""
        for _ in range(reps):
            start = time.perf_counter()
            self._load()
            self.samples.append(time.perf_counter() - start)

    def factor(self) -> float:
        """Scale from this run's times to seconds at the reference speed."""
        return REFERENCE_S / statistics.median(self.samples)


def serve() -> int:
    gauge = Gauge()
    for line in sys.stdin:
        gauge.samples.clear()
        gauge.sample(int(line))
        print(json.dumps(gauge.samples), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(serve())
