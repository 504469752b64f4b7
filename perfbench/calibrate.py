"""A fixed calibration kernel that tracks the shared host's speed.

The host the benchmark runs on is shared with other machines' work, and
its speed drifts by 20% and more over minutes -- enough to swamp the
run-to-run comparison of a metric in plain seconds.  The benchmark
times this kernel right before every pass and once after the last, and
reports pass times in *reference seconds*: ``pass_s * REFERENCE_S /
kernel_s``, the time the pass would take on a host where the kernel
takes :data:`REFERENCE_S`.

The kernel mixes the three kinds of work the workloads do -- Python
bytecode, many small NumPy calls, and streaming over arrays larger than
the last-level cache -- and touches none of the program's code, so a
change to the program cannot move it.  It runs in a helper process,
started once and fed one request at a time while the benchmark waits,
so its 128 MiB of arrays stay out of the benchmark's peak RSS and no
load ever overlaps a pass.

Run as a script it serves requests: one line in, one kernel time out.
"""

from __future__ import annotations

import subprocess
import sys
import time

#: Median kernel time on the host the benchmark was defined on (Intel
#: Xeon, 2 vCPUs under KVM, 2 MiB L2, 105 MiB L3, NumPy 2.4).
REFERENCE_S = 0.065


def _kernel_timer():
    import numpy as np

    rng = np.random.default_rng(20261017)
    small = rng.random(2000)
    index = rng.integers(0, 2000, 500)
    counts = np.zeros(2000)
    big = rng.random(1 << 23)
    out = np.empty_like(big)

    def timed() -> float:
        tic = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        for _ in range(300):
            hits = np.nonzero(small < 0.3)[0]
            np.add.at(counts, index, 1.0)
            float(small[hits].sum())
        for _ in range(2):
            np.multiply(big, 1.0001, out=out)
            np.add(out, big, out=out)
        return time.perf_counter() - tic

    return timed


class Calibrator:
    """The kernel in a helper process; use as a context manager."""

    def __enter__(self) -> "Calibrator":
        self._process = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True,
        )
        return self

    def time(self) -> float:
        """Seconds one kernel run takes now."""
        self._process.stdin.write("\n")
        self._process.stdin.flush()
        line = self._process.stdout.readline()
        if not line:
            raise RuntimeError("calibration helper exited")
        return float(line)

    def __exit__(self, *exc) -> None:
        self._process.stdin.close()
        try:
            self._process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self._process.kill()
            self._process.wait()
        self._process.stdout.close()


def _serve() -> None:
    timed = _kernel_timer()
    timed()  # first touch of the arrays; not a measurement
    for _ in sys.stdin:
        print(timed(), flush=True)


if __name__ == "__main__":
    _serve()
