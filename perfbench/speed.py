"""Machine speed factor from a fixed reference kernel.

The speed of the shared 2-core machine this benchmark was written on drifts
by up to about 40% over minutes, mostly in what a forked command pays for
fork, copy-on-write and fresh pages; repetition inside a run of a minute
cannot average that out.  So, between commands, the parent times a fixed
kernel in a forked child, the way it times a command: fork, a little of the
arithmetic fsclass spends its time in (a 3-operand einsum in a Python loop,
a 4-index contraction, an SVD and an eigensolve), 32 MB of fresh pages,
exit.  Every reported time but setup_s (which has a reference process of
its own, see run.py:SetupProbes) is divided by

    factor = median kernel time in the run / NOMINAL_S,

that is, given in seconds at the speed at which the kernel takes NOMINAL_S.
In a 4-minute trial alternating the kernel with `corpus` passes, the
interquartile spread of pass times fell from 0.21 to 0.10 of the median this
way, where the same kernel run inside the parent did not help at all.  The
kernel does not depend on fsclass, so a change to the program still moves
every time metric by the ratio it changes the program's wall time.  Raw
times and the factor are printed and kept in the result file.
"""
from __future__ import annotations

import os
import statistics
import time

import numpy as np

NOMINAL_S = 0.065   # about the median kernel time on the machine above
EVERY_S = 1.0       # one kernel timing per this many command seconds


class Speed:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._c = (rng.standard_normal((20, 20, 20))
                   + 1j * rng.standard_normal((20, 20, 20)))
        self._m = rng.standard_normal((120, 120))
        self.times: list[float] = []
        self._since = 2 * EVERY_S

    def _kernel(self) -> None:
        c, v = self._c, self._c[0, 0]
        np.einsum("ijm,mkl->ijkl", c, c)
        np.linalg.svd(self._m)
        np.linalg.eig(self._m)
        for _ in range(400):
            np.einsum("i,j,ijk->k", v, v, c)
        fresh = np.ones(4_000_000)
        fresh += 1.0

    def poll(self, command_s: float) -> None:
        """Counts command time and times the kernel once per EVERY_S of it,
        so that long commands get as many timings as many short ones."""
        self._since += command_s
        n = int(self._since // EVERY_S)
        self._since -= n * EVERY_S
        for _ in range(n):
            t0 = time.perf_counter()
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    self._kernel()
                    code = 0
                finally:
                    os._exit(code)
            if os.waitpid(pid, 0)[1] != 0:
                raise RuntimeError("the reference kernel failed")
            self.times.append(time.perf_counter() - t0)

    def factor(self) -> float:
        return statistics.median(self.times) / NOMINAL_S
