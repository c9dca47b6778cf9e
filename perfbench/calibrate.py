"""Machine-speed calibration for timings taken on a shared, noisy host.

On a small shared sandbox the speed of this process moves by 20-60% for
seconds to minutes at a time with other tenants' load.  A fixed reference
task, timed between items, tracks that speed: each timed interval is
multiplied by ``nominal / c``, with ``c`` the median of the latest reference
samples, so timings read as on the host at its quiet speed.  Two references:

- a pure-Python ``Fraction`` loop (~0.45 ms, before every item) for the exact
  in-process work;
- a miniature of a spectral item in numpy (quartic roots, a sampled square
  root with sheet continuation; ~0.4 ms, before every item) for the numpy
  layer, which contention slows less than pure Python;
- a cold interpreter importing numpy and the stdlib modules the CLI uses
  (~120 ms, every second) for work that starts processes (set-up, cli-cold).

The nominal values are the references' times on a quiet core of the
reference machine (2-vCPU x86-64 sandbox, Python 3.11, numpy 2.4).
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from fractions import Fraction

LOOP_NOMINAL_S = 0.45e-3
NUMPY_NOMINAL_S = 0.39e-3
PROCESS_NOMINAL_S = 0.118
PROCESS_CODE = "import argparse, csv, fractions, json, numpy"


def _loop():
    s = Fraction(0)
    d = {}
    for i in range(1, 200):
        s += Fraction(i % 7 + 1, i)
        d[i % 13] = d.get(i % 13, 0) + i
    return s


def _numpy_loop(np, c, z):
    s = 0j
    for k in range(6):
        r = np.roots(c)
        w = np.sqrt(np.polyval(c, z + 0.01 * k))
        flip = np.abs(w[1:] - w[:-1]) > np.abs(w[1:] + w[:-1])
        s += complex(np.sum(w[1:] * np.cumprod(np.where(flip, -1.0, 1.0)))) + complex(r[0])
    return s


class Calibration:
    """Running estimate of the speed factor (quiet time / current time)."""

    def __init__(self, task, nominal_s, every_s, window):
        self._task = task
        self.nominal = nominal_s
        self._every = every_s
        self._window = window
        self.samples: list[float] = []
        self._next = 0.0

    def tick(self, force: bool = False):
        """Time the reference task if ``every_s`` has passed since the last time."""
        now = time.perf_counter()
        if force or now >= self._next:
            t0 = time.perf_counter()
            self._task()
            self.samples.append(time.perf_counter() - t0)
            self._next = time.perf_counter() + self._every

    def fill(self):
        for _ in range(self._window):
            self.tick(force=True)

    def factor(self) -> float:
        return self.nominal / statistics.median(self.samples[-self._window:])


def loop_calibration() -> Calibration:
    return Calibration(_loop, LOOP_NOMINAL_S, every_s=0.0, window=5)


def numpy_calibration() -> Calibration:
    import numpy as np  # only here, so cli-cold's set-up never loads numpy

    c = np.array([0.7, 1.2 - 0.1j, 0.5, -0.3 + 0.2j, 1.0])
    z = 1.5 * np.exp(2j * np.pi * np.arange(256) / 256)
    return Calibration(lambda: _numpy_loop(np, c, z), NUMPY_NOMINAL_S, every_s=0.0, window=5)


def process_calibration(env, cwd) -> Calibration:
    def task():
        subprocess.run([sys.executable, "-c", PROCESS_CODE], env=env, cwd=cwd,
                       capture_output=True, check=True, timeout=60)
    return Calibration(task, PROCESS_NOMINAL_S, every_s=1.0, window=3)
