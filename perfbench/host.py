"""Fixed reference work that measures how fast the shared host runs right now.

On a shared machine the speed of the same code drifts by tens of percent
over minutes, as other tenants come and go.  run.py times a reference
kernel, which does not use the package, after every job, and divides the
job's time by the mean of the kernel times just before and just after it.
That cancels most of the drift, because the kernel slows down with the job.
Each workload uses the kernel closest to its own work: interpreter-bound
Python (loops, float formatting, small lists) or dense LAPACK (eigh).
Set-up, which starts a fresh interpreter, is normalised by that
interpreter's own import of numpy (see run.py).
"""
from __future__ import annotations

import time

import numpy as np

# Round values near each kernel's typical time on a 2-core x86-64 VM
# (Python 3.11, numpy 2.4, OpenBLAS with one thread).  They only fix the
# scale: a normalised job time is the time the job would take on a host
# where the kernel ran in exactly this long.
NOMINAL_S = {"python": 0.020, "blas": 0.020, "numpy_import": 0.100}


def _python_kernel() -> None:
    total, cells = 0.0, []
    for i in range(30000):
        total += i * 0.5
        cells.append(repr(total))
    ",".join(cells).split(",")


class Reference:
    """Times one kind of reference kernel; `kind` is "python" or "blas"."""

    def __init__(self, kind: str):
        self.kind = kind
        self.nominal_s = NOMINAL_S[kind]
        matrix = np.random.default_rng(0).standard_normal((330, 330))
        self._matrix = matrix + matrix.T

    def seconds(self) -> float:
        started = time.perf_counter()
        if self.kind == "python":
            _python_kernel()
        else:
            np.linalg.eigh(self._matrix)
        return time.perf_counter() - started
