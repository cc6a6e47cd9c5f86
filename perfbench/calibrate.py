"""Machine-speed calibration: a fixed numpy/scipy kernel timed next to each run.

The shared host this benchmark was defined on drifts in speed by up to 20%
over tens of seconds, which moves wall-clock medians between processes far
more than the run-to-run noise inside one.  Scaling each run's wall time by
the speed of a fixed kernel timed just before and just after it cancels part
of that drift: over ten processes per workload the interquartile spread of the
scaled median was 0.03-0.13 of its median, against 0.07-0.20 for raw wall
time.  The kernel tracks the numpy/scipy-bound workloads best and the
interpreter-bound identity suite least.

The kernel mixes the kinds of work levelcurv does (a sparse LU factorization,
batched small dense solves, an einsum contraction and an interpreted loop) and
uses no levelcurv code, so a change to levelcurv leaves it unchanged.
"""

from __future__ import annotations

import statistics
import time

# About the median kernel time (0.08-0.12 s measured) on the machine the
# benchmark was defined on: a 2-vCPU Intel Xeon VM, Python 3.11.7, numpy
# 2.4.6, scipy 1.17.1, one BLAS thread.  Scaled times are wall seconds at the
# speed where the kernel takes this long.
REFERENCE_KERNEL_S = 0.1
REPEATS = 5


class Calibration:
    def __init__(self):
        import numpy as np
        import scipy.sparse as sp

        n1, n2 = 64, 128
        e1, e2 = np.ones(n1), np.ones(n2)
        radial = sp.diags([-e1[1:], 2.2 * e1, -e1[1:]], [-1, 0, 1])
        angular = sp.diags([-e2[1:], 2.0 * e2, -e2[1:]], [-1, 0, 1]).tolil()
        angular[0, -1] = angular[-1, 0] = -1.0
        mixed = sp.kron(sp.diags([0.3 * e1[1:], -0.3 * e1[1:]], [-1, 1]),
                        sp.diags([0.3 * e2[1:], -0.3 * e2[1:]], [-1, 1]))
        self.matrix = (sp.kron(radial, sp.eye(n2)) + sp.kron(sp.eye(n1), angular.tocsr())
                       + mixed).tocsc()
        rng = np.random.default_rng(0)
        g = rng.standard_normal((4096, 10, 10))
        self.gram = g @ g.transpose(0, 2, 1) + np.eye(10)
        self.rhs = rng.standard_normal((4096, 10, 1))
        self.design = rng.standard_normal((4096, 49, 2))
        self.ones = np.ones(self.matrix.shape[0])

    def _kernel(self) -> float:
        import numpy as np
        from scipy.sparse.linalg import splu

        start = time.perf_counter()
        splu(self.matrix).solve(self.ones)
        np.linalg.solve(self.gram, self.rhs)
        np.einsum("pki,pkj->pij", self.design, self.design)
        acc = 0.0
        for i in range(50000):
            acc += i * 0.5
        return time.perf_counter() - start

    def speed(self) -> float:
        """Current machine speed relative to the reference (above 1 is faster)."""
        return REFERENCE_KERNEL_S / statistics.median(self._kernel() for _ in range(REPEATS))
