"""Machine-speed calibration for the benchmark's timings.

On a shared host the worker's CPU runs faster or slower for stretches of
seconds to minutes, and requests slow down together with any fixed piece of
work run beside them. The worker therefore runs the fixed kernels below
between requests and divides each timing by the speed factor measured
around it. The factor is the geometric mean of the kernels' times over
NOMINAL_S, so a factor of 1 is the reference machine in its fast state. The
kernels call nothing from fermatpath: a change to the package cannot move
them.
"""

from __future__ import annotations

import math
import time

import numpy as np

# Geometric mean of the four kernel times on the reference machine (2-core
# Intel Xeon VM, numpy with OpenBLAS, one thread) in its fast state.
NOMINAL_S = 2.1e-3

_RNG = np.random.default_rng(0)
_DENSE = _RNG.normal(size=(128, 128))
_ONES = np.ones(128)
_H0 = _RNG.normal(size=(1000, 10, 10))
_S0 = _RNG.normal(size=(1000, 10))
_Y0 = _RNG.normal(size=(1000, 10))


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b


def _interpreter() -> int:
    acc = 0
    for i in range(30000):
        acc += (i * 7) % 13
    return acc


def _objects() -> int:
    d = {}
    for i in range(6000):
        p = _Point(i, str(i))
        d[p.b] = p.a + len(d)
    return len(d)


def _dense() -> float:
    """Rank-one updates of a 128x128 matrix, as in a B=1 BFGS at n=64."""
    H = np.eye(128)
    for _ in range(40):
        Hy = H @ _ONES
        H = H + 1e-6 * np.outer(Hy, Hy)
        _DENSE @ Hy
    return float(H[0, 0])


def _batched() -> float:
    """Batched 10x10 updates over 1000 members, as in a large batch solve."""
    H = _H0.copy()
    for _ in range(3):
        Hy = np.einsum("bij,bj->bi", H, _Y0)
        sHy = np.einsum("bi,bj->bij", _S0, Hy)
        H = H - 1e-3 * (sHy + np.swapaxes(sHy, 1, 2))
    return float(H[0, 0, 0])


KERNELS = (_interpreter, _objects, _dense, _batched)


def speed_factor() -> float:
    """Run each kernel once; geometric mean of their times over NOMINAL_S."""
    logs = 0.0
    for kernel in KERNELS:
        t0 = time.perf_counter()
        kernel()
        logs += math.log(time.perf_counter() - t0)
    return math.exp(logs / len(KERNELS)) / NOMINAL_S
