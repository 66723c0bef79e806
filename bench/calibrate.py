"""Machine-speed calibration.

The speed of a shared virtual machine drifts by 20% and more over seconds
and minutes, far more than the bounds a benchmark needs. ``slowdown`` times
three fixed kernels that do not touch mimodof and returns the geometric
mean of their times over their reference times. The runner samples it
between operations throughout a run and divides every operation time by
the run's median slowdown, which cancels the drift common to both, so the
reported times read as if the machine ran at reference speed. A single
sample is too noisy to scale one operation by; the median over a run
follows the slow drift that makes runs differ. The raw times are kept
beside the scaled ones.

Drift does not slow every kind of code alike, so the kernels cover the
kinds of work the workloads do: ``_draws`` builds seeded generators that
fill stacked Gaussian matrices, then runs a batched Cholesky factorization,
as the Monte Carlo trials do; ``_exact`` does small Fraction arithmetic,
dict updates and a few draws, as the exact geometry does; ``_footprint``
builds, serializes, parses and sorts dicts of strings and Fractions, as the
CLI and the region JSON do. On 15-second windows the blend tracked each
workload better than any one kernel did.
"""

from __future__ import annotations

import json
import math
import time
from fractions import Fraction

import numpy as np


def _draws() -> None:
    links = {"H1": (2, 2), "H2": (2, 3)}
    stacked = {name: np.empty((200, *shape), dtype=complex) for name, shape in links.items()}
    for trial in range(200):
        rng = np.random.default_rng([7, trial])
        for name, shape in links.items():
            stacked[name][trial] = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)
    h = stacked["H2"]
    np.linalg.cholesky(np.eye(2) + np.matmul(h, h.conj().swapaxes(-1, -2)))


def _exact() -> None:
    below = 0
    for i in range(1, 700):
        below += Fraction(i, 7) + Fraction(3, i) < 50
    table = {}
    for i in range(5000):
        table[i % 97] = table.get(i % 97, 0) + i
    for seed in range(60):
        np.random.default_rng([seed, 1]).standard_normal((3, 3))


def _footprint() -> None:
    table = {(i, i % 13): Fraction(i, 7 + i % 5) for i in range(1, 2500)}
    doc = {str(k): [k[0], str(v), float(v)] for k, v in list(table.items())[:1000]}
    back = json.loads(json.dumps(doc, sort_keys=True))
    sorted(back.items(), key=lambda kv: (kv[1][2], kv[0]))


# Each kernel with its typical seconds on the 2-vCPU VM the baseline was
# taken on.
KERNELS = ((_draws, 0.0079), (_exact, 0.0059), (_footprint, 0.0090))


def slowdown() -> float:
    """Geometric mean over the kernels of time over reference time: above 1
    when the machine runs slower than it did for the baseline."""
    log_sum = 0.0
    for kernel, reference_s in KERNELS:
        start = time.perf_counter()
        kernel()
        log_sum += math.log((time.perf_counter() - start) / reference_s)
    return math.exp(log_sum / len(KERNELS))
