"""A fixed reference computation that measures how fast the host runs right
now, so that operation times can be scaled to one reference speed.

The benchmark was written on a shared 2-vCPU host whose speed drifts by up
to 2x over seconds to minutes, with CPU time equal to wall time in both
modes.  Whole runs land in one mode, so plain wall times of the same code
spread past any usable bound.  The ratio of an operation's time to the time
of this reference, measured right before and right after it, stays much
steadier across those modes.

The reference never calls into ``choimaps``, so a change to the program
never changes it.  It is the two kinds of work the program does: Python
float arithmetic and a batched LAPACK eigenvalue call through numpy.  Of
the mixes tried on that host, this one followed the drift most closely on
the classify, witness and sweep workloads (argparse- and json-heavy mixes
over-corrected).
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

#: Timings per part in a chunk, and the chunk time that defines reference
#: speed: a factor of 1.0 means "as fast as the host ran in its fast mode
#: when this was written".  Changing either rescales every normalised figure.
REPEATS = 5
NOMINAL_CHUNK_S = 0.0023

_RNG = np.random.default_rng(12052921)
_A = _RNG.standard_normal((9, 9)) + 1j * _RNG.standard_normal((9, 9))
_BATCH = np.broadcast_to(_A @ _A.conj().T, (160, 9, 9))


def _lapack() -> None:
    np.linalg.eigvalsh(_BATCH)


def _python() -> None:
    acc = 0.0
    for k in range(4000):
        x = 0.5 + k * 1e-3
        acc += math.cos(x) * math.sin(0.3) + (x * x - 1.25) / 3.0


def chunk() -> float:
    """Run one reference chunk; return the sum over both parts of the
    median of ``REPEATS`` timings, in seconds.  The median drops a timing
    hit by a one-off stall of the host, which would otherwise dominate a
    part this short."""
    total = 0.0
    for part in (_lapack, _python):
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            part()
            times.append(time.perf_counter() - t0)
        total += statistics.median(times)
    return total


def factors(chunks: list[float]) -> list[float]:
    """Speed factor of each interval between consecutive chunks (> 1 means
    slower than reference speed): the mean of the chunks on either side of
    the interval over the nominal chunk time.  The host's speed can change
    within a second, so wider windows track it worse."""
    return [(lo + hi) / 2.0 / NOMINAL_CHUNK_S for lo, hi in zip(chunks, chunks[1:])]
