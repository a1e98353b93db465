"""Reference kernel: how fast this machine does Python work right now.

The benchmark runs on a few cores of a shared host whose speed drifts with
what its neighbours do: the same exact-rank calls have taken 1.6 s in one
half-minute and 2.9 s a few minutes later.  So each worker runs this fixed
kernel right before and right after each part of its timed phase, beside
the work (in its own process, or in as many processes at once as the
phase has pool workers), and reports the phase also in reference seconds,

    t_ref = sum over parts of t_part * REF_S / mean(kernel before, after),

and a slow spell, which slows the kernel and the work beside it alike,
cancels out.  The kernel is the benchmark's own code and imports nothing
from lefschetz, so a change to the package cannot move it.
"""

import concurrent.futures
import random
import statistics
import time

REF_S = 0.1  # kernel time at which a reference second is a measured second
_SIZE = 60


def _matrix():
    rng = random.Random(0)
    return [[rng.randrange(1, 10**6) for _ in range(_SIZE)] for _ in range(_SIZE)]


_MATRIX = _matrix()


def kernel():
    """Fraction-free elimination of a fixed integer matrix; returns its determinant."""
    M = [row[:] for row in _MATRIX]
    prev = 1
    for k in range(_SIZE - 1):
        pivot_row = M[k]
        pivot = pivot_row[k]
        for r in range(k + 1, _SIZE):
            row = M[r]
            f = row[k]
            for c in range(k + 1, _SIZE):
                row[c] = (pivot * row[c] - f * pivot_row[c]) // prev
        prev = pivot
    return M[-1][-1]


def _one_kernel_time(_=None):
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def kernel_time(jobs=1):
    """Seconds one kernel run takes now.

    With jobs > 1 the kernel runs in that many processes at once, as the
    work of a pool with that many workers does, and the result is the
    harmonic mean of their times: the pool shares its work out, so its
    speed is the sum of theirs.
    """
    if jobs == 1:
        return _one_kernel_time()
    with concurrent.futures.ProcessPoolExecutor(jobs) as pool:
        return statistics.harmonic_mean(pool.map(_one_kernel_time, range(jobs)))


def reference_seconds(segment_s, kernel_s):
    """Reference seconds of parts timed between kernel runs.

    kernel_s[k] and kernel_s[k + 1] are the kernel times just before and
    just after part k, which took segment_s[k] measured seconds.
    """
    return sum(
        seconds * REF_S / ((before + after) / 2)
        for seconds, before, after in zip(segment_s, kernel_s, kernel_s[1:])
    )
