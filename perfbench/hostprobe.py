"""Effective-parallelism probe: what two processes deliver on this host.

Two worker processes each sort their own arrays at the same time; the
probe compares that wall-clock time against one worker sorting alone.
``parallel_x`` is ``2 * t_alone / t_together``: 2.0 on a host with two
free cores, 1.0 when the two processes share one.  A parallel backend's
speed-up reads against this number, not against ``os.cpu_count()``.
"""

from __future__ import annotations

import multiprocessing
import time

import numpy as np

SORT_ELEMENTS = 1 << 21
SORT_REPEATS = 3


def sort_arrays(seed: int, elements: int) -> None:
    """One unit of work: sort ``SORT_REPEATS`` random arrays."""
    rng = np.random.default_rng(seed)
    for _ in range(SORT_REPEATS):
        rng.random(elements).sort()


def probe(trials: int = 3, elements: int = SORT_ELEMENTS) -> tuple[float, float]:
    """``(parallel_x, seconds alone)``, each the median over ``trials``.

    The time alone is a host-speed reading: on a shared host it drifts
    with the load of other tenants, which the benchmark's times share.
    """
    ctx = multiprocessing.get_context("spawn")
    ratios = []
    alones = []
    pool = ctx.Pool(2)
    try:
        # Start both workers before timing anything.
        pool.starmap(sort_arrays, [(0, elements), (1, elements)], chunksize=1)
        for trial in range(trials):
            t0 = time.perf_counter()
            pool.apply(sort_arrays, (trial, elements))
            alone = time.perf_counter() - t0
            t0 = time.perf_counter()
            pool.starmap(sort_arrays, [(trial, elements), (trial + 1, elements)], chunksize=1)
            together = time.perf_counter() - t0
            ratios.append(2.0 * alone / together)
            alones.append(alone)
    finally:
        pool.terminate()
        pool.join()
    return float(np.median(ratios)), float(np.median(alones))
