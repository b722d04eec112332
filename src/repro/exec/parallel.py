"""The shared worker pool for partition-parallel execution.

One lazy process-wide :class:`~concurrent.futures.ThreadPoolExecutor`
runs per-shard pipeline tasks (sharded scans, filter chains, index
partial builds).  Threads, not processes: the environments are
immutable in-process structures, so workers share them with zero
serialisation, and the wins come from (a) shard pruning — algorithmic,
GIL-oblivious — and (b) overlapping injected/IO latency, which releases
the GIL while it sleeps.

``MIN_ROWS`` gates fan-out: below it, the task-submission overhead
costs more than the parallelism returns.  Tests lower it via
``repro.exec.parallel.MIN_ROWS = 0``.  The stats counters feed
``Database.health()["sharding"]["pool"]``.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor

#: Extents smaller than this run single-threaded even when sharded.
MIN_ROWS = 512

# floor of 4: shard tasks are frequently latency-bound (injected IO
# faults, store sleeps), where threads beyond the core count still
# overlap usefully because the waits release the GIL
_MAX_WORKERS = max(4, min(8, (os.cpu_count() or 4)))

_lock = threading.Lock()
_pool: ThreadPoolExecutor | None = None

# -- health counters (monotone; read without the lock, JSON-safe) ------------
_stats = {
    "tasks": 0,  # per-shard tasks executed
    "batches": 0,  # fan-outs submitted
    "busy_s": 0.0,  # summed in-task wall time
    "wall_s": 0.0,  # summed fan-out wall time (caller-side)
}


def _get_pool() -> ThreadPoolExecutor:
    global _pool
    if _pool is None:
        with _lock:
            if _pool is None:
                _pool = ThreadPoolExecutor(
                    max_workers=_MAX_WORKERS, thread_name_prefix="repro-shard"
                )
    return _pool


def should_parallelize(rows: int, parts: int) -> bool:
    """Fan out only when the extent is big enough to amortise overhead."""
    return parts > 1 and rows >= MIN_ROWS


def run_sharded(tasks):
    """Run the thunks on the pool; return their results in task order.

    Exceptions propagate to the caller (the first failing task's, in
    task order) — a per-shard transient fault must fail the whole query
    exactly as its sequential counterpart would.
    """
    start = time.perf_counter()
    pool = _get_pool()

    def timed(task):
        t0 = time.perf_counter()
        try:
            return task()
        finally:
            with _lock:
                _stats["tasks"] += 1
                _stats["busy_s"] += time.perf_counter() - t0

    futures = [pool.submit(timed, task) for task in tasks]
    try:
        results = [f.result() for f in futures]
    finally:
        with _lock:
            _stats["batches"] += 1
            _stats["wall_s"] += time.perf_counter() - start
    return results


def snapshot() -> dict:
    """JSON-safe pool health: size, task counts, utilization estimate."""
    with _lock:
        tasks = _stats["tasks"]
        batches = _stats["batches"]
        busy = _stats["busy_s"]
        wall = _stats["wall_s"]
    util = None
    if wall > 0:
        # busy time spread over the pool during fan-outs
        util = round(min(1.0, busy / (wall * _MAX_WORKERS)), 4)
    return {
        "workers": _MAX_WORKERS,
        "tasks": tasks,
        "batches": batches,
        "busy_s": round(busy, 6),
        "wall_s": round(wall, 6),
        "utilization": util,
    }
