"""Scheduler benchmark workloads → ``BENCH_sched.json``
(``BENCH_sched.quick.json`` in quick mode).

Measures ``Database.run_many`` against a sequential loop over the same
batch on the §2 HR database, and gates on the read-heavy workload
showing a ≥2× wall-clock win at 8 workers.

**What the win is.**  The runners are CPython threads, so pure
computation does not parallelise (the GIL serialises it — see
``docs/CONCURRENCY.md``).  The speedup the scheduler buys is *latency
hiding*: every ``store.read`` site carries injected I/O latency (the
resilience layer's ``FaultPlan``, ``kind="latency"`` — exactly how a
remote page read would behave), the sleeps release the GIL, and
non-conflicting read-only queries overlap those stalls.  That is the
deployment story for an object database whose extents live behind a
disk or network, and it is honest about what thread-level scheduling
can and cannot buy on one core.

The mixed read/write workload is recorded for telemetry (conflict rate,
achieved overlap) but not gated: writers serialise by design, so its
speedup depends on the read/write mix.

Usage::

    PYTHONPATH=src python benchmarks/sched_workloads.py          # full
    REPRO_BENCH_QUICK=1 PYTHONPATH=src python benchmarks/sched_workloads.py
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(__file__))

from workloads import hr  # noqa: E402

from repro.resilience.faults import FaultPlan, FaultRule, inject  # noqa: E402

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")
SCALE = dict(n_employees=60, n_managers=6) if QUICK else dict(
    n_employees=200, n_managers=12
)
WORKERS = 8
READ_LATENCY = 0.004  # injected per store.read, released while sleeping
SPEEDUP_BAR = 2.0  # acceptance gate on the read-heavy batch


def read_heavy_batch(n: int = 24) -> list[str]:
    """``n`` *distinct* read-only queries (distinct plan-cache keys, so
    neither run is answered from the result cache)."""
    out = []
    for i in range(n):
        bar = 3500 + 83 * i
        out.append(
            f"{{ e.name | e <- Employees, e.GrossSalary > {bar} }}"
        )
    return out


def mixed_batch(n_reads: int = 18, n_writes: int = 6) -> list[str]:
    """Reads interleaved with Person-creating writers (A(Person))."""
    batch = read_heavy_batch(n_reads)
    for i in range(n_writes):
        batch.insert(
            (i + 1) * len(batch) // (n_writes + 1),
            f'new Person(name: "batch{i}", age: {30 + i})',
        )
    return batch


def latency_plan() -> FaultPlan:
    return FaultPlan(
        (FaultRule(site="store.read", every=1, kind="latency",
                   delay=READ_LATENCY),)
    )


def run_sequential(batch: list[str]) -> tuple[float, list]:
    db = hr(**SCALE)
    with inject(latency_plan()):
        start = time.perf_counter()
        results = [db.run(src) for src in batch]
        wall = time.perf_counter() - start
    return wall, [r.value for r in results]


def run_scheduled(batch: list[str], workers: int) -> tuple[float, list, object]:
    db = hr(**SCALE)
    with inject(latency_plan()):
        start = time.perf_counter()
        res = db.run_many(batch, workers=workers)
        wall = time.perf_counter() - start
    return wall, res.values(), res


def bench(name: str, batch: list[str], workers: int) -> dict:
    seq_wall, seq_values = run_sequential(batch)
    par_wall, par_values, res = run_scheduled(batch, workers)
    # differential check: the scheduled run must answer exactly like the
    # sequential run (these batches create no objects the answers name,
    # so plain equality is the right bar here — the fuzz suite covers ∼)
    assert seq_values == par_values, f"{name}: scheduled run diverged"
    speedup = seq_wall / par_wall if par_wall > 0 else float("inf")
    row = {
        "workload": name,
        "queries": len(batch),
        "workers": workers,
        "sequential_s": round(seq_wall, 4),
        "scheduled_s": round(par_wall, 4),
        "speedup": round(speedup, 2),
        "conflict_edges": res.conflict_edges,
        "conflict_rate": round(res.conflict_rate, 3),
    }
    print(
        f"{name:<18} {len(batch):>3} queries  "
        f"seq {seq_wall * 1e3:8.1f} ms  sched {par_wall * 1e3:8.1f} ms  "
        f"{speedup:5.2f}x  ({res.conflict_edges} conflict edges)"
    )
    return row


def main() -> int:
    n_reads = 12 if QUICK else 24
    rows = [
        bench("read_heavy", read_heavy_batch(n_reads), WORKERS),
        bench(
            "mixed_read_write",
            mixed_batch(
                n_reads=9 if QUICK else 18, n_writes=3 if QUICK else 6
            ),
            WORKERS,
        ),
    ]
    report = {
        "quick": QUICK,
        "scale": SCALE,
        "read_latency_s": READ_LATENCY,
        "speedup_bar": SPEEDUP_BAR,
        "workloads": rows,
    }
    # a quick run never overwrites the committed full-mode report
    out = os.path.join(
        os.path.dirname(__file__), "..",
        "BENCH_sched.quick.json" if QUICK else "BENCH_sched.json",
    )
    with open(out, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    print(f"wrote {os.path.abspath(out)}")
    read_heavy = rows[0]
    if read_heavy["speedup"] < SPEEDUP_BAR:
        print(
            f"FAIL: read-heavy speedup {read_heavy['speedup']}x "
            f"< {SPEEDUP_BAR}x bar"
        )
        return 1
    print(f"OK: read-heavy speedup {read_heavy['speedup']}x >= {SPEEDUP_BAR}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
