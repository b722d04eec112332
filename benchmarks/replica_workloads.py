"""Replication benchmark workloads → ``BENCH_replica.json``
(``BENCH_replica.quick.json`` in quick mode).

Measures what WAL-shipped read replicas buy a scheduled batch: with no
replicas, every writer serialises behind every earlier read it
conflicts with (admission order is the law); with replicas attached,
those same reads are **pinned** — they capture a covering replica's
store triple ``(version, EE, OE)`` at admission and leave the conflict
graph entirely, so the writer chain starts immediately and overlaps
the read wave.

**The cost model.**  As in ``sched_workloads.py`` the win is latency
hiding, made explicit with injected I/O latency (``FaultPlan``,
``kind="latency"``): every ``store.read`` carries the cost of a remote
page read, every ``commit`` the cost of a durable write.  The batch is
a wave of distinct read-only queries followed by a chain of writers
sized so the two phases take comparable wall time — a no-replica run
pays read-wave *plus* writer-chain (the first writer conflicts with
every read), a replicated run pays ``max`` of the two.  The theoretical
ceiling is therefore 2.0×; the gate is ≥1.8× at 4 replicas.

The run is also differential: both runs must answer every query with
exactly the values the other produced (reads answer from the pre-batch
state in both schedules; writers allocate oids in admission order in
both), and the replicated run must have really pinned its reads and
routed none of them to the primary in degradation.

Usage::

    PYTHONPATH=src python benchmarks/replica_workloads.py          # full
    REPRO_BENCH_QUICK=1 PYTHONPATH=src python benchmarks/replica_workloads.py
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(__file__))

from workloads import hr  # noqa: E402

from repro.resilience.faults import FaultPlan, FaultRule, inject  # noqa: E402

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")
SCALE = dict(n_employees=30, n_managers=3) if QUICK else dict(
    n_employees=80, n_managers=6
)
WORKERS = 8
N_REPLICAS = 4
#: reads per batch — kept below WORKERS so the first writer has a free
#: worker the moment it becomes ready (which, pinned, is immediately)
N_READS = 6
N_WRITES = 8
# sized so read wave ≈ writer chain (the 2.0× ceiling needs balance):
# one read costs ~1.6 store.read hits, the chain costs N_WRITES commits
READ_LATENCY = 0.11 if QUICK else 0.3  # injected per store.read
WRITE_LATENCY = 0.015 if QUICK else 0.04  # injected per commit
SPEEDUP_BAR = 1.8  # acceptance gate at 4 replicas


def batch() -> list[str]:
    """``N_READS`` distinct reads over Persons, then ``N_WRITES``
    Person-creating writers.

    Every writer carries ``A(Person)`` and every read ``R(Person)``, so
    without replicas the conflict graph makes the writer chain wait for
    the whole read wave; with replicas the reads pin (no earlier batch
    writer exists when they are admitted) and the chain starts at once.
    """
    reads = [
        f"{{ p.name | p <- Persons, p.age > {18 + 3 * i} }}"
        for i in range(N_READS)
    ]
    writes = [
        f'new Person(name: "burst{i}", age: {30 + i})'
        for i in range(N_WRITES)
    ]
    return reads + writes


def latency_plan() -> FaultPlan:
    return FaultPlan((
        FaultRule(site="store.read", every=1, kind="latency",
                  delay=READ_LATENCY),
        FaultRule(site="commit", every=1, kind="latency",
                  delay=WRITE_LATENCY),
    ))


def _open(directory: str):
    db = hr(**SCALE)
    # replication ships over the WAL, so both runs journal (sync=False:
    # the injected commit latency models durability cost, not the fsync)
    db.attach_wal(directory, sync=False)
    return db


def run_without_replicas(sources: list[str], directory: str):
    db = _open(directory)
    with inject(latency_plan()):
        start = time.perf_counter()
        res = db.run_many(sources, workers=WORKERS)
        wall = time.perf_counter() - start
    stats = dict(db._last_batch)
    db.close()
    return wall, [o.value for o in res], stats


def run_with_replicas(sources: list[str], directory: str):
    db = _open(directory)
    rset = db.replicate(N_REPLICAS)
    with inject(latency_plan()):
        start = time.perf_counter()
        res = db.run_many(sources, workers=WORKERS)
        wall = time.perf_counter() - start
    stats = dict(db._last_batch)
    routing = rset.snapshot()
    db.close()
    return wall, [o.value for o in res], stats, routing


def bench(sources: list[str]) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        base_wall, base_values, base_stats = run_without_replicas(
            sources, os.path.join(tmp, "baseline")
        )
        repl_wall, repl_values, repl_stats, routing = run_with_replicas(
            sources, os.path.join(tmp, "replicated")
        )
    # differential: same batch, two schedules, one answer — reads see
    # the pre-batch state in both (pinned snapshots ≡ conflict-graph
    # ordering), writers allocate oids in admission order in both
    assert base_values == repl_values, "replicated batch diverged"
    assert repl_stats["pinned_reads"] == N_READS, (
        f"expected every read pinned, got {repl_stats['pinned_reads']}"
    )
    assert routing["pinned"] == N_READS and routing["degraded"] == 0, (
        f"routing degraded: {routing}"
    )
    assert base_stats["pinned_reads"] == 0  # nothing to pin against
    speedup = base_wall / repl_wall if repl_wall > 0 else float("inf")
    row = {
        "workload": "read_wave_plus_writer_chain",
        "queries": len(sources),
        "reads": N_READS,
        "writes": N_WRITES,
        "workers": WORKERS,
        "replicas": N_REPLICAS,
        "no_replicas_s": round(base_wall, 4),
        "replicated_s": round(repl_wall, 4),
        "speedup": round(speedup, 2),
        "conflict_edges_without": base_stats["conflict_edges"],
        "conflict_edges_with": repl_stats["conflict_edges"],
        "pinned_reads": repl_stats["pinned_reads"],
        "routed_total": routing["routed"],
        "degraded_total": routing["degraded"],
    }
    print(
        f"{row['workload']:<28} {len(sources):>3} queries  "
        f"no-replicas {base_wall * 1e3:8.1f} ms  "
        f"x{N_REPLICAS} replicas {repl_wall * 1e3:8.1f} ms  "
        f"{speedup:5.2f}x  "
        f"(edges {base_stats['conflict_edges']} -> "
        f"{repl_stats['conflict_edges']}, "
        f"{repl_stats['pinned_reads']} pinned)"
    )
    return row


def main() -> int:
    rows = [bench(batch())]
    report = {
        "quick": QUICK,
        "scale": SCALE,
        "read_latency_s": READ_LATENCY,
        "write_latency_s": WRITE_LATENCY,
        "speedup_bar": SPEEDUP_BAR,
        "workloads": rows,
    }
    # a quick run never overwrites the committed full-mode report
    out = os.path.join(
        os.path.dirname(__file__), "..",
        "BENCH_replica.quick.json" if QUICK else "BENCH_replica.json",
    )
    with open(out, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    print(f"wrote {os.path.abspath(out)}")
    gated = rows[0]
    if gated["speedup"] < SPEEDUP_BAR:
        print(
            f"FAIL: replicated speedup {gated['speedup']}x "
            f"< {SPEEDUP_BAR}x bar at {N_REPLICAS} replicas"
        )
        return 1
    print(
        f"OK: replicated speedup {gated['speedup']}x >= {SPEEDUP_BAR}x "
        f"at {N_REPLICAS} replicas"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
