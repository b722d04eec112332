"""Sharding benchmark workloads → ``BENCH_shard.json``
(``BENCH_shard.quick.json`` in quick mode).

Measures the sharded engine (``Database.shard(C, k=8, by=attr)``)
against the identical unsharded database on two gated workloads:

**pruned_read_mix** (gate: ≥2.5×, quick ≥2.0×).  A mixed read/write
loop over shard-partitionable scan/filter and hash-join queries — every
query carries a shard-attribute equality, so the compiled plan confines
each access to one shard.  Each iteration commits one single-shard
insert, then re-runs the query mix.  The sharded engine wins three
ways, all algorithmic (GIL-oblivious):

* *per-shard index partials*: the write dirties one shard, so the next
  probe rebuilds 1/k of the attribute index instead of all of it;
* *per-shard result-cache survival*: cached answers whose recorded
  dynamic reads are confined to untouched shards are promoted, not
  evicted (Theorem 5 refined to shard granularity), so most queries in
  the mix never re-execute;
* *pruned probes/scans*: a cold query touches one shard's rows, not
  the extent's.

The unsharded engine pays a full index rebuild and a full result-cache
eviction per write — exactly the wholesale-commit behaviour this PR
replaces.

**disjoint_writers** (gate: ≥1.5×, quick ≥1.3×).  A ``run_many`` batch
of ``new Person(...)`` writers spread across shards, under injected
``machine.step`` latency (the resilience layer's ``kind="latency"`` —
how a remote store round-trip behaves; the sleeps release the GIL).
With per-shard conflict refinement, A(C)-writers into *disjoint* shards
commute under merge-install and overlap; the unsharded conflict graph
serialises every A(C)/A(C) pair.  Throughput is writers per second.

**parallel_scan** (informational, ungated).  A whole-extent scan under
injected ``exec.shard`` latency: the per-shard pipelines overlap the
per-task stall on the worker pool.  Recorded for telemetry — on one
core the win is latency hiding, and the unsharded engine never visits
``exec.shard``, so there is no like-for-like ratio to gate.

Usage::

    PYTHONPATH=src python benchmarks/shard_workloads.py          # full
    REPRO_BENCH_QUICK=1 PYTHONPATH=src python benchmarks/shard_workloads.py
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(__file__))

from repro.db.database import Database  # noqa: E402
from repro.resilience.faults import FaultPlan, FaultRule, inject  # noqa: E402

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")
K = 8
REGIONS = 16
SCALE = (
    dict(n_persons=1500, n_orders=375, iters=4)
    if QUICK
    else dict(n_persons=6000, n_orders=1500, iters=8)
)
READ_BAR = 2.0 if QUICK else 2.5
WRITE_BAR = 1.3 if QUICK else 1.5
STEP_LATENCY = 0.002  # injected per machine.step in the writer batch
SHARD_LATENCY = 0.004  # injected per exec.shard task in the scan row

ODL = """
class Person extends Object (extent Persons) {
    attribute string name;
    attribute string region;
    attribute int age;
}
class Order extends Object (extent Orders) {
    attribute string item;
    attribute string region;
    attribute int qty;
}
"""


def build(sharded: bool) -> Database:
    """The same seed data either way; only the layout differs."""
    db = Database.from_odl(ODL)
    if sharded:
        db.shard("Person", k=K, by="region")
        db.shard("Order", k=K, by="region")
    for i in range(SCALE["n_persons"]):
        db.insert(
            "Person",
            name=f"p{i}",
            region=f"r{i % REGIONS}",
            age=i % 80,
        )
    for i in range(SCALE["n_orders"]):
        db.insert(
            "Order", item=f"it{i}", region=f"r{i % REGIONS}", qty=i % 9
        )
    return db


def read_mix() -> list[str]:
    """Partitionable scan/filter and hash-join queries, all confined by
    a shard-attribute equality, spread across the shards."""
    mix = [
        f'{{ p.name | p <- Persons, p.region = "r{j}", p.age > 10 }}'
        for j in range(1, 9)
    ]
    mix += [
        f'{{ o.item | o <- Orders, o.region = "r{j}", o.qty > 2 }}'
        for j in range(1, 5)
    ]
    # two-extent hash join: the probe key (p.region, a literal after the
    # first equality) prunes the Orders-side index build to one shard
    mix += [
        f'{{ struct(n: p.name, it: o.item) | '
        f'p <- Persons, p.region = "r{j}", '
        f'o <- Orders, p.region = o.region, o.qty > 5 }}'
        for j in range(1, 3)
    ]
    return mix


def canon(values: list) -> list:
    return [sorted(v.items, key=repr) for v in values]


def run_read_mix(db: Database) -> tuple[float, list]:
    qs = [db.parse(s) for s in read_mix()]
    for q in qs:  # warm plan + result caches in both modes alike
        db.run(q)
    out = []
    start = time.perf_counter()
    for it in range(SCALE["iters"]):
        db.insert("Person", name=f"w{it}", region="r0", age=30)
        for q in qs:
            out.append(db.run(q).value)
    return time.perf_counter() - start, out


def bench_read_mix() -> dict:
    sharded_s, sharded_vals = run_read_mix(build(True))
    plain_s, plain_vals = run_read_mix(build(False))
    assert canon(sharded_vals) == canon(plain_vals), (
        "pruned_read_mix: sharded run diverged from unsharded"
    )
    speedup = plain_s / sharded_s if sharded_s > 0 else float("inf")
    row = {
        "workload": "pruned_read_mix",
        "queries_per_iter": len(read_mix()),
        "iters": SCALE["iters"],
        "shards": K,
        "unsharded_s": round(plain_s, 4),
        "sharded_s": round(sharded_s, 4),
        "speedup": round(speedup, 2),
        "gated": True,
        "bar": READ_BAR,
    }
    print(
        f"pruned_read_mix    unsharded {plain_s * 1e3:8.1f} ms  "
        f"sharded {sharded_s * 1e3:8.1f} ms  {speedup:5.2f}x"
    )
    return row


def writer_batch(n: int) -> list[str]:
    return [
        f'new Person(name: "batch{i}", region: "r{i % K}", age: {20 + i})'
        for i in range(n)
    ]


def build_writer_seed(sharded: bool) -> Database:
    """A small seed for the writer gate: the claim is about commit
    overlap, not extent size, and a big extent only adds identical
    serial per-commit cost to both sides."""
    db = Database.from_odl(ODL)
    if sharded:
        db.shard("Person", k=K, by="region")
    for i in range(400):
        db.insert(
            "Person", name=f"p{i}", region=f"r{i % K}", age=i % 80
        )
    return db


def bench_disjoint_writers() -> dict:
    n = 12 if QUICK else 16
    plan = FaultPlan(
        (
            FaultRule(
                site="machine.step",
                every=1,
                kind="latency",
                delay=STEP_LATENCY,
            ),
        )
    )
    walls = {}
    conflicts = {}
    for sharded in (True, False):
        db = build_writer_seed(sharded)
        batch = writer_batch(n)
        with inject(plan):
            start = time.perf_counter()
            res = db.run_many(batch, workers=8)
            walls[sharded] = time.perf_counter() - start
        conflicts[sharded] = res.conflict_edges
        assert (
            len(db.ee.members("Persons")) == 400 + n
        ), "disjoint_writers: lost a committed insert"
    speedup = walls[False] / walls[True] if walls[True] > 0 else float("inf")
    row = {
        "workload": "disjoint_writers",
        "writers": n,
        "workers": 8,
        "step_latency_s": STEP_LATENCY,
        "serialized_s": round(walls[False], 4),
        "sharded_s": round(walls[True], 4),
        "throughput_serialized_wps": round(n / walls[False], 1),
        "throughput_sharded_wps": round(n / walls[True], 1),
        "conflict_edges_serialized": conflicts[False],
        "conflict_edges_sharded": conflicts[True],
        "speedup": round(speedup, 2),
        "gated": True,
        "bar": WRITE_BAR,
    }
    print(
        f"disjoint_writers   serialized {walls[False] * 1e3:6.1f} ms  "
        f"sharded {walls[True] * 1e3:6.1f} ms  {speedup:5.2f}x  "
        f"(conflict edges {conflicts[False]} -> {conflicts[True]})"
    )
    return row


def bench_parallel_scan() -> dict:
    """Ungated: per-shard pipelines overlapping injected task latency."""
    from repro.exec import parallel as _parallel

    saved = _parallel.MIN_ROWS
    _parallel.MIN_ROWS = 0  # force fan-out at benchmark scale
    try:
        plan = FaultPlan(
            (
                FaultRule(
                    site="exec.shard",
                    every=1,
                    kind="latency",
                    delay=SHARD_LATENCY,
                ),
            )
        )
        db = build(True)
        src = "{ p.name | p <- Persons, p.age > 40 }"
        db.run(src)  # warm the plan; distinct text below defeats reuse
        with inject(plan):
            start = time.perf_counter()
            got = db.run("{ p.name | p <- Persons, p.age > 41 }")
            wall = time.perf_counter() - start
        pool = _parallel.snapshot()
        rows = len(got.value.items)
    finally:
        _parallel.MIN_ROWS = saved
    return {
        "workload": "parallel_scan",
        "shards": K,
        "task_latency_s": SHARD_LATENCY,
        "wall_s": round(wall, 4),
        "serial_latency_floor_s": K * SHARD_LATENCY,
        "rows_out": rows,
        "pool_workers": pool["workers"],
        "gated": False,
    }


def main() -> int:
    rows = [bench_read_mix(), bench_disjoint_writers(), bench_parallel_scan()]
    report = {
        "quick": QUICK,
        "scale": SCALE,
        "shards": K,
        "read_bar": READ_BAR,
        "write_bar": WRITE_BAR,
        "workloads": rows,
    }
    # a quick run never overwrites the committed full-mode report
    out = os.path.join(
        os.path.dirname(__file__), "..",
        "BENCH_shard.quick.json" if QUICK else "BENCH_shard.json",
    )
    with open(out, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    print(f"wrote {os.path.abspath(out)}")
    failed = False
    for row in rows:
        if not row.get("gated"):
            continue
        if row["speedup"] < row["bar"]:
            print(
                f"FAIL: {row['workload']} speedup {row['speedup']}x "
                f"< {row['bar']}x bar"
            )
            failed = True
        else:
            print(
                f"OK: {row['workload']} speedup {row['speedup']}x "
                f">= {row['bar']}x"
            )
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
