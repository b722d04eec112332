"""Durability benchmark workloads → ``BENCH_wal.json``
(``BENCH_wal.quick.json`` in quick mode).

Measures what the write-ahead log costs at commit time and what it
buys back at recovery time:

* **commit latency** — the same insert-heavy workload against a
  volatile database, a journalled one with flush-only appends
  (``sync=False``), and a journalled one with an fsync per commit.
  The acceptance gate is on the *flush-only* configuration: WAL-on
  wall clock ≤ 1.5× WAL-off.  Effect-bounded delta records keep the
  per-commit payload proportional to the commit's A-set, not to the
  store, which is what makes the bar reachable.  The fsync column is
  reported, not gated — it measures the disk, not the code, and CI
  block devices vary wildly.

* **recovery time vs log length** — recover directories whose logs
  hold increasing numbers of records; the report records wall clock
  and records/second.  Replay is physical (no re-evaluation), so this
  should scale linearly in the log, not in the store's history.

Usage::

    PYTHONPATH=src python benchmarks/wal_workloads.py          # full
    REPRO_BENCH_QUICK=1 PYTHONPATH=src python benchmarks/wal_workloads.py
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(__file__))

from repro.db.database import Database  # noqa: E402
from repro.db.recovery import recover  # noqa: E402

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")
N_COMMITS = 120 if QUICK else 400
RECOVERY_LENGTHS = [25, 100] if QUICK else [50, 200, 400]
REPEATS = 4 if QUICK else 3
OVERHEAD_BAR = 1.5  # acceptance gate, flush-only configuration

ODL = """
class Person extends Object (extent Persons) {
    attribute string name;
    attribute int age;
}
class Team extends Object (extent Teams) {
    attribute string tag;
}
"""


def commit_workload(n: int) -> list[str]:
    out = []
    for i in range(n):
        if i % 4 == 3:
            out.append(f'new Team(tag: "t{i}")')
        else:
            out.append(f'new Person(name: "p{i}", age: {18 + i % 50})')
    return out


def run_commits(batch: list[str], *, wal: str) -> float:
    """Wall clock for the batch; ``wal`` is off | flush | fsync."""
    tmp = tempfile.mkdtemp(prefix="walbench-")
    try:
        if wal == "off":
            db = Database.from_odl(ODL)
        else:
            db = Database.open(tmp, ODL, sync=(wal == "fsync"))
        start = time.perf_counter()
        for src in batch:
            db.run(src)
        wall = time.perf_counter() - start
        db.close()
        return wall
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def bench_commit_latency() -> dict:
    batch = commit_workload(N_COMMITS)
    walls = {}
    for mode in ("off", "flush", "fsync"):
        walls[mode] = min(run_commits(batch, wal=mode) for _ in range(REPEATS))
    row = {
        "workload": "insert_commits",
        "commits": N_COMMITS,
        "wal_off_s": round(walls["off"], 4),
        "wal_flush_s": round(walls["flush"], 4),
        "wal_fsync_s": round(walls["fsync"], 4),
        "flush_overhead_x": round(walls["flush"] / walls["off"], 3),
        "fsync_overhead_x": round(walls["fsync"] / walls["off"], 3),
        "per_commit_off_us": round(walls["off"] / N_COMMITS * 1e6, 1),
        "per_commit_flush_us": round(walls["flush"] / N_COMMITS * 1e6, 1),
    }
    print(
        f"insert_commits   {N_COMMITS:>4} commits  "
        f"off {walls['off'] * 1e3:7.1f} ms  "
        f"flush {walls['flush'] * 1e3:7.1f} ms "
        f"({row['flush_overhead_x']:.2f}x)  "
        f"fsync {walls['fsync'] * 1e3:7.1f} ms "
        f"({row['fsync_overhead_x']:.2f}x)"
    )
    return row


def bench_recovery(n_records: int) -> dict:
    tmp = tempfile.mkdtemp(prefix="walbench-rec-")
    try:
        db = Database.open(tmp, ODL, sync=False)
        for src in commit_workload(n_records):
            db.run(src)
        db.close()
        wall = float("inf")
        for _ in range(REPEATS):
            start = time.perf_counter()
            res = recover(tmp, attach=False)
            wall = min(wall, time.perf_counter() - start)
        assert res.replayed == n_records
        row = {
            "workload": "recovery",
            "log_records": n_records,
            "recovery_s": round(wall, 4),
            "records_per_s": round(n_records / wall) if wall else None,
        }
        print(
            f"recovery         {n_records:>4} records  "
            f"{wall * 1e3:7.1f} ms  ({row['records_per_s']} rec/s)"
        )
        return row
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def main() -> int:
    commit_row = bench_commit_latency()
    recovery_rows = [bench_recovery(n) for n in RECOVERY_LENGTHS]
    report = {
        "quick": QUICK,
        "overhead_bar_x": OVERHEAD_BAR,
        "workloads": [commit_row, *recovery_rows],
    }
    # a quick run never overwrites the committed full-mode report
    out = os.path.join(
        os.path.dirname(__file__), "..",
        "BENCH_wal.quick.json" if QUICK else "BENCH_wal.json",
    )
    with open(out, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    print(f"wrote {os.path.abspath(out)}")
    if commit_row["flush_overhead_x"] > OVERHEAD_BAR:
        print(
            f"FAIL: WAL-on (flush) overhead {commit_row['flush_overhead_x']}x "
            f"> {OVERHEAD_BAR}x bar"
        )
        return 1
    print(
        f"OK: WAL-on (flush) overhead {commit_row['flush_overhead_x']}x "
        f"<= {OVERHEAD_BAR}x"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
