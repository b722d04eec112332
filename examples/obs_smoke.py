"""The observability surface, end to end: profiler, black box, health.

Run with::

    PYTHONPATH=src python examples/obs_smoke.py

Three acts, each asserting what CI's obs-smoke job gates on:

1. ``.explain analyze`` over the compiled-engine benchmark workloads —
   every operator node must carry both an *estimated* and an *actual*
   cardinality (the estimated-vs-actual comparison is the profiler's
   whole point), the tree must be the one ``.explain cost`` shows
   unexecuted, and the machine-readable ``profile_dict()`` must
   round-trip through JSON;
2. a forced ``wal.fsync`` fault mid-commit — the flight recorder must
   leave a parseable ``flight.jsonl`` post-mortem next to the log
   whose tail shows the doomed commit's static effect, the injected
   fault site, and the terminal crash marker, in that order;
3. ``Database.health()`` — the snapshot must be JSON-safe, report the
   WAL's fsync percentiles, and export cleanly through the Prometheus
   text exporter (which validates every metric name).
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "benchmarks"))

from workloads import hr  # noqa: E402

from repro import obs  # noqa: E402
from repro.errors import TransientFault  # noqa: E402
from repro.resilience.faults import FaultPlan, FaultRule, inject  # noqa: E402

WORKLOADS = [
    "{ struct(m: m.name, team: { e.EmpID | e <- Employees, "
    "e.UniqueManager == m }) | m <- Managers }",
    "{ struct(e: e.EmpID, m: m.name) "
    "| e <- Employees, m <- Managers, m == e.UniqueManager }",
    "{ e.name | e <- Employees, e.GrossSalary > 5400 }",
]


def act_1_profiler(db) -> None:
    for src in WORKLOADS:
        prof = db.explain_analyze(src)
        assert prof.engine == "compiled", (src, prof.engine)
        assert prof.nodes, "profiler produced no operator tree"
        for node in prof.nodes:
            d = node.as_dict()
            assert d["est_rows"] is not None, f"node {d['label']}: no estimate"
            assert d["rows_out"] is not None, f"node {d['label']}: no actual"
        unexecuted = db.explain_cost(src)
        assert [n.label for n in unexecuted.nodes] == [
            n.label for n in prof.nodes
        ], "explain cost and explain analyze disagree on the tree"
        assert unexecuted.notes == prof.notes
        round_tripped = json.loads(json.dumps(prof.profile_dict()))
        assert round_tripped["nodes"], "profile_dict lost the tree"
        print(prof.render())
        print()
    print(f"act 1 ok: {len(WORKLOADS)} profiled queries, every node has "
          "estimate + actual, one tree for cost and analyze\n")


def act_2_flight_recorder(db, wal_dir: str) -> None:
    plan = FaultPlan([FaultRule("wal.fsync", at=1)])
    try:
        with inject(plan):
            db.insert("Manager", name="doomed", age=50, level=9)
    except TransientFault as exc:
        print(f"injected: {exc}")
    else:
        raise AssertionError("wal.fsync fault did not fire")
    dump = os.path.join(wal_dir, "flight.jsonl")
    assert os.path.exists(dump), "no flight dump after the crash"
    with open(dump, encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh if line.strip()]
    assert lines[0]["category"] == "flight-header", lines[0]
    tail = lines[-6:]
    cats = [rec["category"] for rec in tail]
    assert cats[-1] == "crash", cats
    assert any(
        rec["category"] == "fault" and rec["site"] == "wal.fsync"
        for rec in tail
    ), f"fault site missing from dump tail: {cats}"
    commits = [rec for rec in lines if rec["category"] == "commit"]
    assert commits and "A(Manager)" in commits[-1]["effect"], commits
    print(f"act 2 ok: {len(lines)}-line flight dump, tail "
          f"{cats} carries the commit effect "
          f"{commits[-1]['effect']}\n")


def act_3_health(db) -> None:
    h = db.health()
    json.dumps(h)  # JSON-safe or raise
    assert h["wal"]["attached"], "WAL should still be attached"
    assert h["wal"]["fsync"]["samples"] > 0, "no fsync samples recorded"
    assert h["wal"]["fsync"]["p99_s"] >= h["wal"]["fsync"]["p50_s"] >= 0.0
    assert h["plan_cache"]["hits"] + h["plan_cache"]["misses"] > 0
    obs.enable()
    try:
        db.health()  # mirrors the scalars into the registry
        text = obs.export.prometheus_text()
    finally:
        obs.disable()
        obs.reset()
    for metric in ("wal_fsync_p99_seconds", "plan_cache_hit_rate",
                   "wal_applied_lsn"):
        assert f"\n{metric} " in text or text.startswith(f"{metric} "), (
            f"{metric} missing from the Prometheus export"
        )
    from repro.db import health as health_mod

    print(health_mod.render(h))
    print("\nact 3 ok: health snapshot JSON-safe, fsync percentiles "
          "populated, Prometheus export serves the gauges")


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        db = hr(40, 6)
        wal_dir = os.path.join(tmp, "hr-db")
        db.attach_wal(wal_dir)
        db.insert("Manager", name="warmup", age=44, level=1)
        act_1_profiler(db)
        act_2_flight_recorder(db, wal_dir)
        act_3_health(db)
    print("\nobs smoke: all acts passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
