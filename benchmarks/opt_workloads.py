"""Optimizer v2 benchmark workloads → ``BENCH_opt.json``
(``BENCH_opt.quick.json`` in quick mode).

Measures the statistics-driven optimizer against the v1 constants-only
cost model on three gated workloads:

**skewed_join** (gate: ≥3×).  A two-extent join whose two range
predicates have wildly different true selectivities (one keeps ~0.25%,
the other ~99.5%).  The v1 model prices both at the flat 0.5 default,
so the orders tie and the written (bad) order survives; the v2 model's
equi-depth histograms discriminate, and the reorder search flips the
selective side to the outer position.  Both plans are executed and the
values compared — the win must come with identical answers.

**adaptive_replan** (gates: ≥1 replan, identical results).  A derived
source (nested intersect) whose compile-time estimate is ~8 rows but
whose observed cardinality is hundreds.  The first execution aborts on
the misestimate, recompiles with the observation as a cardinality
override — flipping the join order — and restarts.  The replanned value
must equal the sequential big-step run's (Theorem 4: the plan is
read-only, so a restart cannot change observables).

**misestimate_p90** (gate: p90 ≤ 4).  ``explain_analyze`` over a mixed
workload on skewed data; every operator's symmetric misestimate factor
``max(actual/est, est/actual)`` is pooled and the 90th percentile
gated.  This is the accuracy claim behind the other two: the stats
catalog prices what actually happens.

Usage::

    PYTHONPATH=src python benchmarks/opt_workloads.py          # full
    REPRO_BENCH_QUICK=1 PYTHONPATH=src python benchmarks/opt_workloads.py
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(__file__))

from repro.db.database import Database  # noqa: E402
from repro.exec.cache import PlanEntry  # noqa: E402
from repro.exec.compiler import compile_plan  # noqa: E402
from repro.exec.engine import execute_plan  # noqa: E402
from repro.obs.profile import misestimate_percentile  # noqa: E402
from repro.optimizer.cost import CostModel, cost_rules  # noqa: E402
from repro.optimizer.planner import optimize  # noqa: E402

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")
N = 700 if QUICK else 2000
JOIN_BAR = 3.0
P90_BAR = 4.0

ODL = """
class A extends Object (extent As) {
    attribute int val;
    attribute int grp;
}
class B extends Object (extent Bs) {
    attribute int val;
    attribute int id;
}
class Tiny extends Object (extent Tinys) {
    attribute int n;
}
"""


def build() -> Database:
    db = Database.from_odl(ODL)
    for i in range(N):
        # grp is heavily skewed: value 0 holds 90% of the rows
        db.insert("A", val=i, grp=0 if i % 10 != 9 else i)
    for i in range(N):
        db.insert("B", val=i, id=i)
    for i in range(10):
        db.insert("Tiny", n=i)
    db.analyze()
    return db


def compile_with(db: Database, src: str, model: CostModel):
    """One query through the optimize+compile pipeline under ``model``."""
    q = db.parse(src)
    _, eff = db.typecheck_with_effect(q)
    normalised = optimize(db, q, cost_rules(model), model=model).query
    plan = compile_plan(
        db.schema,
        db._definitions,
        normalised,
        method_mode=db.method_mode,
        method_fuel=db.machine.method_fuel,
        cost_model=model,
    )
    return PlanEntry(
        plan=plan,
        reads=eff.reads(),
        stats_epoch=model.stats_epoch,
    )


def v1_model(db: Database) -> CostModel:
    """The pre-stats cost model: extent sizes + System-R constants."""
    return CostModel({e: len(db.ee.members(e)) for e in db.ee.names()})


def timed_plan(db: Database, entry: PlanEntry) -> tuple[float, object]:
    start = time.perf_counter()
    value, _, _ = execute_plan(db, entry)
    return time.perf_counter() - start, value


def bench_skewed_join() -> dict:
    db = build()
    db.replan_ratio = None  # isolate planning quality from replanning
    lo = max(1, N // 400)  # a.val < lo keeps ~0.25%
    hi = N - max(1, N // 200)  # b.val < hi keeps ~99.5%
    src = (
        f"{{ struct(x: a.val, y: b.val) | b <- Bs, a <- As, "
        f"b.val < {hi}, a.val < {lo} }}"
    )
    v1_entry = compile_with(db, src, v1_model(db))
    v2_entry = compile_with(db, src, CostModel.from_database(db))
    v1_s, v1_val = timed_plan(db, v1_entry)
    v2_s, v2_val = timed_plan(db, v2_entry)
    assert v1_val == v2_val, "skewed_join: plans disagree on the answer"
    speedup = v1_s / v2_s if v2_s > 0 else float("inf")
    row = {
        "workload": "skewed_join",
        "rows_per_extent": N,
        "v1_constants_s": round(v1_s, 4),
        "v2_stats_s": round(v2_s, 4),
        "speedup": round(speedup, 2),
        "result_rows": len(v1_val.items),
        "gated": True,
        "bar": JOIN_BAR,
    }
    print(
        f"skewed_join        v1 {v1_s * 1e3:8.1f} ms  "
        f"v2 {v2_s * 1e3:8.1f} ms  {speedup:5.2f}x"
    )
    return row


def bench_adaptive_replan() -> dict:
    db = build()
    src = (
        "{ struct(a: s.val, b: t.n) | s <- (As intersect "
        "(As intersect (As intersect As))), t <- Tinys }"
    )
    start = time.perf_counter()
    first = db.run(src, commit=False)
    first_s = time.perf_counter() - start
    replans = db._qstats["replans"]
    start = time.perf_counter()
    second = db.run(src, commit=False)
    second_s = time.perf_counter() - start
    sequential = db.run(src, commit=False, engine="bigstep")
    identical = (
        first.value == sequential.value and second.value == sequential.value
    )
    dec = db.plan_decision(db.parse(src))
    note = next(
        (n for n in dec.plan.notes if n.startswith("replan:")), None
    )
    row = {
        "workload": "adaptive_replan",
        "rows_per_extent": N,
        "replans": replans,
        "replan_note": note,
        "first_run_s": round(first_s, 4),
        "replanned_run_s": round(second_s, 4),
        "results_identical_to_sequential": identical,
        "gated": True,
    }
    print(
        f"adaptive_replan    replans={replans}  identical={identical}  "
        f"({note})"
    )
    return row


def bench_misestimate_p90() -> dict:
    db = build()
    lo, mid = max(1, N // 100), N // 2
    workload = [
        "{ a.val | a <- As }",
        f"{{ a.val | a <- As, a.val < {lo} }}",
        f"{{ a.val | a <- As, a.val < {mid} }}",
        f"{{ a.val | a <- As, a.val >= {mid} }}",
        "{ a.val | a <- As, a.grp = 0 }",  # the hot key
        f"{{ a.val | a <- As, a.grp = {N + 1} }}",  # absent key
        f"{{ struct(x: a.val, y: b.id) | a <- As, b <- Bs, "
        f"a.val = b.id, b.val < {mid} }}",
        f"{{ b.id | b <- Bs, b.id = {mid} }}",
        "{ struct(x: a.grp, y: t.n) | a <- As, t <- Tinys, "
        "a.grp = t.n }",
    ]
    factors: list[float] = []
    per_query = {}
    for src in workload:
        prof = db.explain_analyze(src)
        p = misestimate_percentile(prof.nodes, 1.0)  # worst node
        per_query[src] = round(p, 2)
        for node in prof.nodes:
            r = node.misestimate
            if r is None:
                factors.append(p)
            elif r > 0:
                factors.append(max(r, 1.0 / r))
    factors.sort()
    p90 = factors[min(len(factors) - 1, int(0.9 * len(factors)))]
    row = {
        "workload": "misestimate_p90",
        "rows_per_extent": N,
        "queries": len(workload),
        "operators_scored": len(factors),
        "p90": round(p90, 2),
        "worst_factor_per_query": per_query,
        "gated": True,
        "bar": P90_BAR,
    }
    print(
        f"misestimate_p90    {len(factors)} operators  p90={p90:.2f}  "
        f"(bar {P90_BAR})"
    )
    return row


def main() -> int:
    rows = [
        bench_skewed_join(),
        bench_adaptive_replan(),
        bench_misestimate_p90(),
    ]
    report = {
        "quick": QUICK,
        "rows_per_extent": N,
        "join_bar": JOIN_BAR,
        "p90_bar": P90_BAR,
        "workloads": rows,
    }
    # a quick run never overwrites the committed full-mode report
    out = os.path.join(
        os.path.dirname(__file__), "..",
        "BENCH_opt.quick.json" if QUICK else "BENCH_opt.json",
    )
    with open(out, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    print(f"wrote {os.path.abspath(out)}")
    failed = False
    by_name = {r["workload"]: r for r in rows}
    sj = by_name["skewed_join"]
    if sj["speedup"] < sj["bar"]:
        print(f"FAIL: skewed_join {sj['speedup']}x < {sj['bar']}x bar")
        failed = True
    else:
        print(f"OK: skewed_join {sj['speedup']}x >= {sj['bar']}x")
    ar = by_name["adaptive_replan"]
    if ar["replans"] < 1 or not ar["results_identical_to_sequential"]:
        print(
            f"FAIL: adaptive_replan replans={ar['replans']} "
            f"identical={ar['results_identical_to_sequential']}"
        )
        failed = True
    else:
        print(f"OK: adaptive_replan {ar['replans']} replan(s), identical")
    mp = by_name["misestimate_p90"]
    if mp["p90"] > mp["bar"]:
        print(f"FAIL: misestimate_p90 {mp['p90']} > {mp['bar']} bar")
        failed = True
    else:
        print(f"OK: misestimate_p90 {mp['p90']} <= {mp['bar']}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
