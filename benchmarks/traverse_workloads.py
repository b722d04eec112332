"""Recursive-traversal benchmark workloads → ``BENCH_traverse.json``
(``BENCH_traverse.quick.json`` in quick mode).

Exercises the two complexity routes of the compiled `traverse`
construct and gates the two perf claims of the routing design:

* ``interval_ancestor_closure`` (the name the reports have always
  used) — the unbounded ancestor closure of a 10k-node random tree.
  After the first ask builds the persistent closure index and walks
  the extent's parent chains, repeated extent-sourced traversals
  answer from the index's memoized closure (Theorem 5 keeps it valid
  until a cone class is written).  The amortized indexed answer must
  beat the semi-naive chase by ``INTERVAL_BAR`` (10×); the cold first
  ask and full end-to-end times are reported unbarred for context.
* ``cyclic_projection`` — ``{ x.tag | x <- traverse(...) }`` over a
  cycle, where the closure index refuses (cyclic) and the compiled
  route degrades to the fuel-charged semi-naive chase.  The compiled
  semi-naive execution must beat the big-step evaluator by
  ``SEMI_NAIVE_BAR`` (5×) end to end.

Every timed query is differentially checked against the big-step
fixpoint before any timing counts.  CI runs quick mode as the
``traverse-smoke`` perf-regression gate.

Usage::

    PYTHONPATH=src python benchmarks/traverse_workloads.py          # full
    REPRO_BENCH_QUICK=1 PYTHONPATH=src python benchmarks/traverse_workloads.py
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(__file__))

from workloads import random_tree, ref_graph, ring  # noqa: E402

from repro.exec.engine import execute_plan  # noqa: E402
from repro.semantics.bigstep import evaluate_bigstep  # noqa: E402
from repro.semantics.traverse import chase  # noqa: E402

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")
TREE_N = 4_000 if QUICK else 10_000
RING_N = 800 if QUICK else 2_000
REPEATS = 3 if QUICK else 5
INTERVAL_BAR = 10.0  # amortized closure-index route vs semi-naive chase
SEMI_NAIVE_BAR = 5.0  # compiled semi-naive vs big-step on cyclic


def _best_of(fn, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_interval(report: dict, failures: list) -> None:
    db = ref_graph(random_tree(TREE_N))
    red_src = "traverse(x in refs over next)"
    yellow_src = f"traverse(x in refs over next depth <= {2 * TREE_N})"

    red = db.plan_decision(red_src)
    yellow = db.plan_decision(yellow_src)
    assert red.engine == yellow.engine == "compiled"
    assert any("red" in n for n in red.entry.plan.notes)
    assert any("yellow" in n for n in yellow.entry.plan.notes)

    # differential check (also warms the closure index)
    t0 = time.perf_counter()
    red_value, _, _ = execute_plan(db, red.entry)
    first_ask_s = time.perf_counter() - t0
    yellow_value, _, _ = execute_plan(db, yellow.entry)
    big = evaluate_bigstep(db.machine, db.ee, db.oe, db.parse(red_src))
    assert red_value == yellow_value == big.value, "route divergence"
    snap = db._closure_indexes.snapshot()
    assert snap and all(e["usable"] for e in snap.values())

    # route cores on the live store: the memoized indexed closure vs the
    # semi-naive chase with its per-node budget tick
    idx = next(iter(db._closure_indexes._indexes.values()))[-1]
    starts = db.ee.members("refs")
    ticks = [0]

    def tick(n: int = 1) -> None:
        ticks[0] += n

    interval_answer = idx.closure_of_extent(db.ee, "refs")
    chase_answer, _ = chase(db.oe, starts, "next", None, tick=tick)
    assert interval_answer == chase_answer

    interval_s = _best_of(lambda: idx.closure_of_extent(db.ee, "refs"))
    chase_s = _best_of(lambda: chase(db.oe, starts, "next", None, tick=tick))
    speedup = chase_s / interval_s if interval_s else float("inf")

    red_s = _best_of(lambda: execute_plan(db, red.entry))
    yellow_s = _best_of(lambda: execute_plan(db, yellow.entry))

    rec = {
        "tree_nodes": TREE_N,
        "closure_size": len(interval_answer),
        "interval_s": interval_s,
        "chase_s": chase_s,
        "speedup_vs_chase": speedup,
        "first_ask_s": first_ask_s,
        "end_to_end_red_s": red_s,
        "end_to_end_yellow_s": yellow_s,
        "end_to_end_ratio": yellow_s / red_s if red_s else float("inf"),
    }
    report["workloads"]["interval_ancestor_closure"] = rec
    status = "ok" if speedup >= INTERVAL_BAR else f"BELOW {INTERVAL_BAR:g}x BAR"
    print(
        f"{'interval_ancestor_closure':<28} interval {interval_s * 1e6:9.1f} µs"
        f"   chase {chase_s * 1e3:8.3f} ms   {speedup:9.1f}x   {status}"
    )
    print(
        f"{'':<28} first ask {first_ask_s * 1e3:7.2f} ms   "
        f"end-to-end red {red_s * 1e3:.2f} ms / yellow {yellow_s * 1e3:.2f} ms"
    )
    if speedup < INTERVAL_BAR:
        failures.append(
            f"interval_ancestor_closure: {speedup:.1f}x < {INTERVAL_BAR:g}x"
        )


def bench_cyclic(report: dict, failures: list) -> None:
    db = ref_graph(ring(RING_N))
    src = "{ x.tag | x <- traverse(x in refs over next) }"
    q = db.parse(src)
    decision = db.plan_decision(q)
    assert decision.engine == "compiled", decision.reason

    compiled_value, _, _ = execute_plan(db, decision.entry)
    big = evaluate_bigstep(db.machine, db.ee, db.oe, q)
    assert compiled_value == big.value, "cyclic projection divergence"
    # the closure index must have refused the cyclic store
    snap = db._closure_indexes.snapshot()
    assert all(e["cyclic"] for e in snap.values())

    compiled_s = _best_of(lambda: execute_plan(db, decision.entry))
    bigstep_s = _best_of(
        lambda: evaluate_bigstep(db.machine, db.ee, db.oe, q), repeats=2
    )
    speedup = bigstep_s / compiled_s if compiled_s else float("inf")

    rec = {
        "ring_nodes": RING_N,
        "compiled_s": compiled_s,
        "bigstep_s": bigstep_s,
        "speedup_vs_bigstep": speedup,
    }
    report["workloads"]["cyclic_projection"] = rec
    status = (
        "ok" if speedup >= SEMI_NAIVE_BAR else f"BELOW {SEMI_NAIVE_BAR:g}x BAR"
    )
    print(
        f"{'cyclic_projection':<28} compiled {compiled_s * 1e3:8.2f} ms"
        f"   bigstep {bigstep_s * 1e3:8.2f} ms   {speedup:9.1f}x   {status}"
    )
    if speedup < SEMI_NAIVE_BAR:
        failures.append(
            f"cyclic_projection: {speedup:.1f}x < {SEMI_NAIVE_BAR:g}x"
        )


def main() -> int:
    report: dict = {
        "quick": QUICK,
        "tree_nodes": TREE_N,
        "ring_nodes": RING_N,
        "repeats": REPEATS,
        "bars": {"interval": INTERVAL_BAR, "semi_naive": SEMI_NAIVE_BAR},
        "workloads": {},
    }
    failures: list[str] = []
    bench_interval(report, failures)
    bench_cyclic(report, failures)

    # a quick run never overwrites the committed full-mode report
    path = os.path.join(
        os.path.dirname(__file__), "..",
        "BENCH_traverse.quick.json" if QUICK else "BENCH_traverse.json",
    )
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(report, fp, indent=2, sort_keys=True)
        fp.write("\n")
    print(f"wrote {os.path.abspath(path)}")
    if failures:
        print("FAIL: " + "; ".join(failures), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
