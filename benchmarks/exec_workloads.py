"""Compiled-engine benchmark workloads → ``BENCH_exec.json``
(``BENCH_exec.quick.json`` in quick mode).

Runs the set-at-a-time compiled engine of :mod:`repro.exec` against the
big-step evaluator (the fastest interpreted presentation) on the §2 HR
database at scale, checks the answers agree, and records wall-times and
speedups.  Exits non-zero if the compiled engine *loses* to big-step on
any workload, or if the multi-generator join workload falls short of
the 10× bar — CI runs this in quick mode as a perf-regression gate.

Usage::

    PYTHONPATH=src python benchmarks/exec_workloads.py          # full
    REPRO_BENCH_QUICK=1 PYTHONPATH=src python benchmarks/exec_workloads.py

Workloads (all read-only, so Theorem 4 routes them to the compiled
engine automatically):

* ``join_nested_teams``  — the §2 manager→team nested join
  (HR_QUERIES[8]): per-manager subcomprehension turned into one shared
  hash table over ``Employees.UniqueManager``;
* ``join_flat_pairs``    — a flat two-generator oid equi-join;
* ``filter_selective``   — a selective single-extent filter;
* ``setops_union``       — cast + union over two extents;
* ``cached_repeat``      — the same query issued repeatedly through
  ``Database.run`` (plan + result cache; the effect system proves no
  intervening write, so replays are O(1)).

A second report, ``BENCH_obs.json``, records the cost of ``.explain
analyze``'s per-operator instrumentation: profiled execution (prebuilt
plan, compile cost excluded) must stay within ``PROFILE_BAR`` (1.5×)
of the plain compiled engine, and a profiled run with observability
off must leave the obs stores untouched.
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(__file__))

from workloads import hr  # noqa: E402

from repro.semantics.bigstep import evaluate_bigstep  # noqa: E402
from repro.exec.engine import execute_plan  # noqa: E402

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")
SCALE = dict(n_employees=150, n_managers=15) if QUICK else dict(
    n_employees=400, n_managers=25
)
REPEATS = 3 if QUICK else 5
JOIN_BAR = 10.0  # the PR's acceptance bar on the join workloads
PROFILE_BAR = 1.5  # max allowed profiled/plain execution ratio

WORKLOADS = {
    "join_nested_teams": (
        "{ struct(m: m.name, team: { e.EmpID | e <- Employees, "
        "e.UniqueManager == m }) | m <- Managers }"
    ),
    "join_flat_pairs": (
        "{ struct(e: e.EmpID, m: m.name) "
        "| e <- Employees, m <- Managers, m == e.UniqueManager }"
    ),
    "filter_selective": (
        "{ e.name | e <- Employees, e.GrossSalary > 5400 }"
    ),
    "setops_union": "{ (Person) e | e <- Employees } union Persons",
}


def _best_of(fn, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_workload(db, src: str) -> dict:
    q = db.parse(src)
    decision = db.plan_decision(q)
    assert decision.engine == "compiled", (src, decision.reason)
    entry = decision.entry

    # answers must agree before any timing counts
    compiled_value, _, ops = execute_plan(db, entry)
    big = evaluate_bigstep(db.machine, db.ee, db.oe, q)
    assert compiled_value == big.value, f"value mismatch on {src!r}"

    compiled_s = _best_of(lambda: execute_plan(db, entry))
    bigstep_s = _best_of(
        lambda: evaluate_bigstep(db.machine, db.ee, db.oe, q)
    )
    return {
        "query": " ".join(src.split()),
        "compiled_s": compiled_s,
        "bigstep_s": bigstep_s,
        "speedup_vs_bigstep": bigstep_s / compiled_s,
        "compiled_ops": ops,
    }


def bench_cached_repeat(db, n: int = 200) -> dict:
    src = WORKLOADS["join_flat_pairs"]
    first = db.run(src, commit=False)  # compiles + executes + caches
    start = time.perf_counter()
    for _ in range(n):
        replay = db.run(src, commit=False)
    replay_total = time.perf_counter() - start
    assert replay.value == first.value
    fresh = db.plan_decision(src).entry
    fresh_s = _best_of(lambda: execute_plan(db, fresh))
    per_replay = replay_total / n
    return {
        "query": " ".join(src.split()),
        "replays": n,
        "replay_s": per_replay,
        "fresh_exec_s": fresh_s,
        "speedup_vs_fresh": fresh_s / per_replay if per_replay else float("inf"),
    }


def bench_profile_overhead(db, src: str) -> dict:
    """Profiled vs plain execution on prebuilt plans (no compile cost).

    ``explain_analyze`` compiles its profiled plan before the clock
    starts; its ``elapsed_s`` covers context set-up and the plan run,
    the same span ``execute_plan`` takes on the cached plain plan.
    """
    entry = db.plan_decision(src).entry

    plain_value, _, _ = execute_plan(db, entry)
    prof = db.explain_analyze(src)
    assert prof.value == plain_value, f"profiled value mismatch on {src!r}"
    assert all(n.rows_in >= 0 for n in prof.nodes)

    plain_s = _best_of(lambda: execute_plan(db, entry))
    profiled_s = min(
        db.explain_analyze(src).elapsed_s for _ in range(REPEATS)
    )
    return {
        "query": " ".join(src.split()),
        "plain_s": plain_s,
        "profiled_s": profiled_s,
        "overhead": profiled_s / plain_s if plain_s else 1.0,
        "operators": len(prof.nodes),
    }


def _assert_obs_off_untouched(db, src: str) -> None:
    """A profiled run with obs disabled must not feed the obs stores."""
    from repro import obs

    was_enabled = obs.enabled()
    obs.disable()
    obs.reset()
    try:
        db.explain_analyze(src)
        assert not obs.TRACER.finished, "spans recorded with obs off"
        assert not obs.STREAM.events, "events recorded with obs off"
        assert not obs.REGISTRY.collect(), "metrics recorded with obs off"
    finally:
        if was_enabled:
            obs.enable()


def bench_obs(db) -> int:
    """The ``BENCH_obs.json`` report; returns the number of failures."""
    report: dict = {"quick": QUICK, "scale": SCALE, "bar": PROFILE_BAR,
                    "workloads": {}}
    failures: list[str] = []
    for name, src in WORKLOADS.items():
        rec = bench_profile_overhead(db, src)
        report["workloads"][name] = rec
        status = "ok" if rec["overhead"] <= PROFILE_BAR else (
            f"ABOVE {PROFILE_BAR:g}x BAR"
        )
        print(
            f"{name:<22} plain    {rec['plain_s'] * 1e3:8.3f} ms   "
            f"profiled {rec['profiled_s'] * 1e3:8.3f} ms   "
            f"{rec['overhead']:7.2f}x   {status}"
        )
        if rec["overhead"] > PROFILE_BAR:
            failures.append(
                f"{name}: profiling overhead {rec['overhead']:.2f}x > "
                f"{PROFILE_BAR:g}x"
            )
    _assert_obs_off_untouched(db, WORKLOADS["join_flat_pairs"])
    print("obs-off check: profiled run left spans/events/metrics empty")
    report["obs_off_untouched"] = True

    path = os.environ.get("REPRO_BENCH_OBS_PATH", "BENCH_obs.json")
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(report, fp, indent=2, sort_keys=True)
        fp.write("\n")
    print(f"wrote {path}")
    if failures:
        print("FAIL: " + "; ".join(failures), file=sys.stderr)
    return len(failures)


def main() -> int:
    db = hr(**SCALE)
    report: dict = {
        "quick": QUICK,
        "scale": SCALE,
        "repeats": REPEATS,
        "workloads": {},
    }
    failures: list[str] = []
    for name, src in WORKLOADS.items():
        rec = bench_workload(db, src)
        report["workloads"][name] = rec
        speedup = rec["speedup_vs_bigstep"]
        bar = JOIN_BAR if name.startswith("join") else 1.0
        status = "ok" if speedup >= bar else f"BELOW {bar:g}x BAR"
        print(
            f"{name:<22} compiled {rec['compiled_s'] * 1e3:8.3f} ms   "
            f"bigstep {rec['bigstep_s'] * 1e3:8.3f} ms   "
            f"{speedup:8.1f}x   {status}"
        )
        if speedup < bar:
            failures.append(
                f"{name}: {speedup:.1f}x < required {bar:g}x"
            )
    rec = bench_cached_repeat(db)
    report["workloads"]["cached_repeat"] = rec
    print(
        f"{'cached_repeat':<22} replay   {rec['replay_s'] * 1e6:8.1f} µs   "
        f"fresh   {rec['fresh_exec_s'] * 1e6:8.1f} µs   "
        f"{rec['speedup_vs_fresh']:8.1f}x"
    )

    # a quick run never overwrites the committed full-mode report
    path = os.path.join(
        os.path.dirname(__file__), "..",
        "BENCH_exec.quick.json" if QUICK else "BENCH_exec.json",
    )
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(report, fp, indent=2, sort_keys=True)
        fp.write("\n")
    print(f"wrote {os.path.abspath(path)}")

    if bench_obs(db):
        return 1
    if failures:
        print("FAIL: " + "; ".join(failures), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
