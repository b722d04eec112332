"""End-to-end benchmark of the IOQL database: four workloads, one report.

One workload, in this process (the last stdout line is the JSON result)::

    python3 perfbench/run.py --workload read_hot --seed 1 --seconds 25 --trace 0

Every workload, each in a fresh child process, one at a time::

    python3 perfbench/run.py --runs 5 --out perfbench/out/now.json
    python3 perfbench/run.py --runs 2 --trace 1 --out perfbench/results/seed.json

Compare medians against a baseline (exit 1 on a regression, a missing
metric or a failed operation)::

    python3 perfbench/run.py --runs 5 --check perfbench/results/seed.json
    python3 perfbench/run.py --results now.json --check perfbench/results/seed.json

Metric names, units, regression bounds and the default run length come
from ``BENCHMARK.json`` at the repository root.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: Set-ups per measured run; ``setup_s`` is their median.
SETUPS = 3

#: Workload-specific metrics, gated by ``--check`` only: BENCHMARK.json's
#: end-to-end metrics must exist on every workload.  A 0 bound means the
#: value must repeat exactly for the same seed.
EXTRA = {
    "recover_s": ("s", "lower", 0.25),
    "wal_bytes_per_commit": ("B", "lower", 0.0),
}


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def import_program():
    """Import the program from this checkout's ``src`` and nowhere else."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"error: no program to measure: {SRC}/repro is missing")
    sys.path.insert(0, SRC)
    import repro

    if os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__))) != SRC:
        sys.exit(f"error: imported repro from {repro.__file__}, not {SRC}")
    import layers
    import workloads

    return workloads, layers


def percentile(sorted_xs: list[float], q: float) -> float:
    """Linear-interpolated percentile of an ascending list."""
    pos = q * (len(sorted_xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_xs) - 1)
    return sorted_xs[lo] + (sorted_xs[hi] - sorted_xs[lo]) * (pos - lo)


# ---------------------------------------------------------------------------
# One workload in this process
# ---------------------------------------------------------------------------


def measure(w, seconds: float, tracer=None):
    """The closed loop: one client, next unit after the previous returns.

    Runs until ``seconds`` of wall time have passed.  With a tracer, the
    units ``Tracer.traced`` picks are traced.  Returns (latencies of each
    unit, operations, failed operations).
    """
    latencies: list[float] = []
    ops = failed = 0
    deadline = time.perf_counter() + seconds
    for k, unit in enumerate(w.stream):
        if tracer is not None:
            tracer.op = k + 1 if tracer.traced(k) else 0
        dt, n, bad = w.step(unit)
        latencies.append(dt)
        ops += n
        failed += bad
        if time.perf_counter() >= deadline:
            break
    if tracer is not None:
        tracer.op = 0
    return latencies, ops, failed


def fresh(workloads, name: str, seed: int, scale: str, k: int):
    """A set-up workload, the seconds its set-up took, and failed warm-ups."""
    workdir = os.path.join(OUT, "tmp", f"{name}-{os.getpid()}-{k}")
    w = workloads.WORKLOADS[name](seed, scale, workdir)
    t0 = time.perf_counter()
    failed = w.setup()
    elapsed = time.perf_counter() - t0
    gc.collect()
    return w, elapsed, failed


def finish(w, tracer=None) -> dict:
    """Post-run checks, plus the timed recovery where the workload has one."""
    extra = w.finish()
    if hasattr(w, "recover"):
        if tracer is not None:
            tracer.op = tracer.RECOVERY
        extra["recover_s"] = w.recover()
        if tracer is not None:
            tracer.op = 0
    return extra


def run_one(name: str, seed: int, seconds: float, trace: bool, scale: str) -> dict:
    workloads, layers = import_program()
    spec = load_spec()
    os.makedirs(OUT, exist_ok=True)
    errors = workloads.small_store_checks(name, seed)
    failed = len(errors)
    report = {"workload": name, "seed": seed, "scale": scale,
              "seconds": seconds, "trace": trace}
    if not trace:
        setup_runs, w = [], None
        for k in range(SETUPS):
            if w is not None:
                w.close()
                w = None
                gc.collect()
            w, elapsed, bad = fresh(workloads, name, seed, scale, k)
            setup_runs.append(elapsed)
            failed += bad
        try:
            lat, ops, bad = measure(w, seconds)
            extra = finish(w)
        finally:
            w.close()
        lat.sort()
        values = {
            "setup_s": statistics.median(setup_runs),
            "ops_s": ops / sum(lat),
            "p50_ms": percentile(lat, 0.50) * 1e3,
            "p90_ms": percentile(lat, 0.90) * 1e3,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        extra.update(samples=len(lat), max_ms=lat[-1] * 1e3,
                     setup_runs=setup_runs)
        wanted = spec["end_to_end"]
    else:
        values, extra, lat, ops, bad, w = traced(workloads, layers, name, seed,
                                                 seconds, scale)
        wanted = spec["per_layer"]
    failed += bad + len(w.errors)
    errors += w.errors
    report.update(
        attempted=ops,
        failed=failed,
        correct=failed == 0,
        metrics={m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                 for m in wanted},
        extra=extra,
        errors=errors[:10],
    )
    return report


def traced(workloads, layers, name, seed, seconds, scale):
    """One timed loop in which half of the units are traced."""
    w, _, _ = fresh(workloads, name, seed, scale, 0)
    tracer = layers.Tracer()
    h0 = w.db.health()
    routed0 = w.replicas.routed_total if hasattr(w, "replicas") else 0
    wal0 = w.db.wal.size() if w.durable else 0
    tracer.install()
    try:
        lat, ops, bad = measure(w, seconds, tracer=tracer)
        wal1 = w.db.wal.size() if w.durable else 0
        commits = w.commits
        h1 = w.db.health()
        extra = finish(w, tracer)
    finally:
        tracer.uninstall()
        w.close()
    on = [dt for k, dt in enumerate(lat) if tracer.traced(k)]
    off = [dt for k, dt in enumerate(lat) if not tracer.traced(k)]
    units = len(lat)
    values = tracer.table(len(on), sum(on))
    pc0, pc1 = h0["plan_cache"], h1["plan_cache"]
    q0, q1 = h0["queries"], h1["queries"]
    hits = pc1["hits"] - pc0["hits"]
    lookups = hits + pc1["misses"] - pc0["misses"]
    compiled = q1["compiled"] - q0["compiled"]
    mixed = hasattr(w, "replicas")
    values.update({
        "exec.plan_cache.hit_ratio": hits / lookups if lookups else 0.0,
        "exec.result_cache.hit_ratio":
            (q1["result_cache_hits"] - q0["result_cache_hits"]) / compiled
            if compiled else 0.0,
        "exec.plan_cache.evictions_per_op":
            (pc1["evictions"] - pc0["evictions"]) / units,
        "derived.closure_index.rebuilds_per_op":
            (h1["closure_indexes"]["rebuilds"]
             - h0["closure_indexes"]["rebuilds"]) / units,
        "db.wal.append.bytes_per_append":
            (wal1 - wal0) / commits if commits else 0.0,
        "sched.conflict_edges_per_batch":
            w.edges / units if mixed else 0.0,
        "sched.overlap": w.busy / w.wall if mixed else 0.0,
        "replication.routed_ratio":
            (w.replicas.routed_total - routed0) / w.reads
            if mixed and w.reads else 0.0,
        "trace_overhead_pct":
            100.0 * (sum(on) / len(on)) / (sum(off) / len(off)) - 100.0
            if off else 0.0,
    })
    base = os.path.join(OUT, f"{name}-seed{seed}")
    tracer.write_spans(base + "-spans.jsonl")
    with open(base + "-layers.json", "w", encoding="utf-8") as fh:
        json.dump(values, fh, indent=1, sort_keys=True)
    extra.update(samples=units, traced_samples=len(on),
                 spans=len(tracer.spans),
                 layers_file=os.path.relpath(base + "-layers.json", ROOT))
    return values, extra, lat, ops, bad, w


def print_report(report: dict) -> None:
    spec = load_spec()
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"scale {report['scale']}  seconds {report['seconds']:g}  "
          f"trace {int(report['trace'])}")
    extra = report["extra"]
    rows = [(k, v["value"], v["unit"]) for k, v in report["metrics"].items()]
    rows += [(k, extra[k], EXTRA[k][0]) for k in EXTRA if k in extra]
    if not report["trace"]:
        rows.append(("max_ms", extra["max_ms"], "ms  (not gated)"))
        notes = {"p50_ms": f"n={extra['samples']}",
                 "p90_ms": f"n={extra['samples']}",
                 "setup_s": f"median of {len(extra['setup_runs'])}"}
    else:
        notes = {}
        order = {m["name"]: i for i, m in enumerate(spec["per_layer"])}
        rows.sort(key=lambda r: order.get(r[0], len(order)))
    for name, value, unit in rows:
        note = notes.get(name, "")
        print(f"  {name:44s} {value:14.4f} {unit:10s} {note}")
    rate = report["failed"] / max(report["attempted"], 1)
    print(f"  {'error_rate':44s} {rate:14.4f} ratio      "
          f"{report['failed']}/{report['attempted']} failed")
    for err in report["errors"]:
        print(f"  error: {err}")


# ---------------------------------------------------------------------------
# Many runs in child processes, and the regression gate
# ---------------------------------------------------------------------------


def orchestrate(args, spec) -> dict:
    names = args.workload or [w["name"] for w in spec["workloads"]]
    plan = [(r, False) for r in range(args.runs)]
    if args.trace:
        plan.append((args.runs, True))
    reports_dir = os.path.join(OUT, "reports")
    os.makedirs(reports_dir, exist_ok=True)
    doc = {"schema": 1, "meta": meta(args), "runs": []}
    for r, trace in plan:
        for name in names:
            seed = args.seed + r
            path = os.path.join(reports_dir, f"{name}-{seed}-{int(trace)}.json")
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(int(trace)), "--scale", args.scale,
                   "--report", path]
            if os.path.exists(path):
                os.remove(path)
            try:
                ok = subprocess.run(cmd, timeout=900).returncode == 0
            except subprocess.TimeoutExpired:  # the child is killed and reaped
                ok = False
            if not ok or not os.path.exists(path):
                doc["runs"].append({"workload": name, "seed": seed,
                                    "trace": trace, "correct": False,
                                    "attempted": 0, "failed": 1, "metrics": {},
                                    "extra": {}, "errors": ["run crashed"]})
                continue
            with open(path, encoding="utf-8") as fh:
                doc["runs"].append(json.load(fh))
    return doc


def meta(args) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "scale": args.scale,
        "seconds": args.seconds,
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def values_of(doc: dict, workload: str, metric: str) -> dict[int, float]:
    """seed → value over the untraced runs of ``workload``."""
    out = {}
    for run in doc["runs"]:
        if run["workload"] != workload or run["trace"]:
            continue
        source = run["metrics"] if metric in run["metrics"] else run["extra"]
        if metric in source:
            value = source[metric]
            out[run["seed"]] = value["value"] if isinstance(value, dict) else value
    return out


def spread(xs: list[float]) -> float:
    """Interquartile range as a share of the median."""
    if len(xs) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return (q3 - q1) / med if med else 0.0


def summarize(doc: dict, spec: dict) -> None:
    print(f"\n{'workload':18s} {'metric':22s} {'median':>12s} {'spread':>8s}  n")
    names = sorted({r["workload"] for r in doc["runs"]},
                   key=[w["name"] for w in spec["workloads"]].index)
    metrics = [m["name"] for m in spec["end_to_end"]] + list(EXTRA)
    for name in names:
        for metric in metrics:
            xs = list(values_of(doc, name, metric).values())
            if xs:
                print(f"{name:18s} {metric:22s} {statistics.median(xs):12.4f} "
                      f"{spread(xs):8.2%}  {len(xs)}")
        failed = sum(r["failed"] for r in doc["runs"] if r["workload"] == name)
        print(f"{name:18s} {'failed':22s} {failed:12d}")


def check(base: dict, now: dict, spec: dict) -> int:
    """Print each metric × workload verdict; 1 if the gate fails."""
    gates = [(m["name"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    gates += [(k, better, bound) for k, (_, better, bound) in EXTRA.items()]
    bad = 0
    print(f"\n{'workload':18s} {'metric':22s} {'base':>12s} {'now':>12s} "
          f"{'change':>8s} {'bound':>6s}  verdict")
    for w in spec["workloads"]:
        name = w["name"]
        runs = [r for r in now["runs"] if r["workload"] == name and not r["trace"]]
        if not runs:
            print(f"{name:18s} no runs: MISSING")
            bad += 1
            continue
        failed = sum(r["failed"] for r in runs)
        if failed or not all(r["correct"] for r in runs):
            print(f"{name:18s} {failed} failed operation(s): FAIL")
            bad += 1
        for metric, better, bound in gates:
            b, c = values_of(base, name, metric), values_of(now, name, metric)
            if not b and not c:
                continue
            if not c:
                print(f"{name:18s} {metric:22s} MISSING")
                bad += 1
                continue
            if not b:
                print(f"{name:18s} {metric:22s} (no baseline)")
                continue
            sign = 1 if better == "lower" else -1
            if bound == 0:
                # exact: compare run by run on the seeds both sides ran
                seeds = sorted(set(b) & set(c))
                mb = statistics.median(b[s] for s in seeds) if seeds else 0
                mc = statistics.median(c[s] for s in seeds) if seeds else 0
                worse = any(sign * (c[s] - b[s]) > 0 for s in seeds)
                verdict = "REGRESSION" if worse else (
                    "ok" if seeds else "unresolved")
            else:
                mb = statistics.median(b.values())
                mc = statistics.median(c.values())
                if spread(list(c.values())) > bound:
                    verdict = "unresolved"
                elif sign * (mc - mb) > bound * abs(mb):
                    verdict = "REGRESSION"
                else:
                    verdict = "ok"
            change = (mc - mb) / mb if mb else 0.0
            bad += verdict == "REGRESSION"
            print(f"{name:18s} {metric:22s} {mb:12.4f} {mc:12.4f} "
                  f"{change:+8.2%} {bound:6.0%}  {verdict}")
    print("check:", "FAILED" if bad else "passed")
    return 1 if bad else 0


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append", choices=names,
                   help="run only this workload (repeatable)")
    p.add_argument("--seed", type=int, default=1,
                   help="seed of all data and query text (run r uses seed+r)")
    p.add_argument("--seconds", type=float, default=spec["run_seconds"],
                   help="length of the timed closed loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: report per-layer metrics (with --runs: one more "
                        "traced run per workload)")
    p.add_argument("--scale", choices=("full", "smoke"), default="full")
    p.add_argument("--runs", type=int, default=None,
                   help="untraced runs per workload, in child processes")
    p.add_argument("--out", help="write every run's report to this file")
    p.add_argument("--results", help="compare this results file instead of running")
    p.add_argument("--check", metavar="BASELINE",
                   help="gate medians against a results file")
    p.add_argument("--report", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    single = (args.runs is None and args.out is None and args.check is None
              and args.results is None and args.workload
              and len(args.workload) == 1)
    if single:
        report = run_one(args.workload[0], args.seed, args.seconds,
                         bool(args.trace), args.scale)
        if args.report:
            with open(args.report, "w", encoding="utf-8") as fh:
                json.dump(report, fh, indent=1)
        print_report(report)
        print(json.dumps({k: report[k] for k in
                          ("correct", "attempted", "failed", "metrics")}))
        return 0

    if args.results:
        with open(args.results, encoding="utf-8") as fh:
            doc = json.load(fh)
    else:
        args.runs = 1 if args.runs is None else args.runs
        doc = orchestrate(args, spec)
        if args.out:
            os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=1)
    summarize(doc, spec)
    if args.check:
        with open(args.check, encoding="utf-8") as fh:
            return check(json.load(fh), doc, spec)
    return 0 if all(r["correct"] for r in doc["runs"]) else 1


if __name__ == "__main__":
    sys.exit(main())
