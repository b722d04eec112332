"""The live health surface: one snapshot dict per call, no daemon.

:func:`collect` assembles a nested, JSON-safe dict from counters every
subsystem keeps *anyway* (plan-cache hit/miss totals, the WAL's rolling
fsync-latency window, the last ``run_many`` batch stats, the flight
recorder's ring bookkeeping) — taking a snapshot allocates a dict but
adds no steady-state cost to the instrumented paths, so ``health()``
works with observability off.

:func:`export_gauges` mirrors the scalar fields into the metrics
registry under Prometheus-legal names, so the existing text exporter
(:func:`repro.obs.export.export_prometheus`) serves them; the shell's
``.top`` command renders :func:`render`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.obs.flight import RECORDER as _RECORDER
from repro.obs.metrics import REGISTRY as _METRICS
from repro.resilience import faults as _faults

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.db.database import Database


def _percentile(samples: list[float], q: float) -> float:
    """Exact percentile (nearest-rank with interpolation) of ``samples``."""
    if not samples:
        return 0.0
    xs = sorted(samples)
    if len(xs) == 1:
        return xs[0]
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    frac = pos - lo
    return xs[lo] + (xs[hi] - xs[lo]) * frac


def _rate(hits: int, misses: int) -> float:
    total = hits + misses
    return hits / total if total else 0.0


def collect(db: "Database") -> dict:
    """A point-in-time, JSON-safe health snapshot of ``db``."""
    cache = db._plan_cache
    wal = db._wal
    fsyncs = list(wal.fsync_times) if wal is not None else []
    plan = _faults.active()
    return {
        "plan_cache": {
            "entries": len(cache),
            "hits": cache.hits,
            "misses": cache.misses,
            "evictions": cache.evictions,
            "hit_rate": _rate(cache.hits, cache.misses),
        },
        "queries": dict(db._qstats),
        "result_cache": {
            "hits": db._qstats["result_cache_hits"],
            "hit_rate": _rate(
                db._qstats["result_cache_hits"],
                max(db._qstats["compiled"], 0),
            ),
        },
        "wal": {
            "attached": wal is not None,
            "directory": db._wal_dir,
            "applied_lsn": wal.last_lsn if wal is not None else 0,
            "checkpoint_lsn": db._checkpoint_lsn,
            "sync": wal.sync if wal is not None else None,
            "fsync": {
                "samples": len(fsyncs),
                "p50_s": _percentile(fsyncs, 0.50),
                "p99_s": _percentile(fsyncs, 0.99),
                "max_s": max(fsyncs) if fsyncs else 0.0,
                "mean_s": sum(fsyncs) / len(fsyncs) if fsyncs else 0.0,
            },
        },
        "scheduler": dict(db._last_batch) if db._last_batch else None,
        "sharding": _sharding_section(db),
        "replication": (
            db._replicas.snapshot() if db._replicas is not None else None
        ),
        "indexes": {
            "entries": len(db._indexes),
            "versions": db._indexes.snapshot(),
            "store_version": db._state_version,
        },
        "closure_indexes": {
            "entries": len(db._closure_indexes),
            "rebuilds": db._closure_indexes.rebuilds,
            "versions": db._closure_indexes.snapshot(),
        },
        "optimizer": _optimizer_section(db),
        "store": {
            "objects": len(db.oe),
            "extents": {
                name: len(db.ee.members(name)) for name in sorted(db.ee.names())
            },
            "definitions": len(db._definitions),
        },
        "faults": {
            "plan_installed": plan is not None,
            "hits": sum(plan.hits.values()) if plan is not None else 0,
            "fired": sum(plan.fired.values()) if plan is not None else 0,
        },
        "flight": _RECORDER.stats(),
    }


def _optimizer_section(db: "Database") -> dict:
    """The ``"optimizer"`` stanza: stats catalog state and replans."""
    snap = db._stats.snapshot()
    snap["replans"] = db._qstats["replans"]
    snap["replan_ratio"] = db.replan_ratio
    return snap


def _sharding_section(db: "Database") -> dict | None:
    """The ``"sharding"`` stanza: layout, skew, installs, pool usage."""
    shards = db._shards
    if not shards.enabled:
        return None
    from repro.exec import parallel as _parallel

    snap = shards.snapshot(db.ee)
    snap["pool"] = _parallel.snapshot()
    snap["sharded_classes"] = len(snap["extents"])
    versions = [
        e["version_skew"] for e in snap["extents"].values()
    ]
    snap["version_skew_max"] = max(versions) if versions else 0
    return snap


#: scalar gauge name → path into the snapshot dict (all Prometheus-legal)
_GAUGES: dict[str, tuple[str, ...]] = {
    "plan_cache_entries": ("plan_cache", "entries"),
    "plan_cache_hit_rate": ("plan_cache", "hit_rate"),
    "plan_cache_evictions": ("plan_cache", "evictions"),
    "result_cache_hit_rate": ("result_cache", "hit_rate"),
    "queries_total": ("queries", "runs"),
    "query_failures_total": ("queries", "failures"),
    "query_budget_exhausted_total": ("queries", "budget_exhausted"),
    "wal_applied_lsn": ("wal", "applied_lsn"),
    "wal_checkpoint_lsn": ("wal", "checkpoint_lsn"),
    "wal_fsync_p50_seconds": ("wal", "fsync", "p50_s"),
    "wal_fsync_p99_seconds": ("wal", "fsync", "p99_s"),
    "sched_queue_depth_peak": ("scheduler", "queue_depth_peak"),
    "sched_conflict_degree_mean": ("scheduler", "conflict_degree_mean"),
    "replica_count": ("replication", "count"),
    "replica_routed_reads_total": ("replication", "routed"),
    "replica_pinned_reads_total": ("replication", "pinned"),
    "replica_degraded_reads_total": ("replication", "degraded"),
    "shard_extents_total": ("sharding", "sharded_classes"),
    "shard_installs_total": ("sharding", "installs"),
    "shard_rebuilds_total": ("sharding", "rebuilds"),
    "shard_epoch": ("sharding", "epoch"),
    "shard_version_skew_max": ("sharding", "version_skew_max"),
    "shard_pool_workers": ("sharding", "pool", "workers"),
    "shard_pool_tasks_total": ("sharding", "pool", "tasks"),
    "shard_pool_batches_total": ("sharding", "pool", "batches"),
    "shard_pool_utilization": ("sharding", "pool", "utilization"),
    "optimizer_stats_epoch": ("optimizer", "epoch"),
    "optimizer_analyzed_columns": ("optimizer", "analyzed_columns"),
    "optimizer_replans_total": ("optimizer", "replans"),
    "index_entries": ("indexes", "entries"),
    "live_objects_snapshot": ("store", "objects"),
    "flight_events_recorded": ("flight", "recorded"),
    "flight_events_dropped": ("flight", "dropped"),
    "flight_crash_dumps": ("flight", "dumps"),
}


def _lookup(snapshot: dict, path: tuple[str, ...]):
    cur = snapshot
    for key in path:
        if not isinstance(cur, dict) or key not in cur:
            return None
        cur = cur[key]
    return cur


def export_gauges(snapshot: dict) -> None:
    """Mirror the snapshot's scalars into the metrics registry.

    Gauge names are validated (Prometheus charset) at registration by
    :mod:`repro.obs.metrics`; a snapshot section that is absent (e.g.
    no ``run_many`` batch yet) simply skips its gauges.
    """
    for name, path in _GAUGES.items():
        value = _lookup(snapshot, path)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        _METRICS.gauge(name).set(float(value))


def render(snapshot: dict) -> str:
    """The ``.top`` view: the snapshot as an aligned two-column board."""
    q = snapshot["queries"]
    pc = snapshot["plan_cache"]
    w = snapshot["wal"]
    fl = snapshot["flight"]
    lines = [
        "database health",
        "  queries     "
        f"runs={q['runs']} compiled={q['compiled']} "
        f"reduction={q['reduction']} bigstep={q['bigstep']} "
        f"failures={q['failures']}",
        "  plan cache  "
        f"entries={pc['entries']} hit_rate={pc['hit_rate']:.0%} "
        f"evictions={pc['evictions']}",
        "  result cache"
        f" hits={snapshot['result_cache']['hits']} "
        f"hit_rate={snapshot['result_cache']['hit_rate']:.0%}",
    ]
    if w["attached"]:
        fs = w["fsync"]
        lines.append(
            "  wal         "
            f"lsn={w['applied_lsn']} ckpt={w['checkpoint_lsn']} "
            f"fsync p50={fs['p50_s'] * 1e3:.2f}ms "
            f"p99={fs['p99_s'] * 1e3:.2f}ms ({fs['samples']} samples)"
        )
    else:
        lines.append("  wal         not attached")
    sched = snapshot["scheduler"]
    if sched:
        lines.append(
            "  scheduler   "
            f"last batch: {sched['queries']} queries, "
            f"{sched['workers']} workers, "
            f"queue peak={sched['queue_depth_peak']}, "
            f"conflict degree={sched['conflict_degree_mean']:.2f}, "
            f"speedup={sched.get('speedup', 0.0):.2f}x"
        )
    else:
        lines.append("  scheduler   no batches yet")
    sh = snapshot.get("sharding")
    if sh:
        layout = ", ".join(
            f"{name}:k={e['k']}"
            + (f" by {e['by']}" if e["by"] else " by oid")
            + (
                f" skew={e['size_skew']}"
                if e["size_skew"] is not None
                else ""
            )
            for name, e in sorted(sh["extents"].items())
        )
        pool = sh.get("pool") or {}
        util = pool.get("utilization")
        lines.append(
            "  sharding    "
            f"installs={sh['installs']} rebuilds={sh['rebuilds']} "
            f"pool tasks={pool.get('tasks', 0)}"
            + (f" util={util:.0%}" if util is not None else "")
            + f" [{layout}]"
        )
    rep = snapshot.get("replication")
    if rep:
        states = ", ".join(
            f"{r['name']}={r['state']}(lag {r['lag']})"
            for r in rep["replicas"]
        )
        lines.append(
            "  replication "
            f"routed={rep['routed']} pinned={rep['pinned']} "
            f"degraded={rep['degraded']} [{states}]"
        )
    idx = snapshot["indexes"]
    lines.append(
        "  indexes     "
        f"entries={idx['entries']} store_version={idx['store_version']}"
    )
    cix = snapshot.get("closure_indexes")
    if cix and cix["entries"]:
        spans = ", ".join(
            f"{label}: {e['nodes']} nodes"
            + (" (cyclic)" if e["cyclic"] else "")
            + ("" if e["usable"] else " (unusable)")
            for label, e in cix["versions"].items()
        )
        lines.append(f"  closures    entries={cix['entries']} [{spans}]")
    opt = snapshot.get("optimizer")
    if opt:
        ratio = opt.get("replan_ratio")
        lines.append(
            "  optimizer   "
            f"stats epoch={opt['epoch']} "
            f"columns={opt['analyzed_columns']} "
            f"replans={opt['replans']}"
            + (f" (ratio {ratio:g}x)" if ratio else " (replanning off)")
        )
    st = snapshot["store"]
    extents = ", ".join(
        f"{name}={n}" for name, n in st["extents"].items()
    )
    lines.append(
        f"  store       objects={st['objects']} "
        f"defs={st['definitions']} [{extents}]"
    )
    f = snapshot["faults"]
    if f["plan_installed"]:
        lines.append(
            f"  faults      plan installed: {f['hits']} hits, "
            f"{f['fired']} fired"
        )
    lines.append(
        "  flight      "
        f"buffered={fl['buffered']}/{fl['capacity']} "
        f"recorded={fl['recorded']} dropped={fl['dropped']} "
        f"dumps={fl['dumps']}"
    )
    return "\n".join(lines)
