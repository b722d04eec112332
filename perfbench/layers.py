"""Per-layer spans for the benchmark's ``--trace 1`` mode.

Wrappers defined here are installed around each layer's public entry
point at the attribute where its callers look it up (``parse_query`` where
``repro.db.database`` binds it, methods on their classes), and removed
again afterwards; the program itself is not edited.  While ``Tracer.op``
is non-zero, a wrapped call opens a span recording its layer, start, end,
parent and operation id, unless the same layer is already open on the
calling thread; while it is 0 the wrapper only passes the call through.
Spans stay in memory until the run ends.

Self time partitions wall time among the spans that were innermost when
it passed.  With several threads inside the same operation (``run_many``
workers) the time is split equally between the threads' innermost spans,
and a span waiting on spans it started in other threads gets none: the
interpreter lock runs one thread at a time, so the self times of one
operation sum to its wall time.
"""

from __future__ import annotations

import itertools
import json
import threading
from time import perf_counter_ns

def _targets():
    """(owner, attribute, layer, counter) for every wrapped entry point."""
    from repro.db import database, recovery
    from repro.db.database import Database
    from repro.db.statistics import StatisticsCatalog
    from repro.db.store import AttributeIndexes, ClosureIndexes
    from repro.db.wal import WriteAheadLog
    from repro.effects.checker import EffectChecker
    from repro.exec import engine, parallel
    from repro.exec.cache import PlanCache
    from repro.optimizer import planner
    from repro.optimizer.cost import CostModel
    from repro.replication.replica import Replica
    from repro.sched.scheduler import QueryScheduler
    from repro.typing.context import TypeContext

    return [
        (Database, "run", "db.run", None),
        (Database, "run_many", "db.run", None),
        (database, "parse_query", "lang.parse", None),
        (database, "check_query", "typing.check", None),
        # entries copied: the binding plus every entry of Q
        (TypeContext, "extend", "typing.extend", lambda a: len(a[0].vars) + 1),
        (Database, "oid_types", "db.oid_types", None),
        (EffectChecker, "check_traced", "effects.check", None),
        (database, "_decide_engine", "exec.decide", None),
        (planner, "optimize", "optimizer.optimize", None),
        (CostModel, "from_database", "optimizer.cost_model", None),
        (engine, "compile_plan", "exec.compile", None),
        (database, "execute_plan", "exec.execute", None),
        (parallel, "run_sharded", "exec.parallel", lambda a: len(a[0])),
        (database, "evaluate", "semantics.machine", None),
        (PlanCache, "note_write", "derived.plan_cache", None),
        (AttributeIndexes, "note_write", "derived.attr_index", None),
        (ClosureIndexes, "note_write", "derived.closure_index", None),
        (StatisticsCatalog, "note_write", "derived.stats", None),
        (WriteAheadLog, "append", "db.wal.append", None),
        (recovery, "load_database", "recovery.load", None),
        (recovery, "apply_record", "recovery.apply", None),
        (QueryScheduler, "admit", "sched.admit", None),
        (QueryScheduler, "run", "sched.run", None),
        (Replica, "poll", "replication.poll", None),
        (Replica, "serve", "replication.serve", None),
        (Replica, "serve_snapshot", "replication.serve", None),
    ]


#: Every layer, in the order the per-layer table lists them.
LAYERS = [
    "db.run", "lang.parse", "typing.check", "typing.extend", "db.oid_types",
    "effects.check", "exec.decide", "optimizer.optimize",
    "optimizer.cost_model", "exec.compile", "exec.execute", "exec.parallel",
    "semantics.machine", "derived.plan_cache", "derived.attr_index",
    "derived.closure_index", "derived.stats", "db.wal.append",
    "recovery.load", "recovery.apply", "sched.admit", "sched.run",
    "replication.poll", "replication.serve",
]


class Tracer:
    """Installs the wrappers and keeps the spans they record."""

    #: Operation id of the spans of the timed recovery.
    RECOVERY = -1

    def __init__(self) -> None:
        # (id, layer, start_ns, end_ns, parent id, op id, thread, depth)
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = {}
        self.op = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple] = []

    @staticmethod
    def traced(unit: int) -> bool:
        """Units alternate in blocks of four: four traced, four not.

        Blocks of four, so that both sides get every phase of the
        workloads' short cycles (every fourth insert is a Person; batches
        alternate two compositions).  The untraced units give the overhead
        baseline under the same process state.
        """
        return unit // 4 % 2 == 0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def install(self) -> None:
        self._main = threading.get_ident()
        self._main_stack = self._stack()
        for owner, attr, layer, count in _targets():
            raw = vars(owner)[attr]
            static = isinstance(raw, staticmethod)
            wrapped = self._wrap(layer, raw.__func__ if static else raw, count)
            setattr(owner, attr, staticmethod(wrapped) if static else wrapped)
            self._saved.append((owner, attr, raw))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def _wrap(self, layer: str, fn, count):
        tracer = self
        spans = self.spans
        counts = self.counts
        counts.setdefault(layer, 0)

        def wrapper(*args, **kwargs):
            if not tracer.op:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            for open_layer, _ in stack:
                if open_layer == layer:
                    return fn(*args, **kwargs)
            if stack:
                parent = stack[-1][1]
            elif threading.get_ident() != tracer._main:
                # a worker thread: caused by whatever the operation's
                # thread has open (it waits for the worker meanwhile)
                top = tracer._main_stack[-1:]
                parent = top[0][1] if top else None
            else:
                parent = None
            sid = next(tracer._ids)
            depth = len(stack)
            stack.append((layer, sid))
            if count is not None:
                counts[layer] += count(args)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans.append((sid, layer, start, end, parent, tracer.op,
                              threading.get_ident(), depth))

        wrapper.__wrapped__ = fn
        return wrapper

    def self_times(self) -> dict[int, float]:
        """Span id → self time in ns (see the module docstring)."""
        info = {s[0]: s for s in self.spans}
        events = []
        for sid, _, start, end, _, _, _, depth in self.spans:
            events.append((start, 1, depth, sid))
            events.append((end, 0, -depth, sid))
        # at one instant: ends before starts, inner ends and outer starts first
        events.sort()
        stacks: dict[int, list[int]] = {}
        own = dict.fromkeys(info, 0.0)
        prev = None
        for t, starting, _, sid in events:
            if prev is not None and t > prev:
                leaves = [st[-1] for st in stacks.values() if st]
                if len(leaves) > 1:
                    waiting = {
                        info[st[0]][4] for th, st in stacks.items()
                        if st and info[st[0]][4] in info
                        and info[info[st[0]][4]][6] != th
                    }
                    leaves = [s for s in leaves if s not in waiting] or leaves
                share = (t - prev) / len(leaves) if leaves else 0.0
                for s in leaves:
                    own[s] += share
            prev = t
            stack = stacks.setdefault(info[sid][6], [])
            if starting:
                stack.append(sid)
            else:
                stack.pop()
        return own

    def table(self, ops: int, op_seconds: float) -> dict:
        """Per-layer metrics over ``ops`` traced operations, which took
        ``op_seconds``, and over the recovery."""
        own = self.self_times()
        calls = dict.fromkeys(LAYERS, 0)
        self_ns = dict.fromkeys(LAYERS, 0.0)
        rec_calls = dict.fromkeys(LAYERS, 0)
        rec_ns = dict.fromkeys(LAYERS, 0.0)
        for sid, layer, _, _, _, op, _, _ in self.spans:
            if op >= 1:
                calls[layer] += 1
                self_ns[layer] += own[sid]
            elif op == self.RECOVERY:
                rec_calls[layer] += 1
                rec_ns[layer] += own[sid]
        per = max(ops, 1)
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls_per_op"] = calls[layer] / per
            out[f"{layer}.self_us_per_op"] = self_ns[layer] / 1e3 / per
        out["typing.extend.entries_copied_per_op"] = (
            self.counts.get("typing.extend", 0) / per
        )
        out["exec.parallel.tasks_per_op"] = (
            self.counts.get("exec.parallel", 0) / per
        )
        out["recovery.load.self_ms"] = rec_ns["recovery.load"] / 1e6
        out["recovery.apply.self_ms"] = rec_ns["recovery.apply"] / 1e6
        out["recovery.apply.calls"] = rec_calls["recovery.apply"]
        summed = sum(self_ns.values()) / 1e9
        out["trace_coverage_pct"] = (
            100.0 * summed / op_seconds if op_seconds else 0.0
        )
        return out

    def write_spans(self, path: str) -> None:
        """One JSON object per span, times in µs from the first span."""
        t0 = min((s[2] for s in self.spans), default=0)
        threads: dict[int, int] = {}
        with open(path, "w", encoding="utf-8") as fh:
            for sid, layer, start, end, parent, op, thread, _ in sorted(
                self.spans, key=lambda s: s[2]
            ):
                fh.write(json.dumps({
                    "id": sid,
                    "layer": layer,
                    "start_us": (start - t0) / 1e3,
                    "end_us": (end - t0) / 1e3,
                    "parent": parent,
                    "op": op,
                    "thread": threads.setdefault(thread, len(threads)),
                }) + "\n")
