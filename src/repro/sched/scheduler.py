"""The effect-guided query scheduler behind ``Database.run_many``.

Many clients hand the database a *batch* of query texts; the scheduler
must answer exactly as if it had run them one after another in
admission order, but is allowed to overlap work whose interleaving the
paper proves invisible.  The Figure 3 effect ε of each query is the
static licence for that overlap:

* two queries whose effects do not conflict (see :func:`conflicts`)
  touch provably disjoint state — Theorem 5 bounds every dynamic trace
  by its static effect, and Theorem 8's non-interference argument says
  swapping (or overlapping) them is unobservable, so they may run on
  different threads against the same immutable EE/OE snapshot;
* queries that *do* conflict are ordered by an edge in the batch's
  conflict graph and execute in admission order — in particular every
  pair of writers, so oids are allocated in the same order a
  sequential run would allocate them and the final EE/OE is equal
  (not merely ∼-equivalent) whenever the answer values are.

The conflict predicate is deliberately coarser than bare
``Effect.interferes_with``:

* **writer–writer always conflicts** — writers run in admission order
  so that oids are allocated exactly as a sequential run allocates
  them, and the final EE/OE is *equal* to the sequential one, not
  merely ∼-equivalent.  (The ``A``-only install merges a commit's
  delta into the current state, so overlapped ``A``-only writers would
  lose nothing; only their oid names would differ.  Shard-disjoint
  writers are allowed to overlap on exactly that ∼ argument — see
  :func:`shard_conflicts`.)
* **an update (``U``) conflicts with everything** — attribute reads
  carry no effect atom (the reference-chasing caveat of §5: a query
  whose ``R`` set avoids ``C`` can still observe ``C``-state through a
  chain of object references), so no disjointness argument exists for
  an updater.

Reads are genuinely snapshot-isolated: ``ExtentEnv``/``ObjectEnv`` are
persistent and a database publishes them as one ``(version, ee, oe)``
store triple, so a reader keeps answering against the triple it loaded
even while a non-conflicting writer commits a new one.

Everything is observable: the batch runs under a ``sched.batch`` span,
per-query admission passes the ``sched.admit`` fault site, and the
scheduler exports queue-depth, conflict-rate and parallel-speedup
metrics (see ``docs/CONCURRENCY.md``).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.effects.algebra import EMPTY, Effect
from repro.errors import ReproError
from repro.lang.ast import Query
from repro.obs import flight as _flight
from repro.obs._state import STATE as _OBS
from repro.obs.metrics import REGISTRY as _METRICS
from repro.obs.spans import span as _span
from repro.resilience.budget import Budget
from repro.resilience.faults import maybe_fault
from repro.resilience.retry import RetryPolicy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.db.database import Database


def conflicts(a: Effect, b: Effect) -> bool:
    """Must these two queries be ordered (admission order) in a batch?

    The base case is Figure 3 interference — one side writes a class
    the other reads, or both update a class.  On top of that the
    scheduler adds the two coarsenings argued in the module docstring:
    writers never overlap each other (admission-order oid allocation
    keeps the final state equal, not merely ∼, to the sequential
    run's), and an updater never overlaps anything (reference chasing
    escapes the R-set).
    """
    if a.interferes_with(b):
        return True
    if a.writes() and b.writes():
        return True
    if a.updates() or b.updates():
        return True
    return False


def shard_conflicts(
    a: "Admission", b: "Admission", *, allow_writer_overlap: bool = False
) -> bool:
    """:func:`conflicts`, refined to ``(class, shard)`` granularity.

    An edge :func:`conflicts` demands may be dropped when the static
    shard analyses (:func:`repro.db.shards.static_read_shards` /
    ``static_write_shards``) prove the two queries touch **disjoint
    shards** of every class they share:

    * a reader confined to shards *S* of class *C* cannot observe an
      ``A(C)`` commit into shards disjoint from *S* — the new objects'
      shard-attribute values hash outside *S*, so the confining
      equality predicate rejects them whether or not the scan was
      pruned at run time (pruning changes what is *scanned*, never
      what is *kept*);
    * two ``A``-only writers into disjoint shards commute under the
      merge-install (fresh oids are globally unique and set
      union is order-insensitive), so they may overlap when the caller
      allows it (``allow_writer_overlap`` is off under ``atomic``
      batches, whose rollback restores extents wholesale).

    Any missing analysis (``None`` dicts: sharding disabled, calls in
    the query, a class the analysis could not confine) or any ``U``
    atom keeps the conservative edge.
    """
    eff_a, eff_b = a.effect, b.effect
    if not conflicts(eff_a, eff_b):
        return False
    if eff_a.updates() or eff_b.updates():
        return True

    def overlap(writer, write_shards, reader, read_shards) -> bool:
        for cname in writer.adds() & reader.reads():
            wrote = write_shards.get(cname) if write_shards else None
            read = read_shards.get(cname) if read_shards else None
            if wrote is None or read is None or (wrote & read):
                return True
        return False

    if overlap(eff_a, a.write_shards, eff_b, b.read_shards):
        return True
    if overlap(eff_b, b.write_shards, eff_a, a.read_shards):
        return True
    if eff_a.writes() and eff_b.writes():
        if (
            not allow_writer_overlap
            or a.write_shards is None
            or b.write_shards is None
        ):
            return True
        for cname in eff_a.adds() & eff_b.adds():
            w1 = a.write_shards.get(cname)
            w2 = b.write_shards.get(cname)
            if w1 is None or w2 is None or (w1 & w2):
                return True
    return False


@dataclass
class Admission:
    """One query's entry into a batch: its slot, AST and static effect.

    A query that fails admission (parse error, Figure 1/3 rejection, or
    an injected ``sched.admit`` fault) carries the failure in ``error``
    and takes no part in the conflict graph — a sequential run would
    have raised at the same point without touching state.
    """

    index: int
    source: str | Query
    query: Query | None = None
    effect: Effect = EMPTY
    error: BaseException | None = None
    #: a replica snapshot this read will answer from (repro.replication
    #: PinnedRead), letting it leave the conflict graph entirely
    pinned: object | None = None
    #: static per-class shard confinement (class → frozenset of shard
    #: ids, or missing = unconfined); ``None`` when the primary is
    #: unsharded or the analysis refused — shard_conflicts degrades to
    #: the class-level rule
    read_shards: dict | None = None
    write_shards: dict | None = None

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def kind(self) -> str:
        if self.error is not None:
            return "error"
        return "write" if self.effect.writes() else "read"


@dataclass
class Outcome:
    """What one admitted query did: its value or its failure, timed."""

    index: int
    source: str | Query
    kind: str
    value: Query | None = None
    error: BaseException | None = None
    effect: Effect = EMPTY
    steps: int = 0
    duration: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None

    def result(self) -> Query:
        """The answer value, re-raising the query's failure if it had one."""
        if self.error is not None:
            raise self.error
        return self.value


@dataclass
class BatchResult:
    """Everything ``run_many`` learned about one scheduled batch."""

    outcomes: list[Outcome]
    workers: int
    wall_time: float
    busy_time: float
    conflict_edges: int

    def __len__(self) -> int:
        return len(self.outcomes)

    def __iter__(self):
        return iter(self.outcomes)

    def __getitem__(self, i: int) -> Outcome:
        return self.outcomes[i]

    @property
    def errors(self) -> list[Outcome]:
        return [o for o in self.outcomes if not o.ok]

    def values(self) -> list[Query]:
        """Every answer in admission order; raises the first failure."""
        return [o.result() for o in self.outcomes]

    @property
    def speedup(self) -> float:
        """Busy-time / wall-time: >1 means the overlap bought something."""
        return self.busy_time / self.wall_time if self.wall_time > 0 else 1.0

    @property
    def conflict_rate(self) -> float:
        """Conflict edges over the maximum possible for the batch size."""
        n = len(self.outcomes)
        possible = n * (n - 1) // 2
        return self.conflict_edges / possible if possible else 0.0


class QueryScheduler:
    """Admit a batch, build its conflict graph, run it on a thread pool.

    One scheduler instance runs one batch (:meth:`run`); the
    :class:`Session` front end accumulates submissions and dispatches
    them through a fresh scheduler.
    """

    def __init__(
        self,
        db: "Database",
        *,
        workers: int = 4,
        budget: Budget | None = None,
        retry: RetryPolicy | None = None,
        atomic: bool = False,
    ):
        if workers < 1:
            raise ReproError("run_many needs at least one worker")
        self.db = db
        self.workers = workers
        self.budget = budget
        self.retry = retry
        self.atomic = atomic
        # deepest ready-queue depth seen while running this batch —
        # always on (plain int compare), read by Database.health()
        self.queue_peak = 0
        # the replica set pinned reads were captured against (admit())
        self._rset = None

    # -- admission -------------------------------------------------------
    def admit(self, sources: Sequence[str | Query]) -> list[Admission]:
        """Parse and effect-check each query, in order, sequentially.

        Admission is the serial prefix of the batch: it touches only
        the (already consistent) current state and the static analyses,
        and it fixes the admission order every later tie-break uses.

        When the database has replicas attached, admission also tries
        to **pin** each read: a read-only query that no earlier batch
        writer can affect — no earlier ``U`` (reference chasing escapes
        the R-set) and no earlier ``A`` on a class it reads — answers
        the same against the pre-batch state, so it captures a covering
        replica's database and store triple *now* and leaves the
        conflict graph entirely.  Writers stop serialising behind reads
        they happen to touch.
        """
        self._rset = self.db.replicas
        batch_adds: set[str] = set()
        batch_star = False
        admissions: list[Admission] = []
        for i, src in enumerate(sources):
            adm = Admission(i, src)
            try:
                maybe_fault("sched.admit")
                adm.query, adm.effect = self.db._derive(src)
            except BaseException as exc:  # noqa: BLE001 - recorded, not lost
                adm.error = exc
            if adm.ok:
                shards = self.db._shards
                if shards.enabled:
                    try:
                        from repro.db.shards import (
                            static_read_shards,
                            static_write_shards,
                        )

                        adm.read_shards = static_read_shards(
                            shards, self.db.schema, adm.query
                        )
                        if adm.effect.writes():
                            adm.write_shards = static_write_shards(
                                shards, self.db.schema, adm.query
                            )
                    except Exception:
                        adm.read_shards = adm.write_shards = None
                if adm.effect.writes():
                    batch_star = batch_star or bool(adm.effect.updates())
                    batch_adds |= adm.effect.adds()
                elif (
                    self._rset is not None
                    and not batch_star
                    and not (batch_adds & adm.effect.reads())
                ):
                    adm.pinned = self._rset.pin(adm.effect, adm.query)
            admissions.append(adm)
            _flight.record(
                "sched-admit",
                index=i,
                kind=adm.kind,
                pinned=adm.pinned is not None,
            )
            if _OBS.enabled:
                _METRICS.counter("sched_queries_total", kind=adm.kind).inc()
        return admissions

    @staticmethod
    def conflict_graph(
        admissions: Sequence[Admission],
        *,
        allow_writer_overlap: bool = False,
    ) -> dict[int, set[int]]:
        """``deps[j] = {i < j : shard_conflicts(εᵢ, εⱼ)}`` over admitted
        queries.

        Only the *earlier* endpoint of each edge appears in a
        dependency set: the graph is a DAG by construction, and running
        every query after all of its dependencies reproduces admission
        order along every conflicting pair.  Edges are
        :func:`conflicts` refined by :func:`shard_conflicts` — pairs
        provably confined to disjoint shards of every shared class
        drop their edge, including (when ``allow_writer_overlap``)
        ``A``-only writer pairs, which the merge-install makes
        commutative.

        A **pinned** read takes no part in the graph at all: it already
        holds the store triple it will answer at, so it neither
        waits for anything nor makes any later query wait — in
        particular a writer that touches the classes it reads starts
        immediately instead of serialising behind it.
        """
        deps: dict[int, set[int]] = {}
        earlier: list[Admission] = []
        for a in admissions:
            if not a.ok:
                continue
            if a.pinned is not None:
                deps[a.index] = set()
                continue
            deps[a.index] = {
                b.index
                for b in earlier
                if shard_conflicts(
                    b, a, allow_writer_overlap=allow_writer_overlap
                )
            }
            earlier.append(a)
        return deps

    # -- execution -------------------------------------------------------
    def run(self, sources: Sequence[str | Query]) -> BatchResult:
        started = time.perf_counter()
        with _span("sched.batch", queries=len(sources), workers=self.workers) as sp:
            admissions = self.admit(sources)
            # atomic rollback restores extents wholesale, which two
            # overlapped writers would race — disjoint-shard writer
            # overlap is only sound for plain (merge-install) batches
            deps = self.conflict_graph(
                admissions, allow_writer_overlap=not self.atomic
            )
            edges = sum(len(d) for d in deps.values())
            outcomes = self._execute(admissions, deps)
            wall = time.perf_counter() - started
            busy = sum(o.duration for o in outcomes)
            result = BatchResult(
                outcomes=outcomes,
                workers=self.workers,
                wall_time=wall,
                busy_time=busy,
                conflict_edges=edges,
            )
            if _OBS.enabled:
                _METRICS.counter("sched_batches_total").inc()
                _METRICS.counter("sched_conflict_edges_total").inc(edges)
                _METRICS.gauge("sched_parallel_speedup").set(result.speedup)
                sp.set(
                    conflict_edges=edges,
                    wall=wall,
                    speedup=round(result.speedup, 3),
                )
            n_ok = sum(1 for o in outcomes if o.ok)
            batch_stats = {
                "queries": len(sources),
                "ok": n_ok,
                "errors": len(sources) - n_ok,
                "workers": self.workers,
                "pinned_reads": sum(
                    1 for a in admissions if a.pinned is not None
                ),
                "conflict_edges": edges,
                "conflict_degree_mean": (
                    2.0 * edges / len(sources) if sources else 0.0
                ),
                "queue_depth_peak": self.queue_peak,
                "wall_s": wall,
                "speedup": result.speedup,
            }
            self.db._last_batch = batch_stats
            _flight.record("sched-batch", **batch_stats)
            return result

    def _execute(
        self, admissions: Sequence[Admission], deps: dict[int, set[int]]
    ) -> list[Outcome]:
        outcomes: list[Outcome | None] = [None] * len(admissions)
        for adm in admissions:
            if not adm.ok:
                outcomes[adm.index] = Outcome(
                    adm.index, adm.source, "error", error=adm.error
                )
        runnable = [a for a in admissions if a.ok]
        if not runnable:
            return list(outcomes)
        if self.workers == 1 or len(runnable) == 1:
            # degenerate pool: admission order, no threads to coordinate
            for adm in runnable:
                outcomes[adm.index] = self._run_one(adm)
            return list(outcomes)

        remaining = {a.index: set(deps[a.index]) for a in runnable}
        dependents: dict[int, list[int]] = {a.index: [] for a in runnable}
        for j, ds in remaining.items():
            for i in ds:
                dependents[i].append(j)
        by_index = {a.index: a for a in runnable}
        # admission order within the ready set keeps the schedule stable
        ready = deque(sorted(j for j, ds in remaining.items() if not ds))
        cond = threading.Condition()
        pending = len(runnable)

        def worker() -> None:
            nonlocal pending
            while True:
                with cond:
                    while not ready and pending > 0:
                        cond.wait()
                    if pending <= 0:
                        cond.notify_all()
                        return
                    j = ready.popleft()
                    if len(ready) > self.queue_peak:
                        self.queue_peak = len(ready)
                    if _OBS.enabled:
                        _METRICS.gauge("sched_queue_depth").set(len(ready))
                out = self._run_one(by_index[j])
                with cond:
                    outcomes[j] = out
                    pending -= 1
                    for k in sorted(dependents[j]):
                        remaining[k].discard(j)
                        if not remaining[k]:
                            ready.append(k)
                    cond.notify_all()

        threads = [
            threading.Thread(target=worker, name=f"sched-worker-{i}")
            for i in range(min(self.workers, len(runnable)))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return list(outcomes)

    def _run_one(self, adm: Admission) -> Outcome:
        """Run one admitted query on the calling worker thread.

        Readers never commit — they answer from the snapshot they load;
        writers commit under the database's commit lock, and reach this
        point only after every earlier conflicting query finished, so
        their oid allocations happen in admission order.  The same lock
        orders write-ahead-log appends when a WAL is attached: log
        order = commit order = admission order, so recovery replays the
        batch exactly as a sequential run would have made it durable.
        Each attempt
        gets a fresh copy of the batch budget (per-query fuel, matching
        ``Database.run``'s retry discipline).
        """
        writer = bool(adm.effect.writes())
        budget = self.budget.fresh() if self.budget is not None else None
        t0 = time.perf_counter()
        try:
            if adm.pinned is not None and self._rset is not None:
                # routed batch read: answers from the replica snapshot
                # captured at admission (pre-batch state, which the
                # pinning condition proved equivalent)
                res = self._rset.serve_pinned(
                    adm.pinned, adm.query, adm.effect, budget=budget
                )
            else:
                # run's back half: admission made the one derivation
                with _span("query", engine="auto"):
                    res = self.db._run_derived(
                        adm.query,
                        adm.effect,
                        commit=writer,
                        budget=budget,
                        atomic=self.atomic if writer else False,
                        retry=self.retry,
                    )
            return Outcome(
                adm.index,
                adm.source,
                adm.kind,
                value=res.value,
                effect=res.effect,
                steps=res.steps,
                duration=time.perf_counter() - t0,
            )
        except BaseException as exc:  # noqa: BLE001 - recorded, not lost
            return Outcome(
                adm.index,
                adm.source,
                adm.kind,
                error=exc,
                effect=adm.effect,
                duration=time.perf_counter() - t0,
            )


@dataclass
class Pending:
    """A submitted-but-not-yet-dispatched query's handle."""

    index: int
    source: str | Query
    _session: "Session" = field(repr=False, default=None)

    @property
    def outcome(self) -> Outcome:
        if self._session is None or self._session.result is None:
            raise ReproError("session not dispatched yet")
        return self._session.result[self.index]

    def result(self) -> Query:
        """The answer value once dispatched (re-raises query failures)."""
        return self.outcome.result()


class Session:
    """Collect queries from many callers, dispatch them as one batch.

    ::

        with db.session(workers=8) as s:
            totals = s.submit("{ e.salary | e <- Employees }")
            names = s.submit("{ p.name | p <- Persons }")
        print(totals.result(), names.result())

    ``submit`` is thread-safe (clients may race to enqueue); the batch
    order is the arrival order.  ``dispatch`` runs everything submitted
    so far through a :class:`QueryScheduler` and freezes the session.
    The context-manager form dispatches on a clean exit and skips
    dispatch when the block raised.
    """

    def __init__(
        self,
        db: "Database",
        *,
        workers: int = 4,
        budget: Budget | None = None,
        retry: RetryPolicy | None = None,
        atomic: bool = False,
    ):
        self.db = db
        self.workers = workers
        self.budget = budget
        self.retry = retry
        self.atomic = atomic
        self.result: BatchResult | None = None
        self._pending: list[Pending] = []
        self._lock = threading.Lock()

    def submit(self, source: str | Query) -> Pending:
        with self._lock:
            if self.result is not None:
                raise ReproError("session already dispatched")
            p = Pending(len(self._pending), source, self)
            self._pending.append(p)
            return p

    def dispatch(self) -> BatchResult:
        with self._lock:
            if self.result is not None:
                raise ReproError("session already dispatched")
            batch = [p.source for p in self._pending]
            self.result = QueryScheduler(
                self.db,
                workers=self.workers,
                budget=self.budget,
                retry=self.retry,
                atomic=self.atomic,
            ).run(batch)
            return self.result

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is None and self.result is None:
            self.dispatch()
        return False
