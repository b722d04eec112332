"""The replica set: freshness-aware routing over N read replicas.

:class:`ReplicaSet` owns the replicas a primary created with
``Database.replicate(n)`` and answers two questions:

* **live routing** (``try_serve``): ``Database.run(engine="auto")``
  asks it to serve an effect-proven read-only query.  The set picks the
  least-loaded replica whose per-extent watermarks cover the query's
  R-set and the classes of its oid literals against the primary's
  current write marks; if none qualifies
  it polls once (ship + apply is cheap) and re-picks, and if the set
  still cannot prove freshness it returns ``None`` — the primary
  answers, the degrade is counted, and the answer is never wrong.

* **pinned routing** (``pin`` / ``serve_pinned``): the scheduler asks
  at admission time for a covering replica's database and its store
  triple ``(version, ee, oe)``, and later answers at exactly that
  triple.  A pinned read leaves the batch's conflict graph
  entirely — writers stop serialising behind it — which is where the
  replica read-throughput win comes from (``benchmarks/
  replica_workloads.py``).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.effects.algebra import Effect
from repro.lang.ast import OidRef
from repro.lang.traversal import walk
from repro.obs import flight as _flight
from repro.replication.replica import (
    LAGGING,
    QUARANTINED,
    SERVING,
    Replica,
)
from repro.replication.shipper import ReplicationError
from repro.resilience.retry import RetryPolicy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.db.database import Database
    from repro.semantics.evaluator import EvalResult

#: Preference order when several replicas cover a read.
_STATE_RANK = {SERVING: 0, LAGGING: 1}


@dataclass(frozen=True)
class PinnedRead:
    """The replica database and store triple a scheduler-admitted read
    will run at."""

    replica: Replica
    db: object
    at: tuple


class ReplicaSet:
    """N replicas of one primary, plus the routing policy over them."""

    def __init__(
        self,
        db: "Database",
        n: int = 2,
        *,
        names: Sequence[str] | None = None,
        lag_threshold: int = 8,
        audit_every: int = 32,
        auto_poll: bool = True,
        retry: RetryPolicy | None = None,
        replicas: Sequence[Replica] | None = None,
    ):
        if replicas is None and n < 1:
            raise ReplicationError("a replica set needs at least one replica")
        self.db = db
        self.auto_poll = auto_poll
        self._closed = False
        self._lock = threading.Lock()
        self.routed_total = 0
        self.pinned_total = 0
        self.degraded_total = 0
        self.degraded_reasons: dict[str, int] = {}
        if replicas is not None:
            # failover re-homes survivors under a fresh set
            self.replicas = list(replicas)
        else:
            self.replicas = [
                Replica(
                    (names[i] if names else f"replica-{i + 1}"),
                    db,
                    lag_threshold=lag_threshold,
                    audit_every=audit_every,
                    retry=retry
                    or RetryPolicy.seeded(
                        i, base_delay=0.005, max_delay=0.25
                    ),
                )
                for i in range(n)
            ]

    # -- maintenance -----------------------------------------------------
    def poll(self) -> int:
        """Ship-and-apply on every replica; returns records applied."""
        return sum(
            r.poll() for r in self.replicas if r.state != QUARANTINED
        )

    def audit_all(self) -> bool:
        """Digest-audit every caught-up replica; ``False`` on divergence."""
        return all(
            r.audit() for r in self.replicas if r.state != QUARANTINED
        )

    def close(self) -> None:
        self._closed = True

    def __iter__(self):
        return iter(self.replicas)

    def __len__(self) -> int:
        return len(self.replicas)

    def get(self, name: str) -> Replica:
        for r in self.replicas:
            if r.name == name:
                return r
        raise ReplicationError(f"no replica named {name!r}")

    # -- routing ---------------------------------------------------------
    def _requirement(self, q, eff: Effect) -> tuple[frozenset, dict | None]:
        """The classes a replica must cover to answer ``q``, and the
        query's static per-class shard confinement (or ``None``).

        The classes are the Figure 3 R-set plus the class of every oid
        literal ``q`` names (its record's class on the primary, Q(o)): a
        literal adds no ``R`` atom (§5), yet reaches its object
        directly, so the replica must have applied the record that
        created it — an ``A``-only delta advanced that class's mark, any
        other record the star.  A literal's class is never
        shard-confined.

        Confinement is computed against the *primary's* live layout —
        marks were written under the same layout, so shard ids line up.
        ``None`` (unsharded primary, or analysis refused) keeps the
        class-level rule, which is always sufficient.
        """
        oe = self.db.oe
        literals = frozenset(
            oe.get(n.name).cname for n in walk(q) if isinstance(n, OidRef)
        )
        shard_reads = None
        shards = self.db._shards
        if shards.enabled:
            try:
                from repro.db.shards import static_read_shards

                shard_reads = static_read_shards(shards, self.db.schema, q)
            except Exception:
                shard_reads = None
        if shard_reads and literals:
            shard_reads = {
                c: s for c, s in shard_reads.items() if c not in literals
            }
        return eff.reads() | literals, shard_reads

    def _pick(
        self,
        required: dict[str, int],
        classes: frozenset[str],
        shard_reads: dict | None = None,
    ) -> Replica | None:
        candidates = [
            r
            for r in self.replicas
            if r.state in _STATE_RANK
            and r.covers(required, classes, shard_reads)
        ]
        if not candidates:
            return None
        return min(
            candidates,
            key=lambda r: (
                _STATE_RANK[r.state],
                r.inflight,
                r.served_total,
                r.name,
            ),
        )

    def _degrade(self, reason: str) -> None:
        with self._lock:
            self.degraded_total += 1
            self.degraded_reasons[reason] = (
                self.degraded_reasons.get(reason, 0) + 1
            )
        _flight.record("replica-degrade", reason=reason)

    def _choose(self, q, eff: Effect, reason: str) -> Replica | None:
        """A replica covering ``q``, or ``None`` with the degrade
        counted under ``reason``."""
        if self._closed:
            return None
        required = self.db.write_marks()
        classes, shard_reads = self._requirement(q, eff)
        pick = self._pick(required, classes, shard_reads)
        if pick is None and self.auto_poll:
            # one cheap catch-up attempt before giving the read back:
            # most misses are just records not yet shipped
            self.poll()
            pick = self._pick(required, classes, shard_reads)
        if pick is None:
            self._degrade(reason)
        return pick

    def try_serve(
        self, q, eff: Effect, **run_kw
    ) -> "EvalResult | None":
        """Serve one live routed read, or ``None`` to degrade."""
        pick = self._choose(q, eff, "no-fresh-replica")
        if pick is None:
            return None
        try:
            result = pick.serve(q, eff, **run_kw)
        except ReplicationError:
            self._degrade("replica-error")
            return None
        with self._lock:
            self.routed_total += 1
        return result

    # -- pinned routing (scheduler) --------------------------------------
    def pin(self, eff: Effect, q) -> PinnedRead | None:
        """Pin a covering replica's current snapshot for a batch read.

        Coverage is :meth:`try_serve`'s: a read the static analysis
        proves touches only certain shards can pin a replica that is
        behind on the *other* shards of those classes.
        """
        pick = self._choose(q, eff, "no-pinnable-replica")
        if pick is None:
            return None
        return PinnedRead(pick, *pick.snapshot_envs())

    def serve_pinned(self, pin: PinnedRead, q, eff, **run_kw) -> "EvalResult":
        """Run a scheduler-admitted read (effect ``eff``, derived at
        admission) at its pinned store triple."""
        result = pin.replica.serve_snapshot(q, eff, pin.db, pin.at, **run_kw)
        with self._lock:
            self.routed_total += 1
            self.pinned_total += 1
        return result

    # -- health ----------------------------------------------------------
    def snapshot(self) -> dict:
        with self._lock:
            out = {
                "count": len(self.replicas),
                "routed": self.routed_total,
                "pinned": self.pinned_total,
                "degraded": self.degraded_total,
                "degraded_reasons": dict(self.degraded_reasons),
            }
        out["replicas"] = [r.health() for r in self.replicas]
        return out
