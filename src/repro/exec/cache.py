"""The plan cache and its results table.

Plans are programs, results are data.  A compiled plan is a closure
over the query, the schema, the definitions and the shard layout; it
holds no store data, so no data write evicts it.  Plans are keyed by
``(query AST, schema fingerprint, definitions version)`` — query nodes
are frozen/hashable, so the parsed query keys the dict directly — and
leave only when their key changes, when ``Database.shard`` clears the
cache, when the statistics epoch drifts (the engine recompiles, see
``engine._stats_stale``), or at capacity.

Each live plan may have one cached result, a version-led tuple
``(version, value, effect, steps, shard_reads)`` in the cache's own
results table, keyed by the :class:`PlanEntry` itself (identity hash:
a result hit never hashes the query tree again).  The results table is
maintained like every derived table, by
:func:`repro.db.store.apply_commit` — justified by Theorem 5 (the
dynamic trace of any run is a subeffect of the static effect):

* a committed write with ``A(C)`` atoms drops exactly the results whose
  plan's ``R`` set touches a written class — extents are per-class,
  and a freshly created object cannot be referenced by any
  pre-existing attribute value, so results whose ``R`` set is disjoint
  from the written classes are provably unaffected and are *promoted*
  to the post-write store version instead;
* a committed write with ``U(C)`` atoms drops every result: attribute
  reads carry no effect atom, so a query whose ``R`` set avoids ``C``
  can still observe an update through a chain of object references —
  e.g. ``{ e.UniqueManager.name | e <- Employees }`` has effect
  ``{R(Employee)}`` but reads Manager state;
* any state change the database cannot attribute to a known effect
  (snapshot restore, persistence load, transaction rollback, a
  replayed ``full`` record) simply bumps the store version, which
  lazily invalidates every cached result — the safe default.

A replayed additive ``delta`` record (crash recovery, a replica
applying a shipped record) is the ``A``-only commit it was and is
maintained as one, so a replica keeps its results across it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.db.store import Commit, apply_commit, keep_newest
from repro.exec.compiler import CompiledPlan
from repro.lang.ast import Query
from repro.obs import flight as _flight


def schema_fingerprint(schema) -> tuple:
    """A structural fingerprint of a schema: classes, parents, attrs.

    Two databases with structurally identical schemas share plan-cache
    keys; anything that changes the fingerprint changes the key and so
    implicitly invalidates every plan compiled under the old schema.
    """
    return tuple(
        (
            cname,
            schema.hierarchy.parent.get(cname),
            tuple(schema.atypes(cname)),
        )
        for cname in sorted(schema.hierarchy.parent)
        if cname != "Object"
    ) + tuple(sorted(schema.extents.items()))


@dataclass(eq=False)
class PlanEntry:
    """One cached compilation, or a cached refusal.

    Compared and hashed by identity: the entry keys its own result in
    :class:`PlanCache`'s results table.
    """

    plan: CompiledPlan | None
    reads: frozenset[str]
    reason: str = ""
    # the statistics epoch the plan was costed against; the engine
    # treats a mismatch with the live catalog as a cache miss, so a
    # generator order chosen against a materially different catalog
    # (e.g. an extent grown 0 -> 10k) is re-costed instead of surviving
    # every data write forever
    stats_epoch: int = -1


class PlanCache:
    """Per-database cache of compiled plans and their last results.

    All access is serialised on an internal lock: concurrent scheduled
    readers (``Database.run_many``) share one cache, and eviction
    bookkeeping must stay consistent under that interleaving.
    ``evictions`` counts plans that left (capacity and
    :meth:`clear`); results a commit drops are flight-recorded as
    ``cache-evict`` events.
    """

    def __init__(self, fingerprint: tuple, max_entries: int = 256):
        self.fingerprint = fingerprint
        self.max_entries = max_entries
        self._entries: dict[tuple, PlanEntry] = {}
        # live entry -> (version, value, effect, steps, shard_reads);
        # shard_reads is the dynamic shard trace of the run that
        # computed the value: class -> frozenset of shard ids read, or
        # None for all shards (a class missing from it counts as all)
        self._results: dict[PlanEntry, tuple] = {}
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def _key(self, q: Query, defs_version: int) -> tuple:
        return (q, self.fingerprint, defs_version)

    def get(self, q: Query, defs_version: int) -> PlanEntry | None:
        with self._lock:
            entry = self._entries.get(self._key(q, defs_version))
            if entry is None:
                self.misses += 1
            else:
                self.hits += 1
            return entry

    def put(self, q: Query, defs_version: int, entry: PlanEntry) -> None:
        key = self._key(q, defs_version)
        with self._lock:
            old = self._entries.get(key)
            if old is not None:
                # a re-put replaces in place and is size-neutral
                self._results.pop(old, None)
            elif len(self._entries) >= self.max_entries:
                # drop the oldest insertion: plans recompile cheaply
                oldest = self._entries.pop(next(iter(self._entries)))
                self._results.pop(oldest, None)
                self.evictions += 1
            self._entries[key] = entry

    def result(self, entry: PlanEntry, version: int) -> tuple | None:
        """``entry``'s cached result if it is valid at ``version``."""
        with self._lock:
            hit = self._results.get(entry)
        return hit if hit is not None and hit[0] == version else None

    def keep_result(
        self, q: Query, defs_version: int, entry: PlanEntry, result: tuple
    ) -> None:
        """Cache ``result`` (version-led) while ``entry`` is still live.

        An entry that left the cache meanwhile (capacity, a re-put,
        :meth:`clear`) keeps nothing: its result could never be looked
        up, and no eviction would reclaim it.  Nor does a result
        computed at an older store version than the cached one (a
        pinned replica read) replace it.
        """
        with self._lock:
            if self._entries.get(self._key(q, defs_version)) is entry:
                keep_newest(self._results, entry, result)

    def note_write(self, c: Commit) -> None:
        """A write with effect ``c.effect`` moved version pre → post.

        Plans stay.  Results whose plan's ``R`` set meets the written
        classes are dropped (Theorem 5 guarantees nothing else read
        them), and under ``U`` atoms every result is (see the module
        docstring for the reference-chasing caveat); the rest are
        promoted to the new version.

        ``c.shard_writes`` (class → frozenset of shard ids, exact and
        dynamic, sharded classes only) refines the test to ``(class,
        shard)``: a result whose run read only shards disjoint from
        every written shard survives — an object added to shard *i*
        carries a shard attribute hashing to *i*, so it could never
        have survived the equality predicate that confined the cached
        run to shard *j*.
        """
        written = c.effect.writes()

        def touched(entry: PlanEntry, result: tuple) -> bool:
            hit = entry.reads & written
            return bool(hit) and not _shard_disjoint(
                result[4], hit, c.shard_writes
            )

        with self._lock:
            dropped = apply_commit(self._results, c, touched)
        if dropped:
            _flight.record(
                "cache-evict",
                results=dropped,
                written=",".join(sorted(written)),
                version=c.post,
            )

    def clear(self) -> None:
        with self._lock:
            self.evictions += len(self._entries)
            self._entries.clear()
            self._results.clear()


def _shard_disjoint(reads: dict | None, hit, shard_writes) -> bool:
    """Every overlapping class read provably disjoint shards?"""
    if reads is None or shard_writes is None:
        return False
    for cname in hit:
        wrote = shard_writes.get(cname)
        read = reads.get(cname)
        if wrote is None or read is None or (wrote & read):
            return False
    return True
