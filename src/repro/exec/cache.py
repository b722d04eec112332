"""The effect-invalidated plan (and result) cache.

Entries are keyed by ``(query AST, schema fingerprint, definitions
version)`` — query nodes are frozen/hashable, so the parsed query keys
the dict directly.  Each entry carries the compiled plan, the query's
static ``R`` set (Figure 3), and optionally the last computed result
with the store version it was computed at.

Invalidation is *effect-guided*, justified by Theorem 5 (the dynamic
trace of any run is a subeffect of the static effect):

* a committed write with ``A(C)`` atoms evicts exactly the entries
  whose ``R`` set touches a written class — extents are per-class, and
  a freshly created object cannot be referenced by any pre-existing
  attribute value, so entries whose ``R`` set is disjoint from the
  written classes are provably unaffected and are *promoted* to the
  post-write store version instead;
* a committed write with ``U(C)`` atoms additionally drops every cached
  **result** (plans survive outside ``R ∩ {C}``): attribute reads carry
  no effect atom, so a query whose ``R`` set avoids ``C`` can still
  observe an update through a chain of object references — e.g.
  ``{ e.UniqueManager.name | e <- Employees }`` has effect
  ``{R(Employee)}`` but reads Manager state;
* any state change the database cannot attribute to a known effect
  (snapshot restore, persistence load, transaction rollback) simply
  bumps the store version, which lazily invalidates every cached
  result — the safe default.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.db.store import Commit, apply_commit
from repro.effects.algebra import Effect
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


@dataclass
class PlanEntry:
    """One cached compilation (or cached refusal) plus its last result."""

    plan: CompiledPlan | None
    reads: frozenset[str]
    static_effect: Effect
    reason: str = ""
    # the statistics epoch the plan was costed against; the engine
    # treats a mismatch with the live catalog as a cache miss, so a
    # generator order chosen against a materially different catalog
    # (e.g. an extent grown 0 -> 10k) is re-costed instead of surviving
    # shard-disjoint promotions forever
    stats_epoch: int = -1
    result: Query | None = field(default=None, repr=False)
    result_effect: Effect | None = field(default=None, repr=False)
    result_steps: int = 0
    result_version: int = -1
    # the dynamic shard trace of the cached result's execution:
    # class -> frozenset of shard ids read, or None for all shards.
    # A class the execution read but that is missing here must be
    # treated as all-shards (conservative).
    result_shard_reads: dict | None = field(default=None, repr=False)


def _drop_result(entry: PlanEntry) -> PlanEntry:
    entry.result = None
    entry.result_effect = None
    entry.result_version = -1
    return entry


def _restamp_result(entry: PlanEntry, post: int) -> PlanEntry:
    entry.result_version = post
    return entry


class PlanCache:
    """Per-database cache of compiled plans, bounded, effect-evicted.

    All access is serialised on an internal lock: concurrent scheduled
    readers (``Database.run_many``) share one cache, and eviction
    bookkeeping must stay consistent under that interleaving.
    """

    def __init__(self, fingerprint: tuple, max_entries: int = 256):
        self.fingerprint = fingerprint
        self.max_entries = max_entries
        self._entries: dict[tuple, PlanEntry] = {}
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
            # a re-put overwrites in place and is size-neutral; only a
            # genuinely new key at capacity pays an eviction
            if key not in self._entries and len(self._entries) >= self.max_entries:
                # drop the oldest insertion: plans recompile cheaply
                self._entries.pop(next(iter(self._entries)))
                self.evictions += 1
            self._entries[key] = entry

    def note_write(self, c: Commit) -> None:
        """A write with effect ``c.effect`` moved version pre → post.

        Evicts entries whose ``R`` set intersects the written classes
        (Theorem 5 guarantees nothing else read them); promotes the
        surviving entries' cached results to the new version, except
        under ``U`` atoms, where results are dropped wholesale but
        plans survive (see the module docstring for the
        reference-chasing caveat).

        ``c.shard_writes`` (class → frozenset of shard ids, exact and
        dynamic, sharded classes only) refines ``A``-only eviction to
        ``(class, shard)``: an entry whose recorded result read only
        shards disjoint from every written shard keeps both its plan
        and its result — an object added to shard *i* carries a shard
        attribute hashing to *i*, so it could never have survived the
        equality predicate that confined the cached run to shard *j*.
        """
        written = c.effect.writes()
        updates = c.effect.updates()

        def touched(_, entry: PlanEntry) -> bool:
            hit = entry.reads & written
            return bool(hit) and (
                bool(updates)
                or not self._shard_disjoint(entry, hit, c.shard_writes)
            )

        with self._lock:
            evicted = apply_commit(
                self._entries, c, touched,
                keep_on_update=_drop_result,
                version=lambda entry: entry.result_version,
                restamp=_restamp_result,
            )
            self.evictions += evicted
        if evicted:
            _flight.record(
                "cache-evict",
                evicted=evicted,
                written=",".join(sorted(written)),
                version=c.post,
            )

    @staticmethod
    def _shard_disjoint(entry: PlanEntry, hit, shard_writes) -> bool:
        """Every overlapping class read provably disjoint shards?"""
        reads = entry.result_shard_reads
        if reads is None or shard_writes is None:
            return False
        for cname in hit:
            wrote = shard_writes.get(cname)
            read = reads.get(cname)
            if wrote is None or read is None or (wrote & read):
                return False
        return True

    def clear(self) -> None:
        with self._lock:
            self.evictions += len(self._entries)
            self._entries.clear()

    def cached_queries(self) -> list[Query]:
        """The queries with a live entry (test/introspection helper)."""
        with self._lock:
            return [key[0] for key in self._entries]
