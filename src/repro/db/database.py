"""A high-level façade over the whole system: one object to hold the
schema, the runtime environments (EE/OE), the definition environment
(DE), and the analysis/evaluation entry points.

This is the API a downstream user programs against::

    db = Database.from_odl('''
        class Person extends Object (extent Persons) {
            attribute string name;
        }
    ''')
    db.insert("Person", name="Ada")
    result = db.query("{ p.name | p <- Persons }")
    assert result.python() == {"Ada"}

Everything the paper formalises is reachable from here:

* :meth:`typecheck` — Figure 1;
* :meth:`effect_of` — Figure 3;
* :meth:`run` / :meth:`query` — Figures 2/4 under a chosen strategy;
* :meth:`explore` — all reduction orders;
* :meth:`is_deterministic` / :meth:`determinism_witnesses` — ⊢′;
* :meth:`check_commutable` — ⊢″;
* :meth:`optimize` — the effect-gated rewriter.

The database itself is mutated by queries exactly as the paper
dictates: a ``new`` in a query adds the object to its class extent and
the change *persists* (the façade commits the final EE/OE of a
successful evaluation).  Use :meth:`snapshot`/:meth:`restore` around
speculative work.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Any, Mapping

from repro.effects.algebra import Effect, add as add_effect
from repro.effects.checker import EffectChecker
from repro.effects.commutativity import CommutationConflict, analyze_commutativity
from repro.effects.determinism import Interference, analyze_determinism
from repro.errors import BudgetExceeded, IOQLEffectError, IOQLTypeError
from repro.lang.ast import Definition, OidRef, Query
from repro.lang.parser import parse_program, parse_query
from repro.lang.traversal import resolve_extents
from repro.methods.ast import AccessMode
from repro.methods.typing import check_schema_methods
from repro.model.schema import Schema
from repro.model.types import ClassType, FuncType, Type
from repro.db.shards import ShardedExtents, commit_deltas
from repro.db.statistics import StatisticsCatalog
from repro.db.store import (
    AttributeIndexes,
    ClosureIndexes,
    Commit,
    ExtentEnv,
    ObjectEnv,
    ObjectRecord,
    OidSupply,
)
from repro.db.wal import WriteAheadLog
from repro.errors import ReproError
from repro.lang.pprint import pretty
from repro.exec.cache import PlanCache, schema_fingerprint
from repro.exec.engine import (
    PlanDecision,
    decide as _decide_engine,
    execute_plan,
    explain as _explain,
    route_read as _route_read,
)
from repro.obs import flight as _flight
from repro.obs._state import STATE as _OBS
from repro.obs.metrics import REGISTRY as _METRICS
from repro.obs.spans import span as _span
from repro.resilience.budget import Budget
from repro.resilience.faults import maybe_fault
from repro.resilience.retry import RetryExhausted, RetryPolicy, replay_decision
from repro.resilience.transactions import Transaction, TransactionScope
from repro.semantics.evaluator import DEFAULT_MAX_STEPS, EvalResult, evaluate
from repro.semantics.explorer import Exploration, explore
from repro.semantics.machine import Machine
from repro.semantics.strategy import FIRST, Strategy
from repro.typing.checker import check_definition, check_query
from repro.typing.context import TypeContext


@dataclass(frozen=True)
class Snapshot:
    """An immutable copy of the database state (EE, OE, definitions)."""

    ee: ExtentEnv
    oe: ObjectEnv
    definitions: tuple[Definition, ...]


class Database:
    """Schema + state + definitions + every checker and the machine."""

    def __init__(
        self,
        schema: Schema,
        *,
        method_mode: AccessMode = AccessMode.READ_ONLY,
        method_fuel: int = 10_000,
        check_methods: bool = True,
    ):
        self.schema = schema
        # the published store: (version, EE, OE), replaced by one
        # assignment per install, so a reader that loads it once holds
        # a consistent snapshot.  The version stamps every replacement;
        # every derived table validates against it (see _note_write)
        self._store: tuple[int, ExtentEnv, ObjectEnv] = (
            0, ExtentEnv.for_schema(schema), ObjectEnv()
        )
        self._defs_version = 0
        # oid→ClassType map memoised per store version: every typecheck
        # needs it, and between writes it cannot change
        self._oid_types_cache: tuple[int, dict[str, Type]] | None = None
        self._plan_cache = PlanCache(schema_fingerprint(schema))
        self._indexes = AttributeIndexes()
        # persistent closure (parent-position) indexes for unbounded
        # `traverse` (RED route); same Theorem 5 discipline as above
        self._closure_indexes = ClosureIndexes()
        # per-(extent, attribute) statistics for the cost-based
        # optimizer v2; maintained by the same Theorem 5 effect logic
        # as the caches (see _note_write)
        self._stats = StatisticsCatalog()
        # hash-sharded extents (repro.db.shards): empty = every path
        # behaves exactly as the unsharded database
        self._shards = ShardedExtents()
        # every structure derived from EE/OE, maintained by one rule
        self._derived = (
            self._plan_cache, self._indexes, self._closure_indexes,
            self._stats, self._shards,
        )
        # adaptive replanning: re-optimize mid-query when an observed
        # source cardinality diverges from the estimate by this factor
        # (None/0 disables the guards entirely)
        self.replan_ratio: float | None = 4.0
        self.supply = OidSupply()
        self.method_mode = method_mode
        self._definitions: dict[str, Definition] = {}
        self._def_types: dict[str, FuncType] = {}
        self._active_txn: Transaction | None = None
        # serialises EE/OE installation when run_many overlaps readers
        # with a committing writer (see repro.sched); the same lock
        # orders WAL appends, so the log order *is* the admission order
        self._commit_lock = threading.RLock()
        # durability (repro.db.wal / repro.db.recovery); None = volatile
        self._wal: WriteAheadLog | None = None
        self._wal_dir: str | None = None
        self._checkpoint_lsn = 0
        self._odl_source: str | None = None
        # replication (repro.replication): per-extent LSN watermarks —
        # the last WAL LSN whose record touched each class (or shard)
        # — plus a star mark "*" for records any query may observe
        # through reference chains (full/define records, the §5
        # caveat).  A replica covers a query iff its own marks reach
        # these on the query's R-set and oid-literal classes.  Updated
        # under _commit_lock right after the append that assigned the
        # LSN.
        self._write_marks: dict[str, int] = {}
        self._replicas = None  # ReplicaSet | None
        # a fenced primary lost a failover: it must never commit again
        self._fenced = False
        # always-on query statistics (plain int bumps) feeding health();
        # the obs registry mirrors them only when instrumentation is on
        self._qstats: dict[str, int] = {
            "runs": 0,
            "compiled": 0,
            "reduction": 0,
            "bigstep": 0,
            "result_cache_hits": 0,
            "failures": 0,
            "budget_exhausted": 0,
            "crash_dumps": 0,
            "routed_reads": 0,
            "replans": 0,
        }
        # stats dict of the most recent run_many batch (repro.sched)
        self._last_batch: dict | None = None
        self.machine = Machine(
            schema,
            self._definitions,
            method_mode=method_mode,
            method_fuel=method_fuel,
            oid_supply=self.supply,
        )
        if check_methods:
            check_schema_methods(schema, method_mode)

    @staticmethod
    def from_odl(
        source: str,
        *,
        method_mode: AccessMode = AccessMode.READ_ONLY,
        method_fuel: int = 10_000,
    ) -> "Database":
        """Build a database from ODL class-definition text (§2 grammar)."""
        from repro.model.odl_parser import parse_schema

        schema = parse_schema(
            source,
            allow_method_effects=method_mode is AccessMode.EFFECTFUL,
        )
        db = Database(
            schema, method_mode=method_mode, method_fuel=method_fuel
        )
        # retained for durability: checkpoints embed the ODL verbatim
        db._odl_source = source
        return db

    @staticmethod
    def open(
        path: str,
        odl: str | None = None,
        *,
        sync: bool = True,
        method_mode: AccessMode = AccessMode.READ_ONLY,
        method_fuel: int = 10_000,
    ) -> "Database":
        """Open (or create) a **durable** database under directory ``path``.

        If ``path`` holds a checkpoint, the database is recovered from
        it — the last checkpoint plus every intact write-ahead-log
        record, truncating at the first torn record, so the result is
        the state of some prefix of the committed sequence (see
        ``docs/DURABILITY.md``).  Otherwise a fresh database is built
        from ``odl`` (required in that case), an initial checkpoint is
        written, and logging begins.  Either way every subsequent commit
        is journalled before it is installed; call :meth:`checkpoint` to
        fold the log and :meth:`close` when done.
        """
        from repro.db import recovery as _recovery

        if os.path.exists(_recovery.checkpoint_path(path)):
            return _recovery.recover(path, sync=sync).db
        if odl is None:
            from repro.db.persistence import PersistenceError

            raise PersistenceError(
                f"no checkpoint under {path!r} and no ODL source given: "
                "cannot create a database from nothing"
            )
        db = Database.from_odl(
            odl, method_mode=method_mode, method_fuel=method_fuel
        )
        db.attach_wal(path, sync=sync)
        return db

    # -- state versioning ------------------------------------------------
    @property
    def ee(self) -> ExtentEnv:
        return self._store[1]

    @ee.setter
    def ee(self, value: ExtentEnv) -> None:
        self._install(value, self._store[2])

    @property
    def oe(self) -> ObjectEnv:
        return self._store[2]

    @oe.setter
    def oe(self, value: ObjectEnv) -> None:
        self._install(self._store[1], value)

    @property
    def _state_version(self) -> int:
        return self._store[0]

    def _install(self, ee: ExtentEnv, oe: ObjectEnv) -> None:
        """Publish ``(ee, oe)`` under the next store version, in one
        assignment (a no-op when both are already installed)."""
        version, cur_ee, cur_oe = self._store
        if ee is not cur_ee or oe is not cur_oe:
            self._store = (version + 1, ee, oe)

    def _note_write(
        self, effect: Effect, pre: int, adds=None, shard_adds=None
    ) -> None:
        """Effect-guided maintenance of every derived structure.

        By Theorem 5 the dynamic trace of the committed statement is a
        subeffect of ``effect``, so a cached result, index or statistic
        whose reads are disjoint from the written classes is provably
        unaffected: it is promoted to the new store version (see
        :func:`repro.db.store.apply_commit`).  Affected entries are
        evicted, or folded forward where ``adds`` (extent → newly added
        oids) and ``shard_adds`` (the same, bucketed by shard) allow.
        Compiled plans hold no store data and stay.  The primary's
        commits and every replayed additive ``delta`` record (crash
        recovery, a replica's applied record) reach this method.
        State changes with *unknown* effects (restore, persistence
        load, rollback, ``full`` records) never do — their version bump
        alone lazily invalidates every cached result.
        """
        post, ee, oe = self._store
        if post == pre:
            return
        commit = Commit(
            effect, pre, post, self.schema, ee, oe, adds, shard_adds,
        )
        for derived in self._derived:
            derived.note_write(commit)

    # -- durability (repro.db.wal / repro.db.recovery) -------------------
    @property
    def wal(self) -> WriteAheadLog | None:
        """The attached write-ahead log, or ``None`` (volatile database)."""
        return self._wal

    @property
    def wal_dir(self) -> str | None:
        """The durable directory this database journals into, if any."""
        return self._wal_dir

    def attach_wal(
        self, path: str, *, odl_source: str | None = None, sync: bool = True
    ) -> "Database":
        """Start journalling this database under directory ``path``.

        Writes an initial checkpoint of the *current* state (so the log
        alone never has to carry the whole history) and opens the log.
        A database built straight from a :class:`Schema` object has no
        retained ODL text; one is reconstructed via
        :func:`repro.db.persistence.schema_to_odl` unless ``odl_source``
        is given.
        """
        from repro.db import recovery as _recovery
        from repro.db.persistence import schema_to_odl

        if self._wal is not None:
            raise ReproError(
                f"a write-ahead log is already attached ({self._wal_dir})"
            )
        if odl_source is not None:
            self._odl_source = odl_source
        elif self._odl_source is None:
            self._odl_source = schema_to_odl(self.schema)
        os.makedirs(path, exist_ok=True)
        self._wal_dir = os.path.abspath(path)
        self._wal = WriteAheadLog(
            _recovery.wal_path(self._wal_dir), next_lsn=1, sync=sync
        )
        # marks refer to LSNs of *this* log; a fresh log restarts them
        self._write_marks = {}
        self.checkpoint()
        return self

    def _adopt_wal(self, path: str, *, next_lsn: int, sync: bool) -> None:
        """Recovery's attach: reuse an existing (already repaired) log."""
        from repro.db import recovery as _recovery

        self._wal_dir = os.path.abspath(path)
        self._wal = WriteAheadLog(
            _recovery.wal_path(self._wal_dir), next_lsn=next_lsn, sync=sync
        )
        self._write_marks = {}

    # -- replication (repro.replication) ---------------------------------
    def _mark_written(self, lsn: int, rec: dict) -> None:
        """Advance the watermarks for the record appended at ``lsn``:
        the keys :func:`~repro.db.recovery.record_marks` names, the very
        keys a replica advances when it applies the same record."""
        from repro.db.recovery import record_marks

        with self._commit_lock:
            for key in record_marks(self.schema, rec):
                if lsn > self._write_marks.get(key, 0):
                    self._write_marks[key] = lsn

    def write_marks(self) -> dict[str, int]:
        """Snapshot of the freshness requirement: class → LSN, ``"*"`` →
        the star mark.  A replica may serve a query iff its own marks
        reach these for every class in the query's R-set or of an oid
        literal it names (and the star)."""
        with self._commit_lock:
            marks = dict(self._write_marks)
            marks.setdefault("*", 0)
            return marks

    @property
    def replicas(self):
        """The attached :class:`repro.replication.ReplicaSet` (or None)."""
        return self._replicas

    def replicate(self, n: int = 2, **kw):
        """Attach ``n`` WAL-shipped in-process read replicas.

        Requires an attached write-ahead log (the ship medium).  Each
        replica bootstraps from the checkpoint + intact log and then
        tails the log, replaying records physically; ``Database.run``
        routes effect-proven read-only queries to the least-loaded
        replica whose watermarks cover the query's R-set.  Keyword
        options are forwarded to :class:`repro.replication.ReplicaSet`
        (``lag_threshold``, ``audit_every``, ``auto_poll``, ``retry``).
        """
        from repro.replication import ReplicaSet

        self._check_fenced()
        if self._wal is None or self._wal_dir is None:
            raise ReproError(
                "replication ships the write-ahead log; attach one first "
                "(Database.open / attach_wal)"
            )
        if self._replicas is not None:
            raise ReproError("replicas are already attached (detach first)")
        self._replicas = ReplicaSet(self, n, **kw)
        return self._replicas

    def detach_replicas(self) -> None:
        """Stop and drop the attached replica set (idempotent)."""
        replicas, self._replicas = self._replicas, None
        if replicas is not None:
            replicas.close()

    def _check_fenced(self) -> None:
        if self._fenced:
            raise ReproError(
                "this primary was fenced by a failover; use the promoted "
                "database"
            )

    def checkpoint(self) -> int:
        """Fold the write-ahead log into a fresh checkpoint.

        Under the commit lock: the full state (a sealed
        :mod:`repro.db.persistence` dump plus the folded LSN and the
        oid-supply counter) is written atomically, then the log is
        truncated back to its header.  A crash *between* the two steps
        is harmless — recovery skips records the checkpoint's LSN
        already covers.  Recovery time is proportional to the log since
        the last checkpoint, so long-running writers should checkpoint
        periodically (the shell's ``.checkpoint``).  Returns the LSN
        the new checkpoint folds through.
        """
        from repro.db import recovery as _recovery
        from repro.db.persistence import dump_database, write_document

        self._check_fenced()
        if self._wal is None:
            raise ReproError(
                "no write-ahead log attached (use Database.open or "
                "attach_wal first)"
            )
        with _span("checkpoint"):
            with self._commit_lock:
                doc = dump_database(self, self._odl_source)
                doc["durability"] = {
                    "lsn": self._wal.last_lsn,
                    "next_oid": self.supply.state(),
                }
                write_document(
                    doc, _recovery.checkpoint_path(self._wal_dir)
                )
                self._checkpoint_lsn = self._wal.last_lsn
                self._wal.reset()
            if _OBS.enabled:
                _METRICS.counter("wal_checkpoints_total").inc()
            return self._checkpoint_lsn

    def close(self) -> None:
        """Detach and close the write-ahead log (state stays in memory).

        Idempotent, and safe in any order with a fault-driven WAL
        detach (:meth:`_wal_log_unattributed`): close → detach → close
        neither raises nor double-counts ``wal_detached_total``.  Any
        attached replicas are stopped first — their databases remain
        readable, but no longer ship.
        """
        self.detach_replicas()
        with self._commit_lock:
            wal, self._wal = self._wal, None
        if wal is not None:
            wal.close()

    def _install_adds(
        self,
        stmt: str,
        effect: Effect,
        base_ee: ExtentEnv,
        base_oe: ObjectEnv,
        result_ee: ExtentEnv,
        result_oe: ObjectEnv,
    ) -> None:
        """Commit an ``A``-only evaluation: the one install path for adds.

        Caller holds the commit lock.  The commit's delta — the oids
        that joined each extent its ``A`` atoms name, relative to the
        evaluation's base environments, bucketed by shard for sharded
        extents — is its whole physical effect (Theorem 5).  When no
        other writer installed since the evaluation started, the result
        pair installs as-is; otherwise the delta is *merged* into the
        current environments.  Deltas of concurrent ``A``-only commits
        are disjoint (the oid supply is globally monotone, so fresh oids
        never collide) and set union commutes, so merge order only
        permutes oid names — absorbed by ∼.  Ordering within the commit:

        1. ``shard.install`` fault sites fire per touched shard *first*
           — an injected fault aborts the whole commit atomically, with
           nothing logged and nothing installed;
        2. the additive ``delta`` WAL record becomes durable (a failed
           append aborts the commit the same way);
        3. EE and OE install together, as one store triple;
        4. every derived structure, the shard partitions included, is
           maintained with the exact adds, per extent and per shard:
           a partition folds the adds into its touched shards.
        """
        from repro.db import recovery as _recovery

        extent_adds, shard_adds = commit_deltas(
            self._shards, self.schema, base_ee, result_ee, result_oe,
            effect.adds(),
        )
        for extent in sorted(shard_adds):
            for _shard in sorted(shard_adds[extent]):
                maybe_fault("shard.install")
        pre, cur_ee, cur_oe = self._store
        if cur_ee is base_ee and cur_oe is base_oe:
            new_ee, new_oe = result_ee, result_oe
        else:
            # another writer installed since this evaluation started:
            # merge this commit's (disjoint, fresh-oid) delta on top
            new_oe = cur_oe.with_objects(
                {
                    oid: result_oe.get(oid)
                    for added in extent_adds.values()
                    for oid in added
                }
            )
            new_ee = cur_ee
            for extent, added in extent_adds.items():
                if added:
                    new_ee = new_ee.with_members(
                        extent, cur_ee.members(extent) | added
                    )
        if self._wal is not None:
            rec = _recovery.delta_record(
                self, stmt, effect, extent_adds, shard_adds, result_oe
            )
            self._mark_written(self._wal.append(rec), rec)
        self._install(new_ee, new_oe)
        self._note_write(
            effect, pre, adds=extent_adds, shard_adds=shard_adds
        )

    def _wal_log_unattributed(self, stmt: str) -> None:
        """Journal a state change with no static effect (rollback, restore).

        Logged as a full record *after* the change is installed.  If the
        append itself fails the log can no longer describe the in-memory
        state, and later effect-bounded deltas would replay onto the
        wrong base — so durability is detached (loudly, via the
        ``wal_detached_total`` metric and ``db.wal is None``) rather
        than left inconsistent; the in-memory database stays correct.
        """
        from repro.db.recovery import full_record

        wal = self._wal
        if wal is None:
            return
        try:
            rec = full_record(self, stmt)
            lsn = wal.append(rec)
        except BaseException as exc:
            # idempotent detach: a concurrent (or earlier) close/detach
            # already cleared the slot — don't count the loss twice
            with self._commit_lock:
                detached_here = self._wal is wal
                if detached_here:
                    self._wal = None
            wal.close()
            if not detached_here:
                raise
            if _OBS.enabled:
                _METRICS.counter("wal_detached_total").inc()
            # durability just went dark: preserve the black box next to
            # the log it can no longer describe
            _flight.record(
                "wal-detach", stmt=stmt, error=f"{type(exc).__name__}: {exc}"
            )
            if _flight.crash_dump(
                "wal-detach", error=exc, directory=self._wal_dir
            ):
                self._qstats["crash_dumps"] += 1
            raise
        self._mark_written(lsn, rec)

    # -- population ------------------------------------------------------
    def insert(self, cname: str, **attrs: Any) -> OidRef:
        """Create an object directly (outside any query) and return its oid.

        Attribute values may be Python ints/bools/strs/oids or AST
        values.  Performs the same extent maintenance as the (New)
        rule, and type-checks the attributes against the schema.
        """
        self._check_fenced()
        declared = dict(self.schema.atypes(cname))
        if set(attrs) != set(declared):
            raise IOQLTypeError(
                f"insert {cname}: need exactly {sorted(declared)}, "
                f"got {sorted(attrs)}"
            )
        fields = tuple(
            (a, to_value(attrs[a])) for a in (name for name, _ in self.schema.atypes(cname))
        )
        ctx = self.type_context()
        for a, v in fields:
            vt = check_query(ctx, v)
            ctx.require_subtype(vt, declared[a], f"insert {cname}.{a}")
        with self._commit_lock:
            version, ee, oe = self._store
            oid = self.supply.fresh(cname, oe)
            effect = Effect.of(add_effect(cname))
            _flight.record(
                "commit",
                stmt=f"insert {cname}",
                effect=str(effect),
                version=version,
            )
            # a failed append aborts the insert with nothing installed
            # (the burnt oid is absorbed by ∼)
            self._install_adds(
                f"insert {cname}", effect, ee, oe,
                ee.with_member(self.schema.class_extent(cname), oid),
                oe.with_object(oid, ObjectRecord(cname, fields)),
            )
        if self._active_txn is not None:
            self._active_txn.record(Effect.of(add_effect(cname)))
        return OidRef(oid)

    def define(self, source: str | Definition) -> FuncType:
        """Add a ``define d(x:σ,…) as q;`` clause; returns its type.

        Definitions are non-recursive and may reference earlier ones,
        exactly as in the ⊢_prog rule.
        """
        self._check_fenced()
        if isinstance(source, Definition):
            d = source
        else:
            prog = parse_program(source + " 0", schema=self.schema)
            if len(prog.definitions) != 1:
                raise IOQLTypeError("define() expects exactly one definition")
            d = prog.definitions[0]
        if d.name in self._definitions:
            raise IOQLTypeError(f"definition {d.name!r} already exists")
        ctx = self.type_context()
        ftype_plain = check_definition(ctx, d)
        # carry the latent effect on the stored type (Figure 3 view)
        eff_type = EffectChecker().check_definition(ctx, d)
        if self._wal is not None:
            from repro.db.recovery import define_record

            # write-ahead: logged only once the definition is known good;
            # a definition changes what any later query may mean, so its
            # record advances the star mark, like a full record
            rec = define_record(self, d)
            self._mark_written(self._wal.append(rec), rec)
        self._definitions[d.name] = d
        self._def_types[d.name] = eff_type
        self.machine.defs[d.name] = d
        self._defs_version += 1  # old compiled plans must not resolve d
        return eff_type if not eff_type.effect.is_empty() else ftype_plain

    @property
    def definitions(self) -> Mapping[str, Definition]:
        return dict(self._definitions)

    # -- contexts ----------------------------------------------------------
    def oid_types(self) -> dict[str, Type]:
        """The oid fragment of Q: every live oid at its dynamic class.

        Memoised on the store version.  Every context from
        :meth:`type_context` holds the returned dict by reference as
        Q's fixed part, so callers must not mutate it.
        """
        cached = self._oid_types_cache
        version, _, oe = self._store
        if cached is not None and cached[0] == version:
            return cached[1]
        vars = {oid: ClassType(rec.cname) for oid, rec in oe.items()}
        self._oid_types_cache = (version, vars)
        return vars

    def type_context(self) -> TypeContext:
        """(E; D; Q) for this database's current state."""
        return TypeContext(
            self.schema, defs=dict(self._def_types), base=self.oid_types()
        )

    # -- parsing -----------------------------------------------------------
    def parse(self, source: str | Query) -> Query:
        """Parse query text with this schema's extent names resolved."""
        if isinstance(source, Query):
            return resolve_extents(source, frozenset(self.schema.extents))
        return parse_query(source, schema=self.schema)

    def _derive(self, source: str | Query) -> tuple[Query, Effect]:
        """The front end: the resolved query and its effect ε, from one
        Figure 3 derivation ``q : σ ! ε`` made before any evaluation (σ
        is the Figure 1 type).  On a rejection Figure 1 re-checks only
        so that the error keeps its wording."""
        q = self.parse(source)
        with _span("typecheck"):
            if _OBS.enabled:
                _METRICS.counter("typecheck_total").inc()
            ctx = self.type_context()
            try:
                return q, EffectChecker().check_traced(ctx, q)[1]
            except ReproError:
                check_query(ctx, q)
                raise

    # -- static analysis -----------------------------------------------------
    def typecheck(self, source: str | Query) -> Type:
        """Figure 1: the type of the query, or :class:`IOQLTypeError`."""
        q = self.parse(source)
        with _span("typecheck"):
            if _OBS.enabled:
                _METRICS.counter("typecheck_total").inc()
            return check_query(self.type_context(), q)

    def effect_of(self, source: str | Query) -> Effect:
        """Figure 3: the inferred effect ε of the query."""
        _, eff = EffectChecker().check_traced(
            self.type_context(), self.parse(source)
        )
        return eff

    def typecheck_with_effect(self, source: str | Query) -> tuple[Type, Effect]:
        """Figure 3 judgement ``q : σ ! ε`` in one call."""
        return EffectChecker().check_traced(
            self.type_context(), self.parse(source)
        )

    def determinism_witnesses(self, source: str | Query) -> list[Interference]:
        """⊢′ analysis: the (possibly empty) interference witnesses."""
        return self._determinism(source)[2]

    def _determinism(
        self, source: str | Query
    ) -> tuple[Type, Effect, list[Interference]]:
        """One ⊢′ derivation: ``(type, effect, witnesses)``.  ⊢′ is
        Figure 3 plus the (Comp2′) observer, so the effect is Figure 3's."""
        return analyze_determinism(
            self.schema,
            self.parse(source),
            defs=self._def_types,
            var_types=self.oid_types(),
        )

    def is_deterministic(self, source: str | Query) -> bool:
        """Theorem 7's premise: does ⊢′ accept the query?"""
        return not self.determinism_witnesses(source)

    def commutation_conflicts(
        self, source: str | Query
    ) -> list[CommutationConflict]:
        """⊢″ analysis: set operators whose operands interfere."""
        _, _, conflicts = analyze_commutativity(
            self.schema,
            self.parse(source),
            defs=self._def_types,
            var_types=self.oid_types(),
        )
        return conflicts

    def check_commutable(self, source: str | Query) -> None:
        """Raise :class:`IOQLEffectError` unless ⊢″ accepts the query."""
        conflicts = self.commutation_conflicts(source)
        if conflicts:
            raise IOQLEffectError("; ".join(str(c) for c in conflicts))

    def optimize(self, source: str | Query) -> "Query":
        """Apply the effect-gated rewriting pipeline; returns the query."""
        from repro.optimizer.planner import optimize

        return optimize(self, self.parse(source)).query

    # -- evaluation -----------------------------------------------------------
    def run(
        self,
        source: str | Query,
        *,
        strategy: Strategy = FIRST,
        max_steps: int = DEFAULT_MAX_STEPS,
        commit: bool = True,
        engine: str = "auto",
        budget: Budget | None = None,
        atomic: bool = False,
        retry: RetryPolicy | None = None,
    ) -> EvalResult:
        """Evaluate a query under one strategy; optionally commit EE/OE.

        Every call makes one Figure 3 derivation (:meth:`_derive`): it
        raises when the query is ill-typed, so evaluation enjoys Theorem
        3 and can never get stuck, and its effect routes the read, picks
        the engine and bounds an ``atomic`` scope.  A replica serving
        the read derives nothing again.  ``engine`` selects
        the presentation: ``"auto"`` (default) routes the query through
        the compiled set-at-a-time engine when the Figure 3 effect
        system proves it read-only (Theorem 4 then guarantees the
        compiled answer matches the machine's) and falls back to the
        machine otherwise — :meth:`plan_decision` explains the choice;
        ``"compiled"`` forces the compiled engine (raising
        ``ValueError`` when the query is ineligible); ``"reduction"``
        is the paper's Figure 2/4 machine (step counts, rule traces);
        ``"bigstep"`` is the normalisation evaluator of
        :mod:`repro.semantics.bigstep` — same answers (tested), roughly
        an order of magnitude faster than the machine.

        Resilience knobs (see ``docs/ROBUSTNESS.md``):

        * ``budget`` bounds the evaluation (steps, wall-clock, new
          objects); violations raise the matching
          :class:`~repro.errors.BudgetExceeded` subclass.  Retried
          attempts each get a fresh copy of the budget.
        * ``atomic=True`` captures an effect-guided
          :class:`~repro.resilience.transactions.TransactionScope` —
          only the extents in the query's static R ∪ A (∪ U) — before
          evaluating, and rolls it back on *any* failure, so the
          database never observes a half-applied statement.
        * ``retry`` replays a failed attempt under the given
          :class:`~repro.resilience.retry.RetryPolicy`, but only when
          :func:`~repro.resilience.retry.replay_decision` proves the
          replay safe (⊢′ accepts; writes require ``atomic=True``).
          Ineligible or exhausted retries re-raise (the last failure is
          wrapped in :class:`~repro.resilience.retry.RetryExhausted`
          when attempts run out).
        """
        with _span("query", engine=engine):
            q, eff = self._derive(source)
            return self._run_derived(
                q, eff, strategy=strategy, max_steps=max_steps,
                commit=commit, engine=engine, budget=budget, atomic=atomic,
                retry=retry,
            )

    def _run_derived(
        self,
        q: Query,
        eff: Effect,
        *,
        budget: Budget | None = None,
        atomic: bool = False,
        retry: RetryPolicy | None = None,
        **run_kw: Any,
    ) -> EvalResult:
        """:meth:`run` after its derivation: ``q`` and its effect ``eff``
        come from :meth:`_derive`, here or at the caller that holds them
        (the scheduler's run step, a replica serving a routed or pinned
        read).  ``run_kw`` goes to every :meth:`_run_once`; a replica
        read passes ``commit=False`` and the store triple it captured
        as ``at``."""
        self._check_fenced()
        scope = TransactionScope.capture(self, eff) if atomic else None
        attempt = 0
        while True:
            attempt += 1
            attempt_budget = (
                budget if attempt == 1 or budget is None else budget.fresh()
            )
            try:
                return self._run_once(q, eff, budget=attempt_budget, **run_kw)
            except Exception as exc:
                if scope is not None:
                    scope.rollback(self)
                if retry is None or not retry.retryable(exc):
                    self._note_failure(exc)
                    raise
                if attempt >= retry.max_attempts:
                    if _OBS.enabled:
                        _METRICS.counter("retries_exhausted_total").inc()
                    self._note_failure(exc, reason="retry-exhausted")
                    raise RetryExhausted(attempt, exc) from exc
                decision = replay_decision(self, q, rolled_back=atomic)
                if not decision.safe:
                    if _OBS.enabled:
                        _METRICS.counter("retries_refused_total").inc()
                    self._note_failure(exc)
                    raise
                if _OBS.enabled:
                    _METRICS.counter("retry_attempts_total").inc()
                retry.backoff(attempt)

    def _run_once(
        self,
        q: Query,
        eff: Effect,
        *,
        strategy: Strategy = FIRST,
        max_steps: int = DEFAULT_MAX_STEPS,
        commit: bool = True,
        engine: str = "auto",
        budget: Budget | None = None,
        at: tuple[int, ExtentEnv, ObjectEnv] | None = None,
    ) -> EvalResult:
        """One evaluation attempt plus (optionally) its commit.

        The evaluation reads one store triple ``(version, ee, oe)``:
        ``at`` when given (a replica read captured it), else the store
        published when the attempt starts.  An ``A``-only commit
        computes its delta against exactly that triple's environments
        and merges it into whatever is current at install time.
        """
        decision: PlanDecision | None = None
        if engine == "auto":
            if self._replicas is not None:
                # effect-proven read-only: try a fresh-enough replica,
                # which plans the read itself under this effect; None
                # means none covers the query right now, and the primary
                # plans and serves (counted by the router, never wrong)
                routed = _route_read(
                    self, q, eff,
                    strategy=strategy, max_steps=max_steps, budget=budget,
                )
                if routed is not None:
                    self._qstats["runs"] += 1
                    self._qstats["routed_reads"] += 1
                    return routed
            decision = _decide_engine(self, q, eff)
            engine = decision.engine
        elif engine == "compiled":
            decision = _decide_engine(self, q, eff)
            if decision.engine != "compiled":
                raise ValueError(
                    f"query cannot run on the compiled engine: "
                    f"{decision.reason}"
                )
        self._qstats["runs"] += 1
        if engine in self._qstats:
            self._qstats[engine] += 1
        at = self._store if at is None else at
        _, base_ee, base_oe = at
        with _span("eval", engine=engine) as ev_sp:
            if engine == "compiled":
                result = self._run_compiled(q, decision, at, budget=budget)
            elif engine == "bigstep":
                from repro.semantics.bigstep import evaluate_bigstep

                big = evaluate_bigstep(
                    self.machine, base_ee, base_oe, q,
                    strategy=strategy, budget=budget,
                )
                result = EvalResult(
                    value=big.value, ee=big.ee, oe=big.oe, steps=0,
                    effect=big.effect, engine="bigstep",
                )
            elif engine == "reduction":
                result = evaluate(
                    self.machine, base_ee, base_oe, q,
                    strategy=strategy, max_steps=max_steps, budget=budget,
                )
            else:
                raise ValueError(f"unknown engine {engine!r}")
            if _OBS.enabled:
                ev_sp.set(steps=result.steps, effect=str(result.effect))
                if budget is not None:
                    if budget.max_steps is not None:
                        _METRICS.gauge("budget_steps_remaining").set(
                            budget.remaining_steps()
                        )
                    if budget.max_new_objects is not None:
                        _METRICS.gauge("budget_objects_remaining").set(
                            budget.remaining_objects()
                        )
        if commit:
            with _span("commit") as c_sp:
                maybe_fault("commit")
                if _OBS.enabled:
                    new_objects = len(result.oe) - len(self.oe)
                    _METRICS.counter("commits_total").inc()
                    if new_objects > 0:
                        _METRICS.counter("committed_objects_total").inc(
                            new_objects
                        )
                    _METRICS.gauge("live_objects").set(len(result.oe))
                    c_sp.set(
                        objects=len(result.oe), new_objects=new_objects
                    )
                with self._commit_lock:
                    effect = result.effect
                    writes = bool(effect.writes())
                    stmt = pretty(q) if writes else ""
                    if writes:
                        # flight-record before the append so the ring
                        # shows commit intent → fault → detach in order
                        _flight.record(
                            "commit",
                            stmt=stmt[:200],
                            effect=str(effect),
                            version=self._state_version,
                        )
                    if writes and not effect.updates():
                        self._install_adds(
                            stmt, effect,
                            base_ee, base_oe, result.ee, result.oe,
                        )
                    elif writes:
                        pre = self._state_version
                        if self._wal is not None:
                            from repro.db.recovery import full_record

                            # write-ahead: the record must be durable
                            # before the state it describes becomes
                            # observable; a failed append fails the
                            # commit with nothing installed, so log and
                            # memory always agree.  A U atom forces a
                            # full record: updates reach objects through
                            # reference chains no R set names (§5)
                            rec = full_record(
                                self, stmt, effect, result.ee, result.oe
                            )
                            self._mark_written(self._wal.append(rec), rec)
                        self._install(result.ee, result.oe)
                        self._note_write(effect, pre)
                if self._active_txn is not None:
                    self._active_txn.record(result.effect)
        return result

    def _run_compiled(
        self,
        q: Query,
        decision: PlanDecision,
        at: tuple[int, ExtentEnv, ObjectEnv],
        *,
        budget: Budget | None,
    ) -> EvalResult:
        """Execute (or replay from the result cache) a compiled plan at
        store triple ``at``.  A result computed at a version older than
        the cached one is returned, not kept (``PlanCache.keep_result``)."""
        entry = decision.entry
        version, ee, oe = at
        hit = self._plan_cache.result(entry, version)
        if hit is not None:
            _, value, effect, ops, _ = hit
            self._qstats["result_cache_hits"] += 1
            if _OBS.enabled:
                _METRICS.counter("exec_result_cache_hits_total").inc()
        else:
            trace: dict = {}
            value, effect, ops = execute_plan(
                self, entry, budget=budget, at=at, trace=trace
            )
            # the dynamic (class, shard) read trace keys the result under
            # per-shard invalidation (PlanCache.note_write shard_writes)
            self._plan_cache.keep_result(
                q, self._defs_version, entry,
                (version, value, effect, ops, trace.get("shard_reads")),
            )
            if _OBS.enabled:
                _METRICS.counter("exec_compiled_total").inc()
                _METRICS.counter("exec_ops_total").inc(ops)
        return EvalResult(
            value=value,
            ee=ee,
            oe=oe,
            steps=ops,
            effect=effect,
            engine="compiled",
        )

    def plan_decision(self, source: str | Query) -> PlanDecision:
        """Which engine ``run(engine="auto")`` would pick, and why.

        ``"compiled"`` exactly when the Figure 3 effect system proves
        the query's write effect empty (so Theorem 4 applies: every
        schedule — including the compiled set-at-a-time operator
        order — yields the same observables) and the plan compiler
        covers its syntax.  The decision object carries the compiled
        plan's operator notes for ``.explain``.  An ill-typed query
        raises its type error, as ``run`` does.
        """
        return _decide_engine(self, *self._derive(source))

    # -- sharding ----------------------------------------------------------
    def shard(self, cname: str, *, k: int = 8, by: str | None = None):
        """Partition ``cname``'s extent into ``k`` hash shards.

        ``by=None`` hashes object identity (oids); ``by="attr"``
        hashes that attribute's value, which lets the compiled engine
        prune equality-predicate scans to a single shard and lets the
        per-``(class, shard)`` caches survive writes to other shards.
        Re-declaring replaces the previous layout.  Commits touching a
        sharded extent install per-shard (see ``docs/PERFORMANCE.md``);
        results and final states are provably identical to the
        unsharded database.  The spec is persisted by checkpoints, not
        by the WAL — re-declare after a WAL-only recovery.
        """
        from repro.db.shards import validate_spec

        self._check_fenced()
        spec = validate_spec(self.schema, cname, by, k)
        with self._commit_lock:
            self._shards.set_spec(spec)
            # plans compiled without the spec carry no pruning stage;
            # recompiling is cheap and the layout change is rare
            self._plan_cache.clear()
            # index partials are keyed by shard id, and a new layout
            # reuses the ids at the same store version
            self._indexes.clear()
        return spec

    def explain_cost(self, source: str | Query) -> "QueryProfile":
        """The explain tree of one query, without executing it.

        The plan ``run`` would execute, compiled in profile mode: per
        operator the cost model's estimated rows, per extent access
        the shards the plan touches (after pruning) and the rows it
        scans, per comprehension the rows and bytes it hands to its
        merge point, plus the plan's notes.  A query the compiled
        engine refuses reports its decision and no operator tree; an
        ill-typed one raises its type error, as ``run`` does.
        Returns a :class:`~repro.obs.profile.QueryProfile` whose
        ``render()`` is the shell's ``.explain cost``.
        """
        return _explain(self, source)

    def _note_failure(self, exc: Exception, reason: str | None = None) -> None:
        """Count one failed :meth:`run` and dump the flight ring.

        The dump lands next to the WAL when one is attached (the same
        place a crash post-mortem would look); an in-memory database
        has nowhere durable to write, so only the counters move.
        """
        self._qstats["failures"] += 1
        if reason is None:
            if isinstance(exc, BudgetExceeded):
                self._qstats["budget_exhausted"] += 1
                reason = "budget-exhausted"
            else:
                reason = "query-error"
        elif isinstance(exc, BudgetExceeded):
            self._qstats["budget_exhausted"] += 1
        if _flight.crash_dump(reason, error=exc, directory=self._wal_dir):
            self._qstats["crash_dumps"] += 1

    def explain_analyze(
        self,
        source: str | Query,
        *,
        budget: Budget | None = None,
        max_steps: int = DEFAULT_MAX_STEPS,
    ) -> "QueryProfile":
        """Run ``source`` with per-operator instrumentation; never commits.

        Compiled-engine queries come back as :meth:`explain_cost`'s
        tree after one run, each node carrying the optimizer's
        *estimated* cardinality next to the *actual* row count and
        self/total time — the estimated-vs-actual comparison
        ``.explain`` alone cannot give.  Queries the compiler refuses
        run on the reduction machine and report a reduction-rule
        histogram instead of an operator tree.
        :meth:`~repro.obs.profile.QueryProfile.render` pretty-prints;
        ``profile_dict()`` is the machine-readable form.
        """
        return _explain(
            self, source, analyze=True, budget=budget, max_steps=max_steps
        )

    def health(self) -> dict:
        """A point-in-time health snapshot of every subsystem.

        Nested dict (see ``docs/OBSERVABILITY.md`` for the field
        reference): plan/result-cache hit rates, WAL applied LSN and
        fsync latency percentiles, last scheduler batch, flight
        recorder stats, index versions, fault counters.  When obs is
        enabled the scalar fields are mirrored into the metrics
        registry as gauges for the Prometheus exporter.
        """
        from repro.db import health as _health

        h = _health.collect(self)
        if _OBS.enabled:
            _health.export_gauges(h)
        return h

    def analyze(self) -> dict:
        """Eagerly build optimizer statistics for every column.

        Scans each extent once per attribute, populating the
        per-(extent, attribute) distinct counts and integer histograms
        the cost model's selectivity estimates consume (the shell's
        ``.analyze``).  Stats also build lazily on first use, so this
        is an optional warm-up, not a prerequisite.  Returns a
        JSON-safe summary keyed ``"Extent.attr"``.
        """
        version, ee, oe = self._store
        return self._stats.analyze(self.schema, ee, oe, version)

    def transaction(self) -> Transaction:
        """A multi-statement, all-or-nothing scope (context manager).

        Statements commit as they execute; leaving the ``with`` block on
        an exception (or calling :meth:`Transaction.rollback`) restores
        every extent/object/definition the transaction's accumulated
        effect names to its entry state.  Effect-guided: state outside
        R ∪ A (∪ U) of the executed statements is provably untouched
        (Theorem 5) and is not copied or restored.
        """
        return Transaction(self)

    def query(self, source: str | Query, **kw: Any) -> EvalResult:
        """Alias of :meth:`run` (reads nicely at call sites)."""
        return self.run(source, **kw)

    # -- concurrent sessions (repro.sched) --------------------------------
    def run_many(
        self,
        sources,
        *,
        workers: int = 4,
        budget: Budget | None = None,
        retry: RetryPolicy | None = None,
        atomic: bool = False,
    ):
        """Run a batch of queries concurrently, observably as-if serial.

        Admits every query (parse + Figure 3 effect inference) in list
        order, builds the conflict graph over the static effects
        (:meth:`Effect.interferes_with` plus the scheduler's
        writer/update coarsening), then runs non-conflicting queries in
        parallel on ``workers`` threads: read-only queries evaluate
        against the immutable EE/OE snapshot they were scheduled
        against, and conflicting queries — in particular all writers —
        serialise in admission order.  Theorems 7/8 are what make the
        interleaving invisible: the results and the final EE/OE equal a
        sequential run of the same list (up to the oid bijection ∼ of
        ``new``-containing queries).  Returns a
        :class:`repro.sched.BatchResult`.
        """
        from repro.sched import QueryScheduler

        return QueryScheduler(
            self, workers=workers, budget=budget, retry=retry, atomic=atomic
        ).run(list(sources))

    def session(self, *, workers: int = 4, budget: Budget | None = None,
                retry: RetryPolicy | None = None, atomic: bool = False):
        """A :class:`repro.sched.Session`: submit queries from many
        callers, then :meth:`~repro.sched.Session.dispatch` them as one
        scheduled batch (context-manager form dispatches on exit)."""
        from repro.sched import Session

        return Session(
            self, workers=workers, budget=budget, retry=retry, atomic=atomic
        )

    def explore(
        self,
        source: str | Query,
        *,
        max_steps: int = 10_000,
        max_paths: int = 100_000,
        budget: Budget | None = None,
    ) -> Exploration:
        """Enumerate every reduction order of a well-typed query (never
        commits).

        A spent ``budget`` truncates the exploration (the result is
        marked ``truncated``) instead of raising — exploration answers a
        question about the schedule space, and a partial answer is
        still an answer.
        """
        q, _ = self._derive(source)
        _, ee, oe = self._store
        return explore(
            self.machine, ee, oe, q,
            max_steps=max_steps, max_paths=max_paths, budget=budget,
        )

    # -- state management ----------------------------------------------------
    def snapshot(self) -> Snapshot:
        """An immutable copy of the current state."""
        _, ee, oe = self._store
        return Snapshot(ee, oe, tuple(self._definitions.values()))

    def restore(self, snap: Snapshot) -> None:
        """Return to a snapshot (environments are immutable: O(1)).

        The EE/OE install bumps the store version, lazily invalidating
        every cached result/index; the definitions are rebuilt, so
        compiled plans against the old DE are retired too.
        """
        self._install(snap.ee, snap.oe)
        self._defs_version += 1
        self._definitions.clear()
        self._def_types.clear()
        for d in snap.definitions:
            self._definitions[d.name] = d
            self._def_types[d.name] = EffectChecker().check_definition(
                TypeContext(self.schema, defs=dict(self._def_types)), d
            )
        self.machine.defs = self._definitions
        # a restore has no static effect to bound a delta: journal the
        # whole state so recovery lands on the restored prefix
        self._wal_log_unattributed("restore")

    def extent(self, name: str) -> frozenset[str]:
        """The oids currently in an extent."""
        return self.ee.members(name)

    def attr(self, oid: OidRef | str, name: str) -> Query:
        """Read one attribute of a live object."""
        key = oid.name if isinstance(oid, OidRef) else oid
        return self.oe.get(key).attr(name)


# Re-exported conversions (defined next to the value grammar).
from repro.lang.values import from_value, to_value  # noqa: E402  (re-export)
