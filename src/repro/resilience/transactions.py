"""Effect-guided transactions over the EE/OE environments.

The Figure 3 effect of a query is a *static upper bound* on what it can
touch at run time (Theorem 5: every dynamic trace is a subeffect of the
static effect).  That bound is exactly what a transaction needs: to
make a statement atomic it suffices to keep the entry EE/OE (immutable,
so keeping them is free) and, on failure, restore **only the extents
of the classes in R(C) ∪ A(C) (∪ U(C) in §5 mode)** from them —
everything else is untouched by construction.

Two grains are provided:

* :class:`TransactionScope` — the per-statement scope behind
  ``Database.run(..., atomic=True)``: capture before evaluation,
  :meth:`rollback` on any failure;
* :class:`Transaction` — the multi-statement context manager behind
  ``Database.transaction()``: statements commit as they run, the
  accumulated *dynamic* effect tracks which extents were really
  touched, and an exception (or explicit :meth:`rollback`) restores the
  session to the entry state — all-or-nothing shell sessions.

Rollback restores scoped extent memberships, drops objects created in
scoped extents, restores the prior records of surviving scoped objects
(undoing §5 in-place updates) and removes definitions added inside the
transaction.  The oid supply is deliberately *not* rewound: reusing a
burnt oid could collide with an object created outside the scope, and
fresher-than-necessary oids are absorbed by the paper's bijection ∼.

Every rollback runs under an obs span and bumps
``rollbacks_total{scope=…}``; transactions bump
``transactions_total{outcome=committed|rolled_back}``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.effects.algebra import EMPTY, Effect
from repro.errors import ReproError
from repro.obs._state import STATE as _OBS
from repro.obs.metrics import REGISTRY as _METRICS
from repro.obs.spans import span as _span

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.db.database import Database
    from repro.db.store import ExtentEnv, ObjectEnv


def scope_extents(db: "Database", effect: Effect) -> tuple[str, ...]:
    """The extents a query with this effect could read or grow.

    One extent per class named by an R/A/U atom (the paper attaches one
    extent per class; (New) inserts only into the extent of the created
    class).  Classes without a declared extent contribute nothing.
    """
    names = set()
    for cname in sorted(effect.reads() | effect.adds() | effect.updates()):
        try:
            names.add(db.schema.class_extent(cname))
        except Exception:
            continue  # abstract/extent-less class: nothing to snapshot
    return tuple(sorted(names))


def _restore(
    db: "Database",
    extents: tuple[str, ...],
    entry_ee: "ExtentEnv",
    entry_oe: "ObjectEnv",
) -> tuple[int, bool]:
    """Reinstall the entry state of ``extents``, leave the rest alone.

    Objects that joined a scoped extent since entry are dropped, its
    membership is reset, and every entry member's record is restored
    (undoing §5 in-place updates).  Returns the number of dropped
    objects and whether anything changed.  The caller holds
    ``db._commit_lock``.
    """
    _, ee, oe = db._store
    dropped = 0
    restored = {}
    for extent in extents:
        prior = entry_ee.members(extent)
        current = ee.members(extent)
        added = current - prior
        if added:
            oe = oe.without_objects(added)
            dropped += len(added)
        if current != prior:
            ee = ee.with_members(extent, prior)
        for oid in prior:
            rec = entry_oe.get(oid)
            if oe.get(oid) is not rec:
                restored[oid] = rec
    oe = oe.with_objects(restored)
    changed = ee is not db.ee or oe is not db.oe
    # under the commit lock no writer interleaves; concurrent *disjoint*
    # readers are safe because the dropped oids were created by the
    # failed work and cannot be referenced from outside its scope
    db._install(ee, oe)
    return dropped, changed


@dataclass(frozen=True)
class TransactionScope:
    """What one atomic statement may touch, and its pre-state.

    ``ee``/``oe`` are the environments published at capture time.
    They are immutable, so keeping them costs nothing, and a rollback
    restores only the scoped extents from them.
    """

    extents: tuple[str, ...]
    ee: "ExtentEnv"
    oe: "ObjectEnv"

    @staticmethod
    def capture(db: "Database", effect: Effect) -> "TransactionScope":
        """Remember the entry state of the extents the effect puts at risk."""
        _, ee, oe = db._store
        return TransactionScope(scope_extents(db, effect), ee, oe)

    def rollback(self, db: "Database") -> None:
        """Restore the scoped extents/objects; leave the rest alone."""
        with _span("rollback", scope="query", extents=len(self.extents)):
            with db._commit_lock:
                dropped, changed = _restore(
                    db, self.extents, self.ee, self.oe
                )
                if changed:
                    # a rollback has no static effect bounding what it
                    # undid: journal the whole state (see db.wal)
                    db._wal_log_unattributed("rollback(query)")
            if _OBS.enabled:
                _METRICS.counter("rollbacks_total", scope="query").inc()
                if dropped:
                    _METRICS.counter("rolled_back_objects_total").inc(dropped)


class Transaction:
    """All-or-nothing grouping of several statements on one database.

    Usage::

        with db.transaction():
            db.run('new Person(name: "Ada", age: 36)')
            db.run(failing_statement)      # raises
        # the Person above is gone again

    Statements commit as they execute; the transaction accumulates
    their *dynamic* effects (plus ``A`` atoms for direct ``insert``
    calls) and a rollback restores exactly the scoped state from the
    entry snapshot.  Definitions added inside are removed again.
    Transactions do not nest.
    """

    def __init__(self, db: "Database"):
        self._db = db
        self.effect: Effect = EMPTY
        self._active = False
        self._entry_ee: ExtentEnv | None = None
        self._entry_oe: ObjectEnv | None = None
        self._entry_defs: dict | None = None
        self._entry_def_types: dict | None = None

    # -- lifecycle -------------------------------------------------------
    @property
    def active(self) -> bool:
        return self._active

    def __enter__(self) -> "Transaction":
        db = self._db
        if db._active_txn is not None:
            raise ReproError("transactions do not nest")
        _, self._entry_ee, self._entry_oe = db._store
        self._entry_defs = dict(db._definitions)
        self._entry_def_types = dict(db._def_types)
        self._active = True
        db._active_txn = self
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if not self._active:  # already resolved explicitly
            return False
        if exc_type is None:
            self.commit()
        else:
            self.rollback()
        return False  # never swallow the exception

    def record(self, effect: Effect) -> None:
        """Accumulate one statement's dynamic effect (Figure 4 trace)."""
        self.effect |= effect

    # -- resolution ------------------------------------------------------
    def commit(self) -> None:
        """Keep everything; the transaction ends."""
        self._ensure_active()
        self._finish("committed")

    def rollback(self) -> None:
        """Restore the entry state for every scoped extent/object."""
        self._ensure_active()
        db = self._db
        with _span("rollback", scope="transaction"):
            with db._commit_lock:
                _restore(
                    db, scope_extents(db, self.effect),
                    self._entry_ee, self._entry_oe,
                )
            # definitions added inside the transaction are removed; the
            # dicts are restored wholesale (defs are never huge) and the
            # DE version is bumped so compiled plans against them retire
            db._defs_version += 1
            db._definitions.clear()
            db._definitions.update(self._entry_defs)
            db._def_types.clear()
            db._def_types.update(self._entry_def_types)
            db.machine.defs = db._definitions
            # the statements this undid were individually journalled;
            # only a full record can express their un-doing
            db._wal_log_unattributed("rollback(transaction)")
            if _OBS.enabled:
                _METRICS.counter("rollbacks_total", scope="transaction").inc()
        self._finish("rolled_back")

    # -- internals -------------------------------------------------------
    def _ensure_active(self) -> None:
        if not self._active:
            raise ReproError("transaction is not active")

    def _finish(self, outcome: str) -> None:
        self._active = False
        if self._db._active_txn is self:
            self._db._active_txn = None
        if _OBS.enabled:
            _METRICS.counter("transactions_total", outcome=outcome).inc()
