"""Crash recovery: checkpoint + write-ahead log → a consistent database.

The durability contract (proved by the crash-point sweep in
``tests/test_db_recovery.py``): after a crash at *any* byte boundary —
mid-record, mid-fsync, between a checkpoint and the log reset that
should follow it — :func:`recover` yields a state equal to the one
reached by some **prefix** of the committed sequence, never a torn
mixture and never a state containing a commit that was not made
durable.

The algorithm is classical redo logging, specialised to the immutable
EE/OE store:

1. read the checkpoint (a sealed :mod:`repro.db.persistence` dump plus
   a ``durability`` stanza: the LSN it folded and the oid-supply
   counter);
2. scan the log tolerantly (:func:`repro.db.wal.scan`), truncate the
   torn tail **first** — repair is idempotent, so a crash *during*
   recovery re-runs to the same state;
3. replay intact records in LSN order, skipping those the checkpoint
   already folded (``lsn ≤ checkpoint.lsn`` — the crash window between
   writing a new checkpoint and resetting the log);
4. advance the oid supply past every logged allocation, so the
   recovered database never re-issues a spent oid.

Replay applies the records' *physical* deltas (extent memberships and
object records restricted to the commit's static R∪A∪U effect, per
Theorem 5), not the logical statements — re-running queries would be
slower and needlessly re-entangles recovery with evaluation.  A record
that passes its checksum but fails semantic validation (unknown extent,
wrong attribute set, non-monotone LSN) raises
:class:`~repro.db.wal.WalError`: a checksummed log is never *silently*
wrong, only detectably damaged.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.db import wal as _wal
from repro.db.persistence import (
    PersistenceError,
    decode_state,
    encode_objects,
    encode_state,
    load_database,
    read_document,
)
from repro.db.store import ExtentEnv, ObjectEnv
from repro.db.wal import WalError
from repro.lang.pprint import pretty_definition
from repro.obs import flight as _flight
from repro.obs._state import STATE as _OBS
from repro.obs.metrics import REGISTRY as _METRICS
from repro.obs.spans import span as _span
from repro.resilience.faults import maybe_fault

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.db.database import Database

#: File names inside a durable database directory.
CHECKPOINT_FILE = "checkpoint.json"
WAL_FILE = "wal.log"


def checkpoint_path(directory: str) -> str:
    return os.path.join(directory, CHECKPOINT_FILE)


def wal_path(directory: str) -> str:
    return os.path.join(directory, WAL_FILE)


@dataclass(frozen=True)
class RecoveryResult:
    """What one :func:`recover` run did."""

    db: "Database"
    checkpoint_lsn: int
    last_lsn: int
    replayed: int
    skipped: int
    torn: bool
    truncated_bytes: int

    def summary(self) -> str:
        tail = (
            f", truncated a torn tail of {self.truncated_bytes} byte(s)"
            if self.torn
            else ""
        )
        return (
            f"recovered from checkpoint lsn {self.checkpoint_lsn}: "
            f"replayed {self.replayed} record(s), skipped {self.skipped} "
            f"already-folded{tail}"
        )


def recover(
    directory: str, *, attach: bool = True, sync: bool = True
) -> RecoveryResult:
    """Rebuild the database stored under ``directory``.

    ``attach=True`` (the default) re-attaches the repaired log to the
    recovered database so it keeps journalling; ``attach=False`` is the
    read-only form the crash-point sweep uses.  Raises
    :class:`PersistenceError` for a damaged checkpoint and
    :class:`WalError` for semantically invalid log records; a *torn log
    tail* is not an error — it is the crash this module exists to
    absorb, and it is truncated away.
    """
    doc = _read_checkpoint(directory)
    wpath = wal_path(directory)
    with _span("recovery.replay", directory=directory) as sp:
        records, valid_bytes, scan_error = _wal.scan(wpath)
        torn = scan_error is not None
        truncated = 0
        if torn:
            truncated = os.path.getsize(wpath) - valid_bytes
            # repair before replay: truncation is idempotent, so a crash
            # mid-replay (e.g. an injected recovery.replay fault) leaves
            # the files exactly as a fresh recovery expects them
            _wal.truncate_to(wpath, valid_bytes)
        db, ckpt_lsn, last_lsn, replayed = _replay(
            doc, records, fault_site="recovery.replay"
        )
        skipped = len(records) - replayed
        if _OBS.enabled:
            _METRICS.counter("recovery_replayed_records_total").inc(replayed)
            _METRICS.counter("recovery_skipped_records_total").inc(skipped)
            if torn:
                _METRICS.counter("recovery_torn_tails_total").inc()
                _METRICS.counter("recovery_truncated_bytes_total").inc(
                    truncated
                )
            sp.set(
                records=len(records),
                replayed=replayed,
                skipped=skipped,
                torn=torn,
            )
        # a replay IS a crash post-mortem: leave the black box next to
        # the files it recovered, with the replay's outcome as the tail
        _flight.record(
            "recovery-replay",
            directory=directory,
            checkpoint_lsn=ckpt_lsn,
            last_lsn=last_lsn,
            replayed=replayed,
            skipped=skipped,
            torn=torn,
            truncated_bytes=truncated,
        )
        _flight.crash_dump("recovery-replay", directory=directory)
        if attach:
            db._adopt_wal(directory, next_lsn=last_lsn + 1, sync=sync)
            db._checkpoint_lsn = ckpt_lsn
        return RecoveryResult(
            db=db,
            checkpoint_lsn=ckpt_lsn,
            last_lsn=last_lsn,
            replayed=replayed,
            skipped=skipped,
            torn=torn,
            truncated_bytes=truncated,
        )


def bootstrap(directory: str) -> tuple["Database", int, int]:
    """Non-mutating recover: seed a **replica** from a primary's files.

    Rebuilds the state from the checkpoint plus the intact log prefix
    through the same replay as :func:`recover`, but never repairs the
    log (the primary is alive and owns its files), never attaches a WAL
    to the result, and never dumps the flight ring (replicas resync
    routinely; a resync is not a crash).  Returns ``(db, last_lsn,
    valid_bytes)``: the replayed database, the highest LSN it contains,
    and the byte offset just past the last intact record — the shipper
    resumes tailing from there.
    """
    doc = _read_checkpoint(directory)
    records, valid_bytes, _scan_error = _wal.scan(wal_path(directory))
    db, _ckpt_lsn, last_lsn, _replayed = _replay(doc, records)
    return db, last_lsn, valid_bytes


def _read_checkpoint(directory: str) -> dict:
    ckpt = checkpoint_path(directory)
    if not os.path.exists(ckpt):
        raise PersistenceError(
            f"no checkpoint under {directory!r}: not a durable database "
            "directory (Database.open creates one)"
        )
    return read_document(ckpt)


def _replay(
    doc: dict, records: list[dict], *, fault_site: str | None = None
) -> tuple["Database", int, int, int]:
    """Load checkpoint ``doc``, then apply ``records`` past its LSN.

    The one checkpoint-plus-replay loop of :func:`recover` and
    :func:`bootstrap`.  Records the checkpoint already folded
    (``lsn ≤ checkpoint lsn``) are skipped; an LSN that does not grow
    raises :class:`WalError`.  ``fault_site``, when given, fires before
    each record.  Returns ``(db, checkpoint_lsn, last_lsn, replayed)``.
    """
    db = load_database(doc)
    durability = doc.get("durability", {})
    ckpt_lsn = int(durability.get("lsn", 0))
    db.supply.advance_to(int(durability.get("next_oid", 0)))
    last_lsn = ckpt_lsn
    replayed = 0
    for rec in records:
        if fault_site is not None:
            maybe_fault(fault_site)
        lsn = rec["lsn"]
        if lsn <= ckpt_lsn:
            continue
        if lsn <= last_lsn:
            raise WalError(f"non-monotone record lsn {lsn} after {last_lsn}")
        apply_record(db, rec)
        last_lsn = lsn
        replayed += 1
    return db, ckpt_lsn, last_lsn, replayed


# ---------------------------------------------------------------------------
# Record format
#
# Three kinds:
#
# * ``delta`` — one ``A``-only commit, additive: ``adds`` maps each
#   extent its ``A`` atoms name to the oids that joined it, ``objects``
#   holds those oids' records, and ``shards`` (only when some touched
#   extent is sharded) buckets a sharded extent's adds by shard id;
# * ``full`` — the whole state (``U`` commits, rollback, restore);
# * ``define`` — one definition.
#
# ``objects``, ``extents`` and ``definitions`` are the state stanza of
# :mod:`repro.db.persistence`, which encodes and decodes them for
# checkpoints and records alike.  Logs written by earlier versions may
# also hold ``delta`` records that carry each touched extent's whole
# membership under ``extents``, and ``shard-delta`` records shaped like
# today's additive ``delta``; the reader applies both.
# ---------------------------------------------------------------------------

_DELTA_KINDS = ("delta", "shard-delta")


def delta_record(
    db: "Database", stmt: str, effect, extent_adds, shard_adds, oe: ObjectEnv
) -> dict:
    """The additive record of one ``A``-only commit.

    Theorem 5 bounds the commit's dynamic trace by ``effect``, so the
    objects that joined the extents its ``A`` atoms name are its whole
    physical delta: O(added objects), whatever the extents' sizes.
    """
    rec = {
        "kind": "delta",
        "stmt": stmt,
        "defs_version": db._defs_version,
        "effect": [str(a) for a in effect],
        "adds": {e: sorted(a) for e, a in sorted(extent_adds.items())},
    }
    if shard_adds:
        rec["shards"] = {
            e: {str(s): sorted(oids) for s, oids in sorted(per.items())}
            for e, per in sorted(shard_adds.items())
        }
    rec["objects"] = encode_objects(
        oe, (oid for added in extent_adds.values() for oid in sorted(added))
    )
    rec["next_oid"] = db.supply.state()
    return rec


def full_record(
    db: "Database",
    stmt: str,
    effect=None,
    ee: ExtentEnv | None = None,
    oe: ObjectEnv | None = None,
) -> dict:
    """A record carrying the whole state (U commits, rollback, restore)."""
    ee = db.ee if ee is None else ee
    oe = db.oe if oe is None else oe
    return {
        "kind": "full",
        "stmt": stmt,
        "defs_version": db._defs_version,
        "effect": [str(a) for a in effect] if effect is not None else [],
        **encode_state(ee, oe, db.definitions.values()),
        "next_oid": db.supply.state(),
    }


def define_record(db: "Database", d) -> dict:
    """The record of one new definition ``d``."""
    return {
        "kind": "define",
        "stmt": d.name,
        "source": pretty_definition(d),
        "defs_version": db._defs_version + 1,
        "next_oid": db.supply.state(),
    }


def record_marks(schema, rec: dict) -> set[str]:
    """The watermark keys one record advances.

    A delta advances the class of every extent it names, or — for an
    extent in its ``shards`` stanza — exactly the keys ``"C#k"`` of the
    shards it wrote (``#`` cannot appear in a class name): a freshly
    added object is unreachable from objects of other classes, so a
    query not reading those classes (or shards) cannot observe it.
    Every other record — ``full`` (``U`` commits, rollback, restore) or
    ``define`` — may be observed by any query through reference chains
    (§5), so it advances the star ``"*"``.  The primary and every
    replica derive their marks from this one function.
    """
    if rec.get("kind") not in _DELTA_KINDS:
        return {"*"}
    shards = rec.get("shards", {})
    keys: set[str] = set()
    for extent in rec.get("adds", rec.get("extents", {})):
        try:
            cname = schema.extent_class(extent)
        except Exception:
            continue
        if extent in shards:
            keys.update(f"{cname}#{s}" for s in shards[extent])
        else:
            keys.add(cname)
    return keys


# ---------------------------------------------------------------------------
# Record replay
# ---------------------------------------------------------------------------


def apply_record(db: "Database", rec: dict) -> None:
    """Apply one intact WAL record's physical delta to ``db``.

    Semantic validation failures raise :class:`WalError` — the record's
    checksum held, so either the log was tampered with beyond what a
    CRC catches or the writer was buggy; both must fail loudly.
    """
    kind = rec.get("kind")
    try:
        if kind == "define":
            db.define(rec["source"])
        elif kind in _DELTA_KINDS or kind == "full":
            # an additive delta is independent of the shard layout, so a
            # database recovered under a different (or no) shard
            # declaration reaches the identical extent state; the
            # ``shards`` stanza only feeds record_marks
            decode_state(db, rec, replace=kind == "full")
        else:
            raise WalError(f"record lsn {rec.get('lsn')}: unknown kind {kind!r}")
    except WalError:
        raise
    except Exception as exc:
        raise WalError(
            f"record lsn {rec.get('lsn')} does not apply: {exc}"
        ) from exc
    db.supply.advance_to(int(rec.get("next_oid", 0)))
