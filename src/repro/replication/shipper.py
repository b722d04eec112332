"""The WAL shipper: a pull-based tail over a primary's ``wal.log``.

Each replica owns one :class:`WalShipper`.  A poll reads whatever
intact frames lie past the shipper's byte offset (``repro.db.wal.tail``
— tolerant, resumable, never mutating: the primary owns repair) and
hands them to the replica to apply.  The file is the whole protocol,
which is why shipping also works across processes: a replica in
another process tails the same bytes the in-process one does.

The robustness surface is in telling three tail conditions apart:

* **torn append in flight** — the error sits at the shipper's offset
  and the next poll usually sees the frame completed; ship the intact
  prefix and wait;
* **log reset** (a checkpoint folded the log) — the file shrank below
  the offset, its first record changed, or it regrew but is
  frame-aligned only from the header;
  the shipped stream is gone, so raise :class:`ShipGap` and the
  replica resyncs from the checkpoint;
* **mid-log corruption** — the same frame stays torn while the file
  keeps growing (the writer moved past it): also a :class:`ShipGap`,
  because no later frame can be trusted to be the successor of the
  last shipped one.

Every poll passes the ``replica.ship`` fault site, so all three paths
are drivable from a seeded :class:`~repro.resilience.faults.FaultPlan`.
"""

from __future__ import annotations

from repro.db import wal as _wal
from repro.db.wal import WalError
from repro.errors import ReproError
from repro.resilience.faults import maybe_fault


class ReplicationError(ReproError):
    """Something went wrong in the replication layer."""


class ShipGap(ReplicationError):
    """The ship stream lost continuity; the replica must resync."""


class WalShipper:
    """Tails one ``wal.log`` by byte offset, shipping intact frames."""

    def __init__(self, path: str):
        self.path = path
        self.offset = len(_wal.MAGIC)
        self.last_lsn = 0
        # the log's first frame header as of the last poll: a checkpoint
        # reset changes it even when the log regrows to the same size
        self._head = b""
        self.polls_total = 0
        self.records_total = 0
        self.gaps_total = 0
        # (offset, size) of the last torn frame seen: the two-poll
        # corruption detector compares against it
        self._pending_error: tuple[int, int] | None = None

    def seek(self, offset: int, lsn: int) -> None:
        """Re-home the stream after a resync: next poll reads from here."""
        self.offset = max(offset, len(_wal.MAGIC))
        self.last_lsn = lsn
        self._head = _wal.tail(self.path, self.offset).head
        self._pending_error = None

    def poll(self) -> tuple[dict, ...]:
        """Read and return newly shipped records (possibly none).

        Raises :class:`ShipGap` when the stream the offset referred to
        no longer exists (reset/corruption) and
        :class:`~repro.errors.TransientFault` when an injected
        ``replica.ship`` fault fires; both send the replica through its
        backoff-resync path.
        """
        maybe_fault("replica.ship")
        self.polls_total += 1
        t = _wal.tail(self.path, self.offset, self._head)
        if t.reset:
            self.gaps_total += 1
            self._pending_error = None
            raise ShipGap(
                f"{self.path}: log was reset under ship offset "
                f"{self.offset} (checkpoint fold) — resync from the "
                "checkpoint"
            )
        if t.error is not None and not t.records and t.offset == self.offset:
            self._check_stalled_tail(t)
        elif t.error is not None:
            self._pending_error = (t.offset, t.size)
        else:
            self._pending_error = None
        self.offset = t.offset
        self._head = t.head
        records = tuple(r for r in t.records if r["lsn"] > self.last_lsn)
        if records:
            self.last_lsn = records[-1]["lsn"]
            self.records_total += len(records)
        return records

    def _check_stalled_tail(self, t: "_wal.TailResult") -> None:
        """No progress and a torn frame at our offset: reset, corruption,
        or just an append still in flight?"""
        # frame-aligned from the header but not from our offset ⇒ the
        # log was reset (and regrew past the old offset) under us
        _records, full_valid, full_err = _wal.scan(self.path)
        if full_err is None or full_valid > t.offset:
            self.gaps_total += 1
            self._pending_error = None
            raise ShipGap(
                f"{self.path}: ship offset {t.offset} is no longer "
                "frame-aligned (log reset) — resync from the checkpoint"
            )
        prev = self._pending_error
        if prev is not None and prev[0] == t.offset and t.size > prev[1]:
            # the writer appended past a frame that never became intact:
            # that frame will never complete, so the stream is broken
            self.gaps_total += 1
            self._pending_error = None
            raise ShipGap(
                f"{self.path}: persistent corrupt frame at byte "
                f"{t.offset} ({t.error}) — resync from the checkpoint"
            )
        self._pending_error = (t.offset, t.size)

    def snapshot(self) -> dict:
        return {
            "offset": self.offset,
            "last_lsn": self.last_lsn,
            "polls": self.polls_total,
            "records": self.records_total,
            "gaps": self.gaps_total,
        }
