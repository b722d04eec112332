"""Failover across a real process death: ``kill -9``, then promote.

Run with::

    PYTHONPATH=src python examples/replica_failover.py

The script plays two roles.  As the **primary** (``--burst DIR``) it
opens a durable database in ``DIR`` and inserts a long burst of
objects, fsyncing every record.  As the **survivor** (the default) it:

1. launches the primary as a *separate OS process*;
2. tails the primary's write-ahead log from the filesystem — a
   cross-process :class:`repro.replication.Replica` with no in-memory
   handle on the primary at all, serving reads the whole time;
3. ``SIGKILL``\\ s the primary mid-burst (a genuine ``kill -9``: no
   ``atexit``, no flush, possibly a torn record at the tail);
4. **promotes** the replica over the dead primary's directory, and
   proves the promoted database equals what crash *recovery* extracts
   from a byte-copy of the same directory — promotion is recovery with
   a survivor's head start;
5. writes past the dead primary's high-water mark and recovers once
   more, showing the promoted estate is itself durable.

CI runs this as the replica-failover smoke job; any divergence fails
the assertions below.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

from repro.db import recovery
from repro.db.database import Database
from repro.replication import QUARANTINED, Replica, promote
from repro.resilience.retry import RetryPolicy

ODL = """
class Person extends Object (extent Persons) {
    attribute string name;
    attribute int age;
}
"""

BURST = 400  # inserts the primary attempts before it is killed


# ---------------------------------------------------------------------------
# role: primary (the process that will be killed)
# ---------------------------------------------------------------------------


def burst(directory: str) -> None:
    db = Database.open(directory, ODL)  # sync=True: every record fsynced
    print("ready", flush=True)  # the parent waits for the log to exist
    for i in range(BURST):
        db.insert("Person", name=f"burst{i}", age=18 + i % 60)
    print("done", flush=True)  # not expected to be reached


# ---------------------------------------------------------------------------
# role: survivor (tails the log, survives the kill, takes over)
# ---------------------------------------------------------------------------


def main() -> None:
    tmp = tempfile.mkdtemp(prefix="repro-failover-")
    estate = os.path.join(tmp, "estate")
    primary = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--burst", estate],
        stdout=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": "src"},
        text=True,
    )
    try:
        assert primary.stdout.readline().strip() == "ready"

        # a cross-process replica: nothing but the directory connects it
        # to the primary — exactly what a second host would see
        replica = Replica(
            "survivor",
            directory=estate,
            retry=RetryPolicy.seeded(0, base_delay=0.0, jitter=0.0),
        )
        reads = 0
        deadline = time.monotonic() + 10.0
        while replica.applied_lsn < BURST // 4:
            if time.monotonic() > deadline:  # pragma: no cover - smoke guard
                raise AssertionError("primary made no visible progress")
            replica.poll()
            # reads keep working while the primary is mid-burst...
            assert replica.db.run(
                "size(Persons)", commit=False
            ).python() is not None
            reads += 1

        # -- kill -9, mid-burst: no flush, no goodbye ---------------------
        primary.send_signal(signal.SIGKILL)
        primary.wait()
        assert primary.returncode == -signal.SIGKILL

        # ...and keep working after it is dead
        replica.poll()
        n_before = replica.db.run("size(Persons)", commit=False).python()
        assert replica.state != QUARANTINED

        # byte-copy the estate *before* promotion touches it: the copy is
        # what an independent crash recovery gets to see
        ref_dir = os.path.join(tmp, "reference")
        shutil.copytree(estate, ref_dir)

        # -- promote the survivor over the dead primary's directory ------
        promoted = promote(replica, directory=estate)
        reference = recovery.recover(ref_dir, attach=False).db
        assert promoted.ee == reference.ee, "promotion != recovery (extents)"
        assert promoted.oe == reference.oe, "promotion != recovery (objects)"
        survived = promoted.run("size(Persons)").python()
        print(
            f"killed the primary after {survived} durable inserts "
            f"({reads} reads served through the outage, "
            f"applied lsn {replica.applied_lsn})"
        )
        assert survived >= n_before  # promotion replayed the shipped tail

        # -- life goes on: writes resume past the high-water mark ---------
        fresh = promoted.insert("Person", name="after-failover", age=1)
        fresh_oid = getattr(fresh, "name", fresh)
        assert promoted.run("size(Persons)").python() == survived + 1
        promoted.close()
        again = recovery.recover(estate, attach=False).db
        assert fresh_oid in again.oe, "post-failover write not durable"
        print("promoted survivor equals crash recovery; writes resume; "
              "the promoted estate recovers on its own")
        print("ok: failover proven against a real kill -9")
    finally:
        if primary.poll() is None:  # pragma: no cover - cleanup path
            primary.kill()
            primary.wait()
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--burst":
        burst(sys.argv[2])
    else:
        main()
