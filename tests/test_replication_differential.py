"""Differential certification of the replication layer.

Two properties, both checked against an oracle rather than asserted
from the implementation's own bookkeeping:

* **Zero stale reads** — across 200 seeded mixed rounds (inserts,
  ``U``-effect method calls, defines, checkpoints, scheduled batches,
  sporadic replica polls and injected ship faults), every read the
  primary answers — routed to a replica or not — equals the answer of
  a replica-free reference database that received the identical write
  sequence.  The freshness rule (per-extent watermarks + the star mark
  for ``U``/``define`` commits) is what makes routed reads safe; this
  is the experiment that would catch it being wrong.

* **Failover ≡ recovery** — promoting a replica over a dead primary's
  directory (the in-process analogue of ``examples/
  replica_failover.py``'s ``kill -9``) yields byte-for-byte the state
  that crash recovery extracts from a copy of the same directory, at
  every record-boundary crash point and under a torn tail.  Promotion
  *is* recovery with a survivor's head start, and this proves the head
  start changes nothing.
"""

import os
import random
import shutil

import pytest

from repro.db import recovery, wal
from repro.db.database import Database
from repro.lang.ast import IntLit, MethodCall, OidRef
from repro.methods.ast import AccessMode
from repro.replication import QUARANTINED, Replica, promote, state_digest
from repro.resilience import faults as fault_injection
from repro.resilience.faults import FaultPlan, FaultRule
from repro.resilience.retry import RetryPolicy

ODL = """
class Person extends Object (extent Persons) {
    attribute string name;
    attribute int age;
}
class Team extends Object (extent Teams) {
    attribute string tag;
}
class Account extends Object (extent Accounts) {
    attribute int balance;
    int deposit(int amount) effect U(Account) {
        this.balance := this.balance + amount;
        return this.balance;
    }
}
"""

READS = (
    "Persons",
    "Teams",
    "Accounts",
    "{ p.name | p <- Persons }",
    "{ p | p <- Persons, p.age >= 30 }",
    "{ t.tag | t <- Teams }",
    "{ a.balance | a <- Accounts }",
    "{ p.age | p <- Persons, p.age < 25 }",
)


@pytest.fixture(autouse=True)
def _no_leaked_fault_plan():
    yield
    fault_injection.uninstall()


def _fast_retry():
    return RetryPolicy.seeded(0, base_delay=0.0, jitter=0.0)


def _open_pair(tmp_path):
    live = Database.open(
        str(tmp_path / "live"), ODL, method_mode=AccessMode.EFFECTFUL
    )
    ref = Database.open(
        str(tmp_path / "ref"), ODL, method_mode=AccessMode.EFFECTFUL
    )
    return live, ref


def _write_op(rng, db):
    """One seeded write; returns the statement to replay on the oracle."""
    kind = rng.randrange(4)
    if kind == 0:
        return f'new Person(name: "p{rng.randrange(1000)}", age: {rng.randrange(18, 70)})'
    if kind == 1:
        return f'new Team(tag: "t{rng.randrange(100)}")'
    if kind == 2:
        return f"new Account(balance: {rng.randrange(10, 500)})"
    accounts = sorted(db.extent("Accounts"))
    if not accounts:
        return f"new Account(balance: {rng.randrange(10, 500)})"
    target = accounts[rng.randrange(len(accounts))]
    return MethodCall(OidRef(target), "deposit", (IntLit(rng.randrange(1, 50)),))


class TestZeroStaleReads:
    """The headline property: no routed read is ever stale."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_200_seeded_mixed_rounds(self, tmp_path, seed):
        rng = random.Random(seed)
        live, ref = _open_pair(tmp_path)
        rset = live.replicate(
            2, auto_poll=False, audit_every=0, retry=_fast_retry()
        )
        defined = 0
        divergences = []
        for round_no in range(100):
            # -- writes (identical sequence on live and oracle) --------
            for _ in range(rng.randrange(3)):
                stmt = _write_op(rng, live)
                live.run(stmt)
                ref.run(stmt)
            if rng.random() < 0.08:
                src = (
                    f"define v{defined}() as "
                    "{ p | p <- Persons, p.age >= 40 };"
                )
                defined += 1
                live.define(src)
                ref.define(src)
            # -- background churn the router must survive --------------
            if rng.random() < 0.30:
                rset.poll()
            if rng.random() < 0.10:
                live.checkpoint()  # ship gap: replicas must resync
            if rng.random() < 0.08:
                plan = FaultPlan(
                    [FaultRule("replica.ship", every=2, times=2)],
                    seed=round_no,
                )
                fault_injection.install(plan)
                rset.poll()
                fault_injection.uninstall()
            # -- reads: routed or degraded, never wrong ----------------
            for _ in range(rng.randrange(1, 3)):
                q = READS[rng.randrange(len(READS))]
                got = live.run(q).value
                want = ref.run(q).value
                if got != want:
                    divergences.append((round_no, q, got, want))
            if defined and rng.random() < 0.15:
                q = f"v{rng.randrange(defined)}()"
                if live.run(q).value != ref.run(q).value:
                    divergences.append((round_no, q))
        assert divergences == []
        assert live._qstats["routed_reads"] > 0  # the router did work
        for r in rset:
            assert r.state != QUARANTINED  # churn is lag, not divergence

    def test_scheduled_batches_with_pinned_reads(self, tmp_path):
        rng = random.Random(7)
        live, ref = _open_pair(tmp_path)
        for i in range(4):
            stmt = f'new Person(name: "p{i}", age: {20 + i * 7})'
            live.run(stmt)
            ref.run(stmt)
        live.replicate(2, retry=_fast_retry())
        pinned_seen = 0
        for _ in range(25):
            batch = []
            for _ in range(rng.randrange(2, 6)):
                if rng.random() < 0.4:
                    batch.append(_write_op(rng, live))
                else:
                    batch.append(READS[rng.randrange(len(READS))])
            got = [o.value for o in live.run_many(batch, workers=3)]
            want = [ref.run(q).value for q in batch]
            assert got == want, f"batch diverged: {batch}"
            pinned_seen += live._last_batch["pinned_reads"]
        assert pinned_seen > 0  # some reads really left the graph


class TestFailoverDifferential:
    """Promotion over a dead primary's directory ≡ crash recovery."""

    def _build_estate(self, tmp_path):
        d = str(tmp_path / "estate")
        db = Database.open(d, ODL, method_mode=AccessMode.EFFECTFUL)
        rng = random.Random(42)
        for _ in range(12):
            db.run(_write_op(rng, db))
        # abandon without close: the in-memory handle simply goes away,
        # like a kill -9 — the directory is the whole estate
        return d, db

    def _crash_copy(self, directory, dest, truncate_to=None, tear=False):
        shutil.copytree(directory, dest)
        path = recovery.wal_path(dest)
        if truncate_to is not None:
            with open(path, "r+b") as fh:
                fh.truncate(truncate_to)
        if tear:
            with open(path, "ab") as fh:
                fh.write(b"\x07garbage-tail\xff\xff")
        return dest

    @staticmethod
    def _assert_same_state(a, b, label):
        assert a.ee == b.ee, f"{label}: extents diverge"
        assert a.oe == b.oe, f"{label}: objects diverge"
        assert sorted(a.definitions) == sorted(b.definitions), (
            f"{label}: definitions diverge"
        )

    def _boundaries(self, directory):
        path = recovery.wal_path(directory)
        raw = open(path, "rb").read()
        offsets = []
        offset = len(wal.MAGIC)
        while offset < len(raw):
            _, offset = wal._read_one(raw, offset)
            offsets.append(offset)
        return offsets

    @pytest.mark.parametrize("tear", [False, True])
    def test_promote_equals_recovery_at_every_boundary(self, tmp_path, tear):
        d, _db = self._build_estate(tmp_path)
        for i, cut in enumerate(self._boundaries(d)):
            surv_dir = self._crash_copy(
                d, str(tmp_path / f"surv-{tear}-{i}"), cut, tear=tear
            )
            ref_dir = self._crash_copy(
                d, str(tmp_path / f"ref-{tear}-{i}"), cut, tear=tear
            )
            # the survivor: a cross-process-style replica of the dead
            # primary's directory, promoted in place
            replica = Replica(
                "survivor", directory=surv_dir, retry=_fast_retry()
            )
            promoted = promote(replica, directory=surv_dir)
            reference = recovery.recover(ref_dir, attach=False).db
            self._assert_same_state(
                promoted, reference, f"crash point {i} (tear={tear})"
            )
            # reads on the promoted primary work, writes go to its log
            assert promoted.run("Persons").value is not None
            promoted.insert("Person", name="after", age=1)
            promoted.close()

    def test_promoted_writes_resume_past_the_high_water_mark(self, tmp_path):
        d, _db = self._build_estate(tmp_path)
        surv = self._crash_copy(d, str(tmp_path / "surv"))
        replica = Replica("survivor", directory=surv, retry=_fast_retry())
        promoted = promote(replica, directory=surv)
        all_old = {oid for oid, _ in promoted.oe.items()}
        new_ref = promoted.insert("Person", name="fresh", age=5)
        new_oid = getattr(new_ref, "name", new_ref)
        assert new_oid not in all_old  # ∼: the supply resumed past ~
        # and the promoted estate recovers on its own
        promoted.close()
        again = recovery.recover(surv, attach=False).db
        assert new_oid in again.oe

    def test_survivor_reads_never_error_through_failover(self, tmp_path):
        d, _db = self._build_estate(tmp_path)
        surv = self._crash_copy(d, str(tmp_path / "surv"))
        replica = Replica("survivor", directory=surv, retry=_fast_retry())
        # read while headless
        before = replica.db.run("Persons", commit=False).value
        promoted = promote(replica, directory=surv)
        after = promoted.run("Persons").value
        assert before == after  # the survivor was already caught up
        assert state_digest(promoted) == state_digest(replica.db)
