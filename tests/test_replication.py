"""WAL-shipped read replicas: shipping, freshness routing, robustness.

The replication layer's contract has three parts, tested here in
increasing order of adversity:

* **mechanism** — a replica bootstraps from the checkpoint + intact log
  and replays shipped records through the same ``apply_record`` path
  crash recovery uses, keeping per-extent LSN watermarks derived from
  each record's static write effect;
* **routing** — ``Database.run`` serves an effect-proven read-only
  query from a covering replica (counted) and degrades to the primary
  when no replica can be proven fresh (counted, never wrong);
* **robustness** — ship gaps (checkpoint folds, torn/corrupt frames,
  injected ``replica.ship``/``replica.apply`` faults) drive seeded
  backoff-and-resync; a replica whose state digest disagrees with the
  primary is quarantined with a named flight-recorder black box; a
  promoted replica becomes a fenced-off primary's successor.

The zero-staleness property itself (every routed read equals the
primary's answer, across seeded mixed batches) lives in
``tests/test_replication_differential.py``.
"""

import os
import sys
import threading
import types

import pytest

from repro.db import recovery, wal
from repro.db.database import Database
from repro.db.shards import shard_of
from repro.errors import ReproError
from repro.exec import runtime
from repro.lang.ast import IntLit, MethodCall, OidRef
from repro.lang.pprint import pretty
from repro.methods.ast import AccessMode
from repro.obs import flight as _flight
from repro.replication import (
    CATCHING_UP,
    LAGGING,
    QUARANTINED,
    SERVING,
    Replica,
    ReplicaSet,
    ShipGap,
    WalShipper,
    promote,
    state_digest,
)
from repro.resilience import faults as fault_injection
from repro.resilience.faults import SITES, FaultPlan, FaultRule, inject
from repro.resilience.retry import RetryPolicy
from repro.semantics.bigstep import evaluate_bigstep

ODL = """
class Person extends Object (extent Persons) {
    attribute string name;
    attribute int age;
}
class Team extends Object (extent Teams) {
    attribute string tag;
}
"""

ACCOUNT_ODL = """
class Account extends Object (extent Accounts) {
    attribute int balance;
    int deposit(int amount) effect U(Account) {
        this.balance := this.balance + amount;
        return this.balance;
    }
}
"""


@pytest.fixture(autouse=True)
def _clean_slate():
    _flight.RECORDER.clear()
    yield
    fault_injection.uninstall()


def _fast_retry(**kw):
    return RetryPolicy.seeded(0, base_delay=0.0, jitter=0.0, **kw)


def _open(tmp_path, name="db", odl=ODL, **kw):
    return Database.open(str(tmp_path / name), odl, **kw)


# ---------------------------------------------------------------------------
# Shipping mechanism
# ---------------------------------------------------------------------------


class TestShipper:
    def test_tails_new_records_incrementally(self, tmp_path):
        db = _open(tmp_path)
        shipper = WalShipper(recovery.wal_path(db.wal_dir))
        assert shipper.poll() == ()
        db.insert("Person", name="a", age=1)
        (r1,) = shipper.poll()
        assert r1["lsn"] == 1 and r1["kind"] == "delta"
        db.insert("Person", name="b", age=2)
        db.insert("Team", tag="t")
        r2, r3 = shipper.poll()
        assert (r2["lsn"], r3["lsn"]) == (2, 3)
        assert shipper.poll() == ()
        assert shipper.snapshot()["records"] == 3

    def test_checkpoint_fold_is_a_ship_gap(self, tmp_path):
        db = _open(tmp_path)
        shipper = WalShipper(recovery.wal_path(db.wal_dir))
        db.insert("Person", name="a", age=1)
        db.insert("Person", name="b", age=2)
        shipper.poll()
        db.checkpoint()  # truncates the log under the shipper
        db.insert("Person", name="c", age=3)
        with pytest.raises(ShipGap, match="resync"):
            shipper.poll()
        assert shipper.snapshot()["gaps"] == 1

    def test_torn_tail_ships_prefix_then_completes(self, tmp_path):
        db = _open(tmp_path)
        path = recovery.wal_path(db.wal_dir)
        shipper = WalShipper(path)
        db.insert("Person", name="a", age=1)
        (r1,) = shipper.poll()  # offset now sits at record 1's end
        assert r1["lsn"] == 1
        db.insert("Person", name="b", age=2)
        db.close()
        whole = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(whole[: shipper.offset + 7])  # record 2 torn mid-frame
        assert shipper.poll() == ()  # in-flight append: wait, no gap
        with open(path, "wb") as fh:
            fh.write(whole)  # the same frame completes
        (r2,) = shipper.poll()
        assert r2["lsn"] == 2
        assert shipper.snapshot()["gaps"] == 0

    def test_persistent_corruption_is_a_gap(self, tmp_path):
        db = _open(tmp_path)
        db.insert("Person", name="a", age=1)
        path = recovery.wal_path(db.wal_dir)
        shipper = WalShipper(path)
        shipper.poll()
        size = os.path.getsize(path)
        with open(path, "ab") as fh:
            fh.write(b"\xff" * 9)  # garbage frame that will never complete
        assert shipper.poll() == ()  # first strike: could be in flight
        with open(path, "ab") as fh:
            fh.write(b"\xff" * 32)  # the file grows past the torn frame
        with pytest.raises(ShipGap, match="corrupt frame"):
            shipper.poll()
        assert size < os.path.getsize(path)
        db.close()


class TestReplicaApply:
    def test_bootstrap_then_apply_tracks_marks(self, tmp_path):
        db = _open(tmp_path)
        db.insert("Person", name="a", age=1)
        r = Replica("r1", db, retry=_fast_retry())
        assert r.state == SERVING
        assert r.applied_lsn == 1
        assert r.star == 1  # bootstrap: state equals the prefix exactly
        db.insert("Person", name="b", age=2)
        db.insert("Team", tag="t")
        assert r.poll() == 2
        assert r.marks == {"Person": 2, "Team": 3}
        assert r.db.ee.members("Persons") == db.ee.members("Persons")
        assert state_digest(r.db) == state_digest(db)

    def test_applied_delta_keeps_unrelated_results(self, tmp_path):
        db = _open(tmp_path)
        db.insert("Team", tag="t")
        r = Replica("r1", db, retry=_fast_retry())
        q, eff = db._derive("{ t.tag | t <- Teams }")
        r.serve(q, eff)
        db.insert("Person", name="a", age=1)
        assert r.poll() == 1
        # the record replayed as an A(Person) commit: the Teams result
        # was promoted to the replica's new version, not invalidated
        hits = r.db._qstats["result_cache_hits"]
        assert r.serve(q, eff).python() == {"t"}
        assert r.db._qstats["result_cache_hits"] == hits + 1

    def test_update_commit_ships_full_record_and_stars(self, tmp_path):
        db = _open(
            tmp_path, odl=ACCOUNT_ODL, method_mode=AccessMode.EFFECTFUL
        )
        db.run("new Account(balance: 100)")
        r = Replica("r1", db, retry=_fast_retry())
        (a,) = sorted(db.extent("Accounts"))
        db.run(MethodCall(OidRef(a), "deposit", (IntLit(25),)))
        r.poll()
        assert r.star == 2  # the full record advances the star mark
        assert r.db.run(f"{a}.balance").value == IntLit(125)

    def test_define_ships_and_stars(self, tmp_path):
        db = _open(tmp_path)
        r = Replica("r1", db, retry=_fast_retry())
        db.define("define adults() as { p | p <- Persons, p.age >= 18 };")
        r.poll()
        assert r.star == 1
        assert "adults" in r.db.definitions

    def test_out_of_order_record_is_a_gap(self, tmp_path):
        db = _open(tmp_path)
        r = Replica("r1", db, retry=_fast_retry())
        db.insert("Person", name="a", age=1)
        with pytest.raises(ShipGap, match="stream lost"):
            r._apply({"lsn": 3, "kind": "delta"})

    def test_replica_survives_primary_checkpoint(self, tmp_path):
        db = _open(tmp_path)
        db.insert("Person", name="a", age=1)
        r = Replica("r1", db, retry=_fast_retry())
        db.checkpoint()
        db.insert("Person", name="b", age=2)
        r.poll()  # gap -> resync from the fresh checkpoint -> caught up
        assert r.resyncs_total == 2  # constructor + the gap
        assert r.applied_lsn == db.wal.last_lsn
        assert state_digest(r.db) == state_digest(db)


# ---------------------------------------------------------------------------
# Freshness routing
# ---------------------------------------------------------------------------


class TestRouting:
    def test_fresh_read_routes_to_replica(self, tmp_path):
        db = _open(tmp_path)
        db.insert("Person", name="a", age=30)
        rset = db.replicate(2)
        res = db.run("{ p | p <- Persons, p.age >= 18 }")
        assert len(res.value.items) == 1
        assert db._qstats["routed_reads"] == 1
        assert rset.snapshot()["routed"] == 1

    def test_stale_replica_never_serves(self, tmp_path):
        db = _open(tmp_path)
        rset = db.replicate(1, auto_poll=False)
        db.insert("Person", name="late", age=9)
        # the replica has not shipped lsn 1; Person reads must degrade
        res = db.run("Persons")
        assert len(res.value.items) == 1  # the primary's (fresh) answer
        assert db._qstats["routed_reads"] == 0
        snap = rset.snapshot()
        assert snap["degraded"] == 1
        assert snap["degraded_reasons"] == {"no-fresh-replica": 1}

    def test_unrelated_class_still_routes(self, tmp_path):
        db = _open(tmp_path)
        db.insert("Team", tag="t")
        rset = db.replicate(1, auto_poll=False)
        db.insert("Person", name="late", age=9)
        # Teams is untouched since the replica's bootstrap: A(Person)
        # cannot make new state reachable from Teams, so this routes
        res = db.run("Teams")
        assert len(res.value.items) == 1
        assert db._qstats["routed_reads"] == 1
        assert rset.snapshot()["degraded"] == 0

    def test_update_commit_blocks_all_routing_until_shipped(self, tmp_path):
        db = _open(
            tmp_path, odl=ACCOUNT_ODL, method_mode=AccessMode.EFFECTFUL
        )
        db.run("new Account(balance: 100)")
        rset = db.replicate(1, auto_poll=False)
        (a,) = sorted(db.extent("Accounts"))
        db.run(MethodCall(OidRef(a), "deposit", (IntLit(25),)))
        db.run("Accounts")  # the U commit starred the primary: degrade
        assert db._qstats["routed_reads"] == 0
        rset.poll()
        db.run("Accounts")  # shipped: the replica is provably fresh
        assert db._qstats["routed_reads"] == 1

    def test_auto_poll_recovers_a_miss(self, tmp_path):
        db = _open(tmp_path)
        rset = db.replicate(1, auto_poll=True)
        db.insert("Person", name="late", age=9)
        res = db.run("Persons")  # miss -> poll -> covered -> routed
        assert len(res.value.items) == 1
        assert db._qstats["routed_reads"] == 1
        assert rset.snapshot()["degraded"] == 0

    def test_writes_never_route(self, tmp_path):
        db = _open(tmp_path)
        rset = db.replicate(1)
        db.run('new Person(name: "w", age: 1)')
        assert rset.snapshot()["routed"] == 0
        assert len(db.extent("Persons")) == 1

    def test_least_loaded_covering_replica_wins(self, tmp_path):
        db = _open(tmp_path)
        db.insert("Person", name="a", age=1)
        rset = db.replicate(3)
        for _ in range(6):
            db.run("Persons")
        served = sorted(r.served_total for r in rset)
        assert served == [2, 2, 2]  # round-robin via the load tie-break

    def test_oid_literal_read_waits_for_its_object(self, tmp_path):
        """A literal adds no R atom (§5), yet reaches its object: the
        read degrades until the replica has applied the object's
        record, then routes, and every answer is the primary's."""
        db = _open(tmp_path)
        db.insert("Person", name="a", age=1)
        rset = db.replicate(1, auto_poll=False)
        rset.poll()
        o = db.insert("Person", name="b", age=2)
        o2 = db.insert("Person", name="c", age=3)
        texts = [f"{o.name}.name", f"{o2.name}.name", "size(Persons)"]
        want = [
            db.run(t, engine="bigstep", commit=False).value for t in texts
        ]
        assert db.run(texts[0]).value == want[0]
        assert db.run_many(texts[1:]).values() == want[1:]
        assert rset.routed_total == 0  # behind: the primary answered
        rset.poll()
        assert db.run(texts[0]).value == want[0]
        assert rset.routed_total == 1

    def test_replicate_requires_wal(self, tmp_path):
        db = Database.from_odl(ODL)
        with pytest.raises(ReproError, match="write-ahead log"):
            db.replicate(1)

    def test_detach_replicas_is_idempotent(self, tmp_path):
        db = _open(tmp_path)
        db.replicate(1)
        db.detach_replicas()
        assert db.replicas is None
        db.detach_replicas()
        db.run("Persons")  # no routing, no error
        assert db._qstats["routed_reads"] == 0


# ---------------------------------------------------------------------------
# Fault-driven resync and quarantine
# ---------------------------------------------------------------------------


class TestResync:
    def test_transient_ship_fault_backs_off_and_resyncs(self, tmp_path):
        db = _open(tmp_path)
        db.insert("Person", name="a", age=1)
        sleeps: list[float] = []
        r = Replica(
            "r1",
            db,
            retry=RetryPolicy.seeded(
                0, base_delay=0.01, jitter=0.0, sleep=sleeps.append
            ),
        )
        plan = FaultPlan([FaultRule("replica.ship", at=1)])
        with inject(plan):
            db.insert("Person", name="b", age=2)
            assert r.poll() == 0  # injected fault: backoff + resync
        assert r.applied_lsn == 2  # the resync caught all the way up
        assert sleeps == [0.01]  # seeded exponential backoff, 1 failure
        assert r.ship_failures_total == 1
        assert state_digest(r.db) == state_digest(db)

    def test_repeated_faults_grow_the_backoff(self, tmp_path):
        db = _open(tmp_path)
        sleeps: list[float] = []
        r = Replica(
            "r1",
            db,
            retry=RetryPolicy.seeded(
                0, base_delay=0.01, jitter=0.0, sleep=sleeps.append
            ),
        )
        with inject(FaultPlan([FaultRule("replica.ship", every=1, times=3)])):
            for _ in range(3):
                r.poll()
        assert sleeps == [0.01, 0.02, 0.04]  # doubling, seeded, capped

    def test_apply_fault_resyncs_without_quarantine(self, tmp_path):
        db = _open(tmp_path)
        r = Replica("r1", db, retry=_fast_retry())
        db.insert("Person", name="a", age=1)
        with inject(FaultPlan([FaultRule("replica.apply", at=1)])):
            r.poll()
        assert r.state != QUARANTINED
        r.poll()
        assert r.applied_lsn == 1
        assert state_digest(r.db) == state_digest(db)

    def test_resync_does_not_touch_the_primary_log(self, tmp_path):
        db = _open(tmp_path)
        db.insert("Person", name="a", age=1)
        path = recovery.wal_path(db.wal_dir)
        with open(path, "ab") as fh:
            fh.write(b"\xff" * 5)  # torn tail a *recover* would truncate
        size = os.path.getsize(path)
        r = Replica("r1", db, retry=_fast_retry())
        assert os.path.getsize(path) == size  # bootstrap never repairs
        assert r.applied_lsn == 1


class TestQuarantine:
    def _diverge(self, tmp_path, audit_every=1):
        db = _open(tmp_path)
        db.insert("Person", name="a", age=1)
        rset = db.replicate(2, audit_every=audit_every, retry=_fast_retry())
        bad = rset.get("replica-1")
        # tamper with the replica's state behind the ship stream's back
        bad.db.insert("Person", name="phantom", age=99)
        return db, rset, bad

    def test_digest_audit_quarantines_divergence(self, tmp_path):
        db, rset, bad = self._diverge(tmp_path)
        assert rset.audit_all() is False
        assert bad.state == QUARANTINED
        assert "divergence" in bad.quarantine_reason
        good = rset.get("replica-2")
        assert good.state == SERVING

    def test_quarantine_writes_named_flight_dump(self, tmp_path):
        db, rset, bad = self._diverge(tmp_path)
        rset.audit_all()
        dump = os.path.join(db.wal_dir, "flight-replica-1.jsonl")
        assert os.path.exists(dump)
        text = open(dump, encoding="utf-8").read()
        assert "replica-quarantine" in text
        assert "replica-divergence" in text

    def test_quarantined_replica_never_serves_again(self, tmp_path):
        db, rset, bad = self._diverge(tmp_path)
        rset.audit_all()
        before = bad.served_total
        for _ in range(4):
            db.run("Persons")
        assert bad.served_total == before  # routed elsewhere
        assert db._qstats["routed_reads"] == 4  # replica-2 still covers
        assert bad.poll() == 0  # quarantine is terminal: no shipping

    def test_periodic_audit_fires_from_poll(self, tmp_path):
        db = _open(tmp_path)
        rset = db.replicate(1, audit_every=2, retry=_fast_retry())
        r = rset.get("replica-1")
        db.insert("Person", name="a", age=1)
        db.insert("Person", name="b", age=2)
        r.poll()  # 2 applied records >= audit_every: audits, agrees
        assert r.audits_total == 1
        assert r.state == SERVING

    def test_refused_record_quarantines(self, tmp_path):
        db = _open(tmp_path)
        rset = db.replicate(1, retry=_fast_retry())
        r = rset.get("replica-1")
        db.insert("Person", name="a", age=1)
        # a CRC-intact record that is semantically impossible (unknown
        # class) — the ship stream is fine, the *content* is poison, so
        # the replica must refuse loudly rather than resync forever
        good = wal.read_records(recovery.wal_path(db.wal_dir))[-1]
        bad = dict(good)
        bad["objects"] = {
            oid: {"class": "NoSuchClass", "attrs": {}}
            for oid in good["objects"]
        }
        db.wal.append(dict(bad, lsn=None))  # reserialise with a real lsn
        assert r.poll() == 1  # the poisoned record quarantines on apply
        assert r.state == QUARANTINED
        assert "refused to apply" in r.quarantine_reason


# ---------------------------------------------------------------------------
# Lag states
# ---------------------------------------------------------------------------


class TestLag:
    def test_lagging_state_and_recovery(self, tmp_path):
        db = _open(tmp_path)
        rset = db.replicate(1, lag_threshold=2, auto_poll=False)
        r = rset.get("replica-1")
        for i in range(4):
            db.insert("Person", name=f"p{i}", age=i)
        assert r.lag() == 4
        r._update_state()
        assert r.state == LAGGING
        r.poll()
        assert r.state == SERVING and r.lag() == 0

    def test_lagging_replica_still_serves_covered_reads(self, tmp_path):
        db = _open(tmp_path)
        db.insert("Team", tag="t")
        rset = db.replicate(1, lag_threshold=0, auto_poll=False)
        r = rset.get("replica-1")
        for i in range(3):
            db.insert("Person", name=f"p{i}", age=i)
        r._update_state()
        assert r.state == LAGGING
        db.run("Teams")  # stale-but-covered is still correct
        assert db._qstats["routed_reads"] == 1


# ---------------------------------------------------------------------------
# Failover
# ---------------------------------------------------------------------------


class TestFailover:
    def test_promote_fences_old_primary(self, tmp_path):
        db = _open(tmp_path)
        db.insert("Person", name="a", age=1)
        rset = db.replicate(2)
        newdb = promote(rset.get("replica-1"))
        assert db._fenced
        for stmt in (lambda: db.insert("Person", name="x", age=1),
                     lambda: db.run("Persons"),
                     lambda: db.checkpoint(),
                     lambda: db.replicate(1)):
            with pytest.raises(ReproError, match="fenced"):
                stmt()
        batch = db.run_many(["Persons", 'new Person(name: "y", age: 2)'])
        assert all(
            isinstance(out.error, ReproError) and "fenced" in str(out.error)
            for out in batch
        )
        assert newdb.wal is not None
        assert len(newdb.extent("Persons")) == 1

    def test_promote_replays_the_unshipped_tail(self, tmp_path):
        db = _open(tmp_path)
        rset = db.replicate(1, auto_poll=False)
        r = rset.get("replica-1")
        for i in range(3):
            db.insert("Person", name=f"p{i}", age=i)
        assert r.applied_lsn == 0  # nothing shipped yet
        newdb = promote(r)
        assert len(newdb.extent("Persons")) == 3  # tail replayed

    def test_promoted_oids_never_collide(self, tmp_path):
        db = _open(tmp_path)
        db.insert("Person", name="a", age=1)
        rset = db.replicate(1)
        old_oids = set(db.extent("Persons"))
        newdb = promote(rset.get("replica-1"))
        new_oid = newdb.insert("Person", name="b", age=2)
        assert new_oid not in old_oids  # supply resumed past the HWM

    def test_promote_rehomes_survivors(self, tmp_path):
        db = _open(tmp_path)
        db.insert("Person", name="a", age=1)
        rset = db.replicate(3)
        newdb = promote(rset.get("replica-2"))
        assert newdb.replicas is not None
        names = sorted(r.name for r in newdb.replicas)
        assert names == ["replica-1", "replica-3"]
        newdb.insert("Person", name="b", age=2)
        newdb.replicas.poll()
        for r in newdb.replicas:
            assert state_digest(r.db) == state_digest(newdb)
        newdb.run("Persons")
        assert newdb._qstats["routed_reads"] == 1

    def test_promote_excludes_quarantined_survivors(self, tmp_path):
        db = _open(tmp_path)
        db.insert("Person", name="a", age=1)
        rset = db.replicate(2, audit_every=1, retry=_fast_retry())
        bad = rset.get("replica-2")
        bad.db.insert("Person", name="phantom", age=9)
        rset.audit_all()
        assert bad.state == QUARANTINED
        newdb = promote(rset.get("replica-1"))
        assert newdb.replicas is None  # the only survivor was quarantined

    def test_cannot_promote_quarantined_replica(self, tmp_path):
        db = _open(tmp_path)
        db.insert("Person", name="a", age=1)
        rset = db.replicate(1, audit_every=1, retry=_fast_retry())
        bad = rset.get("replica-1")
        bad.db.insert("Person", name="phantom", age=9)
        rset.audit_all()
        assert bad.state == QUARANTINED
        with pytest.raises(ReproError, match="quarantined"):
            promote(bad)

    def test_promote_fault_site_fires(self, tmp_path):
        db = _open(tmp_path)
        rset = db.replicate(1)
        from repro.errors import TransientFault

        with inject(FaultPlan([FaultRule("failover.promote", at=1)])):
            with pytest.raises(TransientFault):
                promote(rset.get("replica-1"))
        assert not db._fenced  # the fault fired before any fencing
        db.insert("Person", name="a", age=1)  # the primary still writes


# ---------------------------------------------------------------------------
# Satellite (a): close / detach ordering
# ---------------------------------------------------------------------------


class TestCloseDetachIdempotence:
    def test_close_twice_is_safe(self, tmp_path):
        db = _open(tmp_path)
        db.insert("Person", name="a", age=1)
        db.close()
        db.close()
        assert db.wal is None

    def test_close_then_detach_then_close(self, tmp_path):
        db = _open(tmp_path)
        db.replicate(1)
        db.close()
        db.detach_replicas()
        db.close()
        assert db.wal is None and db.replicas is None

    def test_detach_then_close_any_order(self, tmp_path):
        db = _open(tmp_path)
        db.replicate(2)
        db.detach_replicas()
        db.close()
        db.detach_replicas()
        assert db.wal is None

    def test_fault_detach_then_close_counts_once(self, tmp_path):
        from repro import obs

        db = _open(tmp_path)
        db.insert("Person", name="a", age=1)
        obs.enable()
        try:
            from repro.obs.metrics import REGISTRY

            from repro.errors import TransientFault

            before = REGISTRY.counter("wal_detached_total").value
            with inject(FaultPlan([FaultRule("wal.append", at=1)])):
                snap = db.snapshot()
                with pytest.raises(TransientFault):
                    db.restore(snap)  # unattributed log fails -> detach
            assert db.wal is None
            db.close()  # second close after the fault-driven detach
            db.close()
            assert REGISTRY.counter("wal_detached_total").value == before + 1
        finally:
            obs.disable()


# ---------------------------------------------------------------------------
# Satellite (b): fault-plan site validation
# ---------------------------------------------------------------------------


class TestFaultPlanValidation:
    def test_all_sixteen_sites_known(self):
        assert len(SITES) == 16
        for site in (
            "replica.ship",
            "replica.apply",
            "failover.promote",
            "shard.install",
            "exec.shard",
            "exec.traverse",
        ):
            assert site in SITES

    def test_rule_rejects_unknown_site(self):
        with pytest.raises(ReproError, match="unknown fault site"):
            FaultRule("replica.shp")

    def test_plan_rejects_duck_typed_rule(self):
        fake = types.SimpleNamespace(site="nope", kind="transient")
        with pytest.raises(ReproError, match="FaultRule instances"):
            FaultPlan([fake])
        with pytest.raises(ReproError, match="FaultRule instances"):
            FaultPlan().add(fake)

    def test_plan_rejects_mutated_rule(self):
        rule = FaultRule("commit")
        object.__setattr__(rule, "site", "not.a.site")
        with pytest.raises(ReproError, match="unknown fault site"):
            FaultPlan([rule])
        rule2 = FaultRule("commit")
        object.__setattr__(rule2, "kind", "explosive")
        with pytest.raises(ReproError, match="unknown fault kind"):
            FaultPlan().add(rule2)

    def test_valid_rules_for_new_sites_construct(self):
        plan = FaultPlan(
            [
                FaultRule("replica.ship", every=2),
                FaultRule("replica.apply", at=1),
                FaultRule("failover.promote", times=1),
            ]
        )
        assert len(plan.rules) == 3


# ---------------------------------------------------------------------------
# Scheduler integration: pinned reads leave the conflict graph
# ---------------------------------------------------------------------------


class TestPinnedBatchReads:
    def test_pinned_reads_drop_their_edges(self, tmp_path):
        db = _open(tmp_path)
        for i in range(3):
            db.insert("Person", name=f"p{i}", age=20 + i)
        db.replicate(2)
        res = db.run_many(
            [
                "{ p.name | p <- Persons }",
                "{ p | p <- Persons, p.age >= 21 }",
                'new Person(name: "w", age: 50)',
            ],
            workers=2,
        )
        assert all(o.ok for o in res)
        stats = db._last_batch
        assert stats["pinned_reads"] == 2
        # without pinning the writer would conflict with both reads
        assert stats["conflict_edges"] == 0

    def test_pinned_batch_equals_sequential(self, tmp_path):
        batch = [
            "{ p.name | p <- Persons }",
            'new Person(name: "w1", age: 50)',
            "{ t | t <- Teams }",  # Teams untouched: still pinnable
            "{ p.age | p <- Persons }",  # Person was added to: not pinnable
            'new Person(name: "w2", age: 51)',
        ]
        db = _open(tmp_path)
        for i in range(3):
            db.insert("Person", name=f"p{i}", age=20 + i)
        db.replicate(2)
        got = [o.value for o in db.run_many(batch, workers=4)]

        ref = _open(tmp_path, "ref")
        for i in range(3):
            ref.insert("Person", name=f"p{i}", age=20 + i)
        want = [ref.run(q).value for q in batch]
        assert got == want
        assert db._last_batch["pinned_reads"] == 2

    def test_no_replicas_means_no_pinning(self, tmp_path):
        db = _open(tmp_path)
        db.insert("Person", name="a", age=1)
        res = db.run_many(["Persons", 'new Person(name: "b", age: 2)'])
        assert all(o.ok for o in res)
        assert db._last_batch["pinned_reads"] == 0
        assert db._last_batch["conflict_edges"] == 1


# ---------------------------------------------------------------------------
# Pinned reads run at the store triple captured at admission
# ---------------------------------------------------------------------------

#: A shard-key point read: an index probe pruned to one shard's partial.
POINT = "{ p.name | p <- Persons, p.age = 21 }"


def _sharded_estate(tmp_path):
    """A primary with Persons sharded by age (ages 20..25, two persons
    aged 21) and one replica that applies records only when polled."""
    db = _open(tmp_path)
    db.shard("Person", k=4, by="age")
    for i in range(12):
        db.insert("Person", name=f"p{i}", age=20 + i % 6)
    db.checkpoint()  # shard specs travel in checkpoints
    rset = db.replicate(1, auto_poll=False)
    return db, rset, rset.replicas[0]


class TestPinnedReadsAtCapturedStore:
    def test_pin_answers_pre_batch_state_and_keeps_newer_entries(
        self, tmp_path
    ):
        db, rset, rep = _sharded_estate(tmp_path)
        q, eff = db._derive(POINT)
        pin = rset.pin(eff, q)
        db.insert("Person", name="late", age=21)
        assert rep.poll() == 1
        # a routed read at the replica's new version builds the newer
        # partition and partial
        assert rset.try_serve(q, eff).python() == {"p1", "p7", "late"}
        version = rep.db._state_version
        parts = rep.db._shards._parts["Persons"]
        partials = dict(rep.db._indexes._indexes)
        assert parts[0] == version
        assert [v for v, _ in partials.values()] == [version]
        got = rset.serve_pinned(pin, q, eff)
        assert got.python() == {"p1", "p7"}
        assert rep.db._shards._parts["Persons"] is parts
        assert rep.db._indexes._indexes == partials
        assert all(
            rep.db._indexes._indexes[k] is entry
            for k, entry in partials.items()
        )

    def test_resync_between_pin_and_serve_reads_pinned_database(
        self, tmp_path
    ):
        db, rset, rep = _sharded_estate(tmp_path)
        q, eff = db._derive(POINT)
        pin = rset.pin(eff, q)
        pinned_db = rep.db
        db.insert("Person", name="late", age=21)
        rep.resync()
        assert rep.db is not pinned_db
        assert rset.serve_pinned(pin, q, eff).python() == {"p1", "p7"}
        # the read ran on the database it pinned: the resynced one has
        # built nothing
        assert pinned_db._indexes._indexes
        assert not rep.db._indexes._indexes
        assert not rep.db._shards._parts

    def test_pinned_point_read_builds_only_its_shard_partial(
        self, tmp_path, monkeypatch
    ):
        db, rset, rep = _sharded_estate(tmp_path)
        built = []
        build = runtime.build_attr_index

        def counting_build(oe, members, attr):
            built.append(len(members))
            return build(oe, members, attr)

        monkeypatch.setattr(runtime, "build_attr_index", counting_build)
        res = db.run_many([POINT, 'new Person(name: "w", age: 30)'])
        assert res.values()[0] == db.run(POINT, engine="bigstep").value
        assert db._last_batch["pinned_reads"] == 1
        shard = shard_of(IntLit(21), 4)
        assert set(rep.db._indexes._indexes) == {("Persons", "age", shard)}
        assert built == [len(rep.db._shards._parts["Persons"][1][shard])]
        assert built[0] < 12

    def test_reads_racing_applies_answer_at_their_triple(self, tmp_path):
        # readers capture triples while the replica applies records; a
        # read must answer at its own version, and no table may end up
        # holding an entry built from another version's extents
        from tests.test_derived_rebuild import (
            check_attr_indexes,
            check_results,
            check_shard_parts,
        )

        db, rset, rep = _sharded_estate(tmp_path)
        texts = [POINT, "{ p.name | p <- Persons, p.age > 22 }"]
        derived = [db._derive(t) for t in texts]
        wrong, done = [], threading.Event()

        def reader(k):
            while not done.is_set():
                q, eff = derived[k % 2]
                k += 1
                rdb, at = rep.snapshot_envs()
                got = rep.serve_snapshot(q, eff, rdb, at).value
                want = evaluate_bigstep(rdb.machine, at[1], at[2], q).value
                if got != want:
                    wrong.append((at[0], pretty(q)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            readers = [
                threading.Thread(target=reader, args=(k,)) for k in range(4)
            ]
            for t in readers:
                t.start()
            for i in range(30):
                db.insert("Person", name=f"n{i}", age=20 + i % 6)
                rep.poll()
        finally:
            done.set()
            for t in readers:
                t.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in readers)
        assert wrong == []
        assert rep.applied_lsn == db.wal.last_lsn
        counts = dict.fromkeys(("results", "plans", "attr_partials",
                                "attr_indexes", "shard_parts"), 0)
        for check in (check_results, check_attr_indexes, check_shard_parts):
            check(rep.db, counts)
        assert counts["shard_parts"] and counts["attr_partials"]


# ---------------------------------------------------------------------------
# Health surface
# ---------------------------------------------------------------------------


class TestReplicationHealth:
    def test_health_reports_replication(self, tmp_path):
        db = _open(tmp_path)
        db.insert("Person", name="a", age=1)
        db.replicate(2)
        db.run("Persons")
        snap = db.health()
        rep = snap["replication"]
        assert rep["count"] == 2 and rep["routed"] == 1
        states = {r["state"] for r in rep["replicas"]}
        assert states == {SERVING}
        from repro.db.health import render

        board = render(snap)
        assert "replication" in board and "routed=1" in board

    def test_health_without_replicas(self, tmp_path):
        db = _open(tmp_path)
        assert db.health()["replication"] is None
