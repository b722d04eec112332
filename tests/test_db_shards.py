"""The sharding layer: hashing, partitions, per-shard installs, WAL.

Covers ``repro.db.shards`` directly (stable crc32 assignment, partition
caching and identity reuse, spec validation), the ``Database.shard``
surface, the ``shard.install`` fault site's whole-commit atomicity,
the additive ``delta`` WAL record's ``shards`` stanza (replay, crash
points, checkpoint round-trip, legacy record kinds) and the primary's
per-shard write marks.
"""

import shutil
import zlib

import pytest

from repro.db import recovery
from repro.db.database import Database
from repro.db.persistence import PersistenceError, dump_database, load_database
from repro.db.shards import (
    ShardedExtents,
    commit_deltas,
    oid_shard,
    shard_key,
    shard_of,
    static_read_shards,
    static_write_shards,
    validate_spec,
)
from repro.db.wal import WriteAheadLog, read_records, truncate_to
from repro.errors import ReproError
from repro.lang.ast import BoolLit, IntLit, OidRef, StrLit
from repro.replication.replica import Replica, state_digest
from repro.resilience.faults import FaultPlan, FaultRule, inject

ODL = """
class Person extends Object (extent Persons) {
    attribute string name;
    attribute string region;
    attribute int age;
}
class Note extends Object (extent Notes) {
    attribute string body;
}
"""


def make_db(k: int = 4, by: str | None = "region") -> Database:
    db = Database.from_odl(ODL)
    db.shard("Person", k=k, by=by)
    return db


def seed(db: Database, n: int = 24, regions: int = 6) -> None:
    for i in range(n):
        db.insert(
            "Person", name=f"p{i}", region=f"r{i % regions}", age=i
        )


# ---------------------------------------------------------------------------
# hashing: stable, process-independent, typed fast paths
# ---------------------------------------------------------------------------


class TestShardAssignment:
    def test_shard_key_fast_paths(self):
        assert shard_key(IntLit(7)) == "i:7"
        assert shard_key(BoolLit(True)) == "b:True"
        assert shard_key(StrLit("r3")) == "s:r3"
        assert shard_key(OidRef("o12")) == "o:o12"

    def test_shard_of_is_crc32_not_builtin_hash(self):
        # the exact figure a replica in another process must compute
        for lit, key in ((StrLit("r3"), "s:r3"), (IntLit(41), "i:41")):
            expected = zlib.crc32(key.encode("utf-8")) % 8
            assert shard_of(lit, 8) == expected

    def test_oid_shard_matches_crc32(self):
        assert oid_shard("o7", 5) == zlib.crc32(b"o7") % 5

    def test_distinct_string_and_int_keys_do_not_collide_by_type(self):
        # "7" and 7 key different prefixes, so they may land anywhere,
        # but their canonical keys must differ
        assert shard_key(StrLit("7")) != shard_key(IntLit(7))


# ---------------------------------------------------------------------------
# spec validation and declaration
# ---------------------------------------------------------------------------


class TestValidateSpec:
    def test_ok_resolves_extent(self):
        db = Database.from_odl(ODL)
        spec = validate_spec(db.schema, "Person", "region", 8)
        assert (spec.extent, spec.k, spec.by) == ("Persons", 8, "region")

    def test_rejects_bad_k(self):
        db = Database.from_odl(ODL)
        with pytest.raises(ReproError, match="shard count"):
            validate_spec(db.schema, "Person", None, 0)

    def test_rejects_unknown_class(self):
        db = Database.from_odl(ODL)
        with pytest.raises(ReproError, match="no extent"):
            validate_spec(db.schema, "Ghost", None, 4)

    def test_rejects_unknown_attribute(self):
        db = Database.from_odl(ODL)
        with pytest.raises(ReproError, match="no attribute"):
            validate_spec(db.schema, "Person", "color", 4)

    def test_database_shard_returns_spec_and_enables(self):
        db = Database.from_odl(ODL)
        assert not db._shards.enabled
        spec = db.shard("Person", k=4, by="region")
        assert db._shards.enabled
        assert db._shards.spec("Persons") is spec


# ---------------------------------------------------------------------------
# partitions: correctness, caching, identity reuse on A-only installs
# ---------------------------------------------------------------------------


class TestPartitions:
    def test_partition_is_a_partition(self):
        db = make_db(k=4)
        seed(db)
        parts = db._shards.partition(
            "Persons", db.ee, db.oe, db._state_version
        )
        members = db.ee.members("Persons")
        union = frozenset().union(*parts)
        assert union == members
        assert sum(len(p) for p in parts) == len(members)

    def test_partition_respects_declared_attribute(self):
        db = make_db(k=4)
        seed(db)
        parts = db._shards.partition(
            "Persons", db.ee, db.oe, db._state_version
        )
        for i, part in enumerate(parts):
            for oid in part:
                region = db.oe.get(oid).attr("region")
                assert shard_of(region, 4) == i

    def test_unsharded_extent_partitions_to_none(self):
        db = make_db()
        assert (
            db._shards.partition("Notes", db.ee, db.oe, db._state_version)
            is None
        )

    def test_same_version_returns_cached_tuple(self):
        db = make_db()
        seed(db)
        v = db._state_version
        first = db._shards.partition("Persons", db.ee, db.oe, v)
        again = db._shards.partition("Persons", db.ee, db.oe, v)
        assert again is first

    def test_insert_keeps_untouched_shard_identity(self):
        db = make_db(k=4)
        seed(db)
        before = db._shards.partition(
            "Persons", db.ee, db.oe, db._state_version
        )
        db.insert("Person", name="x", region="r0", age=1)
        after = db._shards.partition(
            "Persons", db.ee, db.oe, db._state_version
        )
        touched = shard_of(StrLit("r0"), 4)
        for i in range(4):
            if i == touched:
                assert after[i] is not before[i]
                assert len(after[i]) == len(before[i]) + 1
            else:
                assert after[i] is before[i]

    def test_unsharded_insert_rebuilds_no_partition_or_partial(
        self, monkeypatch
    ):
        db = make_db(k=4)
        seed(db)
        join = (
            "{{ struct(a: {v}.name, b: q.name) | {v} <- Persons, "
            '{v}.region = "r2", q <- Persons, q.ATTR = {v}.ATTR }}'
        )
        texts = [
            '{{ {v}.name | {v} <- Persons, {v}.region = "r1" }}',
            # a region self-join probes one shard's partial per key; an
            # age self-join reads the whole index, the merge of every
            # partial
            join.replace("ATTR", "region"),
            join.replace("ATTR", "age"),
        ]
        for src in texts:
            db.run(src.format(v="p"))
        rebuilds = db._shards.rebuilds
        import repro.exec.runtime as runtime

        built = []
        build = runtime.build_attr_index

        def counted(oe, members, attr):
            built.append(attr)
            return build(oe, members, attr)

        monkeypatch.setattr(runtime, "build_attr_index", counted)
        db.insert("Note", body="elsewhere")
        for src in texts:  # new texts: no cached result answers them
            db.run(src.format(v="x"))
        assert db._shards.rebuilds == rebuilds
        assert built == []

    def test_redeclared_layout_answers_match_bigstep(self):
        db = make_db(k=4)
        seed(db)
        joins = [
            "{ struct(a: p.name, b: q.name) | p <- Persons, "
            f'p.region = "r{i}", q <- Persons, q.region = p.region }}'
            for i in range(6)
        ]
        probes = [
            f'{{ p.name | p <- Persons, p.region = "r{i}" }}'
            for i in range(6)
        ]
        for src in joins + probes:
            db.run(src)
        version = db._state_version
        # k=2 reuses shard ids 0 and 1 at the same store version
        db.shard("Person", k=2, by="region")
        assert db._state_version == version
        for src in joins + probes:
            want = db.run(src, engine="bigstep", commit=False).value
            assert db.run(src).value == want, src

    def test_commit_deltas_buckets_added_oids(self):
        db = make_db(k=4)
        seed(db, n=8)
        base_ee = db.ee
        db.insert("Person", name="d1", region="r1", age=9)
        db.insert("Person", name="d2", region="r2", age=9)
        extent_adds, shard_adds = commit_deltas(
            db._shards, db.schema, base_ee, db.ee, db.oe, {"Person"}
        )
        assert len(extent_adds["Persons"]) == 2
        got = set()
        for s, oids in shard_adds["Persons"].items():
            got |= oids
            for oid in oids:
                assert (
                    shard_of(db.oe.get(oid).attr("region"), 4) == s
                )
        assert got == set(extent_adds["Persons"])


# ---------------------------------------------------------------------------
# static shard analysis
# ---------------------------------------------------------------------------


class TestStaticAnalysis:
    def test_confined_read(self):
        db = make_db(k=4)
        q = db.parse('{ p.name | p <- Persons, p.region = "r2" }')
        got = static_read_shards(db._shards, db.schema, q)
        assert got == {"Person": frozenset({shard_of(StrLit("r2"), 4)})}

    def test_unconfined_read_reports_all_shards(self):
        db = make_db(k=4)
        q = db.parse("{ p.name | p <- Persons, p.age > 3 }")
        got = static_read_shards(db._shards, db.schema, q)
        assert got == {}  # Person absent: treat as all shards

    def test_confined_write(self):
        db = make_db(k=4)
        q = db.parse('new Person(name: "n", region: "r1", age: 2)')
        got = static_write_shards(db._shards, db.schema, q)
        assert got == {"Person": frozenset({shard_of(StrLit("r1"), 4)})}

    def test_dynamic_key_write_poisons_class(self):
        db = make_db(k=4)
        q = db.parse(
            '{ new Person(name: "n", region: p.region, age: 2) '
            "| p <- Persons }"
        )
        got = static_write_shards(db._shards, db.schema, q)
        assert got == {}

    def test_oid_sharding_gives_no_read_refinement(self):
        db = make_db(k=4, by=None)
        q = db.parse('{ p.name | p <- Persons, p.region = "r2" }')
        got = static_read_shards(db._shards, db.schema, q)
        assert got == {}


# ---------------------------------------------------------------------------
# the shard.install fault site: whole-commit atomicity
# ---------------------------------------------------------------------------


class TestShardInstallAtomicity:
    def test_fault_in_one_shard_install_rolls_back_everything(
        self, tmp_path
    ):
        db = make_db(k=4)
        seed(db)
        db.attach_wal(str(tmp_path / "wal"))
        pre_digest = state_digest(db)
        pre_lsn = db._wal.last_lsn
        plan = FaultPlan(
            (FaultRule(site="shard.install", at=1, kind="transient"),)
        )
        with inject(plan):
            with pytest.raises(Exception):
                db.run('new Person(name: "boom", region: "r0", age: 1)')
        # nothing visible, nothing durable: the commit is all-or-nothing
        assert state_digest(db) == pre_digest
        assert db._wal.last_lsn == pre_lsn
        # and the database is not wedged
        res = db.run('new Person(name: "ok", region: "r0", age: 1)')
        assert res is not None
        assert state_digest(db) != pre_digest
        db.close()

    def test_fault_on_second_shard_still_aborts_whole_commit(self):
        db = make_db(k=4)
        seed(db)
        pre = db.ee
        # a two-shard writer: both news must vanish together
        plan = FaultPlan(
            (FaultRule(site="shard.install", at=2, kind="transient"),)
        )
        src = (
            '{ new Person(name: "a", region: "r0", age: 1) | '
            "x <- Persons, x.age = 0 }"
        )
        db.run(src)  # sanity: the writer shape commits when unfaulted
        with inject(plan):
            with pytest.raises(Exception):
                db.run(
                    '{ struct(a: new Person(name: "a", region: "r0", age: 1),'
                    ' b: new Person(name: "b", region: "r1", age: 1)) '
                    "| x <- Persons, x.age = 0 }"
                )
        # r0 and r1 hash to different shards for k=4; neither add landed
        assert len(db.ee.members("Persons")) == len(pre.members("Persons")) + 1


# ---------------------------------------------------------------------------
# sharded delta WAL records: shape, replay, crash points, checkpoints
# ---------------------------------------------------------------------------


class TestShardDeltaWal:
    def test_insert_logs_shard_delta_record(self, tmp_path):
        db = make_db(k=4)
        db.attach_wal(str(tmp_path / "wal"))
        db.insert("Person", name="a", region="r2", age=3)
        rec = read_records(recovery.wal_path(str(tmp_path / "wal")))[-1]
        assert rec["kind"] == "delta"
        assert list(rec["adds"]) == ["Persons"]
        per_shard = rec["shards"]["Persons"]
        assert set(per_shard) == {str(shard_of(StrLit("r2"), 4))}
        (added,) = per_shard.values()
        assert added == rec["adds"]["Persons"]
        db.close()

    def test_unsharded_class_omitted_from_shards_stanza(self, tmp_path):
        db = make_db(k=4)
        db.attach_wal(str(tmp_path / "wal"))
        db.insert("Note", body="hello")
        rec = read_records(recovery.wal_path(str(tmp_path / "wal")))[-1]
        # the delta carries the adds, but no shard ids for Notes —
        # replicas fall back to the class-level watermark
        assert "Notes" in rec["adds"]
        assert "Notes" not in rec.get("shards", {})
        db.close()

    def test_recovery_replays_shard_deltas(self, tmp_path):
        wal_dir = str(tmp_path / "wal")
        db = make_db(k=4)
        db.attach_wal(wal_dir)
        db.checkpoint()
        seed(db, n=10)
        want = state_digest(db)
        db.close()
        got = recovery.recover(wal_dir, attach=False).db
        assert state_digest(got) == want
        # the spec itself rode the checkpoint
        assert got._shards.spec("Persons") is not None

    def test_crash_at_every_record_boundary_recovers_a_prefix(
        self, tmp_path
    ):
        wal_dir = str(tmp_path / "wal")
        db = make_db(k=4)
        db.attach_wal(wal_dir)
        db.checkpoint()
        base = len(db.ee.members("Persons"))
        sizes = [db._wal.size()]
        for i in range(6):
            db.insert("Person", name=f"c{i}", region=f"r{i % 3}", age=i)
            sizes.append(db._wal.size())
        db.close()
        for j, cut in enumerate(sizes):
            crash = tmp_path / f"crash{j}"
            crash.mkdir()
            shutil.copy(
                recovery.checkpoint_path(wal_dir),
                recovery.checkpoint_path(str(crash)),
            )
            shutil.copy(
                recovery.wal_path(wal_dir), recovery.wal_path(str(crash))
            )
            truncate_to(recovery.wal_path(str(crash)), cut)
            got = recovery.recover(str(crash), attach=False).db
            assert len(got.ee.members("Persons")) == base + j

    def test_checkpoint_round_trips_the_sharding_stanza(self):
        db = make_db(k=4)
        seed(db, n=6)
        doc = dump_database(db, ODL)
        assert doc["sharding"] == [
            {"class": "Person", "by": "region", "k": 4}
        ]
        back = load_database(doc)
        spec = back._shards.spec("Persons")
        assert (spec.k, spec.by) == (4, "region")
        assert state_digest(back) == state_digest(db)

    def test_bad_sharding_stanza_raises_persistence_error(self):
        db = make_db(k=4)
        doc = dump_database(db, ODL)
        doc["sharding"] = [{"class": "Person", "by": "ghost", "k": 4}]
        with pytest.raises(PersistenceError, match="sharding stanza"):
            load_database(doc)


# ---------------------------------------------------------------------------
# per-shard write marks on the primary
# ---------------------------------------------------------------------------


class TestWriteMarks:
    def test_sharded_insert_marks_the_exact_shard(self, tmp_path):
        db = make_db(k=4)
        db.attach_wal(str(tmp_path / "wal"))
        db.insert("Person", name="a", region="r2", age=3)
        marks = db.write_marks()
        s = shard_of(StrLit("r2"), 4)
        assert marks[f"Person#{s}"] == db._wal.last_lsn
        assert "Person" not in marks  # refined, not duplicated
        db.close()

    def test_unsharded_insert_marks_the_class(self, tmp_path):
        db = make_db(k=4)
        db.attach_wal(str(tmp_path / "wal"))
        db.insert("Note", body="x")
        assert db.write_marks()["Note"] == db._wal.last_lsn
        db.close()


class TestLegacyLog:
    """Logs written before the additive ``delta`` still recover and ship."""

    def test_mixed_legacy_log_matches_the_primary(self, tmp_path):
        primary_dir = str(tmp_path / "primary")
        legacy_dir = tmp_path / "legacy"
        legacy_dir.mkdir()
        db = make_db(k=4)
        db.attach_wal(primary_dir)  # the checkpoint carries the layout
        shutil.copy(
            recovery.checkpoint_path(primary_dir),
            recovery.checkpoint_path(str(legacy_dir)),
        )
        # tails the legacy log from its first record, like a live replica
        replica = Replica("legacy", directory=str(legacy_dir))
        db.insert("Person", name="a", region="r1", age=1)
        db.insert("Note", body="x")
        db.run('new Person(name: "b", region: "r2", age: 2)')
        db.define("define adults() as { p | p <- Persons, p.age > 1 };")
        db.insert("Note", body="y")
        db.run('{ new Note(body: p.name) | p <- Persons, p.age > 1 }')
        db.insert("Person", name="c", region="r1", age=3)

        # rewrite the primary's records in every format a log may hold:
        # Note-only deltas as wholesale-membership deltas, the first two
        # sharded deltas as shard-delta records, the rest unchanged
        legacy, notes, sharded = [], set(), 0
        for rec in read_records(recovery.wal_path(primary_dir)):
            rec = {k: v for k, v in rec.items() if k != "lsn"}
            if rec["kind"] == "delta":
                notes |= set(rec["adds"].get("Notes", ()))
                if list(rec["adds"]) == ["Notes"]:
                    adds = rec.pop("adds")
                    rec["extents"] = {"Notes": sorted(notes)}
                    assert "shards" not in rec and adds
                elif "shards" in rec and sharded < 2:
                    rec["kind"] = "shard-delta"
                    sharded += 1
            legacy.append(rec)
        kinds = [
            "wholesale" if "extents" in r else r["kind"] for r in legacy
        ]
        assert {"wholesale", "shard-delta", "delta", "define"} <= set(kinds)
        log = WriteAheadLog(recovery.wal_path(str(legacy_dir)), sync=False)
        for rec in legacy:
            log.append(rec)
        log.close()

        want = state_digest(db)
        assert replica.poll() == len(legacy)
        assert state_digest(replica.db) == want
        assert {**replica.marks, "*": replica.star} == db.write_marks()
        recovered = recovery.recover(str(legacy_dir), attach=False).db
        assert state_digest(recovered) == want
        db.close()


class TestSnapshot:
    def test_snapshot_reports_layout_and_counters(self):
        db = make_db(k=4)
        seed(db, n=12)
        db.run('{ p.name | p <- Persons, p.region = "r1" }')
        snap = db._shards.snapshot(db.ee)
        entry = snap["extents"]["Persons"]
        assert entry["k"] == 4 and entry["by"] == "region"
        assert entry["rows"] == 12
        if entry["shard_sizes"] is not None:
            assert sum(entry["shard_sizes"]) == 12
        assert snap["installs"] >= 0 and snap["epoch"] >= 1

    def test_registry_starts_disabled(self):
        assert not ShardedExtents().enabled
