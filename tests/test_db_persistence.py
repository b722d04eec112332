"""Tests for database save/load (repro.db.persistence)."""

import json
import re

import pytest

from repro.db.database import Database
from repro.db.persistence import (
    PersistenceError,
    dump_database,
    load,
    load_database,
    save,
    value_from_json,
    value_to_json,
)
from repro.db.recovery import apply_record, full_record, wal_path
from repro.db.store import ExtentEnv, ObjectEnv
from repro.db.wal import WalError, read_records
from repro.lang.ast import IntLit, OidRef, RecordLit, SetLit, StrLit
from repro.lang.values import make_bag_value, make_set_value

ODL = """
class Person extends Object (extent Persons) {
    attribute string name;
    attribute int age;
    attribute Person buddy;
    int twice() { return this.age + this.age; }
}
"""


@pytest.fixture
def db():
    from repro.db.store import ObjectRecord

    d = Database.from_odl(ODL)
    # bootstrap a *self-referential* object at store level (insert()
    # type-checks against live oids, so a cycle needs the low road) —
    # this also exercises cyclic object graphs through persistence
    oid = d.supply.fresh("Person", d.oe)
    rec = ObjectRecord(
        "Person",
        (("name", StrLit("Ada")), ("age", IntLit(36)), ("buddy", OidRef(oid))),
    )
    d.oe = d.oe.with_object(oid, rec)
    d.ee = d.ee.with_member("Persons", oid)
    d.insert("Person", name="Bob", age=17, buddy=OidRef(oid))
    d.define("define adults() as { p | p <- Persons, p.age >= 18 };")
    return d


class TestValueCodec:
    @pytest.mark.parametrize(
        "v",
        [
            IntLit(7),
            StrLit("héllo"),
            OidRef("@P_0"),
            make_set_value([IntLit(2), IntLit(1)]),
            make_bag_value([IntLit(1), IntLit(1)]),
            RecordLit((("a", IntLit(1)), ("b", SetLit(())))),
        ],
    )
    def test_roundtrip(self, v):
        assert value_from_json(value_to_json(v)) == v

    def test_roundtrip_is_json_safe(self):
        v = make_set_value([StrLit("x"), IntLit(1)])
        doc = json.loads(json.dumps(value_to_json(v)))
        assert value_from_json(doc) == v

    def test_malformed_rejected(self):
        with pytest.raises(PersistenceError):
            value_from_json({"nope": 1})
        with pytest.raises(PersistenceError):
            value_from_json({"t": "alien", "v": 0})


class TestRoundTrip:
    def test_full_roundtrip(self, db, tmp_path):
        path = str(tmp_path / "db.json")
        save(db, ODL, path)
        db2 = load(path)
        assert db2.extent("Persons") == db.extent("Persons")
        r1 = db.query("{ p.name | p <- adults() }", commit=False)
        r2 = db2.query("{ p.name | p <- adults() }", commit=False)
        assert r1.value == r2.value

    def test_object_graph_preserved(self, db, tmp_path):
        path = str(tmp_path / "db.json")
        save(db, ODL, path)
        db2 = load(path)
        for oid in db.extent("Persons"):
            assert db2.attr(oid, "buddy") == db.attr(oid, "buddy")

    def test_methods_still_work_after_load(self, db, tmp_path):
        path = str(tmp_path / "db.json")
        save(db, ODL, path)
        db2 = load(path)
        r = db2.query("{ p.twice() | p <- Persons }", commit=False)
        assert r.python() == frozenset({72, 34})

    def test_fresh_oids_after_load_do_not_collide(self, db, tmp_path):
        path = str(tmp_path / "db.json")
        save(db, ODL, path)
        db2 = load(path)
        new = db2.run('new Person(name: "C", age: 1, buddy: @Person_0)')
        assert new.value.name not in db.extent("Persons")
        assert len(db2.extent("Persons")) == 3


class TestValidationOnLoad:
    def _doc(self, db):
        return dump_database(db, ODL)

    def test_unknown_format(self, db):
        doc = self._doc(db)
        doc["format"] = 99
        with pytest.raises(PersistenceError, match="format"):
            load_database(doc)

    def test_bad_json_file(self, tmp_path):
        p = tmp_path / "junk.json"
        p.write_text("{not json")
        with pytest.raises(PersistenceError, match="not a database dump"):
            load(str(p))

    def test_native_methods_refuse_to_serialise(self, tmp_path):
        from repro.methods.ast import NativeMethod

        db = Database.from_odl(
            "class P extends Object (extent Ps) { attribute int n; int m() native; }"
        )
        mdef = db.schema.mbody("P", "m")
        object.__setattr__(mdef, "body", NativeMethod(lambda c, o, a: IntLit(0)))
        with pytest.raises(PersistenceError, match="native"):
            dump_database(db, "…")

    def test_definitions_retypechecked(self, db):
        doc = self._doc(db)
        doc["definitions"] = ["define broken() as 1 + true;"]
        with pytest.raises(Exception):
            load_database(doc)

    def test_truncated_dump_rejected(self, db, tmp_path):
        path = tmp_path / "db.json"
        save(db, ODL, str(path))
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(PersistenceError, match="truncated or invalid"):
            load(str(path))

    def test_non_object_document_rejected(self, tmp_path):
        p = tmp_path / "list.json"
        p.write_text("[1, 2, 3]")
        with pytest.raises(PersistenceError, match="expected a JSON object"):
            load(str(p))


class TestAtomicSave:
    """save() goes through a temp file + os.replace: a crash mid-save
    leaves either the old dump or the new one, never a torn mixture."""

    def _crash_plan(self):
        from repro.resilience.faults import FaultPlan, FaultRule, inject

        return inject(
            FaultPlan((FaultRule(site="persistence.save", at=1),))
        )

    def test_failed_save_preserves_the_old_dump(self, db, tmp_path):
        from repro.errors import TransientFault

        path = str(tmp_path / "db.json")
        save(db, ODL, path)
        old_bytes = (tmp_path / "db.json").read_bytes()
        db.insert("Person", name="Eve", age=30, buddy=OidRef("@Person_0"))
        with self._crash_plan():
            with pytest.raises(TransientFault):
                save(db, ODL, path)
        # the old dump is intact and still loads
        assert (tmp_path / "db.json").read_bytes() == old_bytes
        assert len(load(path).extent("Persons")) == 2

    def test_failed_save_leaves_no_temp_droppings(self, db, tmp_path):
        from repro.errors import TransientFault

        path = str(tmp_path / "db.json")
        with self._crash_plan():
            with pytest.raises(TransientFault):
                save(db, ODL, path)
        assert list(tmp_path.iterdir()) == []

    def test_retried_save_succeeds(self, db, tmp_path):
        from repro.errors import TransientFault

        path = str(tmp_path / "db.json")
        with self._crash_plan():
            with pytest.raises(TransientFault):
                save(db, ODL, path)
            save(db, ODL, path)  # the at=1 rule is spent; this lands
        assert load(path).extent("Persons") == db.extent("Persons")


# ---------------------------------------------------------------------------
# The state stanza: one encoder and one decoder for checkpoints and records
# ---------------------------------------------------------------------------

STATE_ODL = """
class Person extends Object (extent Persons) {
    attribute string name;
    attribute int age;
    attribute bool active;
}
class Note extends Object (extent Notes) {
    attribute string body;
    attribute Person about;
}
"""


def _state_store() -> Database:
    """One sharded class, a reference between classes, one definition."""
    db = Database.from_odl(STATE_ODL)
    db.shard("Person", k=2, by="name")
    ada = db.insert("Person", name="Ada", age=36, active=True)
    db.insert("Note", body="héllo", about=ada)
    db.define("define adults() as { p | p <- Persons, p.age >= 18 };")
    return db


#: (case, how it breaks a state stanza, message fragment both entry
#: points must report)
MALFORMED = [
    (
        "unknown-class",
        lambda s: s["objects"]["@Note_1"].update({"class": "Ghost"}),
        "unknown class 'Ghost'",
    ),
    (
        "attribute-set",
        lambda s: s["objects"]["@Person_0"]["attrs"].pop("age"),
        "attribute set",
    ),
    (
        "missing-object",
        lambda s: s["extents"]["Persons"].append("@Person_9"),
        "references missing object @Person_9",
    ),
    (
        "class-mismatch",
        lambda s: s["extents"]["Persons"].append("@Note_1"),
        "of class 'Note', expected 'Person'",
    ),
    (
        "unknown-extent",
        lambda s: s["extents"].update({"Ufos": []}),
        "unknown extent 'Ufos'",
    ),
    (
        "object-without-class",
        lambda s: s["objects"]["@Note_1"].pop("class"),
        "object @Note_1: malformed entry",
    ),
    (
        "object-not-a-mapping",
        lambda s: s["objects"].update({"@Note_1": ["Note"]}),
        "object @Note_1: malformed entry",
    ),
    (
        "members-not-a-list",
        lambda s: s["extents"].update({"Persons": "@Person_0"}),
        "extent 'Persons': members '@Person_0' are not a list",
    ),
    (
        "objects-not-a-mapping",
        lambda s: s.update({"objects": []}),
        "'objects' is not a dict",
    ),
]


class TestMalformedState:
    """Checkpoint load and ``full`` replay refuse the same malformed
    states with the same message: they share one decoder."""

    @pytest.mark.parametrize(
        "breaks, fragment",
        [pytest.param(b, f, id=case) for case, b, f in MALFORMED],
    )
    def test_load_and_replay_refuse_alike(self, breaks, fragment):
        db = _state_store()
        doc = dump_database(db, STATE_ODL)
        breaks(doc)
        with pytest.raises(PersistenceError, match=re.escape(fragment)):
            load_database(doc)
        rec = {**full_record(db, "restore"), "lsn": 1}
        breaks(rec)
        with pytest.raises(WalError, match=re.escape(fragment)):
            apply_record(Database.from_odl(STATE_ODL), rec)


class TestLinearLoad:
    """Every state rebuild builds OE and EE once, never once per object."""

    def test_no_per_object_environment_copy(self, tmp_path, monkeypatch):
        d = str(tmp_path / "db")
        db = Database.open(d, STATE_ODL, sync=False)
        for i in range(150):
            db.insert("Person", name=f"p{i}", age=i, active=i % 2 == 0)
        db.checkpoint()  # 150 objects in the checkpoint, 50 in the log
        for i in range(50):
            db.insert("Note", body=f"n{i}", about=OidRef(f"@Person_{i}"))
        dump = str(tmp_path / "dump.json")
        save(db, STATE_ODL, dump)
        db.close()

        def refuse(*_args):
            raise AssertionError("per-object environment copy")

        monkeypatch.setattr(ObjectEnv, "with_object", refuse)
        monkeypatch.setattr(ExtentEnv, "with_member", refuse)
        back = Database.open(d, sync=False)
        assert (back.ee, back.oe) == (db.ee, db.oe)
        assert len(back.oe) == 200
        loaded = load(dump)
        assert (loaded.ee, loaded.oe) == (db.ee, db.oe)
        replica = back.replicate(1).replicas[0]
        assert (replica.db.ee, replica.db.oe) == (db.ee, db.oe)
        back.close()


def _obj(cname, **attrs):
    return {"class": cname, "attrs": attrs}


#: The golden store's on-disk encoding.  Checkpoints and WAL records
#: serialise these dicts with sorted keys, so equal dicts mean equal
#: bytes; a change here is a change of FORMAT_VERSION 1.
GOLDEN_OBJECTS = {
    "@Person_0": _obj(
        "Person",
        name={"t": "str", "v": "Ada"},
        age={"t": "int", "v": 36},
        active={"t": "bool", "v": True},
    ),
    "@Note_1": _obj(
        "Note",
        body={"t": "str", "v": "héllo"},
        about={"t": "oid", "v": "@Person_0"},
    ),
    "@Person_2": _obj(
        "Person",
        name={"t": "str", "v": "Bob"},
        age={"t": "int", "v": 17},
        active={"t": "bool", "v": False},
    ),
    "@Note_3": _obj(
        "Note",
        body={"t": "str", "v": "x"},
        about={"t": "oid", "v": "@Person_0"},
    ),
}
GOLDEN_STATE = {
    "objects": GOLDEN_OBJECTS,
    "extents": {
        "Notes": ["@Note_1", "@Note_3"],
        "Persons": ["@Person_0", "@Person_2"],
    },
    "definitions": [
        "define adults() as {p | p <- Persons, p.age >= 18};"
    ],
}
GOLDEN_DUMP = {
    "format": 1,
    "odl": STATE_ODL,
    "method_mode": "read-only",
    **GOLDEN_STATE,
    "sharding": [{"class": "Person", "by": "name", "k": 2}],
}
GOLDEN_FULL = {
    "kind": "full",
    "stmt": "restore",
    "defs_version": 1,
    "effect": [],
    **GOLDEN_STATE,
    "next_oid": 4,
}
GOLDEN_DELTAS = [
    {
        "kind": "delta",
        "stmt": "insert Person",
        "defs_version": 1,
        "effect": ["A(Person)"],
        "adds": {"Persons": ["@Person_2"]},
        "shards": {"Persons": {"1": ["@Person_2"]}},
        "objects": {"@Person_2": GOLDEN_OBJECTS["@Person_2"]},
        "next_oid": 3,
    },
    {
        "kind": "delta",
        "stmt": 'new Note(body: "x", about: @Person_0)',
        "defs_version": 1,
        "effect": ["A(Note)"],
        "adds": {"Notes": ["@Note_3"]},
        "objects": {"@Note_3": GOLDEN_OBJECTS["@Note_3"]},
        "next_oid": 4,
    },
]


class TestGoldenEncoding:
    """Checkpoints and WAL records keep their on-disk encoding."""

    def test_dump_full_and_delta_records(self, tmp_path):
        db = _state_store()
        d = str(tmp_path / "db")
        db.attach_wal(d, sync=False)
        db.insert("Person", name="Bob", age=17, active=False)
        db.run('new Note(body: "x", about: @Person_0)')
        db.close()
        deltas = [
            {k: v for k, v in rec.items() if k != "lsn"}
            for rec in read_records(wal_path(d))
        ]
        assert deltas == GOLDEN_DELTAS
        assert dump_database(db, STATE_ODL) == GOLDEN_DUMP
        assert full_record(db, "restore") == GOLDEN_FULL
