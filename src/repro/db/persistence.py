"""Saving and loading databases — making the "heart of the database"
durable.

The paper's EE/OE environments live only for a derivation; a library a
downstream user adopts needs them on disk.  The format is a single
JSON document containing:

* the ODL source of the schema (the schema is re-parsed and
  re-validated on load — well-formedness is checked again, not
  trusted);
* the **state stanza**: every object of OE as
  ``{"class": C, "attrs": {...}}`` with values in a tagged JSON
  encoding (oids, sets, bags, lists and records nest), every extent of
  EE as its member list, and the query definitions as their concrete
  syntax (re-parsed and re-type-checked on load).

Checkpoints and the write-ahead log's ``full`` and ``delta`` records
(:mod:`repro.db.recovery`) all write the state stanza with
:func:`encode_state` / :func:`encode_objects` and read it back with
:func:`decode_state`.

Because values are re-validated through the same constructors the
machine uses, a corrupted file fails loudly at load time rather than
poisoning later reductions.  MJava method bodies travel inside the ODL
source; native Python methods cannot be serialised — saving a database
whose schema binds native methods raises, listing them.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Any, Iterable

from repro.errors import EvalError, ReproError
from repro.resilience.faults import maybe_fault
from repro.lang.ast import (
    BagLit,
    BoolLit,
    IntLit,
    ListLit,
    OidRef,
    Query,
    RecordLit,
    SetLit,
    StrLit,
)
from repro.lang.pprint import pretty_definition
from repro.lang.values import make_bag_value, make_set_value
from repro.methods.ast import AccessMode, NativeMethod
from repro.db.database import Database
from repro.db.store import ExtentEnv, ObjectEnv, ObjectRecord

FORMAT_VERSION = 1

#: Key holding the dump's integrity digest (SHA-256 over the canonical
#: serialisation of the rest of the document).  JSON itself detects torn
#: files but not bit rot *inside* string/number payloads — without a
#: digest a flipped bit in an attribute value would load as a silently
#: wrong store.  Docs written before the digest existed still load.
INTEGRITY_KEY = "integrity"


class PersistenceError(ReproError):
    """Raised on unserialisable databases or malformed dump files."""


def _canonical(doc: dict) -> bytes:
    return json.dumps(
        doc, ensure_ascii=False, separators=(",", ":"), sort_keys=True
    ).encode("utf-8")


def seal_document(doc: dict) -> dict:
    """Return a copy of ``doc`` carrying its integrity digest."""
    body = {k: v for k, v in doc.items() if k != INTEGRITY_KEY}
    sealed = dict(body)
    sealed[INTEGRITY_KEY] = hashlib.sha256(_canonical(body)).hexdigest()
    return sealed


def verify_document(doc: dict) -> None:
    """Check ``doc``'s digest; absent digests pass (pre-digest dumps)."""
    if INTEGRITY_KEY not in doc:
        return
    body = {k: v for k, v in doc.items() if k != INTEGRITY_KEY}
    want = doc[INTEGRITY_KEY]
    got = hashlib.sha256(_canonical(body)).hexdigest()
    if got != want:
        raise PersistenceError(
            "dump integrity digest mismatch: the file is corrupt "
            f"(expected {want!r}, recomputed {got!r})"
        )


# ---------------------------------------------------------------------------
# value <-> JSON
# ---------------------------------------------------------------------------


def value_to_json(v: Query) -> Any:
    """Encode a value as tagged JSON."""
    if isinstance(v, IntLit):
        return {"t": "int", "v": v.value}
    if isinstance(v, BoolLit):
        return {"t": "bool", "v": v.value}
    if isinstance(v, StrLit):
        return {"t": "str", "v": v.value}
    if isinstance(v, OidRef):
        return {"t": "oid", "v": v.name}
    if isinstance(v, SetLit):
        return {"t": "set", "v": [value_to_json(i) for i in v.items]}
    if isinstance(v, BagLit):
        return {"t": "bag", "v": [value_to_json(i) for i in v.items]}
    if isinstance(v, ListLit):
        return {"t": "list", "v": [value_to_json(i) for i in v.items]}
    if isinstance(v, RecordLit):
        return {
            "t": "rec",
            "v": [[l, value_to_json(q)] for l, q in v.fields],
        }
    raise PersistenceError(f"not a serialisable value: {v!r}")


def value_from_json(doc: Any) -> Query:
    """Decode tagged JSON back into a canonical value."""
    try:
        tag, payload = doc["t"], doc["v"]
    except (TypeError, KeyError) as exc:
        raise PersistenceError(f"malformed value document: {doc!r}") from exc
    if tag == "int":
        return IntLit(int(payload))
    if tag == "bool":
        return BoolLit(bool(payload))
    if tag == "str":
        return StrLit(str(payload))
    if tag == "oid":
        return OidRef(str(payload))
    if tag == "set":
        return make_set_value(value_from_json(i) for i in payload)
    if tag == "bag":
        return make_bag_value(value_from_json(i) for i in payload)
    if tag == "list":
        return ListLit(tuple(value_from_json(i) for i in payload))
    if tag == "rec":
        return RecordLit(
            tuple((l, value_from_json(q)) for l, q in payload)
        )
    raise PersistenceError(f"unknown value tag {tag!r}")


# ---------------------------------------------------------------------------
# the state stanza: EE, OE and DE <-> JSON
# ---------------------------------------------------------------------------


def encode_objects(oe: ObjectEnv, oids: Iterable[str]) -> dict:
    """The ``objects`` stanza of ``oids``: each object's class and values."""
    out = {}
    for oid in oids:
        rec = oe.get(oid)
        out[oid] = {
            "class": rec.cname,
            "attrs": {a: value_to_json(v) for a, v in rec.attrs},
        }
    return out


def encode_state(ee: ExtentEnv, oe: ObjectEnv, definitions: Iterable) -> dict:
    """The whole state as the stanza a checkpoint or ``full`` record holds."""
    return {
        "objects": encode_objects(oe, sorted(oe.oids())),
        "extents": {e: sorted(ee.members(e)) for e in sorted(ee.names())},
        "definitions": [pretty_definition(d) for d in definitions],
    }


def decode_state(db: Database, doc: dict, *, replace: bool) -> None:
    """Install a state stanza, or a delta record's part of one, into ``db``.

    ``replace=True`` (a checkpoint, a ``full`` record) rebuilds EE, OE
    and DE from ``doc`` alone.  Otherwise the logged objects join the
    live OE; a delta's ``adds`` are unioned into the live extents, and a
    legacy delta's wholesale ``extents`` reset the extents they name.
    Each environment is built once, so decoding is linear in the stanza
    plus the live state.  An unknown class or extent, an attribute set
    that is not the class's, an extent member that is not an object of
    the extent's class, or a stanza of the wrong JSON shape raises
    :class:`PersistenceError`.
    """
    schema = db.schema
    declared_of = {c: [a for a, _ in schema.atypes(c)] for c in schema.classes}
    fresh: dict[str, ObjectRecord] = {}
    for oid, entry in _stanza(doc, "objects", dict).items():
        if not (
            isinstance(entry, dict)
            and isinstance(entry.get("class"), str)
            and isinstance(entry.get("attrs", {}), dict)
        ):
            raise PersistenceError(f"object {oid}: malformed entry {entry!r}")
        cname, given = entry["class"], entry.get("attrs", {})
        declared = declared_of.get(cname)
        if declared is None:
            raise PersistenceError(f"object {oid}: unknown class {cname!r}")
        if sorted(given) != sorted(declared):
            raise PersistenceError(
                f"object {oid}: attribute set {sorted(given)} does not "
                f"match class {cname} ({sorted(declared)})"
            )
        try:
            attrs = tuple((a, value_from_json(given[a])) for a in declared)
            fresh[oid] = ObjectRecord(cname, attrs)
        except (PersistenceError, EvalError) as exc:
            raise PersistenceError(f"object {oid}: {exc}") from exc
    oe = ObjectEnv(fresh) if replace else db.oe.with_objects(fresh)
    base = ExtentEnv.for_schema(schema) if replace else db.ee
    extents = dict(base.items())
    additive = "adds" in doc
    logged = _stanza(doc, "adds" if additive else "extents", dict)
    for extent, members in logged.items():
        if extent not in extents:
            raise PersistenceError(f"unknown extent {extent!r}")
        if not isinstance(members, list):
            raise PersistenceError(
                f"extent {extent!r}: members {members!r} are not a list"
            )
        want, current = extents[extent]
        for oid in members:
            if not isinstance(oid, str) or oid not in oe:
                raise PersistenceError(
                    f"extent {extent!r} references missing object {oid}"
                )
            if oe.class_of(oid) != want:
                raise PersistenceError(
                    f"extent {extent!r} holds {oid} of class "
                    f"{oe.class_of(oid)!r}, expected {want!r}"
                )
        extents[extent] = (
            want,
            current.union(members) if additive else frozenset(members),
        )
    db._install(ExtentEnv(extents), oe)
    if replace:
        _restore_definitions(db, _stanza(doc, "definitions", list))


def _stanza(doc: dict, key: str, kind: type):
    value = doc.get(key, kind())
    if not isinstance(value, kind):
        raise PersistenceError(f"{key!r} is not a {kind.__name__}")
    return value


def _restore_definitions(db: Database, sources: list[str]) -> None:
    """Reset the definition environment to exactly ``sources``.

    A ``full`` record restores the whole DE because the unattributed
    state changes that write one (transaction rollback, restore) may
    have *removed* definitions, which replaying additions cannot
    express.
    """
    if sources == [pretty_definition(d) for d in db.definitions.values()]:
        return
    if db._definitions:
        # compiled plans that resolve a removed definition must retire
        db._defs_version += 1
        db._definitions.clear()
        db._def_types.clear()
        db.machine.defs = db._definitions
    for source in sources:
        db.define(source)


# ---------------------------------------------------------------------------
# database <-> JSON document
# ---------------------------------------------------------------------------


def dump_database(db: Database, odl_source: str) -> dict:
    """Serialise a database to a JSON-able document.

    ``odl_source`` is the ODL text the schema was built from (the
    schema object does not retain its source); it is embedded verbatim
    and re-parsed on load.
    """
    natives = [
        f"{cname}.{m.name}"
        for cname, cd in sorted(db.schema.classes.items())
        for m in cd.methods
        if isinstance(m.body, NativeMethod)
    ]
    if natives:
        raise PersistenceError(
            "cannot serialise native Python methods: " + ", ".join(natives)
        )
    doc = {
        "format": FORMAT_VERSION,
        "odl": odl_source,
        "method_mode": db.method_mode.value,
        **encode_state(db.ee, db.oe, db.definitions.values()),
    }
    shards = db._shards
    if shards.enabled:
        # layout only — the partition itself is recomputed on load.
        # Shard declarations travel in checkpoints, not the WAL, so a
        # WAL-only recovery must re-declare (see Database.shard).
        doc["sharding"] = [
            {"class": spec.cname, "by": spec.by, "k": spec.k}
            for spec in sorted(
                shards.specs.values(), key=lambda s: s.cname
            )
        ]
    return doc


def load_database(doc: dict) -> Database:
    """Rebuild a database from a document produced by :func:`dump_database`.

    Everything is re-validated: the schema re-parses,
    :func:`decode_state` checks the state stanza and re-type-checks the
    definitions, and the sharding stanza must apply to the schema.
    """
    if doc.get("format") != FORMAT_VERSION:
        raise PersistenceError(
            f"unsupported dump format {doc.get('format')!r}"
        )
    mode = AccessMode(doc.get("method_mode", AccessMode.READ_ONLY.value))
    db = Database.from_odl(doc["odl"], method_mode=mode)
    decode_state(db, doc, replace=True)
    for entry in doc.get("sharding", []):
        try:
            db.shard(
                entry["class"],
                k=int(entry.get("k", 8)),
                by=entry.get("by"),
            )
        except Exception as exc:
            raise PersistenceError(
                f"sharding stanza {entry!r} does not apply: {exc}"
            ) from exc
    return db


def write_document(doc: dict, path: str) -> None:
    """Seal ``doc`` with its integrity digest and write it **atomically**.

    The document is written to a temporary file in the same directory,
    flushed and fsynced, and then :func:`os.replace`\\ d into place.  A
    crash (or an injected ``persistence.save`` fault) at any point
    leaves either the old file or the new one on disk, never a torn
    mixture.  Shared by :func:`save` and the durability layer's
    checkpoints (:meth:`Database.checkpoint`).
    """
    doc = seal_document(doc)
    target = os.path.abspath(path)
    directory = os.path.dirname(target) or "."
    fd, tmp = tempfile.mkstemp(
        prefix=os.path.basename(target) + ".", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
            f.flush()
            os.fsync(f.fileno())
        # the crash window the temp file exists to survive: the dump is
        # fully on disk but not yet visible under its real name
        maybe_fault("persistence.save")
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def read_document(path: str) -> dict:
    """Read and verify a document written by :func:`write_document`.

    Malformed input — truncated or invalid JSON, a non-object document,
    or an integrity-digest mismatch — raises :class:`PersistenceError`,
    never a raw :class:`json.JSONDecodeError` and never a silently
    corrupted document.
    """
    maybe_fault("persistence.load")
    with open(path, encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as exc:
            raise PersistenceError(
                f"not a database dump (truncated or invalid JSON): {exc}"
            ) from exc
    if not isinstance(doc, dict):
        raise PersistenceError(
            f"not a database dump: expected a JSON object, "
            f"got {type(doc).__name__}"
        )
    verify_document(doc)
    return doc


def save(db: Database, odl_source: str, path: str) -> None:
    """Serialise ``db`` to ``path`` as sealed JSON — atomically."""
    write_document(dump_database(db, odl_source), path)


def load(path: str) -> Database:
    """Load a database saved with :func:`save`."""
    return load_database(read_document(path))


# ---------------------------------------------------------------------------
# schema -> ODL (for checkpointing databases built from Schema objects)
# ---------------------------------------------------------------------------


def schema_to_odl(schema) -> str:
    """Render a :class:`~repro.model.schema.Schema` back to ODL source.

    The dump format embeds ODL text (re-parsed and re-validated on
    load); a database built straight from a :class:`Schema` object —
    e.g. the metatheory generators' random schemas — has no retained
    source, so the durability layer reconstructs one.  Attribute
    declarations round-trip through ``str(type)``; method *bodies* do
    not survive a schema object, so schemas with methods must supply
    their original ODL text instead.
    """
    lines: list[str] = []
    for cname, cd in schema.classes.items():
        if cd.methods:
            raise PersistenceError(
                f"class {cname!r} declares methods; serialising methods "
                "needs the original ODL source (Database.from_odl keeps "
                "it — pass odl_source explicitly for hand-built schemas)"
            )
        lines.append(
            f"class {cd.name} extends {cd.superclass} (extent {cd.extent}) {{"
        )
        for a in cd.attributes:
            lines.append(f"    attribute {a.type} {a.name};")
        lines.append("}")
    return "\n".join(lines)
