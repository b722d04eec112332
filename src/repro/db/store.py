"""The runtime environments of §3.3 — "essentially the heart of the database!".

* :class:`ExtentEnv` (EE) maps an extent identifier to a pair of the
  class name and the set of oids currently in that extent;
* :class:`ObjectEnv` (OE) maps an oid to the runtime representation of
  the object, written ⟪C, a₁:v₁, …, aₖ:vₖ⟫ in the paper
  (:class:`ObjectRecord` here);
* :class:`OidSupply` generates fresh oids for the (New) rule.

Both environments are **immutable**: every update returns a new
environment sharing structure with the old one.  This is what lets the
explorer fork a configuration down every non-deterministic branch, and
the metatheory harness snapshot/restore configurations, without copying
the whole database.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Mapping

from repro.errors import EvalError
from repro.lang.ast import OidRef, Query
from repro.lang.values import is_value
from repro.model.schema import Schema

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.effects.algebra import Effect

@dataclass(frozen=True)
class ObjectRecord:
    """The paper's ⟪C, a₁:v₁, …, aₖ:vₖ⟫ — one object's class and state."""

    cname: str
    attrs: tuple[tuple[str, Query], ...]

    def __post_init__(self) -> None:
        for a, v in self.attrs:
            if not is_value(v):
                raise EvalError(
                    f"object attribute {a!r} holds a non-value {v!r}"
                )

    def attr(self, name: str) -> Query:
        for a, v in self.attrs:
            if a == name:
                return v
        raise EvalError(f"object of class {self.cname!r} has no attribute {name!r}")

    def with_attr(self, name: str, value: Query) -> "ObjectRecord":
        """A copy with one attribute replaced (§5 update support)."""
        if not any(a == name for a, _ in self.attrs):
            raise EvalError(
                f"object of class {self.cname!r} has no attribute {name!r}"
            )
        return ObjectRecord(
            self.cname,
            tuple((a, value if a == name else v) for a, v in self.attrs),
        )

    def __str__(self) -> str:
        inner = ", ".join(f"{a}: {v}" for a, v in self.attrs)
        return f"⟪{self.cname}, {inner}⟫"


class ObjectEnv:
    """OE: oid → :class:`ObjectRecord`, persistent/immutable.

    Updates build exactly one new dict (the private :meth:`_adopt`
    constructor takes ownership instead of defensively re-copying) and
    the structural hash is computed at most once per environment —
    equality/hash semantics are unchanged.
    """

    __slots__ = ("_objects", "_hash")

    def __init__(self, objects: Mapping[str, ObjectRecord] | None = None):
        self._objects: dict[str, ObjectRecord] = dict(objects or {})
        self._hash: int | None = None

    @classmethod
    def _adopt(cls, objects: dict[str, ObjectRecord]) -> "ObjectEnv":
        """Wrap an already-private dict without copying it again."""
        env = object.__new__(cls)
        env._objects = objects
        env._hash = None
        return env

    def get(self, oid: str) -> ObjectRecord:
        try:
            return self._objects[oid]
        except KeyError:
            raise EvalError(f"dangling oid {oid!r}") from None

    def __contains__(self, oid: str) -> bool:
        return oid in self._objects

    def oids(self) -> frozenset[str]:
        return frozenset(self._objects)

    def items(self) -> Iterator[tuple[str, ObjectRecord]]:
        return iter(sorted(self._objects.items()))

    def with_object(self, oid: str, rec: ObjectRecord) -> "ObjectEnv":
        """OE[o ↦ ⟪…⟫] — add (or in §5 mode, replace) one object."""
        new = dict(self._objects)
        new[oid] = rec
        return ObjectEnv._adopt(new)

    def with_objects(self, objects: Mapping[str, ObjectRecord]) -> "ObjectEnv":
        """OE with a batch of objects added in one copy.

        The per-shard commit path merges a whole commit's fresh objects
        into the *current* environment; doing it object-by-object would
        copy the dict once per object.
        """
        if not objects:
            return self
        new = dict(self._objects)
        new.update(objects)
        return ObjectEnv._adopt(new)

    def without_objects(self, oids: Iterable[str]) -> "ObjectEnv":
        """OE with the given oids removed (transaction rollback of (New)).

        Missing oids are ignored — rollback is idempotent.
        """
        doomed = set(oids)
        if not doomed:
            return self
        return ObjectEnv._adopt(
            {o: r for o, r in self._objects.items() if o not in doomed}
        )

    def class_of(self, oid: str) -> str:
        return self.get(oid).cname

    def __len__(self) -> int:
        return len(self._objects)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ObjectEnv) and self._objects == other._objects

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash(frozenset(self._objects.items()))
        return h

    def __repr__(self) -> str:
        return f"ObjectEnv({len(self._objects)} objects)"


class ExtentEnv:
    """EE: extent name → (class name, frozenset of oids), immutable.

    Same copy-on-write discipline as :class:`ObjectEnv`: one dict copy
    per update, hash cached; equality/hash semantics unchanged.
    """

    __slots__ = ("_extents", "_hash")

    def __init__(self, extents: Mapping[str, tuple[str, frozenset[str]]] | None = None):
        self._extents: dict[str, tuple[str, frozenset[str]]] = dict(extents or {})
        self._hash: int | None = None

    @classmethod
    def _adopt(cls, extents: dict[str, tuple[str, frozenset[str]]]) -> "ExtentEnv":
        """Wrap an already-private dict without copying it again."""
        env = object.__new__(cls)
        env._extents = extents
        env._hash = None
        return env

    @staticmethod
    def for_schema(schema: Schema) -> "ExtentEnv":
        """Empty extents for every class of ``schema``."""
        return ExtentEnv(
            {e: (c, frozenset()) for e, c in schema.extents.items()}
        )

    def get(self, extent: str) -> tuple[str, frozenset[str]]:
        try:
            return self._extents[extent]
        except KeyError:
            raise EvalError(f"unknown extent {extent!r}") from None

    def members(self, extent: str) -> frozenset[str]:
        return self.get(extent)[1]

    def class_of(self, extent: str) -> str:
        return self.get(extent)[0]

    def __contains__(self, extent: str) -> bool:
        return extent in self._extents

    def names(self) -> frozenset[str]:
        return frozenset(self._extents)

    def items(self) -> Iterator[tuple[str, tuple[str, frozenset[str]]]]:
        return iter(sorted(self._extents.items()))

    def with_member(self, extent: str, oid: str) -> "ExtentEnv":
        """EE[e ↦ (C, v ∪ {o})] — the (New) rule's extent update."""
        cname, members = self.get(extent)
        new = dict(self._extents)
        new[extent] = (cname, members | {oid})
        return ExtentEnv._adopt(new)

    def with_members(self, extent: str, members: frozenset[str]) -> "ExtentEnv":
        """EE[e ↦ (C, v)] — reset one extent's membership wholesale.

        Used by transaction rollback to restore exactly the extents a
        failed query's effect says it could have grown.
        """
        cname, _ = self.get(extent)
        new = dict(self._extents)
        new[extent] = (cname, frozenset(members))
        return ExtentEnv._adopt(new)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ExtentEnv) and self._extents == other._extents

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash(frozenset(self._extents.items()))
        return h

    def __repr__(self) -> str:
        sizes = {e: len(v) for e, (_, v) in sorted(self._extents.items())}
        return f"ExtentEnv({sizes})"


@dataclass(frozen=True)
class Commit:
    """One committed write, as every derived structure sees it.

    By Theorem 5 the commit's dynamic trace is a subeffect of
    ``effect``, so nothing outside ``effect.writes()`` changed between
    store versions ``pre`` and ``post``.  ``adds`` maps each touched
    extent to the oids that joined it when the commit path knows them
    (``A``-only commits); ``shard_adds`` holds the same oids bucketed
    by shard, for sharded extents only.  ``ee``/``oe`` are the
    post-state.
    """

    effect: "Effect"
    pre: int
    post: int
    schema: Schema
    ee: "ExtentEnv"
    oe: "ObjectEnv"
    adds: Mapping[str, frozenset[str]] | None = None
    shard_adds: Mapping[str, Mapping[int, set[str]]] | None = None

    @cached_property
    def extents(self) -> frozenset[str]:
        """The extents named by the commit's ``A`` atoms."""
        out = set()
        for cname in self.effect.adds():
            try:
                out.add(self.schema.class_extent(cname))
            except Exception:
                continue  # extent-less class: no extent changed
        return frozenset(out)

    @cached_property
    def shard_writes(self) -> Mapping[str, frozenset[int]] | None:
        """Each sharded class written, with the exact shard ids."""
        if self.shard_adds is None:
            return None
        return {
            self.schema.extent_class(extent): frozenset(per)
            for extent, per in self.shard_adds.items()
        }


def apply_commit(
    table: dict,
    c: Commit,
    touched: Callable[[Any, Any], Any],
    *,
    fold: Callable[[Any, Any], Any] | None = None,
) -> int:
    """The Theorem 5 maintenance rule, once for every derived table.

    ``table`` maps keys to tuples led by the store version they are
    valid at.  A commit that wrote nothing changes nothing.  An entry
    the write ``touched(key, entry)`` is replaced by ``fold(key,
    entry)`` when an ``A``-only commit can fold it forward (current
    entries only; a ``None`` fold evicts) and evicted otherwise.  A
    ``U`` atom evicts every other entry too — updates reach state
    through reference chains no ``R`` set names (§5).  Every remaining
    entry current at ``c.pre`` is promoted to ``c.post``; stale ones
    stay stale.  Returns the number of evictions.  Callers hold their
    own table lock.
    """
    if not c.effect.writes():
        return 0
    updates = bool(c.effect.updates())
    evicted = 0
    for key, entry in list(table.items()):
        current = entry[0] == c.pre
        if touched(key, entry):
            kept = fold(key, entry) if fold and current and not updates else None
        elif updates:
            kept = None
        elif current:
            kept = (c.post, *entry[1:])
        else:
            continue
        if kept is None:
            del table[key]
            evicted += 1
        else:
            table[key] = kept
    return evicted


def keep_newest(table: dict, key, entry: tuple) -> None:
    """Store the version-led ``entry`` under ``key`` unless ``table``
    holds one at a newer version.  A read at an older store triple (a
    pinned replica read) builds for itself and leaves the newer entry
    in place.  Callers hold their own table lock."""
    have = table.get(key)
    if have is None or have[0] <= entry[0]:
        table[key] = entry


class AttributeIndexes:
    """Per-(extent, attribute) hash indexes, each for one store version.

    One table keyed ``(extent, attr, shard)`` of version-led
    ``(version, index)`` entries.  ``shard=None`` is the whole-extent
    index; a sharded extent also keeps one partial per shard, and its
    whole-extent index is the merge of its partials, so a commit that
    touches one shard rebuilds only that shard's partial.  Entries are
    built lazily the first time a compiled hash join (or a pruned
    probe) asks for one, from the store triple the asking plan runs
    at, and answer only at the store version they are stamped with; a
    build for an older version than the entry's is not kept
    (:func:`keep_newest`).  :func:`apply_commit` maintains the table —
    for the primary's commits and for every replayed additive
    ``delta`` record alike: an ``A(C)`` write touches the indexes of
    ``C``'s extent (a partial only when the write added to its shard)
    and promotes the rest; ``U`` atoms rewrite attribute values, so
    every index is dropped.  Unattributed state changes (restore,
    persistence load, rollback, ``full`` records) advance the version
    without a promotion, lazily invalidating everything — the safe
    default.  Shard ids key partials, so a re-declared layout must
    :meth:`clear` the table.
    """

    def __init__(self):
        self._indexes: dict[
            tuple[str, str, int | None],
            tuple[int, dict[Query, tuple[OidRef, ...]]],
        ] = {}
        # concurrent scheduled readers share the index table; a build
        # and a promotion must not interleave on the same key
        self._lock = threading.RLock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._indexes)

    def _lookup(
        self, key, version: int, build
    ) -> dict[Query, tuple[OidRef, ...]]:
        with self._lock:
            hit = self._indexes.get(key)
            if hit is not None and hit[0] == version:
                return hit[1]
            idx = build()
            keep_newest(self._indexes, key, (version, idx))
            return idx

    def get(
        self,
        ee: "ExtentEnv",
        oe: "ObjectEnv",
        version: int,
        extent: str,
        attr: str,
        shards=None,
    ) -> dict[Query, tuple[OidRef, ...]]:
        """The index for ``extent`` keyed by ``attr`` at ``version``."""
        from repro.exec.runtime import build_attr_index

        def build():
            parts = (
                None
                if shards is None
                else shards.partition(extent, ee, oe, version)
            )
            if parts is None:
                return build_attr_index(oe, ee.members(extent), attr)
            merged: dict[Query, tuple[OidRef, ...]] = {}
            for shard, part in enumerate(parts):
                partial = self._partial(oe, version, extent, attr, shard, part)
                for value, refs in partial.items():
                    have = merged.get(value)
                    merged[value] = refs if have is None else have + refs
            return merged

        return self._lookup((extent, attr, None), version, build)

    def get_shard(
        self,
        ee: "ExtentEnv",
        oe: "ObjectEnv",
        version: int,
        extent: str,
        attr: str,
        shard: int,
        shards,
    ) -> dict[Query, tuple[OidRef, ...]] | None:
        """One shard's index partial alone (a shard-pruned probe).

        Builds (and caches) only the requested shard's partial, so a
        probe whose key hashes to shard *s* never pays for the other
        shards' index maintenance.  ``None`` when the extent is not
        sharded under the live layout — the caller falls back to the
        full index.
        """
        parts = shards.partition(extent, ee, oe, version)
        if parts is None:
            return None
        return self._partial(oe, version, extent, attr, shard, parts[shard])

    def _partial(
        self, oe: "ObjectEnv", version: int, extent: str, attr: str,
        shard: int, members: frozenset[str],
    ) -> dict[Query, tuple[OidRef, ...]]:
        from repro.exec.runtime import build_attr_index

        return self._lookup(
            (extent, attr, shard), version,
            lambda: build_attr_index(oe, members, attr),
        )

    def note_write(self, c: Commit) -> None:
        """Theorem 5 maintenance: evict indexes on written extents (a
        partial only when its shard was written), promote the rest."""

        def touched(key, _) -> bool:
            extent, _, shard = key
            if extent not in c.extents:
                return False
            per = None if c.shard_adds is None else c.shard_adds.get(extent)
            return shard is None or per is None or shard in per

        with self._lock:
            apply_commit(self._indexes, c, touched)

    def clear(self) -> None:
        with self._lock:
            self._indexes.clear()

    def snapshot(self) -> dict[str, int]:
        """``{"Extent.attr": built_at_version}`` for every live index,
        ``"Extent.attr#shard"`` for a shard's partial."""
        with self._lock:
            labels = {
                f"{extent}.{attr}" + ("" if shard is None else f"#{shard}"):
                    version
                for (extent, attr, shard), (version, _) in self._indexes.items()
            }
        return dict(sorted(labels.items()))


class ClosureIndex:
    """Parent positions over one attribute's reverse reference forest.

    Covers every object of one reachable-closure ``classes`` cone; the
    attribute is single-valued, so the reference graph is *functional*
    (out-degree ≤ 1) and its reverse is a forest whenever the graph is
    acyclic.  A breadth-first pass from the forest's roots gives each
    node a position: ``order[i]`` is the node at position ``i``,
    ``pre[oid]`` the position of ``oid`` and ``parent[i]`` the position
    of its attribute target (``-1`` at a root).  The unbounded closure
    of a start set is the union of its nodes' parent chains, so
    :meth:`closure_of` is integer work in O(|closure|) — no store
    access, no per-node record decoding — reusable across queries
    until a covered class is written (Theorem 5 discipline in
    :class:`ClosureIndexes`).

    ``cyclic`` / ``usable`` are fallback markers: a cycle breaks the
    forest property and a link leaving the indexed node set (dangling
    oid, schema-escaping store) breaks coverage — either way the RED
    route must fall back to the semi-naive chase, which also surfaces
    the dangling-oid error with the machine's exact message.
    """

    __slots__ = (
        "attr", "classes", "cyclic", "usable", "pre", "order", "parent",
        "_extent_closures",
    )

    def __init__(
        self,
        attr: str,
        classes: frozenset[str],
        *,
        cyclic: bool = False,
        usable: bool = True,
        pre: dict[str, int] | None = None,
        order: list[str] | None = None,
        parent: list[int] | None = None,
    ):
        self.attr = attr
        self.classes = classes
        self.cyclic = cyclic
        self.usable = usable
        self.pre = pre or {}
        self.order = order or []
        self.parent = parent or []
        self._extent_closures: dict[str, frozenset[str]] = {}

    def __len__(self) -> int:
        return len(self.order)

    def closure_of_extent(self, ee, extent: str) -> frozenset[str] | None:
        """The closure of a whole extent, memoized on the index.

        The Theorem 5 discipline guarantees a cone extent's membership
        cannot change while this index lives (any ``A``/``U`` touching
        a cone class evicts it), so the answer is walked once per
        (index, extent) and reused verbatim by every later query:
        repeated extent-sourced traversals are a dictionary hit.
        """
        cached = self._extent_closures.get(extent)
        if cached is None:
            cached = self.closure_of(ee.members(extent))
            if cached is not None:
                self._extent_closures[extent] = cached
        return cached

    def closure_of(self, start: Iterable[str]) -> frozenset[str] | None:
        """The unbounded reachable set of ``start``, or None on fallback."""
        if self.cyclic or not self.usable:
            return None
        pre = self.pre
        parent = self.parent
        seen: set[int] = set()
        add = seen.add
        for oid in start:
            i = pre.get(oid)
            if i is None:
                return None  # a start object outside the indexed cone
            while i >= 0 and i not in seen:
                add(i)
                i = parent[i]
        order = self.order
        return frozenset(order[i] for i in seen)


def build_closure_index(
    schema: Schema,
    ee: "ExtentEnv",
    oe: "ObjectEnv",
    attr: str,
    classes: frozenset[str],
) -> ClosureIndex:
    """Position the reverse reference forest of ``attr`` over
    ``classes`` breadth-first from its roots."""

    def target_of(rec: ObjectRecord) -> str | None:
        for a, v in rec.attrs:
            if a == attr:
                return v.name if isinstance(v, OidRef) else None
        return None

    nodes: dict[str, str | None] = {}  # oid -> parent oid (its attr target)
    for cname in sorted(classes):
        try:
            extent = schema.class_extent(cname)
        except Exception:
            continue
        for oid in ee.members(extent):
            nodes[oid] = target_of(oe.get(oid))

    children: dict[str, list[str]] = {}
    order: list[str] = []  # the roots, then every node after its parent
    for oid in sorted(nodes):
        target = nodes[oid]
        if target is None:
            order.append(oid)
        elif target not in nodes:
            # the chain leaves the cone: dangling oid or a store that
            # escaped the declared schema — the chase must handle it
            return ClosureIndex(attr, classes, usable=False)
        else:
            children.setdefault(target, []).append(oid)
    for oid in order:  # visits what it appends: one breadth-first pass
        order.extend(children.get(oid, ()))
    if len(order) != len(nodes):
        # some node was never reached from a root: the functional graph
        # contains a cycle — mark it and let the chase converge instead
        return ClosureIndex(attr, classes, cyclic=True)
    pre = {oid: i for i, oid in enumerate(order)}
    parent = [
        pre[target] if (target := nodes[oid]) is not None else -1
        for oid in order
    ]
    return ClosureIndex(attr, classes, pre=pre, order=order, parent=parent)


class ClosureIndexes:
    """Persistent closure indexes for unbounded ``traverse`` (RED route).

    Same discipline as :class:`AttributeIndexes`, but the invalidation
    granularity is the *reachable-closure cone* an index covers, not a
    single extent: an ``A(C)`` commit drops exactly the indexes whose
    cone contains ``C`` (a new ``C`` object joins their node set) and
    promotes every other index to the new version; ``U`` atoms rewrite
    reference values anywhere, so everything drops — the Theorem 5
    bound, verbatim.  An index is built from EE/OE alone, so a shard
    layout does not affect it.
    """

    def __init__(self):
        self._indexes: dict[
            tuple[str, frozenset[str]], tuple[int, ClosureIndex]
        ] = {}
        self.rebuilds = 0
        self._lock = threading.RLock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._indexes)

    def get(
        self,
        schema: Schema,
        ee: "ExtentEnv",
        oe: "ObjectEnv",
        version: int,
        attr: str,
        classes: frozenset[str],
    ) -> ClosureIndex:
        """The closure index for ``attr`` over ``classes`` at ``version``."""
        key = (attr, classes)
        with self._lock:
            hit = self._indexes.get(key)
            if hit is not None and hit[0] == version:
                return hit[1]
            idx = build_closure_index(schema, ee, oe, attr, classes)
            keep_newest(self._indexes, key, (version, idx))
            self.rebuilds += 1
            return idx

    def note_write(self, c: Commit) -> None:
        """Theorem 5 maintenance: evict by cone membership, else promote."""
        writes = c.effect.writes()
        with self._lock:
            apply_commit(
                self._indexes, c, lambda _, entry: writes & entry[1].classes
            )

    def snapshot(self) -> dict[str, dict]:
        """``{"attr over {classes}": {...}}`` for the health surface."""
        with self._lock:
            out: dict[str, dict] = {}
            for (attr, classes), (version, idx) in sorted(
                self._indexes.items(), key=lambda kv: (kv[0][0], sorted(kv[0][1]))
            ):
                label = f"{attr} over {{{', '.join(sorted(classes))}}}"
                out[label] = {
                    "version": version,
                    "nodes": len(idx),
                    "cyclic": idx.cyclic,
                    "usable": idx.usable,
                }
            return out


class OidSupply:
    """Fresh-oid generator: ``o ∉ dom(OE)`` of the (New) rule.

    Oids are strings ``@C_n``.  The supply is the one *mutable* piece of
    the runtime — freshness is global by construction, which is exactly
    what the paper's side condition requires.  Forked explorations may
    share a supply safely: sharing only makes oids "fresher than
    necessary", which the bijection ∼ absorbs.

    The counter is observable (:meth:`state`) and monotonically
    restorable (:meth:`advance_to`) so the durability layer can persist
    it: a recovered database must never re-issue an oid that a logged
    commit already spent.  Like transaction rollback, recovery only ever
    moves the counter *forward* — a rewound supply could collide with a
    surviving object, while an over-advanced one merely yields oids
    "fresher than necessary", which ∼ absorbs.
    """

    def __init__(self, start: int = 0):
        self._next = start
        self._lock = threading.Lock()

    def fresh(self, cname: str, oe: ObjectEnv) -> str:
        """A fresh oid for a new ``cname`` object, not in ``oe``."""
        with self._lock:
            while True:
                n = self._next
                self._next += 1
                oid = f"@{cname}_{n}"
                if oid not in oe:
                    return oid

    def state(self) -> int:
        """The next counter value this supply would consider."""
        with self._lock:
            return self._next

    def advance_to(self, n: int) -> None:
        """Ensure the counter is at least ``n`` (never rewinds)."""
        with self._lock:
            if n > self._next:
                self._next = n


def column_values(
    oe: ObjectEnv, members: Iterable[str], attr: str
) -> Iterator[Query]:
    """Yield ``attr``'s value for each member oid — one column's data.

    The single scan primitive shared by the statistics catalog's column
    builds and incremental folds (:mod:`repro.db.statistics`): callers
    see values in membership-iteration order and never touch the
    records themselves.
    """
    for oid in members:
        yield oe.get(oid).attr(attr)


def populate(
    schema: Schema,
    ee: ExtentEnv,
    oe: ObjectEnv,
    supply: OidSupply,
    cname: str,
    attrs: Iterable[tuple[str, Query]],
) -> tuple[ExtentEnv, ObjectEnv, OidRef]:
    """Insert one object directly (test/bootstrap helper, not a reduction).

    Performs the same EE/OE updates as the (New) rule — the object joins
    the extent of its class — but without going through the machine.
    """
    oid = supply.fresh(cname, oe)
    rec = ObjectRecord(cname, tuple(attrs))
    extent = schema.class_extent(cname)
    return ee.with_member(extent, oid), oe.with_object(oid, rec), OidRef(oid)
