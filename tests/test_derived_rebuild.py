"""Every derived structure equals a from-scratch rebuild after every commit.

The database keeps five tables derived from EE/OE — the plan cache's
results, the attribute indexes (whole-extent and per-shard partials),
the closure indexes, the column statistics and the shard
partitions — and maintains all of them across commits by one Theorem 5
rule (:func:`repro.db.store.apply_commit`): evict what a write
touched, fold an ``A``-only commit's adds forward where possible,
promote the rest.
A promotion is a claim that the entry is still exact at the new store
version.  This suite checks every such claim: it replays the existing
scheduler, shard, WAL and traverse differential corpora (their own
generators and seeds), plus a seeded corpus of §5 ``U`` commits whose
updates reach state through reference chains, with a hook after each
commit's maintenance that rebuilds every entry stamped with the new
version and compares.  Compiled plans survive every data write, so the
hook also runs every live plan in the production context and compares
it with big-step.  The oid-type memo (the oid part of Q, which every
typing context reads by reference) is compared with Q rebuilt from OE
after every commit too.

A replica replays the primary's additive ``delta`` records as commits
of its own, so the same hook also watches a replica's database: a
replicated corpus checks every entry at the replica's version after
each applied record's maintenance, while the primary's batches pin
some reads to the replica and route others to it.
"""

from __future__ import annotations

import random

import pytest

from repro.db.database import Database
from repro.db.statistics import ColumnStats
from repro.db.store import build_closure_index
from repro.exec.engine import execute_plan
from repro.exec.runtime import build_attr_index
from repro.lang.ast import IntLit, MethodCall, OidRef
from repro.methods.ast import AccessMode
from repro.model.types import ClassType
from repro.semantics.bigstep import evaluate_bigstep
from repro.semantics.bijection import values_equivalent
from tests.test_sched_differential import _twins as sched_twins
from tests.test_shard_differential import (
    REGIONS,
    build_twins,
    make_statement,
)
from tests.test_traverse_differential import (
    DEPTHS,
    SHAPES,
    pick_start,
    query_src,
)
from tests.test_wal_differential import _twins as wal_twins
from tests.traverse_helpers import graph_db

KINDS = (
    "results", "plans", "attr_indexes", "attr_partials", "shard_parts",
    "closure_indexes", "stats", "oid_types",
)


def _as_sets(idx: dict) -> dict:
    return {value: frozenset(refs) for value, refs in idx.items()}


def _same(value, db, big) -> bool:
    # read-only: both sides name the same objects, so canonical values
    # are equal; ∼ is the fallback for non-canonical forms
    return value == big.value or values_equivalent(
        value, db.oe, big.value, big.oe
    )


def check_results(db, counts) -> None:
    """Every current cached result, and every surviving plan run in the
    production context, equals big-step at the new version."""
    version = db._state_version
    cache = db._plan_cache
    with cache._lock:
        entries = list(cache._entries.items())
        results = dict(cache._results)
    # a replan would rewrite the plan under test
    ratio, db.replan_ratio = db.replan_ratio, None
    try:
        for (q, _, defs_version), entry in entries:
            if defs_version != db._defs_version:
                continue
            big = evaluate_bigstep(db.machine, db.ee, db.oe, q)
            result = results.get(entry)
            if result is not None and result[0] == version:
                assert _same(result[1], db, big), (
                    f"cached result of {q} is stale at version {version}"
                )
                counts["results"] += 1
            if entry.plan is not None:
                value, _, _ = execute_plan(db, entry)
                assert _same(value, db, big), (
                    f"plan of {q} is wrong at version {version}"
                )
                counts["plans"] += 1
    finally:
        db.replan_ratio = ratio


def check_attr_indexes(db, counts) -> None:
    """Every current whole-extent index and per-shard partial equals a
    fresh build over the extent, or over a fresh split of it."""
    version, ee, oe = db._state_version, db.ee, db.oe
    indexes = db._indexes
    with indexes._lock:
        items = list(indexes._indexes.items())
    for (extent, attr, shard), (v, idx) in items:
        if v != version:
            continue
        members = ee.members(extent)
        if shard is None:
            kind, label = "attr_indexes", f"index {extent}.{attr}"
        else:
            spec = db._shards.spec(extent)
            members = db._shards._split(spec, members, oe)[shard]
            kind, label = "attr_partials", f"partial {extent}.{attr}#{shard}"
        fresh = build_attr_index(oe, members, attr)
        assert _as_sets(idx) == _as_sets(fresh), label
        counts[kind] += 1


def check_shard_parts(db, counts) -> None:
    version, ee, oe = db._state_version, db.ee, db.oe
    shards = db._shards
    with shards._lock:
        parts = list(shards._parts.items())
    for extent, (v, got) in parts:
        if v == version:
            want = shards._split(shards.spec(extent), ee.members(extent), oe)
            assert got == want, f"partition of {extent}"
            counts["shard_parts"] += 1


def check_closure_indexes(db, counts) -> None:
    version, ee, oe = db._state_version, db.ee, db.oe
    store = db._closure_indexes
    with store._lock:
        items = list(store._indexes.items())
    for (attr, classes), (v, idx) in items:
        if v != version:
            continue
        fresh = build_closure_index(db.schema, ee, oe, attr, classes)
        for field in ("cyclic", "usable", "pre", "order", "parent"):
            assert getattr(idx, field) == getattr(fresh, field), (
                f"closure index {attr} over {sorted(classes)}: {field}"
            )
        for extent, closure in list(idx._extent_closures.items()):
            assert closure == fresh.closure_of_extent(ee, extent), (
                f"memoised closure of {extent}"
            )
        counts["closure_indexes"] += 1


def check_stats(db, counts) -> None:
    """Folding is exact on counts, distincts and frequencies; the folded
    histogram only has to cover the same rows and range as a rebuild's
    (folds extend buckets instead of re-cutting them)."""
    version, ee, oe = db._state_version, db.ee, db.oe
    catalog = db._stats
    with catalog._lock:
        columns = list(catalog._columns.items())
    for (extent, attr), (v, stats) in columns:
        if v != version:
            continue
        fresh = ColumnStats.build(extent, attr, oe, ee.members(extent))
        label = f"stats {extent}.{attr}"
        assert stats.rows == fresh.rows, label
        assert stats._numeric == fresh._numeric, label
        assert stats.distinct() == fresh.distinct(), label
        if stats._exact is not None and fresh._exact is not None:
            assert stats._exact == fresh._exact, label
            assert stats._freq == fresh._freq, label
        if stats.has_histogram and fresh.has_histogram:
            assert sum(stats._counts) == stats._hist_rows == stats.rows, label
            assert stats._min == fresh._min, label
            assert stats._bounds[-1] == fresh._bounds[-1], label
        counts["stats"] += 1


def check_oid_types(db, counts) -> None:
    """§3.2's Q restricted to oids: every live oid at its class in OE."""
    want = {oid: ClassType(rec.cname) for oid, rec in db.oe.items()}
    assert db.oid_types() == want, f"oid types at {db._state_version}"
    counts["oid_types"] += 1


CHECKS = (
    check_results,
    check_attr_indexes,
    check_shard_parts,
    check_closure_indexes,
    check_stats,
    check_oid_types,
)


def watch(db, counts, tally: str = "commits") -> None:
    """Run every rebuild check right after each commit's maintenance,
    counting the commit under ``tally``.

    A failed check is also recorded in ``counts["mismatches"]``: raised
    inside a ``run_many`` commit it would only become that query's
    error, and inside a replica's apply it would quarantine the replica.
    """
    note_write = db._note_write

    def checked(*args, **kwargs):
        note_write(*args, **kwargs)
        counts[tally] += 1
        try:
            for check in CHECKS:
                check(db, counts)
        except AssertionError as exc:
            counts["mismatches"].append(str(exc))
            raise

    db._note_write = checked


@pytest.fixture(scope="module")
def counts():
    counts = dict.fromkeys(("commits", "replica_commits") + KINDS, 0)
    counts["mismatches"] = []
    return counts


@pytest.fixture(autouse=True)
def no_mismatch(counts):
    seen = len(counts["mismatches"])
    yield
    assert counts["mismatches"][seen:] == []


@pytest.mark.parametrize("seed", range(6))
def test_sched_corpus(seed, counts):
    db_seq, db_par, gen = sched_twins(seed)
    for db in (db_seq, db_par):
        db.analyze()
        watch(db, counts)
    for _ in range(4):
        sources = [gen.query(gen.random_type()) for _ in range(6)]
        for src in sources:
            try:
                db_seq.run(src)
            except Exception:  # noqa: BLE001 - failures commit nothing
                pass
        db_par.run_many(sources, workers=4)


@pytest.mark.parametrize("seed", range(6))
def test_shard_corpus(seed, counts):
    sharded, plain = build_twins(seed)
    rng = random.Random(92_000 + seed)
    for db in (sharded, plain):
        db.analyze()
        watch(db, counts)
    for b in range(4):
        batch = [make_statement(rng, f"w{seed}_{b}_{s}")[0] for s in range(6)]
        sharded.run_many(batch, workers=3)
        for src in batch:
            plain.run(src)


@pytest.mark.parametrize("seed", range(4))
def test_wal_corpus(seed, counts, tmp_path):
    _, db_wal, gen = wal_twins(seed, str(tmp_path / "durable"))
    db_wal.analyze()
    watch(db_wal, counts)
    for _ in range(4):
        sources = [gen.query(gen.random_type()) for _ in range(6)]
        db_wal.run_many(sources, workers=3)
    db_wal.close()


@pytest.mark.parametrize("sharded", (False, True))
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_traverse_corpus(shape, sharded, counts):
    rng = random.Random(f"{shape}-0")
    edges = SHAPES[shape](rng)
    db = graph_db(edges)
    if sharded:
        db.shard("Ref", k=4)
    db.analyze()
    watch(db, counts)
    leaf = None
    for i, depth in enumerate(DEPTHS):
        source, _ = pick_start(rng, edges)
        db.run(query_src(source, depth))
        db.run(query_src("refs", None))  # warm the closure index
        # alternate writes outside the cone (promote) and inside (evict)
        if i % 3 == 0:
            db.run(f"new Other(x: {i})")
        elif i % 3 == 1:
            leaf = db.insert("Node", tag=100 + i)
        else:
            db.run(f"new Ref(tag: {100 + i}, next: {leaf.name})")
    db.run_many(
        [
            query_src("refs", None),
            "new Node(tag: 999)",
            query_src("nodes", None),
            "new Other(x: 999)",
            query_src("refs", 2),
        ],
        workers=4,
    )


@pytest.mark.parametrize("seed", range(3))
def test_replica_corpus(seed, counts, tmp_path):
    primary, _ = build_twins(seed)  # Persons and Orders sharded by region
    primary.attach_wal(str(tmp_path / "primary"), sync=False)
    rset = primary.replicate(1, auto_poll=True)
    replica = rset.replicas[0].db
    replica.analyze()
    watch(replica, counts, tally="replica_commits")
    rng = random.Random(94_000 + seed)
    for b in range(5):
        # two reads admitted before any writer (pinned to the replica),
        # then a mix whose reads after a writer of their class are
        # routed to the replica once it applied that writer's record
        region = f"r{rng.randrange(REGIONS)}"
        batch = [
            f'{{ p.name | p <- Persons, p.region = "{region}" }}',
            "{ o.qty | o <- Orders, o.qty > 3 }",
        ] + [make_statement(rng, f"r{seed}_{b}_{s}")[0] for s in range(6)]
        primary.run_many(batch, workers=3)
    assert rset.replicas[0].db is replica  # no resync swapped it out
    assert rset.pinned_total > 0
    assert rset.routed_total > rset.pinned_total
    primary.close()


#: A §5 schema whose updates reach state through a reference chain.
BANK_ODL = """
class Account extends Object (extent Accounts) {
    attribute int balance;
    int deposit(int amount) effect U(Account) {
        this.balance := this.balance + amount;
        return this.balance;
    }
}
class Owner extends Object (extent Owners) {
    attribute string name;
    attribute Account acct;
}
"""

BANK_READS = (
    # effect {R(Owner)}: it reads Account balances, yet no U(Account)
    # atom meets its R set
    "{ o.acct.balance | o <- Owners }",
    "{ struct(n: o.name, b: o.acct.balance) | o <- Owners, "
    "o.acct.balance > 20 }",
    "{ a.balance | a <- Accounts, a.balance > 15 }",
    "size(Owners)",
)


@pytest.mark.parametrize("seed", range(3))
def test_update_corpus(seed, counts):
    rng = random.Random(93_000 + seed)
    db = Database.from_odl(BANK_ODL, method_mode=AccessMode.EFFECTFUL)
    for i in range(3):
        acct = db.insert("Account", balance=rng.randrange(30))
        db.insert("Owner", name=f"o{i}", acct=acct)
    db.analyze()
    watch(db, counts)
    for step in range(16):
        for src in rng.sample(BANK_READS, 3):
            db.run(src)
        roll = rng.random()
        if roll < 0.5:
            oid = rng.choice(sorted(db.extent("Accounts")))
            amount = IntLit(rng.randrange(1, 9))
            db.run(MethodCall(OidRef(oid), "deposit", (amount,)))
        elif roll < 0.7:
            db.run(
                f"{{ a.deposit(2) | a <- Accounts, "
                f"a.balance < {rng.randrange(40)} }}"
            )
        elif roll < 0.85:
            db.run(f"new Account(balance: {rng.randrange(30)})")
        else:
            acct = db.insert("Account", balance=rng.randrange(30))
            db.insert("Owner", name=f"n{step}", acct=acct)


def test_every_kind_was_compared(counts):
    # runs after the corpus tests above: a rebuild check that never
    # found an entry to compare would pass vacuously
    if not counts["commits"]:
        pytest.skip("only meaningful after the corpus tests")
    for kind in ("replica_commits",) + KINDS:
        assert counts[kind] > 0, f"no {kind} were ever checked: {counts}"
