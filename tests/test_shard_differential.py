"""Differential certification: the sharded engine ≡ the unsharded one.

Twin databases carry identical seeded contents; one declares 8-way
attribute sharding on both classes, the other stays unsharded.  Every
seeded batch mixes confined reads, unconfined scans, hash joins and
single-shard / dynamic-shard writers; the sharded twin runs it through
``run_many`` (per-shard conflict refinement, merge-installs, pruned
plans), the unsharded twin sequentially.  Read answers are oid-free by
construction and must match exactly; writers may commute across
disjoint shards, so final states are compared up to the §3 bijection
(``∼``).  The driver's acceptance bar is ≥ 200 batches with zero
divergences; this suite runs 40 seeds × 5 batches = 200.

Two more sections certify the ``shard-delta`` durability path under the
same refinement: a crash-point sweep over a ``run_many``-produced log,
and replica freshness — a replica behind on shard *i* still serves
reads provably confined to shard *j ≠ i* and never serves stale ones.
"""

import random

import pytest

from repro.db import recovery
from repro.db.database import Database
from repro.db.shards import shard_of
from repro.db.wal import truncate_to
from repro.lang.ast import IntLit, StrLit
from repro.semantics.bijection import equivalent
from repro.lang.values import make_set_value  # noqa: F401  (doc pointer)

N_SEEDS = 40
BATCHES_PER_SEED = 5
STATEMENTS_PER_BATCH = 6
WORKERS = 3
K = 8
REGIONS = 12

ODL = """
class Person extends Object (extent Persons) {
    attribute string name;
    attribute string region;
    attribute int age;
}
class Order extends Object (extent Orders) {
    attribute string item;
    attribute string region;
    attribute int qty;
}
"""


def build_twins(seed: int) -> tuple[Database, Database]:
    rng = random.Random(91_000 + seed)
    sharded = Database.from_odl(ODL)
    plain = Database.from_odl(ODL)
    sharded.shard("Person", k=K, by="region")
    sharded.shard("Order", k=K, by="region")
    rows = [
        ("Person", f"p{i}", f"r{rng.randrange(REGIONS)}", rng.randrange(90))
        for i in range(rng.randrange(20, 40))
    ] + [
        ("Order", f"it{i}", f"r{rng.randrange(REGIONS)}", rng.randrange(9))
        for i in range(rng.randrange(10, 20))
    ]
    for db in (sharded, plain):
        for kind, a, region, n in rows:
            if kind == "Person":
                db.insert("Person", name=a, region=region, age=n)
            else:
                db.insert("Order", item=a, region=region, qty=n)
    return sharded, plain


def make_statement(rng: random.Random, tag: str) -> tuple[str, bool]:
    """One statement and whether it writes (heads are oid-free)."""
    j = rng.randrange(REGIONS)
    t = rng.randrange(90)
    roll = rng.random()
    if roll < 0.18:
        return (
            f'{{ p.name | p <- Persons, p.region = "r{j}" }}',
            False,
        )
    if roll < 0.36:
        return (
            f'{{ p.age | p <- Persons, p.region = "r{j}", p.age > {t} }}',
            False,
        )
    if roll < 0.50:
        return (f"{{ p.name | p <- Persons, p.age > {t} }}", False)
    if roll < 0.62:
        return (
            f'{{ struct(n: p.name, it: o.item) | '
            f'p <- Persons, p.region = "r{j}", '
            f"o <- Orders, p.region = o.region }}",
            False,
        )
    if roll < 0.72:
        return (
            f'{{ o.qty | o <- Orders, o.region = "r{j}", o.qty > 2 }}',
            False,
        )
    if roll < 0.90:
        return (
            f'new Person(name: "{tag}", region: "r{j}", age: {t})',
            True,
        )
    if roll < 0.96:
        return (
            f'new Order(item: "{tag}", region: "r{j}", qty: {t % 9})',
            True,
        )
    # dynamic shard key: the static analysis must refuse to confine it
    return (
        f'{{ new Order(item: "{tag}", region: p.region, qty: 1) '
        f'| p <- Persons, p.region = "r{j}" }}',
        True,
    )


def canon(value) -> object:
    items = getattr(value, "items", None)
    if items is None:
        return value
    return sorted(items, key=repr)


@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_sharded_batches_match_unsharded_reference(seed):
    sharded, plain = build_twins(seed)
    rng = random.Random(92_000 + seed)
    for b in range(BATCHES_PER_SEED):
        batch, writer_flags = [], []
        for s in range(STATEMENTS_PER_BATCH):
            src, writes = make_statement(rng, f"w{seed}_{b}_{s}")
            batch.append(src)
            writer_flags.append(writes)
        res = sharded.run_many(batch, workers=WORKERS)
        got = res.values()
        want = [plain.run(src).value for src in batch]
        for i, (g, w) in enumerate(zip(got, want)):
            if writer_flags[i]:
                # writers answer fresh oids; sizes must agree, names
                # may differ when disjoint-shard writers overlapped
                assert len(getattr(g, "items", [g])) == len(
                    getattr(w, "items", [w])
                ), f"seed {seed} batch {b} stmt {i}: writer arity"
            else:
                assert canon(g) == canon(w), (
                    f"seed {seed} batch {b} stmt {i}: {batch[i]}"
                )
        assert equivalent(
            IntLit(0), sharded.ee, sharded.oe, IntLit(0), plain.ee, plain.oe
        ), f"seed {seed} batch {b}: final states diverged"


def test_total_batch_count_meets_acceptance_bar():
    assert N_SEEDS * BATCHES_PER_SEED >= 200


# ---------------------------------------------------------------------------
# shard-delta durability under run_many
# ---------------------------------------------------------------------------


def test_crash_points_over_scheduled_shard_deltas(tmp_path):
    """Every record-boundary crash of a sharded ``run_many`` log
    recovers to a consistent prefix of the admission order."""
    import shutil

    wal_dir = str(tmp_path / "wal")
    db, _ = build_twins(0)
    db.attach_wal(wal_dir)
    db.checkpoint()
    base = len(db.ee.members("Persons"))
    sizes = [db._wal.size()]
    batch = [
        f'new Person(name: "c{i}", region: "r{i % REGIONS}", age: {i})'
        for i in range(8)
    ]
    res = db.run_many(batch, workers=WORKERS)
    assert not res.errors
    db.close()
    # replay cut at every frame boundary: each prefix must land on
    # base + j rows with every object intact (recovery re-validates)
    raw_path = recovery.wal_path(wal_dir)
    with open(raw_path, "rb") as fh:
        raw = fh.read()
    cuts = []
    from repro.db.wal import MAGIC
    import struct as _struct

    off = len(MAGIC)
    cuts.append(off)
    frame = _struct.Struct(">II")
    while off < len(raw):
        length, _ = frame.unpack_from(raw, off)
        off += frame.size + length
        cuts.append(off)
    for j, cut in enumerate(cuts):
        crash = tmp_path / f"crash{j}"
        crash.mkdir()
        shutil.copy(
            recovery.checkpoint_path(wal_dir),
            recovery.checkpoint_path(str(crash)),
        )
        with open(recovery.wal_path(str(crash)), "wb") as fh:
            fh.write(raw[:cut])
        got = recovery.recover(str(crash), attach=False).db
        assert len(got.ee.members("Persons")) == base + j


# ---------------------------------------------------------------------------
# replica freshness at shard granularity
# ---------------------------------------------------------------------------


def _regions_for_two_distinct_shards() -> tuple[str, str]:
    """Two region literals guaranteed to hash to different shards."""
    first = f"r{0}"
    target = shard_of(StrLit(first), K)
    other = next(
        f"r{i}"
        for i in range(1, 100)
        if shard_of(StrLit(f"r{i}"), K) != target
    )
    return first, other


class TestReplicaShardFreshness:
    def _primary(self, tmp_path) -> Database:
        db, _ = build_twins(3)
        db.attach_wal(str(tmp_path / "wal"))
        db.checkpoint()
        return db

    def test_replica_tracks_per_shard_marks(self, tmp_path):
        db = self._primary(tmp_path)
        rset = db.replicate(1, auto_poll=False)
        rset.poll()
        hot, _ = _regions_for_two_distinct_shards()
        db.insert("Person", name="hot", region=hot, age=1)
        rset.poll()
        marks = rset.replicas[0].marks
        s = shard_of(StrLit(hot), K)
        assert marks[f"Person#{s}"] == db._wal.last_lsn
        db.close()

    def test_lagging_shard_does_not_block_disjoint_reads(self, tmp_path):
        db = self._primary(tmp_path)
        rset = db.replicate(1, auto_poll=False)
        rset.poll()
        hot, cold = _regions_for_two_distinct_shards()
        # the replica is now behind on exactly the hot region's shard
        db.insert("Person", name="fresh", region=hot, age=1)
        routed0 = rset.routed_total
        res = db.run(f'{{ p.name | p <- Persons, p.region = "{cold}" }}')
        assert rset.routed_total == routed0 + 1, "confined read not routed"
        assert "fresh" not in {
            getattr(v, "value", None) for v in res.value.items
        }
        db.close()

    def test_read_of_the_stale_shard_is_not_served_stale(self, tmp_path):
        db = self._primary(tmp_path)
        rset = db.replicate(1, auto_poll=False)
        rset.poll()
        hot, _ = _regions_for_two_distinct_shards()
        db.insert("Person", name="fresh", region=hot, age=1)
        routed0 = rset.routed_total
        res = db.run(f'{{ p.name | p <- Persons, p.region = "{hot}" }}')
        # served by the primary (or degraded) — never a stale answer
        assert rset.routed_total == routed0
        assert "fresh" in {
            getattr(v, "value", None) for v in res.value.items
        }
        db.close()

    def test_oid_literal_class_is_never_confined(self, tmp_path):
        """The read is confined to the cold shard, but names an object
        the replica has not applied yet in the hot one."""
        db = self._primary(tmp_path)
        hot, cold = _regions_for_two_distinct_shards()
        db.insert("Person", name="cold", region=cold, age=1)
        rset = db.replicate(1, auto_poll=False)
        rset.poll()
        o = db.insert("Person", name="fresh", region=hot, age=1)
        text = f'{{ {o.name}.name | p <- Persons, p.region = "{cold}" }}'
        want = db.run(text, engine="bigstep", commit=False).value
        routed0 = rset.routed_total
        assert db.run(text).value == want
        assert rset.routed_total == routed0
        db.close()

    def test_unconfined_read_requires_full_coverage(self, tmp_path):
        db = self._primary(tmp_path)
        rset = db.replicate(1, auto_poll=False)
        rset.poll()
        hot, _ = _regions_for_two_distinct_shards()
        db.insert("Person", name="fresh", region=hot, age=1)
        routed0 = rset.routed_total
        res = db.run("{ p.name | p <- Persons }")
        assert rset.routed_total == routed0  # replica behind on a shard
        assert "fresh" in {
            getattr(v, "value", None) for v in res.value.items
        }
        # after catch-up the same read routes again
        rset.poll()
        db.run("{ p.age | p <- Persons }")
        assert rset.routed_total == routed0 + 1
        db.close()
