"""Differential certification of durability under concurrent batches.

Twin databases are built from the same seed — identical random
schemas, stores and oid supplies (the idiom of
``test_sched_differential``).  One is volatile and runs every batch
sequentially in admission order (the reference semantics); the other
journals into a write-ahead log and runs the same batches through
``run_many(workers=3)``.  Because writers commit in admission order
under the commit lock, **log order = admission order**, so the j-th
log record corresponds to the reference run's j-th committed write.

After every batch the suite crashes the durable twin *on paper*: it
copies the checkpoint plus a truncated log — cut at a record boundary
and again mid-record — recovers from the copy, and asserts the result
is ∼-equivalent to the reference run's state after exactly that many
committed writes.  A final full-log recovery must match the reference
end state.  The driver's acceptance bar is ≥ 200 seeded batches with
zero divergences; this suite runs 40 seeds × 5 batches = 200.
"""

import random
import shutil
import struct

import pytest

from repro.db import recovery
from repro.db.database import Database
from repro.db.wal import MAGIC
from repro.metatheory.generators import (
    QueryGenerator,
    make_random_schema,
    make_random_store,
)
from repro.semantics.bijection import equivalent

N_SEEDS = 40
BATCHES_PER_SEED = 5
QUERIES_PER_BATCH = 6
WORKERS = 3

_FRAME = struct.Struct(">II")


def _build_db(seed: int) -> Database:
    rng = random.Random(71_000 + seed)
    schema = make_random_schema(rng)
    ee, oe, supply = make_random_store(schema, rng)
    db = Database(schema)
    db.ee, db.oe = ee, oe
    db.supply = supply
    return db


def _twins(seed: int, wal_dir: str):
    db_ref = _build_db(seed)
    db_wal = _build_db(seed)
    assert db_ref.ee == db_wal.ee and db_ref.oe == db_wal.oe
    db_wal.attach_wal(wal_dir)
    gen = QueryGenerator(
        db_ref.schema,
        db_ref.oe,
        random.Random(72_000 + seed),
        allow_new=True,
        allow_methods=True,
        max_depth=3,
    )
    return db_ref, db_wal, gen


def _reference_run(db: Database, sources, states: list) -> None:
    """Sequential semantics; appends the state after each logged commit.

    The durable twin appends one record per successful write-effect
    statement, so the reference grows ``states`` on exactly those.
    """
    for src in sources:
        try:
            q = db.parse(src)
            db.typecheck_with_effect(q)
            res = db.run(q)
        except Exception:  # noqa: BLE001 - failures commit nothing
            continue
        if res.effect.writes():
            states.append((db.ee, db.oe))


def _record_boundaries(raw: bytes) -> list[int]:
    boundaries = [len(MAGIC)]
    off = len(MAGIC)
    while off < len(raw):
        length, _ = _FRAME.unpack_from(raw, off)
        off += _FRAME.size + length
        boundaries.append(off)
    return boundaries


def _recover_crashed_copy(wal_dir: str, crash_dir: str, log_bytes: bytes):
    shutil.copy(
        recovery.checkpoint_path(wal_dir), recovery.checkpoint_path(crash_dir)
    )
    with open(recovery.wal_path(crash_dir), "wb") as fh:
        fh.write(log_bytes)
    return recovery.recover(crash_dir, attach=False).db


@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_recovery_matches_some_sequential_prefix(seed, tmp_path):
    wal_dir = str(tmp_path / "durable")
    crash_dir = str(tmp_path / "crash")
    (tmp_path / "crash").mkdir()
    db_ref, db_wal, gen = _twins(seed, wal_dir)
    one = db_ref.parse("1")
    rng = random.Random(73_000 + seed)
    # ref_states[j] = reference state after j committed writes; index 0
    # is the initial checkpoint the durable twin wrote at attach time
    ref_states = [(db_ref.ee, db_ref.oe)]

    for batch_no in range(BATCHES_PER_SEED):
        sources = [
            gen.query(gen.random_type()) for _ in range(QUERIES_PER_BATCH)
        ]
        _reference_run(db_ref, sources, ref_states)
        db_wal.run_many(sources, workers=WORKERS)
        label = f"seed={seed} batch={batch_no}"

        # live states agree after every batch (WAL must not perturb
        # the schedule) …
        assert equivalent(
            one, db_ref.ee, db_ref.oe, one, db_wal.ee, db_wal.oe
        ), f"{label}: live EE/OE diverge"

        raw = open(recovery.wal_path(wal_dir), "rb").read()
        boundaries = _record_boundaries(raw)
        assert len(boundaries) == len(ref_states), (
            f"{label}: {len(boundaries) - 1} log records != "
            f"{len(ref_states) - 1} reference commits"
        )

        # … and a crash at a random record boundary recovers exactly
        # the reference prefix with that many commits …
        k = rng.randrange(len(boundaries))
        db_crash = _recover_crashed_copy(
            wal_dir, crash_dir, raw[: boundaries[k]]
        )
        ref_ee, ref_oe = ref_states[k]
        assert equivalent(
            one, ref_ee, ref_oe, one, db_crash.ee, db_crash.oe
        ), f"{label}: boundary crash at record {k} is not prefix {k}"

        # … while a crash *inside* record k+1 tears it off, landing on
        # the same prefix
        if k + 1 < len(boundaries):
            cut = rng.randrange(boundaries[k] + 1, boundaries[k + 1])
            db_torn = _recover_crashed_copy(wal_dir, crash_dir, raw[:cut])
            assert equivalent(
                one, ref_ee, ref_oe, one, db_torn.ee, db_torn.oe
            ), f"{label}: torn crash at byte {cut} is not prefix {k}"

    # a full-log recovery is the whole reference history
    raw = open(recovery.wal_path(wal_dir), "rb").read()
    db_final = _recover_crashed_copy(wal_dir, crash_dir, raw)
    assert equivalent(
        one, db_ref.ee, db_ref.oe, one, db_final.ee, db_final.oe
    ), f"seed={seed}: full recovery diverges from the reference end state"
    db_wal.close()


def test_total_batch_count_meets_acceptance_bar():
    assert N_SEEDS * BATCHES_PER_SEED >= 200
