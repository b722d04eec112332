"""Differential certification of the scheduler (Theorems 7 & 8).

Twin databases are built from the same seed — identical schemas,
stores and oid supplies.  One runs each batch sequentially in
admission order through the plain ``Database.run`` path (the reference
semantics); the other runs the *same* batch through
``run_many(workers=4)``.  Every outcome must agree up to the paper's
oid bijection ∼, and so must the final (EE, OE) after every batch —
batches are cumulative per seed, so a single divergence would compound
and be caught by the next state check.

The driver's acceptance bar is ≥ 300 mixed read/write batches with
zero divergences; this suite runs 60 seeds × 5 batches = 300.
"""

import random

import pytest

from repro.db.database import Database
from repro.metatheory.generators import (
    QueryGenerator,
    make_random_schema,
    make_random_store,
)
from repro.semantics.bijection import equivalent, values_equivalent

N_SEEDS = 60
BATCHES_PER_SEED = 5
QUERIES_PER_BATCH = 6
WORKERS = 4


def _build_db(seed: int) -> Database:
    rng = random.Random(41_000 + seed)
    schema = make_random_schema(rng)
    ee, oe, supply = make_random_store(schema, rng)
    db = Database(schema)
    db.ee, db.oe = ee, oe
    db.supply = supply
    return db


def _twins(seed: int) -> tuple[Database, Database, QueryGenerator]:
    """Two databases with bit-identical state, plus a query generator.

    Both are grown from the same rng seed, so extents, objects *and*
    oid spellings coincide — generated queries (which may embed oid
    literals from the store) parse against either.
    """
    db_seq = _build_db(seed)
    db_par = _build_db(seed)
    assert db_seq.ee == db_par.ee and db_seq.oe == db_par.oe
    gen = QueryGenerator(
        db_seq.schema,
        db_seq.oe,
        random.Random(42_000 + seed),
        allow_new=True,
        allow_methods=True,
        max_depth=3,
    )
    return db_seq, db_par, gen


def _reference_run(db: Database, sources) -> list[tuple[str, object]]:
    """The sequential admission-order semantics the scheduler must match."""
    outs: list[tuple[str, object]] = []
    for src in sources:
        try:
            q = db.parse(src)
            db.typecheck_with_effect(q)
            res = db.run(q)
            outs.append(("ok", res.value))
        except Exception as exc:  # noqa: BLE001 - the *type* is the spec
            outs.append(("error", type(exc)))
    return outs


@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_run_many_matches_sequential_semantics(seed):
    db_seq, db_par, gen = _twins(seed)
    one = db_seq.parse("1")
    for batch_no in range(BATCHES_PER_SEED):
        sources = [
            gen.query(gen.random_type()) for _ in range(QUERIES_PER_BATCH)
        ]
        expected = _reference_run(db_seq, sources)
        result = db_par.run_many(sources, workers=WORKERS)
        assert len(result) == len(sources)

        for i, (status, payload) in enumerate(expected):
            o = result[i]
            label = f"seed={seed} batch={batch_no} i={i} q={sources[i]}"
            if status == "error":
                assert not o.ok, f"{label}: scheduler succeeded, reference raised"
                assert type(o.error) is payload, (
                    f"{label}: {type(o.error).__name__} != {payload.__name__}"
                )
            else:
                assert o.ok, f"{label}: scheduler raised {o.error!r}"
                assert values_equivalent(
                    payload, db_seq.oe, o.value, db_par.oe
                ), f"{label}: values diverge"

        # cumulative state equivalence up to ∼ after every batch
        assert equivalent(
            one, db_seq.ee, db_seq.oe, one, db_par.ee, db_par.oe
        ), f"seed={seed} batch={batch_no}: final EE/OE diverge"


def test_total_batch_count_meets_acceptance_bar():
    assert N_SEEDS * BATCHES_PER_SEED >= 300
