"""Unit tests for the random generators (repro.metatheory.generators)."""

import random

import pytest

from repro.lang.ast import New
from repro.lang.traversal import walk
from repro.metatheory.generators import (
    QueryGenerator,
    make_random_schema,
    make_random_store,
)
from repro.model.types import ClassType, SetType
from repro.typing.checker import check_query
from repro.typing.context import TypeContext

SEEDS = range(20)


class TestRandomSchemas:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_schemas_are_well_formed(self, seed):
        # Schema() validates on construction; reaching here is the test
        schema = make_random_schema(random.Random(seed))
        assert schema.class_names()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_every_class_has_extent(self, seed):
        schema = make_random_schema(random.Random(seed))
        for c in schema.class_names():
            assert schema.extent_class(schema.class_extent(c)) == c


class TestRandomStores:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_objects_respect_schema(self, seed):
        rng = random.Random(seed)
        schema = make_random_schema(rng)
        ee, oe, _ = make_random_store(schema, rng)
        for oid, rec in oe.items():
            declared = dict(schema.atypes(rec.cname))
            assert set(a for a, _ in rec.attrs) == set(declared)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_every_class_inhabited(self, seed):
        rng = random.Random(seed)
        schema = make_random_schema(rng)
        ee, oe, _ = make_random_store(schema, rng)
        classes_present = {rec.cname for _, rec in oe.items()}
        assert classes_present == schema.class_names()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_object_refs_are_live_and_well_classed(self, seed):
        from repro.lang.ast import OidRef

        rng = random.Random(seed)
        schema = make_random_schema(rng)
        ee, oe, _ = make_random_store(schema, rng)
        for oid, rec in oe.items():
            for a, v in rec.attrs:
                if isinstance(v, OidRef):
                    target = oe.get(v.name)  # live
                    want = dict(schema.atypes(rec.cname))[a]
                    assert isinstance(want, ClassType)
                    assert schema.hierarchy.is_subclass(target.cname, want.name)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_extents_consistent_with_oe(self, seed):
        rng = random.Random(seed)
        schema = make_random_schema(rng)
        ee, oe, _ = make_random_store(schema, rng)
        for e in ee.names():
            for oid in ee.members(e):
                assert oe.class_of(oid) == ee.class_of(e)


class TestQueryGenerator:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_generated_queries_are_well_typed(self, seed):
        """Type-directed generation agrees with the Figure 1 checker."""
        rng = random.Random(seed)
        schema = make_random_schema(rng)
        ee, oe, _ = make_random_store(schema, rng)
        gen = QueryGenerator(schema, oe, rng, max_depth=5)
        ctx = TypeContext(
            schema,
            base={oid: ClassType(rec.cname) for oid, rec in oe.items()},
        )
        for _ in range(10):
            target = gen.random_type()
            q = gen.query(target)
            got = check_query(ctx, q)
            assert schema.subtype(got, target), f"{q} : {got} ≰ {target}"

    @pytest.mark.parametrize("seed", range(10))
    def test_allow_new_false_is_functional(self, seed):
        rng = random.Random(seed)
        schema = make_random_schema(rng)
        ee, oe, _ = make_random_store(schema, rng)
        gen = QueryGenerator(schema, oe, rng, allow_new=False, max_depth=5)
        for _ in range(10):
            q = gen.query(gen.random_type())
            assert not any(isinstance(n, New) for n in walk(q))

    def test_determinism_of_generation(self):
        """Same seed ⇒ same query (replayability)."""

        def one(seed):
            rng = random.Random(seed)
            schema = make_random_schema(rng)
            ee, oe, _ = make_random_store(schema, rng)
            gen = QueryGenerator(schema, oe, rng, max_depth=4)
            return gen.query(SetType(gen.random_type(depth=0)))

        assert one(99) == one(99)

    def test_depth_zero_produces_leaves(self):
        rng = random.Random(5)
        schema = make_random_schema(rng)
        ee, oe, _ = make_random_store(schema, rng)
        gen = QueryGenerator(schema, oe, rng, max_depth=0)
        from repro.lang.traversal import query_depth

        for _ in range(20):
            q = gen.query(gen.random_type(depth=0))
            assert query_depth(q) <= 2  # literals / oids / tiny records
