"""Recursive `traverse`: syntax, typing, effects, semantics, routing.

Layer-by-layer unit coverage for the `traverse(x in C over attr
[depth<=k])` construct; the ~300-query graph-shape differential harness
lives in ``tests/test_traverse_differential.py``.  The sections follow
the pipeline:

* surface syntax and pretty-printer round-trips;
* the typing rule (result = set of the reachable-class lub) and its
  rejections;
* the static effect rule: ``R`` over the subclass-widened reachable
  closure, with the conservative all-classes fallback when a chain
  escapes the declared schema;
* big-step / small-step semantics: leaves, cycles, depth bounds,
  dangling references, fuel charged per visited node;
* the persistent closure index (parent positions over the reverse
  reference forest) and its Theorem 5 eviction discipline (A evicts exactly the cones containing
  the written class, U drops all, unrelated writes promote);
* budget and fault-injection behavior of the compiled routes, and
  replica freshness over the full reachable set.
"""

from __future__ import annotations

import random

import pytest

from repro.db.database import Database
from repro.db.store import (
    ClosureIndexes,
    Commit,
    ExtentEnv,
    ObjectEnv,
    ObjectRecord,
    build_closure_index,
)
from repro.effects.algebra import Effect, add, read, update
from repro.errors import (
    EvalError,
    FuelExhausted,
    IOQLTypeError,
    StuckError,
    TransientFault,
)
from repro.exec.compiler import compile_plan
from repro.lang.ast import IntLit, OidRef, SetLit, Traverse, Var
from repro.lang.parser import parse_query
from repro.lang.pprint import pretty
from repro.model.closure import (
    closure_read_set,
    reachable_closure,
    result_lub,
)
from repro.model.types import OBJECT
from repro.resilience import faults as fault_injection
from repro.resilience.budget import Budget
from repro.resilience.faults import FaultPlan, FaultRule, inject
from repro.resilience.retry import RetryPolicy
from repro.model.types import ClassType, SetType
from repro.semantics.bigstep import evaluate_bigstep

from tests.traverse_helpers import NODE_REF_ODL, graph_db, oids, reachable


@pytest.fixture(autouse=True)
def _no_leaked_faults():
    yield
    fault_injection.uninstall()


@pytest.fixture
def db():
    # cycle r1->r2->r3->r1, tail r4->leaf
    return graph_db(
        {"r1": "r2", "r2": "r3", "r3": "r1", "r4": "leaf", "leaf": None}
    )


# ---------------------------------------------------------------------------
# Syntax
# ---------------------------------------------------------------------------


class TestSyntax:
    def test_parse_unbounded(self, db):
        q = db.parse("traverse(x in refs over next)")
        assert isinstance(q, Traverse)
        assert q.var == "x" and q.attr == "next" and q.depth is None

    def test_parse_bounded(self, db):
        q = db.parse("traverse(x in refs over next depth <= 3)")
        assert q.depth == 3

    def test_pretty_roundtrip(self, db):
        for src in (
            "traverse(x in refs over next)",
            "traverse(x in refs over next depth <= 0)",
            "traverse(x in refs union nodes over next depth <= 12)",
        ):
            q = db.parse(src)
            assert db.parse(pretty(q)) == q

    def test_traverse_composes_as_expression(self, db):
        q = db.parse("size(traverse(x in refs over next depth <= 1))")
        assert db.run(q, commit=False).value == IntLit(5)

    def test_traverse_as_generator_source(self, db):
        res = db.run(
            "{ x.tag | x <- traverse(x in refs over next) }", commit=False
        )
        assert len(res.value.items) == 5


# ---------------------------------------------------------------------------
# Typing
# ---------------------------------------------------------------------------


class TestTyping:
    def test_result_is_lub_widened(self, db):
        # refs: set<Ref>, next: Node => closure spans {Ref, Node}, lub Node
        t = db.typecheck("traverse(x in refs over next)")
        assert t == SetType(ClassType("Node"))

    def test_node_source_same_lub(self, db):
        t = db.typecheck("traverse(x in nodes over next)")
        assert t == SetType(ClassType("Node"))

    def test_non_set_source_rejected(self, db):
        with pytest.raises(IOQLTypeError, match="traverse"):
            db.typecheck("traverse(x in 3 over next)")

    def test_non_object_elements_rejected(self, db):
        with pytest.raises(IOQLTypeError, match="traverse"):
            db.typecheck("traverse(x in {1, 2} over next)")

    def test_empty_set_source_types(self, db):
        t = db.typecheck("traverse(x in {} over next)")
        assert isinstance(t, SetType)

    def test_unknown_attr_rejected(self, db):
        with pytest.raises(IOQLTypeError, match="not declared"):
            db.typecheck("traverse(x in refs over nosuch)")

    def test_primitive_attr_is_leaf_not_error(self, db):
        # tag: int is declared, so its objects are chase leaves and the
        # traversal is the reflexive closure — not a type error
        t = db.typecheck("traverse(x in nodes over tag)")
        assert t == SetType(ClassType("Node"))

    def test_negative_depth_rejected(self, db):
        q = Traverse("x", Var("refs"), "next", -1)
        with pytest.raises(IOQLTypeError, match="non-negative"):
            db.typecheck(
                Traverse("x", db.parse("refs"), "next", -1)
            ) if False else db.typecheck(q)


# ---------------------------------------------------------------------------
# Static effects / the reachable closure
# ---------------------------------------------------------------------------


class TestEffects:
    def test_closure_is_subclass_widened(self, db):
        # Ref.next : Node, and Ref extends Node, so a Node-typed link
        # may dynamically hold a Ref — the closure spans both.
        eff = db.effect_of("traverse(x in refs over next)")
        assert eff == Effect.of(read("Node"), read("Ref"))

    def test_unrelated_class_not_read(self, db):
        eff = db.effect_of("traverse(x in refs over next)")
        assert "Other" not in eff.reads()

    def test_closure_read_set_helper(self, db):
        assert closure_read_set(db.schema, "Ref", "next") == frozenset(
            {"Node", "Ref"}
        )
        # Node does not declare `next`: the chase stops immediately but
        # still reads Node extents (and Ref's, via subclass widening)
        assert closure_read_set(db.schema, "Node", "next") == frozenset(
            {"Node", "Ref"}
        )

    def test_escape_fallback_reads_everything(self, db):
        classes, escaped = reachable_closure(db.schema, OBJECT, "next")
        assert escaped
        assert closure_read_set(db.schema, OBJECT, "next") == frozenset(
            db.schema.class_names()
        )

    def test_result_lub_helper(self, db):
        assert result_lub(db.schema, "Ref", "next") == "Node"
        assert result_lub(db.schema, OBJECT, "next") == OBJECT

    def test_effect_drives_scheduler_conflicts(self, db):
        # A(Node) interferes with the traversal's widened R set even
        # though the query never mentions the nodes extent textually.
        t_eff = db.effect_of("traverse(x in refs over next)")
        w_eff = Effect.of(add("Node"))
        assert t_eff.interferes_with(w_eff)


# ---------------------------------------------------------------------------
# Semantics (big-step and machine)
# ---------------------------------------------------------------------------

ENGINES = ("bigstep", "reduction", "compiled")


class TestSemantics:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_cycle_converges(self, db, engine):
        res = db.run("traverse(x in refs over next)", engine=engine,
                     commit=False)
        assert oids(res.value) == {"@r1", "@r2", "@r3", "@r4", "@leaf"}

    @pytest.mark.parametrize("engine", ENGINES)
    def test_leaf_is_not_stuck(self, db, engine):
        # traversal reaches @leaf (a Node with no `next`) and stops
        res = db.run("traverse(x in nodes over next)", engine=engine,
                     commit=False)
        assert oids(res.value) == {"@leaf"}

    @pytest.mark.parametrize("engine", ENGINES)
    def test_depth_zero_is_start_set(self, db, engine):
        res = db.run("traverse(x in refs over next depth <= 0)",
                     engine=engine, commit=False)
        assert oids(res.value) == {"@r1", "@r2", "@r3", "@r4"}

    @pytest.mark.parametrize("engine", ENGINES)
    def test_depth_bounds_hops(self, db, engine):
        res = db.run("traverse(x in {@r4} over next depth <= 1)",
                     engine=engine, commit=False)
        assert oids(res.value) == {"@r4", "@leaf"}

    @pytest.mark.parametrize("engine", ENGINES)
    def test_self_loop(self, engine):
        loop = graph_db({"a": "a"})
        res = loop.run("traverse(x in refs over next)", engine=engine,
                       commit=False)
        assert oids(res.value) == {"@a"}

    @pytest.mark.parametrize("engine", ENGINES)
    def test_empty_start(self, db, engine):
        res = db.run("traverse(x in {} over next)", engine=engine,
                     commit=False)
        assert res.value == SetLit(())

    def test_dynamic_effect_within_static(self, db):
        static = db.effect_of("traverse(x in {@leaf} over next)")
        res = db.run("traverse(x in {@leaf} over next)", engine="reduction",
                     commit=False)
        # only Node was visited; the static bound also carries R(Ref)
        assert res.effect.subeffect_of(static)
        assert res.effect == Effect.of(read("Node"))

    # ill-typed on purpose: run() rejects them, so drive big-step
    def test_dangling_reference_raises(self, db):
        q = Traverse("x", SetLit((OidRef("@ghost"),)), "next", None)
        with pytest.raises(EvalError):
            evaluate_bigstep(db.machine, db.ee, db.oe, q)

    def test_non_set_source_stuck(self, db):
        q = Traverse("x", IntLit(3), "next", None)
        with pytest.raises(StuckError):
            evaluate_bigstep(db.machine, db.ee, db.oe, q)

    def test_bigstep_matches_model(self):
        edges = {f"c{i}": f"c{i + 1}" for i in range(40)}
        edges["c40"] = None
        chain = graph_db(edges)
        for depth in (0, 1, 7, 39, None):
            src = "traverse(x in {@c0} over next" + (
                f" depth <= {depth})" if depth is not None else ")"
            )
            res = chain.run(src, engine="bigstep", commit=False)
            assert oids(res.value) == reachable(edges, ["c0"], depth)


# ---------------------------------------------------------------------------
# Compiled routing
# ---------------------------------------------------------------------------


class TestRouting:
    def route_note(self, db, src):
        plan = compile_plan(db.schema, {}, db.parse(src))
        notes = [n for n in plan.notes if n.startswith("traverse route")]
        assert len(notes) == 1
        return notes[0]

    def test_small_bounded_depth_routes_yellow(self, db):
        for depth in (0, 1, 8):
            note = self.route_note(
                db, f"traverse(x in refs over next depth <= {depth})"
            )
            assert "yellow" in note, depth

    def test_yellow_route_for_deep_bound(self, db):
        note = self.route_note(db, "traverse(x in refs over next depth <= 9)")
        assert "yellow" in note

    def test_red_route_for_unbounded(self, db):
        note = self.route_note(db, "traverse(x in refs over next)")
        assert "red" in note

    def test_auto_engine_compiles_traverse(self, db):
        decision = db.plan_decision("traverse(x in refs over next)")
        assert decision.engine == "compiled"

    def test_red_builds_index_on_acyclic_store(self):
        chain = graph_db({"a": "b", "b": "c", "c": None})
        chain.run("traverse(x in refs over next)", engine="compiled",
                  commit=False)
        assert len(chain._closure_indexes) == 1
        snap = chain._closure_indexes.snapshot()
        (entry,) = snap.values()
        assert entry["usable"] and not entry["cyclic"]
        assert entry["nodes"] == 3

    def test_red_falls_back_on_cyclic_store(self, db):
        res = db.run("traverse(x in refs over next)", engine="compiled",
                     commit=False)
        assert oids(res.value) == {"@r1", "@r2", "@r3", "@r4", "@leaf"}
        snap = db._closure_indexes.snapshot()
        (entry,) = snap.values()
        assert entry["cyclic"]

    def test_index_reused_across_queries(self):
        chain = graph_db({"a": "b", "b": None})
        for _ in range(3):
            chain.run("traverse(x in refs over next)", engine="compiled",
                      commit=False)
        assert chain._closure_indexes.rebuilds == 1


# ---------------------------------------------------------------------------
# The closure index itself
# ---------------------------------------------------------------------------


class TestClosureIndex:
    def build(self, edges):
        db = graph_db(edges)
        idx = build_closure_index(
            db.schema, db.ee, db.oe, "next", frozenset({"Node", "Ref"})
        )
        return db, idx

    def test_tree_closure_matches_model(self):
        edges = {
            "a": "c", "b": "c", "c": "e", "d": "e", "e": None, "f": None,
        }
        db, idx = self.build(edges)
        assert idx.usable and not idx.cyclic
        for start in (["a"], ["b", "d"], ["e"], ["f"], ["a", "f"]):
            got = idx.closure_of([f"@{s}" for s in start])
            assert got == frozenset(reachable(edges, start))

    def test_cycle_detected(self):
        _, idx = self.build({"a": "b", "b": "a"})
        assert idx.cyclic
        assert idx.closure_of(["@a"]) is None

    def test_unknown_start_defers(self):
        _, idx = self.build({"a": None})
        assert idx.closure_of(["@missing"]) is None

    def test_empty_graph(self):
        _, idx = self.build({})
        assert idx.usable
        assert idx.closure_of([]) == frozenset()

    @staticmethod
    def forest(n: int, seed: int) -> dict:
        """A seeded random forest: every node links to an earlier one,
        except the first and about one in a hundred (the roots)."""
        rng = random.Random(seed)
        edges = {}
        for i in range(n):
            root = i == 0 or rng.random() < 0.01
            edges[f"t{i:05d}"] = None if root else f"t{rng.randrange(i):05d}"
        return edges

    def test_positions_put_parents_first(self):
        edges = self.forest(500, 7)
        _, idx = self.build(edges)
        assert len(idx) == len(edges)
        for oid, i in idx.pre.items():
            assert idx.order[i] == oid
            target = edges[oid[1:]]
            want = -1 if target is None else idx.pre[f"@{target}"]
            assert idx.parent[i] == want < i

    @pytest.mark.parametrize("seed", range(3))
    def test_random_forest_closures(self, seed):
        n = 2000
        edges = self.forest(n, seed)
        _, idx = self.build(edges)
        assert idx.usable and not idx.cyclic
        rng = random.Random(seed)
        names = sorted(edges)
        for size in (1, n // 16 - 1, n // 16 + 1, n):
            start = rng.sample(names, size)
            got = idx.closure_of([f"@{s}" for s in start])
            assert got == frozenset(reachable(edges, start)), size

    @pytest.mark.parametrize("seed", range(3))
    def test_extent_closure_is_memoized(self, seed):
        edges = self.forest(2000, seed)
        db, idx = self.build(edges)
        for extent in ("refs", "nodes"):
            members = db.ee.members(extent)
            first = idx.closure_of_extent(db.ee, extent)
            assert first == idx.closure_of(members)
            assert first == frozenset(
                reachable(edges, [oid[1:] for oid in members])
            )
            assert idx.closure_of_extent(db.ee, extent) is first
            assert idx._extent_closures[extent] is first

    def test_fallbacks_answer_none(self):
        cyclic_db, cyclic = self.build({"a": "b", "b": "a", "c": None})
        assert cyclic.cyclic
        dangling_db = graph_db({"a": "b", "b": None})
        dangling_db.oe = dangling_db.oe.with_object(
            "@a",
            ObjectRecord(
                "Ref", (("tag", IntLit(0)), ("next", OidRef("@ghost")))
            ),
        )
        dangling = build_closure_index(
            dangling_db.schema, dangling_db.ee, dangling_db.oe, "next",
            frozenset({"Node", "Ref"}),
        )
        assert not dangling.usable
        for db, idx in ((cyclic_db, cyclic), (dangling_db, dangling)):
            assert idx.closure_of(["@b"]) is None
            for extent in ("refs", "nodes"):
                assert idx.closure_of_extent(db.ee, extent) is None
            assert not idx._extent_closures


# ---------------------------------------------------------------------------
# Theorem 5 eviction discipline
# ---------------------------------------------------------------------------


class TestTheorem5Eviction:
    def warmed(self, shard_refs: bool = False):
        db = graph_db({"a": "b", "b": "c", "c": None})
        if shard_refs:
            db.shard("Ref", k=4)
        db.run("traverse(x in refs over next)", engine="compiled",
               commit=False)
        assert len(db._closure_indexes) == 1
        return db

    def test_add_inside_cone_evicts(self):
        db = self.warmed()
        db.insert("Node", tag=99)  # A(Node), Node is in the cone
        assert len(db._closure_indexes) == 0

    def test_add_to_subclass_evicts(self):
        db = self.warmed()
        leaf = db.insert("Node", tag=1)
        # the insert above already evicted; rebuild then hit Ref
        db.run("traverse(x in refs over next)", commit=False)
        assert len(db._closure_indexes) == 1
        db.insert("Ref", tag=2, next=leaf)
        assert len(db._closure_indexes) == 0

    @pytest.mark.parametrize(
        "shard_refs", (False, True), ids=("unsharded", "sharded")
    )
    def test_add_outside_cone_promotes(self, shard_refs):
        db = self.warmed(shard_refs)
        before = (db._closure_indexes.rebuilds, db._shards.rebuilds)
        db.insert("Other", x=1)  # A(Other) is disjoint from the cone
        assert len(db._closure_indexes) == 1
        # a new text, so the promoted cached result cannot answer it
        db.run("traverse(y in refs over next)", commit=False)
        # promoted, not rebuilt: neither the index nor a partition
        assert (db._closure_indexes.rebuilds, db._shards.rebuilds) == before

    def test_update_drops_all(self):
        db = self.warmed()
        db._closure_indexes.note_write(
            Commit(Effect.of(update("Other")), 0, 1, db.schema, db.ee, db.oe)
        )
        assert len(db._closure_indexes) == 0

    def test_eviction_unit_property(self):
        # pure-unit version: eviction is exactly cone-membership
        db = graph_db({"a": None})
        store = ClosureIndexes()
        for cone in (frozenset({"Node"}), frozenset({"Node", "Ref"})):
            store.get(db.schema, db.ee, db.oe, 0, "next", cone)
        assert len(store) == 2
        store.note_write(
            Commit(Effect.of(add("Ref")), 0, 1, db.schema, db.ee, db.oe)
        )
        # only the cone containing Ref is dropped
        assert len(store) == 1
        (key,) = store._indexes.keys()
        assert key[1] == frozenset({"Node"})

    def test_answers_correct_after_eviction(self):
        db = self.warmed()
        leaf = db.insert("Node", tag=7)
        db.insert("Ref", tag=8, next=leaf)
        res = db.run("traverse(x in refs over next)", commit=False)
        model = {"@a", "@b", "@c", leaf.name}
        model.add(next(iter(oids(res.value) - model)))  # the new Ref oid
        assert oids(res.value) == model

    def test_shard_layout_change_keeps_closure_index(self):
        # a closure index is built from EE/OE alone, so a new layout
        # leaves it valid
        db = self.warmed()
        before = db._closure_indexes.rebuilds
        db.shard("Ref", k=2)
        res = db.run("traverse(x in refs over next)", commit=False)
        assert oids(res.value) == {"@a", "@b", "@c"}
        assert db._closure_indexes.rebuilds == before


# ---------------------------------------------------------------------------
# Budgets: fuel exhaustion mid-fixpoint degrades loudly
# ---------------------------------------------------------------------------


class TestBudgets:
    def big_cycle(self, n=50):
        edges = {f"c{i}": f"c{(i + 1) % n}" for i in range(n)}
        return graph_db(edges)

    @pytest.mark.parametrize("engine", ("bigstep", "compiled"))
    def test_fuel_exhaustion_raises(self, engine):
        db = self.big_cycle()
        with pytest.raises(FuelExhausted):
            db.run(
                "traverse(x in refs over next)",
                engine=engine,
                commit=False,
                budget=Budget(max_steps=10),
            )

    def test_reduction_charges_one_step_per_rule(self):
        # the machine's (Traverse) rule fires the whole closure as one
        # reduction — budget overshoot is bounded by one rule, by design
        db = self.big_cycle()
        res = db.run(
            "traverse(x in refs over next)",
            engine="reduction",
            commit=False,
            budget=Budget(max_steps=10),
        )
        assert len(res.value.items) == 50

    def test_enough_fuel_succeeds(self):
        db = self.big_cycle()
        res = db.run(
            "traverse(x in refs over next)",
            commit=False,
            budget=Budget(max_steps=10_000),
        )
        assert len(res.value.items) == 50

    def test_no_partial_commit_on_exhaustion(self):
        # a writing query whose source traversal exhausts fuel must
        # leave the store untouched — loud failure, no partial state
        db = self.big_cycle()
        before_nodes = len(db.extent("nodes"))
        before_version = db._state_version
        with pytest.raises(FuelExhausted):
            db.run(
                "{ new Node(tag: x.tag) | x <- traverse(x in refs over next) }",
                budget=Budget(max_steps=30),
            )
        assert len(db.extent("nodes")) == before_nodes
        assert db._state_version == before_version


# ---------------------------------------------------------------------------
# Fault injection at exec.traverse
# ---------------------------------------------------------------------------


class TestTraverseFaults:
    def test_fault_aborts_compiled_traverse(self, db):
        with inject(FaultPlan([FaultRule("exec.traverse", at=1)])):
            with pytest.raises(TransientFault):
                db.run("traverse(x in refs over next)", engine="compiled",
                       commit=False)

    def test_fault_leaves_state_unchanged(self, db):
        version = db._state_version
        with inject(FaultPlan([FaultRule("exec.traverse", at=1)])):
            with pytest.raises(TransientFault):
                db.run("traverse(x in refs over next)", engine="compiled")
        assert db._state_version == version

    def test_retry_gates_and_recovers(self, db):
        # read-only => replay_decision proves the retry safe; the
        # second attempt runs with no fault and must agree
        policy = RetryPolicy.seeded(0, base_delay=0.0, jitter=0.0)
        with inject(FaultPlan([FaultRule("exec.traverse", at=1)])):
            res = db.run("traverse(x in refs over next)", retry=policy,
                         commit=False)
        assert oids(res.value) == {"@r1", "@r2", "@r3", "@r4", "@leaf"}

    def test_every_route_hits_the_site(self):
        for src in (
            "traverse(x in refs over next depth <= 2)",
            "traverse(x in refs over next depth <= 20)",
            "traverse(x in refs over next)",
        ):
            chain = graph_db({"a": "b", "b": None})
            plan = FaultPlan()
            with inject(plan):
                chain.run(src, engine="compiled", commit=False)
            assert plan.hits.get("exec.traverse", 0) >= 1, src


# ---------------------------------------------------------------------------
# Cost model
# ---------------------------------------------------------------------------


class TestCostModel:
    def test_bounded_cardinality_scales_with_depth(self, db):
        from repro.optimizer.cost import CostModel

        model = CostModel.from_database(db)
        q1 = db.parse("traverse(x in refs over next depth <= 1)")
        q9 = db.parse("traverse(x in refs over next depth <= 9)")
        assert model.cardinality(q1) <= model.cardinality(q9)
        # and both are capped by the store size
        assert model.cardinality(q9) <= 5.0

    def test_unbounded_cardinality_is_store_bounded(self, db):
        from repro.optimizer.cost import CostModel

        model = CostModel.from_database(db)
        q = db.parse("traverse(x in refs over next)")
        assert model.cardinality(q) == 5.0

    def test_eval_cost_grows_with_closure(self, db):
        from repro.optimizer.cost import CostModel

        model = CostModel.from_database(db)
        shallow = model.eval_cost(
            db.parse("traverse(x in refs over next depth <= 0)")
        )
        deep = model.eval_cost(db.parse("traverse(x in refs over next)"))
        assert deep >= shallow

    def test_fanout_narrows_estimate(self):
        # heavy fan-in: 30 refs all pointing at one hub leaf — the
        # distinct count of `next` (1) should collapse the estimate
        edges = {f"r{i}": "hub" for i in range(30)}
        edges["hub"] = None
        db = graph_db(edges)
        from repro.optimizer.cost import CostModel

        model = CostModel.from_database(db)
        q = db.parse("traverse(x in refs over next depth <= 5)")
        est = model.cardinality(q)
        assert est <= 31.0  # 30 starts + 1 distinct target, not 30 * 6


# ---------------------------------------------------------------------------
# Replica freshness must cover the full reachable set
# ---------------------------------------------------------------------------


class TestReplicaFreshness:
    def open_chain(self, tmp_path):
        db = Database.open(str(tmp_path / "db"), NODE_REF_ODL)
        leaf = db.insert("Node", tag=0)
        db.insert("Ref", tag=1, next=leaf)
        return db

    def test_stale_reachable_class_blocks_routing(self, tmp_path):
        db = self.open_chain(tmp_path)
        rset = db.replicate(1, auto_poll=False)
        # the replica is now fresh; a write to Node (reachable from the
        # traversal but NOT its textual extent) must block routing
        db.insert("Node", tag=2)
        res = db.run("traverse(x in refs over next)")
        assert db._qstats["routed_reads"] == 0
        assert rset.snapshot()["degraded"] == 1
        assert len(res.value.items) == 2  # primary's fresh answer

    def test_fresh_replica_serves_traversal(self, tmp_path):
        db = self.open_chain(tmp_path)
        rset = db.replicate(1, auto_poll=False)
        res = db.run("traverse(x in refs over next)")
        assert db._qstats["routed_reads"] == 1
        assert len(res.value.items) == 2
        assert rset.snapshot()["degraded"] == 0

    def test_unrelated_write_still_routes(self, tmp_path):
        db = self.open_chain(tmp_path)
        db.replicate(1, auto_poll=False)
        db.insert("Other", x=1)  # outside the traversal's closure
        db.run("traverse(x in refs over next)")
        assert db._qstats["routed_reads"] == 1


# ---------------------------------------------------------------------------
# Health / shell surface
# ---------------------------------------------------------------------------


class TestSurface:
    def test_health_reports_closure_indexes(self):
        chain = graph_db({"a": "b", "b": None})
        chain.run("traverse(x in refs over next)", commit=False)
        stanza = chain.health()["closure_indexes"]
        assert stanza["entries"] == 1
        assert stanza["rebuilds"] == 1
        (entry,) = stanza["versions"].values()
        assert entry["nodes"] == 2

    def test_render_includes_closures(self):
        from repro.db.health import render

        chain = graph_db({"a": "b", "b": None})
        chain.run("traverse(x in refs over next)", commit=False)
        assert "closures" in render(chain.health())
