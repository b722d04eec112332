"""Partition-parallel execution: pruning, caches, conflicts, surfaces.

Certifies the compiled engine's sharded paths against the unsharded
engine (scan pruning, pruned index probes, forced pool fan-out), the
per-``(class, shard)`` refinement of result-cache invalidation,
the scheduler's ``shard_conflicts`` rule, the explain tree's shard
access labels, and the operator surfaces (``health()["sharding"]``,
``shard_*`` gauges, ``.shard``/``.shards``/``.explain cost``).
"""

import pytest

from repro.db.database import Database
from repro.db.shards import shard_of
from repro.effects.algebra import EMPTY, Effect, add, read, update
from repro.exec import parallel
from repro.exec.compiler import ROW_BYTES
from repro.lang.ast import StrLit
from repro.resilience.faults import FaultPlan, FaultRule, inject
from repro.sched.scheduler import Admission, shard_conflicts
from repro.shell import Shell

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

K = 4
REGIONS = 8


def make_pair(n: int = 64) -> tuple[Database, Database]:
    """Twin databases with identical contents; one sharded."""
    out = []
    for sharded in (True, False):
        db = Database.from_odl(ODL)
        if sharded:
            db.shard("Person", k=K, by="region")
            db.shard("Order", k=K, by="region")
        for i in range(n):
            db.insert(
                "Person", name=f"p{i}", region=f"r{i % REGIONS}", age=i
            )
        for i in range(n // 2):
            db.insert(
                "Order", item=f"it{i}", region=f"r{i % REGIONS}", qty=i % 7
            )
        out.append(db)
    return out[0], out[1]


def canon(value) -> list:
    return sorted(value.items, key=repr)


QUERIES = [
    '{ p.name | p <- Persons, p.region = "r1" }',
    '{ p.name | p <- Persons, p.region = "r1", p.age > 10 }',
    "{ p.name | p <- Persons, p.age > 20 }",
    '{ struct(n: p.name, it: o.item) | p <- Persons, p.region = "r2", '
    "o <- Orders, p.region = o.region, o.qty > 1 }",
    '{ p.age | p <- Persons, p.region = "nowhere" }',
]


class TestShardedEquivalence:
    @pytest.mark.parametrize("src", QUERIES)
    def test_sharded_run_equals_unsharded(self, src):
        sharded, plain = make_pair()
        assert canon(sharded.run(src).value) == canon(plain.run(src).value)

    def test_forced_pool_fanout_equals_unsharded(self, monkeypatch):
        # MIN_ROWS = 0 forces every whole-extent scan through the
        # worker pool regardless of size
        monkeypatch.setattr(parallel, "MIN_ROWS", 0)
        sharded, plain = make_pair()
        src = "{ p.name | p <- Persons, p.age > 5 }"
        before = parallel.snapshot()["batches"]
        got = sharded.run(src).value
        assert parallel.snapshot()["batches"] > before, "pool not used"
        assert canon(got) == canon(plain.run(src).value)

    def test_pool_task_fault_fails_query_but_not_database(
        self, monkeypatch
    ):
        monkeypatch.setattr(parallel, "MIN_ROWS", 0)
        sharded, _ = make_pair()
        plan = FaultPlan(
            (FaultRule(site="exec.shard", at=2, kind="transient"),)
        )
        src = "{ p.name | p <- Persons, p.age > 5 }"
        with inject(plan):
            with pytest.raises(Exception):
                sharded.run(src)
        assert sharded.run(src).value.items  # next run is fine


def _shard_reads(db: Database, src: str):
    """The shard trace stored with ``src``'s cached result."""
    entry = db.plan_decision(src).entry
    result = db._plan_cache.result(entry, db._state_version)
    assert result is not None
    return result[4]


class TestPruning:
    def test_confined_query_records_single_shard_dynamic_read(self):
        sharded, _ = make_pair()
        src = '{ p.name | p <- Persons, p.region = "r1" }'
        sharded.run(src)
        confined = _shard_reads(sharded, src)["Person"]
        assert confined == frozenset({shard_of(StrLit("r1"), K)})

    def test_unconfined_query_records_whole_class_read(self):
        sharded, _ = make_pair()
        src = "{ p.name | p <- Persons, p.age > 3 }"
        sharded.run(src)
        reads = (_shard_reads(sharded, src) or {}).get("Person")
        assert reads is None  # None = all shards

    def test_plan_notes_mention_pruning(self):
        sharded, _ = make_pair()
        decision = sharded.plan_decision(
            '{ p.name | p <- Persons, p.region = "r1" }'
        )
        notes = " ".join(decision.plan.notes)
        assert "shard" in notes


class TestPerShardInvalidation:
    def test_result_survives_disjoint_shard_write(self):
        sharded, _ = make_pair()
        src = '{ p.name | p <- Persons, p.region = "r1" }'
        q = sharded.parse(src)
        sharded.run(q)
        hits0 = sharded._qstats["result_cache_hits"]
        # write into a *different* shard of the same class
        target = shard_of(StrLit("r1"), K)
        other = next(
            f"s{i}"
            for i in range(100)
            if shard_of(StrLit(f"s{i}"), K) != target
        )
        sharded.insert("Person", name="w", region=other, age=1)
        sharded.run(q)
        assert sharded._qstats["result_cache_hits"] == hits0 + 1

    def test_result_evicts_on_same_shard_write(self):
        sharded, _ = make_pair()
        src = '{ p.name | p <- Persons, p.region = "r1" }'
        q = sharded.parse(src)
        before = canon(sharded.run(q).value)
        hits0 = sharded._qstats["result_cache_hits"]
        sharded.insert("Person", name="w", region="r1", age=99)
        after = sharded.run(q).value
        assert sharded._qstats["result_cache_hits"] == hits0
        assert len(after.items) == len(before) + 1

    def test_unsharded_twin_loses_cache_on_any_write(self):
        _, plain = make_pair()
        src = '{ p.name | p <- Persons, p.region = "r1" }'
        q = plain.parse(src)
        plain.run(q)
        hits0 = plain._qstats["result_cache_hits"]
        plain.insert("Person", name="w", region="zzz", age=1)
        plain.run(q)
        assert plain._qstats["result_cache_hits"] == hits0


class TestShardConflicts:
    def _adm(self, idx, effect, reads=None, writes=None):
        return Admission(
            index=idx,
            source="",
            effect=effect,
            read_shards=reads,
            write_shards=writes,
        )

    def test_non_conflicting_effects_stay_free(self):
        a = self._adm(0, Effect.of(read("Person")))
        b = self._adm(1, Effect.of(add("Order")))
        assert not shard_conflicts(a, b)

    def test_disjoint_shard_reader_writer_drop_edge(self):
        a = self._adm(
            0, Effect.of(read("Person")), reads={"Person": frozenset({1})}
        )
        b = self._adm(
            1, Effect.of(add("Person")), writes={"Person": frozenset({2})}
        )
        assert not shard_conflicts(a, b)
        assert not shard_conflicts(b, a)

    def test_same_shard_reader_writer_keep_edge(self):
        a = self._adm(
            0, Effect.of(read("Person")), reads={"Person": frozenset({2})}
        )
        b = self._adm(
            1, Effect.of(add("Person")), writes={"Person": frozenset({2})}
        )
        assert shard_conflicts(a, b)

    def test_missing_analysis_keeps_edge(self):
        a = self._adm(0, Effect.of(read("Person")), reads=None)
        b = self._adm(
            1, Effect.of(add("Person")), writes={"Person": frozenset({2})}
        )
        assert shard_conflicts(a, b)

    def test_update_always_keeps_edge(self):
        a = self._adm(
            0,
            Effect.of(update("Person")),
            reads={"Person": frozenset({1})},
            writes={"Person": frozenset({1})},
        )
        b = self._adm(
            1, Effect.of(add("Person")), writes={"Person": frozenset({2})}
        )
        assert shard_conflicts(a, b)

    def test_disjoint_writers_overlap_only_when_allowed(self):
        a = self._adm(
            0, Effect.of(add("Person")), writes={"Person": frozenset({1})}
        )
        b = self._adm(
            1, Effect.of(add("Person")), writes={"Person": frozenset({2})}
        )
        assert shard_conflicts(a, b)  # atomic default: keep the edge
        assert not shard_conflicts(a, b, allow_writer_overlap=True)

    def test_same_shard_writers_conflict_even_when_allowed(self):
        a = self._adm(
            0, Effect.of(add("Person")), writes={"Person": frozenset({1})}
        )
        b = self._adm(
            1, Effect.of(add("Person")), writes={"Person": frozenset({1})}
        )
        assert shard_conflicts(a, b, allow_writer_overlap=True)

    def test_run_many_overlaps_disjoint_shard_writers(self):
        sharded, _ = make_pair(n=16)
        batch = [
            f'new Person(name: "b{i}", region: "r{i}", age: {i})'
            for i in range(6)
        ]
        res = sharded.run_many(batch, workers=4)
        # 6 A(Person) writers: the class-level graph would be a clique
        # (15 edges); per-shard refinement keeps only same-shard pairs
        clique = 6 * 5 // 2
        assert res.conflict_edges < clique
        assert len(sharded.ee.members("Persons")) == 16 + 6

    def test_atomic_batch_still_serialises_writers(self):
        sharded, _ = make_pair(n=8)
        batch = [
            f'new Person(name: "b{i}", region: "r{i}", age: {i})'
            for i in range(4)
        ]
        res = sharded.run_many(batch, workers=4, atomic=True)
        assert len(sharded.ee.members("Persons")) == 8 + 4
        assert res.conflict_edges == 4 * 3 // 2


def access_of(prof) -> list[dict]:
    """The shard-access labels of an explain tree's extent nodes."""
    return [n.detail["access"] for n in prof.nodes if "access" in n.detail]


PRUNED = '{ p.name | p <- Persons, p.region = "r1" }'


def sharded_by_region(n: int = 64) -> Database:
    """``n`` Persons over eight regions, sharded k=8 by region."""
    db = Database.from_odl(ODL)
    db.shard("Person", k=8, by="region")
    for i in range(n):
        db.insert("Person", name=f"p{i}", region=f"r{i % REGIONS}", age=i)
    return db


class TestCostReport:
    def test_pruned_access_reported(self):
        sharded, _ = make_pair()
        (access,) = access_of(sharded.explain_cost(PRUNED))
        assert access["sharded"] and access["pruned"]
        assert access["shards"] == 1
        assert access["rows_scanned"] < access["rows"]

    def test_unconfined_access_prices_all_shards(self):
        sharded, _ = make_pair()
        prof = sharded.explain_cost("{ p.name | p <- Persons, p.age > 3 }")
        (access,) = access_of(prof)
        assert access["shards"] == K and not access["pruned"]
        assert access["rows_scanned"] == access["rows"]
        (scan,) = [n for n in prof.nodes if n.kind == "scan"]
        (filt,) = [n for n in prof.nodes if n.kind == "filter"]
        assert filt.est_rows < scan.est_rows  # the filter's selectivity
        (comp,) = [n for n in prof.nodes if n.kind == "comp"]
        merge = comp.detail
        assert merge["merge_bytes"] == merge["merge_rows"] * ROW_BYTES

    def test_report_is_json_safe(self):
        import json

        sharded, _ = make_pair()
        prof = sharded.explain_cost(
            '{ p.name | p <- Persons, p.region = "r1", p.age > 2 }'
        )
        doc = json.loads(json.dumps(prof.profile_dict()))
        assert doc == prof.profile_dict()
        (access,) = [
            n["detail"]["access"] for n in doc["nodes"]
            if "access" in n["detail"]
        ]
        assert access["sharded"] is True

    def test_unsharded_database_reports_plain_scan(self):
        _, plain = make_pair()
        (access,) = access_of(plain.explain_cost("{ p.name | p <- Persons }"))
        assert not access["sharded"]
        assert access["rows_scanned"] == access["rows"]


class TestExplainTree:
    """The explain tree is the production plan's, shard layout included."""

    def test_analyze_carries_the_production_plans_notes(self):
        db = sharded_by_region()
        prof = db.explain_analyze(PRUNED)
        assert any(n.startswith("shard-prune") for n in prof.notes)
        assert prof.notes == db.plan_decision(PRUNED).plan.notes

    def test_cost_shows_the_index_probe_not_a_filter(self):
        db = sharded_by_region()
        prof = db.explain_cost(PRUNED)
        assert not [n for n in prof.nodes if n.kind == "filter"]
        (join,) = [n for n in prof.nodes if n.kind == "hash-join"]
        assert "via index Persons.region" in join.label
        # 64 rows at the measured 1/8 frequency of "r1", not 0.10
        assert join.est_rows == pytest.approx(8.0)
        assert join.detail["access"]["shards"] == 1


class TestHealthSurface:
    def test_sharding_section_present_and_gauged(self):
        from repro import obs
        from repro.obs.export import prometheus_text

        sharded, _ = make_pair()
        sharded.run('{ p.name | p <- Persons, p.region = "r1" }')
        obs.enable()
        obs.reset()
        try:
            snap = sharded.health()  # obs on: mirrors gauges
            sh = snap["sharding"]
            assert sh["sharded_classes"] == 2
            assert sh["extents"]["Persons"]["k"] == K
            assert "pool" in sh and sh["pool"]["workers"] >= 1
            gauges = prometheus_text()
            assert "shard_extents_total 2" in gauges
            assert "shard_pool_workers" in gauges
        finally:
            obs.disable()
            obs.reset()

    def test_unsharded_database_has_no_sharding_section(self):
        _, plain = make_pair(n=4)
        assert plain.health()["sharding"] is None


class TestShellSurface:
    @pytest.fixture
    def shell(self):
        db = Database.from_odl(ODL)
        for i in range(8):
            db.insert(
                "Person", name=f"p{i}", region=f"r{i % 4}", age=20 + i
            )
        return Shell(db)

    def test_shard_command_declares_and_reports(self, shell):
        out = shell.handle(".shard Person k=4 by=region")
        assert "Persons k=4 by=region" in out
        out = shell.handle(".shards")
        assert "Persons" in out and "k=4" in out

    def test_shard_command_rejects_bad_input(self, shell):
        assert "error" in shell.handle(".shard Ghost").lower()
        assert "error" in shell.handle(".shard Person k=zero").lower()

    def test_shards_before_any_declaration(self, shell):
        assert "no sharded extents" in shell.handle(".shards").lower()

    def test_explain_cost_renders(self, shell):
        shell.handle(".shard Person k=4 by=region")
        out = shell.handle(
            '.explain cost { p.name | p <- Persons, p.region = "r1" }'
        )
        assert "cost report" in out
        assert "1/4 shard(s)" in out and "[pruned]" in out

    def test_explain_cost_unsharded_still_works(self, shell):
        out = shell.handle(
            ".explain cost { p.name | p <- Persons, p.age > 21 }"
        )
        assert "cost report" in out and "unsharded" in out

    def test_explain_cost_of_a_write_prints_no_tree(self, shell):
        shell.handle(".shard Person k=8 by=region")
        out = shell.handle(
            '.explain cost { new Person(name: p.name, region: "x", age: 1)'
            " | p <- Persons }"
        )
        assert "reduction engine" in out and "Theorem 4" in out
        assert "operator" not in out and "shard(s)" not in out

    def test_three_surfaces_print_the_plans_notes(self):
        db = sharded_by_region()
        sh = Shell(db)
        notes = list(db.plan_decision(PRUNED).plan.notes)

        def printed(cmd: str, prefix: str) -> list[str]:
            return [
                line.split(": ", 1)[1]
                for line in sh.handle(f"{cmd} {PRUNED}").splitlines()
                if line.startswith(prefix)
            ]

        assert any(n.startswith("shard-prune") for n in notes)
        assert printed(".explain", "plan note") == notes
        assert printed(".explain cost", "note") == notes
        assert printed(".explain analyze", "note") == notes
