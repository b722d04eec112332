"""Unit tests for the rewriting pipeline and optimizer equivalence."""

import random

import pytest

from repro.db.database import Database
from repro.errors import IOQLTypeError
from repro.lang.ast import IntLit, SetLit, SetOp
from repro.lang.pprint import pretty
from repro.metatheory.generators import (
    QueryGenerator,
    make_random_schema,
    make_random_store,
)
from repro.obs.flight import RECORDER
from repro.optimizer.cost import CostModel, cost_rules, optimize_with_costs
from repro.optimizer.equivalence import observationally_equal
from repro.optimizer.planner import (
    _MAX_PASSES,
    explain_commutation,
    optimize,
    try_commute,
)
from repro.optimizer.rules import Rule
from tests.test_opt_differential import build_db, corpus

ODL = """
class Person extends Object (extent Persons) {
    attribute string name;
    attribute int age;
}
"""


@pytest.fixture
def db():
    d = Database.from_odl(ODL)
    d.insert("Person", name="a", age=1)
    d.insert("Person", name="b", age=20)
    return d


class TestPipeline:
    def test_constant_folding_cascades(self, db):
        res = optimize(db, db.parse("if 1 + 1 = 2 then 10 else 20"))
        assert res.query == db.parse("10")
        assert "arith-fold" in res.rules_fired()
        assert "if-const-fold" in res.rules_fired()

    def test_dead_branch_removal_composes(self, db):
        res = optimize(db, db.parse("{p | p <- Persons, 1 < 2}"))
        assert res.query == db.parse("{p | p <- Persons}")

    def test_false_pred_collapse(self, db):
        res = optimize(db, db.parse("{p | p <- Persons, 2 < 1}"))
        assert res.query == SetLit(())

    def test_union_identity(self, db):
        res = optimize(db, db.parse("Persons union ({} union {})"))
        assert res.query == db.parse("Persons")

    def test_unchanged_query(self, db):
        q = db.parse("{p.name | p <- Persons, p.age < 10}")
        res = optimize(db, q)
        assert res.query == q
        assert not res.changed

    def test_fixpoint_reached(self, db):
        # deeply foldable expression requires several passes
        res = optimize(db, db.parse("((1 + 1) + (1 + 1)) * ((2 + 2) + 1)"))
        assert res.query == db.parse("20")

    def test_pushdown_step_reduction(self, db):
        """The optimizer's point: fewer reduction steps at run time."""
        q = db.parse(
            "{ struct(a: p.name, b: x) | p <- Persons, x <- {1, 2, 3}, p.age < 5 }"
        )
        res = optimize(db, q)
        assert "pred-pushdown" in res.rules_fired()
        # measured on the reduction machine: the compiled engine
        # normalises through the optimizer itself, so both forms cost
        # the same there
        before = db.run(q, commit=False, engine="reduction").steps
        after = db.run(res.query, commit=False, engine="reduction").steps
        assert after < before

    def test_rewrites_under_binders(self, db):
        q = db.parse("{ p.age + (1 + 1) | p <- Persons }")
        res = optimize(db, q)
        assert res.query == db.parse("{ p.age + 2 | p <- Persons }")

    def test_ill_typed_rejected(self, db):
        with pytest.raises(IOQLTypeError):
            optimize(db, db.parse("1 + true"))

    def test_provenance_recorded(self, db):
        res = optimize(db, db.parse("1 + 1"))
        (step,) = res.steps
        assert step.rule == "arith-fold"
        assert step.before == db.parse("1 + 1")
        assert step.after == db.parse("2")


class TestOptimizerPreservesSemantics:
    @pytest.mark.parametrize(
        "src",
        [
            "{p.name | p <- Persons, 1 = 1}",
            "{p.name | p <- Persons, 1 = 2}",
            "Persons union {}",
            "{x + 0 * 2 | x <- {1, 2}}",
            "{ struct(a: p.name, b: x) | p <- Persons, x <- {1}, p.age < 5 }",
            "size({x | x <- {y | y <- {1, 2, 3}, y < 3}})",
            "struct(a: size(Persons), b: 2 + 2).a",
        ],
    )
    def test_observational_equivalence(self, db, src):
        q = db.parse(src)
        res = optimize(db, q)
        report = observationally_equal(db, q, res.query)
        assert report.equal, report.reason


class TestCommutation:
    def test_try_commute_safe(self, db):
        res = try_commute(db, db.parse("{} union Persons"))
        assert res.changed
        assert isinstance(res.query, SetOp)
        assert res.query == db.parse("Persons union {}")

    def test_try_commute_refused(self, db):
        src = 'Persons union {new Person(name: "x", age: 0)}'
        res = try_commute(db, db.parse(src))
        assert not res.changed

    def test_explain_safe(self, db):
        msg = explain_commutation(db, db.parse("Persons intersect Persons"))
        assert msg.startswith("safe")

    def test_explain_unsafe(self, db):
        src = 'Persons intersect {new Person(name: "x", age: 0)}'
        msg = explain_commutation(db, db.parse(src))
        assert "UNSAFE" in msg
        assert "Theorem 8" in msg

    def test_explain_non_setop(self, db):
        assert "not a commutative" in explain_commutation(db, db.parse("1 + 1"))

    def test_commuted_query_equivalent(self, db):
        q = db.parse("{p | p <- Persons, p.age < 5} union Persons")
        res = try_commute(db, q)
        assert res.changed
        report = observationally_equal(db, q, res.query)
        assert report.equal, report.reason

    def test_unsafe_commute_would_change_semantics(self, db):
        """The §4 lesson: commuting interfering operands IS observable.

        The paper's shape: the left operand *creates* a Person, the
        right operand *reads* the Person extent.  Evaluated
        left-to-right the created object is already in the extent when
        it is read, so the intersection is the singleton; commuted, the
        extent is read before the creation and the intersection is
        empty.  We verify the optimizer's refusal is not over-caution.
        """
        creator = db.parse('{ new Person(name: "fresh", age: 0) | x <- {1} }')
        reader = db.parse("Persons")
        from repro.lang.ast import SetOpKind

        q1 = SetOp(SetOpKind.INTERSECT, creator, reader)
        q2 = SetOp(SetOpKind.INTERSECT, reader, creator)
        r1 = db.run(q1, commit=False)
        r2 = db.run(q2, commit=False)
        assert len(r1.value.items) == 1  # the fresh object
        assert len(r2.value.items) == 0  # the paper's "empty set!"
        report = observationally_equal(db, q1, q2, max_paths=20000)
        assert not report.equal


# ---------------------------------------------------------------------------
# fixpoint: the rule set terminates, the pass cap is only a safety net
# ---------------------------------------------------------------------------

# A small copy of the end-to-end benchmark's schema: its read texts are
# written out below against it.
PERF_ODL = """
class Person extends Object (extent Persons) {
    attribute string name;
    attribute int age;
}
class Manager extends Person (extent Managers) {
    attribute int level;
    attribute Person boss;
}
class Employee extends Person (extent Employees) {
    attribute int EmpID;
    attribute int GrossSalary;
    attribute Manager UniqueManager;
}
"""


def perf_db() -> tuple[Database, list[str]]:
    """A CEO, seven Managers in a fan-out-2 tree, forty Employees."""
    db = Database.from_odl(PERF_ODL)
    rng = random.Random(21)
    ceo = db.insert("Person", name="ceo", age=60)
    managers = []
    for i in range(7):
        managers.append(db.insert(
            "Manager",
            name=f"m{i}",
            age=30 + rng.randrange(30),
            level=(i + 1).bit_length() - 1,
            boss=ceo if i == 0 else managers[(i - 1) // 2],
        ))
    for i in range(40):
        db.insert(
            "Employee",
            name=f"e{i}",
            age=18 + rng.randrange(50),
            EmpID=i,
            GrossSalary=2000 + rng.randrange(8000),
            UniqueManager=rng.choice(managers),
        )
    boss = managers[3].name
    queries = [
        # the ad-hoc reads: point, manager, filter, traverse, join
        "{ e.GrossSalary | e <- Employees, e.EmpID = 7 }",
        f"{{ e.name | e <- Employees, e.UniqueManager == {boss} }}",
        "{ m.name | m <- Managers, m.level >= 1, m.age < 50 }",
        "traverse(m in { x | x <- Managers, x.age = 40 } over boss depth <= 3)",
        "traverse(m in { x | x <- Managers, x.age = 40 } over boss)",
        "{ e.EmpID | e <- Employees, m <- Managers, e.UniqueManager == m, "
        "m.age < 45, e.GrossSalary > 9000 }",
        # the hot reads
        "{ e.name | e <- Employees, e.GrossSalary > 9500 }",
        "{ e.EmpID | e <- Employees, m <- Managers, e.UniqueManager == m, "
        "m.level = 2, e.GrossSalary > 9000 }",
        "exists e in Employees : e.GrossSalary > 9900",
        "select distinct e.age from e in Employees where e.age > 60",
        "traverse(m in { x | x <- Managers, x.level = 1 } over boss depth <= 3)",
        "size(Employees)",
    ]
    return db, queries


def generated_corpus(seeds: int = 20, per_seed: int = 20):
    """(database, queries) pairs from the metatheory generators."""
    for seed in range(seeds):
        rng = random.Random(21_000 + seed)
        schema = make_random_schema(rng)
        ee, oe, supply = make_random_store(schema, rng)
        db = Database(schema)
        db.ee, db.oe = ee, oe
        db.supply = supply
        gen = QueryGenerator(schema, oe, rng, max_depth=4)
        yield db, [gen.query(gen.random_type()) for _ in range(per_seed)]


@pytest.fixture
def flight():
    RECORDER.clear()
    yield RECORDER
    RECORDER.clear()


def cap_events(recorder) -> list[dict]:
    return [e for e in recorder.events() if e["category"] == "optimize-cap"]


def refires(db, queries) -> list[tuple[str, list[str]]]:
    """Each query whose optimized form still rewrites, with the rules."""
    out = []
    for q in queries:
        q = db.parse(q) if isinstance(q, str) else q
        model = CostModel.from_database(db)
        once = optimize(db, q, cost_rules(model), model=model)
        again = optimize(db, once.query, cost_rules(model), model=model)
        if again.changed:
            out.append((pretty(q), again.rules_fired()))
    return out


class TestFixpoint:
    """Optimizing the optimizer's output fires no rule, and no query of
    the corpora needs the pass cap."""

    def test_differential_corpus(self, flight):
        db = build_db()
        assert refires(db, corpus()) == []
        assert cap_events(flight) == []

    def test_generated_corpus(self, flight):
        for db, queries in generated_corpus():
            assert refires(db, queries) == []
        assert cap_events(flight) == []

    def test_benchmark_read_shapes(self, flight):
        db, queries = perf_db()
        assert refires(db, queries) == []
        assert cap_events(flight) == []
        for src in queries:
            got = db.run(src, commit=False)
            want = db.run(src, commit=False, engine="bigstep")
            assert got.value == want.value, src

    def test_join_ordering_fires_with_several_predicates(self):
        # three generators, three predicates (the corpus's kind 3)
        db = build_db()
        src = (
            "{ struct(a: e.salary, b: t.n) | e <- Emps, d <- Depts, "
            "t <- Tags, e.dept = d.id, d.grp = 1, t.n < 3 }"
        )
        res = optimize_with_costs(db, db.parse(src))
        assert "reorder-generators" in res.rules_fired()
        got = db.run(src, commit=False)
        assert got.engine == "compiled"
        assert got.value == db.run(src, commit=False, engine="bigstep").value


ONE_TO_TWO = Rule(
    "one-to-two", lambda rc, q: IntLit(2) if q == IntLit(1) else None
)
TWO_TO_ONE = Rule(
    "two-to-one", lambda rc, q: IntLit(1) if q == IntLit(2) else None
)


class TestPassCap:
    """Only a rule set that oscillates reaches the cap, and it says so."""

    def test_cap_recorded(self, db, flight):
        q = db.parse("{" + ", ".join(["1"] * 150) + "}")
        optimize(db, q, (ONE_TO_TWO, TWO_TO_ONE))
        (ev,) = cap_events(flight)
        assert ev["passes"] == _MAX_PASSES
        assert ev["last_rule"] == "two-to-one"
        # pretty-printed, and cut short
        assert pretty(q).startswith(ev["query"])
        assert len(ev["query"]) < len(pretty(q))
