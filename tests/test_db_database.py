"""Unit tests for the Database façade (repro.db.database)."""

import pytest

from repro.effects.algebra import Effect, add, read
from repro.errors import IOQLEffectError, IOQLTypeError
from repro.lang.ast import OidRef
from repro.model.types import INT, STRING, SetType
from repro.semantics.strategy import LAST


class TestPopulation:
    def test_insert_returns_oid(self, empty_hr_db):
        oid = empty_hr_db.insert("Person", name="Ada", age=36, address="X")
        assert isinstance(oid, OidRef)
        assert oid.name in empty_hr_db.extent("Persons")

    def test_insert_checks_attribute_set(self, empty_hr_db):
        with pytest.raises(IOQLTypeError, match="exactly"):
            empty_hr_db.insert("Person", name="Ada")

    def test_insert_checks_types(self, empty_hr_db):
        with pytest.raises(IOQLTypeError):
            empty_hr_db.insert("Person", name=1, age=36, address="X")

    def test_insert_object_valued(self, empty_hr_db):
        boss = empty_hr_db.insert("Manager", name="G", age=1, address="Y", level=1)
        e = empty_hr_db.insert(
            "Employee",
            name="A", age=2, address="Z", EmpID=1, GrossSalary=3,
            UniqueManager=boss,
        )
        assert empty_hr_db.attr(e, "UniqueManager") == boss

    def test_attr_read(self, hr_db):
        (mgr,) = hr_db.extent("Managers")
        assert hr_db.attr(mgr, "name").value == "Grace"


class TestQueries:
    def test_simple_query(self, hr_db):
        r = hr_db.query("{ e.name | e <- Employees }")
        assert r.python() == frozenset({"Ada", "Edsger"})

    def test_path_expression(self, hr_db):
        r = hr_db.query("{ e.UniqueManager.name | e <- Employees }")
        assert r.python() == frozenset({"Grace"})

    def test_method_in_query(self, hr_db):
        r = hr_db.query("{ e.NetSalary(100) | e <- Employees }")
        assert r.python() == frozenset({4900, 4100})

    def test_select_sugar(self, hr_db):
        r = hr_db.query(
            "select struct(who: e.name, net: e.NetSalary(0)) "
            "from e in Employees where e.GrossSalary > 4500"
        )
        assert r.python() == frozenset() or r.python() == ({"who": "Ada", "net": 5000},)

    def test_typecheck_before_run(self, hr_db):
        with pytest.raises(IOQLTypeError):
            hr_db.run("1 + true")

    def test_commit_behaviour(self, hr_db):
        before = len(hr_db.extent("Persons"))
        hr_db.run('new Person(name: "N", age: 1, address: "A")')
        assert len(hr_db.extent("Persons")) == before + 1

    def test_no_commit(self, hr_db):
        before = len(hr_db.extent("Persons"))
        hr_db.run('new Person(name: "N", age: 1, address: "A")', commit=False)
        assert len(hr_db.extent("Persons")) == before

    def test_strategy_passthrough(self, hr_db):
        a = hr_db.run("{ e.EmpID | e <- Employees }", strategy=LAST)
        assert a.python() == frozenset({1, 2})


class TestDefinitions:
    def test_define_and_call(self, hr_db):
        hr_db.define(
            "define paid_more(limit: int) as "
            "{ e.name | e <- Employees, e.GrossSalary > limit };"
        )
        assert hr_db.query("paid_more(4500)").python() == frozenset({"Ada"})

    def test_define_records_latent_effect(self, hr_db):
        t = hr_db.define("define all_emps() as Employees;")
        assert t.effect == Effect.of(read("Employee"))

    def test_duplicate_define_rejected(self, hr_db):
        hr_db.define("define f(x: int) as x;")
        with pytest.raises(IOQLTypeError, match="already exists"):
            hr_db.define("define f(x: int) as x + 1;")

    def test_definitions_compose(self, hr_db):
        hr_db.define("define base() as 100;")
        hr_db.define("define doubled() as base() + base();")
        assert hr_db.query("doubled()").python() == 200


class TestStaticAnalysis:
    def test_typecheck(self, hr_db):
        assert hr_db.typecheck("{ e.EmpID | e <- Employees }") == SetType(INT)

    def test_effect_of(self, hr_db):
        assert hr_db.effect_of("Managers") == Effect.of(read("Manager"))

    def test_typecheck_with_effect(self, hr_db):
        t, e = hr_db.typecheck_with_effect(
            'new Person(name: "x", age: 1, address: "a")'
        )
        assert str(t) == "Person"
        assert e == Effect.of(add("Person"))

    def test_oids_typed_in_context(self, hr_db):
        (mgr,) = hr_db.extent("Managers")
        assert str(hr_db.typecheck(OidRef(mgr))) == "Manager"

    def test_is_deterministic_positive(self, hr_db):
        assert hr_db.is_deterministic("{ p.name | p <- Persons }")

    def test_is_deterministic_negative(self, hr_db):
        src = (
            "{ (if size(Persons) = 0 then 0 "
            "   else struct(a: 1, b: new Person(name: p.name, age: 0, address: p.address)).a) "
            "  | p <- Persons }"
        )
        assert not hr_db.is_deterministic(src)
        assert hr_db.determinism_witnesses(src)

    def test_commutation_conflicts(self, hr_db):
        src = (
            "Persons union "
            '{ struct(a: q, b: new Person(name: "x", age: 0, address: "y")).a | q <- Persons }'
        )
        assert hr_db.commutation_conflicts(src)
        with pytest.raises(IOQLEffectError):
            hr_db.check_commutable(src)

    def test_check_commutable_ok(self, hr_db):
        hr_db.check_commutable("Persons union Managers")


class TestFrontEnd:
    """Q is consulted in place, and ``run`` derives type and effect once."""

    def test_binder_shares_q_and_copies_only_locals(self, hr_db):
        ctx = hr_db.type_context().extend("x", INT)
        assert ctx.base is hr_db.oid_types()
        assert dict(ctx.vars) == {"x": INT}

    @pytest.fixture
    def derivations(self, monkeypatch):
        """Every Figure 1 run by the database and every traced Figure 3."""
        import repro.db.database as database
        from repro.effects.checker import EffectChecker

        calls: list[str] = []
        check_traced = EffectChecker.check_traced
        check_query = database.check_query

        def counted_traced(self, ctx, q):
            calls.append("figure 3")
            return check_traced(self, ctx, q)

        def counted_check(ctx, q):
            calls.append("figure 1")
            return check_query(ctx, q)

        monkeypatch.setattr(EffectChecker, "check_traced", counted_traced)
        monkeypatch.setattr(database, "check_query", counted_check)
        return calls

    READ = "{ e.name | e <- Employees }"
    NEW = 'new Person(name: "N", age: 1, address: "A")'

    @pytest.mark.parametrize(
        "srcs, batch, kw, warm, replica",
        [
            ([READ], False, {}, False, False),  # plan-cache miss
            ([READ], False, {}, True, False),  # plan-cache hit
            ([NEW], False, {}, False, False),
            ([NEW], False, {"atomic": True}, False, False),
            ([READ, NEW], True, {}, False, False),
            ([READ], False, {}, False, True),  # served by the replica
            ([READ], True, {}, False, True),  # pinned to the replica
        ],
        ids=["read-miss", "read-hit", "new", "atomic", "run-many",
             "routed", "pinned"],
    )
    def test_run_derives_once(
        self, hr_db, derivations, tmp_path, srcs, batch, kw, warm, replica
    ):
        """One Figure 3 derivation per query on every path: the
        scheduler and a replica reuse the one made on admission or
        before routing."""
        if replica:
            hr_db.attach_wal(str(tmp_path / "db"), sync=False)
            rset = hr_db.replicate(1)
        if warm:
            hr_db.run(srcs[0])
        derivations.clear()
        if batch:
            assert all(out.ok for out in hr_db.run_many(srcs))
        else:
            hr_db.run(srcs[0], **kw)
        assert derivations == ["figure 3"] * len(srcs)
        if replica:
            assert rset.routed_total == 1
            assert rset.pinned_total == int(batch)
            hr_db.close()

    ILL_TYPED = [
        ("1 + true", "right operand of + must have type int, got bool"),
        (
            "traverse(p in Persons over nosuch)",
            "traverse attribute 'nosuch' is not declared by any class "
            "reachable from Person",
        ),
        ("{ (Nope) x | x <- {} }", "cast to unknown class 'Nope'"),
        ("struct(a: 1, a: 2)", "duplicate labels in record ('a', 'a')"),
    ]

    @pytest.mark.parametrize("src, message", ILL_TYPED)
    @pytest.mark.parametrize("engine", ["auto", "reduction"])
    def test_ill_typed_run_keeps_figure1_wording(
        self, hr_db, src, message, engine
    ):
        with pytest.raises(IOQLTypeError) as by_typecheck:
            hr_db.typecheck(src)
        with pytest.raises(IOQLTypeError) as by_run:
            hr_db.run(src, engine=engine)
        (outcome,) = hr_db.run_many([src])
        assert isinstance(outcome.error, IOQLTypeError)
        assert str(by_run.value) == str(by_typecheck.value) == message
        assert str(outcome.error) == message

    @pytest.mark.parametrize("src, message", ILL_TYPED)
    def test_ill_typed_plan_raises_the_type_error(self, hr_db, src, message):
        with pytest.raises(IOQLTypeError) as by_typecheck:
            hr_db.typecheck(src)
        for plan in (hr_db.plan_decision, hr_db.explain_cost):
            with pytest.raises(IOQLTypeError) as by_plan:
                plan(src)
            assert str(by_plan.value) == str(by_typecheck.value) == message


class TestSnapshots:
    def test_snapshot_restore(self, hr_db):
        snap = hr_db.snapshot()
        hr_db.run('new Person(name: "tmp", age: 0, address: "t")')
        hr_db.define("define junk() as 1;")
        hr_db.restore(snap)
        assert "junk" not in hr_db.definitions
        r = hr_db.query("{ p.name | p <- Persons }")
        assert "tmp" not in r.python()

    def test_restore_keeps_definitions_of_snapshot(self, hr_db):
        hr_db.define("define keep() as 7;")
        snap = hr_db.snapshot()
        hr_db.run('new Person(name: "x", age: 0, address: "t")')
        hr_db.restore(snap)
        assert hr_db.query("keep()").python() == 7


class TestExplore:
    def test_explore_does_not_commit(self, hr_db):
        before = len(hr_db.extent("Persons"))
        hr_db.explore('new Person(name: "e", age: 0, address: "t")')
        assert len(hr_db.extent("Persons")) == before

    def test_explore_deterministic_query(self, hr_db):
        ex = hr_db.explore("{ e.EmpID | e <- Employees }")
        assert ex.deterministic()
