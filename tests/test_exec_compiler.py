"""The plan compiler: operator coverage, predicate order, hash joins.

Every answer is cross-checked against the reduction machine — the
compiled engine is an implementation of the same denotation, licensed
by Theorem 4 on read-only queries.
"""

import pytest

from repro.db.database import Database
from repro.errors import FuelExhausted
from repro.exec.compiler import NotCompilable, compile_plan
from repro.methods.ast import AccessMode

ODL = """
class Person extends Object (extent Persons) {
    attribute string name;
    attribute int age;
    int double_age() { return this.age + this.age; }
}
class Employee extends Person (extent Employees) {
    attribute int dept;
}
class Dept extends Object (extent Depts) {
    attribute int dno;
    attribute string dname;
}
"""


@pytest.fixture
def db() -> Database:
    d = Database.from_odl(ODL)
    d.insert("Person", name="Ada", age=36)
    d.insert("Person", name="Bob", age=17)
    d.insert("Employee", name="Cyd", age=44, dept=1)
    d.insert("Employee", name="Dan", age=23, dept=2)
    d.insert("Dept", dno=1, dname="R&D")
    d.insert("Dept", dno=2, dname="Ops")
    d.define("define seniors() as { p | p <- Persons, p.age >= 40 };")
    return d


COVERED = [
    "1 + 2 * 3 - 4",
    "10 - 2 * 3",
    '"a" = "b"',
    "1 < 2 and not (3 >= 4)",
    "{1, 2} union {2, 3}",
    "{1, 2, 3} intersect {2, 3, 4}",
    "{1, 2, 3} except {2}",
    "bag(1, 1, 2) union bag(2)",
    "toset(bag(1, 1, 2))",
    "list(1, 2) union list(3)",
    "size(Persons)",
    "size({1, 2} union {2})",
    "sum(bag(1, 2, 3))",
    "struct(a: 1, b: true).b",
    "if size(Persons) > 2 then 1 else 2",
    "{ p.name | p <- Persons }",
    "{ p.age + 1 | p <- Persons, p.age >= 18 }",
    "{ x + y | x <- {1, 2}, y <- {10, 20}, x < y }",
    "{ e.dept | e <- Employees }",
    "{ (Person) e | e <- Employees }",
    "{ p | p <- Persons, exists q in Persons : q.age > p.age }",
    "exists p in Persons : p.age = 36",
    "forall p in Persons : p.age > 0",
    "{ p.double_age() | p <- Persons }",
    "seniors()",
    "size(seniors())",
    "{ s.name | s <- seniors() }",
    "{ struct(e: e.name, d: d.dname) "
    "| e <- Employees, d <- Depts, d.dno = e.dept }",
    "{ struct(a: p.name, b: q.name) "
    "| p <- Persons, q <- Persons, p == q }",
]


class TestAgreementWithMachine:
    @pytest.mark.parametrize("src", COVERED)
    def test_compiled_equals_reduction(self, db, src):
        compiled = db.run(src, engine="compiled", commit=False)
        machine = db.run(src, engine="reduction", commit=False)
        assert compiled.value == machine.value
        # Theorem 5 analogue: the compiled dynamic trace stays within
        # the static bound
        static = db.effect_of(src)
        assert compiled.effect.subeffect_of(static)


class TestRefusals:
    def _compile(self, db, src):
        return compile_plan(
            db.schema,
            db._definitions,
            db.parse(src),
            method_mode=db.method_mode,
            method_fuel=1000,
        )

    def test_new_is_not_compilable(self, db):
        with pytest.raises(NotCompilable, match="new"):
            self._compile(db, 'new Person(name: "x", age: 0)')

    def test_unknown_definition_refused(self, db):
        with pytest.raises(NotCompilable):
            self._compile(db, "missing_def()")

    def test_effectful_method_mode_refuses_calls(self):
        odl = """
        class C extends Object (extent Cs) {
            attribute int n;
            int get() { return this.n; }
        }
        """
        d = Database.from_odl(odl, method_mode=AccessMode.EFFECTFUL)
        with pytest.raises(NotCompilable, match="method"):
            compile_plan(
                d.schema,
                d._definitions,
                d.parse("{ c.get() | c <- Cs }"),
                method_mode=d.method_mode,
                method_fuel=1000,
            )


class TestPlanShape:
    def _notes(self, db, src):
        return db.plan_decision(src).plan.notes

    def test_pushdown_noted(self, db):
        # only the optimizer moves predicates: the rewrite shows in the
        # explain header, and compiling the raw text keeps the order
        # the predicate was written in
        src = (
            "{ struct(a: p.name, b: x) "
            "| p <- Persons, x <- {1, 2}, p.age < 40 }"
        )
        assert "pred-pushdown" in db.explain_cost(src).rewrites
        plan = compile_plan(
            db.schema,
            db._definitions,
            db.parse(src),
            method_mode=db.method_mode,
            method_fuel=1000,
        )
        assert not any("pushdown" in n for n in plan.notes)

    def test_equi_join_uses_attribute_index(self, db):
        notes = self._notes(
            db,
            "{ struct(e: e.name, d: d.dname) "
            "| e <- Employees, d <- Depts, d.dno = e.dept }",
        )
        assert any("via index Depts.dno" in n for n in notes)

    def test_oid_join_noted(self, db):
        notes = self._notes(
            db,
            "{ p.name | p <- Persons, q <- Persons, p == q }",
        )
        assert any("hash join" in n for n in notes)

    def test_correlated_generator_gets_no_join(self, db):
        # q's source depends on p: a hash table cannot be reused
        notes = self._notes(
            db,
            "{ q | p <- Persons, q <- { p.age }, q = p.age }",
        )
        assert not any("hash join" in n for n in notes)

    def test_duplicate_vars_get_no_join(self, db):
        notes = self._notes(
            db,
            "{ x | x <- {1, 2}, x <- {2, 3}, x = 2 }",
        )
        assert not any("hash join" in n for n in notes)

    def test_join_pairs_scale_subquadratically(self, db):
        # the join workload touches each row O(1) times: ops should be
        # far below |Employees| × |Depts| once both sides grow
        for i in range(40):
            db.insert("Employee", name=f"e{i}", age=20 + i % 30, dept=i % 7)
            db.insert("Dept", dno=100 + i, dname=f"d{i}")
        src = (
            "{ struct(e: e.name, d: d.dname) "
            "| e <- Employees, d <- Depts, d.dno = e.dept }"
        )
        compiled = db.run(src, engine="compiled", commit=False)
        n_emp = len(db.extent("Employees"))
        n_dep = len(db.extent("Depts"))
        assert compiled.steps < n_emp * n_dep / 2


class TestJoinSemantics:
    def test_empty_probe_side_never_builds(self, db):
        # no Employee has dept 99; the join finds nothing
        r = db.run(
            "{ d.dname | e <- Employees, d <- Depts, d.dno = e.dept, "
            "e.dept = 99 }",
            engine="compiled",
            commit=False,
        )
        assert r.python() == frozenset()

    def test_join_respects_filters_before_and_after(self, db):
        src = (
            "{ struct(e: e.name, d: d.dname) | e <- Employees, "
            "e.age > 30, d <- Depts, d.dno = e.dept, d.dname = \"R&D\" }"
        )
        compiled = db.run(src, engine="compiled", commit=False)
        machine = db.run(src, engine="reduction", commit=False)
        assert compiled.value == machine.value
        assert compiled.python() == frozenset(
            {(("d", "R&D"), ("e", "Cyd"))}
        ) or compiled.python() == machine.python()

    def test_dangling_oid_key_is_stuck(self, db):
        from repro.errors import EvalError
        from repro.exec.runtime import ExecContext

        ctx = ExecContext(db, db._store)
        from repro.exec.compiler import _check_key
        from repro.lang.ast import OidRef

        with pytest.raises(EvalError):
            _check_key(ctx, OidRef("@Person_999"), True)


LOOPY_ODL = """
class P extends Object (extent Ps) {
    attribute string name;
    attribute int age;
    int loopy() { while (true) { } }
    int ten() { return 10; }
}
class D extends Object (extent Ds) {
    attribute int dno;
}
"""


@pytest.fixture
def loopy_db() -> Database:
    d = Database.from_odl(LOOPY_ODL, method_fuel=500)
    d.insert("P", name="a", age=10)
    d.insert("P", name="b", age=20)
    d.insert("D", dno=1)
    d.define(
        "define f() as { p.name | p <- Ps, y <- { p.loopy() }, p.age > 100 };"
    )
    d.define(
        "define g() as { p.name | p <- Ps, y <- { p.ten() }, p.age > 15 };"
    )
    return d


class TestPredicatesStayWhereWritten:
    """Whether a query errs is part of its meaning.  A pure predicate
    written after a qualifier that may diverge must not be evaluated
    first: the optimizer refuses that move (the crossed qualifiers are
    not termination-safe), and the compiler moves no predicate, so the
    compiled engine diverges exactly where the machine and big-step do.
    """

    DIVERGENT = [
        "{ p.name | p <- Ps, y <- { p.loopy() }, p.age > 100 }",
        "{ p.name | p <- Ps, x <- {1, 2}, p.loopy() = 0, p.age > 100 }",
        "f()",
    ]
    TERMINATING = [
        "{ p.name | p <- Ps, y <- { p.ten() }, p.age > 15 }",
        "{ p.name | p <- Ps, x <- {1, 2}, p.ten() = 10, p.age > 15 }",
        "g()",
    ]

    @pytest.mark.parametrize("engine", ["auto", "reduction", "bigstep"])
    @pytest.mark.parametrize("src", DIVERGENT)
    def test_divergence_survives_compilation(self, loopy_db, src, engine):
        assert loopy_db.plan_decision(src).engine == "compiled"
        with pytest.raises(FuelExhausted):
            loopy_db.run(src, engine=engine, commit=False)

    def test_join_does_not_overtake_a_call(self, loopy_db):
        # the most selective equality is written after the call, so the
        # join may not key on it: no P matches a D, and a join would
        # answer {} without ever calling loopy()
        src = "{ p.name | q <- Ds, p <- Ps, p.loopy() = 0, p.age = q.dno }"
        notes = loopy_db.plan_decision(src).plan.notes
        assert not any("age" in n for n in notes if "hash join" in n)
        for engine in ("auto", "reduction", "bigstep"):
            with pytest.raises(FuelExhausted):
                loopy_db.run(src, engine=engine, commit=False)
        safe = "{ p.name | q <- Ds, p <- Ps, p.age = q.dno, p.loopy() = 0 }"
        notes = loopy_db.plan_decision(safe).plan.notes
        assert any("via index Ps.age" in n for n in notes)
        assert loopy_db.run(safe, commit=False).python() == frozenset()

    def test_shard_probe_does_not_overtake_a_call(self, loopy_db):
        from repro.db.shards import shard_of
        from repro.lang.ast import IntLit

        k = 8
        loopy_db.shard("P", k=k, by="age")
        held = {shard_of(IntLit(a), k) for a in (10, 20)}
        # a key whose shard holds no P: pruning would scan nothing
        key = next(v for v in range(100) if shard_of(IntLit(v), k) not in held)
        src = f"{{ p.name | p <- Ps, p.loopy() = 0, p.age = {key} }}"
        notes = loopy_db.plan_decision(src).plan.notes
        assert not any("shard-prune" in n for n in notes)
        with pytest.raises(FuelExhausted):
            loopy_db.run(src, commit=False)
        safe = f"{{ p.name | p <- Ps, p.age = {key}, p.loopy() = 0 }}"
        notes = loopy_db.plan_decision(safe).plan.notes
        assert any("shard-prune" in n for n in notes)
        assert loopy_db.run(safe, commit=False).python() == frozenset()

    @pytest.mark.parametrize("src", TERMINATING)
    def test_terminating_method_agrees(self, loopy_db, src):
        assert loopy_db.plan_decision(src).engine == "compiled"
        values = [
            loopy_db.run(src, engine=engine, commit=False).value
            for engine in ("auto", "reduction", "bigstep")
        ]
        assert values[0] == values[1] == values[2]
        assert loopy_db.run(src, commit=False).python() == frozenset({"b"})


class TestScopeDiscipline:
    def test_sibling_comprehensions_do_not_leak(self, db):
        r = db.run(
            "{ x | x <- {1} } union { x | x <- {2} }",
            engine="compiled",
        )
        assert r.python() == frozenset({1, 2})

    def test_shadowing_restores_outer_binding(self, db):
        src = "{ struct(a: x, b: size({ x | x <- {10, 20} })) | x <- {1} }"
        compiled = db.run(src, engine="compiled", commit=False)
        machine = db.run(src, engine="reduction", commit=False)
        assert compiled.value == machine.value
        assert compiled.python() == ({"a": 1, "b": 2},)

    def test_definition_params_fresh_per_call(self, db):
        db.define("define plus(x: int, y: int) as x + y;")
        r = db.run("plus(1, 2) + plus(10, 20)", engine="compiled")
        assert r.python() == 33
