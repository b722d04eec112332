"""Unit tests for the derived forms (repro.lang.sugar) — both their
shapes and their run-time behaviour."""

import pytest

from repro.db.database import Database
from repro.lang import sugar
from repro.lang.ast import Comp, Gen, If, Pred, PrimEq, Size, Var
from repro.lang.parser import parse_query
from repro.lang.values import FALSE, TRUE
from repro.semantics.evaluator import evaluate

ODL = """
class Person extends Object (extent Persons) {
    attribute string name;
    attribute int age;
}
"""


@pytest.fixture
def db():
    d = Database.from_odl(ODL)
    d.insert("Person", name="a", age=10)
    d.insert("Person", name="b", age=20)
    d.insert("Person", name="c", age=30)
    return d


class TestShapes:
    def test_and_shape(self):
        assert sugar.and_(Var("p"), Var("q")) == If(Var("p"), Var("q"), FALSE)

    def test_or_shape(self):
        assert sugar.or_(Var("p"), Var("q")) == If(Var("p"), TRUE, Var("q"))

    def test_not_shape(self):
        assert sugar.not_(Var("p")) == If(Var("p"), FALSE, TRUE)

    def test_exists_shape(self):
        q = sugar.exists("x", Var("s"), Var("p"))
        assert isinstance(q, PrimEq)
        assert isinstance(q.right, Size)
        inner = q.right.arg
        assert isinstance(inner, Comp)
        assert inner.qualifiers == (Gen("x", Var("s")), Pred(Var("p")))

    def test_select_shape(self):
        q = sugar.select(Var("h"), [("x", Var("s"))], Var("p"))
        assert q == Comp(Var("h"), (Gen("x", Var("s")), Pred(Var("p"))))

    def test_select_no_where(self):
        q = sugar.select(Var("h"), [("x", Var("s"))])
        assert q == Comp(Var("h"), (Gen("x", Var("s")),))


class TestShortCircuit:
    """and/or must be lazy in the right operand, exactly like CBV if."""

    def test_and_short_circuits(self, db):
        # the right operand would be stuck (unbound var) if evaluated;
        # run() rejects the ill-typed query, so drive the machine
        q = parse_query("false and (1 = size(zz))")
        assert evaluate(db.machine, db.ee, db.oe, q).python() is False

    def test_or_short_circuits(self, db):
        q = parse_query("true or (1 = size(zz))")
        assert evaluate(db.machine, db.ee, db.oe, q).python() is True

    def test_and_truth_table(self, db):
        for a in (True, False):
            for b in (True, False):
                src = f"{str(a).lower()} and {str(b).lower()}"
                assert db.run(src).python() is (a and b)

    def test_or_truth_table(self, db):
        for a in (True, False):
            for b in (True, False):
                src = f"{str(a).lower()} or {str(b).lower()}"
                assert db.run(src).python() is (a or b)

    def test_not(self, db):
        assert db.run("not true").python() is False
        assert db.run("not false").python() is True


class TestQuantifierSemantics:
    def test_exists_true(self, db):
        assert db.run("exists p in Persons : p.age = 20").python() is True

    def test_exists_false(self, db):
        assert db.run("exists p in Persons : p.age = 99").python() is False

    def test_exists_empty_domain(self, db):
        assert db.run("exists x in {} : x = 1").python() is False

    def test_forall_true(self, db):
        assert db.run("forall p in Persons : p.age > 5").python() is True

    def test_forall_false(self, db):
        assert db.run("forall p in Persons : p.age > 15").python() is False

    def test_forall_empty_domain_vacuous(self, db):
        assert db.run("forall x in {1} except {1} : x = 99").python() is True

    def test_nested_quantifiers(self, db):
        src = "forall p in Persons : exists q in Persons : q.age > p.age or p.age = 30"
        assert db.run(src).python() is True


class TestIsEmpty:
    def test_is_empty(self, db):
        q = sugar.is_empty(db.parse("{p | p <- Persons, p.age > 99}"))
        assert db.run(q).python() is True

    def test_not_empty(self, db):
        q = sugar.is_empty(db.parse("Persons"))
        assert db.run(q).python() is False
