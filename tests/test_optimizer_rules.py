"""Unit tests for individual rewrite rules and their side conditions."""

import pytest

from repro.db.database import Database
from repro.lang.ast import SetLit
from repro.lang.parser import parse_query
from repro.optimizer.rules import (
    ARITH_FOLD,
    COMMUTE_SETOP,
    EMPTY_GEN,
    EMPTY_SETOP,
    FALSE_PRED,
    IF_CONST_FOLD,
    PRED_PUSHDOWN,
    RECORD_PROJ,
    TRUE_PRED,
    UNNEST,
    RewriteContext,
    termination_safe,
)

ODL = """
class Person extends Object (extent Persons) {
    attribute string name;
    attribute int age;
    int shout() { return this.age * 10; }
}
"""


@pytest.fixture(scope="module")
def db():
    d = Database.from_odl(ODL)
    d.insert("Person", name="a", age=1)
    d.insert("Person", name="b", age=2)
    return d


@pytest.fixture
def rc(db):
    return RewriteContext(db.type_context())


def q(db, src):
    return db.parse(src)


class TestTerminationSafety:
    def test_plain_queries_safe(self, db):
        assert termination_safe(q(db, "{p.name | p <- Persons, p.age < 3}"))

    def test_method_call_unsafe(self, db):
        assert not termination_safe(q(db, "{p.shout() | p <- Persons}"))

    def test_defcall_unsafe(self, db):
        assert not termination_safe(q(db, "f(1)"))


class TestAlwaysSafeFolds:
    def test_if_true(self, rc, db):
        assert IF_CONST_FOLD.apply(rc, q(db, "if true then 1 else 2")) == q(db, "1")

    def test_if_false(self, rc, db):
        assert IF_CONST_FOLD.apply(rc, q(db, "if false then 1 else 2")) == q(db, "2")

    def test_if_nonconst_declines(self, rc, db):
        assert IF_CONST_FOLD.apply(rc, q(db, "if 1 = 1 then 1 else 2")) is None

    def test_arith(self, rc, db):
        assert ARITH_FOLD.apply(rc, q(db, "2 + 3")) == q(db, "5")
        assert ARITH_FOLD.apply(rc, q(db, "2 * 3")) == q(db, "6")
        assert ARITH_FOLD.apply(rc, q(db, "2 < 3")) == q(db, "true")
        assert ARITH_FOLD.apply(rc, q(db, "2 = 3")) == q(db, "false")
        assert ARITH_FOLD.apply(rc, q(db, '"a" = "a"')) == q(db, "true")

    def test_size_of_literal_set(self, rc, db):
        assert ARITH_FOLD.apply(rc, q(db, "size({1, 2, 2})")) == q(db, "2")

    def test_union_empty_right(self, rc, db):
        assert EMPTY_SETOP.apply(rc, q(db, "Persons union {}")) == q(db, "Persons")

    def test_union_empty_left(self, rc, db):
        assert EMPTY_SETOP.apply(rc, q(db, "{} union Persons")) == q(db, "Persons")

    def test_except_empty_right(self, rc, db):
        assert EMPTY_SETOP.apply(rc, q(db, "Persons except {}")) == q(db, "Persons")


class TestEffectGatedSetOps:
    def test_intersect_empty_discards_pure(self, rc, db):
        out = EMPTY_SETOP.apply(rc, q(db, "{} intersect {1, 2}"))
        assert out == SetLit(())

    def test_intersect_empty_keeps_read(self, rc, db):
        # reading an extent is pure? no — R(Person) ≠ ∅, so declined
        assert EMPTY_SETOP.apply(rc, q(db, "{} intersect Persons")) is None

    def test_intersect_empty_keeps_writes(self, rc, db):
        src = '{} intersect {new Person(name: "x", age: 0)}'
        assert EMPTY_SETOP.apply(rc, q(db, src)) is None

    def test_except_empty_left_needs_discardable(self, rc, db):
        assert EMPTY_SETOP.apply(rc, q(db, "{} except Persons")) is None
        assert EMPTY_SETOP.apply(rc, q(db, "{} except {1}")) == SetLit(())


class TestComprehensionRules:
    def test_true_pred_dropped(self, rc, db):
        out = TRUE_PRED.apply(rc, q(db, "{p | p <- Persons, true}"))
        assert out == q(db, "{p | p <- Persons}")

    def test_false_pred_collapses_pure_prefix(self, rc, db):
        out = FALSE_PRED.apply(rc, q(db, "{x | x <- {1, 2}, false}"))
        assert out == SetLit(())

    def test_false_pred_keeps_effectful_prefix(self, rc, db):
        src = '{x.name | x <- {new Person(name: "n", age: 0)}, false}'
        assert FALSE_PRED.apply(rc, q(db, src)) is None

    def test_false_pred_extent_read_prefix_ok(self, rc, db):
        # reads are skippable (write-free): dropping them is invisible
        out = FALSE_PRED.apply(rc, q(db, "{p | p <- Persons, false}"))
        assert out == SetLit(())

    def test_false_pred_method_prefix_blocks(self, rc, db):
        # method calls may diverge: cannot discard
        src = "{p | p <- Persons, p.shout() = 10, false}"
        assert FALSE_PRED.apply(rc, q(db, src)) is None

    def test_empty_gen(self, rc, db):
        out = EMPTY_GEN.apply(rc, q(db, "{x | p <- Persons, x <- {}}"))
        assert out == SetLit(())

    def test_pushdown_moves_pred_before_unrelated_gen(self, rc, db):
        src = "{struct(a: x, b: y) | x <- {1, 2}, y <- {3, 4}, x < 2}"
        out = PRED_PUSHDOWN.apply(rc, q(db, src))
        assert out == q(db, "{struct(a: x, b: y) | x <- {1, 2}, x < 2, y <- {3, 4}}")

    def test_pushdown_respects_binding(self, rc, db):
        src = "{x | x <- {1}, y <- {2}, y < 9}"
        out = PRED_PUSHDOWN.apply(rc, q(db, src))
        # y < 9 cannot cross its own binder
        assert out is None

    def test_pushdown_declines_effectful_pred(self, rc, db):
        src = '{x | x <- {1}, y <- {2}, size({new Person(name: "q", age: 0)}) = x}'
        assert PRED_PUSHDOWN.apply(rc, q(db, src)) is None

    def test_pushdown_declines_method_pred(self, rc, db):
        src = "{p | x <- {1, 2}, p <- Persons, p.shout() > 0}"
        assert PRED_PUSHDOWN.apply(rc, q(db, src)) is None

    def test_pushdown_never_swaps_predicates(self, rc, db):
        src = '{p.name | p <- Persons, p.age >= 2, p.name = "a"}'
        assert PRED_PUSHDOWN.apply(rc, q(db, src)) is None

    def test_pushdown_keeps_predicate_order(self, rc, db):
        # x <- X, y <- Y, P(x), Q(x)  →  x <- X, P(x), Q(x), y <- Y
        comp = "{struct(a: p, b: x) | p <- Persons, "
        start = q(db, comp + 'x <- {1, 2}, p.age < 3, p.name = "a"}')
        once = PRED_PUSHDOWN.apply(rc, start)
        assert once == q(db, comp + 'p.age < 3, x <- {1, 2}, p.name = "a"}')
        twice = PRED_PUSHDOWN.apply(rc, once)
        assert twice == q(db, comp + 'p.age < 3, p.name = "a", x <- {1, 2}}')
        assert PRED_PUSHDOWN.apply(rc, twice) is None

    def test_pushdown_crosses_generators_behind_a_barrier(self, rc, db):
        # a method call may diverge: the pushed predicate lands after it
        src = "{p | p <- Persons, p.shout() > 0, x <- {1}, p.age < 3}"
        out = PRED_PUSHDOWN.apply(rc, q(db, src))
        assert out == q(db, "{p | p <- Persons, p.shout() > 0, p.age < 3, x <- {1}}")
        assert PRED_PUSHDOWN.apply(rc, out) is None


class TestUnnest:
    def test_flattens_nested_comprehension(self, rc, db):
        src = "{x + 1 | x <- {y * 2 | y <- {1, 2, 3}}}"
        out = UNNEST.apply(rc, q(db, src))
        assert out == q(db, "{(y * 2) + 1 | y <- {1, 2, 3}}")

    def test_preserves_rest_qualifiers(self, rc, db):
        src = "{x | x <- {y | y <- {1, 2}}, x < 2}"
        out = UNNEST.apply(rc, q(db, src))
        assert out == q(db, "{y | y <- {1, 2}, y < 2}")

    def test_declines_effectful_head(self, rc, db):
        src = '{x.name | x <- {new Person(name: "q", age: y) | y <- {1}}}'
        assert UNNEST.apply(rc, q(db, src)) is None

    def test_declines_method_head(self, rc, db):
        src = "{x + 1 | x <- {p.shout() | p <- Persons}}"
        assert UNNEST.apply(rc, q(db, src)) is None

    def test_alpha_renames_on_capture(self, rc, db):
        # inner head mentions y; outer rest also binds y
        src = "{x | x <- {y | y <- {1}}, y <- {2}, x < y}"
        out = UNNEST.apply(rc, q(db, src))
        if out is not None:
            from repro.lang.traversal import free_vars

            assert free_vars(out) == frozenset()


class TestRecordProj:
    def test_projects_through(self, rc, db):
        out = RECORD_PROJ.apply(rc, q(db, "struct(a: 1 + 2, b: 3).a"))
        assert out == q(db, "1 + 2")

    def test_declines_when_sibling_effectful(self, rc, db):
        src = 'struct(a: 1, b: new Person(name: "x", age: 0)).a'
        assert RECORD_PROJ.apply(rc, q(db, src)) is None

    def test_declines_when_sibling_calls_method(self, rc, db):
        src = "struct(a: 1, b: p.shout()).a"
        ctx2 = RewriteContext(
            db.type_context().extend("p", db.typecheck("{p | p <- Persons}").elem)
        )
        assert RECORD_PROJ.apply(ctx2, q(db, src)) is None


class TestCommuteRule:
    def test_commutes_pure(self, rc, db):
        out = COMMUTE_SETOP.apply(rc, q(db, "{1} union {2}"))
        assert out == q(db, "{2} union {1}")

    def test_commutes_reads(self, rc, db):
        out = COMMUTE_SETOP.apply(rc, q(db, "Persons intersect Persons"))
        assert out is not None

    def test_declines_interference(self, rc, db):
        src = 'Persons union {new Person(name: "x", age: 0)}'
        assert COMMUTE_SETOP.apply(rc, q(db, src)) is None

    def test_declines_except(self, rc, db):
        assert COMMUTE_SETOP.apply(rc, q(db, "{1} except {2}")) is None
