"""Unit tests for the Figure 3 effect system (repro.effects.checker)."""

import itertools
import random

import pytest

from repro.effects.algebra import EMPTY, Effect, add, read, update
from repro.effects.checker import EffectChecker, effect_of
from repro.errors import IOQLTypeError
from repro.lang.ast import (
    BagLit,
    BoolLit,
    Cast,
    Comp,
    Field,
    Gen,
    IntLit,
    ListLit,
    RecordLit,
    SetLit,
    SetOp,
    SetOpKind,
    StrLit,
    Sum,
    ToSet,
    Traverse,
    Var,
)
from repro.lang.parser import parse_program, parse_query
from repro.lang.traversal import map_subqueries, walk
from repro.metatheory.generators import (
    QueryGenerator,
    make_random_schema,
    make_random_store,
)
from repro.model.odl_parser import parse_schema
from repro.model.types import INT, SetType, ClassType
from repro.typing.checker import check_query
from repro.typing.context import TypeContext

ODL = """
class Person extends Object (extent Persons) {
    attribute string name;
    attribute int age;
    int double_age() { return this.age + this.age; }
}
class Dog extends Object (extent Dogs) {
    attribute string name;
}
"""

EFFECTFUL_ODL = """
class Person extends Object (extent Persons) {
    attribute string name;
    attribute int age;
    int census() effect R(Person) {
        var n : int := 0;
        for (p in extent(Persons)) { n := n + 1; }
        return n;
    }
}
"""


@pytest.fixture(scope="module")
def schema():
    return parse_schema(ODL)


def eff(schema, src, **var_types):
    return effect_of(schema, parse_query(src, schema=schema), var_types=var_types)


class TestValueEffects:
    """Lemma 2.1: every value has the empty effect."""

    @pytest.mark.parametrize("src", ["1", "true", '"s"', "{}", "{1, 2}", "struct(a: 1)"])
    def test_values_pure(self, schema, src):
        assert eff(schema, src) == EMPTY


class TestAtomicEffects:
    def test_extent_read(self, schema):
        assert eff(schema, "Persons") == Effect.of(read("Person"))

    def test_new_add(self, schema):
        assert eff(schema, 'new Person(name: "x", age: 1)') == Effect.of(
            add("Person")
        )

    def test_read_only_method_contributes_nothing(self, schema):
        assert eff(
            schema, "p.double_age()", p=ClassType("Person")
        ) == EMPTY

    def test_effectful_method_latent_effect(self):
        schema = parse_schema(EFFECTFUL_ODL, allow_method_effects=True)
        assert effect_of(
            schema,
            parse_query("p.census()"),
            var_types={"p": ClassType("Person")},
        ) == Effect.of(read("Person"))


class TestCompositeEffects:
    def test_union_of_operand_effects(self, schema):
        assert eff(schema, "Persons union Dogs") == Effect.of(
            read("Person"), read("Dog")
        )

    def test_conditional_joins_branches(self, schema):
        e = eff(schema, "if true then size(Persons) else size(Dogs)")
        assert e == Effect.of(read("Person"), read("Dog"))

    def test_comprehension_joins_all_parts(self, schema):
        e = eff(
            schema,
            '{ struct(a: p, b: new Dog(name: "d")) | p <- Persons, size(Dogs) = 0 }',
        )
        assert e == Effect.of(read("Person"), read("Dog"), add("Dog"))

    def test_nested_new_in_set(self, schema):
        assert eff(schema, '{new Dog(name: "d")}') == Effect.of(add("Dog"))

    def test_record_and_projection(self, schema):
        assert eff(schema, "struct(a: size(Persons)).a") == Effect.of(
            read("Person")
        )

    def test_cast_passthrough(self, schema):
        e = eff(schema, "(Person) q", q=ClassType("Person"))
        assert e == EMPTY


class TestTypeAgreement:
    """The effect checker and the plain checker agree on types."""

    @pytest.mark.parametrize(
        "src",
        [
            "1 + 2",
            "Persons",
            "{p.name | p <- Persons, p.age < 10}",
            'new Dog(name: "d")',
            "size(Persons union Persons)",
            "if 1 = 1 then {1} else {}",
        ],
    )
    def test_types_match_figure1(self, schema, src):
        q = parse_query(src, schema=schema)
        ctx = TypeContext(schema)
        t1 = check_query(ctx, q)
        t2, _ = EffectChecker().check(ctx, q)
        assert t1 == t2

    def test_type_errors_match(self, schema):
        ctx = TypeContext(schema)
        for src in (
            "1 + true",
            "traverse(p in Persons over nosuch)",
            "{ (Nope) x | x <- {} }",
            "struct(a: 1, a: 2)",
        ):
            q = parse_query(src, schema=schema)
            with pytest.raises(IOQLTypeError):
                check_query(ctx, q)
            with pytest.raises(IOQLTypeError):
                EffectChecker().check(ctx, q)

    @pytest.mark.parametrize("seed", range(30))
    def test_generated_corpus_agrees_with_figure1(self, seed):
        """Figure 3 derives Figure 1's type on every generated query,
        and they reject the same queries when a random subterm is
        replaced by a primitive literal or put under each of the query
        forms of :func:`_wrappers`.  ``Database.run`` types with
        Figure 3 alone on the strength of this."""
        rng = random.Random(seed)
        schema = make_random_schema(rng)
        _, oe, _ = make_random_store(schema, rng)
        gen = QueryGenerator(schema, oe, rng, max_depth=4)
        wrappers = _wrappers(schema, rng)
        ctx = TypeContext(
            schema, base={o: ClassType(r.cname) for o, r in oe.items()}
        )

        def judge(check, q):
            try:
                return check(ctx, q)
            except IOQLTypeError:
                return IOQLTypeError

        accepted = rejected = 0
        for _ in range(20):
            q = gen.query(gen.random_type())
            literal = _replace_one(
                q, rng, lambda _: rng.choice([IntLit(3), BoolLit(True), StrLit("ada")])
            )
            wrapped = [_replace_one(q, rng, w) for w in wrappers]
            for candidate in (q, literal, *wrapped):
                t1 = judge(check_query, candidate)
                t2 = judge(lambda c, x: EffectChecker().check(c, x)[0], candidate)
                assert t1 == t2, f"{candidate}: Figure 1 {t1}, Figure 3 {t2}"
                if t1 is IOQLTypeError:
                    rejected += 1
                else:
                    accepted += 1
        assert accepted and rejected


def _replace_one(q, rng, make):
    """``q`` with one random subterm ``s`` replaced by ``make(s)``."""
    victim = rng.randrange(sum(1 for _ in walk(q)))
    index = itertools.count()

    def go(node):
        if next(index) == victim:
            return make(node)
        return map_subqueries(node, go)

    return go(q)


def _wrappers(schema, rng):
    """One function per query form, each putting a subterm under that
    form; the form may name an undeclared class or attribute, a negative
    depth or one label twice.  In a third of cases it takes a ⊥-typed
    variable bound over ``{}`` instead of the subterm.  The generator
    builds only well-typed queries, and no traverse, sum, toset, bag or
    list."""
    classes = sorted(schema.class_names() | {"Object", "Nope"})
    labels = sorted(
        {a for c in schema.class_names() for a, _ in schema.atypes(c)}
        | {"l", "nosuch"}
    )

    def set_op(a):
        kind = rng.choice([BagLit, ListLit])
        return SetOp(rng.choice(list(SetOpKind)), kind((a,)), kind(()))

    forms = [
        lambda a: Cast(rng.choice(classes), a),
        lambda a: Traverse(
            "t",
            rng.choice([a, SetLit((a,))]),
            rng.choice(labels),
            rng.choice([None, 0, 2, -1]),
        ),
        lambda a: RecordLit((("l", a), (rng.choice("lm"), a))),
        lambda a: Field(a, rng.choice(labels)),
        Sum,
        ToSet,
        lambda a: rng.choice([BagLit, ListLit])((a, a)),
        set_op,
    ]

    def under(form):
        def wrap(sub):
            if rng.random() < 1 / 3:
                return Comp(form(Var("z")), (Gen("z", SetLit(())),))
            return form(sub)

        return wrap

    return [under(f) for f in forms]


class TestDefinitionsWithLatentEffects:
    def test_latent_effect_recorded(self, schema):
        p = parse_program(
            "define all_persons() as Persons; 1", schema=schema
        )
        ctx = TypeContext(schema)
        ftype = EffectChecker().check_definition(ctx, p.definitions[0])
        assert ftype.effect == Effect.of(read("Person"))

    def test_latent_effect_released_at_call(self, schema):
        p = parse_program(
            "define all_persons() as Persons; size(all_persons())",
            schema=schema,
        )
        t, e = EffectChecker().check_program(schema, p)
        assert t == INT
        assert e == Effect.of(read("Person"))

    def test_unapplied_definition_is_pure(self, schema):
        # merely *having* a definition costs nothing; D carries the
        # latent effect for call sites
        p = parse_program("define f() as Persons; 1", schema=schema)
        _, e = EffectChecker().check_program(schema, p)
        assert e == EMPTY

    def test_pure_definition(self, schema):
        p = parse_program("define inc(x: int) as x + 1; inc(1)", schema=schema)
        _, e = EffectChecker().check_program(schema, p)
        assert e == EMPTY
