"""Hypothesis property tests over the core data structures and theorems.

These encode the paper's meta-level claims as machine-checked
properties over randomly drawn inputs:

* the fundamental property of evaluation contexts (unique
  decomposition / plugging);
* parser ∘ pretty-printer = identity;
* the substitution lemma (Lemma 1);
* the value-effect lemma (Lemma 2.1);
* subject reduction + progress + effect consistency (Theorems 1/2/5/6)
  on generated well-typed configurations;
* determinism theorems (4, 7) and commutation (8) on small configs;
* the effect algebra is a bounded join-semilattice;
* set-value canonicalisation is idempotent and order-insensitive.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.effects.algebra import EMPTY, AccessKind, Atom, Effect
from repro.lang.ast import SetOp, SetOpKind
from repro.lang.parser import parse_query
from repro.lang.pprint import pretty
from repro.lang.traversal import free_vars, subst
from repro.lang.values import canonicalize, is_value, make_set_value
from repro.metatheory.generators import (
    QueryGenerator,
    make_random_schema,
    make_random_store,
)
from repro.metatheory.theorems import (
    check_determinism,
    check_functional_determinism,
    check_progress,
    check_safe_commutativity,
    check_subject_reduction,
    check_type_soundness,
)
from repro.model.types import ClassType, SetType
from repro.semantics.contexts import decompose
from repro.semantics.machine import Machine
from repro.semantics.strategy import RandomStrategy
from repro.typing.checker import check_query
from repro.typing.context import TypeContext

# ---------------------------------------------------------------------------
# effect algebra laws
# ---------------------------------------------------------------------------

atoms = st.builds(
    Atom,
    st.sampled_from(list(AccessKind)),
    st.sampled_from(["A", "B", "C", "D"]),
)
effects = st.frozensets(atoms, max_size=6).map(Effect)


class TestEffectAlgebraProperties:
    @given(effects, effects, effects)
    def test_join_semilattice(self, a, b, c):
        assert (a | b) | c == a | (b | c)
        assert a | b == b | a
        assert a | a == a
        assert a | EMPTY == a

    @given(effects, effects)
    def test_subeffect_is_join_order(self, a, b):
        assert a.subeffect_of(a | b)
        assert (a | b == b) == a.subeffect_of(b)

    @given(effects, effects)
    def test_interference_symmetric(self, a, b):
        assert a.interferes_with(b) == b.interferes_with(a)

    @given(effects)
    def test_pure_never_interferes(self, a):
        assert not EMPTY.interferes_with(a)

    @given(effects)
    def test_nonint_matches_self_interference_modulo_adds(self, a):
        # nonint(ε) is interference of ε with itself, except that A/A on
        # one class is tolerated (fresh objects commute up to ∼)
        if a.noninterfering():
            assert not (a.reads() & a.writes())
            assert not a.updates()


# ---------------------------------------------------------------------------
# generated configurations — shared machinery
# ---------------------------------------------------------------------------


def _config(seed: int, *, allow_new=True, depth=4):
    rng = random.Random(seed)
    schema = make_random_schema(rng)
    ee, oe, supply = make_random_store(schema, rng)
    gen = QueryGenerator(schema, oe, rng, allow_new=allow_new, max_depth=depth)
    machine = Machine(schema, oid_supply=supply)
    ctx = TypeContext(
        schema, base={oid: ClassType(rec.cname) for oid, rec in oe.items()}
    )
    return schema, ee, oe, machine, gen, ctx


seeds = st.integers(min_value=0, max_value=10_000)


# ---------------------------------------------------------------------------
# syntax-level properties
# ---------------------------------------------------------------------------


class TestSyntaxProperties:
    @given(seeds)
    @settings(max_examples=60, deadline=None)
    def test_pretty_parse_roundtrip(self, seed):
        schema, ee, oe, machine, gen, ctx = _config(seed)
        q = gen.query(gen.random_type())
        extents = frozenset(schema.extents)
        assert parse_query(pretty(q), extents=extents) == q

    @given(seeds)
    @settings(max_examples=60, deadline=None)
    def test_unique_decomposition(self, seed):
        """Any query is a value xor decomposes, and plugging restores it."""
        schema, ee, oe, machine, gen, ctx = _config(seed)
        q = gen.query(gen.random_type())
        d = decompose(q)
        if d is None:
            assert is_value(q)
        else:
            assert not is_value(q)
            assert d.plug(d.redex) == q

    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_generated_queries_typecheck(self, seed):
        schema, ee, oe, machine, gen, ctx = _config(seed)
        target = gen.random_type()
        q = gen.query(target)
        assert schema.subtype(check_query(ctx, q), target)

    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_substitution_lemma(self, seed):
        """Lemma 1: substituting a value of a subtype preserves typing."""
        from repro.model.types import INT

        schema, ee, oe, machine, gen, ctx = _config(seed)
        q = gen.query(gen.random_type(), env={"hole": INT})
        if "hole" not in free_vars(q):
            return
        t_before = check_query(ctx.extend("hole", INT), q)
        out = subst(q, "hole", gen.query(INT, env={}))
        # replace the free variable by a closed int query and retype
        t_after = check_query(ctx, canonicalize_if_value(out))
        assert schema.subtype(t_after, t_before)


def canonicalize_if_value(q):
    return canonicalize(q) if is_value(q) else q


def _schema_to_odl(schema) -> str:
    """Render a generated schema back to ODL (generated schemas have no
    method bodies, so this is a plain syntax dump)."""
    out = []
    for name in sorted(schema.classes):
        cd = schema.classes[name]
        attrs = "\n".join(
            f"    attribute {a.type} {a.name};" for a in cd.attributes
        )
        out.append(
            f"class {cd.name} extends {cd.superclass} "
            f"(extent {cd.extent}) {{\n{attrs}\n}}"
        )
    return "\n".join(out)


# ---------------------------------------------------------------------------
# value properties
# ---------------------------------------------------------------------------

value_ints = st.lists(st.integers(-5, 5), max_size=8)


class TestValueProperties:
    @given(value_ints)
    def test_canonicalisation_idempotent(self, xs):
        from repro.lang.ast import IntLit

        v = make_set_value(IntLit(x) for x in xs)
        assert canonicalize(v) == v
        assert make_set_value(v.items) == v

    @given(value_ints)
    def test_order_insensitive(self, xs):
        from repro.lang.ast import IntLit

        a = make_set_value(IntLit(x) for x in xs)
        b = make_set_value(IntLit(x) for x in reversed(xs))
        assert a == b

    @given(value_ints, value_ints)
    def test_union_is_set_union(self, xs, ys):
        from repro.lang.ast import IntLit
        from repro.lang.values import set_union

        a = make_set_value(IntLit(x) for x in xs)
        b = make_set_value(IntLit(y) for y in ys)
        u = set_union(a, b)
        assert {i.value for i in u.items} == set(xs) | set(ys)


# ---------------------------------------------------------------------------
# metatheory properties (the paper's theorems, randomly probed)
# ---------------------------------------------------------------------------


class TestTheoremProperties:
    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_subject_reduction_and_progress(self, seed):
        schema, ee, oe, machine, gen, ctx = _config(seed)
        q = gen.query(gen.random_type())
        assert check_subject_reduction(machine, ee, oe, q)
        assert check_progress(machine, ee, oe, q)

    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_type_soundness_random_schedule(self, seed):
        schema, ee, oe, machine, gen, ctx = _config(seed)
        q = gen.query(gen.random_type())
        report = check_type_soundness(
            machine, ee, oe, q, strategies=(RandomStrategy(seed),)
        )
        assert report, report.detail

    @given(seeds)
    @settings(max_examples=15, deadline=None)
    def test_functional_determinism(self, seed):
        schema, ee, oe, machine, gen, ctx = _config(seed, allow_new=False, depth=3)
        q = gen.query(SetType(gen.random_type(depth=0)))
        report = check_functional_determinism(machine, ee, oe, q, max_paths=2_000)
        assert report, report.detail

    @given(seeds)
    @settings(max_examples=15, deadline=None)
    def test_determinism_theorem(self, seed):
        schema, ee, oe, machine, gen, ctx = _config(seed, depth=3)
        q = gen.query(SetType(gen.random_type(depth=0)))
        report = check_determinism(machine, ee, oe, q, max_paths=2_000)
        assert report, f"{report.detail}\n{q}"

    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_safe_commutativity(self, seed):
        schema, ee, oe, machine, gen, ctx = _config(seed, depth=2)
        elem = gen.random_type(depth=0)
        q = SetOp(
            SetOpKind.UNION, gen.query(SetType(elem)), gen.query(SetType(elem))
        )
        report = check_safe_commutativity(machine, ee, oe, q, max_paths=2_000)
        assert report, f"{report.detail}\n{q}"

    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_value_effect_lemma(self, seed):
        """Lemma 2.1: every value types with effect ∅."""
        from repro.effects.checker import EffectChecker

        schema, ee, oe, machine, gen, ctx = _config(seed, depth=2)
        q = gen.query(gen.random_type())
        if is_value(q):
            _, eff = EffectChecker().check(ctx, q)
            assert eff == EMPTY

    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_bigstep_agrees_with_machine(self, seed):
        """The two presentations of §3.3 compute the same function."""
        from repro.errors import FuelExhausted
        from repro.db.store import OidSupply
        from repro.semantics.bigstep import BigStepEvaluator
        from repro.semantics.evaluator import evaluate

        schema, ee, oe, machine, gen, ctx = _config(seed, depth=3)
        q = gen.query(gen.random_type())
        m = Machine(schema, oid_supply=OidSupply())
        try:
            small = evaluate(m, ee, oe, q, max_steps=3_000)
        except FuelExhausted:
            return
        big = BigStepEvaluator(schema, oid_supply=OidSupply()).evaluate(
            ee, oe, q
        )
        assert big.value == small.value
        assert big.ee == small.ee
        assert big.oe == small.oe
        assert big.effect == small.effect

    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_persistence_roundtrip_random_store(self, seed):
        """save ∘ load is the identity on random object graphs."""
        import json
        import random as _random

        from repro.db.database import Database
        from repro.db.persistence import dump_database, load_database
        from repro.lang.pprint import pretty

        rng = _random.Random(seed)
        schema, ee, oe, machine, gen, ctx = _config(seed, depth=2)
        # rebuild a Database wrapper around the generated store
        db = Database(schema)
        db.ee, db.oe = ee, oe
        odl = _schema_to_odl(schema)
        doc = json.loads(json.dumps(dump_database(db, odl)))
        db2 = load_database(doc)
        assert db2.oe == db.oe
        for e in db.ee.names():
            assert db2.extent(e) == db.extent(e)

    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_dynamic_effect_within_static(self, seed):
        """Theorem 5's corollary: the full trace ⊆ the inferred effect."""
        from repro.effects.checker import EffectChecker
        from repro.errors import FuelExhausted
        from repro.semantics.evaluator import evaluate

        schema, ee, oe, machine, gen, ctx = _config(seed, depth=3)
        q = gen.query(gen.random_type())
        _, static = EffectChecker().check(ctx, q)
        try:
            result = evaluate(machine, ee, oe, q, max_steps=3_000)
        except FuelExhausted:
            return
        assert result.effect.subeffect_of(static)
