"""The effect type system of Figure 3: ``E; D; Q ⊢ q : σ ! ε``.

Each branch of :meth:`EffectChecker.check` is one rule of Figure 3;
the structure deliberately mirrors :mod:`repro.typing.checker` (the
effect system "is an adjunct to the type system").  The checker
computes the *least* effect derivable for a query; the paper's (Does)
rule — weakening to any larger effect — is then admissible, realised
here by :meth:`~repro.effects.algebra.Effect.subeffect_of`.

The two refinements of §4 are one-rule deltas, exactly as the paper
presents them:

* the ⊢′ system (:mod:`repro.effects.determinism`) overrides the
  generator rule (Comp2) to require ``nonint`` of the body's effect —
  Theorem 7 then guarantees determinism up to an oid bijection;
* the ⊢″ system (:mod:`repro.effects.commutativity`) overrides the
  binary set-operator rule to require the operands not to interfere —
  Theorem 8 then licenses commuting them.

Both are implemented as subclasses overriding a single hook method.
"""

from __future__ import annotations

from typing import Mapping

from repro.effects.algebra import EMPTY, Effect, add, read
from repro.errors import IOQLTypeError, SchemaError
from repro.lang.ast import (
    BagLit,
    BoolLit,
    Cast,
    Cmp,
    Comp,
    DefCall,
    Definition,
    ExtentRef,
    Field,
    Gen,
    If,
    IntLit,
    IntOp,
    ListLit,
    MethodCall,
    New,
    ObjEq,
    OidRef,
    Pred,
    PrimEq,
    Program,
    Qualifier,
    Query,
    RecordLit,
    SetLit,
    SetOp,
    Size,
    StrLit,
    Sum,
    ToSet,
    Traverse,
    Var,
)
from repro.model.closure import attr_in_closure, closure_read_set, result_lub
from repro.model.schema import Schema
from repro.obs._state import STATE as _OBS
from repro.obs.metrics import REGISTRY as _METRICS
from repro.obs.spans import span as _span
from repro.model.types import (
    BOOL,
    EMPTY_SET_T,
    INT,
    NEVER,
    OBJECT,
    STRING,
    BagType,
    ClassType,
    FuncType,
    ListType,
    NeverType,
    RecordType,
    SetType,
    Type,
)
from repro.typing.context import TypeContext


class EffectChecker:
    """The ⊢ system of Figure 3; subclass hooks give ⊢′ and ⊢″."""

    system_name = "⊢"

    # -- hook points -----------------------------------------------------
    def on_generator(
        self,
        body_effect: Effect,
        comp: Comp,
        gen: Gen,
        *,
        source_type: Type | None = None,
    ) -> None:
        """Called per generator with the effect ε₁ of the residual
        comprehension ``{q | c⃗q}`` — the quantity the ⊢′ (Comp2′) rule
        constrains — and the generator source's collection type (list
        iteration is ordered, hence exempt).  The base system accepts
        everything."""

    def on_setop(
        self,
        op: SetOp,
        left: Effect,
        right: Effect,
        *,
        left_type: Type | None = None,
        right_type: Type | None = None,
    ) -> None:
        """Called per binary set operator with the operand effects —
        the quantities the ⊢″ rule constrains — and the operand types
        (list ``union`` is concatenation, never commutable).  Base:
        accept."""

    # -- instrumented entry point ----------------------------------------
    def check_traced(self, ctx: TypeContext, q: Query) -> tuple[Type, Effect]:
        """:meth:`check` wrapped in an ``effects`` span.

        Records inference wall-time and the size |ε| of the inferred
        effect (its atom count).  The recursive judgement itself stays
        uninstrumented — one derivation is one observation, not
        thousands.
        """
        with _span("effects", system=self.system_name):
            t, eff = self.check(ctx, q)
            if _OBS.enabled:
                _METRICS.counter("effect_inferences_total").inc()
                _METRICS.histogram(
                    "effect_size", bounds=(0, 1, 2, 4, 8, 16)
                ).observe(len(eff.atoms))
            return t, eff

    # -- the judgement ---------------------------------------------------
    def check(self, ctx: TypeContext, q: Query) -> tuple[Type, Effect]:
        """Derive ``q : σ ! ε``; raises on type errors or hook vetoes.

        The base system accepts exactly the queries Figure 1 accepts,
        at the same σ: ``Database.run`` types with this alone.
        """
        # (Int), (Bool), strings: values have the empty effect (Lemma 2.1)
        if isinstance(q, IntLit):
            return INT, EMPTY
        if isinstance(q, BoolLit):
            return BOOL, EMPTY
        if isinstance(q, StrLit):
            return STRING, EMPTY
        if isinstance(q, (Var, OidRef)):
            return ctx.var_type(q.name), EMPTY

        # (Extent): the read effect R(C)
        if isinstance(q, ExtentRef):
            cname = ctx.extent_class(q.name)
            return SetType(ClassType(cname)), Effect.of(read(cname))

        if isinstance(q, SetLit):
            if not q.items:
                return EMPTY_SET_T, EMPTY
            elem: Type = NEVER
            eff = EMPTY
            for item in q.items:
                t, e = self.check(ctx, item)
                elem = self._lub(ctx, elem, t, "set literal")
                eff |= e
            return SetType(elem), eff

        if isinstance(q, (BagLit, ListLit)):
            elem: Type = NEVER
            eff = EMPTY
            for item in q.items:
                t, e = self.check(ctx, item)
                elem = self._lub(ctx, elem, t, "collection literal")
                eff |= e
            kind = BagType if isinstance(q, BagLit) else ListType
            return kind(elem), eff

        if isinstance(q, ToSet):
            at, eff = self.check(ctx, q.arg)
            if isinstance(at, NeverType):
                return SetType(NEVER), eff
            if not isinstance(at, (SetType, BagType, ListType)):
                raise IOQLTypeError(f"toset of non-collection {at}")
            return SetType(at.elem), eff

        if isinstance(q, SetOp):
            lt, le = self.check(ctx, q.left)
            rt, re_ = self.check(ctx, q.right)
            lt = SetType(NEVER) if isinstance(lt, NeverType) else lt
            rt = SetType(NEVER) if isinstance(rt, NeverType) else rt
            if type(lt) is not type(rt) or not isinstance(
                lt, (SetType, BagType, ListType)
            ):
                raise IOQLTypeError(f"set operator on {lt}, {rt}")
            from repro.lang.ast import SetOpKind as _SOK

            if isinstance(lt, ListType) and q.op is not _SOK.UNION:
                raise IOQLTypeError(
                    f"lists support only union, not {q.op.symbol}"
                )
            self.on_setop(q, le, re_, left_type=lt, right_type=rt)
            elem = self._lub(ctx, lt.elem, rt.elem, f"operands of {q.op.symbol}")
            return type(lt)(elem), le | re_

        if isinstance(q, IntOp):
            le = self._expect(ctx, q.left, INT, q.op.value)
            re_ = self._expect(ctx, q.right, INT, q.op.value)
            return INT, le | re_

        if isinstance(q, PrimEq):
            lt, le = self.check(ctx, q.left)
            rt, re_ = self.check(ctx, q.right)
            j = ctx.schema.hierarchy.lub(lt, rt)
            if j is None or not (j.is_primitive() or isinstance(j, NeverType)):
                raise IOQLTypeError(f"'=' on {lt} = {rt}")
            return BOOL, le | re_

        if isinstance(q, ObjEq):
            eff = EMPTY
            for side in (q.left, q.right):
                t, e = self.check(ctx, side)
                if not isinstance(t, (ClassType, NeverType)):
                    raise IOQLTypeError(f"'==' on non-object type {t}")
                eff |= e
            return BOOL, eff

        if isinstance(q, Cmp):
            le = self._expect(ctx, q.left, INT, q.op.value)
            re_ = self._expect(ctx, q.right, INT, q.op.value)
            return BOOL, le | re_

        if isinstance(q, RecordLit):
            labels = q.labels()
            if len(labels) != len(set(labels)):
                raise IOQLTypeError(f"duplicate labels in record {labels}")
            fields: list[tuple[str, Type]] = []
            eff = EMPTY
            for l, sub in q.fields:
                t, e = self.check(ctx, sub)
                fields.append((l, t))
                eff |= e
            return RecordType(tuple(fields)), eff

        if isinstance(q, Field):
            tt, eff = self.check(ctx, q.target)
            if isinstance(tt, NeverType):
                return NEVER, eff
            if isinstance(tt, RecordType):
                ft = tt.field_type(q.name)
                if ft is None:
                    raise IOQLTypeError(f"record {tt} has no label {q.name!r}")
                return ft, eff
            if isinstance(tt, ClassType):
                try:
                    return ctx.schema.atype(tt.name, q.name), eff
                except SchemaError as exc:
                    raise IOQLTypeError(str(exc)) from None
            raise IOQLTypeError(f".{q.name} on {tt}")

        # (Definition access): argument effects ∪ the latent effect
        if isinstance(q, DefCall):
            ftype = ctx.def_type(q.name)
            eff = self._args(ctx, q.args, ftype.params, f"definition {q.name}")
            return ftype.result, eff | ftype.effect

        if isinstance(q, Size):
            t, eff = self.check(ctx, q.arg)
            if not isinstance(t, (SetType, BagType, ListType, NeverType)):
                raise IOQLTypeError(f"size of non-collection {t}")
            return INT, eff

        if isinstance(q, Sum):
            t, eff = self.check(ctx, q.arg)
            if isinstance(t, NeverType):
                return INT, eff
            if not isinstance(t, (SetType, BagType, ListType)):
                raise IOQLTypeError(f"sum of non-collection {t}")
            if not ctx.subtype(t.elem, INT):
                raise IOQLTypeError(f"sum needs integer elements, got {t.elem}")
            return INT, eff

        if isinstance(q, Cast):
            if not ctx.schema.hierarchy.declared(q.cname):
                raise IOQLTypeError(f"cast to unknown class {q.cname!r}")
            at, eff = self.check(ctx, q.arg)
            if isinstance(at, NeverType):
                return ClassType(q.cname), eff
            if not isinstance(at, ClassType) or not ctx.schema.hierarchy.is_subclass(
                at.name, q.cname
            ):
                raise IOQLTypeError(f"illegal cast ({q.cname}) on {at}")
            return ClassType(q.cname), eff

        # (Method): ε of target and arguments ∪ the method's ε″
        if isinstance(q, MethodCall):
            tt, eff = self.check(ctx, q.target)
            if isinstance(tt, NeverType):
                for a in q.args:
                    _, e = self.check(ctx, a)
                    eff |= e
                return NEVER, eff
            if not isinstance(tt, ClassType):
                raise IOQLTypeError(f"method call on {tt}")
            try:
                mt = ctx.schema.mtype(tt.name, q.mname)
            except SchemaError as exc:
                raise IOQLTypeError(str(exc)) from None
            eff |= self._args(ctx, q.args, mt.params, f"method {tt.name}.{q.mname}")
            return mt.result, eff | mt.effect

        # (New): the add effect A(C)
        if isinstance(q, New):
            if q.cname == OBJECT or q.cname not in ctx.schema:
                raise IOQLTypeError(f"cannot instantiate {q.cname!r}")
            declared = dict(ctx.schema.atypes(q.cname))
            if set(q.labels()) != set(declared) or len(q.labels()) != len(declared):
                raise IOQLTypeError(f"new {q.cname}: attribute mismatch")
            eff = EMPTY
            for a, sub in q.fields:
                t, e = self.check(ctx, sub)
                ctx.require_subtype(t, declared[a], f"attribute {q.cname}.{a}")
                eff |= e
            return ClassType(q.cname), eff | Effect.of(add(q.cname))

        # (Cond): conservative union of branch effects
        if isinstance(q, If):
            ce = self._expect(ctx, q.cond, BOOL, "if condition")
            tt, te = self.check(ctx, q.then)
            et, ee = self.check(ctx, q.els)
            return self._lub(ctx, tt, et, "if branches"), ce | te | ee

        # (Traverse): R over the subclass-widened reachable closure of
        # the source class under ``attr``.  When a chain escapes the
        # declared schema, closure_read_set already widened to every
        # class — the conservative, U-like read footprint.  Everything
        # downstream (Theorem 4 routing, Theorem 5 invalidation, the
        # conflict graph, replica freshness) consumes these R atoms.
        if isinstance(q, Traverse):
            if q.depth is not None and q.depth < 0:
                raise IOQLTypeError(
                    f"traverse depth bound must be non-negative, got {q.depth}"
                )
            st, eff = self.check(ctx, q.source)
            if isinstance(st, NeverType) or (
                isinstance(st, SetType) and isinstance(st.elem, NeverType)
            ):
                return SetType(NEVER), eff
            if not isinstance(st, SetType) or not isinstance(st.elem, ClassType):
                raise IOQLTypeError(f"traverse needs a set of objects, got {st}")
            if not attr_in_closure(ctx.schema, st.elem.name, q.attr):
                raise IOQLTypeError(
                    f"traverse attribute {q.attr!r} is not declared by any "
                    f"class reachable from {st.elem.name}"
                )
            reads = closure_read_set(ctx.schema, st.elem.name, q.attr)
            eff |= Effect.of(*(read(c) for c in sorted(reads)))
            elem = result_lub(ctx.schema, st.elem.name, q.attr)
            return SetType(ClassType(elem)), eff

        # (Comp1)/(Comp2): the recursive decomposition of Figure 3
        if isinstance(q, Comp):
            return self._comp(ctx, q, q.qualifiers)

        raise IOQLTypeError(f"unknown query node {type(q).__name__}")

    def _comp(
        self, ctx: TypeContext, comp: Comp, quals: tuple[Qualifier, ...]
    ) -> tuple[Type, Effect]:
        """``{q | c⃗q} : set(σ) ! ε`` by recursion on the qualifier list.

        Mirrors the paper's (Comp1)/(Comp2) rules: the effect of a
        generator comprehension is ε₁ ∪ ε₂ where ε₂ is the source's
        effect and ε₁ the residual comprehension's; ⊢′ inspects ε₁ via
        :meth:`on_generator`.
        """
        if not quals:
            t, e = self.check(ctx, comp.head)
            return SetType(t), e
        first, rest = quals[0], quals[1:]
        if isinstance(first, Pred):
            ce = self._expect(ctx, first.cond, BOOL, "comprehension predicate")
            t, e = self._comp(ctx, comp, rest)
            return t, ce | e
        assert isinstance(first, Gen)
        st, e2 = self.check(ctx, first.source)
        if isinstance(st, NeverType):
            st = SetType(NEVER)
        if not isinstance(st, (SetType, BagType, ListType)):
            raise IOQLTypeError(
                f"generator {first.var} over non-collection {st}"
            )
        inner = ctx.extend(first.var, st.elem)
        t, e1 = self._comp(inner, comp, rest)
        self.on_generator(e1, comp, first, source_type=st)
        return t, e1 | e2

    # -- definitions & programs ---------------------------------------------
    def check_definition(self, ctx: TypeContext, d: Definition) -> FuncType:
        """⊢_def with a latent effect: the body's effect is recorded on
        the function type (``int →ᵋ int`` in the paper's notation)."""
        body_ctx = ctx.extend_many({x: t for x, t in d.params})  # type: ignore[misc]
        result, eff = self.check(body_ctx, d.body)
        return FuncType(tuple(t for _, t in d.params), result, eff)  # type: ignore[misc]

    def check_program(
        self,
        schema: Schema,
        p: Program,
        *,
        oid_types: Mapping[str, Type] | None = None,
    ) -> tuple[Type, Effect]:
        """⊢_prog: thread definition (effect-annotated) types, then the
        final query."""
        ctx = TypeContext(schema, base=oid_types or {})
        for d in p.definitions:
            ctx = ctx.with_def(d.name, self.check_definition(ctx, d))
        return self.check(ctx, p.query)

    # -- helpers -------------------------------------------------------------
    def _expect(
        self, ctx: TypeContext, q: Query, want: Type, what: str
    ) -> Effect:
        got, eff = self.check(ctx, q)
        if not ctx.subtype(got, want):
            raise IOQLTypeError(f"{what} must be {want}, got {got}")
        return eff

    def _args(
        self,
        ctx: TypeContext,
        args: tuple[Query, ...],
        params: tuple[Type, ...],
        what: str,
    ) -> Effect:
        if len(args) != len(params):
            raise IOQLTypeError(f"{what}: arity mismatch")
        eff = EMPTY
        for i, (a, pt) in enumerate(zip(args, params)):
            t, e = self.check(ctx, a)
            ctx.require_subtype(t, pt, f"argument {i} of {what}")
            eff |= e
        return eff

    def _lub(self, ctx: TypeContext, a: Type, b: Type, what: str) -> Type:
        j = ctx.schema.hierarchy.lub(a, b)
        if j is None:
            raise IOQLTypeError(f"{what}: no common supertype of {a}, {b}")
        return j


def effect_of(
    schema: Schema,
    q: Query,
    *,
    defs: Mapping[str, FuncType] | None = None,
    var_types: Mapping[str, Type] | None = None,
) -> Effect:
    """Convenience: the inferred effect ε of ``q`` under the base system."""
    ctx = TypeContext(schema, defs=dict(defs or {}), base=var_types or {})
    _, eff = EffectChecker().check(ctx, q)
    return eff
