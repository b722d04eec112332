"""The IOQL type system of Figure 1.

Implements the judgements

* ``E; D; Q ⊢_ioql q : σ``          (:func:`check_query`)
* ``E; D ⊢_def def : σ⃗ → σ′``       (:func:`check_definition`)
* ``E ⊢_prog def₀ … defₖ q : σ``    (:func:`check_program`)

as a syntax-directed algorithm: each rule of Figure 1 is one branch of
:func:`check_query`.  Where the declarative system would use multiple
premises of a common type, the algorithm computes least upper bounds
(classes always have LUBs under single inheritance; other type pairs
may not, in which case the query is ill-typed).

The checker is *pure*: it raises :class:`IOQLTypeError` on failure and
returns the inferred type on success.  Runtime configurations (queries
containing oids) are checked with the same function — the oid part of
``Q`` is supplied by the caller (see
:func:`repro.db.database.Database.type_context`).
"""

from __future__ import annotations

from functools import reduce

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
from repro.model.closure import attr_in_closure, result_lub
from repro.model.schema import Schema
from repro.model.subtyping import check_type_well_formed
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


def check_query(ctx: TypeContext, q: Query) -> Type:
    """Infer the type of ``q`` under (E; D; Q), or raise IOQLTypeError."""
    # -- (Int), (Bool), string extension -------------------------------
    if isinstance(q, IntLit):
        return INT
    if isinstance(q, BoolLit):
        return BOOL
    if isinstance(q, StrLit):
        return STRING

    # -- (Ident): variables and oids both live in Q ---------------------
    if isinstance(q, (Var, OidRef)):
        return ctx.var_type(q.name)

    # -- (Extent): E(e) = C ⟹ e : set(C) -------------------------------
    if isinstance(q, ExtentRef):
        return SetType(ClassType(ctx.extent_class(q.name)))

    # -- (Set): common supertype of the elements ------------------------
    if isinstance(q, SetLit):
        if not q.items:
            return EMPTY_SET_T
        elem = _lub_all(ctx, (check_query(ctx, i) for i in q.items), "set literal")
        return SetType(elem)

    # -- bag/list literals and the toset coercion (§3.1 extension) -------
    if isinstance(q, BagLit):
        if not q.items:
            return BagType(NEVER)
        elem = _lub_all(ctx, (check_query(ctx, i) for i in q.items), "bag literal")
        return BagType(elem)
    if isinstance(q, ListLit):
        if not q.items:
            return ListType(NEVER)
        elem = _lub_all(ctx, (check_query(ctx, i) for i in q.items), "list literal")
        return ListType(elem)
    if isinstance(q, ToSet):
        at = _expect_collection(ctx, q.arg, "argument of toset")
        return SetType(at.elem if not isinstance(at, NeverType) else NEVER)

    # -- (Set ops) -------------------------------------------------------
    if isinstance(q, SetOp):
        lt = _expect_collection(ctx, q.left, f"left operand of {q.op.symbol}")
        rt = _expect_collection(ctx, q.right, f"right operand of {q.op.symbol}")
        # both operands must be the same collection kind; lists support
        # only union (concatenation)
        lk, rk = type(lt), type(rt)
        if lk is not rk:
            raise IOQLTypeError(
                f"{q.op.symbol} needs operands of one collection kind, "
                f"got {lt} and {rt}"
            )
        from repro.lang.ast import SetOpKind as _SOK

        if lk is ListType and q.op is not _SOK.UNION:
            raise IOQLTypeError(
                f"lists support only union (concatenation), not {q.op.symbol}"
            )
        elem = _lub(ctx, lt.elem, rt.elem, f"operands of {q.op.symbol}")
        return lk(elem)

    # -- (Int ops) --------------------------------------------------------
    if isinstance(q, IntOp):
        _expect(ctx, q.left, INT, f"left operand of {q.op.value}")
        _expect(ctx, q.right, INT, f"right operand of {q.op.value}")
        return INT

    # -- (Int eq) — extended pointwise to bool/string ----------------------
    if isinstance(q, PrimEq):
        lt = check_query(ctx, q.left)
        rt = check_query(ctx, q.right)
        j = ctx.schema.hierarchy.lub(lt, rt)
        if j is None or not (j.is_primitive() or isinstance(j, NeverType)):
            raise IOQLTypeError(
                f"'=' compares primitive values of one type; got {lt} = {rt}"
            )
        return BOOL

    # -- (Object eq) --------------------------------------------------------
    if isinstance(q, ObjEq):
        for side, name in ((q.left, "left"), (q.right, "right")):
            t = check_query(ctx, side)
            if not isinstance(t, (ClassType, NeverType)):
                raise IOQLTypeError(
                    f"'==' compares objects; {name} operand has type {t}"
                )
        return BOOL

    # -- comparisons (extension) ----------------------------------------------
    if isinstance(q, Cmp):
        _expect(ctx, q.left, INT, f"left operand of {q.op.value}")
        _expect(ctx, q.right, INT, f"right operand of {q.op.value}")
        return BOOL

    # -- (Record) ----------------------------------------------------------
    if isinstance(q, RecordLit):
        labels = q.labels()
        if len(labels) != len(set(labels)):
            raise IOQLTypeError(f"duplicate labels in record {labels}")
        return RecordType(
            tuple((l, check_query(ctx, sub)) for l, sub in q.fields)
        )

    # -- (Record access) / (Attribute): one Field node, two rules ------------
    if isinstance(q, Field):
        tt = check_query(ctx, q.target)
        if isinstance(tt, NeverType):
            # ⊥ propagates through elimination forms (dead code under an
            # empty-set generator); subsumption makes this admissible.
            return NEVER
        if isinstance(tt, RecordType):
            ft = tt.field_type(q.name)
            if ft is None:
                raise IOQLTypeError(
                    f"record {tt} has no label {q.name!r}"
                )
            return ft
        if isinstance(tt, ClassType):
            try:
                return ctx.schema.atype(tt.name, q.name)
            except SchemaError as exc:
                raise IOQLTypeError(str(exc)) from None
        raise IOQLTypeError(
            f".{q.name} needs a record or object target, got {tt}"
        )

    # -- (Definition access) ---------------------------------------------------
    if isinstance(q, DefCall):
        ftype = ctx.def_type(q.name)
        _check_args(ctx, q.args, ftype.params, f"definition {q.name}")
        return ftype.result

    # -- (Size) -------------------------------------------------------------------
    if isinstance(q, Size):
        _expect_collection(ctx, q.arg, "argument of size")
        return INT

    # -- sum aggregate (extension; total, hence soundness-preserving) ---------------
    if isinstance(q, Sum):
        at = _expect_collection(ctx, q.arg, "argument of sum")
        if not ctx.subtype(at.elem, INT):
            raise IOQLTypeError(f"sum needs integer elements, got {at.elem}")
        return INT

    # -- (Cast): upcast only (Note 2) -----------------------------------------------
    if isinstance(q, Cast):
        if not ctx.schema.hierarchy.declared(q.cname):
            raise IOQLTypeError(f"cast to unknown class {q.cname!r}")
        at = check_query(ctx, q.arg)
        if isinstance(at, NeverType):
            return ClassType(q.cname)
        if not isinstance(at, ClassType):
            raise IOQLTypeError(f"cast applies to objects, got {at}")
        if not ctx.schema.hierarchy.is_subclass(at.name, q.cname):
            raise IOQLTypeError(
                f"illegal cast: {at.name} is not a subclass of {q.cname} "
                f"(downcasts are rejected — Note 2)"
            )
        return ClassType(q.cname)

    # -- (Method) ----------------------------------------------------------------------
    if isinstance(q, MethodCall):
        tt = check_query(ctx, q.target)
        if isinstance(tt, NeverType):
            for a in q.args:
                check_query(ctx, a)
            return NEVER
        if not isinstance(tt, ClassType):
            raise IOQLTypeError(
                f"method call target must be an object, got {tt}"
            )
        try:
            mt = ctx.schema.mtype(tt.name, q.mname)
        except SchemaError as exc:
            raise IOQLTypeError(str(exc)) from None
        _check_args(ctx, q.args, mt.params, f"method {tt.name}.{q.mname}")
        return mt.result

    # -- (New): every attribute, exactly once, subtype-compatibly -----------------------
    if isinstance(q, New):
        if q.cname == OBJECT or q.cname not in ctx.schema:
            raise IOQLTypeError(f"cannot instantiate {q.cname!r}")
        declared = dict(ctx.schema.atypes(q.cname))
        given = q.labels()
        if len(given) != len(set(given)):
            raise IOQLTypeError(f"duplicate attribute in new {q.cname}")
        missing = set(declared) - set(given)
        extra = set(given) - set(declared)
        if missing or extra:
            raise IOQLTypeError(
                f"new {q.cname} must define exactly its attributes; "
                f"missing={sorted(missing)} unknown={sorted(extra)}"
            )
        for a, sub in q.fields:
            at = check_query(ctx, sub)
            ctx.require_subtype(at, declared[a], f"attribute {q.cname}.{a}")
        return ClassType(q.cname)

    # -- (Cond) ---------------------------------------------------------------------------
    if isinstance(q, If):
        _expect(ctx, q.cond, BOOL, "condition of if")
        tt = check_query(ctx, q.then)
        et = check_query(ctx, q.els)
        return _lub(ctx, tt, et, "branches of if")

    # -- (Traverse): recursive reference closure (§ traverse extension) ----------------------
    # The result element type is the lub over the subclass-widened
    # reachable closure of the source class under ``attr`` — the chase
    # may surface objects of any class the static closure names, and
    # single inheritance guarantees the lub exists (Object at worst).
    if isinstance(q, Traverse):
        if q.depth is not None and q.depth < 0:
            raise IOQLTypeError(
                f"traverse depth bound must be non-negative, got {q.depth}"
            )
        st = _expect_set(ctx, q.source, f"traverse source for {q.var}")
        if isinstance(st.elem, NeverType):
            return SetType(NEVER)
        if not isinstance(st.elem, ClassType):
            raise IOQLTypeError(
                f"traverse needs a set of objects, got {st}"
            )
        # A primitive-typed attribute is a legitimate chase leaf, but an
        # attribute declared *nowhere* in the widened closure can only
        # be a typo — the traversal would be the identity on its source.
        if not attr_in_closure(ctx.schema, st.elem.name, q.attr):
            raise IOQLTypeError(
                f"traverse attribute {q.attr!r} is not declared by any "
                f"class reachable from {st.elem.name}"
            )
        return SetType(ClassType(result_lub(ctx.schema, st.elem.name, q.attr)))

    # -- (Comp1)/(Comp2): qualifiers left-to-right, generators bind --------------------------
    if isinstance(q, Comp):
        inner = ctx
        for cq in q.qualifiers:
            if isinstance(cq, Pred):
                ct = check_query(inner, cq.cond)
                if not inner.subtype(ct, BOOL):
                    raise IOQLTypeError(
                        f"comprehension predicate must be bool, got {ct}"
                    )
            else:
                assert isinstance(cq, Gen)
                st = _expect_collection(inner, cq.source, f"generator {cq.var}")
                inner = inner.extend(cq.var, st.elem)
        return SetType(check_query(inner, q.head))

    raise IOQLTypeError(f"unknown query node {type(q).__name__}")


def check_definition(ctx: TypeContext, d: Definition) -> FuncType:
    """The ⊢_def rule: check the body under the parameter bindings."""
    names = d.param_names()
    if len(names) != len(set(names)):
        raise IOQLTypeError(f"duplicate parameter in definition {d.name!r}")
    for x, t in d.params:
        try:
            check_type_well_formed(t, ctx.schema.hierarchy)  # type: ignore[arg-type]
        except SchemaError as exc:
            raise IOQLTypeError(f"parameter {x} of {d.name}: {exc}") from None
    body_ctx = ctx.extend_many({x: t for x, t in d.params})  # type: ignore[misc]
    result = check_query(body_ctx, d.body)
    return FuncType(tuple(t for _, t in d.params), result)  # type: ignore[misc]


def check_program(schema: Schema, p: Program, *, oid_types: dict[str, Type] | None = None) -> Type:
    """The ⊢_prog rule: thread each definition's type into the next.

    Definitions are non-recursive — each may call only those before it.
    ``oid_types`` supplies the oid portion of Q for runtime
    configurations; it is shared with the context, not copied.
    """
    ctx = TypeContext(schema, base=oid_types or {})
    for d in p.definitions:
        if d.name in ctx.defs:
            raise IOQLTypeError(f"definition {d.name!r} given twice")
        ctx = ctx.with_def(d.name, check_definition(ctx, d))
    return check_query(ctx, p.query)


def program_context(schema: Schema, p: Program, *, oid_types: dict[str, Type] | None = None) -> TypeContext:
    """The context (E; D; Q) in scope for the final query of ``p``."""
    ctx = TypeContext(schema, base=oid_types or {})
    for d in p.definitions:
        ctx = ctx.with_def(d.name, check_definition(ctx, d))
    return ctx


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _check_args(
    ctx: TypeContext,
    args: tuple[Query, ...],
    params: tuple[Type, ...],
    what: str,
) -> None:
    """Call-site rule: arity match, each argument ≤ its parameter type."""
    if len(args) != len(params):
        raise IOQLTypeError(
            f"{what} expects {len(params)} argument(s), got {len(args)}"
        )
    for i, (a, pt) in enumerate(zip(args, params)):
        at = check_query(ctx, a)
        ctx.require_subtype(at, pt, f"argument {i} of {what}")


def _expect(ctx: TypeContext, q: Query, want: Type, what: str) -> None:
    got = check_query(ctx, q)
    if not ctx.subtype(got, want):
        raise IOQLTypeError(f"{what} must have type {want}, got {got}")


def _expect_set(ctx: TypeContext, q: Query, what: str) -> SetType:
    got = check_query(ctx, q)
    if isinstance(got, NeverType):
        # ⊥ ≤ set(⊥): a bottom-typed scrutinee is an acceptable set
        return SetType(NEVER)
    if not isinstance(got, SetType):
        raise IOQLTypeError(f"{what} must be a set, got {got}")
    return got


def _expect_collection(ctx: TypeContext, q: Query, what: str):
    """A set, bag or list type (⊥ counts as the empty set)."""
    got = check_query(ctx, q)
    if isinstance(got, NeverType):
        return SetType(NEVER)
    if not isinstance(got, (SetType, BagType, ListType)):
        raise IOQLTypeError(f"{what} must be a collection, got {got}")
    return got


def _lub(ctx: TypeContext, a: Type, b: Type, what: str) -> Type:
    j = ctx.schema.hierarchy.lub(a, b)
    if j is None:
        raise IOQLTypeError(f"{what} have no common supertype: {a} vs {b}")
    return j


def _lub_all(ctx: TypeContext, types, what: str) -> Type:
    return reduce(lambda a, b: _lub(ctx, a, b, what), types, NEVER)
