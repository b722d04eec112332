"""Contextual equivalence testing — §7's future-work item, executable.

The paper's conclusion: "We also plan to develop notions of query
equivalence based upon 'contextual equivalence', which is a common
notion for programming languages [12]."  Two queries are contextually
equivalent when no program *context* can tell them apart.  Proving
contextual equivalence needs the theory the paper defers; *refuting*
it only needs one distinguishing context — which is mechanisable, and
exactly what an optimizer test harness wants.

:func:`contextually_distinct` enumerates a type-directed family of
observing contexts (iteration, size, set algebra, projections, casts,
conditionals, arithmetic — composed up to a depth bound), plugs both
queries into each, and compares all reduction orders of the two
plugged programs up to the oid bijection ∼ (via
:func:`repro.optimizer.equivalence.observationally_equal`).  A
returned context is a *certificate of inequivalence*; ``None`` means
the queries agreed under every generated context — evidence, not
proof, of equivalence.

Example — the §4 operand pair ``Persons`` vs ``Persons ∪ Persons`` is
indistinguishable, while ``Persons`` vs ``toset(bag-of-duplicates)``
shapes can be split by a ``size`` context.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from repro.errors import IOQLTypeError
from repro.lang.ast import (
    Cast,
    Cmp,
    CmpKind,
    Comp,
    Field,
    Gen,
    If,
    IntLit,
    IntOp,
    IntOpKind,
    PrimEq,
    Query,
    SetLit,
    SetOp,
    SetOpKind,
    Size,
    Var,
)
from repro.model.types import (
    BOOL,
    INT,
    STRING,
    BagType,
    ClassType,
    ListType,
    RecordType,
    SetType,
    Type,
)

Context = Callable[[Query], Query]


@dataclass(frozen=True)
class Distinction:
    """A context that separates the two queries, with the evidence."""

    context_description: str
    plugged_left: Query
    plugged_right: Query
    reason: str

    def __str__(self) -> str:
        return (
            f"distinguished by context {self.context_description}: "
            f"{self.reason}"
        )


def _named(desc: str, fn: Context) -> tuple[str, Context]:
    return desc, fn


def base_contexts(t: Type, schema) -> Iterator[tuple[str, Context]]:
    """One layer of observing contexts appropriate to type ``t``."""
    yield _named("•", lambda q: q)
    if isinstance(t, (SetType, BagType, ListType)):
        yield _named("size(•)", lambda q: Size(q))
        if isinstance(t, SetType):
            yield _named(
                "• union •-fresh-literal",
                lambda q: SetOp(SetOpKind.UNION, q, SetLit(())),
            )
            yield _named(
                "{1 | x <- •}",
                lambda q: Comp(IntLit(1), (Gen("cx", q),)),
            )
            if t.elem == INT:
                yield _named(
                    "{x + 1 | x <- •}",
                    lambda q: Comp(
                        IntOp(IntOpKind.ADD, Var("cx"), IntLit(1)),
                        (Gen("cx", q),),
                    ),
                )
                yield _named(
                    "• intersect {0, 1, 2}",
                    lambda q: SetOp(
                        SetOpKind.INTERSECT,
                        q,
                        SetLit((IntLit(0), IntLit(1), IntLit(2))),
                    ),
                )
            if isinstance(t.elem, ClassType):
                cname = t.elem.name
                for a, at in _attrs(schema, cname):
                    yield _named(
                        f"{{x.{a} | x <- •}}",
                        lambda q, a=a: Comp(
                            Field(Var("cx"), a), (Gen("cx", q),)
                        ),
                    )
    elif t == INT:
        yield _named("• + 1", lambda q: IntOp(IntOpKind.ADD, q, IntLit(1)))
        yield _named("• = 0", lambda q: PrimEq(q, IntLit(0)))
        yield _named("• < 2", lambda q: Cmp(CmpKind.LT, q, IntLit(2)))
        yield _named("{•}", lambda q: SetLit((q,)))
    elif t == BOOL:
        yield _named("if • then 1 else 2", lambda q: If(q, IntLit(1), IntLit(2)))
    elif t == STRING:
        yield _named("{•}", lambda q: SetLit((q,)))
    elif isinstance(t, ClassType):
        for a, _ in _attrs(schema, t.name):
            yield _named(f"•.{a}", lambda q, a=a: Field(q, a))
        sup = schema.hierarchy.superclass(t.name)
        if sup is not None:
            yield _named(f"({sup}) •", lambda q, s=sup: Cast(s, q))
        yield _named("{•}", lambda q: SetLit((q,)))
    elif isinstance(t, RecordType):
        for l, _ in t.fields:
            yield _named(f"•.{l}", lambda q, l=l: Field(q, l))


def _attrs(schema, cname: str):
    try:
        return schema.atypes(cname)
    except Exception:
        return ()


def contexts(t: Type, schema, *, depth: int = 2) -> Iterator[tuple[str, Context]]:
    """Contexts composed up to ``depth`` layers (type-directed).

    Composition re-types the plugged query after each layer to pick the
    next layer's family; ill-typed compositions are pruned by the
    caller (plugging happens lazily).
    """
    yield from _compose(t, schema, depth)


def _compose(t: Type, schema, depth: int) -> Iterator[tuple[str, Context]]:
    for desc, fn in base_contexts(t, schema):
        yield desc, fn
    if depth <= 1:
        return
    # second layer: apply a base context, then re-derive the family for
    # the *resulting* type using a representative plug
    probe = Var("__probe__")
    for desc1, fn1 in base_contexts(t, schema):
        if desc1 == "•":
            continue
        # determine the result type of fn1 by typing with the probe
        from repro.typing.checker import check_query
        from repro.typing.context import TypeContext

        ctx = TypeContext(schema, base={"__probe__": t})
        try:
            t1 = check_query(ctx, fn1(probe))
        except IOQLTypeError:
            continue
        for desc2, fn2 in base_contexts(t1, schema):
            if desc2 == "•":
                continue
            yield (
                f"{desc2} ∘ {desc1}",
                lambda q, f1=fn1, f2=fn2: f2(f1(q)),
            )


def contextually_distinct(
    db,
    q1: Query,
    q2: Query,
    *,
    depth: int = 2,
    max_paths: int = 20_000,
    max_steps: int = 10_000,
) -> Distinction | None:
    """Search for a context separating ``q1`` and ``q2``.

    Both queries must type-check at a common type (their LUB is used to
    pick the context family).  Returns the first distinguishing context
    found, or None when every generated context agreed.
    """
    from repro.optimizer.equivalence import observationally_equal

    t1 = db.typecheck(q1)
    t2 = db.typecheck(q2)
    t = db.schema.hierarchy.lub(t1, t2)
    if t is None:
        return Distinction(
            "(typing)", q1, q2, f"incompatible types {t1} vs {t2}"
        )
    for desc, fn in contexts(t, db.schema, depth=depth):
        p1, p2 = fn(q1), fn(q2)
        try:
            db.typecheck(p1)
            db.typecheck(p2)
        except IOQLTypeError:
            continue
        report = observationally_equal(
            db, p1, p2, max_paths=max_paths, max_steps=max_steps
        )
        if not report.equal and "truncated" not in report.reason:
            return Distinction(desc, p1, p2, report.reason)
    return None
