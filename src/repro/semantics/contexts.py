"""Evaluation contexts and unique decomposition (§3.3, Figure 2).

An evaluation context ℰ is a query with one hole • marking the next
subexpression to evaluate.  The context grammar fixes the evaluation
*order*: operators evaluate left-to-right, arguments are call-by-value
left-to-right, set/record components left-to-right, the conditional
evaluates only its guard, and a comprehension evaluates its *first*
qualifier (the head only once all qualifiers are discharged).

The paper's "fundamental property of evaluation contexts" — any query
is either a value or decomposes *uniquely* into ℰ[redex] — is realised
by :func:`decompose`, which returns the redex together with a plug
function rebuilding ℰ[·].  Uniqueness holds by construction (the
recursion is deterministic); the property-based test-suite checks
plug(redex) == original on random queries.

Note the one administrative wrinkle: a set literal whose items are all
values but which is not in canonical (deduplicated, sorted) form is
treated as a redex — the machine normalises it in one ∅-effect step
((Set canon)).  The paper identifies such literals with the set value
directly; an executable semantics needs the identification to be a
step so that structural equality of values is honest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.lang.ast import (
    BagLit,
    Cast,
    Cmp,
    Comp,
    DefCall,
    Field,
    Gen,
    If,
    IntOp,
    ListLit,
    MethodCall,
    New,
    ObjEq,
    Pred,
    PrimEq,
    Query,
    RecordLit,
    SetLit,
    SetOp,
    Size,
    Sum,
    ToSet,
    Traverse,
)
from repro.lang.values import is_value


@dataclass(frozen=True)
class Decomposition:
    """A query split as ℰ[redex]: ``plug(q) == ℰ[q]``.

    ``depth`` counts the context frames between the hole and the root
    (0 when ℰ = •) — the "redex depth" the observability layer reports
    per reduction event.
    """

    redex: Query
    plug: Callable[[Query], Query]
    depth: int = 0


_IDENTITY: Callable[[Query], Query] = lambda q: q


def decompose(q: Query) -> Decomposition | None:
    """Split ``q`` into ℰ[redex], or return None when ``q`` is a value."""
    if is_value(q):
        return None
    return _decompose(q)


def _under(
    inner: Decomposition, rebuild: Callable[[Query], Query]
) -> Decomposition:
    plug_inner = inner.plug
    return Decomposition(
        inner.redex,
        lambda filled: rebuild(plug_inner(filled)),
        inner.depth + 1,
    )


def _decompose(q: Query) -> Decomposition:
    # -- binary operators: left then right ------------------------------
    if isinstance(q, (SetOp, IntOp, Cmp, PrimEq, ObjEq)):
        ctor = _binary_ctor(q)
        if not is_value(q.left):
            return _under(_decompose(q.left), lambda l: ctor(l, q.right))
        if not is_value(q.right):
            return _under(_decompose(q.right), lambda r: ctor(q.left, r))
        return Decomposition(q, _IDENTITY)

    # -- collection literals: items left-to-right, then canonicalisation -
    if isinstance(q, (SetLit, BagLit, ListLit)):
        ctor = type(q)
        for i, item in enumerate(q.items):
            if not is_value(item):
                before, after = q.items[:i], q.items[i + 1 :]
                return _under(
                    _decompose(item),
                    lambda v: ctor((*before, v, *after)),
                )
        # all items are values but the literal is not canonical
        # (unreachable for lists — an all-value list IS a value)
        return Decomposition(q, _IDENTITY)

    # -- record literal: fields left-to-right -----------------------------
    if isinstance(q, RecordLit):
        for i, (label, sub) in enumerate(q.fields):
            if not is_value(sub):
                before, after = q.fields[:i], q.fields[i + 1 :]
                return _under(
                    _decompose(sub),
                    lambda v: RecordLit((*before, (label, v), *after)),
                )
        raise AssertionError("all-value record is a value")  # pragma: no cover

    # -- projections / casts / size -----------------------------------------
    if isinstance(q, Field):
        if not is_value(q.target):
            return _under(_decompose(q.target), lambda t: Field(t, q.name))
        return Decomposition(q, _IDENTITY)
    if isinstance(q, Size):
        if not is_value(q.arg):
            return _under(_decompose(q.arg), lambda a: Size(a))
        return Decomposition(q, _IDENTITY)
    if isinstance(q, ToSet):
        if not is_value(q.arg):
            return _under(_decompose(q.arg), lambda a: ToSet(a))
        return Decomposition(q, _IDENTITY)
    if isinstance(q, Sum):
        if not is_value(q.arg):
            return _under(_decompose(q.arg), lambda a: Sum(a))
        return Decomposition(q, _IDENTITY)
    if isinstance(q, Cast):
        if not is_value(q.arg):
            return _under(_decompose(q.arg), lambda a: Cast(q.cname, a))
        return Decomposition(q, _IDENTITY)

    # -- calls: call-by-value, left-to-right ------------------------------------
    if isinstance(q, DefCall):
        for i, a in enumerate(q.args):
            if not is_value(a):
                before, after = q.args[:i], q.args[i + 1 :]
                return _under(
                    _decompose(a),
                    lambda v: DefCall(q.name, (*before, v, *after)),
                )
        return Decomposition(q, _IDENTITY)
    if isinstance(q, MethodCall):
        if not is_value(q.target):
            return _under(
                _decompose(q.target),
                lambda t: MethodCall(t, q.mname, q.args),
            )
        for i, a in enumerate(q.args):
            if not is_value(a):
                before, after = q.args[:i], q.args[i + 1 :]
                return _under(
                    _decompose(a),
                    lambda v: MethodCall(q.target, q.mname, (*before, v, *after)),
                )
        return Decomposition(q, _IDENTITY)
    if isinstance(q, New):
        for i, (label, sub) in enumerate(q.fields):
            if not is_value(sub):
                before, after = q.fields[:i], q.fields[i + 1 :]
                return _under(
                    _decompose(sub),
                    lambda v: New(q.cname, (*before, (label, v), *after)),
                )
        return Decomposition(q, _IDENTITY)

    # -- traverse: source first, then the closure fires as one redex ------------------
    if isinstance(q, Traverse):
        if not is_value(q.source):
            return _under(
                _decompose(q.source),
                lambda s: Traverse(q.var, s, q.attr, q.depth),
            )
        return Decomposition(q, _IDENTITY)

    # -- conditional: guard only ----------------------------------------------------
    if isinstance(q, If):
        if not is_value(q.cond):
            return _under(_decompose(q.cond), lambda c: If(c, q.then, q.els))
        return Decomposition(q, _IDENTITY)

    # -- comprehension: first qualifier; head when qualifiers are done ----------------
    if isinstance(q, Comp):
        if not q.qualifiers:
            if not is_value(q.head):
                return _under(_decompose(q.head), lambda h: Comp(h, ()))
            return Decomposition(q, _IDENTITY)  # (Empty comp)
        first, rest = q.qualifiers[0], q.qualifiers[1:]
        if isinstance(first, Pred):
            if not is_value(first.cond):
                return _under(
                    _decompose(first.cond),
                    lambda c: Comp(q.head, (Pred(c), *rest)),
                )
            return Decomposition(q, _IDENTITY)  # (True/False comp)
        assert isinstance(first, Gen)
        if not is_value(first.source):
            return _under(
                _decompose(first.source),
                lambda s: Comp(q.head, (Gen(first.var, s), *rest)),
            )
        return Decomposition(q, _IDENTITY)  # (Triv/ND comp)

    # Anything else that is not a value is a top-level redex candidate
    # (identifiers, extents, …) — the machine decides whether a rule
    # applies or the configuration is stuck.
    return Decomposition(q, _IDENTITY)


def _binary_ctor(q: Query) -> Callable[[Query, Query], Query]:
    if isinstance(q, SetOp):
        return lambda l, r: SetOp(q.op, l, r)
    if isinstance(q, IntOp):
        return lambda l, r: IntOp(q.op, l, r)
    if isinstance(q, Cmp):
        return lambda l, r: Cmp(q.op, l, r)
    if isinstance(q, PrimEq):
        return PrimEq
    assert isinstance(q, ObjEq)
    return ObjEq
