"""Derived forms (syntactic sugar) over the IOQL core.

The paper presents a comprehension core and notes (§3.1) that the
select-from-where surface of OQL, boolean connectives, and quantifiers
are all expressible in it.  These functions perform those encodings;
the parser applies them, so the core AST never contains sugar.

Encodings
---------

``p and q``      →  ``if p then q else false``        (left-to-right, CBV)
``p or q``       →  ``if p then true else q``
``not p``        →  ``if p then false else true``
``exists x in s : p``
                 →  ``1 = size({ true | x ← s, p })``
                    (the inner set is ``{true}`` or ``{}``)
``forall x in s : p``
                 →  ``0 = size({ true | x ← s, not p })``
``select [distinct] h from x₁ in s₁, … where p``
                 →  ``{ h | x₁ ← s₁, …, p }``
                    (sets are duplicate-free, so ``distinct`` is moot)
``s₁ subset s₂`` →  ``forall x in s₁ : exists y in s₂ : x = y`` — *not*
provided: without knowing whether elements compare with ``=`` or ``==``
the encoding is untypable in general; use the library API instead.
"""

from __future__ import annotations

from repro.lang.ast import (
    Comp,
    Gen,
    If,
    IntLit,
    Pred,
    PrimEq,
    Qualifier,
    Query,
    Size,
)
from repro.lang.values import FALSE, TRUE


def and_(p: Query, q: Query) -> Query:
    """``p and q`` — short-circuit conjunction as a conditional."""
    return If(p, q, FALSE)


def or_(p: Query, q: Query) -> Query:
    """``p or q`` — short-circuit disjunction as a conditional."""
    return If(p, TRUE, q)


def not_(p: Query) -> Query:
    """``not p`` as a conditional."""
    return If(p, FALSE, TRUE)


def exists(var: str, source: Query, pred: Query) -> Query:
    """``exists var in source : pred``.

    The comprehension ``{true | var ← source, pred}`` evaluates to
    ``{true}`` iff some element satisfies ``pred`` (sets deduplicate),
    and ``{}`` otherwise; comparing its size with 1 yields the
    quantifier.
    """
    witness = Comp(TRUE, (Gen(var, source), Pred(pred)))
    return PrimEq(IntLit(1), Size(witness))


def forall(var: str, source: Query, pred: Query) -> Query:
    """``forall var in source : pred`` via the dual encoding."""
    counterexample = Comp(TRUE, (Gen(var, source), Pred(not_(pred))))
    return PrimEq(IntLit(0), Size(counterexample))


def select(
    head: Query,
    froms: list[tuple[str, Query]],
    where: Query | None = None,
) -> Comp:
    """``select head from x₁ in s₁, … [where p]`` as a comprehension."""
    quals: list[Qualifier] = [Gen(x, s) for x, s in froms]
    if where is not None:
        quals.append(Pred(where))
    return Comp(head, tuple(quals))


def is_empty(source: Query) -> Query:
    """``source = {}`` as a size test (no polymorphic ``=`` on sets)."""
    return PrimEq(IntLit(0), Size(source))
