"""The ⊢″ system of §4: safe commutation of set operators (Theorem 8).

The paper's motivating example: with one Person ("Jack"/"Utah") and one
Employee ("Jill"/"NYC"), the query::

    (Persons ∩ side-effecting-subquery) …

cannot have its intersection commuted, because the right operand *adds*
a Person while the left operand *reads* the Person extent.  ⊢″ is the
Figure 3 system where the rule for commutative binary set operators
(∪, ∩) additionally requires the operand effects not to interfere; a
query accepted by ⊢″ may have (all of) its set operators commuted with
observably identical results up to an oid bijection (Theorem 8).

This module also provides :func:`may_commute` — the pairwise check the
optimizer uses to gate the rewrite ``q₁ op q₂ ⇒ q₂ op q₁`` on a single
operator, which is the practically useful form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.effects.algebra import Effect
from repro.effects.checker import EffectChecker
from repro.errors import IOQLEffectError
from repro.lang.ast import Query, SetOp
from repro.model.schema import Schema
from repro.model.types import FuncType, Type
from repro.typing.context import TypeContext


@dataclass(frozen=True)
class CommutationConflict:
    """Witness that one set operator's operands interfere."""

    op: SetOp
    left_effect: Effect
    right_effect: Effect

    def __str__(self) -> str:
        return (
            f"'{self.op.op.symbol}' cannot be commuted: left effect "
            f"{self.left_effect} interferes with right effect "
            f"{self.right_effect}"
        )


class CommutativityChecker(EffectChecker):
    """⊢″: Figure 3 with non-interference required at every commutative
    set operator."""

    system_name = "⊢″"

    def __init__(self) -> None:
        self.conflicts: list[CommutationConflict] = []

    def on_setop(self, op, left, right, *, left_type=None, right_type=None):
        from repro.model.types import ListType

        if isinstance(left_type, ListType) or isinstance(right_type, ListType):
            # list union is concatenation — not commutative as a set
            # function, so ⊢″ has nothing to certify here
            return
        if op.op.commutative and left.interferes_with(right):
            self.conflicts.append(CommutationConflict(op, left, right))


def analyze_commutativity(
    schema: Schema,
    q: Query,
    *,
    defs: Mapping[str, FuncType] | None = None,
    var_types: Mapping[str, Type] | None = None,
) -> tuple[Type, Effect, list[CommutationConflict]]:
    """Run ⊢″; return (type, effect, conflict witnesses)."""
    ctx = TypeContext(schema, defs=dict(defs or {}), base=var_types or {})
    checker = CommutativityChecker()
    t, eff = checker.check(ctx, q)
    return t, eff, checker.conflicts


def check_commutable(
    schema: Schema,
    q: Query,
    *,
    defs: Mapping[str, FuncType] | None = None,
    var_types: Mapping[str, Type] | None = None,
) -> tuple[Type, Effect]:
    """Accept under ⊢″ or raise — Theorem 8's premise as a function."""
    t, eff, conflicts = analyze_commutativity(
        schema, q, defs=defs, var_types=var_types
    )
    if conflicts:
        raise IOQLEffectError(
            "query rejected by ⊢″ (unsafe to commute set operators): "
            + "; ".join(str(c) for c in conflicts)
        )
    return t, eff


def may_commute(
    schema: Schema,
    left: Query,
    right: Query,
    *,
    defs: Mapping[str, FuncType] | None = None,
    var_types: Mapping[str, Type] | None = None,
) -> bool:
    """May ``left op right`` be rewritten to ``right op left``?

    The pairwise side condition of Theorem 8: the operand effects must
    not interfere, **and** the operands must not be lists — ``union``
    on lists is concatenation, which is not commutative as a set
    function, exactly the exemption :meth:`CommutativityChecker.on_setop`
    applies.  (That the operator itself is commutative — ∪/∩, not
    ``except`` — the optimizer checks separately.)
    """
    from repro.model.types import ListType

    ctx = TypeContext(schema, defs=dict(defs or {}), base=var_types or {})
    checker = EffectChecker()
    lt, le = checker.check(ctx, left)
    rt, re_ = checker.check(ctx, right)
    if isinstance(lt, ListType) or isinstance(rt, ListType):
        return False
    return not le.interferes_with(re_)
