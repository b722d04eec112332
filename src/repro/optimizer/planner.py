"""The effect-guided rewriting pipeline.

Applies the :data:`~repro.optimizer.rules.DEFAULT_RULES` bottom-up to a
fixpoint, threading the typing context through binders so that every
effect side condition is evaluated with the right variable types.
Every firing is recorded as a :class:`RewriteStep` — the provenance the
benchmarks print and the equivalence tests replay.

The default rules, and the cost-directed ``reorder-generators`` of
:mod:`repro.optimizer.cost`, terminate: the folds and ``unnest`` each
remove a constructor or a level of comprehension nesting,
``pred-pushdown`` lowers the count of (generator, later predicate)
pairs, and the reorder fires only on a strict estimated improvement.  A
typical query reaches its fixpoint in one or two passes.  The pass cap
is a safety net for rule sets that do not terminate; hitting it leaves
an ``optimize-cap`` event in the flight recorder.

The planner is deliberately *transparent*: it refuses nothing silently.
A rule whose side condition fails simply does not fire; the legality
analysis behind a refusal can be asked for directly
(:func:`explain_commutation` for Theorem 8's rewrite).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.lang.ast import Comp, Gen, Pred, Qualifier, Query, SetOp
from repro.lang.pprint import pretty
from repro.lang.traversal import map_subqueries
from repro.obs import flight as _flight
from repro.obs._state import STATE as _OBS
from repro.obs.metrics import REGISTRY as _METRICS
from repro.obs.spans import span as _span
from repro.optimizer.rules import (
    COMMUTE_SETOP,
    DEFAULT_RULES,
    RewriteContext,
    Rule,
)
from repro.typing.checker import check_query
from repro.typing.context import TypeContext

_MAX_PASSES = 50

_CAP_QUERY_CHARS = 200
"""Longest query text an ``optimize-cap`` flight event carries."""


@dataclass(frozen=True)
class RewriteStep:
    """One rule firing: which rule, and the before/after subterms."""

    rule: str
    before: Query
    after: Query


@dataclass
class OptimizationResult:
    """The optimized query plus its provenance trail."""

    query: Query
    steps: list[RewriteStep] = field(default_factory=list)

    @property
    def changed(self) -> bool:
        return bool(self.steps)

    def rules_fired(self) -> list[str]:
        return [s.rule for s in self.steps]


class Planner:
    """Bottom-up, fixpoint application of a rule set."""

    def __init__(self, ctx: TypeContext, rules: tuple[Rule, ...] = DEFAULT_RULES):
        self.base = RewriteContext(ctx)
        self.rules = rules
        self.steps: list[RewriteStep] = []

    def optimize(self, q: Query) -> Query:
        """Rewrite to a fixpoint.

        The pass limit is a safety net: a rule set still rewriting after
        ``_MAX_PASSES`` passes stops there and records an
        ``optimize-cap`` flight event (pass count, last rule fired, the
        query).
        """
        current = q
        for _ in range(_MAX_PASSES):
            rewritten = self._pass(self.base, current)
            if rewritten == current:
                return current
            current = rewritten
        _flight.record(
            "optimize-cap",
            passes=_MAX_PASSES,
            last_rule=self.steps[-1].rule,
            query=pretty(q)[:_CAP_QUERY_CHARS],
        )
        return current

    # ------------------------------------------------------------------
    def _pass(self, rc: RewriteContext, q: Query) -> Query:
        """One bottom-up pass: children first, then rules at this node."""
        if isinstance(q, Comp):
            rebuilt = self._pass_comp(rc, q)
        else:
            rebuilt = map_subqueries(q, lambda sub: self._pass(rc, sub))
        for rule in self.rules:
            replacement = rule.apply(rc, rebuilt)
            if replacement is not None and replacement != rebuilt:
                self.steps.append(RewriteStep(rule.name, rebuilt, replacement))
                return replacement
        return rebuilt

    def _pass_comp(self, rc: RewriteContext, q: Comp) -> Query:
        """Descend a comprehension, extending the context per generator."""
        quals: list[Qualifier] = []
        inner = rc
        for cq in q.qualifiers:
            if isinstance(cq, Pred):
                quals.append(Pred(self._pass(inner, cq.cond)))
            else:
                assert isinstance(cq, Gen)
                new_source = self._pass(inner, cq.source)
                quals.append(Gen(cq.var, new_source))
                inner = inner.bind(cq.var, new_source)
        head = self._pass(inner, q.head)
        return Comp(head, tuple(quals))


def optimize(
    db,
    q: Query,
    rules: tuple[Rule, ...] = DEFAULT_RULES,
    model=None,
) -> OptimizationResult:
    """Optimize ``q`` against a :class:`~repro.db.database.Database`.

    Typechecks first (ill-typed queries are not rewritten), then runs
    the pipeline and returns query + provenance.  ``model`` (a
    :class:`~repro.optimizer.cost.CostModel`) is only used to price the
    before/after for the obs span; passing the caller's model avoids a
    second catalog snapshot.
    """
    ctx = db.type_context()
    check_query(ctx, q)  # raise early; rules assume well-typedness
    with _span("optimize") as sp:
        planner = Planner(ctx, rules)
        out = planner.optimize(q)
        if _OBS.enabled:
            _METRICS.counter("optimize_total").inc()
            _METRICS.counter("optimize_rewrites_total").inc(len(planner.steps))
            if model is None:
                from repro.optimizer.cost import CostModel

                model = CostModel.from_database(db)
            sp.set(
                rewrites=len(planner.steps),
                cost_before=model.eval_cost(q),
                cost_after=model.eval_cost(out),
            )
    return OptimizationResult(out, planner.steps)


def try_commute(db, q: Query) -> OptimizationResult:
    """Attempt Theorem 8's commutation at the *root* set operator only."""
    ctx = db.type_context()
    check_query(ctx, q)
    rc = RewriteContext(ctx)
    replacement = COMMUTE_SETOP.apply(rc, q)
    if replacement is None:
        return OptimizationResult(q, [])
    return OptimizationResult(
        replacement, [RewriteStep(COMMUTE_SETOP.name, q, replacement)]
    )


def explain_commutation(db, q: Query) -> str:
    """Human-readable legality verdict for commuting a root set operator."""
    if not isinstance(q, SetOp) or not q.op.commutative:
        return "not a commutative binary set operator"
    ctx = db.type_context()
    rc = RewriteContext(ctx)
    le = rc.effect(q.left)
    re_ = rc.effect(q.right)
    if le is None or re_ is None:
        return "operands do not effect-check"
    if le.interferes_with(re_):
        return (
            f"UNSAFE: left effect {le} interferes with right effect {re_} "
            f"(Theorem 8's side condition fails)"
        )
    return f"safe: effects {le} and {re_} do not interfere"
