"""Executable checkers for Theorems 1–8.

Each function turns one theorem into a falsifiable runtime check over a
concrete configuration.  A ``TheoremReport`` with ``holds=False`` is a
*counterexample to the paper* (or, far more likely, a bug in this
implementation) and carries enough detail to replay it.  The test-suite
and the T-series benchmarks run these over thousands of random
well-typed configurations from :mod:`repro.metatheory.generators`.

Mapping:

=========  ===============================================================
Thm 1      :func:`check_subject_reduction` (types preserved up to ≤)
Thm 2      :func:`check_progress` (non-values can always step)
Thm 3      :func:`check_type_soundness` (never stuck along any run)
Thm 4      :func:`check_functional_determinism` (``new``-free queries:
           all schedules give literally identical (EE, OE, v))
Thm 5      :func:`check_subject_reduction` with effects (per-step effect
           ⊆ inferred; type preserved)
Thm 6      :func:`check_progress` (same statement with effects)
Thm 7      :func:`check_determinism` (⊢′-accepted queries agree up to ∼)
Thm 8      :func:`check_safe_commutativity` (⊢″-commutable operands:
           both orders agree up to ∼)
=========  ===============================================================
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.effects.algebra import EMPTY, Effect
from repro.effects.checker import EffectChecker
from repro.effects.determinism import DeterminismChecker
from repro.errors import FuelExhausted, IOQLTypeError, StuckError
from repro.lang.ast import Definition, New, Query, SetOp
from repro.lang.traversal import walk
from repro.lang.values import is_value
from repro.model.schema import Schema
from repro.model.types import ClassType, Type
from repro.db.store import ExtentEnv, ObjectEnv
from repro.semantics.bijection import equivalent
from repro.semantics.explorer import explore
from repro.semantics.machine import Config, Machine
from repro.semantics.strategy import FIRST, Strategy
from repro.typing.context import TypeContext


@dataclass
class TheoremReport:
    """Outcome of checking one theorem on one configuration."""

    theorem: str
    holds: bool
    detail: str = ""
    steps_checked: int = 0

    def __bool__(self) -> bool:
        return self.holds


def _ctx_for(schema: Schema, oe: ObjectEnv, defs=None) -> TypeContext:
    oid_types: dict[str, Type] = {
        oid: ClassType(rec.cname) for oid, rec in oe.items()
    }
    return TypeContext(schema, defs=dict(defs or {}), base=oid_types)


def is_functional(q: Query, definitions: dict[str, Definition] | None = None) -> bool:
    """The paper's *functional* predicate: no ``new`` anywhere, including
    inside every definition body (we conservatively scan all of DE —
    definitions are non-recursive so reachability refinement would only
    shrink the set)."""
    if any(isinstance(n, New) for n in walk(q)):
        return False
    for d in (definitions or {}).values():
        if any(isinstance(n, New) for n in walk(d.body)):
            return False
    return True


# ---------------------------------------------------------------------------
# Theorems 1 & 5: subject reduction (plain and effect-instrumented)
# ---------------------------------------------------------------------------


def check_subject_reduction(
    machine: Machine,
    ee: ExtentEnv,
    oe: ObjectEnv,
    q: Query,
    *,
    strategy: Strategy = FIRST,
    max_steps: int = 2_000,
    defs=None,
) -> TheoremReport:
    """Theorems 1 and 5 along one reduction sequence.

    At every step checks (i) the new configuration still types, at a
    subtype of the original type (Thm 1), and (ii) the step's dynamic
    effect and the residual query's inferred effect are both within the
    original inferred effect ε (Thm 5; the residual bound uses the
    admissible (Does) weakening).
    """
    schema = machine.schema
    checker = EffectChecker()
    try:
        sigma, epsilon = checker.check(_ctx_for(schema, oe, defs), q)
    except IOQLTypeError as exc:
        return TheoremReport("subject-reduction", False, f"initial query ill-typed: {exc}")
    config = Config(ee, oe, q)
    traced = EMPTY
    steps = 0
    while not is_value(config.query) and steps < max_steps:
        try:
            result = machine.step(config, strategy)
        except FuelExhausted:
            return TheoremReport(
                "subject-reduction", True,
                "method diverged (vacuously preserved)", steps,
            )
        except StuckError as exc:
            return TheoremReport(
                "subject-reduction", False, f"stuck at step {steps}: {exc}", steps
            )
        config = result.config
        traced |= result.effect
        steps += 1
        ctx = _ctx_for(schema, config.oe, defs)
        try:
            sigma_p, eps_p = checker.check(ctx, config.query)
        except IOQLTypeError as exc:
            return TheoremReport(
                "subject-reduction",
                False,
                f"step {steps} ({result.rule}) broke typing: {exc}\n"
                f"  query: {config.query}",
                steps,
            )
        if not schema.subtype(sigma_p, sigma):
            return TheoremReport(
                "subject-reduction",
                False,
                f"step {steps} ({result.rule}): type {sigma_p} ≰ {sigma}",
                steps,
            )
        if not result.effect.subeffect_of(epsilon):
            return TheoremReport(
                "subject-reduction",
                False,
                f"step {steps} ({result.rule}): dynamic effect "
                f"{result.effect} ⊄ inferred {epsilon}",
                steps,
            )
        if not eps_p.subeffect_of(epsilon):
            return TheoremReport(
                "subject-reduction",
                False,
                f"step {steps} ({result.rule}): residual effect "
                f"{eps_p} ⊄ inferred {epsilon}",
                steps,
            )
    if not traced.subeffect_of(epsilon):
        return TheoremReport(
            "subject-reduction", False,
            f"accumulated trace {traced} ⊄ inferred {epsilon}", steps,
        )
    return TheoremReport("subject-reduction", True, "", steps)


# ---------------------------------------------------------------------------
# Theorems 2 & 6: progress
# ---------------------------------------------------------------------------


def check_progress(
    machine: Machine,
    ee: ExtentEnv,
    oe: ObjectEnv,
    q: Query,
    *,
    strategy: Strategy = FIRST,
    max_steps: int = 2_000,
    defs=None,
) -> TheoremReport:
    """Theorems 2/6: every well-typed non-value configuration can step.

    Walks one reduction sequence; at each point a well-typed non-value
    must yield at least one successor.  (Typing of intermediate states
    is re-established per Theorem 1, which
    :func:`check_subject_reduction` validates separately.)
    """
    schema = machine.schema
    try:
        EffectChecker().check(_ctx_for(schema, oe, defs), q)
    except IOQLTypeError as exc:
        return TheoremReport("progress", False, f"initial query ill-typed: {exc}")
    config = Config(ee, oe, q)
    steps = 0
    while not is_value(config.query) and steps < max_steps:
        try:
            successors = machine.possible_steps(config)
        except FuelExhausted:
            return TheoremReport("progress", True, "method diverged", steps)
        except StuckError as exc:
            return TheoremReport(
                "progress", False, f"no rule applies at step {steps}: {exc}", steps
            )
        if not successors:
            return TheoremReport(
                "progress", False,
                f"well-typed non-value has no successor at step {steps}: "
                f"{config.query}",
                steps,
            )
        idx = strategy.choose(tuple(range(len(successors)))) if len(successors) > 1 else 0
        config = successors[min(idx, len(successors) - 1)].config
        steps += 1
    return TheoremReport("progress", True, "", steps)


# ---------------------------------------------------------------------------
# Theorem 3: type soundness
# ---------------------------------------------------------------------------


def check_type_soundness(
    machine: Machine,
    ee: ExtentEnv,
    oe: ObjectEnv,
    q: Query,
    *,
    strategies: tuple[Strategy, ...] = (FIRST,),
    max_steps: int = 5_000,
    defs=None,
) -> TheoremReport:
    """Theorem 3: a well-typed query never reaches a stuck state.

    Runs the query under each given strategy; acceptance means every run
    either reached a value or exhausted fuel (divergence) — but never
    raised :class:`StuckError`.
    """
    schema = machine.schema
    try:
        EffectChecker().check(_ctx_for(schema, oe, defs), q)
    except IOQLTypeError as exc:
        return TheoremReport("type-soundness", False, f"ill-typed: {exc}")
    total = 0
    for strat in strategies:
        config = Config(ee, oe, q)
        steps = 0
        while not is_value(config.query) and steps < max_steps:
            try:
                config = machine.step(config, strat).config
            except FuelExhausted:
                break
            except StuckError as exc:
                return TheoremReport(
                    "type-soundness",
                    False,
                    f"stuck after {steps} steps under {type(strat).__name__}: {exc}",
                    total + steps,
                )
            steps += 1
        total += steps
    return TheoremReport("type-soundness", True, "", total)


# ---------------------------------------------------------------------------
# Theorem 4: functional queries are strictly deterministic
# ---------------------------------------------------------------------------


def check_functional_determinism(
    machine: Machine,
    ee: ExtentEnv,
    oe: ObjectEnv,
    q: Query,
    *,
    max_steps: int = 5_000,
    max_paths: int = 20_000,
    definitions: dict[str, Definition] | None = None,
) -> TheoremReport:
    """Theorem 4: all schedules of a ``new``-free query agree *exactly*.

    No bijection is needed: functional queries create no oids, so the
    theorem promises literal equality of EE, OE and the value.
    """
    if not is_functional(q, definitions):
        return TheoremReport(
            "functional-determinism", False, "premise fails: query contains new"
        )
    ex = explore(machine, ee, oe, q, max_steps=max_steps, max_paths=max_paths)
    if ex.truncated:
        return TheoremReport(
            "functional-determinism", True, "exploration truncated; sampled paths agree"
            if len(ex.outcomes) <= 1 else "truncated with disagreement",
        )
    if ex.stuck:
        return TheoremReport("functional-determinism", False, "stuck path found")
    if len(ex.outcomes) > 1:
        return TheoremReport(
            "functional-determinism",
            False,
            f"{len(ex.outcomes)} structurally distinct outcomes: "
            + " / ".join(str(o.value) for o in ex.outcomes[:3]),
            ex.paths,
        )
    return TheoremReport("functional-determinism", True, "", ex.paths)


# ---------------------------------------------------------------------------
# Theorem 7: ⊢′-accepted queries are deterministic up to ∼
# ---------------------------------------------------------------------------


def check_determinism(
    machine: Machine,
    ee: ExtentEnv,
    oe: ObjectEnv,
    q: Query,
    *,
    max_steps: int = 5_000,
    max_paths: int = 20_000,
    defs=None,
) -> TheoremReport:
    """Theorem 7 on one configuration.

    If ⊢′ rejects the query the theorem is vacuous (reported as holding
    with a note — rejection is *not* a violation; the analysis is
    conservative).  If ⊢′ accepts, every schedule must agree up to the
    oid bijection ∼.
    """
    schema = machine.schema
    checker = DeterminismChecker()
    try:
        checker.check(_ctx_for(schema, oe, defs), q)
    except IOQLTypeError as exc:
        return TheoremReport("determinism", False, f"ill-typed: {exc}")
    if checker.interferences:
        return TheoremReport(
            "determinism", True, "vacuous: rejected by ⊢′ (interference present)"
        )
    ex = explore(machine, ee, oe, q, max_steps=max_steps, max_paths=max_paths)
    if ex.truncated:
        return TheoremReport("determinism", True, "truncated; sampled paths only")
    if ex.diverged:
        # Note 7's statement quantifies over *terminating* runs; a
        # diverging schedule alongside a value would itself be an
        # observable difference, so we flag it.
        return TheoremReport(
            "determinism", False, "⊢′-accepted query diverged on some schedule"
        )
    if ex.stuck:
        return TheoremReport("determinism", False, "stuck path found")
    first = ex.outcomes[0]
    for other in ex.outcomes[1:]:
        if not equivalent(first.value, first.ee, first.oe, other.value, other.ee, other.oe):
            return TheoremReport(
                "determinism",
                False,
                f"⊢′ accepted but outcomes differ beyond ∼: {first.value} "
                f"vs {other.value}",
                ex.paths,
            )
    return TheoremReport("determinism", True, "", ex.paths)


# ---------------------------------------------------------------------------
# Theorem 8: safe commutativity
# ---------------------------------------------------------------------------


def check_safe_commutativity(
    machine: Machine,
    ee: ExtentEnv,
    oe: ObjectEnv,
    q: Query,
    *,
    max_steps: int = 5_000,
    max_paths: int = 20_000,
    defs=None,
) -> TheoremReport:
    """Theorem 8 on one configuration.

    ``q`` must be a commutative binary set operation ``q₁ op q₂``.  If
    the operand effects do not interfere (the ⊢″ side condition), every
    outcome of ``q₁ op q₂`` must have a ∼-equal outcome of
    ``q₂ op q₁`` and vice versa.
    """
    if not isinstance(q, SetOp) or not q.op.commutative:
        return TheoremReport(
            "safe-commutativity", True, "vacuous: not a commutative set op"
        )
    schema = machine.schema
    checker = EffectChecker()
    ctx = _ctx_for(schema, oe, defs)
    try:
        _, le = checker.check(ctx, q.left)
        _, re_ = checker.check(ctx, q.right)
    except IOQLTypeError as exc:
        return TheoremReport("safe-commutativity", False, f"ill-typed: {exc}")
    if le.interferes_with(re_):
        return TheoremReport(
            "safe-commutativity", True, "vacuous: operands interfere (⊢″ rejects)"
        )
    swapped = SetOp(q.op, q.right, q.left)
    e1 = explore(machine, ee, oe, q, max_steps=max_steps, max_paths=max_paths)
    e2 = explore(machine, ee, oe, swapped, max_steps=max_steps, max_paths=max_paths)
    if e1.truncated or e2.truncated:
        return TheoremReport("safe-commutativity", True, "truncated; sampled only")
    if e1.diverged != e2.diverged or bool(e1.stuck) != bool(e2.stuck):
        return TheoremReport(
            "safe-commutativity", False, "divergence/stuckness asymmetry"
        )
    for a in e1.outcomes:
        if not any(
            equivalent(a.value, a.ee, a.oe, b.value, b.ee, b.oe)
            for b in e2.outcomes
        ):
            return TheoremReport(
                "safe-commutativity",
                False,
                f"outcome {a.value} of q₁∪q₂ has no ∼-match after commuting",
                e1.paths + e2.paths,
            )
    for b in e2.outcomes:
        if not any(
            equivalent(b.value, b.ee, b.oe, a.value, a.ee, a.oe)
            for a in e1.outcomes
        ):
            return TheoremReport(
                "safe-commutativity",
                False,
                f"outcome {b.value} of q₂∪q₁ has no ∼-match in the original",
                e1.paths + e2.paths,
            )
    return TheoremReport("safe-commutativity", True, "", e1.paths + e2.paths)
