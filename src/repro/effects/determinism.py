"""The ⊢′ system of §4: static detection of non-determinism (Theorem 7).

The paper replaces the (Comp2) rule with::

    E;D;Q ⊢′ q₂ : set(σ) ! ε₂
    E;D;Q, x:σ ⊢′ {q₁ | c⃗q} : σ′ ! ε₁     nonint(ε₁)
    ─────────────────────────────────────────────────
    E;D;Q ⊢′ {q₁ | x ← q₂, c⃗q} : σ′ ! ε₁ ∪ ε₂

Intuition: the comprehension reduces to an arbitrarily-ordered union of
the per-element instances ``{q₁|c⃗q}[x:=vᵢ]``; if no instance both reads
and adds to a common extent (``nonint``), the instances cannot observe
each other and every ordering agrees — up to a bijection on the fresh
oids (Theorem 7).

:class:`DeterminismChecker` is the one-rule delta as a subclass;
:func:`check_deterministic` / :func:`why_nondeterministic` are the
user-facing calls (the latter returns the offending comprehension and
conflicting classes instead of raising — this is what the §1 example
benchmark prints).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.effects.algebra import Effect
from repro.effects.checker import EffectChecker
from repro.errors import IOQLEffectError
from repro.lang.ast import Comp, Gen, Program, Query
from repro.model.schema import Schema
from repro.model.types import FuncType, Type
from repro.typing.context import TypeContext


@dataclass(frozen=True)
class Interference:
    """A witness of potential non-determinism: one generator whose body
    both reads and writes the same extent(s)."""

    comp: Comp
    gen: Gen
    body_effect: Effect
    conflicting: frozenset[str]

    def __str__(self) -> str:
        classes = ", ".join(sorted(self.conflicting))
        return (
            f"generator '{self.gen.var} <- …' iterates a body with effect "
            f"{self.body_effect}: extent(s) of {classes} are both read and "
            f"written, so iteration order is observable"
        )


class DeterminismChecker(EffectChecker):
    """⊢′: the Figure 3 system with the (Comp2′) non-interference check."""

    system_name = "⊢′"

    def __init__(self) -> None:
        self.interferences: list[Interference] = []

    def on_generator(self, body_effect, comp, gen, *, source_type=None):
        from repro.model.types import ListType

        if isinstance(source_type, ListType):
            # Ordered iteration: the (List comp) rule is deterministic,
            # so no non-interference obligation arises — the §6.2
            # observation about XQuery's sequence iteration, executable.
            return
        if not body_effect.noninterfering():
            conflicting = body_effect.reads() & body_effect.writes()
            if not conflicting:
                conflicting = body_effect.updates()
            self.interferences.append(
                Interference(comp, gen, body_effect, frozenset(conflicting))
            )


def analyze_determinism(
    schema: Schema,
    q: Query,
    *,
    defs: Mapping[str, FuncType] | None = None,
    var_types: Mapping[str, Type] | None = None,
) -> tuple[Type, Effect, list[Interference]]:
    """Run ⊢′; return (type, effect, interference witnesses).

    An empty witness list means the query is *statically deterministic*:
    by Theorem 7 every evaluation order yields the same answer and final
    database up to an oid bijection.
    """
    ctx = TypeContext(schema, defs=dict(defs or {}), base=var_types or {})
    checker = DeterminismChecker()
    t, eff = checker.check(ctx, q)
    return t, eff, checker.interferences


def check_deterministic(
    schema: Schema,
    q: Query,
    *,
    defs: Mapping[str, FuncType] | None = None,
    var_types: Mapping[str, Type] | None = None,
) -> tuple[Type, Effect]:
    """Accept ``q`` under ⊢′ or raise :class:`IOQLEffectError`.

    Success is the paper's static guarantee of determinism; failure
    means *possible* non-determinism (the analysis is conservative —
    Theorem 5 only bounds the dynamic effect from above).
    """
    t, eff, witnesses = analyze_determinism(
        schema, q, defs=defs, var_types=var_types
    )
    if witnesses:
        raise IOQLEffectError(
            "query rejected by ⊢′ (possibly non-deterministic): "
            + "; ".join(str(w) for w in witnesses)
        )
    return t, eff


def is_deterministic(
    schema: Schema,
    q: Query,
    *,
    defs: Mapping[str, FuncType] | None = None,
    var_types: Mapping[str, Type] | None = None,
) -> bool:
    """Boolean form of :func:`check_deterministic`."""
    _, _, witnesses = analyze_determinism(schema, q, defs=defs, var_types=var_types)
    return not witnesses


def analyze_program(
    schema: Schema, p: Program
) -> tuple[Type, Effect, list[Interference]]:
    """⊢′ over a whole program (definitions carry latent effects)."""
    checker = DeterminismChecker()
    t, eff = checker.check_program(schema, p)
    return t, eff, checker.interferences
