"""Engine selection, planning, compiled-plan execution and explain.

:func:`decide` is the compile/fallback gate behind
``Database.run(engine="auto")``: a query is routed to the compiled
engine exactly when the Figure 3 effect system proves it read-only
(empty ``A``/``U`` write set — the premise of Theorem 4, which makes
every schedule, and hence the set-at-a-time operator order, yield the
same observables) *and* the compiler covers its syntax.  Everything
else falls back to the paper's reduction machine, with the reason
recorded for ``.explain``.

:func:`explain` builds the one explain tree: the plan :func:`decide`
caches, compiled by the same pipeline in profile mode.  ``.explain``,
``.explain cost`` and ``.explain analyze`` are three renderings of it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.effects.algebra import Effect
from repro.exec.cache import PlanEntry
from repro.exec.compiler import CompiledPlan, NotCompilable, compile_plan
from repro.exec.runtime import ExecContext, ReplanGuard, ReplanSignal
from repro.lang.ast import Query


@dataclass(frozen=True)
class PlanDecision:
    """Which engine a query runs on, and why."""

    engine: str  # "compiled" | "reduction"
    reason: str
    entry: PlanEntry | None = None

    @property
    def plan(self) -> CompiledPlan | None:
        return self.entry.plan if self.entry is not None else None


def decide(db, q: Query, eff: Effect) -> PlanDecision:
    """The compile/fallback decision for one parsed query.

    ``eff`` is ``q``'s Figure 3 effect from the caller's one
    derivation (``Database._derive``); this only reads it.
    """
    if eff.writes():
        written = ", ".join(sorted(eff.writes()))
        return PlanDecision(
            "reduction",
            f"write effects on {{{written}}} — Theorem 4 does not apply",
        )
    entry = db._plan_cache.get(q, db._defs_version)
    if entry is not None and _stats_stale(db, entry):
        # the catalog the plan was costed against has materially
        # changed (stats-epoch drift): recompile rather than keep a
        # generator order chosen for a different data shape
        entry = None
    if entry is None:
        entry = _compile_entry(db, q, eff)
        db._plan_cache.put(q, db._defs_version, entry)
    if entry.plan is None:
        return PlanDecision("reduction", entry.reason, entry=entry)
    return PlanDecision(
        "compiled",
        "read-only (empty write effect) — deterministic by Theorem 4",
        entry=entry,
    )


def _stats_stale(db, entry: PlanEntry) -> bool:
    """Has the statistics epoch drifted since ``entry`` was costed?"""
    return entry.stats_epoch != db._stats.observe(db.ee)


def _plan(db, q: Query, *, profile: bool = False, overrides=None):
    """Cost, optimize and compile ``q`` the way production does.

    The one planning pipeline behind cached plans, adaptive replans and
    the explain tree: a fresh catalog snapshot prices the reorder rule
    and rides into the compiler for join selection and the replan
    guards' baked-in estimates, and the database's shard layout decides
    pruning.  ``overrides`` maps source sub-queries to observed
    cardinalities; ``profile`` lays out the operator tree.

    Returns ``(model, optimized, plan, reason)``: ``plan`` is None with
    ``reason`` saying why when the compiler refuses the query.
    """
    from repro.optimizer.cost import CostModel, cost_rules
    from repro.optimizer.planner import optimize

    model = CostModel.from_database(db)
    if overrides:
        model.card_overrides.update(overrides)
    optimized = optimize(db, q, cost_rules(model), model=model)
    try:
        plan = compile_plan(
            db.schema,
            db._definitions,
            optimized.query,
            method_mode=db.method_mode,
            method_fuel=db.machine.method_fuel,
            profile=profile,
            cost_model=model,
            shards=db._shards,
        )
    except NotCompilable as exc:
        return model, optimized, None, f"not compilable: {exc}"
    return model, optimized, plan, ""


def _compile_entry(db, q: Query, eff: Effect) -> PlanEntry:
    model, _, plan, reason = _plan(db, q)
    return PlanEntry(
        plan=plan,
        reads=eff.reads(),
        reason=reason,
        stats_epoch=model.stats_epoch,
    )


def route_read(db, q: Query, eff: Effect, **run_kw):
    """The replication routing hook behind ``Database.run(engine="auto")``.

    A query whose Figure 3 effect ``eff`` has an **empty write set** is
    exactly one Theorem 4 makes schedule-invariant — so it may be
    answered by any replica whose per-extent watermarks cover its R-set
    and the class of each oid literal it names (plus the star mark that
    tracks ``U``/``define`` commits, per the §5 reference-chasing
    caveat) without the answer being distinguishable from the
    primary's.  The replica plans the read itself under ``eff`` and
    derives nothing again; the primary plans only what it serves.
    Returns the replica's :class:`EvalResult`, or ``None`` when no
    replica qualifies (the caller degrades to the primary: counted,
    never wrong).
    """
    if db._replicas is None or eff.writes():
        return None
    return db._replicas.try_serve(q, eff, **run_kw)


def execute_plan(db, entry: PlanEntry, *, budget=None, at=None, trace=None):
    """Run a compiled plan against one store triple of ``db``.

    ``at`` is a ``(version, ee, oe)`` triple the caller captured (a
    replica read, routed or pinned); by default the store published
    now.  Returns ``(value, dynamic_effect, ops)``; the environments are
    untouched by construction (the plan is read-only).  ``trace``, when
    a dict, receives ``"shard_reads"``: the dynamic per-class shard sets
    this execution actually touched (``None`` = all shards) — the
    result cache's per-``(class, shard)`` key.

    **Adaptive replanning**: the first attempt's context carries a
    :class:`~repro.exec.runtime.ReplanGuard`; when an observed source
    cardinality diverges from the plan's compile-time estimate by
    ``db.replan_ratio`` or more, the plan raises
    :class:`~repro.exec.runtime.ReplanSignal`, the entry is recompiled
    with the observation as a cardinality override, and execution
    restarts (at most once) at the same triple.  Abandoning the partial
    run is safe — the plan is read-only, so by Theorem 4 re-execution
    yields the same observables — and the restarted attempt gets a
    fresh budget start, so a budget can overshoot by at most one
    aborted attempt.
    """
    at = db._store if at is None else at
    ratio = db.replan_ratio
    for attempt in (0, 1):
        ctx = ExecContext(db, at, budget=budget)
        if attempt == 0 and ratio:
            ctx.replan = ReplanGuard(ratio)
        # one charge per execution: every machine run takes at least one
        # step, so the compiled engine exposes the same fault/budget site
        # even for constant plans
        ctx.charge()
        try:
            if ctx.obs:
                from repro.obs.spans import span as _span

                with _span("exec.plan") as sp:
                    value = entry.plan.fn(ctx, {})
                    sp.set(ops=ctx.ops, reads=len(ctx.reads))
            else:
                # obs-off fast path: no span/metric/label object built
                value = entry.plan.fn(ctx, {})
        except ReplanSignal as sig:
            _replan_entry(db, entry, sig)
            continue
        break
    if trace is not None:
        trace["shard_reads"] = {
            c: (None if s is None else frozenset(s))
            for c, s in ctx.shard_reads.items()
        }
    return value, ctx.effect(), ctx.ops


def _replan_entry(db, entry: PlanEntry, sig) -> None:
    """Mid-query re-optimization after a caught :class:`ReplanSignal`.

    Recompiles the entry's plan with the *observed* cardinality of the
    misestimated source installed as an override, so the join-order
    search prices the permutations against reality; the refreshed plan
    replaces the cached one in place (later executions keep it).
    """
    from repro.lang.pprint import pretty
    from repro.obs import flight as _flight
    from repro.obs._state import STATE as _OBS
    from repro.obs.metrics import REGISTRY as _METRICS

    model, _, plan, _ = _plan(
        db, entry.plan.source, overrides={sig.source: float(sig.actual)}
    )
    note = (
        f"replan: {pretty(sig.source)} estimated {sig.est:.0f} rows, "
        f"observed {sig.actual}"
    )
    entry.plan = CompiledPlan(
        fn=plan.fn,
        source=plan.source,
        notes=plan.notes + (note,),
        ops=plan.ops,
    )
    entry.stats_epoch = model.stats_epoch
    db._qstats["replans"] += 1
    if _OBS.enabled:
        _METRICS.counter("exec_replans_total").inc()
    _flight.record(
        "exec-replan",
        source=pretty(sig.source),
        est=round(sig.est, 1),
        actual=sig.actual,
    )


def explain(
    db,
    source: str | Query,
    *,
    analyze: bool = False,
    budget=None,
    max_steps: int | None = None,
):
    """The explain tree of one query: the production plan, in profile mode.

    Derives and decides the engine exactly as ``run(engine="auto")``
    does (an ill-typed query raises its type error), then plans the
    query through :func:`_plan` (the pipeline that built the
    cached plan) with ``profile=True``, so the header (estimated cost,
    rewrites, decision, plan notes) and every operator's estimate and
    shard access describe the plan ``run`` executes.  A query the
    compiled engine refuses has a header and no operator tree.

    With ``analyze`` the query also runs once, never committing: a
    compiled plan with per-operator counters in a production context
    (indexes, shard layout), anything else on the reduction machine
    with its rule histogram in ``summary["rules"]``.  Returns a
    :class:`~repro.obs.profile.QueryProfile`.
    """
    from time import perf_counter

    from repro.lang.pprint import pretty
    from repro.obs.profile import ProfileRun, QueryProfile, build_nodes

    q, eff = db._derive(source)
    decision = decide(db, q, eff)
    model, optimized, plan, _ = _plan(db, q, profile=True)
    if decision.engine != "compiled":
        plan = None
    prof = QueryProfile(
        query=source if isinstance(source, str) else pretty(q),
        engine=decision.engine,
        est_cost=model.eval_cost(optimized.query),
        nodes=build_nodes(plan.ops) if plan is not None else [],
        decision=decision.reason,
        plan_query=pretty(optimized.query),
        rewrites=tuple(optimized.rules_fired()),
        notes=plan.notes if plan is not None else (),
    )
    if not analyze:
        return prof
    if plan is None:
        _analyze_reduction(db, q, prof, budget=budget, max_steps=max_steps)
        return prof
    t0 = perf_counter()
    ctx = ExecContext(db, db._store, budget=budget)
    run = ProfileRun(len(plan.ops))
    ctx.prof = run
    ctx.charge()
    value = plan.fn(ctx, {})
    elapsed = perf_counter() - t0
    # the root operator is credited with one call and the whole run,
    # so the tree reports the plan total
    run.rows[0] = 1
    run.times[0] = elapsed
    items = getattr(value, "items", None)
    rows = len(items) if items is not None else 1
    prof.nodes = build_nodes(plan.ops, run, result_rows=rows)
    prof.elapsed_s = elapsed
    prof.fuel = prof.actual_steps = ctx.ops
    prof.effect = str(ctx.effect())
    prof.summary = {
        "rows": rows,
        "scans": run.scans,
        "index_lookups": run.index_lookups,
    }
    prof.value = value
    return prof


def _analyze_reduction(db, q: Query, prof, *, budget, max_steps) -> None:
    """Run ``q`` once on the machine for ``prof``, never committing."""
    from time import perf_counter

    from repro.obs import events as _events
    from repro.semantics.evaluator import DEFAULT_MAX_STEPS, evaluate
    from repro.semantics.strategy import FIRST

    _, ee, oe = db._store
    with _events.capture() as captured:
        t0 = perf_counter()
        result = evaluate(
            db.machine, ee, oe, q,
            strategy=FIRST,
            max_steps=DEFAULT_MAX_STEPS if max_steps is None else max_steps,
            budget=budget,
        )
        elapsed = perf_counter() - t0
    rules: dict[str, int] = {}
    for ev in captured:
        rules[ev.rule] = rules.get(ev.rule, 0) + 1
    prof.elapsed_s = elapsed
    prof.fuel = prof.actual_steps = result.steps
    prof.effect = str(result.effect)
    prof.summary = {
        "rows": len(getattr(result.value, "items", ()) or ()) or 1,
        "rules": rules,
    }
    prof.value = result.value
