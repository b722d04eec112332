"""Lowering IOQL queries to set-at-a-time pipeline closures.

Every query node compiles to a Python closure ``fn(ctx, env) -> value``
over the :class:`~repro.exec.runtime.ExecContext` and a *mutable*
variable environment (a plain dict, saved/restored around generator
loops — no per-row environment copies).  Comprehensions compile to a
pipeline of stages ``stage(ctx, env, acc, state)``:

* **scan** — a generator source; bare extents go through
  :meth:`ExecContext.scan` (canonicalised once per execution);
  uncorrelated sources are evaluated lazily once per comprehension
  execution instead of once per outer row;
* **filter** — each predicate runs where it was written.  Only the
  optimizer's ``pred-pushdown`` moves predicates, and only across
  termination-safe qualifiers, so a compiled plan diverges (or
  exhausts its fuel) exactly where the machine does;
* **hash join** — a generator whose slot carries a termination-safe
  equality, written before any method or definition call of the slot,
  between an expression over earlier-bound variables and an expression
  over the new variable builds a hash table over the source (or reuses
  a persistent :class:`~repro.db.store.AttributeIndexes` index when the
  source is a bare extent keyed by one attribute) and probes it per
  outer row, replacing the machine's nested-loop re-evaluation;
* **projection** — the head, emitted per surviving row; the final set
  is canonicalised once (the machine sorts after every insertion).

Soundness: compiled execution is only ever routed to ``new``-free /
read-only queries (Theorem 4 — any strategy, and hence any operator
order, yields the same observables).  A hash join or shard probe
evaluates its equality ahead of the slot's other predicates only when
it and every predicate it overtakes are termination-safe: well-typed,
such predicates neither get stuck (Theorem 3) nor diverge, so skipping
them on rows the equality rejects only skips work.  Nothing else runs
a predicate ahead of where it was written.

Queries containing ``new`` (or method calls outside read-only mode)
raise :class:`NotCompilable`; the caller falls back to the machine.
"""

from __future__ import annotations

import math
import operator
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

from repro.errors import EvalError, StuckError
from repro.exec import parallel as _parallel
from repro.exec.runtime import ExecContext
from repro.lang.ast import (
    BagLit,
    BoolLit,
    Cast,
    Cmp,
    CmpKind,
    Comp,
    DefCall,
    ExtentRef,
    Field,
    Gen,
    If,
    IntLit,
    IntOp,
    IntOpKind,
    ListLit,
    MethodCall,
    New,
    ObjEq,
    OidRef,
    Pred,
    PrimEq,
    Query,
    RecordLit,
    SetLit,
    SetOp,
    SetOpKind,
    Size,
    StrLit,
    Sum,
    ToSet,
    Traverse,
    Var,
)
from repro.lang.traversal import free_vars, walk
from repro.lang.values import (
    bag_except,
    bag_intersect,
    bag_union,
    collection_to_set,
    list_concat,
    make_bag_value,
    make_oid_set,
    make_set_value,
    set_except,
    set_intersect,
    set_union,
)
from repro.methods.ast import AccessMode
from repro.obs.profile import OpDescr
from repro.resilience.faults import maybe_fault

_MISSING = object()

_PRIMS = (IntLit, BoolLit, StrLit)

_SET_FNS = {
    SetOpKind.UNION: set_union,
    SetOpKind.INTERSECT: set_intersect,
    SetOpKind.EXCEPT: set_except,
}
_BAG_FNS = {
    SetOpKind.UNION: bag_union,
    SetOpKind.INTERSECT: bag_intersect,
    SetOpKind.EXCEPT: bag_except,
}
_INT_FNS = {
    IntOpKind.ADD: operator.add,
    IntOpKind.SUB: operator.sub,
    IntOpKind.MUL: operator.mul,
}
_CMP_FNS = {
    CmpKind.LT: operator.lt,
    CmpKind.LE: operator.le,
    CmpKind.GT: operator.gt,
    CmpKind.GE: operator.ge,
}


class NotCompilable(Exception):
    """The query (or a definition it calls) is outside the compiled
    fragment; the caller must fall back to the machine."""


@dataclass(frozen=True)
class CompiledPlan:
    """A ready-to-run plan: the root closure plus its description.

    ``ops`` is non-empty only for plans compiled with ``profile=True``:
    one :class:`~repro.obs.profile.OpDescr` per pipeline operator, in
    pipeline order, each carrying the cost model's estimated output
    cardinality, extent nodes their shard access and comprehension
    nodes their merge rows and bytes — the explain tree.
    """

    fn: Callable
    source: Query = field(repr=False)
    notes: tuple[str, ...] = ()
    ops: tuple = ()


def is_pure(q: Query) -> bool:
    """Syntactically effect-free *and* state-independent beyond its
    variables: safe to evaluate on a worker thread or once per scan."""
    return not any(
        isinstance(n, (ExtentRef, DefCall, MethodCall, New)) for n in walk(q)
    )


_COLLECTION_SYNTAX = (
    Comp,
    SetLit,
    BagLit,
    ListLit,
    SetOp,
    ToSet,
    ExtentRef,
    Traverse,
)

#: Flat estimate of one row crossing a merge point, in bytes: an oid
#: ref or a small tuple (the ``size_msg`` of a per-site cost analysis).
ROW_BYTES = 24


def _index_attr(gen: Gen, build_q: Query) -> str | None:
    """The attribute a hash join's build side keys a bare extent by.

    Such a join is served by the persistent
    :class:`~repro.db.store.AttributeIndexes` instead of an ad-hoc
    hash build; any other build side returns None.
    """
    if (
        isinstance(gen.source, ExtentRef)
        and isinstance(build_q, Field)
        and isinstance(build_q.target, Var)
        and build_q.target.name == gen.var
    ):
        return build_q.name
    return None


def compile_plan(
    schema,
    defs,
    q: Query,
    *,
    method_mode: AccessMode = AccessMode.READ_ONLY,
    method_fuel: int = 10_000,
    profile: bool = False,
    cost_model=None,
    shards=None,
) -> CompiledPlan:
    """Compile one (typechecked, optimizer-normalised) query.

    With ``profile=True`` every pipeline operator is wrapped with a
    call/row counter and a clock, feeding a
    :class:`~repro.exec.runtime.ExecContext`'s ``prof`` run (when one is
    attached — a profiled plan run without one pays only a ``None``
    check per operator call).  ``cost_model`` supplies the estimated
    cardinalities recorded on each operator and drives join selection
    and the replan guards; for profiled compiles it defaults to an
    empty :class:`~repro.optimizer.cost.CostModel` (all extents
    unknown).  A model may also be passed *without* profiling — the
    engine's normal compile path does, so plans carry stats-driven
    estimates for adaptive replanning at zero per-row cost.
    """
    model = cost_model
    if profile and model is None:
        from repro.optimizer.cost import CostModel

        model = CostModel()
    c = _Compiler(
        schema,
        defs,
        method_mode=method_mode,
        model=model,
        profile=profile,
        shards=shards,
    )
    if profile:
        est = (
            model.cardinality(q)
            if isinstance(q, _COLLECTION_SYNTAX)
            else 1.0
        )
        root = c._new_op(
            "result", "result", parent=None, est_rows=est, est_calls=1.0
        )
        with c._under(root):
            fn = c.compile(q)
    else:
        fn = c.compile(q)
    return CompiledPlan(
        fn=fn, source=q, notes=tuple(c.notes), ops=tuple(c.ops)
    )


class _Compiler:
    def __init__(
        self,
        schema,
        defs,
        *,
        method_mode: AccessMode,
        model=None,
        profile=False,
        shards=None,
    ):
        self.schema = schema
        self.defs = defs or {}
        self.method_mode = method_mode
        # the database's ShardedExtents view (or None): decides whether
        # generator stages get the shard-pruning/fan-out wrapper.  The
        # wrapper re-validates at run time, so a spec change after
        # compilation only costs the optimisation, never correctness.
        self.shards = shards
        self.notes: list[str] = []
        self._def_bodies: dict[str, tuple[tuple[str, ...], Callable]] = {}
        self._next_sid = 0
        # profiling state: a flat operator table plus the compile-time
        # cursor (which operator encloses the expression being compiled,
        # and its estimated call count — nested comprehensions scale
        # their estimates by it)
        self.model = model
        self._profile = profile
        self.ops: list[OpDescr] = []
        self._cur_parent: int | None = None
        self._mult = 1.0

    def _sid(self) -> int:
        self._next_sid += 1
        return self._next_sid - 1

    # -- profiling scaffolding -------------------------------------------
    @property
    def profile(self) -> bool:
        return self._profile

    def _new_op(
        self,
        kind: str,
        label: str,
        *,
        parent: int | None,
        est_rows: float,
        est_calls: float,
    ) -> int:
        op_id = len(self.ops)
        self.ops.append(
            OpDescr(
                op_id=op_id,
                parent=parent,
                kind=kind,
                label=label,
                est_rows=est_rows,
                rows_from=op_id,
                extra={"est_calls": est_calls},
            )
        )
        return op_id

    @contextmanager
    def _under(self, op_id: int | None):
        """Compile sub-expressions as children of operator ``op_id``."""
        if op_id is None:
            yield
            return
        prev = (self._cur_parent, self._mult)
        self._cur_parent = op_id
        self._mult = self.ops[op_id].extra.get("est_calls", 1.0)
        try:
            yield
        finally:
            self._cur_parent, self._mult = prev

    def _wrap_stage(self, op_id: int | None, stage: Callable) -> Callable:
        """Count calls and accumulate inclusive time for one operator."""
        if op_id is None:
            return stage

        def profiled_stage(ctx, env, acc, state):
            prof = ctx.prof
            if prof is None:
                stage(ctx, env, acc, state)
                return
            prof.rows[op_id] += 1
            t0 = perf_counter()
            try:
                stage(ctx, env, acc, state)
            finally:
                prof.times[op_id] += perf_counter() - t0

        return profiled_stage

    def _wrap_fn(self, op_id: int | None, fn: Callable) -> Callable:
        if op_id is None:
            return fn

        def profiled_fn(ctx, env):
            prof = ctx.prof
            if prof is None:
                return fn(ctx, env)
            prof.rows[op_id] += 1
            t0 = perf_counter()
            try:
                return fn(ctx, env)
            finally:
                prof.times[op_id] += perf_counter() - t0

        return profiled_fn

    # -- expressions -----------------------------------------------------
    def compile(self, q: Query) -> Callable:
        if isinstance(q, (IntLit, BoolLit, StrLit, OidRef)):
            return lambda ctx, env: q
        if isinstance(q, Var):
            name = q.name

            def var_fn(ctx, env):
                try:
                    return env[name]
                except KeyError:
                    raise StuckError(f"unbound identifier {name!r}") from None

            return var_fn
        if isinstance(q, ExtentRef):
            name = q.name
            return lambda ctx, env: ctx.scan(name)
        if isinstance(q, SetLit):
            fns = tuple(self.compile(i) for i in q.items)
            return lambda ctx, env: make_set_value(f(ctx, env) for f in fns)
        if isinstance(q, BagLit):
            fns = tuple(self.compile(i) for i in q.items)
            return lambda ctx, env: make_bag_value(f(ctx, env) for f in fns)
        if isinstance(q, ListLit):
            fns = tuple(self.compile(i) for i in q.items)
            return lambda ctx, env: ListLit(
                tuple(f(ctx, env) for f in fns)
            )
        if isinstance(q, SetOp):
            return self._compile_setop(q)
        if isinstance(q, IntOp):
            lf, rf = self.compile(q.left), self.compile(q.right)
            op = _INT_FNS[q.op]

            def intop_fn(ctx, env):
                l, r = lf(ctx, env), rf(ctx, env)
                if type(l) is not IntLit or type(r) is not IntLit:
                    raise StuckError(f"arithmetic on {l}, {r}")
                return IntLit(op(l.value, r.value))

            return intop_fn
        if isinstance(q, Cmp):
            lf, rf = self.compile(q.left), self.compile(q.right)
            op = _CMP_FNS[q.op]

            def cmp_fn(ctx, env):
                l, r = lf(ctx, env), rf(ctx, env)
                if type(l) is not IntLit or type(r) is not IntLit:
                    raise StuckError(f"comparison on {l}, {r}")
                return BoolLit(op(l.value, r.value))

            return cmp_fn
        if isinstance(q, PrimEq):
            lf, rf = self.compile(q.left), self.compile(q.right)

            def primeq_fn(ctx, env):
                l, r = lf(ctx, env), rf(ctx, env)
                if type(l) is not type(r) or not isinstance(l, _PRIMS):
                    raise StuckError(f"'=' on {l}, {r}")
                return BoolLit(l == r)

            return primeq_fn
        if isinstance(q, ObjEq):
            lf, rf = self.compile(q.left), self.compile(q.right)

            def objeq_fn(ctx, env):
                l, r = lf(ctx, env), rf(ctx, env)
                if not isinstance(l, OidRef) or not isinstance(r, OidRef):
                    raise StuckError("'==' on non-oids")
                ctx.oe.get(l.name)
                ctx.oe.get(r.name)
                return BoolLit(l.name == r.name)

            return objeq_fn
        if isinstance(q, RecordLit):
            pairs = tuple((lbl, self.compile(sub)) for lbl, sub in q.fields)
            return lambda ctx, env: RecordLit(
                tuple((lbl, f(ctx, env)) for lbl, f in pairs)
            )
        if isinstance(q, Field):
            tf = self.compile(q.target)
            name = q.name

            def field_fn(ctx, env):
                target = tf(ctx, env)
                if isinstance(target, OidRef):
                    return ctx.oe.get(target.name).attr(name)
                if isinstance(target, RecordLit):
                    hit = target.field(name)
                    if hit is None:
                        raise StuckError(f"record has no label {name!r}")
                    return hit
                raise StuckError(f"projection from {target}")

            return field_fn
        if isinstance(q, DefCall):
            return self._compile_defcall(q)
        if isinstance(q, Size):
            if isinstance(q.arg, ExtentRef):
                name = q.arg.name
                return lambda ctx, env: IntLit(ctx.extent_size(name))
            af = self.compile(q.arg)

            def size_fn(ctx, env):
                v = af(ctx, env)
                if not isinstance(v, (SetLit, BagLit, ListLit)):
                    raise StuckError(f"size of {v}")
                return IntLit(len(v.items))

            return size_fn
        if isinstance(q, ToSet):
            af = self.compile(q.arg)

            def toset_fn(ctx, env):
                v = af(ctx, env)
                if not isinstance(v, (SetLit, BagLit, ListLit)):
                    raise StuckError(f"toset of {v}")
                return collection_to_set(v)

            return toset_fn
        if isinstance(q, Sum):
            af = self.compile(q.arg)

            def sum_fn(ctx, env):
                v = af(ctx, env)
                if not isinstance(v, (SetLit, BagLit, ListLit)):
                    raise StuckError(f"sum of {v}")
                total = 0
                for item in v.items:
                    if not isinstance(item, IntLit):
                        raise StuckError("sum over non-integers")
                    total += item.value
                return IntLit(total)

            return sum_fn
        if isinstance(q, Cast):
            af = self.compile(q.arg)
            cname = q.cname

            def cast_fn(ctx, env):
                v = af(ctx, env)
                if not isinstance(v, OidRef):
                    raise StuckError("cast of a non-object")
                dyn = ctx.oe.get(v.name).cname
                if not ctx.schema.hierarchy.is_subclass(dyn, cname):
                    raise StuckError(f"failed upcast to {cname}")
                return v

            return cast_fn
        if isinstance(q, MethodCall):
            if self.method_mode is not AccessMode.READ_ONLY:
                raise NotCompilable(
                    "method calls are compiled only in read-only method mode"
                )
            tf = self.compile(q.target)
            arg_fns = tuple(self.compile(a) for a in q.args)
            mname = q.mname

            def method_fn(ctx, env):
                target = tf(ctx, env)
                if not isinstance(target, OidRef):
                    raise StuckError("method call on a non-object")
                args = tuple(f(ctx, env) for f in arg_fns)
                return ctx.call_method(target, mname, args)

            return method_fn
        if isinstance(q, New):
            raise NotCompilable(
                f"'new {q.cname}' creates objects (Theorem 4 inapplicable)"
            )
        if isinstance(q, If):
            cf = self.compile(q.cond)
            tf, ef = self.compile(q.then), self.compile(q.els)

            def if_fn(ctx, env):
                cond = cf(ctx, env)
                if not isinstance(cond, BoolLit):
                    raise StuckError("non-boolean guard")
                return tf(ctx, env) if cond.value else ef(ctx, env)

            return if_fn
        if isinstance(q, Comp):
            return self._compile_comp(q)
        if isinstance(q, Traverse):
            return self._compile_traverse(q)
        raise NotCompilable(f"unknown query node {type(q).__name__}")

    def _compile_traverse(self, q: Traverse) -> Callable:
        """Complexity-routed recursive closure (see module docstring).

        YELLOW (any bounded depth) runs the shared semi-naive chase;
        RED (unbounded) answers from the persistent closure index when
        the reference graph over the cone is acyclic and falls back to
        the chase otherwise.  Both charge one budget unit per visited
        node and record their reads in the context's dynamic ``R``
        trace, so the compiled effect stays inside the static closure
        bound.
        """
        attr = q.attr
        depth = q.depth
        route = "yellow" if depth is not None else "red"
        bound = f"depth<={depth}" if depth is not None else "unbounded"
        self.notes.append(f"traverse route: {route} ({attr!r}, {bound})")

        static_cone: frozenset[str] | None = None
        extent_hint: str | None = None
        if isinstance(q.source, ExtentRef):
            # extent-sourced traversal: the start oids come straight
            # from the extent (no canonical-set materialisation), and
            # the element class is statically known, so the RED cone is
            # the compile-time reachable closure — identical to the
            # effect rule's bound
            extent_name = extent_hint = q.source.name
            try:
                from repro.model.closure import closure_read_set

                static_cone = closure_read_set(
                    self.schema, self.schema.extent_class(extent_name), attr
                )
            except Exception:
                static_cone = None

            def start_oids(ctx, env):
                return ctx.extent_members(extent_name)

        else:
            sf = self.compile(q.source)

            def start_oids(ctx, env):
                source = sf(ctx, env)
                if not isinstance(source, SetLit):
                    raise StuckError(f"traverse over non-set {source}")
                start = []
                for item in source.items:
                    if not isinstance(item, OidRef):
                        raise StuckError(f"traverse over non-object {item}")
                    start.append(item.name)
                return start

        if route == "yellow":

            def yellow_fn(ctx, env):
                start = start_oids(ctx, env)
                oids = ctx.traverse_chase(start, attr, depth)
                return make_oid_set(oids)

            return yellow_fn

        def red_fn(ctx, env):
            start = start_oids(ctx, env)
            oids = ctx.traverse_indexed(start, attr, static_cone, extent_hint)
            if oids is None:
                oids = ctx.traverse_chase(start, attr, None)
            return make_oid_set(oids)

        return red_fn

    def _compile_setop(self, q: SetOp) -> Callable:
        lf, rf = self.compile(q.left), self.compile(q.right)
        op = q.op
        set_fn = _SET_FNS[op]
        bag_fn = _BAG_FNS[op]

        def setop_fn(ctx, env):
            l, r = lf(ctx, env), rf(ctx, env)
            if isinstance(l, SetLit) and isinstance(r, SetLit):
                return set_fn(l, r)
            if isinstance(l, BagLit) and isinstance(r, BagLit):
                return bag_fn(l, r)
            if isinstance(l, ListLit) and isinstance(r, ListLit):
                if op is not SetOpKind.UNION:
                    raise StuckError("lists support only union")
                return list_concat(l, r)
            raise StuckError(f"set operator on {l}, {r}")

        return setop_fn

    def _compile_defcall(self, q: DefCall) -> Callable:
        d = self.defs.get(q.name)
        if d is None:
            raise NotCompilable(f"unknown definition {q.name!r}")
        cached = self._def_bodies.get(q.name)
        if cached is None:
            # definitions are non-recursive (⊢_prog), so this terminates
            params = tuple(d.param_names())
            body_fn = self.compile(d.body)
            cached = (params, body_fn)
            self._def_bodies[q.name] = cached
        params, body_fn = cached
        if len(q.args) != len(params):
            raise NotCompilable(f"definition {q.name!r}: arity mismatch")
        arg_fns = tuple(self.compile(a) for a in q.args)

        def defcall_fn(ctx, env):
            call_env = {
                p: f(ctx, env) for p, f in zip(params, arg_fns)
            }
            return body_fn(ctx, call_env)

        return defcall_fn

    # -- comprehensions --------------------------------------------------
    def _compile_comp(self, q: Comp) -> Callable:
        gens: list[Gen] = [cq for cq in q.qualifiers if isinstance(cq, Gen)]
        n_gens = len(gens)
        dup_vars = len({g.var for g in gens}) != n_gens

        # slot g holds the predicates written after generator g-1 (slot
        # 0 = before any generator).  Only the optimizer moves a
        # predicate, and only across termination-safe qualifiers
        slot_preds: list[list[Query]] = [[] for _ in range(n_gens + 1)]
        gen_uncorrelated: list[bool] = []
        bound: set[str] = set()
        for cq in q.qualifiers:
            if isinstance(cq, Gen):
                gen_uncorrelated.append(not free_vars(cq.source) & bound)
                bound.add(cq.var)
            else:
                assert isinstance(cq, Pred)
                # the slot after the generators written so far
                slot_preds[len(gen_uncorrelated)].append(cq.cond)

        # variable → extent bindings, for stats-driven selectivity of
        # join candidates and the replan guards' source estimates
        var_extents: dict[str, str] = {
            g.var: g.source.name
            for g in gens
            if isinstance(g.source, ExtentRef)
        }

        # pick hash joins where a pure equality in a generator's slot
        # links it to earlier-bound variables.  Join selection is
        # slot-local, so it runs as a forward pre-pass (consuming the
        # equalities from slot_preds) — profiling needs the per-
        # generator operator kinds before the reversed build loop.
        joins: list = [None] * n_gens
        for i in range(1, n_gens + 1):
            gen = gens[i - 1]
            if not dup_vars and gen_uncorrelated[i - 1]:
                joins[i - 1] = self._pick_join(
                    gen, i, slot_preds[i], gens, var_extents
                )

        comp_op = pred_ops = gen_ops = emit_op = None
        if self.profile:
            comp_op, pred_ops, gen_ops, emit_op = self._comp_ops(
                q, gens, slot_preds, joins
            )

        # a single-generator comprehension whose predicates and head are
        # all pure may fan its scan out per shard: the downstream chain
        # touches only per-worker env/acc and the immutable store
        par_ok = (
            n_gens == 1
            and joins[0] is None
            and not self.profile
            and is_pure(q.head)
            and all(is_pure(c) for c in slot_preds[0])
            and all(is_pure(c) for c in slot_preds[1])
        )

        with self._under(emit_op):
            head_fn = self.compile(q.head)

        def emit_stage(ctx, env, acc, state):
            ctx.charge()
            acc.append(head_fn(ctx, env))

        stage = self._wrap_stage(emit_op, emit_stage)
        for i in range(n_gens, 0, -1):
            gen = gens[i - 1]
            preds = slot_preds[i]
            gop = gen_ops[i - 1] if gen_ops is not None else None
            for k in range(len(preds) - 1, -1, -1):
                pop = pred_ops[i][k] if pred_ops is not None else None
                with self._under(pop):
                    cond_fn = self.compile(preds[k])
                stage = self._wrap_stage(
                    pop, self._pred_stage(cond_fn, stage)
                )
            spec = (
                self.shards.spec(gen.source.name)
                if self.shards is not None
                and isinstance(gen.source, ExtentRef)
                else None
            )
            pruned = False
            with self._under(gop):
                if joins[i - 1] is not None:
                    stage = self._join_stage(gen, joins[i - 1], stage)
                    attr = _index_attr(gen, joins[i - 1][1])
                    pruned = (
                        spec is not None
                        and attr is not None
                        and spec.by == attr
                    )
                elif not dup_vars and spec is not None:
                    probe_q = (
                        self._pick_shard_probe(
                            gen.var,
                            slot_preds[i],
                            {g.var for g in gens[: i - 1]},
                            {g.var for g in gens},
                            spec.by,
                        )
                        if spec.by is not None
                        else None
                    )
                    pruned = probe_q is not None
                    stage = self._sharded_gen_stage(
                        gen,
                        gen_uncorrelated[i - 1],
                        probe_q,
                        par_ok,
                        stage,
                    )
                else:
                    stage = self._gen_stage(
                        gen,
                        gen_uncorrelated[i - 1],
                        stage,
                        est=self._source_estimate(
                            gen, gen_uncorrelated[i - 1], var_extents
                        ),
                    )
            if gop is not None and isinstance(gen.source, ExtentRef):
                self.ops[gop].extra["access"] = self._access(
                    gen.source, spec, pruned
                )
            stage = self._wrap_stage(gop, stage)
        preds = slot_preds[0]
        for k in range(len(preds) - 1, -1, -1):
            pop = pred_ops[0][k] if pred_ops is not None else None
            with self._under(pop):
                cond_fn = self.compile(preds[k])
            stage = self._wrap_stage(pop, self._pred_stage(cond_fn, stage))

        first = stage
        n_states = self._next_sid

        def comp_fn(ctx, env):
            ctx.charge()
            acc: list[Query] = []
            state = [None] * n_states if n_states else None
            first(ctx, env, acc, state)
            return make_set_value(acc)

        return self._wrap_fn(comp_op, comp_fn)

    def _comp_ops(self, q: Comp, gens, slot_preds, joins):
        """Lay out profiling operators for one comprehension, in
        pipeline order, with cost-model estimates flowing through.

        Returns ``(comp_op, pred_ops, gen_ops, emit_op)`` where
        ``pred_ops`` mirrors the ``slot_preds`` structure.
        """
        from repro.lang.pprint import pretty

        model = self.model
        mult = self._mult  # estimated executions of this comprehension
        merge_rows = mult * model.cardinality(q)
        comp_op = self._new_op(
            "comp",
            pretty(q),
            parent=self._cur_parent,
            est_rows=merge_rows,
            est_calls=mult,
        )
        # what the comprehension's pipeline hands to its merge point
        self.ops[comp_op].extra.update(
            merge_rows=merge_rows, merge_bytes=merge_rows * ROW_BYTES
        )
        chain: list[int] = []
        prev = comp_op
        rows = 1.0  # estimated rows in flight, per comp execution
        # the same env the reorder rule prices with, so the profiler's
        # per-operator estimates and the optimizer's choice always agree
        env: dict[str, str] = {}

        def add(kind: str, label: str, est_rows: float, calls: float) -> int:
            nonlocal prev
            op = self._new_op(
                kind, label, parent=prev, est_rows=est_rows, est_calls=calls
            )
            chain.append(op)
            prev = op
            return op

        pred_ops: list[list[int]] = [[] for _ in slot_preds]
        gen_ops: list[int] = []

        def add_filters(slot: int) -> None:
            nonlocal rows
            for cond in slot_preds[slot]:
                calls = mult * rows
                rows *= model.predicate_selectivity(cond, env)
                pred_ops[slot].append(
                    add("filter", f"filter {pretty(cond)}", mult * rows, calls)
                )

        add_filters(0)
        for i, gen in enumerate(gens):
            calls = mult * rows
            card = model.cardinality(gen.source, env)
            if isinstance(gen.source, ExtentRef):
                env[gen.var] = gen.source.name
            else:
                env.pop(gen.var, None)
            if joins[i] is not None:
                probe_q, build_q, is_objeq, cond = joins[i]
                rows *= card * model.predicate_selectivity(cond, env)
                attr = _index_attr(gen, build_q)
                key = (
                    f"on {pretty(build_q)}"
                    if attr is None
                    else f"via index {gen.source.name}.{attr}"
                )
                label = (
                    f"hash join {gen.var} <- {pretty(gen.source)} {key} "
                    f"{'==' if is_objeq else '='} {pretty(probe_q)}"
                )
                gen_ops.append(add("hash-join", label, mult * rows, calls))
            else:
                rows *= card
                label = f"scan {gen.var} <- {pretty(gen.source)}"
                gen_ops.append(add("scan", label, mult * rows, calls))
            add_filters(i + 1)
        emit_op = add(
            "emit", f"emit {pretty(q.head)}", mult * rows, mult * rows
        )
        for a, b in zip(chain, chain[1:]):
            self.ops[a].rows_from = b
        self.ops[emit_op].rows_from = emit_op
        self.ops[comp_op].rows_from = emit_op
        return comp_op, pred_ops, gen_ops, emit_op

    def _pick_join(
        self,
        gen: Gen,
        slot: int,
        preds: list[Query],
        gens: list[Gen],
        var_extents: dict[str, str] | None = None,
    ):
        """Find (and consume) the best hash-joinable equality here.

        Eligible: ``PrimEq``/``ObjEq`` where one side mentions, among
        this comprehension's variables, exactly the new variable, and
        the other side none bound at or after this generator.  Earlier
        comprehension variables and enclosing-scope variables may appear
        freely on the probe side; the build side must depend on the new
        variable only, so one table serves every probe row.  The join
        evaluates its equality before the slot's other predicates, so
        neither it nor any predicate written before it may call a
        method or definition (``termination_safe``): a call that
        diverges on a row the join skips must still diverge.

        With a cost model, candidates are *ranked*: an index-backed key
        (bare extent keyed by one attribute — served by the persistent
        :class:`~repro.db.store.AttributeIndexes`) beats an ad-hoc hash
        build, and among those the most selective equality (smallest
        estimated bucket) wins.  Without a model the first eligible
        equality is taken, as before.
        """
        from repro.optimizer.rules import termination_safe

        comp_vars = {g.var for g in gens}
        earlier = {g.var for g in gens[: slot - 1]}
        var = gen.var
        candidates = []
        for idx, cond in enumerate(preds):
            if not termination_safe(cond):
                break  # the join must not run ahead of a call
            if not isinstance(cond, (PrimEq, ObjEq)):
                continue
            for probe_q, build_q in (
                (cond.left, cond.right),
                (cond.right, cond.left),
            ):
                build_fv = free_vars(build_q) & comp_vars
                probe_fv = free_vars(probe_q) & comp_vars
                if build_fv == {var} and probe_fv <= earlier:
                    candidates.append((idx, probe_q, build_q, cond))
                    break
        if not candidates:
            return None
        if self.model is not None and len(candidates) > 1:
            env = dict(var_extents or {})

            def rank(cand):
                idx, probe_q, build_q, cond = cand
                indexed = _index_attr(gen, build_q) is not None
                sel = self.model.predicate_selectivity(cond, env)
                return (0 if indexed else 1, sel, idx)

            candidates.sort(key=rank)
            if candidates[0][0] != sorted(c[0] for c in candidates)[0]:
                from repro.lang.pprint import pretty

                self.notes.append(
                    f"join-choice: {var} keyed by "
                    f"{pretty(candidates[0][3])} "
                    f"(most selective of {len(candidates)} candidates)"
                )
        idx, probe_q, build_q, cond = candidates[0]
        preds.pop(idx)
        return (probe_q, build_q, isinstance(cond, ObjEq), cond)

    def _pred_stage(self, cond_fn: Callable, nxt: Callable) -> Callable:
        def stage(ctx, env, acc, state):
            cond = cond_fn(ctx, env)
            if not isinstance(cond, BoolLit):
                raise StuckError("non-boolean comprehension predicate")
            if cond.value:
                nxt(ctx, env, acc, state)

        return stage

    def _source_estimate(
        self, gen: Gen, uncorrelated: bool, var_extents: dict[str, str]
    ) -> float | None:
        """Compile-time cardinality estimate for one generator's source,
        baked into the stage as the adaptive-replan reference point.

        Only *derived* uncorrelated sources (nested comprehensions,
        definition calls, set operations…) get one: a bare extent's size
        is read exactly off the live EE at costing time, so it cannot
        misestimate — whereas a derived source's estimate rests on
        selectivity guesses, which is where skew bites.
        """
        if (
            self.model is None
            or not uncorrelated
            or isinstance(gen.source, ExtentRef)
        ):
            return None
        try:
            return max(1.0, self.model.cardinality(gen.source, var_extents))
        except Exception:
            return None

    def _gen_stage(
        self,
        gen: Gen,
        uncorrelated: bool,
        nxt: Callable,
        est: float | None = None,
    ) -> Callable:
        var = gen.var
        source_fn = self.compile(gen.source)
        # an uncorrelated source yields the same collection on every
        # outer row; evaluate it lazily once per comprehension execution
        # (closed sources once per *plan* execution)
        sid = self._sid() if uncorrelated else None
        closed = uncorrelated and not free_vars(gen.source)
        source = gen.source

        def stage(ctx, env, acc, state):
            items = None
            if sid is not None:
                items = (
                    ctx.stage_cache.get(sid) if closed else state[sid]
                )
            if items is None:
                src = source_fn(ctx, env)
                if not isinstance(src, (SetLit, BagLit, ListLit)):
                    raise StuckError(f"generator over {src}")
                items = src.items
                if est is not None and ctx.replan is not None:
                    ctx.replan.check(source, est, len(items))
                if sid is not None:
                    if closed:
                        ctx.stage_cache[sid] = items
                    else:
                        state[sid] = items
            old = env.get(var, _MISSING)
            try:
                for item in items:
                    ctx.charge()
                    env[var] = item
                    nxt(ctx, env, acc, state)
            finally:
                if old is _MISSING:
                    env.pop(var, None)
                else:
                    env[var] = old

        return stage

    def _access(self, source: ExtentRef, spec, pruned: bool) -> dict:
        """The explain tree's label for one generator's extent access.

        ``k`` shards (1 unsharded), of which a pruned access touches
        one, each scanning ``ceil(rows / k)`` estimated rows: the
        partition is hash-balanced by construction.
        """
        rows = self.model.cardinality(source)
        k = spec.k if spec is not None else 1
        touched = 1 if pruned else k
        return {
            "extent": source.name,
            "rows": rows,
            "sharded": spec is not None,
            "k": k,
            "by": spec.by if spec is not None else None,
            "shards": touched,
            "pruned": pruned,
            "rows_scanned": float(math.ceil(rows / k) * touched),
        }

    def _pick_shard_probe(
        self,
        var: str,
        preds: list[Query],
        earlier: set[str],
        comp_vars: set[str],
        by: str,
    ):
        """Find (without consuming) a shard-pruning equality.

        A pure predicate ``x.by = probe`` in the new generator's slot,
        with ``probe`` independent of this and later generators and no
        method or definition call written before it in the slot,
        confines the surviving rows to the shard ``probe`` hashes to.
        The predicate stays in the pipeline — it still filters hash
        collisions within the shard, so pruning changes which rows are
        *scanned*, never which rows are *kept*.
        """
        from repro.optimizer.rules import termination_safe

        for cond in preds:
            if not termination_safe(cond):
                break  # the skipped shards' rows must still run the call
            if not isinstance(cond, PrimEq):
                continue
            for fld, probe in (
                (cond.left, cond.right),
                (cond.right, cond.left),
            ):
                if (
                    isinstance(fld, Field)
                    and isinstance(fld.target, Var)
                    and fld.target.name == var
                    and fld.name == by
                    and is_pure(probe)
                    and (free_vars(probe) & comp_vars) <= earlier
                ):
                    return probe
        return None

    def _sharded_gen_stage(
        self,
        gen: Gen,
        uncorrelated: bool,
        probe_q,
        parallel_ok: bool,
        nxt: Callable,
    ) -> Callable:
        """A generator over a sharded extent: prune or fan out.

        Three run-time regimes, re-validated against the live shard
        layout on every execution (falling back to the plain stage keeps
        the unsharded semantics bit-for-bit):

        * a shard-probe equality confines the scan to one shard;
        * a big enough whole-extent scan with a pure downstream chain
          runs per-shard on the worker pool, merged in shard order;
        * otherwise the plain sequential stage runs.
        """
        from repro.db.shards import shard_of as _shard_of

        var = gen.var
        extent = gen.source.name
        probe_fn = self.compile(probe_q) if probe_q is not None else None
        plain = self._gen_stage(gen, uncorrelated, nxt)
        if probe_q is not None:
            self.notes.append(
                f"shard-prune: {var} <- {extent} confined by "
                f"{extent}-shard of {probe_q}"
            )

        def stage(ctx, env, acc, state):
            spec, parts = ctx.shard_view(extent)
            if spec is None:
                plain(ctx, env, acc, state)
                return
            if probe_fn is not None and spec.by is not None:
                try:
                    key = probe_fn(ctx, env)
                except (StuckError, EvalError):
                    key = None  # the plain path will (re)surface this
                if isinstance(key, _PRIMS):
                    items = ctx.shard_items(
                        extent, _shard_of(key, spec.k), parts
                    )
                    old = env.get(var, _MISSING)
                    try:
                        for item in items:
                            ctx.charge()
                            env[var] = item
                            nxt(ctx, env, acc, state)
                    finally:
                        if old is _MISSING:
                            env.pop(var, None)
                        else:
                            env[var] = old
                    return
            if parallel_ok and _parallel.should_parallelize(
                len(ctx.ee.members(extent)), len(parts)
            ):
                _parallel_scan(ctx, env, acc, state, var, extent, parts, nxt)
                return
            plain(ctx, env, acc, state)

        return stage

    def _join_stage(self, gen: Gen, join, nxt: Callable) -> Callable:
        var = gen.var
        probe_q, build_q, is_objeq, _cond = join
        probe_fn = self.compile(probe_q)
        sid = self._sid()
        closed = not (free_vars(gen.source) | (free_vars(build_q) - {var}))

        # bare extent keyed by one attribute: use the persistent index
        attr = _index_attr(gen, build_q)
        use_index = attr is not None
        if use_index:
            extent = gen.source.name
            self.notes.append(
                f"hash join: {var} <- {extent} via index "
                f"{extent}.{attr} {'==' if is_objeq else '='} {probe_q}"
            )
            spec = (
                self.shards.spec(extent) if self.shards is not None else None
            )
            if spec is not None and spec.by == attr:
                self.notes.append(
                    f"shard-prune: index probe {extent}.{attr} confined "
                    f"to the shard of {probe_q}"
                )
            source_fn = build_fn = None
        else:
            extent = None
            source_fn = self.compile(gen.source)
            build_fn = self.compile(build_q)
            self.notes.append(
                f"hash join: {var} <- {gen.source} keyed by {build_q} "
                f"{'==' if is_objeq else '='} {probe_q}"
            )

        def stage(ctx, env, acc, state):
            if use_index:
                # probe first: when the indexed attribute is the live
                # shard key, the bucket for this probe lives entirely in
                # the shard the key hashes to (see pruned_attr_index) —
                # only that shard's partial is built and only that
                # (class, shard) enters the dynamic trace
                key = probe_fn(ctx, env)
                _check_key(ctx, key, is_objeq)
                table = ctx.pruned_attr_index(extent, attr, key)
                if table is None:
                    table = (
                        ctx.stage_cache.get(sid) if closed else state[sid]
                    )
                    if table is None:
                        table = ctx.attr_index(extent, attr)
                        if closed:
                            ctx.stage_cache[sid] = table
                        else:
                            state[sid] = table
                bucket = table.get(key)
                if bucket:
                    old = env.get(var, _MISSING)
                    try:
                        for item in bucket:
                            ctx.charge()
                            env[var] = item
                            nxt(ctx, env, acc, state)
                    finally:
                        if old is _MISSING:
                            env.pop(var, None)
                        else:
                            env[var] = old
                return
            table = ctx.stage_cache.get(sid) if closed else state[sid]
            if table is None:
                src = source_fn(ctx, env)
                if not isinstance(src, (SetLit, BagLit, ListLit)):
                    raise StuckError(f"generator over {src}")
                built: dict[Query, list[Query]] = {}
                old = env.get(var, _MISSING)
                try:
                    for item in src.items:
                        ctx.charge()
                        env[var] = item
                        key = build_fn(ctx, env)
                        _check_key(ctx, key, is_objeq)
                        built.setdefault(key, []).append(item)
                finally:
                    if old is _MISSING:
                        env.pop(var, None)
                    else:
                        env[var] = old
                table = {k: tuple(v) for k, v in built.items()}
                if closed:
                    ctx.stage_cache[sid] = table
                else:
                    state[sid] = table
            key = probe_fn(ctx, env)
            _check_key(ctx, key, is_objeq)
            bucket = table.get(key)
            if bucket:
                old = env.get(var, _MISSING)
                try:
                    for item in bucket:
                        ctx.charge()
                        env[var] = item
                        nxt(ctx, env, acc, state)
                finally:
                    if old is _MISSING:
                        env.pop(var, None)
                    else:
                        env[var] = old

        return stage


def _parallel_scan(ctx, env, acc, state, var, extent, parts, nxt) -> None:
    """Fan one whole-extent generator out per shard on the worker pool.

    Each worker runs the (pure, therefore thread-safe) downstream chain
    with its own context at the same store triple and its own
    env/acc/state; results merge in shard order and the final
    ``make_set_value`` canonicalisation makes the order immaterial.
    Per-worker row charges fold back into the parent context, so ops
    and budget match the sequential run; a transient fault in any
    shard's task fails the whole query, exactly like its sequential
    counterpart.
    """
    ctx.read_extent(extent)
    n_state = len(state) if state is not None else 0
    at = (ctx.version, ctx.ee, ctx.oe)

    def make_task(members):
        def task():
            maybe_fault("exec.shard")
            sub = ExecContext(ctx.db, at)
            senv = dict(env)
            sacc: list[Query] = []
            sstate = [None] * n_state if n_state else None
            for oid in sorted(members):
                sub.charge()
                senv[var] = OidRef(oid)
                nxt(sub, senv, sacc, sstate)
            return sacc, sub.ops

        return task

    results = _parallel.run_sharded([make_task(m) for m in parts])
    total_ops = 0
    for sacc, ops in results:
        acc.extend(sacc)
        total_ops += ops
    ctx.absorb(total_ops)


def _check_key(ctx, key: Query, is_objeq: bool) -> None:
    """The equality's own dynamic guards, applied to each join key."""
    if is_objeq:
        if not isinstance(key, OidRef):
            raise StuckError("'==' on non-oids")
        ctx.oe.get(key.name)
    elif not isinstance(key, _PRIMS):
        raise StuckError(f"'=' on {key}")
