"""The per-evaluation context threaded through compiled operators.

One :class:`ExecContext` lives for exactly one plan execution.  It
carries the (immutable) EE/OE the plan reads, accounts for resource
budgets and fault-injection sites with the same discipline as the
reduction machine, and records the *dynamic* effect trace — the classes
whose extents were actually scanned — so Theorem 5 can be checked
against compiled runs exactly as it is against the machine.

Obs fast path: the enabled flag is read **once** at construction; when
instrumentation is off, no span, metric or label object is ever built
by the operators (the satellite requirement from PR 1's <3% overhead
budget).
"""

from __future__ import annotations

from repro.effects.algebra import EMPTY, Effect, read as read_effect
from repro.errors import StuckError
from repro.lang.ast import OidRef, Query
from repro.lang.values import make_oid_set
from repro.obs._state import STATE as _OBS
from repro.resilience.budget import Budget
from repro.resilience.faults import maybe_fault


def _metrics():
    from repro.obs.metrics import REGISTRY

    return REGISTRY


class ReplanSignal(Exception):
    """Raised mid-execution when an observed cardinality diverges from
    the plan's compile-time estimate by at least the configured ratio.

    Carries the misestimated source sub-query and both numbers; the
    engine catches it, recompiles with the observation as a cardinality
    override, and re-executes.  Only read-only plans carry replan
    guards, so abandoning the partial execution is always safe
    (Theorem 4: a write-free query cannot have changed the store).
    """

    def __init__(self, source: Query, est: float, actual: int):
        self.source = source
        self.est = est
        self.actual = actual
        super().__init__(
            f"cardinality misestimate: estimated {est:.1f} rows, "
            f"observed {actual}"
        )


class ReplanGuard:
    """The divergence test compiled generator stages consult.

    Attached to an :class:`ExecContext` (``ctx.replan``) only on a
    plan's first execution attempt; ``None`` disables every guard at
    the cost of one attribute check per source materialization.
    """

    __slots__ = ("ratio",)

    #: Sources smaller than this (both estimated and observed) never
    #: trigger — replanning a handful of rows costs more than it saves.
    MIN_ROWS = 8

    def __init__(self, ratio: float):
        self.ratio = ratio

    def check(self, source: Query, est: float, actual: int) -> None:
        if max(est, float(actual)) < self.MIN_ROWS:
            return
        e = max(est, 1.0)
        a = max(float(actual), 1.0)
        r = a / e
        if r >= self.ratio or 1.0 / r >= self.ratio:
            raise ReplanSignal(source, est, actual)


def build_attr_index(oe, members, attr: str) -> dict[Query, tuple[OidRef, ...]]:
    """Hash the objects of one extent by one attribute's value.

    Attribute values are canonical value ASTs (frozen, hashable), so
    they key a dict directly; buckets hold the members' oid refs.
    """
    idx: dict[Query, list[OidRef]] = {}
    for oid in members:
        key = oe.get(oid).attr(attr)
        idx.setdefault(key, []).append(OidRef(oid))
    return {k: tuple(v) for k, v in idx.items()}


class ExecContext:
    """Everything one compiled-plan execution reads and accounts for."""

    __slots__ = (
        "ee",
        "oe",
        "schema",
        "defs",
        "method_mode",
        "method_fuel",
        "supply",
        "budget",
        "reads",
        "extra_effect",
        "ops",
        "indexes",
        "state_version",
        "obs",
        "prof",
        "shards",
        "shard_reads",
        "replan",
        "closure_indexes",
        "_extent_cache",
        "stage_cache",
    )

    def __init__(
        self,
        ee,
        oe,
        schema,
        defs,
        *,
        method_mode,
        method_fuel: int = 10_000,
        supply=None,
        budget: Budget | None = None,
        indexes=None,
        state_version: int = -1,
        shards=None,
        closure_indexes=None,
    ):
        self.ee = ee
        self.oe = oe
        self.schema = schema
        self.defs = defs
        self.method_mode = method_mode
        self.method_fuel = method_fuel
        self.supply = supply
        self.budget = budget.start() if budget is not None else None
        self.reads: set[str] = set()
        self.extra_effect: Effect = EMPTY
        self.ops = 0
        self.indexes = indexes
        self.state_version = state_version
        self.obs = _OBS.enabled
        # set by the profiled execution path (.explain analyze) only;
        # plain runs pay nothing for it
        self.prof = None
        self.shards = shards
        # dynamic shard trace: class -> set of shard ids read, or None
        # once any whole-extent read happened (= all shards)
        self.shard_reads: dict[str, set | None] = {}
        # adaptive replanning: a ReplanGuard on first execution
        # attempts, None everywhere else (guards become no-ops)
        self.replan: ReplanGuard | None = None
        # persistent interval indexes for unbounded traverse (None when
        # no index store is attached — the RED route then degrades to
        # the chase)
        self.closure_indexes = closure_indexes
        self._extent_cache: dict[str, Query] = {}
        # tables/sources provably independent of the variable environment
        # (closed stages) are shared across re-executions of nested
        # comprehensions within this one plan run
        self.stage_cache: dict[int, object] = {}

    # -- accounting ------------------------------------------------------
    def charge(self, n: int = 1) -> None:
        """One row-level unit of work: budget fuel + the step fault site.

        Compiled operators charge per row/operator event, never per AST
        node, so a compiled run always consumes no more budget than the
        machine would for the same query.
        """
        self.ops += n
        maybe_fault("machine.step")
        if self.budget is not None:
            self.budget.charge_steps(n)

    def effect(self) -> Effect:
        """The dynamic trace: R atoms for scanned classes (+ methods')."""
        eff = Effect.of(*(read_effect(c) for c in self.reads))
        return eff | self.extra_effect if self.extra_effect.atoms else eff

    def note_shard_read(self, cname: str, shard: int | None) -> None:
        """Refine the dynamic trace to ``(class, shard)`` granularity.

        ``shard=None`` records a whole-extent read (all shards), which
        is absorbing: once a class was read unpruned, no later pruned
        read narrows it again.
        """
        if shard is None:
            self.shard_reads[cname] = None
        else:
            have = self.shard_reads.get(cname, set())
            if have is not None:
                have.add(shard)
                self.shard_reads[cname] = have

    def absorb(self, ops: int) -> None:
        """Fold a forked worker context's row charges into this one.

        Budget fuel is charged in one lump after the fan-out completes,
        so a budget can overshoot by at most one parallel scan — the
        documented granularity of partition-parallel accounting.
        """
        self.ops += ops
        if self.budget is not None and ops:
            self.budget.charge_steps(ops)

    def fork(self) -> "ExecContext":
        """A lightweight per-worker context sharing the immutable state.

        Workers get their own accounting, caches and shard trace; the
        parent folds the ops back via :meth:`absorb` and keeps its own
        (whole-extent) dynamic trace, so budgets and effects stay
        equivalent to the sequential run.
        """
        sub = object.__new__(ExecContext)
        sub.ee = self.ee
        sub.oe = self.oe
        sub.schema = self.schema
        sub.defs = self.defs
        sub.method_mode = self.method_mode
        sub.method_fuel = self.method_fuel
        sub.supply = self.supply
        sub.budget = None
        sub.reads = set()
        sub.extra_effect = EMPTY
        sub.ops = 0
        sub.indexes = self.indexes
        sub.state_version = self.state_version
        sub.obs = False
        sub.prof = None
        sub.shards = self.shards
        sub.shard_reads = {}
        sub.replan = None  # workers never replan; the parent decides
        sub.closure_indexes = self.closure_indexes
        sub._extent_cache = {}
        sub.stage_cache = {}
        return sub

    # -- store access ----------------------------------------------------
    def scan(self, extent: str) -> Query:
        """The (Extent) read: the extent's members as a canonical set.

        Records the dynamic ``R`` atom and hits the ``store.read`` fault
        site exactly like the machine; the canonical :class:`SetLit` is
        built once per execution per extent (the machine re-sorts it on
        every read).
        """
        self.charge()
        maybe_fault("store.read")
        cname, members = self.ee.get(extent)
        self.reads.add(cname)
        self.note_shard_read(cname, None)
        if self.prof is not None:
            self.prof.scans += 1
        cached = self._extent_cache.get(extent)
        if cached is None:
            cached = make_oid_set(members)
            self._extent_cache[extent] = cached
        return cached

    def extent_size(self, extent: str) -> int:
        """``size(E)`` without materialising the member set."""
        self.charge()
        maybe_fault("store.read")
        cname, members = self.ee.get(extent)
        self.reads.add(cname)
        self.note_shard_read(cname, None)
        if self.prof is not None:
            self.prof.scans += 1
        return len(members)

    def extent_members(self, extent: str) -> frozenset[str]:
        """The extent's member oids, skipping canonical-value build.

        Same accounting as :meth:`scan` — one charge, the
        ``store.read`` fault site, the dynamic ``R`` atom — but
        traversal sources consume raw oids, so sorting the members
        into a canonical :class:`SetLit` would be pure waste.
        """
        self.charge()
        maybe_fault("store.read")
        cname, members = self.ee.get(extent)
        self.reads.add(cname)
        self.note_shard_read(cname, None)
        if self.prof is not None:
            self.prof.scans += 1
        return members

    def attr_index(self, extent: str, attr: str) -> dict:
        """A hash index over one extent keyed by one attribute.

        Reading through the index is still a scan of the extent: it
        records the same dynamic ``R`` atom and fault-site hit.  The
        database-level :class:`~repro.db.store.AttributeIndexes` cache
        (when attached) makes the index persistent across queries,
        validated against the store version and invalidated by write
        effects.
        """
        self.charge()
        maybe_fault("store.read")
        cname, members = self.ee.get(extent)
        self.reads.add(cname)
        self.note_shard_read(cname, None)
        if self.prof is not None:
            self.prof.index_lookups += 1
        if self.indexes is not None:
            return self.indexes.get(
                self.ee,
                self.oe,
                self.state_version,
                extent,
                attr,
                shards=self.shards,
            )
        return build_attr_index(self.oe, members, attr)

    def pruned_attr_index(self, extent: str, attr: str, key: Query):
        """One shard's index partial when ``attr`` is the shard key.

        For an index probe with key *k* over an extent sharded
        ``by=attr``, every object whose ``attr`` equals *k* lives (by
        construction of the partition) in the shard *k* hashes to — so
        that shard's partial contains exactly the full index's bucket
        for *k*.  Records a single-``(class, shard)`` dynamic read, the
        confinement the per-shard result cache keys on.  ``None`` when
        pruning does not apply (unsharded, sharded by a different
        attribute or by oid, no index store attached) — the caller uses
        the full index.
        """
        shards = self.shards
        if shards is None or self.indexes is None:
            return None
        spec = shards.spec(extent)
        if spec is None or spec.by != attr:
            return None
        from repro.db.shards import shard_of

        s = shard_of(key, spec.k)
        self.charge()
        maybe_fault("store.read")
        cname = self.ee.class_of(extent)
        self.reads.add(cname)
        partial = self.indexes.get_shard(
            self.ee, self.oe, self.state_version, extent, attr, s, shards
        )
        if partial is None:
            self.note_shard_read(cname, None)
            return None
        self.note_shard_read(cname, s)
        if self.prof is not None:
            self.prof.index_lookups += 1
        return partial

    # -- sharded access --------------------------------------------------
    def shard_view(self, extent: str):
        """``(spec, parts)`` for a sharded extent, or ``(None, None)``.

        Re-validated at execution time: the plan was compiled against a
        shard *spec view* that may have changed since (``.shard`` can be
        re-declared).  The partition is the one at this context's store
        version.
        """
        shards = self.shards
        if shards is None:
            return None, None
        spec = shards.spec(extent)
        if spec is None:
            return None, None
        parts = shards.partition(extent, self.ee, self.oe, self.state_version)
        if parts is None:
            return None, None
        return spec, parts

    def shard_items(
        self, extent: str, shard: int, parts: tuple
    ) -> tuple[OidRef, ...]:
        """One shard's members as oid refs — a pruned (Extent) read.

        Accounts exactly like :meth:`scan` (charge, ``store.read``
        fault, dynamic ``R`` atom) plus the ``exec.shard`` site, but
        records only the single shard in the shard trace.
        """
        self.charge()
        maybe_fault("store.read")
        maybe_fault("exec.shard")
        cname = self.ee.class_of(extent)
        self.reads.add(cname)
        self.note_shard_read(cname, shard)
        if self.prof is not None:
            self.prof.scans += 1
        key = (extent, shard)
        cached = self._extent_cache.get(key)
        if cached is None:
            cached = tuple(OidRef(o) for o in sorted(parts[shard]))
            self._extent_cache[key] = cached
        return cached

    # -- traverse --------------------------------------------------------
    def traverse_chase(
        self, start: list[str], attr: str, depth: int | None
    ) -> frozenset[str]:
        """YELLOW traverse (every bounded depth) and RED's fallback: the
        shared semi-naive frontier chase.

        Charges one budget unit per visited node (matching the big-step
        evaluator's fuel discipline, so exhaustion mid-fixpoint raises
        the same :class:`~repro.errors.FuelExhausted`) and records the
        classes actually visited in the dynamic ``R`` trace.
        """
        maybe_fault("exec.traverse")
        from repro.semantics.traverse import chase

        oids, classes = chase(self.oe, start, attr, depth, tick=self.charge)
        self.reads |= classes
        for c in classes:
            self.note_shard_read(c, None)
        if self.obs:
            route = "yellow" if depth is not None else "red-fallback"
            _metrics().counter("exec_traverse_total", route=route).inc()
        return oids

    def traverse_indexed(
        self,
        start,
        attr: str,
        cone: frozenset[str] | None = None,
        extent: str | None = None,
    ) -> frozenset[str] | None:
        """RED traverse: answer from the persistent interval index.

        Returns None when the route must degrade to the chase: no index
        store attached, empty start, a cyclic or uncovered
        graph, or a start object outside the indexed cone.  A served
        answer records the whole cone in the dynamic trace — the index
        was (re)built from every cone extent, which is exactly the
        static closure bound of the effect rule.

        ``cone`` is the reachable-closure class set when the compiler
        already knows it statically (extent-sourced traversals); when
        None it is recovered from the start objects' runtime classes.
        ``extent`` marks a start set that IS a whole extent, unlocking
        the index's cached per-extent stab array.
        """
        if self.closure_indexes is None or not start:
            return None
        maybe_fault("exec.traverse")
        if cone is None:
            from repro.model.closure import closure_read_set

            cone = frozenset()
            for cname in {self.oe.get(o).cname for o in start}:
                cone |= closure_read_set(self.schema, cname, attr)
        idx = self.closure_indexes.get(
            self.schema, self.ee, self.oe, self.state_version, attr, cone
        )
        result = None
        if extent is not None:
            result = idx.closure_of_extent(self.ee, extent)
        if result is None:
            result = idx.closure_of(start)
        if result is None:
            return None
        self.charge(max(1, len(result)))
        self.reads |= cone
        for c in cone:
            self.note_shard_read(c, None)
        if self.prof is not None:
            self.prof.index_lookups += 1
        if self.obs:
            _metrics().counter("exec_traverse_total", route="red").inc()
        return result

    # -- methods ---------------------------------------------------------
    def call_method(self, target: OidRef, mname: str, args: tuple) -> Query:
        """Invoke a (read-only) method exactly as the machine does."""
        from repro.methods.interp import Fuel, MethodInterpreter

        self.charge()
        maybe_fault("method.call")
        interp = MethodInterpreter(
            self.schema,
            self.ee,
            self.oe,
            mode=self.method_mode,
            fuel=Fuel(self.method_fuel),
            oid_supply=self.supply,
        )
        outcome = interp.invoke(target.name, mname, args)
        if outcome.ee is not self.ee or outcome.oe is not self.oe:
            if outcome.ee != self.ee or outcome.oe != self.oe:
                # unreachable for plans gated on an empty static write
                # effect (Theorem 5), kept as a hard guard
                raise StuckError(
                    f"method {mname!r} mutated state inside a compiled plan"
                )
        if outcome.effect.atoms:
            self.extra_effect |= outcome.effect
        return outcome.value
