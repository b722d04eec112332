"""The per-evaluation context threaded through compiled operators.

One :class:`ExecContext` lives for exactly one plan execution against
one database at one store triple.  It reads the (immutable) EE/OE of
that triple and the database's derived state at its version, accounts
for resource budgets and fault-injection sites with the same
discipline as the reduction machine — every way of reading an extent
goes through :meth:`ExecContext.read_extent` — and records the
*dynamic* effect trace (the classes whose extents were actually read)
so Theorem 5 can be checked against compiled runs exactly as it is
against the machine.

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
    """Everything one compiled-plan execution reads and accounts for.

    ``ExecContext(db, at)`` runs at the store triple ``at = (version,
    ee, oe)`` of ``db`` — the store published now, or the one a replica
    read captured — and reads everything else from ``db``: the schema,
    the method settings and oid supply, and the derived state that
    answers at ``version`` (attribute indexes, shard partitions and
    closure indexes).  A partition-parallel scan gives each worker its
    own context at the same triple and folds the worker's row charges
    back with :meth:`absorb`.
    """

    __slots__ = (
        "db",
        "version",
        "ee",
        "oe",
        "schema",
        "budget",
        "reads",
        "extra_effect",
        "ops",
        "obs",
        "prof",
        "shard_reads",
        "replan",
        "_extent_cache",
        "stage_cache",
    )

    def __init__(self, db, at, *, budget: Budget | None = None):
        self.db = db
        self.version, self.ee, self.oe = at
        self.schema = db.schema
        self.budget = budget.start() if budget is not None else None
        self.reads: set[str] = set()
        self.extra_effect: Effect = EMPTY
        self.ops = 0
        self.obs = _OBS.enabled
        # set by the profiled execution path (.explain analyze) only;
        # plain runs pay nothing for it
        self.prof = None
        # dynamic shard trace: class -> set of shard ids read, or None
        # once any whole-extent read happened (= all shards)
        self.shard_reads: dict[str, set | None] = {}
        # adaptive replanning: a ReplanGuard on first execution
        # attempts, None everywhere else (guards become no-ops)
        self.replan: ReplanGuard | None = None
        self._extent_cache: dict = {}
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
        """Fold a parallel worker context's row charges into this one.

        Budget fuel is charged in one lump after the fan-out completes,
        so a budget can overshoot by at most one parallel scan — the
        documented granularity of partition-parallel accounting.
        """
        self.ops += ops
        if self.budget is not None and ops:
            self.budget.charge_steps(ops)

    # -- store access ----------------------------------------------------
    def read_extent(
        self, extent: str, shard: int | None = None
    ) -> frozenset[str]:
        """The (Extent) read, accounted once for every way of reading.

        One charge, the ``store.read`` fault site (before any index or
        partition is built), the dynamic ``R`` atom, and the shard
        trace: ``shard`` is the one shard a pruned read touches,
        ``None`` a whole-extent read.  Returns the extent's members.
        """
        self.charge()
        maybe_fault("store.read")
        cname, members = self.ee.get(extent)
        self.reads.add(cname)
        self.note_shard_read(cname, shard)
        return members

    def scan(self, extent: str) -> Query:
        """The extent's members as a canonical set, built once per
        execution per extent (the machine re-sorts it on every read)."""
        members = self.read_extent(extent)
        if self.prof is not None:
            self.prof.scans += 1
        cached = self._extent_cache.get(extent)
        if cached is None:
            cached = self._extent_cache[extent] = make_oid_set(members)
        return cached

    def extent_size(self, extent: str) -> int:
        """``size(E)`` without materialising the member set."""
        members = self.read_extent(extent)
        if self.prof is not None:
            self.prof.scans += 1
        return len(members)

    def extent_members(self, extent: str) -> frozenset[str]:
        """The extent's member oids: traversal sources consume raw
        oids, so a canonical :class:`SetLit` would be pure waste."""
        members = self.read_extent(extent)
        if self.prof is not None:
            self.prof.scans += 1
        return members

    def attr_index(self, extent: str, attr: str) -> dict:
        """A hash index over one extent keyed by one attribute.

        Reading through the index is still a read of the whole extent.
        The index is the database's
        :class:`~repro.db.store.AttributeIndexes` entry at this
        context's version, persistent across queries and maintained by
        write effects.
        """
        self.read_extent(extent)
        if self.prof is not None:
            self.prof.index_lookups += 1
        db = self.db
        return db._indexes.get(
            self.ee, self.oe, self.version, extent, attr, shards=db._shards
        )

    def pruned_attr_index(self, extent: str, attr: str, key: Query):
        """One shard's index partial when ``attr`` is the shard key.

        For an index probe with key *k* over an extent sharded
        ``by=attr``, every object whose ``attr`` equals *k* lives (by
        construction of the partition) in the shard *k* hashes to — so
        that shard's partial contains exactly the full index's bucket
        for *k*.  Records a single-``(class, shard)`` dynamic read, the
        confinement the per-shard result cache keys on.  ``None`` when
        pruning does not apply (unsharded, or sharded by a different
        attribute or by oid) — the caller reads the full index, which
        records the whole-extent read.
        """
        shards = self.db._shards
        spec = shards.spec(extent)
        if spec is None or spec.by != attr:
            return None
        from repro.db.shards import shard_of

        s = shard_of(key, spec.k)
        self.read_extent(extent, s)
        partial = self.db._indexes.get_shard(
            self.ee, self.oe, self.version, extent, attr, s, shards
        )
        if partial is not None and self.prof is not None:
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
        shards = self.db._shards
        spec = shards.spec(extent)
        if spec is None:
            return None, None
        parts = shards.partition(extent, self.ee, self.oe, self.version)
        return (None, None) if parts is None else (spec, parts)

    def shard_items(
        self, extent: str, shard: int, parts: tuple
    ) -> tuple[OidRef, ...]:
        """One shard's members as oid refs — a pruned (Extent) read,
        plus the ``exec.shard`` fault site."""
        self.read_extent(extent, shard)
        maybe_fault("exec.shard")
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
        """RED traverse: answer from the persistent closure index.

        Returns None when the route must degrade to the chase: empty
        start, a cyclic or uncovered graph, or a start object outside
        the indexed cone.  A served answer records the whole cone in the
        dynamic trace — the index was (re)built from every cone extent,
        which is exactly the static closure bound of the effect rule.

        ``cone`` is the reachable-closure class set when the compiler
        already knows it statically (extent-sourced traversals); when
        None it is recovered from the start objects' runtime classes.
        ``extent`` marks a start set that IS a whole extent, whose
        closure the index memoizes.
        """
        if not start:
            return None
        maybe_fault("exec.traverse")
        if cone is None:
            from repro.model.closure import closure_read_set

            cone = frozenset()
            for cname in {self.oe.get(o).cname for o in start}:
                cone |= closure_read_set(self.schema, cname, attr)
        idx = self.db._closure_indexes.get(
            self.schema, self.ee, self.oe, self.version, attr, cone
        )
        if extent is not None:
            result = idx.closure_of_extent(self.ee, extent)
        else:
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
        db = self.db
        interp = MethodInterpreter(
            self.schema,
            self.ee,
            self.oe,
            mode=db.method_mode,
            fuel=Fuel(db.machine.method_fuel),
            oid_supply=db.supply,
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
