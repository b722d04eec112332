"""A TD2-style distributed cost report for one query, without running it.

TD2 (a big-data-structures course exercise in query cost analysis)
prices a plan by what each *site* scans and what moves between
sites.  The sharded database has the same shape in miniature: each
shard is a site, a partition-parallel pipeline runs
per shard, and the merge point pays for the rows the shards emit.
:func:`build_cost_report` combines the optimizer's
:class:`~repro.optimizer.cost.CostModel` (extent cardinalities,
System-R selectivities) with the static shard analysis
(:func:`repro.db.shards.static_read_shards`) to report, per extent
access:

* how many of the extent's shards the compiled plan would touch
  (1 after shard-probe pruning, all ``k`` for an unconfined scan);
* the estimated rows actually scanned (``ceil(rows / k)`` per shard
  touched — the partition is hash-balanced by construction);
* the predicate selectivities that thin the pipeline downstream;

and per comprehension the **merge cost**: the estimated rows (and
bytes, at a flat per-row figure à la TD2's ``size_msg``) the per-shard
pipelines hand to the ordered merge.  Everything is estimated from the
catalog snapshot — the report never executes the query, so it is safe
to call on any effect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.lang.ast import Comp, ExtentRef, Gen, Pred, Query
from repro.lang.pprint import pretty
from repro.lang.traversal import walk

#: Flat estimate of one row crossing a merge point, in bytes — an oid
#: ref or small tuple; the TD2 ``size_msg`` analogue.
ROW_BYTES = 24


@dataclass
class ExtentAccess:
    """One generator's scan of one extent, shard-priced."""

    extent: str
    cname: str
    var: str
    rows: int
    sharded: bool
    k: int
    by: str | None
    shards_accessed: int
    rows_scanned: float
    pruned: bool

    def to_dict(self) -> dict:
        return {
            "extent": self.extent,
            "class": self.cname,
            "var": self.var,
            "rows": self.rows,
            "sharded": self.sharded,
            "k": self.k,
            "by": self.by,
            "shards_accessed": self.shards_accessed,
            "rows_scanned": self.rows_scanned,
            "pruned": self.pruned,
        }


@dataclass
class PredicateCost:
    """One predicate and the fraction of rows it is estimated to pass."""

    pred: str
    selectivity: float

    def to_dict(self) -> dict:
        return {"pred": self.pred, "selectivity": self.selectivity}


@dataclass
class MergePoint:
    """One comprehension's fan-in: what the shard pipelines emit."""

    comp: str
    pipelines: int
    est_rows_moved: float
    est_bytes_moved: float

    def to_dict(self) -> dict:
        return {
            "comp": self.comp,
            "pipelines": self.pipelines,
            "est_rows_moved": self.est_rows_moved,
            "est_bytes_moved": self.est_bytes_moved,
        }


@dataclass
class CostReport:
    """The full report; ``render()`` pretty-prints, ``to_dict()`` is
    JSON-safe (the shell's ``.explain cost``)."""

    query: str
    engine: str
    decision: str
    est_cost: float
    accesses: list[ExtentAccess] = field(default_factory=list)
    predicates: list[PredicateCost] = field(default_factory=list)
    merges: list[MergePoint] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def total_rows_scanned(self) -> float:
        return sum(a.rows_scanned for a in self.accesses)

    def to_dict(self) -> dict:
        return {
            "query": self.query,
            "engine": self.engine,
            "decision": self.decision,
            "est_cost": self.est_cost,
            "total_rows_scanned": self.total_rows_scanned,
            "accesses": [a.to_dict() for a in self.accesses],
            "predicates": [p.to_dict() for p in self.predicates],
            "merges": [m.to_dict() for m in self.merges],
            "notes": list(self.notes),
        }

    def render(self) -> str:
        lines = [
            f"cost report: {self.query}",
            f"  engine {self.engine} — {self.decision}",
            f"  est cost {self.est_cost:.1f} steps, "
            f"est rows scanned {self.total_rows_scanned:.1f}",
        ]
        for a in self.accesses:
            if a.sharded:
                tag = (
                    f"{a.shards_accessed}/{a.k} shard(s)"
                    + (" [pruned]" if a.pruned else "")
                )
            else:
                tag = "unsharded"
            lines.append(
                f"  access {a.var} <- {a.extent} ({a.cname}): "
                f"{a.rows} rows, {tag}, "
                f"~{a.rows_scanned:.1f} scanned"
            )
        for p in self.predicates:
            lines.append(
                f"  filter {p.pred}: selectivity {p.selectivity:.2f}"
            )
        for m in self.merges:
            lines.append(
                f"  merge {m.comp}: {m.pipelines} pipeline(s), "
                f"~{m.est_rows_moved:.1f} rows "
                f"(~{m.est_bytes_moved:.0f} B) moved"
            )
        for note in self.notes:
            lines.append(f"  note {note}")
        return "\n".join(lines)


def build_cost_report(db, q: Query) -> CostReport:
    """Assemble the report for ``q`` against ``db``'s current catalog."""
    from repro.db.shards import static_read_shards
    from repro.optimizer.cost import CostModel
    from repro.optimizer.planner import optimize

    db.typecheck(q)
    decision = db.plan_decision(q)
    model = CostModel.from_database(db)
    try:
        normalised = optimize(db, q).query
    except Exception:
        normalised = q
    shards = getattr(db, "_shards", None)
    enabled = shards is not None and shards.enabled
    confinement = (
        static_read_shards(shards, db.schema, normalised)
        if enabled
        else None
    )

    report = CostReport(
        query=pretty(q),
        engine=decision.engine,
        decision=decision.reason,
        est_cost=model.eval_cost(normalised),
    )
    if decision.plan is not None:
        report.notes.extend(decision.plan.notes)

    seen_preds: set[Query] = set()
    for node in walk(normalised):
        if not isinstance(node, Comp):
            continue
        pipelines = 1
        for cq in node.qualifiers:
            if isinstance(cq, Pred):
                if cq.cond not in seen_preds:
                    seen_preds.add(cq.cond)
                    report.predicates.append(
                        PredicateCost(
                            pretty(cq.cond),
                            model.predicate_selectivity(cq.cond),
                        )
                    )
                continue
            if not isinstance(cq, Gen) or not isinstance(
                cq.source, ExtentRef
            ):
                continue
            extent = cq.source.name
            try:
                cname = db.schema.extent_class(extent)
            except Exception:
                continue
            rows = len(db.ee.members(extent))
            spec = shards.spec(extent) if enabled else None
            if spec is None:
                report.accesses.append(
                    ExtentAccess(
                        extent, cname, cq.var, rows,
                        sharded=False, k=1, by=None,
                        shards_accessed=1,
                        rows_scanned=float(rows),
                        pruned=False,
                    )
                )
                continue
            confined = (
                confinement.get(cname) if confinement is not None else None
            )
            accessed = len(confined) if confined is not None else spec.k
            per_shard = math.ceil(rows / spec.k) if spec.k else rows
            report.accesses.append(
                ExtentAccess(
                    extent, cname, cq.var, rows,
                    sharded=True, k=spec.k, by=spec.by,
                    shards_accessed=accessed,
                    rows_scanned=float(per_shard * accessed),
                    pruned=confined is not None,
                )
            )
            # an unconfined scan of a sharded extent fans out one
            # pipeline per shard; a pruned access runs one
            pipelines = max(pipelines, accessed)
        est_out = model.cardinality(node)
        report.merges.append(
            MergePoint(
                comp=pretty(node),
                pipelines=pipelines,
                est_rows_moved=est_out,
                est_bytes_moved=est_out * ROW_BYTES,
            )
        )
    return report
