"""The explain tree: one data model behind all three explain surfaces.

A profile-mode compile of the production plan produces three layers:

* :class:`OpDescr` — the *static* side, one record per plan operator
  (scan, filter, hash join, emit, nested comprehension), created by the
  compiler in profile mode.  Each carries the cost model's **estimated**
  output cardinality, extent accesses their shard access and
  comprehensions their merge rows and bytes, so the profile can hold
  estimate and actual side by side — the data feed a cost-based
  replanner needs.
* :class:`ProfileRun` — the *dynamic* side, two flat arrays (call
  counts and inclusive wall-times) indexed by operator id, written by
  the per-operator wrappers the compiler installs.  Kept deliberately
  dumb: the hot path does one list-index increment and two clock reads
  per operator invocation.
* :class:`QueryProfile` — the joined result: the plan header
  (estimated cost, rewrites, engine decision, plan notes), a tree of
  :class:`ProfileNode` rows (estimated rows and, once analysed, actual
  rows, misestimate ratio, calls, inclusive/self time), a summary dict,
  and JSON-safe :meth:`~QueryProfile.profile_dict` / human
  :meth:`~QueryProfile.render` presentations.  ``.explain`` prints its
  header, ``.explain cost`` the tree unexecuted, ``.explain analyze``
  the tree after one instrumented run.

This module is a **leaf**: stdlib imports only, so the compiler, the
engine and the database can all import it without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

_LABEL_WIDTH = 44


def _short(text: str, width: int = 120) -> str:
    text = " ".join(str(text).split())
    return text if len(text) <= width else text[: width - 1] + "…"


@dataclass
class OpDescr:
    """One plan operator, as the compiler described it.

    ``rows_from`` is the id of the operator whose *call count* equals
    this operator's output row count — for a chain operator that is the
    next operator downstream, for the last one (emit) it is itself.
    ``parent`` reflects the actual call nesting, so inclusive times
    subtract correctly.
    """

    op_id: int
    parent: int | None
    kind: str  # result | comp | scan | filter | hash-join | emit
    label: str
    est_rows: float
    rows_from: int
    extra: dict = field(default_factory=dict)


class ProfileRun:
    """The dynamic counters of one instrumented plan execution."""

    __slots__ = ("rows", "times", "scans", "index_lookups")

    def __init__(self, n_ops: int) -> None:
        self.rows = [0] * n_ops
        self.times = [0.0] * n_ops
        self.scans = 0
        self.index_lookups = 0


@dataclass
class ProfileNode:
    """One rendered row of the profile tree (estimate vs actual).

    The actual-side fields are None until the plan has run; ``detail``
    carries the operator's static labels (shard access, merge cost).
    """

    op_id: int
    parent: int | None
    kind: str
    label: str
    est_rows: float
    rows_in: int | None
    rows_out: int | None
    time_s: float | None
    self_time_s: float | None
    misestimate: float | None  # actual/estimated; None when no estimate basis
    detail: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "op_id": self.op_id,
            "parent": self.parent,
            "kind": self.kind,
            "label": self.label,
            "est_rows": self.est_rows,
            "rows_in": self.rows_in,
            "rows_out": self.rows_out,
            "time_ms": None if self.time_s is None else self.time_s * 1e3,
            "self_time_ms": (
                None if self.self_time_s is None else self.self_time_s * 1e3
            ),
            "misestimate": self.misestimate,
            "detail": self.detail,
        }


def _ratio(actual: int, est: float) -> float | None:
    if est > 0:
        return actual / est
    return 1.0 if actual == 0 else None


def misestimate_percentile(
    nodes: "list[ProfileNode]", q: float = 0.9
) -> float:
    """The ``q``-percentile misestimate factor across a plan's nodes.

    The factor is symmetric — ``max(actual/est, est/actual)`` — so a
    10× *under*-estimate scores the same as a 10× *over*-estimate, and
    a node with no estimate basis (``misestimate is None``) is scored
    at the benchmark's worst observed factor rather than skipped.
    Returns 1.0 for an empty plan (every estimate exact).  This is the
    quality gate the optimizer benchmark's ``misestimate_p90`` uses.
    """
    factors: list[float] = []
    worst = 1.0
    missing = 0
    for n in nodes:
        r = n.misestimate
        if r is None:
            missing += 1
            continue
        f = max(r, 1.0 / r) if r > 0 else 1.0
        factors.append(f)
        worst = max(worst, f)
    factors.extend([worst] * missing)
    if not factors:
        return 1.0
    factors.sort()
    pos = min(len(factors) - 1, int(q * len(factors)))
    return factors[pos]


def build_nodes(
    ops, run: ProfileRun | None = None, *, result_rows: int | None = None
) -> list[ProfileNode]:
    """Join static operator descriptions with one run's counters.

    Without a ``run`` the nodes carry estimates only (the unexecuted
    tree of ``.explain cost``).
    """
    if run is None:
        return [
            ProfileNode(
                op.op_id, op.parent, op.kind, op.label, op.est_rows,
                None, None, None, None, None, dict(op.extra),
            )
            for op in ops
        ]
    child_time: dict[int, float] = {}
    for op in ops:
        if op.parent is not None:
            child_time[op.parent] = (
                child_time.get(op.parent, 0.0) + run.times[op.op_id]
            )
    nodes: list[ProfileNode] = []
    for op in ops:
        rows_in = run.rows[op.op_id]
        rows_out = run.rows[op.rows_from]
        if op.kind == "result" and result_rows is not None:
            rows_out = result_rows
        t = run.times[op.op_id]
        nodes.append(
            ProfileNode(
                op_id=op.op_id,
                parent=op.parent,
                kind=op.kind,
                label=op.label,
                est_rows=op.est_rows,
                rows_in=rows_in,
                rows_out=rows_out,
                time_s=t,
                self_time_s=max(0.0, t - child_time.get(op.op_id, 0.0)),
                misestimate=_ratio(rows_out, op.est_rows),
                detail=dict(op.extra),
            )
        )
    return nodes


def _detail_text(detail: dict) -> str:
    """The shard-access or merge label of one operator, for ``render``."""
    acc = detail.get("access")
    if acc is not None:
        where = (
            f"{acc['shards']}/{acc['k']} shard(s)"
            + (" [pruned]" if acc["pruned"] else "")
            if acc["sharded"]
            else "unsharded"
        )
        return (
            f"{where}, ~{acc['rows_scanned']:.0f} of {acc['rows']:.0f} "
            "rows scanned"
        )
    if "merge_rows" in detail:
        return (
            f"merge ~{detail['merge_rows']:.1f} rows "
            f"(~{detail['merge_bytes']:.0f} B)"
        )
    return ""


@dataclass
class QueryProfile:
    """One query's explain tree, unexecuted or after one analysed run.

    The header fields come from the planning call that built the tree:
    the engine decision and its reason, the estimated cost of the
    optimizer-normalised query (``plan_query``), the rewrite rules that
    produced it and the compiled plan's notes.  ``elapsed_s`` stays
    None until the plan runs; an analysed run fills it together with
    ``fuel``, the dynamic ``effect``, ``actual_steps``, ``summary`` and
    the value.
    """

    query: str
    engine: str  # "compiled" | "reduction"
    est_cost: float
    elapsed_s: float | None = None
    fuel: int = 0  # budget fuel consumed (compiled ops / machine steps)
    effect: str = ""
    actual_steps: int = 0
    nodes: list[ProfileNode] = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    value: object = field(default=None, repr=False)
    decision: str = ""
    plan_query: str = ""
    rewrites: tuple[str, ...] = ()
    notes: tuple[str, ...] = ()

    def profile_dict(self) -> dict:
        """The machine-readable profile (JSON round-trip safe)."""
        return {
            "query": self.query,
            "engine": self.engine,
            "decision": self.decision,
            "est_cost": self.est_cost,
            "plan_query": self.plan_query,
            "rewrites": list(self.rewrites),
            "notes": list(self.notes),
            "elapsed_ms": (
                None if self.elapsed_s is None else self.elapsed_s * 1e3
            ),
            "fuel": self.fuel,
            "effect": self.effect,
            "actual_steps": self.actual_steps,
            "nodes": [n.as_dict() for n in self.nodes],
            "summary": self.summary,
        }

    # -- human rendering -------------------------------------------------
    def render(self) -> str:
        analysed = self.elapsed_s is not None
        if analysed:
            lines = [
                f"profile : {self.engine} engine — "
                f"{self.elapsed_s * 1e3:.3f} ms, fuel {self.fuel}, "
                f"effect {self.effect or '∅'}",
                f"query   : {_short(self.query, 100)}",
                f"cost    : estimated {self.est_cost:.0f} steps, "
                f"actual {self.actual_steps}",
            ]
        else:
            lines = [
                f"cost report : {self.engine} engine",
                f"query   : {_short(self.query, 100)}",
                f"cost    : estimated {self.est_cost:.0f} steps",
            ]
        if self.decision:
            lines.append(f"decision: {self.decision}")
        for key, val in sorted(self.summary.items()):
            if key != "rules":
                lines.append(f"{key:<8}: {val}")
        if self.nodes:
            head = f"{'operator':<{_LABEL_WIDTH}} {'est rows':>10}"
            if analysed:
                head += (
                    f" {'actual':>8} {'ratio':>7} "
                    f"{'calls':>7} {'ms':>9} {'self ms':>9}"
                )
            lines.append(head)
            depth = {
                n.op_id: (0 if n.parent is None else -1) for n in self.nodes
            }
            by_id = {n.op_id: n for n in self.nodes}

            def _depth(op_id: int) -> int:
                if depth[op_id] < 0:
                    depth[op_id] = _depth(by_id[op_id].parent) + 1
                return depth[op_id]

            for n in self.nodes:
                d = _depth(n.op_id)
                label = _short("  " * d + n.label, _LABEL_WIDTH)
                row = f"{label:<{_LABEL_WIDTH}} {n.est_rows:>10.1f}"
                if analysed:
                    ratio = (
                        "   inf" if n.misestimate is None
                        else f"{n.misestimate:5.2f}x"
                    )
                    row += (
                        f" {n.rows_out:>8} {ratio:>7} "
                        f"{n.rows_in:>7} {n.time_s * 1e3:>9.3f} "
                        f"{n.self_time_s * 1e3:>9.3f}"
                    )
                detail = _detail_text(n.detail)
                lines.append(f"{row}  {detail}" if detail else row)
        rules = self.summary.get("rules")
        if rules:
            lines.append("rules fired:")
            for rule, n in sorted(rules.items(), key=lambda kv: (-kv[1], kv[0])):
                lines.append(f"  {rule:<20}{n:>7}")
        for note in self.notes:
            lines.append(f"note    : {note}")
        return "\n".join(lines)
