"""An interactive IOQL shell.

Run as::

    python -m repro [--no-obs] [schema.odl]

Lines starting with ``.`` are commands; ``define …;`` adds a query
definition; anything else is a query — it is type-checked, effect-
checked and evaluated, and the shell prints ``value : type ! effect``.

Commands::

    .help                 this text
    .schema <file>        load an ODL schema file (replaces the database)
    .type <query>         Figure 1: type only
    .effect <query>       Figure 3: inferred effect
    .infer <query>        schema-less requirements inference
    .det <query>          ⊢′ determinism analysis (Theorem 7)
    .explore <query>      enumerate all reduction orders
    .trace [--json] <q>   print the step-by-step derivation (Figure 2/4);
                          --json emits one JSON object per step
    .optimize <query>     effect-gated rewriting with provenance
    .explain <query>      the plan's header: estimated cost, rewrites,
                          effect, ⊢′, engine decision and plan notes
    .explain cost <q>     the plan's operator tree, unexecuted: estimated
                          rows per operator, shard access and rows
                          scanned per extent, rows/bytes at each merge
                          point (no tree when the compiled engine
                          refuses the query)
    .explain analyze <q>  the same tree after one instrumented run:
                          estimated vs actual rows, misestimate ratio,
                          per-operator time (never commits; falls back
                          to a reduction-rule histogram outside the
                          compiled fragment)
    .analyze              eagerly build optimizer statistics for every
                          (extent, attribute) column and print rows,
                          distinct counts and histogram buckets
    .replan [RATIO|off]   adaptive replanning: ``.replan 4`` aborts and
                          re-optimizes a plan whose observed source
                          cardinality is 4x off the estimate, ``off``
                          disables, bare shows the setting
    .top                  live health board: query/cache counters, WAL
                          lsn + fsync p50/p99, last scheduled batch,
                          optimizer stats, indexes, flight ring
    .stats [on|off|reset] observability: show collected metrics/spans,
                          or toggle instrumentation (off at startup)
    .stats export <file>  write everything collected as JSONL
    .profile <query>      run once with instrumentation and print the
                          per-phase timing tree and rule histogram
    .extents              extent sizes
    .snapshot / .restore  save / roll back the database state
    .budget [...]         resource budget applied to every query:
                          ``.budget steps=N time=SECS objects=K`` sets,
                          ``.budget off`` clears, bare shows
    .workers [N|off]      scheduled batches: ``.workers N`` makes a
                          line of ``;;``-separated queries run as one
                          effect-scheduled batch on N threads
                          (``Database.run_many``); ``off`` = 1; bare
                          shows the setting
    .faults [...]         fault injection: ``.faults inject site=<s>
                          [at=N] [every=K] [p=0.5] [times=M]
                          [delay=SECS] [kind=transient|latency]
                          [seed=N]`` adds a rule, ``.faults off``
                          uninstalls, bare shows the plan and counters
    .transaction <cmd>    begin / commit / rollback an all-or-nothing
                          scope; a failing statement inside rolls the
                          whole transaction back
    .wal [open <dir>|off] durability: ``.wal open <dir>`` recovers the
                          database stored there (or starts journalling
                          the current one into a fresh directory),
                          ``.wal off`` detaches, bare shows status
    .checkpoint           fold the write-ahead log into the checkpoint
    .replicas [N|poll|off] replication: ``.replicas N`` attaches N
                          WAL-shipped read replicas (needs ``.wal``),
                          ``poll`` ships+applies, ``off`` detaches,
                          bare shows each replica's state, lag and
                          watermarks plus routing counters
    .promote <name>       fail over: promote the named replica to
                          primary (the old primary is fenced)
    .shard <Class> [k=N] [by=attr]  hash-partition the class's extent
                          into N shards (default 8); ``by=attr``
                          shards on that attribute's value so equality
                          scans prune to one shard; bare ``.shards``
                          shows the layout
    .shards               sharding health: layout, per-shard sizes and
                          version skew, install/rebuild counters and
                          worker-pool utilization
    .quit                 leave

Instrumentation is **off** when the shell starts (interactive latency
is unchanged); opt in with ``.stats on``.  Launching with ``--no-obs``
locks it off for the whole session.

The shell is a thin veneer over :class:`repro.db.Database`; every line
handler returns the printed text, so the whole surface is unit-testable
without a terminal (see ``tests/test_shell.py``).
"""

from __future__ import annotations

import sys

from repro import obs
from repro.db.database import Database, Snapshot
from repro.errors import ReproError
from repro.lang.parser import parse_query
from repro.methods.ast import AccessMode
from repro.resilience import faults as fault_injection
from repro.resilience.budget import Budget
from repro.resilience.faults import FaultPlan, FaultRule
from repro.resilience.transactions import Transaction
from repro.typing.inference import infer_requirements

_BANNER = (
    "IOQL shell — Bierman, 'Formal semantics and analysis of object "
    "queries' (SIGMOD 2003), executable.\nType .help for commands."
)

_DEFAULT_ODL = """
class Person extends Object (extent Persons) {
    attribute string name;
    attribute int age;
}
"""


class Shell:
    """The command interpreter; one database at a time.

    ``obs_locked`` is the ``--no-obs`` escape hatch: instrumentation
    can then not be turned on for the lifetime of the shell.
    """

    def __init__(self, db: Database | None = None, *, obs_locked: bool = False):
        self.db = db or Database.from_odl(_DEFAULT_ODL)
        self._snapshot: Snapshot | None = None
        self._obs_locked = obs_locked
        self._budget: Budget | None = None
        self._txn: Transaction | None = None
        self._workers = 1

    # ------------------------------------------------------------------
    def handle(self, line: str) -> str:
        """Process one input line; returns the text to print."""
        line = line.strip()
        if not line or line.startswith("//"):
            return ""
        try:
            if line.startswith("."):
                return self._command(line)
            if line.startswith("define"):
                if not line.endswith(";"):
                    line += ";"
                ftype = self.db.define(line)
                return f"defined : {ftype}"
            if ";;" in line:
                return self._batch(line)
            return self._query(line)
        except ReproError as exc:
            # all-or-nothing: a failing *statement* aborts the whole
            # open transaction (commands like .type are read-only and
            # leave it open)
            if (
                self._txn is not None
                and self._txn.active
                and not line.startswith(".")
            ):
                self._txn.rollback()
                self._txn = None
                return (
                    f"error: {exc}\n"
                    "transaction rolled back: the database is exactly as "
                    "it was at .transaction begin"
                )
            return f"error: {exc}"

    # ------------------------------------------------------------------
    def _query(self, src: str) -> str:
        t, eff = self.db.typecheck_with_effect(src)
        budget = self._budget.fresh() if self._budget is not None else None
        result = self.db.run(src, budget=budget)
        eff_str = "" if eff.is_empty() else f" ! {eff}"
        if result.engine == "compiled":
            how = f"compiled plan, {result.steps} ops"
        else:
            how = f"{result.steps} steps"
        return f"{result.value} : {t}{eff_str}   ({how})"

    def _batch(self, line: str) -> str:
        """A ``;;``-separated line runs as one effect-scheduled batch."""
        parts = [p.strip() for p in line.split(";;") if p.strip()]
        if not parts:
            return ""
        res = self.db.run_many(
            parts, workers=self._workers, budget=self._budget
        )
        lines = []
        for o in res:
            if o.ok:
                lines.append(f"[{o.index}] {o.value}")
            else:
                lines.append(f"[{o.index}] error: {o.error}")
        lines.append(
            f"({len(res)} queries, {res.conflict_edges} conflict edge(s), "
            f"{res.workers} worker(s), {res.wall_time * 1e3:.1f} ms, "
            f"speedup {res.speedup:.2f}x)"
        )
        return "\n".join(lines)

    def _command(self, line: str) -> str:
        cmd, _, rest = line.partition(" ")
        rest = rest.strip()
        if cmd == ".help":
            return __doc__.split("Commands::", 1)[1].strip()
        if cmd == ".schema":
            if self._txn is not None and self._txn.active:
                return "error: commit or roll back the open transaction first"
            with open(rest, encoding="utf-8") as f:
                source = f.read()
            self.db.close()  # release any attached write-ahead log
            self.db = Database.from_odl(source)
            return f"loaded schema with classes {sorted(self.db.schema.class_names())}"
        if cmd == ".type":
            return str(self.db.typecheck(rest))
        if cmd == ".effect":
            return str(self.db.effect_of(rest))
        if cmd == ".infer":
            return infer_requirements(parse_query(rest)).describe()
        if cmd == ".det":
            witnesses = self.db.determinism_witnesses(rest)
            if not witnesses:
                return "deterministic (⊢′ accepts; Theorem 7 applies)"
            return "\n".join(f"⊢′ rejects: {w}" for w in witnesses)
        if cmd == ".explore":
            budget = self._budget.fresh() if self._budget is not None else None
            return self.db.explore(rest, budget=budget).summary()
        if cmd == ".trace":
            from repro.semantics.tracing import trace

            json_mode = False
            if rest.startswith("--json"):
                json_mode = True
                rest = rest[len("--json"):].strip()
            q = self.db.parse(rest)
            self.db.typecheck(q)
            if json_mode:
                import json

                from repro.obs import events as obs_events
                from repro.obs.export import event_dict

                with obs_events.capture() as evs:
                    trace(self.db.machine, self.db.ee, self.db.oe, q)
                out = "\n".join(
                    json.dumps(event_dict(ev), ensure_ascii=False)
                    for ev in evs
                )
                return out or "(no steps: the query is already a value)"
            t = trace(self.db.machine, self.db.ee, self.db.oe, q)
            return t.render()
        if cmd == ".optimize":
            from repro.optimizer.planner import optimize

            res = optimize(self.db, self.db.parse(rest))
            if not res.changed:
                return f"no rewrites apply\n{res.query}"
            fired = ", ".join(res.rules_fired())
            return f"{res.query}\n(fired: {fired})"
        if cmd == ".explain":
            if rest.startswith("analyze"):
                src = rest[len("analyze"):].strip()
                if not src:
                    return "error: .explain analyze needs a query"
                budget = (
                    self._budget.fresh() if self._budget is not None else None
                )
                return self.db.explain_analyze(src, budget=budget).render()
            if rest.startswith("cost"):
                src = rest[len("cost"):].strip()
                if not src:
                    return "error: .explain cost needs a query"
                return self.db.explain_cost(src).render()
            q = self.db.parse(rest)
            prof = self.db.explain_cost(q)
            lines = [f"estimated cost : {prof.est_cost:.0f} steps"]
            if prof.rewrites:
                lines.append(f"rewritten to   : {prof.plan_query}")
                lines.append(f"rules fired    : {', '.join(prof.rewrites)}")
            else:
                lines.append("no rewrites apply")
            lines.append(f"effect         : {self.db.effect_of(q)}")
            det = "yes" if self.db.is_deterministic(q) else "NO (⊢′ rejects)"
            lines.append(f"deterministic  : {det}")
            lines.append(f"engine         : {prof.engine} — {prof.decision}")
            for note in prof.notes:
                lines.append(f"plan note      : {note}")
            return "\n".join(lines)
        if cmd == ".analyze":
            summary = self.db.analyze()
            if not summary:
                return "(no columns)"
            lines = ["column                     rows  distinct  hist"]
            for name, col in summary.items():
                exact = "" if col["exact"] else " (sketch)"
                lines.append(
                    f"{name:<24} {col['rows']:>6} "
                    f"{col['distinct']:>9g}{exact} "
                    f"{col['histogram_buckets']:>5}"
                )
            return "\n".join(lines)
        if cmd == ".replan":
            if rest == "off":
                self.db.replan_ratio = None
                return "adaptive replanning off"
            if rest:
                try:
                    ratio = float(rest)
                    if ratio <= 1.0:
                        raise ValueError
                except ValueError:
                    return "error: .replan needs a ratio > 1, or 'off'"
                self.db.replan_ratio = ratio
                return f"replanning at {ratio:g}x misestimate"
            ratio = self.db.replan_ratio
            done = self.db._qstats.get("replans", 0)
            if ratio is None:
                return f"adaptive replanning off ({done} replans so far)"
            return (
                f"replanning at {ratio:g}x misestimate "
                f"({done} replans so far)"
            )
        if cmd == ".stats":
            return self._stats(rest)
        if cmd == ".top":
            from repro.db import health as db_health

            return db_health.render(self.db.health())
        if cmd == ".profile":
            return self._profile(rest)
        if cmd == ".extents":
            rows = [
                f"{e}: {len(self.db.extent(e))} object(s)"
                for e in sorted(self.db.schema.extents)
            ]
            return "\n".join(rows) if rows else "(no extents)"
        if cmd == ".budget":
            return self._budget_cmd(rest)
        if cmd == ".workers":
            return self._workers_cmd(rest)
        if cmd == ".faults":
            return self._faults_cmd(rest)
        if cmd == ".transaction":
            return self._transaction_cmd(rest)
        if cmd == ".wal":
            return self._wal_cmd(rest)
        if cmd == ".replicas":
            return self._replicas_cmd(rest)
        if cmd == ".promote":
            return self._promote_cmd(rest)
        if cmd == ".shard":
            return self._shard_cmd(rest)
        if cmd == ".shards":
            return self._shards_cmd()
        if cmd == ".checkpoint":
            if self.db.wal is None:
                return "error: no write-ahead log attached (.wal open <dir>)"
            lsn = self.db.checkpoint()
            return f"checkpoint written (folded through lsn {lsn})"
        if cmd == ".snapshot":
            self._snapshot = self.db.snapshot()
            return "snapshot taken"
        if cmd == ".restore":
            if self._snapshot is None:
                return "error: no snapshot to restore"
            self.db.restore(self._snapshot)
            return "restored"
        if cmd == ".quit":
            raise SystemExit(0)
        return f"error: unknown command {cmd!r} (try .help)"

    # -- resilience ------------------------------------------------------
    def _budget_cmd(self, rest: str) -> str:
        if rest == "off":
            self._budget = None
            return "budget cleared"
        if not rest:
            if self._budget is None:
                return "no budget set (queries run unbounded)"
            return f"budget per query: {self._budget.describe()}"
        kw: dict[str, float] = {}
        for part in rest.split():
            key, _, value = part.partition("=")
            try:
                if key == "steps":
                    kw["max_steps"] = int(value)
                elif key == "time":
                    kw["deadline"] = float(value)
                elif key == "objects":
                    kw["max_new_objects"] = int(value)
                else:
                    return (
                        f"error: unknown budget setting {key!r} "
                        "(use steps= time= objects=)"
                    )
            except ValueError:
                return f"error: bad value in {part!r}"
        try:
            self._budget = Budget(**kw)
        except ValueError as exc:
            return f"error: {exc}"
        return f"budget per query: {self._budget.describe()}"

    def _workers_cmd(self, rest: str) -> str:
        if not rest:
            how = "sequential" if self._workers == 1 else "scheduled"
            return (
                f"workers: {self._workers} ({how}; ';;'-separated lines "
                "run as one batch)"
            )
        if rest == "off":
            self._workers = 1
            return "workers: 1 (sequential)"
        try:
            n = int(rest)
        except ValueError:
            return f"error: .workers takes a count or 'off', not {rest!r}"
        if n < 1:
            return "error: workers must be >= 1"
        self._workers = n
        return f"workers: {n}"

    def _faults_cmd(self, rest: str) -> str:
        if rest == "off":
            fault_injection.uninstall()
            return "fault injection off"
        if rest.startswith("inject"):
            args = rest[len("inject"):].split()
            fields: dict[str, object] = {}
            seed = None
            try:
                for part in args:
                    key, _, value = part.partition("=")
                    if key == "site":
                        fields["site"] = value
                    elif key == "at":
                        fields["at"] = int(value)
                    elif key == "every":
                        fields["every"] = int(value)
                    elif key == "p":
                        fields["probability"] = float(value)
                    elif key == "times":
                        fields["times"] = int(value)
                    elif key == "delay":
                        fields["delay"] = float(value)
                    elif key == "kind":
                        fields["kind"] = value
                    elif key == "seed":
                        seed = int(value)
                    else:
                        return f"error: unknown fault setting {key!r}"
            except ValueError:
                return f"error: bad value in {rest!r}"
            if "site" not in fields:
                return "error: .faults inject needs site=<name>"
            rule = FaultRule(**fields)  # may raise ReproError -> handle()
            plan = fault_injection.active()
            if plan is None or seed is not None:
                plan = FaultPlan(seed=seed or 0)
                fault_injection.install(plan)
            plan.add(rule)
            return f"injecting: {rule.describe()}"
        if rest:
            return f"error: unknown .faults subcommand {rest!r}"
        plan = fault_injection.active()
        if plan is None:
            return "fault injection off"
        return plan.describe()

    def _wal_cmd(self, rest: str) -> str:
        if rest == "off":
            if self.db.wal is None:
                return "error: no write-ahead log attached"
            directory = self.db.wal_dir
            self.db.close()
            return f"detached from {directory} (the files stay recoverable)"
        if rest.startswith("open"):
            if self._txn is not None and self._txn.active:
                return "error: commit or roll back the open transaction first"
            directory = rest[len("open"):].strip()
            if not directory:
                return "error: .wal open needs a directory"
            if self.db.wal is not None:
                return (
                    f"error: already journalling into {self.db.wal_dir} "
                    "(.wal off first)"
                )
            import os as _os

            from repro.db import recovery as _recovery

            if _os.path.exists(_recovery.checkpoint_path(directory)):
                result = _recovery.recover(directory)
                self.db = result.db
                return result.summary()
            self.db.attach_wal(directory)
            return (
                f"journalling into {directory} (checkpoint written; every "
                "commit is now durable)"
            )
        if rest:
            return f"error: unknown .wal subcommand {rest!r}"
        if self.db.wal is None:
            return "durability off (.wal open <dir> to start journalling)"
        wal = self.db.wal
        return (
            f"journalling into {self.db.wal_dir}: last lsn {wal.last_lsn}, "
            f"log {wal.size()} byte(s), "
            f"{'fsync per commit' if wal.sync else 'no fsync (flush only)'}"
        )

    def _replicas_cmd(self, rest: str) -> str:
        rset = self.db.replicas
        if rest == "off":
            if rset is None:
                return "error: no replicas attached"
            self.db.detach_replicas()
            return "replicas detached"
        if rest == "poll":
            if rset is None:
                return "error: no replicas attached (.replicas N)"
            applied = rset.poll()
            return f"shipped and applied {applied} record(s)"
        if rest:
            try:
                n = int(rest)
            except ValueError:
                return (
                    f"error: .replicas takes a count, 'poll' or 'off', "
                    f"not {rest!r}"
                )
            if rset is not None:
                return (
                    f"error: {len(rset)} replica(s) already attached "
                    "(.replicas off first)"
                )
            rset = self.db.replicate(n)  # may raise ReproError -> handle()
            return (
                f"{len(rset)} replica(s) attached; effect-proven reads "
                "now route to the freshest covering replica"
            )
        if rset is None:
            return "replication off (.replicas N to attach; needs .wal)"
        snap = rset.snapshot()
        lines = [
            f"{len(rset)} replica(s): routed={snap['routed']} "
            f"pinned={snap['pinned']} degraded={snap['degraded']}"
        ]
        for r in snap["replicas"]:
            marks = ", ".join(
                f"{c}@{l}" for c, l in sorted(r["marks"].items())
            )
            lines.append(
                f"  {r['name']:<12} {r['state']:<12} "
                f"lsn={r['applied_lsn']} lag={r['lag']} "
                f"star={r['star_mark']} served={r['served']} "
                f"resyncs={r['resyncs']}"
                + (f" [{marks}]" if marks else "")
                + (
                    f" — {r['quarantine_reason']}"
                    if r["quarantine_reason"]
                    else ""
                )
            )
        return "\n".join(lines)

    def _promote_cmd(self, rest: str) -> str:
        rset = self.db.replicas
        if rset is None:
            return "error: no replicas attached (.replicas N)"
        if not rest:
            names = ", ".join(r.name for r in rset)
            return f"error: .promote needs a replica name ({names})"
        from repro.replication import promote as _promote

        replica = rset.get(rest)  # may raise ReproError -> handle()
        old_dir = self.db.wal_dir
        self.db = _promote(replica)
        survivors = (
            ", ".join(r.name for r in self.db.replicas)
            if self.db.replicas is not None
            else "none"
        )
        return (
            f"promoted {rest} to primary of {old_dir} (old primary "
            f"fenced; surviving replicas: {survivors})"
        )

    def _shard_cmd(self, rest: str) -> str:
        if not rest:
            return "error: .shard needs a class name (.shard Person k=8 by=region)"
        parts = rest.split()
        cname = parts[0]
        k, by = 8, None
        for tok in parts[1:]:
            key, _, value = tok.partition("=")
            if key == "k" and value:
                try:
                    k = int(value)
                except ValueError:
                    return f"error: k must be an integer, got {value!r}"
            elif key == "by" and value:
                by = value
            else:
                return f"error: unknown .shard option {tok!r} (k=N, by=attr)"
        spec = self.db.shard(cname, k=k, by=by)  # ReproError -> handle()
        return f"sharded: {spec.describe()}"

    def _shards_cmd(self) -> str:
        sh = self.db.health().get("sharding")
        if not sh:
            return "no sharded extents (.shard <Class> [k=N] [by=attr])"
        lines = ["sharding"]
        for name, e in sorted(sh["extents"].items()):
            key = f"by {e['by']}" if e["by"] else "by oid"
            if e["shard_sizes"] is None:
                sizes = "partition not built yet"
            else:
                sizes = (
                    f"sizes={e['shard_sizes']} (skew {e['size_skew']})"
                )
            lines.append(
                f"  {name} ({e['class']}) k={e['k']} {key}: "
                f"{e.get('rows', 0)} rows, {sizes}, version skew "
                f"{e['version_skew']}"
            )
        pool = sh.get("pool") or {}
        util = pool.get("utilization")
        lines.append(
            f"  installs={sh['installs']} rebuilds={sh['rebuilds']} "
            f"epoch={sh['epoch']}"
        )
        lines.append(
            f"  pool workers={pool.get('workers', 0)} "
            f"tasks={pool.get('tasks', 0)} "
            f"batches={pool.get('batches', 0)}"
            + (f" utilization={util:.0%}" if util is not None else "")
        )
        return "\n".join(lines)

    def _transaction_cmd(self, rest: str) -> str:
        if rest == "begin":
            if self._txn is not None and self._txn.active:
                return "error: a transaction is already open"
            self._txn = self.db.transaction().__enter__()
            return "transaction open (statements commit together or not at all)"
        if rest == "commit":
            if self._txn is None or not self._txn.active:
                return "error: no open transaction"
            self._txn.commit()
            self._txn = None
            return "transaction committed"
        if rest == "rollback":
            if self._txn is None or not self._txn.active:
                return "error: no open transaction"
            self._txn.rollback()
            self._txn = None
            return "transaction rolled back"
        if rest:
            return f"error: unknown .transaction subcommand {rest!r}"
        if self._txn is not None and self._txn.active:
            eff = self._txn.effect
            eff_str = "∅" if eff.is_empty() else str(eff)
            return f"transaction open, accumulated effect {eff_str}"
        return "no open transaction"

    # -- observability ---------------------------------------------------
    def _stats(self, rest: str) -> str:
        if rest == "on":
            if self._obs_locked:
                return "error: instrumentation is locked off (--no-obs)"
            obs.enable()
            return "instrumentation on (see .stats / .profile / .stats export)"
        if rest == "off":
            obs.disable()
            return "instrumentation off (collected data kept; .stats reset drops it)"
        if rest == "reset":
            obs.reset()
            return "metrics, spans and events reset"
        if rest.startswith("export"):
            path = rest[len("export"):].strip()
            if not path:
                return "error: .stats export needs a file path"
            try:
                n = obs.export.export_jsonl(path)
            except OSError as exc:
                return f"error: cannot write {path}: {exc}"
            return f"wrote {n} record(s) to {path}"
        if rest:
            return f"error: unknown .stats subcommand {rest!r}"
        state = "on" if obs.enabled() else "off"
        return f"instrumentation: {state}\n{obs.export.summary()}"

    def _profile(self, src: str) -> str:
        if not src:
            return "error: .profile needs a query"
        if self._obs_locked:
            return "error: instrumentation is locked off (--no-obs)"
        prev = obs.enabled()
        if not prev:
            obs.enable()
        mark = len(obs.TRACER.finished)
        try:
            with obs.capture() as events:
                # the rule histogram below only exists on the reduction
                # machine, so profile that engine explicitly
                result = self.db.run(src, engine="reduction")
        finally:
            if not prev:
                obs.disable()
        lines = [f"value : {result.value}", f"steps : {result.steps}"]
        roots = obs.TRACER.finished[mark:]
        if roots:
            lines.append("phases (ms):")

            def walk(sp, indent: int) -> None:
                lines.append(
                    f"  {'  ' * indent}{sp.name:<{18 - 2 * indent}}"
                    f"{sp.duration * 1e3:>10.3f}"
                )
                for child in sp.children:
                    walk(child, indent + 1)

            for root in roots:
                walk(root, 0)
        hist: dict[str, int] = {}
        for ev in events:
            hist[ev.rule] = hist.get(ev.rule, 0) + 1
        if hist:
            lines.append("rules fired:")
            for rule, n in sorted(hist.items(), key=lambda kv: (-kv[1], kv[0])):
                lines.append(f"  {rule:<18}{n:>6}")
        return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``python -m repro``."""
    argv = sys.argv[1:] if argv is None else argv
    obs_locked = "--no-obs" in argv
    if obs_locked:
        argv = [a for a in argv if a != "--no-obs"]
        obs.disable()
    if argv:
        with open(argv[0], encoding="utf-8") as f:
            db = Database.from_odl(f.read())
        shell = Shell(db, obs_locked=obs_locked)
    else:
        shell = Shell(obs_locked=obs_locked)
    print(_BANNER)
    while True:
        try:
            line = input("ioql> ")
        except (EOFError, KeyboardInterrupt):
            print()
            return 0
        try:
            out = shell.handle(line)
        except SystemExit:
            return 0
        if out:
            print(out)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
