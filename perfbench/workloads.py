"""Stores, query generators and the four workloads of the end-to-end benchmark.

Every input comes from the seed.  The generator keeps its own copy of the
data (:class:`Model`) and computes each query's expected answer from it,
so every operation's answer is checked without trusting the program under
test.  Stores are built directly through the public ``ExtentEnv`` /
``ObjectEnv`` / ``ObjectRecord`` constructors with the oid scheme of
``OidSupply`` (``@Class_n``, one global counter): ``Database.insert`` costs
O(|OE|) per object, which would make set-up quadratic.
"""

from __future__ import annotations

import itertools
import random
import shutil
import time
from dataclasses import dataclass

from repro.db.database import Database
from repro.db.store import ExtentEnv, ObjectEnv, ObjectRecord
from repro.lang.ast import OidRef
from repro.lang.values import from_value, to_value

ODL = """
class Person extends Object (extent Persons) {
    attribute string name;
    attribute int age;
}
class Manager extends Person (extent Managers) {
    attribute int level;
    attribute Person boss;
}
class Employee extends Person (extent Employees) {
    attribute int EmpID;
    attribute int GrossSalary;
    attribute Manager UniqueManager;
}
"""

#: Employees per store.  Managers are n/100, in a fan-out-2 tree under one
#: CEO Person.  At 15k, about 30% of commits pay a full garbage collection,
#: which keeps the commit median and p90 clear of the gap between commits
#: that do and commits that do not (at 20k it is 41%, and the median sits
#: next to the gap).  Smoke sizes are ~1% of full, except that the sharded
#: store keeps 600 Employees so its scans still pass the pool's 512-row gate.
SIZES = {
    "full": {
        "read_hot": 20_000,
        "read_adhoc": 20_000,
        "write_durable": 15_000,
        "mixed_replicated": 3_000,
    },
    "smoke": {
        "read_hot": 200,
        "read_adhoc": 200,
        "write_durable": 200,
        "mixed_replicated": 600,
    },
}

#: Zipf(1.1) weights of the eight hot texts, by rank.
ZIPF = [r**-1.1 for r in range(1, 9)]

#: One shuffled block of ad-hoc query kinds: the shares are exact per block.
ADHOC_BLOCK = (
    ["point"] * 10 + ["manager"] * 4 + ["filter"] * 3 + ["traverse"] * 2
    + ["join"]
)

#: The ad-hoc kinds of ``mixed_replicated``: all but the range join.  A join
#: costs four typical batches, and 1.5 ad-hoc reads per batch put joins in
#: 7.5% of batches, right at the p90, which then jumped from run to run by
#: how many joins a run fitted in.  ``read_adhoc`` measures the join.
MIXED_ADHOC_BLOCK = [kind for kind in ADHOC_BLOCK if kind != "join"]

#: (attribute, Employee field) pairs a manager lookup projects; None = EmpID.
PROJECTIONS = [("EmpID", None), ("name", "name"), ("age", "age"),
               ("GrossSalary", "salary")]

#: Commits whose log bytes define ``wal_bytes_per_commit`` (a fixed count,
#: so the figure does not depend on how many commits a run fits in).
WAL_SAMPLE_COMMITS = 100

#: Commits made after the post-run checkpoint; recovery replays them.
RECOVERY_TAIL = 40


# ---------------------------------------------------------------------------
# The generator's copy of the data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Manager:
    oid: str
    name: str
    age: int
    level: int
    boss: str


@dataclass(frozen=True)
class Employee:
    name: str
    age: int
    salary: int
    manager: str


class Model:
    """What the store holds, as the generator made it: the oracle."""

    def __init__(self) -> None:
        self.managers: list[Manager] = []
        self.boss: dict[str, str] = {}
        self.mgr: dict[str, Manager] = {}
        self.emps: dict[int, Employee] = {}
        self.ids: list[int] = []
        self.team: dict[str, list[int]] = {}
        self.persons = 0
        self.next_id = 0
        self.inserts = 0

    @property
    def depth(self) -> int:
        return self.managers[-1].level

    def add_manager(self, m: Manager) -> None:
        self.managers.append(m)
        self.mgr[m.oid] = m
        self.boss[m.oid] = m.boss
        self.team[m.oid] = []

    def add_employee(self, emp_id: int, e: Employee) -> None:
        self.emps[emp_id] = e
        self.ids.append(emp_id)
        self.team[e.manager].append(emp_id)

    def reach(self, starts, depth: int | None) -> frozenset:
        """Oids reachable from ``starts`` over ``boss`` in ≤ depth hops."""
        seen = set(starts)
        frontier = list(seen)
        hops = 0
        while frontier and (depth is None or hops < depth):
            nxt = []
            for oid in frontier:
                up = self.boss.get(oid)
                if up is not None and up not in seen:
                    seen.add(up)
                    nxt.append(up)
            frontier = nxt
            hops += 1
        return frozenset(seen)


def make_model(n: int, seed: int) -> tuple[Model, list[tuple[str, dict]]]:
    """The model and the store's rows, in oid order."""
    rng = random.Random(f"{seed}-data")
    m = Model()
    rows: list[tuple[str, dict]] = [("Person", {"name": "ceo", "age": 60})]
    m.persons = 1
    ceo = "@Person_0"
    for i in range(max(2, n // 100)):
        boss = ceo if i == 0 else m.managers[(i - 1) // 2].oid
        mgr = Manager(
            f"@Manager_{len(rows)}", f"m{i}", 30 + rng.randrange(30),
            (i + 1).bit_length() - 1, boss,
        )
        rows.append((
            "Manager",
            {"name": mgr.name, "age": mgr.age, "level": mgr.level,
             "boss": OidRef(boss)},
        ))
        m.add_manager(mgr)
    for i in range(n):
        e = Employee(
            f"e{i}", 18 + rng.randrange(50), 2000 + rng.randrange(8000),
            m.managers[rng.randrange(len(m.managers))].oid,
        )
        rows.append((
            "Employee",
            {"name": e.name, "age": e.age, "EmpID": i,
             "GrossSalary": e.salary, "UniqueManager": OidRef(e.manager)},
        ))
        m.add_employee(i, e)
    m.next_id = n
    return m, rows


def build_store(rows: list[tuple[str, dict]]) -> Database:
    """A database holding ``rows``, installed without ``Database.insert``."""
    db = Database.from_odl(ODL)
    schema = db.schema
    records: dict[str, ObjectRecord] = {}
    members: dict[str, set[str]] = {e: set() for e in schema.extents}
    for k, (cname, attrs) in enumerate(rows):
        oid = f"@{cname}_{k}"
        records[oid] = ObjectRecord(
            cname, tuple((a, to_value(attrs[a])) for a, _ in schema.atypes(cname))
        )
        members[schema.class_extent(cname)].add(oid)
    db.ee = ExtentEnv(
        {e: (schema.extent_class(e), frozenset(s)) for e, s in members.items()}
    )
    db.oe = ObjectEnv(records)
    db.supply.advance_to(len(rows))
    return db


def build_store_by_insert(rows: list[tuple[str, dict]]) -> Database:
    """The same store through the public ``Database.insert`` (slow)."""
    db = Database.from_odl(ODL)
    for cname, attrs in rows:
        db.insert(cname, **attrs)
    return db


# ---------------------------------------------------------------------------
# Operations and their expected answers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Op:
    """One query text and its answer, as ``from_value`` lowers it.

    For a ``new`` the answer is the created class: any fresh oid of that
    class is right.
    """

    text: str
    expect: object
    writes: bool = False

    def check(self, value) -> bool:
        got = from_value(value)
        if self.writes:
            return isinstance(got, str) and got.startswith(f"@{self.expect}_")
        return got == self.expect


def point(m: Model, rng: random.Random) -> Op:
    i = rng.choice(m.ids)
    return Op(
        f"{{ e.GrossSalary | e <- Employees, e.EmpID = {i} }}",
        frozenset({m.emps[i].salary}),
    )


def manager_lookup(m: Model, rng: random.Random) -> Op:
    boss = rng.choice(m.managers).oid
    attr, field = rng.choice(PROJECTIONS)
    return Op(
        f"{{ e.{attr} | e <- Employees, e.UniqueManager == {boss} }}",
        frozenset(getattr(m.emps[i], field) if field else i
                  for i in m.team[boss]),
    )


def manager_filter(m: Model, rng: random.Random) -> Op:
    level = rng.randrange(m.depth + 1)
    age = 25 + rng.randrange(75)
    return Op(
        f"{{ m.name | m <- Managers, m.level >= {level}, m.age < {age} }}",
        frozenset(
            x.name for x in m.managers if x.level >= level and x.age < age
        ),
    )


def traverse(m: Model, rng: random.Random) -> Op:
    """depth 1–8 takes the unrolled route, 9–12 the chase, none the index."""
    age = 30 + rng.randrange(30)
    depth = rng.choice([*range(1, 13), None])
    bound = "" if depth is None else f" depth <= {depth}"
    return Op(
        f"traverse(m in {{ x | x <- Managers, x.age = {age} }} over boss{bound})",
        m.reach([x.oid for x in m.managers if x.age == age], depth),
    )


def range_join(m: Model, rng: random.Random) -> Op:
    age = 35 + rng.randrange(25)
    salary = 9800 + rng.randrange(190)
    return Op(
        f"{{ e.EmpID | e <- Employees, m <- Managers, e.UniqueManager == m, "
        f"m.age < {age}, e.GrossSalary > {salary} }}",
        frozenset(
            i for i, e in m.emps.items()
            if e.salary > salary and m.mgr[e.manager].age < age
        ),
    )


ADHOC = {
    "point": point,
    "manager": manager_lookup,
    "filter": manager_filter,
    "traverse": traverse,
    "join": range_join,
}


def adhoc_ops(m: Model, rng: random.Random, kinds=ADHOC_BLOCK):
    """Ad-hoc reads in the exact shares of ``kinds``, every text new.

    A kind's texts can run out on a smoke-scale store (two Managers);
    then a text repeats rather than the run stopping.
    """
    seen: set[str] = set()
    while True:
        block = list(kinds)
        rng.shuffle(block)
        for kind in block:
            for _ in range(100):
                op = ADHOC[kind](m, rng)
                if op.text not in seen:
                    break
            seen.add(op.text)
            yield op


def hot_queries(m: Model, rng: random.Random) -> list[tuple[str, object]]:
    """The eight hot texts by Zipf rank, each with its answer function."""
    a, b = rng.choice(m.ids), rng.choice(m.ids)
    s_filter = 9970 + rng.randrange(20)
    s_join = 9900 + rng.randrange(50)
    level = 1 + rng.randrange(min(3, m.depth))
    s_exists = 9990 + rng.randrange(9)
    age = 60 + rng.randrange(5)
    start = rng.randrange(m.depth + 1)
    return [
        (f"{{ e.name | e <- Employees, e.GrossSalary > {s_filter} }}",
         lambda m: frozenset(
             e.name for e in m.emps.values() if e.salary > s_filter)),
        (f"{{ e.EmpID | e <- Employees, m <- Managers, e.UniqueManager == m, "
         f"m.level = {level}, e.GrossSalary > {s_join} }}",
         lambda m: frozenset(
             i for i, e in m.emps.items()
             if e.salary > s_join and m.mgr[e.manager].level == level)),
        (f"{{ e.GrossSalary | e <- Employees, e.EmpID = {a} }}",
         lambda m: frozenset({m.emps[a].salary})),
        (f"exists e in Employees : e.GrossSalary > {s_exists}",
         lambda m: any(e.salary > s_exists for e in m.emps.values())),
        (f"select distinct e.age from e in Employees where e.age > {age}",
         lambda m: frozenset(e.age for e in m.emps.values() if e.age > age)),
        (f"traverse(m in {{ x | x <- Managers, x.level = {start} }} "
         "over boss depth <= 3)",
         lambda m: m.reach(
             [x.oid for x in m.managers if x.level == start], 3)),
        (f"{{ e.GrossSalary | e <- Employees, e.EmpID = {b} }}",
         lambda m: frozenset({m.emps[b].salary})),
        ("size(Employees)", lambda m: len(m.emps)),
    ]


def hot_ops(m: Model, rng: random.Random):
    """Each hot text once (the warm-up), then Zipf(1.1) draws forever."""
    hot = [Op(text, answer(m)) for text, answer in hot_queries(m, rng)]
    yield from hot
    while True:
        yield rng.choices(hot, ZIPF)[0]


def insert(m: Model, rng: random.Random) -> Op:
    """A ``new``: three Employees (oid-literal manager), then one Person."""
    k = m.inserts
    m.inserts += 1
    age = 18 + rng.randrange(50)
    if k % 4 == 3:
        m.persons += 1
        return Op(f'new Person(name: "p{k}", age: {age})', "Person", True)
    i = m.next_id
    m.next_id += 1
    e = Employee(f"w{k}", age, 2000 + rng.randrange(8000),
                 rng.choice(m.managers).oid)
    m.add_employee(i, e)
    return Op(
        f'new Employee(name: "{e.name}", age: {age}, EmpID: {i}, '
        f"GrossSalary: {e.salary}, UniqueManager: {e.manager})",
        "Employee",
        True,
    )


def inserts(m: Model, rng: random.Random):
    while True:
        yield insert(m, rng)


def mixed_batches(m: Model, rng: random.Random):
    """Batches of 8: 2 inserts, 3 point reads, and 3 hot/ad-hoc reads.

    Hot and ad-hoc alternate 2+1 and 1+2, so each is ~19% over two
    batches.  Answers are computed in list order, which is the order a
    sequential run would see, because ``run_many`` must answer as if serial.
    """
    hot = hot_queries(m, rng)
    adhoc = adhoc_ops(m, rng, MIXED_ADHOC_BLOCK)
    for b in itertools.count():
        kinds = (["insert"] * 2 + ["point"] * 3 + ["hot"] * (2 - b % 2)
                 + ["adhoc"] * (1 + b % 2))
        rng.shuffle(kinds)
        batch = []
        for kind in kinds:
            if kind == "insert":
                batch.append(insert(m, rng))
            elif kind == "point":
                batch.append(point(m, rng))
            elif kind == "hot":
                text, answer = rng.choices(hot, ZIPF)[0]
                batch.append(Op(text, answer(m)))
            else:
                batch.append(next(adhoc))
        yield batch


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """One workload: ``setup`` builds and warms it, ``step`` runs one unit
    of the closed loop (a call, a commit or a batch), ``finish`` checks the
    end state after the timed phase, ``close`` releases files.

    ``operations(model, rng)`` yields the units; set-up takes its warm-up
    from the front of the same stream the timed loop continues.
    """

    name = ""
    durable = False

    def __init__(self, seed: int, scale: str, workdir: str):
        self.seed = seed
        self.n = SIZES[scale][self.name]
        self.workdir = workdir
        self.db: Database | None = None
        self.errors: list[str] = []
        self.commits = 0
        self.wal_sample: tuple[int, int] | None = None

    def _build(self) -> None:
        self.model, rows = make_model(self.n, self.seed)
        self.db = build_store(rows)
        self.stream = self.operations(
            self.model, random.Random(f"{self.seed}-ops")
        )

    def _attach_wal(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.db.attach_wal(self.workdir, sync=False)

    def _warm(self, units: int) -> int:
        """Run the stream's first units untimed; restart the log counters."""
        failed = sum(self.step(next(self.stream))[2] for _ in range(units))
        self.commits, self.wal_sample = 0, None
        if self.durable:
            self.wal_start = self.db.wal.size()
        return failed

    def _note_commits(self, n: int) -> None:
        """Sample the log size once ``WAL_SAMPLE_COMMITS`` commits are in."""
        self.commits += n
        if self.wal_sample is None and self.commits >= WAL_SAMPLE_COMMITS:
            self.wal_sample = (self.commits, self.db.wal.size() - self.wal_start)

    def wal_bytes_per_commit(self) -> float:
        if self.wal_sample is None:
            self.wal_sample = (self.commits, self.db.wal.size() - self.wal_start)
        commits, size = self.wal_sample
        return size / commits if commits else 0.0

    def _fail(self, message: str) -> None:
        if len(self.errors) < 5:
            self.errors.append(message)

    def _checked(self, op: Op, value) -> bool:
        if op.check(value):
            return True
        self._fail(f"{op.text}: wrong answer {from_value(value)!r}")
        return False

    def step(self, op: Op) -> tuple[float, int, int]:
        """(seconds inside the API call, operations, failed operations)."""
        t0 = time.perf_counter()
        try:
            value = self.db.run(op.text).value
        except Exception as exc:  # counted as a failed operation
            dt = time.perf_counter() - t0
            self._fail(f"{op.text}: {type(exc).__name__}: {exc}")
            return dt, 1, 1
        dt = time.perf_counter() - t0
        if op.writes:
            self._note_commits(1)
        return dt, 1, 0 if self._checked(op, value) else 1

    def finish(self) -> dict:
        return {}

    def close(self) -> None:
        if self.db is not None:
            self.db.close()
        shutil.rmtree(self.workdir, ignore_errors=True)


class ReadHot(Workload):
    name = "read_hot"
    operations = staticmethod(hot_ops)

    def setup(self) -> int:
        self._build()
        return self._warm(len(ZIPF))


class ReadAdhoc(Workload):
    name = "read_adhoc"
    operations = staticmethod(adhoc_ops)

    def setup(self) -> int:
        self._build()
        # warms the interval index over every manager; the stream never
        # asks for this text, and its first block warms the statistics
        # catalog, the attribute indexes and lazy imports
        everyone = [x.oid for x in self.model.managers]
        warm = Op("traverse(m in Managers over boss)",
                  self.model.reach(everyone, None))
        return self.step(warm)[2] + self._warm(len(ADHOC_BLOCK))


class WriteDurable(Workload):
    name = "write_durable"
    durable = True
    operations = staticmethod(inserts)

    def setup(self) -> int:
        self._build()
        self._attach_wal()
        return self._warm(4)

    def finish(self) -> dict:
        """Checkpoint, commit a fixed tail, close: recovery replays the tail."""
        out = {"wal_bytes_per_commit": self.wal_bytes_per_commit()}
        self.db.checkpoint()
        for _ in range(RECOVERY_TAIL):
            self.step(next(self.stream))
        self.db.close()
        return out

    def recover(self) -> float:
        """Time ``Database.open`` and compare its state with the primary's."""
        t0 = time.perf_counter()
        back = Database.open(self.workdir, sync=False)
        elapsed = time.perf_counter() - t0
        try:
            if back.ee != self.db.ee or back.oe != self.db.oe:
                self._fail("recovered state differs from the primary's")
        finally:
            back.close()
        return elapsed


class MixedReplicated(Workload):
    name = "mixed_replicated"
    durable = True
    operations = staticmethod(mixed_batches)

    def setup(self) -> int:
        self._build()
        self.db.shard("Employee", k=8, by="EmpID")
        self._attach_wal()
        self.replicas = self.db.replicate(1, auto_poll=True)
        # scheduler totals over the timed batches: conflict edges, summed
        # per-query busy time, batch wall time, and reads
        self.edges = self.busy = self.wall = self.reads = 0
        failed = self._warm(2)
        self.edges = self.busy = self.wall = self.reads = 0
        return failed

    def step(self, batch: list[Op]) -> tuple[float, int, int]:
        t0 = time.perf_counter()
        try:
            result = self.db.run_many([op.text for op in batch], workers=2)
        except Exception as exc:  # the whole batch counts as failed
            self._fail(f"run_many: {type(exc).__name__}: {exc}")
            return time.perf_counter() - t0, len(batch), len(batch)
        dt = time.perf_counter() - t0
        self.edges += result.conflict_edges
        self.busy += result.busy_time
        self.wall += result.wall_time
        self.reads += sum(not op.writes for op in batch)
        failed = 0
        for op, out in zip(batch, result.outcomes):
            if not out.ok:
                self._fail(f"{op.text}: {type(out.error).__name__}: {out.error}")
                failed += 1
            elif not self._checked(op, out.value):
                failed += 1
        self._note_commits(sum(op.writes for op in batch))
        return dt, len(batch), failed

    def finish(self) -> dict:
        out = {"wal_bytes_per_commit": self.wal_bytes_per_commit()}
        self.replicas.poll()
        if not self.replicas.audit_all():
            self._fail("replica audit found a divergent replica")
        want = {
            "Employees": len(self.model.emps),
            "Persons": self.model.persons,
            "Managers": len(self.model.managers),
        }
        have = {e: len(self.db.extent(e)) for e in want}
        if have != want:
            self._fail(f"extent sizes {have} != initial plus inserts {want}")
        return out


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (ReadHot, ReadAdhoc, WriteDurable, MixedReplicated)
}


# ---------------------------------------------------------------------------
# Correctness checks on a small store, run before every measurement
# ---------------------------------------------------------------------------


def small_store_checks(
    name: str, seed: int, n: int = 100, ops: int = 32
) -> list[str]:
    """Failures of the small-store checks for one workload.

    * the store built directly equals the one ``Database.insert`` builds;
    * the workload's first ``ops`` texts give the same answers, and leave
      the same state, under ``engine="auto"`` and ``engine="bigstep"``,
      and those answers are the model's.
    """
    problems = []
    _, rows = make_model(n, seed)
    direct, inserted = build_store(rows), build_store_by_insert(rows)
    if direct.ee != inserted.ee or direct.oe != inserted.oe:
        problems.append("directly built store differs from the inserted one")
    dbs = {e: build_store(rows) for e in ("auto", "bigstep")}
    for op in _first_ops(name, seed, n, ops):
        try:
            values = {e: db.run(op.text, engine=e).value for e, db in dbs.items()}
        except Exception as exc:
            problems.append(f"{op.text}: {type(exc).__name__}: {exc}")
            continue
        if from_value(values["auto"]) != from_value(values["bigstep"]):
            problems.append(f"auto and bigstep disagree on {op.text}")
        elif not op.check(values["auto"]):
            problems.append(f"wrong answer to {op.text}")
    auto, big = dbs["auto"], dbs["bigstep"]
    if auto.ee != big.ee or auto.oe != big.oe:
        problems.append("auto and bigstep leave different states")
    return problems


def _first_ops(name: str, seed: int, n: int, count: int) -> list[Op]:
    """The first ``count`` operations the workload would run, in order."""
    m, _ = make_model(n, seed)
    units = WORKLOADS[name].operations(m, random.Random(f"{seed}-ops"))
    ops = itertools.chain.from_iterable(
        u if isinstance(u, list) else [u] for u in units
    )
    return list(itertools.islice(ops, count))

