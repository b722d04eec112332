"""Shared workload builders for the benchmark harness.

The paper is a formal-semantics paper with no measured tables; the
artifacts to regenerate are its four figures (the formal systems), its
worked examples, and Theorems 1–8.  Every ``bench_*.py`` file in this
directory corresponds to one row of the experiment index in DESIGN.md
and draws its inputs from here, so the workloads are identical across
benchmarks and across runs (all generation is seeded).

Workloads:

* :func:`hr` — the §2 Employee/Manager database at a configurable
  scale;
* :func:`jack_jill` — the §1 P/F database (2 P objects, no F);
* :func:`sigma4` — the §4 Person/Employee database (Jack/Utah,
  Jill/NYC);
* :func:`random_suite` — seeded random (schema, store, machine, typed
  query list) tuples via :mod:`repro.metatheory.generators`.
"""

from __future__ import annotations

import json
import os
import random
import time
from contextlib import contextmanager

from repro import obs
from repro.db.database import Database
from repro.lang.ast import Query
from repro.metatheory.generators import (
    QueryGenerator,
    make_random_schema,
    make_random_store,
)
from repro.model.types import ClassType, Type
from repro.semantics.machine import Machine
from repro.typing.context import TypeContext

HR_ODL = """
class Person extends Object (extent Persons) {
    attribute string name;
    attribute int age;
    bool is_adult() { return this.age >= 18; }
}
class Manager extends Person (extent Managers) {
    attribute int level;
}
class Employee extends Person (extent Employees) {
    attribute int EmpID;
    attribute int GrossSalary;
    attribute Manager UniqueManager;
    int NetSalary(int TaxRate) { return this.GrossSalary - TaxRate; }
}
"""

JACK_JILL_ODL = """
class P extends Object (extent Ps) {
    attribute string name;
    string loop() { while (true) { } }
}
class F extends Object (extent Fs) {
    attribute string name;
    attribute P pal;
}
"""

SIGMA4_ODL = """
class Person extends Object (extent Persons) {
    attribute string name;
    attribute string address;
}
class Employee extends Person (extent Employees) {
}
"""

JACK_JILL_QUERY = """
{ (if size(Fs) = 0
   then struct(result: "Peter", witness: new F(name: "Peter", pal: p)).result
   else p.name)
  | p <- Ps }
"""

JACK_JILL_LOOP_QUERY = """
{ (if p.name = "Jack"
    then (if size(Fs) = 0 then p.loop() else "Jack")
    else struct(r: p.name, w: new F(name: "Peter", pal: p)).r)
  | p <- Ps }
"""

# Queries the typing/effects/reduction figures are exercised with, over
# the HR schema.  Chosen to cover every rule at least once.
HR_QUERIES = [
    "{ e.name | e <- Employees, e.GrossSalary > 4000 }",
    "{ struct(who: e.name, net: e.NetSalary(500)) | e <- Employees }",
    "{ e.UniqueManager.name | e <- Employees, e.is_adult() }",
    "select distinct p.name from p in Persons where p.age >= 18",
    "{ (Person) e | e <- Employees } union Persons",
    "size(Employees) + size(Managers) * 2",
    "exists e in Employees : e.GrossSalary > 5000",
    "forall e in Employees : e.age > 10",
    "{ struct(m: m.name, team: { e.EmpID | e <- Employees, "
    "e.UniqueManager == m }) | m <- Managers }",
    "if size(Managers) = 0 then {} else { m.level | m <- Managers }",
]


def hr(n_employees: int = 4, n_managers: int = 2) -> Database:
    """The §2 database at a given scale (seeded, deterministic)."""
    db = Database.from_odl(HR_ODL)
    rng = random.Random(11)
    managers = [
        db.insert("Manager", name=f"mgr{i}", age=40 + i, level=i % 4)
        for i in range(n_managers)
    ]
    for i in range(n_employees):
        db.insert(
            "Employee",
            name=f"emp{i}",
            age=20 + (i * 7) % 40,
            EmpID=i,
            GrossSalary=3500 + rng.randrange(2000),
            UniqueManager=managers[i % n_managers],
        )
    return db


def jack_jill(method_fuel: int = 500) -> Database:
    """The §1 database: P objects Jack and Jill, no F objects."""
    db = Database.from_odl(JACK_JILL_ODL, method_fuel=method_fuel)
    db.insert("P", name="Jack")
    db.insert("P", name="Jill")
    return db


def sigma4() -> Database:
    """The §4 database: Person Jack/Utah, Employee Jill/NYC."""
    db = Database.from_odl(SIGMA4_ODL)
    db.insert("Person", name="Jack", address="Utah")
    db.insert("Employee", name="Jill", address="NYC")
    return db


class BenchObs:
    """Per-benchmark observability: wall-times, steps, rule histograms.

    ``measure(name)`` wraps one benchmark in an ``obs`` span and
    records its wall-time; when instrumentation is enabled (set
    ``REPRO_BENCH_OBS=1``) it also diffs the ``rule_fired_total``
    counters, so each record carries the Figure 2/4 rule histogram and
    the step count of everything that ran inside.  ``write()`` dumps
    the collected records as ``BENCH_obs.json`` — the machine-readable
    bench trajectory the ROADMAP's perf work diffs against.

    Wall-time is recorded unconditionally (a ``perf_counter`` pair);
    the machine's own instrumentation stays off unless opted into, so
    default benchmark numbers are unaffected.
    """

    def __init__(self, path: str | None = None):
        self.path = path or os.environ.get(
            "REPRO_BENCH_OBS_PATH", "BENCH_obs.json"
        )
        self.records: dict[str, dict] = {}

    @staticmethod
    def _rule_counts() -> dict[str, float]:
        return {
            dict(labels).get("rule", ""): value
            for labels, value in
            obs.REGISTRY.counter_values("rule_fired_total").items()
        }

    @contextmanager
    def measure(self, name: str):
        before = self._rule_counts() if obs.enabled() else {}
        start = time.perf_counter()
        with obs.span("bench", name=name):
            yield
        elapsed = time.perf_counter() - start
        record: dict = {"wall_time_s": elapsed}
        if obs.enabled():
            after = self._rule_counts()
            rules = {
                rule: int(n - before.get(rule, 0))
                for rule, n in after.items()
                if n - before.get(rule, 0) > 0
            }
            record["rules"] = rules
            record["steps"] = sum(rules.values())
        self.records[name] = record

    def write(self) -> str:
        with open(self.path, "w", encoding="utf-8") as fp:
            json.dump(self.records, fp, indent=2, sort_keys=True)
            fp.write("\n")
        return self.path


def random_suite(
    seed: int,
    n_queries: int,
    *,
    depth: int = 4,
    allow_new: bool = True,
):
    """(schema, ee, oe, machine, ctx, queries): a seeded random workload."""
    rng = random.Random(seed)
    schema = make_random_schema(rng)
    ee, oe, supply = make_random_store(schema, rng)
    machine = Machine(schema, oid_supply=supply)
    gen = QueryGenerator(schema, oe, rng, allow_new=allow_new, max_depth=depth)
    queries: list[Query] = [gen.query(gen.random_type()) for _ in range(n_queries)]
    oid_types: dict[str, Type] = {
        oid: ClassType(rec.cname) for oid, rec in oe.items()
    }
    ctx = TypeContext(schema, base=oid_types)
    return schema, ee, oe, machine, ctx, queries


REF_GRAPH_ODL = """
class Node extends Object (extent nodes) {
    attribute int tag;
}
class Ref extends Node (extent refs) {
    attribute Node next;
}
"""


def ref_graph(edges: dict) -> Database:
    """A Node/Ref database holding an arbitrary reference graph.

    ``edges`` maps node names to their ``next`` target (or None for a
    leaf).  Installed by direct env construction — the public
    ``insert`` cannot create cycles, and the traverse benchmarks need
    both cyclic and acyclic shapes at scale.
    """
    from repro.db.store import ExtentEnv, ObjectEnv, ObjectRecord
    from repro.lang.ast import IntLit, OidRef

    db = Database.from_odl(REF_GRAPH_ODL)
    recs, refs, nodes = {}, set(), set()
    for i, (name, tgt) in enumerate(sorted(edges.items())):
        oid = f"@{name}"
        if tgt is None:
            recs[oid] = ObjectRecord("Node", (("tag", IntLit(i)),))
            nodes.add(oid)
        else:
            recs[oid] = ObjectRecord(
                "Ref", (("tag", IntLit(i)), ("next", OidRef(f"@{tgt}")))
            )
            refs.add(oid)
    db.ee = ExtentEnv(
        {"nodes": ("Node", frozenset(nodes)), "refs": ("Ref", frozenset(refs))}
    )
    db.oe = ObjectEnv(recs)
    return db


def random_tree(n: int, seed: int = 1) -> dict:
    """A seeded random ``n``-node tree (edges point child -> parent)."""
    rng = random.Random(seed)
    edges = {"n00000": None}
    for i in range(1, n):
        edges[f"n{i:05d}"] = f"n{rng.randrange(i):05d}"
    return edges


def ring(n: int) -> dict:
    """One ``n``-node cycle."""
    return {f"c{i:05d}": f"c{(i + 1) % n:05d}" for i in range(n)}
