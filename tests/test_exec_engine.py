"""Engine routing and the effect-invalidated plan/result/index caches.

Theorem 4 gates the routing (only provably read-only queries reach the
compiled engine); Theorem 5 licenses the invalidation (a committed
write's dynamic trace is bounded by its static effect, so entries whose
``R`` set avoids the written classes survive).
"""

import pytest

from repro import obs
from repro.db.database import Database
from repro.db.store import Commit
from repro.effects.algebra import Effect, add, update
from repro.errors import TransientFault
from repro.exec.cache import PlanCache, PlanEntry, schema_fingerprint
from repro.methods.ast import AccessMode
from repro.resilience.budget import Budget
from repro.resilience.faults import FaultPlan, FaultRule, inject

ODL = """
class Person extends Object (extent Persons) {
    attribute string name;
    attribute int age;
}
class Pet extends Object (extent Pets) {
    attribute string species;
}
"""


@pytest.fixture
def db() -> Database:
    d = Database.from_odl(ODL)
    d.insert("Person", name="Ada", age=36)
    d.insert("Person", name="Bob", age=17)
    d.insert("Pet", species="cat")
    return d


class TestRouting:
    def test_read_only_query_routes_to_compiled(self, db):
        result = db.run("{ p.name | p <- Persons }")
        assert result.engine == "compiled"
        assert result.python() == frozenset({"Ada", "Bob"})

    def test_write_query_falls_back_to_reduction(self, db):
        result = db.run('new Person(name: "Cyd", age: 1)')
        assert result.engine == "reduction"
        assert len(db.extent("Persons")) == 3

    def test_decision_explains_write_fallback(self, db):
        dec = db.plan_decision('new Pet(species: "dog")')
        assert dec.engine == "reduction"
        assert "Theorem 4" in dec.reason
        assert "Pet" in dec.reason

    def test_decision_explains_compiled_choice(self, db):
        dec = db.plan_decision("size(Persons)")
        assert dec.engine == "compiled"
        assert "read-only" in dec.reason

    def test_forced_compiled_rejects_writes(self, db):
        with pytest.raises(ValueError, match="Theorem 4"):
            db.run('new Person(name: "x", age: 0)', engine="compiled")

    def test_forced_engines_still_work(self, db):
        want = frozenset({"Ada"})
        for engine in ("compiled", "reduction", "bigstep"):
            r = db.run(
                "{ p.name | p <- Persons, p.age > 18 }", engine=engine
            )
            assert r.python() == want, engine
            assert r.engine == engine

    def test_compiled_preserves_environments(self, db):
        ee, oe = db.ee, db.oe
        db.run("{ p | p <- Persons, p.age > 0 }")
        assert db.ee is ee and db.oe is oe

    def test_dynamic_effect_reported(self, db):
        r = db.run("{ p.name | p <- Persons }")
        assert r.effect.reads() == frozenset({"Person"})
        assert not r.effect.writes()

    def test_lazy_scan_skips_unreached_extent(self, db):
        # the else branch never runs, so Pet is never dynamically read
        r = db.run("if true then 1 else size(Pets)")
        assert r.engine == "compiled"
        assert "Pet" not in r.effect.reads()


class TestResultCache:
    def test_repeat_query_served_from_cache(self, db):
        q = "{ p.name | p <- Persons }"
        first = db.run(q)
        dec = db.plan_decision(q)
        assert db._plan_cache.result(dec.entry, db._state_version)
        # poison the plan: a re-execution would now blow up
        object.__setattr__(dec.entry.plan, "fn", None)
        second = db.run(q)
        assert second.python() == first.python()
        assert second.steps == first.steps

    def test_add_write_evicts_only_touched_entries(self, db):
        # the touched entries are results; both plans stay
        db.run("{ p.name | p <- Persons }")
        db.run("{ x.species | x <- Pets }")
        person = db.plan_decision("{ p.name | p <- Persons }").entry
        pet = db.plan_decision("{ x.species | x <- Pets }").entry
        db.insert("Person", name="Cyd", age=3)
        cache, version = db._plan_cache, db._state_version
        assert len(cache) == 2
        assert cache.result(person, version) is None  # R ∩ A(Person) ≠ ∅
        # disjoint: provably unaffected, promoted across the write
        assert cache.result(pet, version) is not None

    def test_evicted_query_recomputes_fresh_answer(self, db):
        q = "{ p.name | p <- Persons }"
        assert db.run(q).python() == frozenset({"Ada", "Bob"})
        db.insert("Person", name="Cyd", age=3)
        assert db.run(q).python() == frozenset({"Ada", "Bob", "Cyd"})

    def test_query_write_evicts_like_insert(self, db):
        q = "{ p.age | p <- Persons }"
        db.run(q)
        entry = db.plan_decision(q).entry
        db.run('new Person(name: "Eve", age: 9)')  # commits A(Person)
        assert db.plan_decision(q).entry is entry  # the plan stays
        assert db._plan_cache.result(entry, db._state_version) is None
        assert db.run(q).python() == frozenset({36, 17, 9})

    def test_add_write_keeps_plan_and_answers_fresh(self, db):
        q = "{ p.name | p <- Persons }"
        db.run(q)
        misses = db._plan_cache.misses
        db.run('new Person(name: "Eve", age: 9)')  # commits A(Person)
        assert db.run(q).python() == frozenset({"Ada", "Bob", "Eve"})
        assert db._plan_cache.misses == misses  # no re-plan
        assert db.health()["plan_cache"]["evictions"] == 0

    def test_restore_invalidates_cached_results(self, db):
        snap = db.snapshot()
        db.insert("Person", name="Cyd", age=3)
        q = "size(Persons)"
        assert db.run(q).python() == 3
        db.restore(snap)
        assert db.run(q).python() == 2

    def test_rollback_invalidates_cached_results(self, db):
        q = "size(Persons)"
        assert db.run(q).python() == 2
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.run('new Person(name: "T", age: 1)')
                assert db.run(q).python() == 3
                raise RuntimeError("abort")
        assert db.run(q).python() == 2

    def test_define_retires_old_plans(self, db):
        db.define("define adults() as { p | p <- Persons, p.age >= 18 };")
        assert db.run("size(adults())").python() == 1
        old_defs_version = db._defs_version
        db.define("define kids() as { p | p <- Persons, p.age < 18 };")
        assert db._defs_version > old_defs_version
        # the adults() plan compiled under the old DE version is not
        # consulted for the new key; the answer stays right
        assert db.run("size(adults())").python() == 1
        assert db.run("size(kids())").python() == 1


ACCOUNT_ODL = """
class Account extends Object (extent Accounts) {
    attribute int balance;
    int deposit(int amount) effect U(Account) {
        this.balance := this.balance + amount;
        return this.balance;
    }
}
class Owner extends Object (extent Owners) {
    attribute Account acct;
}
"""


class TestPlansArePrograms:
    """No data write evicts a plan; a commit maintains results only."""

    @pytest.fixture
    def bank(self) -> Database:
        d = Database.from_odl(ACCOUNT_ODL, method_mode=AccessMode.EFFECTFUL)
        acct = d.insert("Account", balance=10)
        d.insert("Owner", acct=acct)
        return d

    def test_update_commit_keeps_plans_and_drops_every_result(self, bank):
        texts = ("{ o.acct.balance | o <- Owners }", "size(Accounts)")
        for text in texts:
            bank.run(text)
        entries = [bank.plan_decision(t).entry for t in texts]
        misses = bank._plan_cache.misses
        bank.run("{ a.deposit(5) | a <- Accounts }")  # commits U(Account)
        cache, version = bank._plan_cache, bank._state_version
        assert [bank.plan_decision(t).entry for t in texts] == entries
        assert all(cache.result(e, version) is None for e in entries)
        # {R(Owner)} misses U(Account), yet the answer moved: only
        # dropping every result keeps it fresh
        assert bank.run(texts[0]).python() == frozenset({15})
        assert cache.misses == misses
        assert cache.evictions == 0

    def test_routed_read_is_planned_only_on_the_replica(self, db, tmp_path):
        db.attach_wal(str(tmp_path / "wal"), sync=False)
        rset = db.replicate(1, auto_poll=True)
        db.insert("Person", name="Cyd", age=40)
        q = "{ p.name | p <- Persons, p.age > 18 }"
        cache = db._plan_cache
        lookups = cache.hits + cache.misses
        routed = rset.routed_total
        got = db.run(q)
        assert rset.routed_total == routed + 1
        assert cache.hits + cache.misses == lookups
        assert got.python() == db.run(q, engine="bigstep").python()
        db.close()


class TestNoteWriteUnit:
    """note_write semantics pinned at the unit level (Theorem 5 rules).

    The results table is what a commit maintains; the plan always
    stays.
    """

    def _cache_with(self, reads: frozenset, version: int) -> tuple:
        db = Database.from_odl(ODL)
        cache = PlanCache(schema_fingerprint(db.schema))
        entry = PlanEntry(plan=None, reads=reads)
        q = db.parse("1")
        cache.put(q, 0, entry)
        cache.keep_result(q, 0, entry, (version, q, Effect.of(), 0, None))
        return cache, entry, db

    @staticmethod
    def _commit(db, effect: Effect) -> Commit:
        return Commit(effect, 5, 6, db.schema, db.ee, db.oe)

    def test_add_atom_evicts_intersecting_reader(self):
        cache, entry, db = self._cache_with(frozenset({"Person"}), 5)
        cache.note_write(self._commit(db, Effect.of(add("Person"))))
        assert len(cache) == 1  # the plan survives
        assert cache.result(entry, 5) is None  # the result does not
        assert cache.result(entry, 6) is None
        assert cache.evictions == 0

    def test_add_atom_promotes_disjoint_reader(self):
        cache, entry, db = self._cache_with(frozenset({"Pet"}), 5)
        cache.note_write(self._commit(db, Effect.of(add("Person"))))
        assert len(cache) == 1
        assert cache.result(entry, 6)[0] == 6

    def test_update_atom_drops_all_results(self):
        # attribute reads carry no effect atom, so a disjoint R set does
        # NOT prove independence from a U write (reference chasing)
        cache, entry, db = self._cache_with(frozenset({"Pet"}), 5)
        cache.note_write(self._commit(db, Effect.of(update("Person"))))
        assert len(cache) == 1  # the plan survives
        assert cache.result(entry, 5) is None  # the result does not
        assert cache.result(entry, 6) is None

    def test_read_only_effect_is_a_noop(self):
        cache, entry, db = self._cache_with(frozenset({"Person"}), 5)
        cache.note_write(self._commit(db, Effect.of()))
        assert len(cache) == 1
        assert cache.result(entry, 5)[0] == 5


class TestCapacityEviction:
    """Size-neutral re-puts never evict (regression).

    ``put`` used to evict the oldest entry whenever the cache was at
    capacity, even when the key being written was *already resident* —
    so a hot query that re-putting its own entry (result refresh) at a
    full cache steadily evicted innocent plans and pumped the
    ``evictions`` counter.
    """

    def _entry(self, db: Database) -> PlanEntry:
        return PlanEntry(plan=None, reads=frozenset())

    def test_new_key_at_capacity_evicts_oldest(self):
        db = Database.from_odl(ODL)
        cache = PlanCache(schema_fingerprint(db.schema), max_entries=2)
        cache.put(db.parse("1"), 0, self._entry(db))
        cache.put(db.parse("2"), 0, self._entry(db))
        cache.put(db.parse("3"), 0, self._entry(db))
        assert len(cache) == 2
        assert cache.evictions == 1
        assert cache.get(db.parse("1"), 0) is None  # oldest dropped
        assert cache.get(db.parse("3"), 0) is not None

    def test_re_put_at_capacity_is_eviction_free(self):
        db = Database.from_odl(ODL)
        cache = PlanCache(schema_fingerprint(db.schema), max_entries=2)
        cache.put(db.parse("1"), 0, self._entry(db))
        cache.put(db.parse("2"), 0, self._entry(db))
        for _ in range(10):
            cache.put(db.parse("2"), 0, self._entry(db))
        # the overwrite is size-neutral: nothing leaves, counter flat
        assert len(cache) == 2
        assert cache.evictions == 0
        assert cache.get(db.parse("1"), 0) is not None

    def test_re_put_replaces_the_entry(self):
        db = Database.from_odl(ODL)
        cache = PlanCache(schema_fingerprint(db.schema), max_entries=1)
        first = self._entry(db)
        second = self._entry(db)
        cache.put(db.parse("1"), 0, first)
        cache.put(db.parse("1"), 0, second)
        assert cache.get(db.parse("1"), 0) is second
        assert cache.evictions == 0


class TestIndexMaintenance:
    def test_join_builds_persistent_index(self, db):
        q = (
            "{ struct(a: p.name, b: q.name) "
            "| p <- Persons, q <- Persons, q.age = p.age }"
        )
        db.run(q)
        assert len(db._indexes) == 1

    def test_insert_drops_touched_index(self, db):
        q = (
            "{ struct(a: p.name, b: q.name) "
            "| p <- Persons, q <- Persons, q.age = p.age }"
        )
        db.run(q)
        db.insert("Pet", species="dog")  # A(Pet): Persons index survives
        assert len(db._indexes) == 1
        db.insert("Person", name="Cyd", age=3)  # A(Person): dropped
        assert len(db._indexes) == 0

    def test_stale_index_never_answers(self, db):
        q = (
            "{ struct(a: p.name, b: q.name) "
            "| p <- Persons, q <- Persons, q.age = p.age }"
        )
        n2 = len(db.run(q).python())
        db.insert("Person", name="Ada2", age=36)
        n3 = len(db.run(q).python())
        assert n2 == 2 and n3 == 5  # (Ada,Ada2) pairs + Bob


class TestFaultAndBudgetParity:
    """The compiled engine exposes the same fault sites and budget
    charging discipline as the machine."""

    def test_store_read_fault_site(self, db):
        with inject(FaultPlan((FaultRule(site="store.read", at=1),))):
            with pytest.raises(TransientFault) as exc:
                db.run("{ p.name | p <- Persons }", engine="compiled")
        assert exc.value.site == "store.read"

    @pytest.mark.parametrize("sharded", [False, True])
    def test_store_read_fault_precedes_index_build(self, db, sharded):
        # the second extent read is the index join's: its fault site
        # fires before the index (or the shard's partial) is built
        if sharded:
            db.shard("Person", k=4, by="age")
        q = (
            "{ struct(a: p.name, b: q.name) "
            "| p <- Persons, q <- Persons, q.age = p.age }"
        )
        with inject(FaultPlan((FaultRule(site="store.read", at=2),))):
            with pytest.raises(TransientFault):
                db.run(q, engine="compiled")
        assert len(db._indexes) == 0
        db.run(q, engine="compiled")
        assert len(db._indexes) > 0

    def test_machine_step_fault_site(self, db):
        with inject(FaultPlan((FaultRule(site="machine.step", at=1),))):
            with pytest.raises(TransientFault):
                db.run("1 + 2", engine="compiled")

    def test_step_budget_enforced(self, db):
        with pytest.raises(Exception) as exc:
            db.run(
                "{ struct(a: p, b: q) | p <- Persons, q <- Persons }",
                engine="compiled",
                budget=Budget(max_steps=2),
            )
        assert "steps" in str(exc.value) or exc.type.__name__ == "FuelExhausted"

    def test_budget_consumed_matches_ops(self, db):
        b = Budget(max_steps=10_000)
        r = db.run("{ p.name | p <- Persons }", engine="compiled", budget=b)
        assert b.steps_used == r.steps > 0


class TestObsFastPath:
    def test_obs_off_records_nothing(self, db):
        obs.disable()
        obs.reset()
        db.run("{ p.name | p <- Persons }", engine="compiled")
        assert obs.REGISTRY.counter_values("exec_compiled_total") == {}
        assert len(obs.TRACER.finished) == 0

    def test_obs_off_builds_no_span_objects(self, db, monkeypatch):
        """The fast-path guard returns before any span is constructed."""
        import repro.obs.spans as spans_mod

        def boom(*a, **kw):  # pragma: no cover - must never run
            raise AssertionError("span built while instrumentation is off")

        obs.disable()
        monkeypatch.setattr(spans_mod, "Span", boom)
        r = db.run("{ p.name | p <- Persons }", engine="compiled")
        assert r.python() == frozenset({"Ada", "Bob"})

    def test_obs_on_emits_exec_plan_span(self, db):
        obs.enable()
        obs.reset()
        try:
            db.run("{ p.name | p <- Persons }", engine="compiled")

            def walk(sp):
                yield sp.name
                for child in sp.children:
                    yield from walk(child)

            names = {
                n for root in obs.TRACER.finished for n in walk(root)
            }
            assert "exec.plan" in names
        finally:
            obs.disable()
            obs.reset()

    def test_obs_on_counts_compiled_runs(self, db):
        obs.enable()
        obs.reset()
        try:
            db.run("{ p.name | p <- Persons }")
            db.run("{ p.name | p <- Persons }")  # result-cache hit
            compiled = obs.REGISTRY.counter_values("exec_compiled_total")
            hits = obs.REGISTRY.counter_values("exec_result_cache_hits_total")
            assert sum(compiled.values()) == 1
            assert sum(hits.values()) == 1
        finally:
            obs.disable()
            obs.reset()


class TestShellSurface:
    def test_query_reports_compiled_engine(self):
        from repro.shell import Shell

        sh = Shell(Database.from_odl(ODL))
        out = sh.handle("size(Persons)")
        assert "compiled plan" in out

    def test_explain_shows_engine_and_reason(self):
        from repro.shell import Shell

        sh = Shell(Database.from_odl(ODL))
        out = sh.handle(".explain { p.name | p <- Persons }")
        assert "engine         : compiled" in out
        assert "deterministic  : yes" in out

    def test_explain_shows_fallback_reason(self):
        from repro.shell import Shell

        sh = Shell(Database.from_odl(ODL))
        out = sh.handle('.explain new Person(name: "x", age: 0)')
        assert "engine         : reduction" in out
        assert "Theorem 4" in out
