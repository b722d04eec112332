"""Effect-guided transactions: statement scopes and multi-statement
all-or-nothing sessions.

The scope of every snapshot/rollback is the *effect* of the guarded
work (Figure 3), which Theorem 5 proves is an upper bound on what the
work can touch: state outside R ∪ A ∪ U is never copied and never
restored.
"""

import pytest

from repro.db.database import Database
from repro.errors import ObjectQuotaExceeded, ReproError, TransientFault
from repro.methods.ast import AccessMode
from repro.resilience.budget import Budget
from repro.resilience.faults import FaultPlan, FaultRule, inject
from repro.resilience.transactions import TransactionScope, scope_extents

ODL = """
class Person extends Object (extent Persons) {
    attribute string name;
}
class Pet extends Object (extent Pets) {
    attribute string nick;
}
"""

ACCOUNT_ODL = """
class Account extends Object (extent Accounts) {
    attribute int balance;
    int deposit(int amount) effect U(Account) {
        this.balance := this.balance + amount;
        return this.balance;
    }
}
"""


@pytest.fixture
def db() -> Database:
    d = Database.from_odl(ODL)
    d.insert("Person", name="Ada")
    d.insert("Pet", nick="Rex")
    return d


@pytest.fixture
def bank() -> Database:
    d = Database.from_odl(ACCOUNT_ODL, method_mode=AccessMode.EFFECTFUL)
    d.insert("Account", balance=100)
    return d


def commit_fault() -> FaultPlan:
    return FaultPlan((FaultRule(site="commit"),))


class TestScopeExtents:
    def test_read_effect_names_the_extent(self, db):
        eff = db.effect_of("{ p.name | p <- Persons }")
        assert scope_extents(db, eff) == ("Persons",)

    def test_add_effect_names_the_extent(self, db):
        eff = db.effect_of('new Person(name: "x")')
        assert scope_extents(db, eff) == ("Persons",)

    def test_untouched_extents_are_out_of_scope(self, db):
        eff = db.effect_of("{ p.name | p <- Persons }")
        assert "Pets" not in scope_extents(db, eff)

    def test_pure_query_has_empty_scope(self, db):
        eff = db.effect_of("1 + 2")
        assert scope_extents(db, eff) == ()

    def test_update_effect_names_the_extent(self, bank):
        (a,) = db_oids(bank, "Accounts")
        from repro.lang.ast import IntLit, MethodCall, OidRef

        eff = bank.effect_of(MethodCall(OidRef(a), "deposit", (IntLit(1),)))
        assert scope_extents(bank, eff) == ("Accounts",)


def db_oids(d: Database, extent: str) -> list[str]:
    return sorted(d.extent(extent))


class TestAtomicRun:
    def test_success_commits_normally(self, db):
        db.run('new Person(name: "Grace")', atomic=True)
        assert len(db.extent("Persons")) == 2

    def test_failure_rolls_back_created_objects(self, db):
        before_ee, before_oe = db.ee, db.oe
        q = '{ struct(x: new Person(name: "c")).x | p <- Persons }'
        # quota of 0 fails on the very first (New); atomic restores all
        with pytest.raises(ObjectQuotaExceeded):
            db.run(q, atomic=True, budget=Budget(max_new_objects=0))
        assert db.ee == before_ee and db.oe == before_oe

    def test_commit_fault_rolls_back(self, db):
        before_ee, before_oe = db.ee, db.oe
        with inject(commit_fault()):
            with pytest.raises(TransientFault):
                db.run('new Person(name: "Grace")', atomic=True)
        assert db.ee == before_ee and db.oe == before_oe

    def test_non_atomic_commit_fault_also_safe(self, db):
        # engines never mutate the database before commit, so even the
        # non-atomic path cannot leave a half-applied statement
        before_ee, before_oe = db.ee, db.oe
        with inject(commit_fault()):
            with pytest.raises(TransientFault):
                db.run('new Person(name: "Grace")')
        assert db.ee == before_ee and db.oe == before_oe

    def test_rollback_is_effect_scoped(self, db):
        """Only the extents in the static effect are snapshotted."""
        eff = db.effect_of('new Person(name: "x")')
        scope = TransactionScope.capture(db, eff)
        assert scope.extents == ("Persons",)

    def test_oid_supply_is_not_rewound(self, db):
        def suffix(oid: str) -> int:
            return int(oid.rsplit("_", 1)[1])

        before = db.extent("Persons")
        with inject(commit_fault()):
            with pytest.raises(TransientFault):
                db.run('new Person(name: "Grace")', atomic=True)
        db.run('new Person(name: "Grace")', atomic=True)
        (fresh,) = db.extent("Persons") - before
        # the failed attempt's oid is skipped, never reused: the counter
        # moved past it, leaving a gap the bijection ∼ absorbs
        assert suffix(fresh) > max(suffix(o) for o in before) + 1

    def test_scope_rollback_restores_updated_records(self, bank):
        (a,) = db_oids(bank, "Accounts")
        eff = bank.effect_of("Accounts")  # R(Account): snapshot records
        scope = TransactionScope.capture(bank, eff)
        from repro.lang.ast import IntLit, MethodCall, OidRef

        bank.run(MethodCall(OidRef(a), "deposit", (IntLit(25),)))
        assert bank.attr(a, "balance").value == 125
        scope.rollback(bank)
        assert bank.attr(a, "balance").value == 100


class TestTransactionContextManager:
    def test_commit_on_clean_exit(self, db):
        with db.transaction():
            db.run('new Person(name: "Grace")')
            db.run('new Person(name: "Tim")')
        assert len(db.extent("Persons")) == 3

    def test_exception_rolls_everything_back(self, db):
        before_ee, before_oe = db.ee, db.oe
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.run('new Person(name: "Grace")')
                assert len(db.extent("Persons")) == 2  # visible inside
                raise RuntimeError("boom")
        assert db.ee == before_ee and db.oe == before_oe

    def test_exception_is_not_swallowed(self, db):
        with pytest.raises(ZeroDivisionError):
            with db.transaction():
                1 / 0

    def test_failing_statement_rolls_back_earlier_ones(self, db):
        before_oe = db.oe
        with pytest.raises(ObjectQuotaExceeded):
            with db.transaction():
                db.run('new Person(name: "Grace")')
                db.run(
                    'new Person(name: "Tim")',
                    budget=Budget(max_new_objects=0),
                )
        assert db.oe == before_oe
        assert len(db.extent("Persons")) == 1

    def test_direct_insert_is_tracked(self, db):
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.insert("Person", name="Grace")
                raise RuntimeError
        assert len(db.extent("Persons")) == 1

    def test_explicit_rollback(self, db):
        with db.transaction() as txn:
            db.run('new Person(name: "Grace")')
            txn.rollback()
        assert len(db.extent("Persons")) == 1

    def test_explicit_commit(self, db):
        with db.transaction() as txn:
            db.run('new Person(name: "Grace")')
            txn.commit()
        assert len(db.extent("Persons")) == 2

    def test_transactions_do_not_nest(self, db):
        with db.transaction():
            with pytest.raises(ReproError, match="nest"):
                with db.transaction():
                    pass

    def test_sequential_transactions_allowed(self, db):
        with db.transaction():
            db.run('new Person(name: "Grace")')
        with db.transaction():
            db.run('new Person(name: "Tim")')
        assert len(db.extent("Persons")) == 3

    def test_resolved_transaction_cannot_be_reused(self, db):
        with db.transaction() as txn:
            pass
        with pytest.raises(ReproError, match="not active"):
            txn.commit()
        with pytest.raises(ReproError, match="not active"):
            txn.rollback()

    def test_effect_accumulates_across_statements(self, db):
        with db.transaction() as txn:
            db.run("{ p.name | p <- Persons }")
            db.run('new Person(name: "Grace")')
            assert "Person" in txn.effect.reads()
            assert "Person" in txn.effect.adds()

    def test_rollback_scope_excludes_untouched_extents(self, db):
        """Pets was never touched, so rollback must not even look at it."""
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.run('new Person(name: "Grace")')
                raise RuntimeError
        # Pets survives untouched (it was outside every statement's effect)
        assert len(db.extent("Pets")) == 1

    def test_definitions_added_inside_are_removed(self, db):
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.define("define adults() as { p | p <- Persons };")
                assert "adults" in db.definitions
                raise RuntimeError
        assert "adults" not in db.definitions
        # and the machine no longer resolves it either
        assert "adults" not in db.machine.defs

    def test_rollback_restores_updates(self, bank):
        (a,) = db_oids(bank, "Accounts")
        from repro.lang.ast import IntLit, MethodCall, OidRef

        with pytest.raises(RuntimeError):
            with bank.transaction():
                bank.run(MethodCall(OidRef(a), "deposit", (IntLit(25),)))
                assert bank.attr(a, "balance").value == 125
                raise RuntimeError
        assert bank.attr(a, "balance").value == 100

    def test_api_transaction_helper(self, db):
        import repro

        with repro.transaction(db):
            repro.run(db, 'new Person(name: "Grace")')
        assert len(db.extent("Persons")) == 2
