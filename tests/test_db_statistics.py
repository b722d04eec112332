"""Tests for the optimizer statistics catalog (repro.db.statistics).

The catalog follows the same Theorem 5 effect discipline as the
plan/result caches and attribute indexes: ``A``-only commits fold or
promote, ``U`` commits drop everything, unattributed changes lazily
invalidate via the store version.  The stats *epoch* is the plan-cache
staleness signal: it bumps only on geometric row-count drift.
"""

import pytest

from repro.db.database import Database
from repro.db.store import Commit
from repro.db.statistics import (
    EXACT_DISTINCT_CAP,
    HISTOGRAM_BUCKETS,
    MCV_SIZE,
    SKETCH_K,
    ColumnStats,
    DistinctSketch,
    StatisticsCatalog,
    join_selectivity,
)
from repro.effects.algebra import Effect, add, update
from repro.lang.ast import IntLit, StrLit

ODL = """
class Item extends Object (extent Items) {
    attribute int price;
    attribute string label;
}
class Other extends Object (extent Others) {
    attribute int n;
}
"""


@pytest.fixture
def db():
    d = Database.from_odl(ODL)
    for i in range(40):
        d.insert("Item", price=i % 10, label=f"l{i % 4}")
    d.insert("Other", n=1)
    return d


class TestDistinctSketch:
    def test_exact_below_k(self):
        s = DistinctSketch(k=16)
        for i in range(10):
            s.add(IntLit(i))
        assert s.estimate() == 10.0

    def test_duplicates_collapse(self):
        s = DistinctSketch(k=16)
        for _ in range(100):
            s.add(IntLit(7))
        assert s.estimate() == 1.0

    def test_estimate_within_tolerance_beyond_k(self):
        s = DistinctSketch()
        n = 20_000
        for i in range(n):
            s.add(IntLit(i))
        est = s.estimate()
        # KMV with k=256 has ~1/sqrt(k) ≈ 6% relative error; allow 3 sigma
        assert abs(est - n) / n < 0.2

    def test_sketch_is_insertion_order_independent(self):
        a, b = DistinctSketch(), DistinctSketch()
        for i in range(2000):
            a.add(IntLit(i))
        for i in reversed(range(2000)):
            b.add(IntLit(i))
        assert a.estimate() == b.estimate()


class TestColumnStats:
    def _build(self, db, extent="Items", attr="price"):
        return ColumnStats.build(
            extent, attr, db.oe, db.ee.members(extent)
        )

    def test_rows_and_distinct(self, db):
        col = self._build(db)
        assert col.rows == 40
        assert col.distinct() == 10.0
        assert col.eq_selectivity() == pytest.approx(0.1)

    def test_string_column_has_no_histogram(self, db):
        col = self._build(db, attr="label")
        assert col.distinct() == 4.0
        assert not col.has_histogram

    def test_histogram_range_selectivity(self, db):
        col = self._build(db)  # price values 0..9, uniform
        assert col.has_histogram
        assert col.range_selectivity("<", 5) == pytest.approx(0.5, abs=0.1)
        assert col.range_selectivity(">=", 5) == pytest.approx(0.5, abs=0.1)
        assert col.range_selectivity("<=", 9) == 1.0
        # below the minimum: (near) nothing survives
        assert col.range_selectivity("<", 0) <= 0.05

    def test_histogram_bucket_cap(self, db):
        big = Database.from_odl(ODL)
        for i in range(500):
            big.insert("Item", price=i, label="x")
        col = ColumnStats.build(
            "Items", "price", big.oe, big.ee.members("Items")
        )
        assert 0 < len(col._bounds) <= HISTOGRAM_BUCKETS
        assert col.le_fraction(249) == pytest.approx(0.5, abs=0.07)

    def test_fold_refines_in_place(self, db):
        col = self._build(db)
        new = db.insert("Item", price=99, label="z")
        col.fold(db.oe, [new.name])
        assert col.rows == 41
        assert col.distinct() == 11.0
        # 99 extends the top bucket, so <=99 still covers everything
        assert col.le_fraction(99) == 1.0

    def test_fold_nonint_drops_histogram(self, db):
        col = self._build(db, attr="label")
        assert not col.has_histogram
        col2 = self._build(db)
        # simulate a non-numeric value arriving in a numeric column
        col2._numeric = True
        new = db.insert("Item", price=5, label="w")
        col2.fold(db.oe, [new.name])
        assert col2.rows == 41

    def test_eq_selectivity_uses_measured_frequency(self, db):
        col = self._build(db)  # price i % 10: every value holds 4 of 40
        assert col.eq_selectivity(IntLit(3)) == pytest.approx(0.1)
        # absent value: at most ~one row, not rows/distinct
        assert col.eq_selectivity(IntLit(999)) == pytest.approx(1 / 40)
        # no comparand: the uniform 1/distinct guess survives
        assert col.eq_selectivity() == pytest.approx(0.1)

    def test_eq_selectivity_sees_skew(self):
        skew = Database.from_odl(ODL)
        for i in range(40):  # price 0 holds 90% of the rows
            skew.insert("Item", price=0 if i % 10 != 9 else i, label="x")
        col = ColumnStats.build(
            "Items", "price", skew.oe, skew.ee.members("Items")
        )
        assert col.eq_selectivity(IntLit(0)) == pytest.approx(0.9)
        assert col.eq_selectivity(IntLit(9)) == pytest.approx(1 / 40)

    def test_mcv_survives_sketch_transition(self):
        col = ColumnStats("X", "a")
        hot = IntLit(-1)
        for _ in range(1000):
            col._note_distinct(hot)
            col.rows += 1
        for i in range(EXACT_DISTINCT_CAP + 100):
            col._note_distinct(IntLit(i))
            col.rows += 1
        assert col._freq_frozen
        assert len(col._freq) <= MCV_SIZE
        # the hot value stays priced by its count, not 1/distinct
        assert col.eq_selectivity(hot) >= 1000 / col.rows * 0.99
        # a cold value gets the residual mass, far below the MCV hit
        assert col.eq_selectivity(IntLit(3)) < col.eq_selectivity(hot) / 100

    def test_join_selectivity_exact_frequencies(self, db):
        prices = self._build(db)  # 0..9, 4 rows each (40 rows)
        other = ColumnStats.build(
            "Others", "n", db.oe, db.ee.members("Others")
        )  # the single value 1
        # matches = 4 rows (price = 1) x 1 row -> 4 / (40 * 1)
        assert join_selectivity(prices, other) == pytest.approx(0.1)
        assert join_selectivity(other, prices) == pytest.approx(0.1)

    def test_join_selectivity_falls_back_when_frozen(self, db):
        prices = self._build(db)
        frozen = self._build(db)
        frozen._freq_frozen = True
        assert join_selectivity(prices, frozen) == pytest.approx(
            1 / prices.distinct()
        )

    def test_exact_to_sketch_transition(self):
        col = ColumnStats("X", "a")
        for i in range(EXACT_DISTINCT_CAP + 100):
            col._note_distinct(IntLit(i))
        assert col._exact is None
        n = EXACT_DISTINCT_CAP + 100
        assert abs(col.distinct() - n) / n < 0.2


class TestCatalogMaintenance:
    def test_lazy_build_and_version_cache(self, db):
        cat = db._stats
        col = cat.column(db.ee, db.oe, db._state_version, "Items", "price")
        again = cat.column(db.ee, db.oe, db._state_version, "Items", "price")
        assert col is again  # cached at this version

    def test_add_commit_folds_forward(self, db):
        db.analyze()
        before = db._stats.column(
            db.ee, db.oe, db._state_version, "Items", "price"
        )
        db.insert("Item", price=77, label="q")
        after = db._stats.column(
            db.ee, db.oe, db._state_version, "Items", "price"
        )
        # the fold kept the same object and refined it — no rebuild
        assert after is before
        assert after.rows == 41
        assert after.distinct() == 11.0

    def test_add_commit_promotes_untouched_extents(self, db):
        db.analyze()
        other_before = db._stats.column(
            db.ee, db.oe, db._state_version, "Others", "n"
        )
        db.insert("Item", price=1, label="a")
        other_after = db._stats.column(
            db.ee, db.oe, db._state_version, "Others", "n"
        )
        assert other_after is other_before

    def test_update_effect_drops_all_columns(self, db):
        db.analyze()
        assert len(db._stats) > 0
        db._stats.note_write(
            Commit(Effect.of(update("Item")), 0, 1, db.schema, db.ee, db.oe)
        )
        assert len(db._stats) == 0

    def test_add_without_oids_evicts_touched_extent(self, db):
        db.analyze()
        pre = db._state_version
        db._stats.note_write(
            Commit(
                Effect.of(add("Item")), pre, pre + 1, db.schema, db.ee, db.oe
            )
        )
        snap = db._stats.snapshot()
        assert "Items.price" not in snap["columns"]
        assert "Others.n" in snap["columns"]

    def test_unattributed_change_invalidates_lazily(self, db):
        v = db._state_version
        col = db._stats.column(db.ee, db.oe, v, "Items", "price")
        col2 = db._stats.column(db.ee, db.oe, v + 1, "Items", "price")
        assert col2 is not col  # version mismatch forces a rebuild


class TestStatsEpoch:
    def test_epoch_stable_under_small_growth(self, db):
        e0 = db._stats.observe(db.ee)
        db.insert("Item", price=3, label="b")
        assert db._stats.observe(db.ee) == e0

    def test_epoch_bumps_on_geometric_growth(self, db):
        e0 = db._stats.observe(db.ee)
        for i in range(100):  # 40 -> 140 rows: > 2x + 8
            db.insert("Item", price=i, label="c")
        assert db._stats.observe(db.ee) > e0

    def test_epoch_bumps_from_empty(self):
        d = Database.from_odl(ODL)
        e0 = d._stats.observe(d.ee)
        for i in range(20):
            d.insert("Other", n=i)
        assert d._stats.observe(d.ee) > e0

    def test_observe_is_idempotent(self, db):
        e1 = db._stats.observe(db.ee)
        e2 = db._stats.observe(db.ee)
        assert e1 == e2


class TestAnalyzeSurface:
    def test_analyze_returns_all_columns(self, db):
        summary = db.analyze()
        assert set(summary) == {
            "Items.price",
            "Items.label",
            "Others.n",
        }
        assert summary["Items.price"]["rows"] == 40
        assert summary["Items.price"]["distinct"] == 10.0
        assert summary["Items.label"]["histogram_buckets"] == 0

    def test_snapshot_is_json_safe(self, db):
        import json

        db.analyze()
        snap = db._stats.snapshot()
        json.dumps(snap)
        assert snap["analyzed_columns"] == 3

    def test_health_has_optimizer_section(self, db):
        db.analyze()
        h = db.health()
        assert h["optimizer"]["analyzed_columns"] == 3
        assert h["optimizer"]["replans"] == 0
        assert h["optimizer"]["replan_ratio"] == 4.0


class TestDegenerateHistograms:
    """Regression pins for the degenerate paths feeding traversal
    fan-out estimates (ISSUE 10 satellite): a constant column collapses
    every equi-depth bucket to equal bounds (``hi == lo``), and a KMV
    sketch holding fewer than ``k`` values must stay exact.  Extensive
    randomized probing certified both paths correct; these tests keep
    them that way.
    """

    def constant_column(self, value=7, rows=25):
        db = Database.from_odl(ODL)
        for _ in range(rows):
            db.insert("Item", price=value, label="c")
        return ColumnStats.build("Items", "price", db.oe, db.ee.members("Items"))

    def test_single_bucket_equal_bounds(self):
        col = self.constant_column(7)
        assert col.has_histogram
        # the whole mass sits at 7: a step function, not a ramp
        assert col.le_fraction(6) == 0.0
        assert col.le_fraction(7) == 1.0
        assert col.le_fraction(8) == 1.0

    def test_single_bucket_range_ops(self):
        col = self.constant_column(7)
        assert col.range_selectivity("<", 7) == 0.0
        assert col.range_selectivity("<=", 7) == 1.0
        assert col.range_selectivity(">", 7) == 0.0
        assert col.range_selectivity(">=", 7) == 1.0

    def test_negative_constant(self):
        col = self.constant_column(-3)
        assert col.le_fraction(-4) == 0.0
        assert col.le_fraction(-3) == 1.0

    def test_two_value_column_boundaries_exact(self):
        db = Database.from_odl(ODL)
        for i in range(20):
            db.insert("Item", price=0 if i < 10 else 100, label="x")
        col = ColumnStats.build("Items", "price", db.oe, db.ee.members("Items"))
        assert col.le_fraction(-1) == 0.0
        assert col.le_fraction(100) == 1.0
        assert col.le_fraction(0) == pytest.approx(0.5, abs=0.05)

    def test_le_fraction_monotone(self):
        db = Database.from_odl(ODL)
        import random

        rng = random.Random(42)
        for _ in range(200):
            db.insert("Item", price=rng.randrange(-50, 50), label="x")
        col = ColumnStats.build("Items", "price", db.oe, db.ee.members("Items"))
        prev = 0.0
        for v in range(-60, 61):
            cur = col.le_fraction(v)
            assert cur >= prev - 1e-12, f"non-monotone at {v}"
            prev = cur
        assert col.le_fraction(-51) == 0.0
        assert col.le_fraction(50) == 1.0

    def test_monotone_survives_fold(self):
        db = Database.from_odl(ODL)
        for i in range(30):
            db.insert("Item", price=i, label="x")
        col = ColumnStats.build("Items", "price", db.oe, db.ee.members("Items"))
        new = db.insert("Item", price=500, label="x")
        col.fold(db.oe, [new.name])
        prev = 0.0
        for v in range(-5, 510, 7):
            cur = col.le_fraction(v)
            assert cur >= prev - 1e-12
            prev = cur
        assert col.le_fraction(500) == 1.0


class TestSketchBelowK:
    @pytest.mark.parametrize("k", (2, 3, 4, 8, 16))
    def test_exact_below_k(self, k):
        s = DistinctSketch(k=k)
        for i in range(k - 1):
            s.add(IntLit(i))
        assert s.estimate() == float(k - 1)

    @pytest.mark.parametrize("k", (2, 4, 16))
    def test_duplicates_do_not_inflate(self, k):
        s = DistinctSketch(k=k)
        for _ in range(3):
            for i in range(k - 1):
                s.add(IntLit(i))
        assert s.estimate() == float(k - 1)

    def test_empty_sketch(self):
        assert DistinctSketch(k=4).estimate() == 0.0

    def test_exactly_at_k_boundary(self):
        # n == k is the first point the estimator may engage; it must
        # stay within trivial error of the truth
        k = 8
        s = DistinctSketch(k=k)
        for i in range(k):
            s.add(IntLit(i))
        assert s.estimate() >= float(k) * 0.5


class TestTraverseFanOut:
    """The stats feed `traverse` cardinality: distinct(next) caps the
    per-hop fan-out (see CostModel.cardinality)."""

    def test_distinct_caps_traverse_estimate(self):
        from repro.optimizer.cost import CostModel
        from tests.traverse_helpers import graph_db

        edges = {f"r{i}": "hub" for i in range(30)}
        edges["hub"] = None
        db = graph_db(edges)
        model = CostModel.from_database(db)
        bounded = db.parse("traverse(x in refs over next depth <= 5)")
        naive = 30.0 * 6  # |start| * (depth + 1) without the fan-out cap
        assert model.cardinality(bounded) < naive
        assert model.cardinality(bounded) <= 31.0
