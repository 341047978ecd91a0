"""Unit tests for the what-if optimizer."""

import numpy as np
import pytest

from repro.errors import (CatalogError, SqlUnsupportedError,
                          TypeMismatchError)
from repro.sqlengine import Database, IndexDef
from repro.sqlengine.compression import Compression
from repro.sqlengine.views import ViewDef
from repro.sqlengine.sql import parse

A = IndexDef("t", ("a",))
B = IndexDef("t", ("b",))
AB = IndexDef("t", ("a", "b"))


@pytest.fixture(scope="module")
def what_if(small_db):
    return small_db.what_if()


class TestExecEstimates:
    def test_empty_config_scans(self, what_if):
        est = what_if.estimate_statement(
            parse("SELECT a FROM t WHERE a = 5"), frozenset())
        assert est.access_path.kind == "full_scan"

    def test_hypothetical_index_enables_seek(self, what_if):
        est = what_if.estimate_statement(
            parse("SELECT a FROM t WHERE a = 5"), {A})
        assert est.access_path.kind == "index_seek"
        assert est.access_path.index == A

    def test_index_never_hurts(self, what_if):
        queries = ["SELECT a FROM t WHERE a = 5",
                   "SELECT b FROM t WHERE b = 5",
                   "SELECT c FROM t WHERE c BETWEEN 5 AND 500"]
        for sql in queries:
            stmt = parse(sql)
            base = what_if.estimate_statement(stmt, frozenset()).units
            with_ix = what_if.estimate_statement(stmt, {A, AB}).units
            assert with_ix <= base + 1e-9, sql

    def test_irrelevant_index_changes_nothing(self, what_if):
        stmt = parse("SELECT c FROM t WHERE c = 5")
        base = what_if.estimate_statement(stmt, frozenset()).units
        with_a = what_if.estimate_statement(stmt, {A}).units
        assert with_a == pytest.approx(base)

    def test_covering_scan_effect(self, what_if):
        # The Table-2-critical ordering: for b-queries,
        # seek(I(b)) < covering-scan(I(a,b)) < heap scan.
        stmt = parse("SELECT b FROM t WHERE b = 250000")
        heap = what_if.estimate_statement(stmt, frozenset()).units
        cover = what_if.estimate_statement(stmt, {AB}).units
        seek = what_if.estimate_statement(stmt, {B}).units
        assert seek < cover < heap

    def test_float_conversion(self, what_if):
        est = what_if.estimate_statement(
            parse("SELECT a FROM t"), frozenset())
        assert float(est) == est.units

    def test_insert_estimate_grows_with_indexes(self, what_if):
        stmt = parse("INSERT INTO t (a, b, c, d) VALUES (1, 2, 3, 4)")
        bare = what_if.estimate_statement(stmt, frozenset()).units
        indexed = what_if.estimate_statement(stmt, {A, B, AB}).units
        assert indexed > bare

    def test_update_estimate_uses_where(self, what_if):
        narrow = what_if.estimate_statement(
            parse("UPDATE t SET b = 1 WHERE a = 250000"), {A}).units
        wide = what_if.estimate_statement(
            parse("UPDATE t SET b = 1 WHERE a > 0"), {A}).units
        assert narrow < wide

    def test_delete_estimate(self, what_if):
        est = what_if.estimate_statement(
            parse("DELETE FROM t WHERE a = 250000"), {A})
        assert est.units > 0

    def test_unsupported_statement_raises(self, what_if):
        with pytest.raises(SqlUnsupportedError):
            what_if.estimate_statement(
                parse("CREATE INDEX ix ON t (a)"), frozenset())

    def test_unknown_table_raises(self, what_if):
        with pytest.raises(CatalogError):
            what_if.estimate_statement(
                parse("SELECT x FROM missing WHERE x = 1"), frozenset())


class TestTransAndSize:
    def test_trans_same_config_is_zero(self, what_if):
        assert what_if.transition_units({A}, {A}) == 0.0

    def test_trans_build_dominates_drop(self, what_if):
        # Build scans + writes the whole structure; drop is a catalog
        # operation with constant cost.
        build = what_if.transition_units(set(), {A})
        drop = what_if.transition_units({A}, set())
        assert build > 3 * drop

    def test_trans_swap_charges_both(self, what_if):
        swap = what_if.transition_units({A}, {B})
        build = what_if.transition_units(set(), {B})
        drop = what_if.transition_units({A}, set())
        assert swap == pytest.approx(build + drop)

    def test_trans_is_asymmetric(self, what_if):
        assert what_if.transition_units(set(), {A}) != \
            what_if.transition_units({A}, set())

    def test_size_of_empty_config(self, what_if):
        assert what_if.configuration_size_bytes(set()) == 0

    def test_size_additive_over_indexes(self, what_if):
        combined = what_if.configuration_size_bytes({A, B})
        assert combined == what_if.index_size_bytes(A) + \
            what_if.index_size_bytes(B)

    def test_wider_index_is_larger(self, what_if):
        assert what_if.index_size_bytes(AB) > what_if.index_size_bytes(A)


class TestConsistencyWithExecution:
    def test_estimate_matches_metered_seek(self, small_db):
        """What-if estimates and real executions share path + scale."""
        db = small_db
        what_if = db.what_if()
        estimate = what_if.estimate_statement(
            parse("SELECT a FROM t WHERE a = 250000"), {A})
        created = db.find_index(A) is None
        if created:
            db.create_index(A)
        try:
            result = db.execute("SELECT a FROM t WHERE a = 250000")
            assert result.access_path.kind == \
                estimate.access_path.kind == "index_seek"
            # Same order of magnitude (both are a descent + few pages).
            assert result.units(db.params) < 10 * (estimate.units + 1)
        finally:
            if created:
                db.drop_index(db.find_index(A).name)


class TestMeteredTransitions:
    """A transition the database really runs charges the page reads
    and writes the TRANS estimate prices, for every structure kind and
    compression level. CPU is left out: the meter charges a build none,
    where the estimate charges its sort and per-structure terms."""

    STRUCTURES = [kind("t", columns, level)
                  for kind, columns in ((IndexDef, ("a",)),
                                        (IndexDef, ("a", "b")),
                                        (ViewDef, ("b", "c")),
                                        (ViewDef, ("a", "d")))
                  for level in Compression]

    @pytest.fixture(scope="class")
    def db(self):
        rng = np.random.default_rng(0)
        database = Database()
        database.create_table("t", [(c, "INTEGER") for c in "abcd"])
        database.bulk_load("t", {c: rng.integers(0, 1000, 20_000)
                                 for c in "abcd"})
        return database

    @staticmethod
    def _pages(cost):
        return cost.page_reads, cost.page_writes

    @pytest.mark.parametrize("structure", STRUCTURES,
                             ids=lambda d: d.label)
    def test_build_and_drop_pages_equal_the_estimate(self, db,
                                                     structure):
        what_if = db.what_if()
        build = db.apply_configuration({structure})
        assert self._pages(build.metered) == self._pages(
            what_if.transition_cost(set(), {structure}))
        drop = db.apply_configuration(set())
        assert drop.units(db.params) == \
            what_if.transition_units({structure}, set()) == 20.0

    def test_multi_structure_transition_pages_equal_the_estimate(
            self, db):
        what_if = db.what_if()
        first = {IndexDef("t", ("a",)),
                 ViewDef("t", ("b", "c"), Compression.HEAVY)}
        second = {IndexDef("t", ("a",)), IndexDef("t", ("d",))}
        for old, new in ((set(), first), (first, second)):
            report = db.apply_configuration(new)
            estimate = what_if.transition_cost(old, new)
            assert self._pages(report.metered) == self._pages(estimate)
        db.apply_configuration(set())


class TestRelevanceSignatures:
    """Atomic cost decomposition: the serving rules must mirror the
    planner's access-path gating exactly."""

    def _template(self, what_if, sql):
        return what_if.statement_template(parse(sql))

    def test_select_keeps_only_serving_structures(self, what_if):
        from repro.sqlengine.views import ViewDef
        template = self._template(
            what_if, "SELECT a FROM t WHERE a = 5")
        cd = IndexDef("t", ("c", "d"))
        vcd = ViewDef("t", ("c", "d"))
        kind, relevant = what_if.relevance_signature(
            template, {A, AB, cd, vcd})
        assert kind == "select"
        assert set(relevant) == {A, AB}

    def test_range_after_prefix_serves(self, what_if):
        template = self._template(
            what_if, "SELECT a FROM t WHERE a = 5 AND b > 10")
        _, relevant = what_if.relevance_signature(template, {AB})
        assert AB in relevant

    def test_covering_view_serves(self, what_if):
        from repro.sqlengine.views import ViewDef
        template = self._template(
            what_if, "SELECT a, b FROM t WHERE a = 5")
        vab = ViewDef("t", ("a", "b"))
        vcd = ViewDef("t", ("c", "d"))
        _, relevant = what_if.relevance_signature(
            template, {vab, vcd})
        assert list(relevant) == [vab]

    def test_other_table_never_serves(self, what_if):
        template = self._template(
            what_if, "SELECT a FROM t WHERE a = 5")
        other = IndexDef("u", ("a",))
        _, relevant = what_if.relevance_signature(template, {other})
        assert relevant == ()

    def test_insert_signature_is_on_table_count(self, what_if):
        template = self._template(
            what_if, "INSERT INTO t (a, b, c, d) VALUES (1, 2, 3, 4)")
        other = IndexDef("u", ("a",))
        sig = what_if.relevance_signature(template, {A, AB, other})
        # The maintenance signature is the sorted multiset of on-table
        # compression levels; its length is the historical count.
        assert sig == ("insert", "t", (0, 0))

    def test_write_signature_probe_plus_count(self, what_if):
        template = self._template(
            what_if, "DELETE FROM t WHERE a = 5")
        cd = IndexDef("t", ("c", "d"))
        kind, relevant, on_table = what_if.relevance_signature(
            template, {A, cd})
        assert kind == "write"
        assert A in relevant
        assert on_table == (0, 0)

    def test_equal_signature_equal_estimate(self, what_if):
        from repro.sqlengine.views import ViewDef
        template = self._template(
            what_if, "SELECT a FROM t WHERE a = 5")
        base = frozenset({A})
        padded = frozenset({A, IndexDef("t", ("c", "d")),
                            ViewDef("t", ("c", "d"))})
        assert what_if.relevance_signature(template, base) == \
            what_if.relevance_signature(template, padded)
        assert what_if.estimate_template(template, base).units == \
            what_if.estimate_template(template, padded).units

    def test_signature_order_is_canonical(self, what_if):
        """Iteration order of the input config never leaks into the
        signature (it is sorted by structure_sort_key)."""
        template = self._template(
            what_if, "SELECT a, b FROM t WHERE a = 5 AND b = 6")
        forward = what_if.relevance_signature(template, [A, B, AB])
        backward = what_if.relevance_signature(template, [AB, B, A])
        assert forward == backward



class TestLiteralOfTheWrongKind:
    """A string against a numeric column, or a number against a TEXT
    one, is an error on the executor and what-if paths alike, and the
    shape-keyed template route never vouches for one."""

    @pytest.fixture(scope="class")
    def db(self):
        import numpy as np
        from repro.sqlengine import Database
        db = Database()
        db.create_table("t", [("a", "INTEGER"), ("s", "TEXT")])
        db.bulk_load("t", {"a": np.arange(100),
                           "s": np.array([f"v{i}" for i in range(100)])})
        return db

    @pytest.mark.parametrize("sql", [
        "SELECT a FROM t WHERE a < 'x'", "SELECT a FROM t WHERE s < 5",
        "SELECT a FROM t WHERE a = 'x'", "SELECT a FROM t WHERE s = 5",
        "UPDATE t SET a = 1 WHERE s = 5", "DELETE FROM t WHERE a > 'x'"])
    def test_query_and_estimate_raise(self, db, sql):
        with pytest.raises(TypeMismatchError):
            db.what_if().estimate_statement(parse(sql), ())
        if sql.startswith("SELECT"):
            with pytest.raises(TypeMismatchError):
                db.query(sql)

    def test_the_key_plan_does_not_vouch_for_another_kind(self, db):
        from repro.workload.model import Statement
        optimizer = db.what_if()
        number = optimizer.statement_template(
            Statement("SELECT a FROM t WHERE a = 5"))
        with pytest.raises(TypeMismatchError):
            optimizer.statement_template(
                Statement("SELECT a FROM t WHERE a = 'x'"))
        assert optimizer.statement_template(
            Statement("SELECT a FROM t WHERE a = 7")) is number
        text = optimizer.statement_template(
            Statement("SELECT a FROM t WHERE s = 'v1'"))
        with pytest.raises(TypeMismatchError):
            optimizer.statement_template(
                Statement("SELECT a FROM t WHERE s = 1"))
        assert optimizer.statement_template(
            Statement("SELECT a FROM t WHERE s = 'v2'")) is text
