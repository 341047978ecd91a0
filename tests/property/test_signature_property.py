"""Property tests for atomic cost decomposition.

The decomposition invariant: a statement template's what-if estimate
is a pure function of its *relevance signature* — the subset of the
configuration's structures that can serve it. Two configurations with
equal signatures must produce bit-identical estimates, and the
signature-keyed :class:`~repro.core.costservice.CostService` must be
indistinguishable (in values) from direct per-configuration
estimation. View-only differences are the historically dangerous
case (the PR 1 cache-key audit), so views are first-class citizens in
the configuration strategy here.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Configuration, WhatIfCostProvider
from repro.core.costservice import CostService
from repro.sqlengine import Database, IndexDef
from repro.sqlengine.views import ViewDef
from repro.workload.model import Statement

COLUMNS = ("a", "b", "c", "d")
N_ROWS = 1_500
DOMAIN = 60


def _build_db():
    db = Database()
    db.create_table("t", [(c, "INTEGER") for c in COLUMNS])
    rng = np.random.default_rng(99)
    db.bulk_load("t", {c: rng.integers(0, DOMAIN, N_ROWS)
                       for c in COLUMNS})
    return db


_DB = _build_db()

STRUCTURES = [IndexDef("t", ("a",)), IndexDef("t", ("b",)),
              IndexDef("t", ("a", "b")), IndexDef("t", ("c", "d")),
              IndexDef("t", ("d",)),
              ViewDef("t", ("a", "b")), ViewDef("t", ("c", "d")),
              ViewDef("t", ("b", "c", "d"))]

columns_st = st.sampled_from(COLUMNS)
values_st = st.integers(0, DOMAIN)
predicate_st = st.one_of(
    st.tuples(st.just("="), columns_st, values_st),
    st.tuples(st.just("<"), columns_st, values_st),
    st.tuples(st.just(">"), columns_st, values_st),
)
config_st = st.frozensets(st.sampled_from(STRUCTURES), max_size=3)


def _sql(select_columns, predicates):
    sql = f"SELECT {', '.join(sorted(select_columns))} FROM t"
    if predicates:
        sql += " WHERE " + " AND ".join(
            f"{column} {op} {value}"
            for op, column, value in predicates)
    return sql


statement_st = st.builds(
    _sql,
    st.sets(columns_st, min_size=1, max_size=3),
    st.lists(predicate_st, max_size=2, unique_by=lambda p: p[1]))


class TestSignatureInvariant:
    @given(sql=statement_st, left=config_st, right=config_st)
    @settings(max_examples=120, deadline=None)
    def test_equal_signature_means_equal_estimate(self, sql, left,
                                                  right):
        """Configs agreeing on the relevant subset share estimates
        bit for bit; configs disagreeing were distinguished for a
        reason (no claim either way on values)."""
        optimizer = _DB.what_if()
        statement = Statement(sql)
        template = optimizer.statement_template(statement.ast)
        sig_left = optimizer.relevance_signature(template, left)
        sig_right = optimizer.relevance_signature(template, right)
        units_left = optimizer.estimate_template(template, left).units
        units_right = optimizer.estimate_template(template,
                                                  right).units
        if sig_left == sig_right:
            assert units_left == units_right

    @given(sql=statement_st, config=config_st)
    @settings(max_examples=120, deadline=None)
    def test_signature_is_subset_restriction(self, sql, config):
        """The estimate under a config equals the estimate under its
        relevant subset alone — irrelevant structures contribute
        nothing (this is why one estimate fills every sharer)."""
        optimizer = _DB.what_if()
        statement = Statement(sql)
        template = optimizer.statement_template(statement.ast)
        signature = optimizer.relevance_signature(template, config)
        assert optimizer.relevance_signature(template, config) == \
            signature  # derivation is deterministic
        full = optimizer.estimate_template(template, config).units
        if signature[0] == "select":
            relevant = frozenset(signature[1])
            reduced = optimizer.estimate_template(template,
                                                  relevant).units
            assert full == reduced

    @given(sql=statement_st, config=config_st)
    @settings(max_examples=100, deadline=None)
    def test_service_matches_direct_estimation(self, sql, config):
        """Signature-keyed service == direct per-config estimation."""
        statement = Statement(sql)
        direct = WhatIfCostProvider(_DB.what_if())
        decomposed = CostService(_DB.what_if())
        configuration = Configuration(config)
        segment = (statement,)
        assert decomposed.exec_cost(segment, configuration) == \
            direct.exec_cost(segment, configuration)


class TestViewOnlyDifferences:
    """The PR 1 audit case: configurations differing only in views."""

    def test_irrelevant_view_shares_signature_and_estimate(self):
        optimizer = _DB.what_if()
        statement = Statement("SELECT a FROM t WHERE a = 3")
        template = optimizer.statement_template(statement.ast)
        base = frozenset({IndexDef("t", ("a",))})
        with_view = base | {ViewDef("t", ("c", "d"))}
        assert optimizer.relevance_signature(template, base) == \
            optimizer.relevance_signature(template, with_view)
        assert optimizer.estimate_template(template, base).units == \
            optimizer.estimate_template(template, with_view).units

    def test_covering_view_changes_signature(self):
        optimizer = _DB.what_if()
        statement = Statement("SELECT a, b FROM t WHERE a = 3")
        template = optimizer.statement_template(statement.ast)
        base = frozenset({IndexDef("t", ("a",))})
        with_view = base | {ViewDef("t", ("a", "b"))}
        assert optimizer.relevance_signature(template, base) != \
            optimizer.relevance_signature(template, with_view)


class TestDecompositionCounters:
    def test_saves_calls_on_paper_fixture(self, small_db,
                                          small_problem,
                                          small_matrices):
        """On the Table 2 fixture the signature space is strictly
        smaller than templates x configurations, so decomposition
        must save calls while reproducing the serial provider's
        matrix bitwise."""
        service = CostService(small_db.what_if())
        exec_matrix = service.exec_matrix(
            small_problem.segments, small_problem.configurations)
        assert np.array_equal(exec_matrix, small_matrices.exec_matrix)
        saved = service.stats.unique_templates * \
            small_problem.n_configurations - service.stats.whatif_calls
        assert saved > 0
        assert service.stats.whatif_calls == \
            service.stats.unique_signatures
        assert service.stats.signature_fills > 0
