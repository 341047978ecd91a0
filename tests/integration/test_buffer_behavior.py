"""Behavioral tests for the page-touch meter under real workloads.

Cost units are *logical* page touches: no buffer pool keeps a page
between statements, so the metered cost of a statement does not
depend on what ran before it.
"""

import numpy as np
import pytest

from repro.sqlengine import CostParams, Database


def make_db():
    db = Database(params=CostParams())
    db.create_table("t", [("a", "INTEGER"), ("b", "INTEGER")])
    rng = np.random.default_rng(0)
    db.bulk_load("t", {"a": rng.integers(0, 500, 30_000),
                       "b": rng.integers(0, 500, 30_000)})
    return db


class TestPoolSizeEffect:
    def test_logical_reads_are_pool_independent(self):
        """The cost-unit basis must not depend on history: a statement
        costs the same on a fresh database and after a warm-up that
        touched every page it reads."""
        sql = "SELECT b FROM t WHERE b = 7"
        cold = make_db()
        warm = make_db()
        for value in (1, 2, 3):
            warm.execute("SELECT b FROM t WHERE b = %d" % value)
        r_cold = cold.execute(sql)
        before = warm.buffer_manager.snapshot()
        r_warm = warm.execute(sql)
        delta = warm.buffer_manager.snapshot() - before
        assert r_cold.units(cold.params) == pytest.approx(
            r_warm.units(warm.params))
        assert delta.logical_reads == r_warm.metrics.page_reads > 0
