"""Unit tests for Statement and Workload."""

import pytest

from repro.errors import WorkloadError
from repro.workload import Statement, Workload


class TestStatement:
    def test_ast_parsed_lazily_and_cached(self):
        statement = Statement("SELECT a FROM t WHERE a = 1")
        ast1 = statement.ast
        ast2 = statement.ast
        assert ast1 is ast2
        assert ast1.table == "t"

    def test_empty_sql_raises(self):
        with pytest.raises(WorkloadError):
            Statement("   ")

    @pytest.mark.parametrize("sql", [
        5, None, b"SELECT a FROM t WHERE a = 1",
        ["SELECT a FROM t WHERE a = 1"]])
    def test_non_string_sql_raises(self, sql):
        with pytest.raises(WorkloadError, match="^'sql' is not a string$"):
            Statement(sql)

    @pytest.mark.parametrize("tag", [3, b"A", ["A"]])
    def test_non_string_tag_raises(self, tag):
        with pytest.raises(WorkloadError, match="^'tag' is not a string$"):
            Statement("SELECT a FROM t WHERE a = 1", tag=tag)

    def test_tag_is_checked_before_blank_sql(self):
        # The order the trace reader always reported in.
        with pytest.raises(WorkloadError, match="'tag' is not a string"):
            Statement(" ", tag=3)

    def test_equality_includes_tag(self):
        assert Statement("SELECT a FROM t", tag="A") == \
            Statement("SELECT a FROM t", tag="A")
        assert Statement("SELECT a FROM t", tag="A") != \
            Statement("SELECT a FROM t", tag="B")

    def test_hashable(self):
        s = {Statement("SELECT a FROM t"), Statement("SELECT a FROM t")}
        assert len(s) == 1

    def test_repr_mentions_tag(self):
        assert "tag='A'" in repr(Statement("SELECT a FROM t", tag="A"))


class TestWorkload:
    @pytest.fixture
    def workload(self):
        return Workload([Statement(f"SELECT a FROM t WHERE a = {i}",
                                   tag="A" if i % 2 == 0 else "B")
                         for i in range(10)], name="w")

    def test_len_and_iteration(self, workload):
        assert len(workload) == 10
        assert sum(1 for _ in workload) == 10

    def test_indexing(self, workload):
        assert workload[3].sql.endswith("= 3")

    def test_slicing_returns_workload(self, workload):
        sliced = workload[2:5]
        assert isinstance(sliced, Workload)
        assert len(sliced) == 3
        assert sliced.name == "w"

    def test_tag_counts(self, workload):
        assert workload.tag_counts() == {"A": 5, "B": 5}

    def test_repr(self, workload):
        assert "10 statements" in repr(workload)
