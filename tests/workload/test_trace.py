"""Unit tests for workload trace files."""

import json

import pytest

from repro.errors import WorkloadError
from repro.workload import (Statement, Workload, load_trace,
                            make_paper_workload, save_trace)


class TestRoundTrip:
    def test_save_and_load(self, tmp_path):
        workload = Workload([Statement("SELECT a FROM t WHERE a = 1",
                                       tag="A"),
                             Statement("SELECT b FROM t WHERE b = 2")],
                            name="demo")
        path = tmp_path / "trace.jsonl"
        assert save_trace(workload, path) == 2
        loaded = load_trace(path)
        assert loaded.name == "demo"
        assert [s.sql for s in loaded] == [s.sql for s in workload]
        assert [s.tag for s in loaded] == ["A", None]

    def test_paper_workload_round_trip(self, tmp_path):
        workload = make_paper_workload("W1", block_size=10)
        path = tmp_path / "w1.jsonl"
        save_trace(workload, path)
        loaded = load_trace(path)
        assert len(loaded) == len(workload)
        assert loaded.tag_counts() == workload.tag_counts()

    def test_empty_workload(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        save_trace(Workload([], name="e"), path)
        assert len(load_trace(path)) == 0


class TestMalformedFiles:
    def test_not_a_trace_file(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"format": "something-else"}\n')
        with pytest.raises(WorkloadError):
            load_trace(path)

    def test_wrong_version(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"format": "repro-trace", "version": 999}\n')
        with pytest.raises(WorkloadError):
            load_trace(path)

    def test_invalid_json_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"format": "repro-trace", "version": 1}\n{oops\n')
        with pytest.raises(WorkloadError) as exc:
            load_trace(path)
        assert ":2:" in str(exc.value)

    def test_record_missing_sql(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"format": "repro-trace", "version": 1}\n{"tag": "A"}\n')
        with pytest.raises(WorkloadError):
            load_trace(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "ok.jsonl"
        header = json.dumps({"format": "repro-trace", "version": 1})
        path.write_text(header + "\n\n"
                        '{"sql": "SELECT a FROM t"}\n')
        assert len(load_trace(path)) == 1

    def test_leading_blank_line(self, tmp_path):
        """The header is the first non-blank line for both readers."""
        path = tmp_path / "ok.jsonl"
        header = json.dumps({"format": "repro-trace", "version": 1,
                             "name": "demo"})
        path.write_text("\n" + header + "\n"
                        '{"sql": "SELECT a FROM t"}\n')
        loaded = load_trace(path)
        assert loaded.name == "demo"
        assert [s.sql for s in loaded] == ["SELECT a FROM t"]

    @pytest.mark.parametrize("line", ['["sql"]', "7", "null"])
    def test_record_not_an_object(self, tmp_path, line):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"format": "repro-trace", "version": 1}\n'
            '{"sql": "SELECT a FROM t"}\n' + line + "\n")
        with pytest.raises(WorkloadError) as exc:
            load_trace(path)
        assert f"{path}:3:" in str(exc.value)

    def test_header_not_an_object(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("[1]\n")
        with pytest.raises(WorkloadError) as exc:
            load_trace(path)
        assert f"{path}:1:" in str(exc.value)


class TestRecordFields:
    """A record's ``sql`` / ``tag`` are checked where the line number
    is known, not left to crash (or pass) further down the pipeline."""

    HEADER = '{"format": "repro-trace", "version": 1}\n'

    def _trace(self, tmp_path, record):
        path = tmp_path / "trace.jsonl"
        path.write_text(self.HEADER + '{"sql": "SELECT a FROM t"}\n'
                        + record + "\n")
        return path

    @pytest.mark.parametrize("record", [
        '{"sql": 5}', '{"sql": NaN}', '{"sql": ["SELECT a FROM t"]}'])
    def test_sql_not_a_string(self, tmp_path, record):
        path = self._trace(tmp_path, record)
        with pytest.raises(WorkloadError) as exc:
            load_trace(path)
        assert f"{path}:3:" in str(exc.value)

    @pytest.mark.parametrize("record", [
        '{"sql": ""}', '{"sql": null}', '{"sql": "  "}'])
    def test_empty_sql_names_the_line(self, tmp_path, record):
        path = self._trace(tmp_path, record)
        with pytest.raises(WorkloadError) as exc:
            load_trace(path)
        assert f"{path}:3:" in str(exc.value)

    @pytest.mark.parametrize("tag", ['7', '["A"]', '{"mix": "A"}',
                                     'true'])
    def test_tag_not_a_string(self, tmp_path, tag):
        path = self._trace(
            tmp_path, '{"sql": "SELECT b FROM t", "tag": %s}' % tag)
        with pytest.raises(WorkloadError) as exc:
            load_trace(path)
        assert f"{path}:3:" in str(exc.value)
        assert "tag" in str(exc.value)

    def test_null_and_absent_tags_accepted(self, tmp_path):
        path = self._trace(
            tmp_path, '{"sql": "SELECT b FROM t", "tag": null}\n'
                      '{"sql": "SELECT c FROM t", "tag": "A"}')
        loaded = load_trace(path)
        assert [s.tag for s in loaded] == [None, None, "A"]
        assert loaded.tag_counts() == {None: 2, "A": 1}


class TestRecordCount:
    """``save_trace`` writes the statement count ``n`` into the header;
    a file whose records disagree with it was cut short or appended to
    and must not load as a different workload."""

    def _saved(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        save_trace(Workload([Statement(f"SELECT a FROM t WHERE a = {i}")
                             for i in range(3)], name="w"), path)
        return path

    def test_one_line_missing(self, tmp_path):
        path = self._saved(tmp_path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:-1]))
        with pytest.raises(WorkloadError) as exc:
            load_trace(path)
        assert str(exc.value) == \
            f"{path}: header records n=3, file has 2 records"

    def test_one_line_extra(self, tmp_path):
        path = self._saved(tmp_path)
        with path.open("a") as handle:
            handle.write('{"sql": "SELECT b FROM t"}\n')
        with pytest.raises(WorkloadError) as exc:
            load_trace(path)
        assert str(exc.value) == \
            f"{path}: header records n=3, file has 4 records"

    def test_blank_lines_are_not_records(self, tmp_path):
        path = self._saved(tmp_path)
        path.write_text(path.read_text().replace("\n", "\n\n"))
        assert len(load_trace(path)) == 3

    @pytest.mark.parametrize("header", [
        '{"format": "repro-trace", "version": 1}',
        '{"format": "repro-trace", "version": 1, "n": "5"}',
        '{"format": "repro-trace", "version": 1, "n": true}'])
    def test_header_without_integer_n_is_not_checked(self, tmp_path,
                                                     header):
        path = tmp_path / "trace.jsonl"
        path.write_text(header + '\n{"sql": "SELECT a FROM t"}\n')
        assert len(load_trace(path)) == 1
