"""Property tests for the trace reader.

``iter_trace`` decodes each distinct stripped line with one
``JSONDecoder.raw_decode`` call, falls back to ``json.loads`` only
for the error message, and yields a repeated line's ``Statement``
again without decoding it. The contract is that this is unobservable
but for identity: for any file, it yields the statements — or raises
the ``WorkloadError``, message and line number included — that one
``json.loads`` per stripped line gives. The reference reader below is
that reader.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import WorkloadError
from repro.workload import iter_trace
from repro.workload import trace as trace_module

HEADER = '{"format": "repro-trace", "version": 1}'


def reference_read(path):
    """One ``json.loads`` per stripped line plus the field checks:
    ``(sql, tag)`` pairs, or the ``WorkloadError`` it raises."""
    out = []
    with open(path, encoding="utf-8") as handle:
        lines = enumerate(handle, start=1)
        for _, line in lines:
            if line.strip():
                break
        for line_no, line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise WorkloadError(
                    f"{path}:{line_no}: invalid JSON: {exc}") from exc
            if not isinstance(record, dict):
                raise WorkloadError(
                    f"{path}:{line_no}: record is not a JSON object")
            sql, tag = record.get("sql"), record.get("tag")
            if not isinstance(sql, str):
                raise WorkloadError(f"{path}:{line_no}: 'sql' is not a string")
            if tag is not None and not isinstance(tag, str):
                raise WorkloadError(f"{path}:{line_no}: 'tag' is not a string")
            if not sql.strip():
                raise WorkloadError(
                    f"{path}:{line_no}: empty SQL statement")
            out.append((sql, tag))
    return out


def _outcome(read, path):
    try:
        return "ok", read(path)
    except WorkloadError as exc:
        return "error", str(exc)


def _read(path):
    return [(s.sql, s.tag) for s in iter_trace(path)]


sql_st = st.text(alphabet="SELCT abt=1'\"\\é\u2028", min_size=1,
                 max_size=12)
record_st = st.builds(
    lambda sql, tag, extra: json.dumps(
        {"sql": sql, **tag, **extra}, ensure_ascii=False),
    sql_st,
    st.sampled_from([{}, {"tag": None}, {"tag": "A"}, {"tag": "B"}]),
    st.sampled_from([{}, {"x": [1, {"y": None}]}]))
#: Lines both readers accept: blank or whitespace-only lines (skipped),
#: a padded record, and a record with NaN in a field nobody reads.
harmless_st = st.sampled_from([
    "", " ", "\t", "  \x0c ", '  {"sql": "padded"}  ',
    '{"sql": "SELECT a FROM t", "x": NaN}'])
#: Lines that end the read with an error: NaN, trailing data, a BOM,
#: fragments of a record split across lines, wrong types.
broken_st = st.one_of(
    st.sampled_from([
        '{"sql": NaN}', '{"sql": "SELECT a FROM t", "tag": NaN}',
        '{"sql": Infinity}', '{"sql": "x"} 7', '{"sql": "x"}{"sql": "y"}',
        '{"sql": "x"},{"sql": "y"}', '[{"sql": "x"}]',
        '{"sql": "SELECT a FROM t", "x": [{"b": 1}', '{"c": 2}]}',
        '{"sql":', '"SELECT a FROM t"}', "{oops", "7", "null",
        '"SELECT a FROM t"', '{"tag": "A"}', '{"sql": 5}',
        '{"sql": ""}', '{"sql": "  "}', '{"sql": "x", "tag": 7}']),
    record_st.map(lambda line: "\ufeff" + line))
line_st = st.one_of(*[record_st] * 6, harmless_st, harmless_st,
                    broken_st)
newline_st = st.sampled_from(["\n", "\n", "\r\n"])
#: A file body drawn from a few lines, so lines recur: a bad line can
#: come back after its first occurrence, and the last line, when it
#: lacks its newline, can equal an earlier line all but the newline.
body_st = st.lists(st.tuples(line_st, newline_st), min_size=1,
                   max_size=6).flatmap(
    lambda drawn: st.lists(st.sampled_from(drawn), max_size=12))


@given(body=body_st, last_newline=st.booleans())
@settings(max_examples=300, deadline=None)
def test_reader_matches_per_line_json_loads(tmp_path_factory, body,
                                            last_newline):
    text = HEADER + "\n" + "".join(line + end for line, end in body)
    if body and not last_newline:
        text = text[:-len(body[-1][1])]
    path = tmp_path_factory.mktemp("trace") / "trace.jsonl"
    path.write_bytes(text.encode("utf-8"))
    assert _outcome(_read, path) == _outcome(reference_read, path)


def test_lines_that_only_decode_together_fail_at_their_line(tmp_path):
    """Three lines that, joined as one JSON array, decode to three
    dicts, while none of them is valid JSON alone: a reader that
    decodes chunks of lines as one array and checks only the element
    count would yield three statements here."""
    lines = ['{"sql": "SELECT a FROM t", "x": [{"b": 1}',
             '{"c": 2}]}',
             '{"sql": "SELECT b FROM t"},{"sql": "SELECT c FROM t"}']
    chunk = json.loads("[" + ",".join(lines) + "]")
    assert len(chunk) == 3 and all(isinstance(r, dict) for r in chunk)
    path = tmp_path / "trace.jsonl"
    path.write_text(HEADER + "\n" + "\n".join(lines) + "\n")
    with pytest.raises(WorkloadError) as exc:
        list(iter_trace(path))
    assert str(exc.value).startswith(f"{path}:2: invalid JSON")
    assert _outcome(reference_read, path) == ("error", str(exc.value))


def _write(tmp_path, lines, header=HEADER):
    path = tmp_path / "trace.jsonl"
    path.write_text(header + "\n" + "".join(line + "\n" for line in lines))
    return path


@given(values=st.lists(st.integers(0, 6), max_size=40))
@settings(max_examples=60, deadline=None)
def test_each_distinct_line_is_decoded_once(tmp_path_factory, values):
    """Clock-free: N records over D distinct lines cost D decodes and
    yield N statements."""
    decoded = []
    decode = trace_module._decode

    def counting_decode(line):
        decoded.append(line)
        return decode(line)

    lines = [json.dumps({"sql": f"SELECT a FROM t WHERE a = {v}"})
             for v in values]
    path = _write(tmp_path_factory.mktemp("trace"), lines)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(trace_module, "_decode", counting_decode)
        statements = list(iter_trace(path))
    assert len(statements) == len(lines)
    assert len(decoded) == len(set(lines))
    assert [s.sql for s in statements] == \
        [json.loads(line)["sql"] for line in lines]


def test_equal_lines_yield_the_same_object(tmp_path):
    a = '{"sql": "SELECT a FROM t WHERE a = 1", "tag": "A"}'
    b = '{"sql": "SELECT a FROM t WHERE a = 1", "tag": "B"}'
    first, second, third, fourth = iter_trace(_write(tmp_path,
                                                     [a, b, a, b]))
    assert first is third and second is fourth
    assert first is not second and first.sql == second.sql


def test_repeated_malformed_line_raises_at_its_first_line(tmp_path):
    good = '{"sql": "SELECT a FROM t"}'
    bad = '{"sql": 5}'
    path = _write(tmp_path, [good, bad, good, bad])
    with pytest.raises(WorkloadError) as exc:
        list(iter_trace(path))
    assert str(exc.value) == f"{path}:3: 'sql' is not a string"
    assert _outcome(reference_read, path) == ("error", str(exc.value))


@pytest.mark.parametrize("n", [1, 3])
def test_header_count_mismatch_still_raises(tmp_path, n):
    line = '{"sql": "SELECT a FROM t"}'
    path = _write(tmp_path, [line, line],
                  header=HEADER[:-1] + f', "n": {n}}}')
    with pytest.raises(WorkloadError,
                       match=f"header records n={n}, file has 2"):
        list(iter_trace(path))
    assert len(list(iter_trace(_write(
        tmp_path, [line, line], header=HEADER[:-1] + ', "n": 2}')))) == 2
