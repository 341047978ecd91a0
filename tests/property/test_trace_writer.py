"""Property tests for the trace writer.

``save_trace`` writes each record around the C string encoder
(``json.encoder.encode_basestring_ascii``) instead of one
``json.dumps`` of a record dict. The contract is that the file's bytes
do not change: for any statement text and tag, the output equals the
per-record ``json.dumps`` writer below, and ``iter_trace`` reads the
same statements back. A ``""`` tag is written; only ``None`` is
omitted. (A high surrogate followed by a low one is written as two
``\\u`` escapes, which JSON reads back as the one astral code point
they encode: the read-back is compared with each field's JSON round
trip.)

Run with ``--hypothesis-seed=0``.
"""

import json
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from repro.workload import Statement, Workload, iter_trace, save_trace


def reference_save(workload, path):
    """The writer before the string encoder, verbatim."""
    with path.open("w", encoding="utf-8") as handle:
        header = {"format": "repro-trace", "version": 1,
                  "name": workload.name, "n": len(workload)}
        handle.write(json.dumps(header) + "\n")
        for statement in workload:
            record = {"sql": statement.sql}
            if statement.tag is not None:
                record["tag"] = statement.tag
            handle.write(json.dumps(record) + "\n")
    return len(workload)


#: Any code point, lone surrogates included.
any_text = st.text(st.characters(codec=None, categories=None))
#: Characters whose escaping differs between encoders.
tricky = st.text(st.sampled_from(
    ['"', "\\", "/", "\x00", "\x1f", "\x7f", "\n", "\t", "é", " ",
     " ", "\ud800", "\udfff", "\U0001f600", "￿", "a", " "]))
sql_st = st.one_of(any_text, tricky).filter(str.strip)
tag_st = st.one_of(st.none(), st.just(""), any_text, tricky)
statements_st = st.lists(st.builds(Statement, sql_st, tag=tag_st),
                         max_size=12)
name_st = st.one_of(st.none(), any_text)


@given(statements=statements_st, name=name_st)
@example(statements=[Statement("SELECT 1", tag=""),
                     Statement("SELECT 1"),
                     Statement('x"\\ \ud800\U0001f600',
                               tag="\x00é")],
         name="w")
@settings(max_examples=300, deadline=None)
def test_bytes_equal_the_dumps_writer(statements, name):
    workload = Workload(statements, name=name)
    with tempfile.TemporaryDirectory() as directory:
        new = Path(directory) / "new.jsonl"
        old = Path(directory) / "old.jsonl"
        assert save_trace(workload, new) == reference_save(workload, old)
        assert new.read_bytes() == old.read_bytes()
        assert [(s.sql, s.tag) for s in iter_trace(new)] == \
            [(_round_trip(s.sql), _round_trip(s.tag)) for s in statements]


def _round_trip(text):
    return json.loads(json.dumps(text))
