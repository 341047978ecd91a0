"""Workload trace serialization (JSONL).

The paper's motivating scenario captures a trace on one day and reuses
it as a representative workload later. These helpers persist and reload
workloads so examples and users can do exactly that.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterator, Optional, TextIO, Tuple, Union

from ..errors import WorkloadError
from .model import Statement, Workload

_FORMAT_VERSION = 1

#: One JSON value from the start of a string, with where it ended. On a
#: stripped line, a dict ending at ``len(line)`` is exactly what
#: ``json.loads(line)`` returns; anything else (a BOM, trailing data,
#: invalid JSON, a non-object) goes through :func:`_record` for its
#: error.
_decode = json.JSONDecoder().raw_decode

#: The string encoder ``json.dumps`` applies to a ``str`` (the C one
#: where available): a record written around it has the bytes
#: ``json.dumps`` of the record dict would.
_encode = json.encoder.encode_basestring_ascii


def save_trace(workload: Workload, path: Union[str, Path]) -> int:
    """Write a workload as JSONL; returns the statement count.

    The first line is a header record carrying the format version, the
    workload name and the statement count ``n``, which
    :func:`iter_trace` checks at end of file. Each statement is one
    ``{"sql": …}`` object, with ``"tag"`` when the tag is not ``None``.
    """
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        header = {"format": "repro-trace", "version": _FORMAT_VERSION,
                  "name": workload.name, "n": len(workload)}
        handle.write(json.dumps(header) + "\n")
        for statement in workload:
            tag = ("" if statement.tag is None
                   else ', "tag": ' + _encode(statement.tag))
            handle.write('{"sql": ' + _encode(statement.sql) + tag + "}\n")
    return len(workload)


def _record(path: Path, line_no: int, line: str) -> dict:
    """The JSON object on one non-blank line."""
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise WorkloadError(
            f"{path}:{line_no}: invalid JSON: {exc}") from exc
    if not isinstance(record, dict):
        raise WorkloadError(
            f"{path}:{line_no}: record is not a JSON object")
    return record


def _read_header(path: Path, handle: TextIO) -> Tuple[dict, int]:
    """Consume ``handle`` through the header — the first non-blank
    line — and return it, validated, with its line number."""
    for line_no, line in enumerate(handle, start=1):
        if not line.strip():
            continue
        header = _record(path, line_no, line)
        if header.get("format") != "repro-trace":
            raise WorkloadError(f"{path} is not a repro trace file")
        if header.get("version") != _FORMAT_VERSION:
            raise WorkloadError(
                f"{path}: unsupported trace version "
                f"{header.get('version')}")
        return header, line_no
    raise WorkloadError(f"{path} is empty, not a repro trace file")


def iter_trace(path: Union[str, Path]) -> Iterator[Statement]:
    """Stream statements from a trace file without materializing it.

    Validates the header, then yields one :class:`Statement` per
    record — the input side of the bounded-memory summarization
    pipeline (:func:`repro.workload.summary.summarize_statements`).
    ``sql`` must be a non-empty string and ``tag`` a string, ``null``
    or absent; anything else is a ``WorkloadError`` at that line. A
    header with an integer ``n`` must match the record count: a trace
    cut short (or grown) is a ``WorkloadError`` at end of file, not a
    different workload.

    A line equal to one read before yields the same ``Statement``
    object: the reader keeps a ``line → Statement`` table until end of
    file, so a repeated line is decoded once. A bad line raises at its
    first occurrence and so never enters the table.
    """
    path = Path(path)
    seen: Dict[str, Statement] = {}
    with path.open("r", encoding="utf-8") as handle:
        header, header_line = _read_header(path, handle)
        records = 0
        for line_no, raw in enumerate(handle, start=header_line + 1):
            statement = seen.get(raw)
            if statement is None:
                line = raw.strip()
                if not line:
                    continue
                try:
                    record, end = _decode(line)
                except json.JSONDecodeError:
                    end = -1
                if end != len(line) or not isinstance(record, dict):
                    record = _record(path, line_no, line)
                try:
                    statement = Statement(record.get("sql"),
                                          tag=record.get("tag"))
                except WorkloadError as exc:
                    raise WorkloadError(
                        f"{path}:{line_no}: {exc}") from None
                seen[raw] = statement
            records += 1
            yield statement
    expected = header.get("n")
    if (isinstance(expected, int) and not isinstance(expected, bool)
            and expected != records):
        raise WorkloadError(f"{path}: header records n={expected}, "
                            f"file has {records} records")


def trace_name(path: Union[str, Path]) -> Optional[str]:
    """The workload name recorded in a trace file's header."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as handle:
        return _read_header(path, handle)[0].get("name")


def load_trace(path: Union[str, Path]) -> Workload:
    """Read a workload previously written by :func:`save_trace`."""
    return Workload(iter_trace(path), name=trace_name(path))
