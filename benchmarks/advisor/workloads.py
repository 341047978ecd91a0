"""Seeded inputs for the advisor benchmark: five workloads, one table.

Every workload is a pure function of ``(name, seed, scale)``: a
different seed changes literals, shape pools and phase draws, never a
size. Counts that drive the amount of work (statements per phase, hot
versus cold literals, statements per kind, shapes per kind) are fixed
quotas that the seed only *shuffles*, so two seeds do the same amount
of work on different inputs.

:func:`write_inputs` turns a workload into the three files the child
process sees — ``trace.jsonl``, ``rows.npz`` and ``spec.json`` — and
:func:`load_inputs` turns them back into a database, the candidate
configurations and the run parameters. Nothing here imports from
``repro.bench``.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core import default_arms, enumerate_configurations
from repro.sqlengine import Database, IndexDef, ViewDef
from repro.workload import (MIX_A, MIX_B, MIX_C, MIX_D, Statement,
                            Workload, save_trace)

#: Compression is part of a structure's identity but is not exported
#: by a package ``__init__``; the enum is reached through a definition.
Compression = type(IndexDef("t", ("a",)).compression)
NONE, LIGHT, HEAVY = Compression(0), Compression(1), Compression(2)

TABLE = "t"
COLUMNS = ("a", "b", "c", "d", "e", "f")
DOMAIN = 500_000          # every column holds integers in [0, DOMAIN)
#: Literals stay this far inside the domain: a literal beyond the
#: loaded data's min/max has selectivity 0 and would add a template of
#: its own on some seeds only.
MARGIN = DOMAIN // 100
HOT_VALUES = 1024         # size of the hot literal set
HOT_SHARE = 0.7           # share of literals drawn from the hot set


@dataclass(frozen=True)
class WorkloadSpec:
    """One benchmark workload.

    Attributes:
        name: the name later issues refer to.
        why: one line on what the workload is there to show.
        layer: the layer group expected to hold the largest self time
            (see ``ledger.LAYER_GROUPS``).
        columns: table columns the trace touches.
        statements / phases: trace length and design phases (the
            summary's block size is ``statements // phases``).
        shapes: size of the seeded shape pool (0 = built in place).
        rows: table rows loaded before statistics are taken.
        candidates: which candidate set :func:`candidate_structures`
            builds.
        run: what the child does with the problem — ``kind`` is
            ``advisor`` (``advisor`` + ``k``), ``sweep`` (``ks``) or
            ``tuner`` (``observe_every``).
    """

    name: str
    why: str
    layer: str
    columns: Tuple[str, ...]
    statements: int
    phases: int
    shapes: int
    rows: int
    candidates: str
    run: Dict[str, object]


WORKLOADS: Dict[str, WorkloadSpec] = {spec.name: spec for spec in (
    WorkloadSpec(
        name="long_trace",
        why="Long point-query trace over a 22-configuration space: the "
            "front end (trace read, lex/parse, template, summary fold) "
            "does nearly all the work and what-if calls are few.",
        layer="front_end", columns=COLUMNS[:4],
        statements=42_000, phases=12, shapes=0, rows=50_000,
        candidates="paper",
        run={"kind": "advisor", "advisor": "lp", "k": 3}),
    WorkloadSpec(
        name="rich_templates",
        why="Hundreds of statement shapes with DML beside reads over "
            "137 configurations: EXEC costing (signature + what-if "
            "estimate under exec_matrix) dominates.",
        layer="exec_costing", columns=COLUMNS,
        statements=3_000, phases=30, shapes=300, rows=50_000,
        candidates="rich",
        run={"kind": "advisor", "advisor": "kaware", "k": 4}),
    WorkloadSpec(
        name="wide_space",
        why="Few shapes over a wide candidate space: the |C|^2 TRANS "
            "fill dominates, then the k-aware DP; EXEC costing is "
            "small.",
        layer="trans_fill", columns=COLUMNS,
        statements=6_000, phases=60, shapes=40, rows=50_000,
        candidates="wide",
        run={"kind": "advisor", "advisor": "kaware", "k": 10}),
    WorkloadSpec(
        name="k_sweep",
        why="The paper's 'k sets tightness of fit' use: sweep k, take "
            "the knee, solve there; the k-aware DP dominates and "
            "costing is a few hundred calls.",
        layer="solver", columns=COLUMNS,
        statements=9_000, phases=90, shapes=40, rows=50_000,
        candidates="rich",
        run={"kind": "sweep", "ks": 17}),
    WorkloadSpec(
        name="online_stream",
        why="The same CostService used through its scalar calls by "
            "the safety-gated bandit tuner: shift detection and the "
            "tuner loop dominate, costing runs the scalar route.",
        layer="online", columns=COLUMNS,
        statements=3_600, phases=12, shapes=0, rows=50_000,
        candidates="arms",
        run={"kind": "tuner", "observe_every": 10}),
)}


def scaled(spec: WorkloadSpec, scale: float) -> WorkloadSpec:
    """``spec`` with trace length and table size multiplied by
    ``scale`` (``--quick`` runs at 0.1); phases and shape pools keep
    their counts so the problem keeps its form."""
    if scale == 1.0:
        return spec
    per_phase = max(1, int(spec.statements * scale) // spec.phases)
    return WorkloadSpec(
        name=spec.name, why=spec.why, layer=spec.layer,
        columns=spec.columns, statements=per_phase * spec.phases,
        phases=spec.phases, shapes=spec.shapes,
        rows=max(2_000, int(spec.rows * scale)),
        candidates=spec.candidates, run=spec.run)


# ----------------------------------------------------------------------
# candidate structures
# ----------------------------------------------------------------------

def candidate_structures(kind: str) -> List[object]:
    """The candidate structures of a workload's design space.

    * ``paper`` — the paper's six indexes on a..d; at most two per
      configuration gives 22 configurations.
    * ``rich`` — 16 structures: single-column indexes plain and HEAVY,
      two composites, two projection views (137 configurations).
    * ``wide`` — 20 structures: single-column indexes at every level,
      one composite, one view (211 configurations).
    * ``arms`` — ten base structures; ``default_arms`` adds the HEAVY
      variant of each (21 arms with the empty design).
    """
    singles = [IndexDef(TABLE, (c,)) for c in COLUMNS]
    pairs = (("a", "d"), ("b", "e"), ("c", "f"), ("a", "b"),
             ("c", "d"), ("e", "f"))
    if kind == "paper":
        return singles[:4] + [IndexDef(TABLE, ("a", "b")),
                              IndexDef(TABLE, ("c", "d"))]
    if kind == "rich":
        return (singles
                + [d.with_compression(HEAVY) for d in singles]
                + [IndexDef(TABLE, p) for p in pairs[:2]]
                + [ViewDef(TABLE, p) for p in pairs[:2]])
    if kind == "wide":
        return ([d.with_compression(level) for d in singles
                 for level in (NONE, LIGHT, HEAVY)]
                + [IndexDef(TABLE, pairs[0]), ViewDef(TABLE, pairs[0])])
    if kind == "arms":
        return singles + [IndexDef(TABLE, p) for p in pairs[:4]]
    raise ValueError(f"unknown candidate set {kind!r}")


def _encode_structure(definition) -> List[object]:
    kind = "view" if isinstance(definition, ViewDef) else "index"
    return [kind, list(definition.columns), int(definition.compression)]


def _decode_structure(record: Sequence[object]):
    kind, columns, level = record
    cls = ViewDef if kind == "view" else IndexDef
    return cls(TABLE, tuple(columns), Compression(level))


# ----------------------------------------------------------------------
# traces
# ----------------------------------------------------------------------

def _rng(seed: int, name: str) -> np.random.Generator:
    """An independent stream per (seed, workload)."""
    return np.random.default_rng([seed, list(WORKLOADS).index(name)])


def _counts(shares: Sequence[float], n: int) -> List[int]:
    """``n`` split by ``shares``: ``round(share * n)`` each, the last
    category taking the remainder."""
    counts = [int(round(share * n)) for share in shares[:-1]]
    return counts + [n - sum(counts)]


def _quota(rng: np.random.Generator, shares: Sequence[float],
           n: int, block: int = 0) -> np.ndarray:
    """``n`` category labels, exactly :func:`_counts` of each,
    shuffled — the seed moves positions, never counts. With ``block``
    the quota holds inside every run of ``block`` labels as well."""
    if block and block < n:
        return np.concatenate([_quota(rng, shares, block)
                               for _ in range(n // block)]
                              + [_quota(rng, shares, n % block)])
    return rng.permutation(np.repeat(np.arange(len(shares)),
                                     _counts(shares, n)))


def _values(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.integers(MARGIN, DOMAIN - MARGIN, n)


def _literals(rng: np.random.Generator, hot: np.ndarray,
              n: int) -> np.ndarray:
    """``n`` literals: a fixed quota from the hot set, the rest cold
    (uniform over the domain)."""
    is_hot = _quota(rng, (HOT_SHARE, 1.0 - HOT_SHARE), n) == 0
    return np.where(is_hot, hot[rng.integers(0, len(hot), n)],
                    _values(rng, n))


def _point(column: str, value: int) -> str:
    return f"SELECT {column} FROM {TABLE} WHERE {column} = {value}"


def _long_trace(spec: WorkloadSpec, rng) -> List[Tuple[str, str]]:
    """Point queries on a..d, phases rotating the Table 1 mixes."""
    hot = _values(rng, HOT_VALUES)
    per_phase = spec.statements // spec.phases
    out: List[Tuple[str, str]] = []
    for phase in range(spec.phases):
        mix = (MIX_A, MIX_B, MIX_C, MIX_D)[phase % 4]
        columns = mix.columns
        picks = _quota(rng, [mix.weights[c] for c in columns],
                       per_phase)
        values = _literals(rng, hot, per_phase)
        out.extend((_point(columns[int(c)], int(v)), mix.name)
                   for c, v in zip(picks, values))
    return out


#: Shape kinds of the shape-pool workloads with their pool shares.
_SHAPE_KINDS = (("range", 0.30), ("probe2", 0.15), ("order", 0.10),
                ("count", 0.10), ("point", 0.15), ("update", 0.12),
                ("delete", 0.08))


def _shape_pool(spec: WorkloadSpec, rng) -> List[Tuple[str, str]]:
    """``spec.shapes`` fixed SQL strings as ``(sql, kind)``.

    Kind quotas and the columns of shape ``i`` (first ``i mod 6``,
    second a fixed function of ``i``) are fixed, so every seed yields
    the same shapes up to their numbers; the seed picks range widths
    (10^2..10^5.5) and literals. Shape ``i`` belongs to group
    ``i mod 3``, which ties each group to two columns — phases
    favouring different groups want different designs.
    """
    columns = spec.columns
    counts = _counts([share for _, share in _SHAPE_KINDS], spec.shapes)
    kinds = [kind for (kind, _), count in zip(_SHAPE_KINDS, counts)
             for _ in range(count)]
    pool: List[Tuple[str, str]] = []
    for i, kind in enumerate(kinds):
        x = columns[i % len(columns)]
        y = columns[(i + 1 + i // len(columns) % (len(columns) - 1))
                    % len(columns)]
        width = int(10 ** rng.uniform(2.0, 5.5))
        lo = int(rng.integers(MARGIN, DOMAIN - MARGIN - width))
        value = int(_values(rng, 1)[0])
        if kind == "range":
            sql = (f"SELECT {x} FROM {TABLE} WHERE {x} "
                   f"BETWEEN {lo} AND {lo + width}")
        elif kind == "probe2":
            sql = (f"SELECT {x}, {y} FROM {TABLE} WHERE {x} = {value} "
                   f"AND {y} < {lo + width}")
        elif kind == "order":
            sql = (f"SELECT {x} FROM {TABLE} WHERE {x} < {width} "
                   f"ORDER BY {x}")
        elif kind == "count":
            sql = (f"SELECT COUNT(*) FROM {TABLE} WHERE {x} "
                   f"BETWEEN {lo} AND {lo + width}")
        elif kind == "point":
            sql = _point(x, value)
        elif kind == "update":
            sql = (f"UPDATE {TABLE} SET {y} = {value} WHERE {x} "
                   f"BETWEEN {lo} AND {lo + width // 100}")
        else:
            sql = f"DELETE FROM {TABLE} WHERE {x} = {value}"
        pool.append((sql, kind))
    return pool


#: Phases per era of the shape-pool workloads: the favoured shape
#: group moves on (a major shift) every ``ERA`` phases.
ERA = 5


def _shaped_trace(spec: WorkloadSpec, rng) -> List[Tuple[str, str]]:
    """Statements drawn from the shape pool; a phase takes 80 % of its
    statements from its era's shape group (eras rotate through the
    three groups) and 20 % from the other two, so the trace has one
    major shift per era and draw noise between phases."""
    pool = _shape_pool(spec, rng)
    groups = [np.arange(g, len(pool), 3) for g in range(3)]
    per_phase = spec.statements // spec.phases
    out: List[Tuple[str, str]] = []
    for phase in range(spec.phases):
        era = phase // ERA
        favoured = groups[era % 3]
        others = np.concatenate([groups[(era + 1) % 3],
                                 groups[(era + 2) % 3]])
        from_favoured = _quota(rng, (0.8, 0.2), per_phase) == 0
        picks = np.where(
            from_favoured,
            favoured[rng.integers(0, len(favoured), per_phase)],
            others[rng.integers(0, len(others), per_phase)])
        out.extend(pool[int(i)] for i in picks)
    return out


#: Distinct range predicates (position, width) of the online stream.
#: A small pool, so the set of templates the tuner ever prices is the
#: same size for every seed.
ONLINE_RANGES = 8


def _online_stream(spec: WorkloadSpec, rng) -> List[Tuple[str, str]]:
    """A stream whose hot column moves on (a, b, ... in turn) every
    phase: 80 % point, 10 % range, 6 % UPDATE, 4 % INSERT; 60 % of
    statements hit the phase's hot column.

    The hot share holds inside every observation of the tuner and the
    kind shares inside every five, so the noise between consecutive
    observation profiles — which decides how much work shift
    detection does — is of one size for every seed."""
    columns = spec.columns
    observation = spec.run["observe_every"]
    hot = _values(rng, HOT_VALUES)
    ranges = [(int(lo), 10 ** (2 + j % 3)) for j, lo in
              enumerate(_values(rng, ONLINE_RANGES))]
    per_phase = spec.statements // spec.phases
    out: List[Tuple[str, str]] = []
    for phase in range(spec.phases):
        hot_column = phase % len(columns)
        kinds = _quota(rng, (0.80, 0.10, 0.06, 0.04), per_phase,
                       block=5 * observation)
        on_hot = _quota(rng, (0.6, 0.4), per_phase,
                        block=observation) == 0
        column_ids = np.where(
            on_hot, hot_column,
            rng.integers(0, len(columns), per_phase))
        values = _literals(rng, hot, per_phase)
        range_ids = rng.integers(0, ONLINE_RANGES, per_phase)
        for kind, ci, value, ri in zip(kinds, column_ids, values,
                                       range_ids):
            x = columns[int(ci)]
            value = int(value)
            if kind == 0:
                out.append((_point(x, value), "point"))
            elif kind == 1:
                lo, width = ranges[int(ri)]
                out.append((f"SELECT {x} FROM {TABLE} WHERE {x} "
                            f"BETWEEN {lo} AND {lo + width}", "range"))
            elif kind == 2:
                y = columns[(int(ci) + 1) % len(columns)]
                out.append((f"UPDATE {TABLE} SET {y} = {int(ri)} "
                            f"WHERE {x} = {value}", "update"))
            else:
                row = ", ".join(str((value + 7919 * j) % DOMAIN)
                                for j in range(len(columns)))
                out.append((f"INSERT INTO {TABLE} "
                            f"({', '.join(columns)}) VALUES ({row})",
                            "insert"))
    return out


_GENERATORS = {"long_trace": _long_trace,
               "rich_templates": _shaped_trace,
               "wide_space": _shaped_trace, "k_sweep": _shaped_trace,
               "online_stream": _online_stream}


def generate_trace(spec: WorkloadSpec, seed: int) -> Workload:
    """The workload's statement sequence for ``seed``."""
    pairs = _GENERATORS[spec.name](spec, _rng(seed, spec.name))
    return Workload((Statement(sql, tag=tag) for sql, tag in pairs),
                    name=spec.name)


def generate_rows(spec: WorkloadSpec, seed: int
                  ) -> Dict[str, np.ndarray]:
    """Uniform table data over the value domain, seeded."""
    rng = np.random.default_rng([seed, 101])
    return {column: rng.integers(0, DOMAIN, spec.rows)
            for column in COLUMNS}


# ----------------------------------------------------------------------
# the files between driver and child
# ----------------------------------------------------------------------

def write_inputs(spec: WorkloadSpec, seed: int,
                 directory: Path) -> Dict[str, object]:
    """Generate the workload and write its three input files; returns
    facts about the inputs (sizes, distinct strings) for the report."""
    directory.mkdir(parents=True, exist_ok=True)
    trace = generate_trace(spec, seed)
    save_trace(trace, directory / "trace.jsonl")
    np.savez(directory / "rows.npz", **generate_rows(spec, seed))
    record = {
        "workload": spec.name, "seed": seed,
        "columns": list(COLUMNS),
        "block_size": spec.statements // spec.phases,
        "candidates": [_encode_structure(d) for d in
                       candidate_structures(spec.candidates)],
        "run": spec.run,
    }
    (directory / "spec.json").write_text(json.dumps(record, indent=1))
    return {"statements": len(trace),
            "distinct_sql": len({s.sql for s in trace})}


@dataclass
class Inputs:
    """What the child rebuilds from the input files."""

    workload: str
    seed: int
    trace_path: Path
    block_size: int
    db: Database
    candidates: List[object]
    configurations: Tuple[object, ...]
    run: Dict[str, object]


def load_inputs(directory: Path) -> Inputs:
    """Build the database (bulk load + statistics) and enumerate the
    configurations (or arms) from the files :func:`write_inputs`
    left."""
    record = json.loads((directory / "spec.json").read_text())
    db = Database()
    db.create_table(TABLE, [(c, "INTEGER") for c in record["columns"]])
    with np.load(directory / "rows.npz") as rows:
        db.bulk_load(TABLE, {c: rows[c] for c in record["columns"]})
    db.stats(TABLE)
    candidates = [_decode_structure(r) for r in record["candidates"]]
    if record["run"]["kind"] == "tuner":
        configurations = default_arms(candidates, levels=(NONE, HEAVY))
    else:
        configurations = tuple(enumerate_configurations(
            candidates, max_indexes=2))
    return Inputs(workload=record["workload"], seed=record["seed"],
                  trace_path=directory / "trace.jsonl",
                  block_size=record["block_size"], db=db,
                  candidates=candidates,
                  configurations=configurations, run=record["run"])


def literal_stripped_shapes(trace_path: Path) -> int:
    """Distinct statement shapes in a trace file once every number is
    replaced by ``?`` — the denominator of ``sql.parses_per_shape``."""
    number = re.compile(r"\b\d+\b")
    shapes = set()
    with trace_path.open(encoding="utf-8") as handle:
        next(handle)
        for line in handle:
            shapes.add(number.sub("?", json.loads(line)["sql"]))
    return len(shapes)
