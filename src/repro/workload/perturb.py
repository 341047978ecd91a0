"""Workload perturbations: synthesizing "similar but not identical"
workloads from a representative trace.

The paper's premise is that the input trace is a *representative* of a
workload process, so a good design should survive plausible variations
of it. These generators produce such variations, each preserving the
trace's broad trends while changing the details:

* :func:`resample_values` — same query shapes, fresh constants (the
  W1-vs-"another day of W1" relationship).
* :func:`jitter_blocks` — swap nearby blocks, moving the minor shifts
  around (the W1-vs-W3 out-of-phase relationship).

Both are pure (they return new workloads) and fully seeded.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..errors import WorkloadError
from ..sqlengine.sql.ast import Comparison, SelectStmt
from .model import Statement, Workload


def resample_values(workload: Workload, seed: int,
                    value_range: Optional[tuple] = None) -> Workload:
    """Re-draw the constants of point queries, keeping columns/tags.

    Non-point statements are passed through unchanged. If
    ``value_range`` is omitted, each new constant is drawn from the
    range spanned by the trace's own constants on that column.
    """
    rng = np.random.default_rng(seed)
    observed: dict = {}
    if value_range is None:
        for statement in workload:
            point = _as_point(statement)
            if point is not None:
                column, value = point
                lo, hi = observed.get(column, (value, value))
                observed[column] = (min(lo, value), max(hi, value))
    statements: List[Statement] = []
    for statement in workload:
        point = _as_point(statement)
        if point is None:
            statements.append(statement)
            continue
        column, _ = point
        if value_range is not None:
            lo, hi = value_range
        else:
            lo, hi = observed[column]
        value = int(rng.integers(lo, max(lo + 1, hi + 1)))
        select = statement.ast
        sql = (f"SELECT {', '.join(select.columns)} FROM "
               f"{select.table} WHERE {column} = {value}")
        statements.append(Statement(sql, tag=statement.tag))
    return Workload(statements, name=_derived_name(workload, "values"))


def jitter_blocks(workload: Workload, block_size: int, seed: int,
                  max_displacement: int = 2,
                  swap_fraction: float = 0.5) -> Workload:
    """Swap a fraction of blocks with a nearby block.

    Moves minor shifts around without touching the major phase
    structure (as long as ``max_displacement`` stays below the phase
    length in blocks).
    """
    if block_size <= 0:
        raise WorkloadError("block_size must be positive")
    rng = np.random.default_rng(seed)
    blocks = [workload.statements[i:i + block_size]
              for i in range(0, len(workload), block_size)]
    order = list(range(len(blocks)))
    for i in range(len(order)):
        if rng.random() < swap_fraction:
            offset = int(rng.integers(1, max_displacement + 1))
            j = min(len(order) - 1, i + offset)
            order[i], order[j] = order[j], order[i]
    statements: List[Statement] = []
    for index in order:
        statements.extend(blocks[index])
    return Workload(statements, name=_derived_name(workload, "jitter"))


def _as_point(statement: Statement):
    """Return ``(column, value)`` if the statement is a single-equality
    point SELECT, else None."""
    ast = statement.ast
    if not isinstance(ast, SelectStmt) or ast.where is None:
        return None
    predicates = ast.where.predicates
    if len(predicates) != 1:
        return None
    predicate = predicates[0]
    if not isinstance(predicate, Comparison) or predicate.op != "=":
        return None
    if not isinstance(predicate.value, int):
        return None
    return predicate.column, predicate.value


def _derived_name(workload: Workload, suffix: str) -> Optional[str]:
    return f"{workload.name}~{suffix}" if workload.name else None
