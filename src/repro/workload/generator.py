"""Random query generation.

The paper constructs workloads from simple point queries::

    SELECT <col> FROM t WHERE <col> = <randValue>

with the column drawn from a query mix (a distribution over columns)
and the value uniform over the column domain. This module implements
that template, seeded and reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import WorkloadError
from .model import Statement, Workload


@dataclass(frozen=True)
class QueryMix:
    """A distribution over queried columns (one row of the paper's
    Table 1).

    Attributes:
        name: mix label, e.g. ``"A"``.
        weights: column -> probability; must sum to 1.
    """

    name: str
    weights: Mapping[str, float]

    def __post_init__(self) -> None:
        total = sum(self.weights.values())
        if abs(total - 1.0) > 1e-9:
            raise WorkloadError(
                f"mix {self.name!r} weights sum to {total}, expected 1")
        for column, weight in self.weights.items():
            if weight < 0:
                raise WorkloadError(
                    f"mix {self.name!r} has negative weight on {column!r}")

    @property
    def columns(self) -> List[str]:
        return list(self.weights)


class PointQueryGenerator:
    """Generates the paper's point queries for one table.

    Args:
        table: table name.
        value_ranges: column -> ``(low, high)`` half-open domain for the
            random constant.
        seed: RNG seed; generation is fully reproducible.
    """

    def __init__(self, table: str,
                 value_ranges: Mapping[str, Tuple[int, int]],
                 seed: int = 0):
        if not value_ranges:
            raise WorkloadError("value_ranges must not be empty")
        self.table = table
        self.value_ranges = dict(value_ranges)
        self.rng = np.random.default_rng(seed)

    def query_for(self, column: str, value: int,
                  tag: Optional[str] = None) -> Statement:
        """Build one point query (deterministic; no RNG involved)."""
        if column not in self.value_ranges:
            raise WorkloadError(f"unknown workload column {column!r}")
        sql = (f"SELECT {column} FROM {self.table} "
               f"WHERE {column} = {int(value)}")
        return Statement(sql, tag=tag)

    def sample(self, mix: QueryMix, n: int,
               tag: Optional[str] = None) -> List[Statement]:
        """Draw ``n`` point queries from ``mix``."""
        for column in mix.columns:
            if column not in self.value_ranges:
                raise WorkloadError(
                    f"mix {mix.name!r} uses unknown column {column!r}")
        columns = mix.columns
        probabilities = np.array([mix.weights[c] for c in columns])
        probabilities = probabilities / probabilities.sum()
        choices = self.rng.choice(len(columns), size=n, p=probabilities)
        statements: List[Statement] = []
        label = tag if tag is not None else mix.name
        for choice in choices:
            column = columns[int(choice)]
            lo, hi = self.value_ranges[column]
            value = int(self.rng.integers(lo, hi))
            statements.append(self.query_for(column, value, tag=label))
        return statements


def workload_from_block_mixes(generator: PointQueryGenerator,
                              block_mixes: Sequence[QueryMix],
                              block_size: int,
                              name: Optional[str] = None) -> Workload:
    """Build a workload from an explicit per-block mix sequence (the
    layout of the paper's Table 2 columns)."""
    statements: List[Statement] = []
    for mix in block_mixes:
        statements.extend(generator.sample(mix, block_size))
    return Workload(statements, name=name)
