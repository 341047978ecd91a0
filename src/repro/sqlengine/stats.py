"""Table and column statistics with equi-depth histograms.

The what-if optimizer and the planner share these statistics to
estimate predicate selectivities. Numeric columns get an equi-depth
histogram plus an exact distinct count; string columns get distinct
counts only (equality selectivity is what the workloads need).

Non-finite FLOAT values: a NaN satisfies no comparison in the
executor, so NaN rows carry no range mass. The minimum, maximum and
histogram are built from the non-NaN values, and a range selectivity
is scaled by their share of the column. ``±inf`` values are kept:
when a column holds one, every boundary is a data value (no
interpolation, which would turn ``inf - inf`` into NaN), so ``±inf``
is an outer boundary. A finite, NaN-free column interpolates its
boundaries linearly (``np.quantile``'s default). Either way the
boundaries are sorted and NaN-free, which the bucket lookup's
``bisect`` relies on.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..errors import EngineError
from .storage import HeapTable

#: Number of equi-depth buckets kept per numeric column.
DEFAULT_BUCKETS = 64


@dataclass(frozen=True)
class EquiDepthHistogram:
    """An equi-depth histogram over a numeric column.

    ``boundaries`` has ``n_buckets + 1`` entries; bucket ``i`` spans
    ``[boundaries[i], boundaries[i+1])`` (last bucket inclusive) and
    holds roughly ``total / n_buckets`` rows.
    """

    boundaries: Tuple[float, ...]
    total: int

    @classmethod
    def from_array(cls, values: np.ndarray,
                   n_buckets: int = DEFAULT_BUCKETS
                   ) -> "EquiDepthHistogram":
        data = values.astype(np.float64)
        method = "linear"
        if values.dtype.kind == "f" and not np.isfinite(data).all():
            data = data[~np.isnan(data)]
            method = "lower"
        if len(data) == 0:
            return cls(boundaries=(0.0, 0.0), total=0)
        buckets = max(1, min(n_buckets, len(data)))
        quantiles = np.linspace(0.0, 1.0, buckets + 1)
        boundaries = np.quantile(data, quantiles, method=method)
        return cls(boundaries=tuple(float(b) for b in boundaries),
                   total=int(len(data)))

    @property
    def n_buckets(self) -> int:
        return len(self.boundaries) - 1

    def fraction_below(self, value: float, inclusive: bool) -> float:
        """Estimated fraction of rows with ``col < value`` (or ``<=``).

        Linear interpolation within the containing bucket (the classic
        equi-depth estimator). The mass *at* the boundary value is not
        tracked per-value, so inclusive bounds only matter at the domain
        maximum; equality mass elsewhere is handled by the planner via
        ``selectivity_eq``.
        """
        if self.total == 0:
            return 0.0
        bounds = self.boundaries
        if value < bounds[0]:
            return 0.0
        if value > bounds[-1]:
            return 1.0
        if value == bounds[-1] and inclusive:
            return 1.0
        return self._fraction_strictly_below(value)

    def _fraction_strictly_below(self, value: float) -> float:
        bounds = self.boundaries
        # bisect_left so that zero-width buckets equal to ``value``
        # (heavy duplicates in the data) do not count as mass below it.
        idx = bisect_left(bounds, value) - 1
        if idx < 0:
            if value == value:
                return 0.0
            # A NaN probe sorts after every boundary (np.searchsorted's
            # order for NaN).
            idx = self.n_buckets
        idx = min(idx, self.n_buckets - 1)
        lo, hi = bounds[idx], bounds[idx + 1]
        if hi == lo:
            within = 1.0 if value > hi else 0.0
        else:
            within = min(1.0, (value - lo) / (hi - lo))
        return (idx + within) / self.n_buckets

    def selectivity_range(self, lo: Optional[float], hi: Optional[float],
                          lo_inclusive: bool = True,
                          hi_inclusive: bool = True) -> float:
        """Estimated fraction of rows in the interval."""
        below_hi = 1.0 if hi is None else self.fraction_below(
            hi, inclusive=hi_inclusive)
        below_lo = 0.0 if lo is None else self.fraction_below(
            lo, inclusive=not lo_inclusive)
        return max(0.0, min(1.0, below_hi - below_lo))


@dataclass(frozen=True)
class ColumnStats:
    """Statistics for one column."""

    name: str
    n_values: int
    n_distinct: int
    min_value: Optional[float]
    max_value: Optional[float]
    histogram: Optional[EquiDepthHistogram]

    @classmethod
    def from_array(cls, name: str, values: np.ndarray) -> "ColumnStats":
        """Statistics read off one sorted copy of the column.

        NaNs sort last, so the non-NaN values are the histogram's
        ``total``-long prefix: their distinct count is one more than
        their adjacent differences, and all NaNs count as one value.
        ``np.quantile`` is order-invariant, so the histogram gets the
        sorted copy.
        """
        n = int(len(values))
        if n == 0:
            return cls(name, 0, 0, None, None, None)
        ordered = np.sort(values)
        present = ordered
        histogram = None
        if values.dtype.kind in "if":
            histogram = EquiDepthHistogram.from_array(ordered)
            present = ordered[:histogram.total]
        distinct = (int(np.count_nonzero(present[1:] != present[:-1]))
                    + (len(present) > 0) + (len(present) < n))
        if histogram is None or len(present) == 0:
            return cls(name, n, distinct, None, None, histogram)
        return cls(name, n, distinct, float(present[0]),
                   float(present[-1]), histogram)

    def selectivity_eq(self, value) -> float:
        """Selectivity of ``col = value``: uniform over distinct values,
        clipped to zero outside the observed domain for numerics."""
        if self.n_values == 0 or self.n_distinct == 0:
            return 0.0
        if (self.min_value is not None and
                isinstance(value, (int, float))):
            if value < self.min_value or value > self.max_value:
                return 0.0
        return 1.0 / self.n_distinct

    def selectivity_range(self, lo, hi, lo_inclusive: bool = True,
                          hi_inclusive: bool = True) -> float:
        if self.n_values == 0:
            return 0.0
        if self.histogram is None:
            # No histogram (string column): fall back to a fixed guess,
            # the standard approach for unanalyzable predicates.
            return 0.05
        lo_f = None if lo is None else float(lo)
        hi_f = None if hi is None else float(hi)
        selectivity = self.histogram.selectivity_range(
            lo_f, hi_f, lo_inclusive, hi_inclusive)
        if self.histogram.total != self.n_values:
            # NaN rows satisfy no comparison: no range mass.
            selectivity *= self.histogram.total / self.n_values
        return selectivity


@dataclass(frozen=True)
class TableStats:
    """Statistics for one table."""

    table: str
    nrows: int
    n_pages: int
    row_width: int
    columns: Dict[str, ColumnStats]

    @classmethod
    def from_table(cls, table: HeapTable) -> "TableStats":
        rids = table.live_rids()
        columns = {}
        for column in table.schema.columns:
            values = table.column_array(column.name)[rids]
            columns[column.name] = ColumnStats.from_array(
                column.name, values)
        return cls(table=table.schema.name, nrows=int(len(rids)),
                   n_pages=table.n_pages,
                   row_width=table.schema.row_width, columns=columns)

    def column(self, name: str) -> ColumnStats:
        try:
            return self.columns[name]
        except KeyError:
            raise EngineError(
                f"no statistics for column {name!r} of {self.table!r}"
            ) from None


def combined_selectivity(selectivities: Sequence[float]) -> float:
    """Independence-assumption AND combination, clipped to [0, 1]."""
    out = 1.0
    for s in selectivities:
        out *= max(0.0, min(1.0, s))
    return out

