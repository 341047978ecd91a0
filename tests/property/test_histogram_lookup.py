"""Property tests for the histogram's bucket lookup and builder.

``EquiDepthHistogram`` finds a probe's bucket with ``bisect_left`` on
its boundary tuple. It used ``np.searchsorted``, which converts the
tuple to an array on every call. The swap must be unobservable:

* the lookup equals a verbatim copy of the ``np.searchsorted``
  version on ``from_array`` histograms — duplicate-heavy data, probes
  below, at, between and above the boundaries, ``±inf`` and NaN;
* ``from_array`` on finite arrays equals the old builder bit for bit
  (NaN and ``±inf`` data now build sorted, NaN-free boundaries, the
  precondition for ``bisect`` to be exact);
* a range selectivity calls no NumPy function.

Run with ``--hypothesis-seed=0``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.sqlengine import stats
from repro.sqlengine.stats import (DEFAULT_BUCKETS, ColumnStats,
                                   EquiDepthHistogram)


def reference_fraction_strictly_below(hist, value):
    """The lookup before ``bisect``, verbatim."""
    bounds = hist.boundaries
    # side="left" so that zero-width buckets equal to ``value``
    # (heavy duplicates in the data) do not count as mass below it.
    idx = int(np.searchsorted(bounds, value, side="left")) - 1
    if idx < 0:
        return 0.0
    idx = min(idx, hist.n_buckets - 1)
    lo, hi = bounds[idx], bounds[idx + 1]
    if hi == lo:
        within = 1.0 if value > hi else 0.0
    else:
        within = min(1.0, (value - lo) / (hi - lo))
    return (idx + within) / hist.n_buckets


def reference_from_array(values, n_buckets=DEFAULT_BUCKETS):
    """The builder before the non-finite fix, verbatim."""
    if len(values) == 0:
        return EquiDepthHistogram(boundaries=(0.0, 0.0), total=0)
    buckets = max(1, min(n_buckets, len(values)))
    quantiles = np.linspace(0.0, 1.0, buckets + 1)
    boundaries = np.quantile(values.astype(np.float64), quantiles)
    return EquiDepthHistogram(
        boundaries=tuple(float(b) for b in boundaries),
        total=int(len(values)))


def _bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


def _probes(bounds, extra):
    """Probes below, at, between and above every boundary."""
    out = [-math.inf, math.inf, math.nan, bounds[0] - 1.0,
           bounds[-1] + 1.0, *extra]
    for lo, hi in zip(bounds, bounds[1:]):
        out.append(lo)
        out.append(hi)
        if math.isfinite(lo) and math.isfinite(hi):
            out.append(lo + (hi - lo) / 2.0)
    return out


# Few distinct values: zero-width buckets everywhere.
duplicate_heavy = hnp.arrays(
    dtype=np.float64, shape=st.integers(1, 300),
    elements=st.sampled_from([-3.0, 0.0, 0.0, 1.5, 2.0, 2.0, 2.0, 7.0]))
finite = hnp.arrays(
    dtype=np.float64, shape=st.integers(0, 300),
    elements=st.floats(-1e6, 1e6, allow_nan=False,
                       allow_infinity=False))
non_finite = hnp.arrays(
    dtype=np.float64, shape=st.integers(1, 200),
    elements=st.one_of(
        st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False),
        st.sampled_from([math.nan, math.inf, -math.inf, 0.0, 1.0])))
integers = hnp.arrays(dtype=np.int64, shape=st.integers(0, 300),
                      elements=st.integers(-1000, 1000))
buckets_st = st.sampled_from([1, 2, 3, 8, DEFAULT_BUCKETS])
extra_probes = st.lists(st.floats(-1e7, 1e7, allow_nan=False),
                        max_size=8)


@given(values=st.one_of(duplicate_heavy, finite, non_finite),
       n_buckets=buckets_st, extra=extra_probes)
@settings(max_examples=150, deadline=None)
def test_bisect_lookup_equals_searchsorted(values, n_buckets, extra):
    hist = EquiDepthHistogram.from_array(values, n_buckets)
    for probe in _probes(hist.boundaries, extra):
        new = hist._fraction_strictly_below(probe)
        old = reference_fraction_strictly_below(hist, probe)
        assert _bits([new]) == _bits([old]), (probe, new, old)


@given(values=st.one_of(duplicate_heavy, finite, integers),
       n_buckets=buckets_st)
@settings(max_examples=150, deadline=None)
def test_from_array_on_finite_data_equals_old_builder(values, n_buckets):
    new = EquiDepthHistogram.from_array(values, n_buckets)
    old = reference_from_array(values, n_buckets)
    assert _bits(new.boundaries) == _bits(old.boundaries)
    assert new.total == old.total


@given(values=non_finite, n_buckets=buckets_st)
@settings(max_examples=150, deadline=None)
def test_boundaries_are_sorted_and_nan_free(values, n_buckets):
    hist = EquiDepthHistogram.from_array(values, n_buckets)
    bounds = hist.boundaries
    assert not any(math.isnan(b) for b in bounds)
    assert list(bounds) == sorted(bounds)
    present = values[~np.isnan(values)]
    assert hist.total == len(present)
    if len(present):
        assert bounds[0] == present.min()
        assert bounds[-1] == present.max()


@given(values=non_finite, a=st.floats(-200.0, 200.0),
       b=st.floats(-200.0, 200.0))
@settings(max_examples=150, deadline=None)
def test_non_finite_range_selectivity_is_a_fraction(values, a, b):
    column = ColumnStats.from_array("x", values)
    lo, hi = min(a, b), max(a, b)
    selectivity = column.selectivity_range(lo, hi)
    assert 0.0 <= selectivity <= 1.0
    # NaN rows carry no range mass.
    present = float(np.mean(~np.isnan(values)))
    assert column.selectivity_range(None, None) == \
        pytest.approx(present)


class _NoNumpy:
    def __getattr__(self, name):
        raise AssertionError(f"range selectivity called np.{name}")


def test_range_selectivity_calls_no_numpy(monkeypatch):
    column = ColumnStats.from_array(
        "x", np.random.default_rng(3).integers(0, 1000, 5000))
    expected = [column.selectivity_range(lo, hi, lo_inc, hi_inc)
                for lo, hi in ((None, 300), (250, 700), (900, None),
                               (-5, 2000), (400, 400))
                for lo_inc in (True, False) for hi_inc in (True, False)]

    def explode(*args, **kwargs):
        raise AssertionError("np.searchsorted called")

    monkeypatch.setattr(np, "searchsorted", explode)
    monkeypatch.setattr(stats, "np", _NoNumpy())
    got = [column.selectivity_range(lo, hi, lo_inc, hi_inc)
           for lo, hi in ((None, 300), (250, 700), (900, None),
                          (-5, 2000), (400, 400))
           for lo_inc in (True, False) for hi_inc in (True, False)]
    assert got == expected
