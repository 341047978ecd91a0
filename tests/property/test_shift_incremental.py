"""Resumable shift detection is unobservable.

``detect_shifts_from_profiles(..., previous=report_of_a_prefix)``
re-scores only the boundaries whose after-window was not yet full and
keeps the rest, with the same ``distance`` / ``_window_average`` calls
in the same order — so three things must hold:

1. for random profile streams, windows and thresholds, folding with
   ``previous=`` (one block at a time, or with a ``previous`` that
   lags several blocks behind) gives a ``ShiftReport`` ``==`` the
   batch one at every prefix — floats included;
2. a call that extends ``previous`` by one profile makes at most
   ``2 * (window + 1)`` ``_window_average`` calls whatever the stream
   length (counts, not time);
3. the tuner's decisions, ``shift_resets`` and ``total_cost`` on the
   chaos ``shift`` scenario equal those of a run whose detector is
   forced back to ``previous=None``.
"""

from hypothesis import given, settings, strategies as st

import pytest

from repro.core import bandit
from repro.faults.scenarios import run_scenario
from repro.workload import analysis
from repro.workload.analysis import (BlockProfile,
                                     detect_shifts_from_profiles)

COLUMNS = ("a", "b", "c", "d")


def _profile(index, weights):
    """Normalised frequencies; zero-weight columns are left out, so
    ``distance`` sees profiles with different key sets."""
    total = sum(weights)
    if not total:
        return BlockProfile(index, {"<other>": 1.0})
    return BlockProfile(index, {c: w / total
                                for c, w in zip(COLUMNS, weights) if w})


streams = st.lists(
    st.tuples(*[st.integers(0, 4)] * len(COLUMNS)), max_size=40
).map(lambda rows: [_profile(i, row) for i, row in enumerate(rows)])
windows = st.integers(1, 5)
thresholds = st.sampled_from([0.05, 0.15, 0.25, 0.4, 0.75])


@settings(max_examples=150, deadline=None)
@given(streams, windows, thresholds)
def test_block_by_block_fold_equals_batch(profiles, window, threshold):
    report = None
    for length in range(len(profiles) + 1):
        report = detect_shifts_from_profiles(
            profiles[:length], window, threshold, previous=report)
        assert report == detect_shifts_from_profiles(
            profiles[:length], window, threshold)
        assert len(report.scores) == length


@settings(max_examples=150, deadline=None)
@given(streams, windows, thresholds, st.data())
def test_lagging_previous_equals_batch(profiles, window, threshold,
                                       data):
    lengths = sorted(data.draw(st.lists(
        st.integers(0, len(profiles)), max_size=6)))
    report = None
    for length in [*lengths, len(profiles)]:
        report = detect_shifts_from_profiles(
            profiles[:length], window, threshold, previous=report)
        assert report == detect_shifts_from_profiles(
            profiles[:length], window, threshold)


@pytest.mark.parametrize("window", [1, 3, 5])
def test_one_new_block_costs_a_window_not_the_stream(monkeypatch,
                                                     window):
    """Every boundary of an A/C/A/C... stream is over the threshold —
    the most window averages a call can make."""
    calls = []
    original = analysis._window_average

    def counting(*args):
        calls.append(args[1:])
        return original(*args)

    monkeypatch.setattr(analysis, "_window_average", counting)
    profiles = [_profile(i, (4, 0, 0, 0) if i % 2 else (0, 0, 4, 0))
                for i in range(400)]
    for length in (2 * window + 1, 50, 400):
        previous = detect_shifts_from_profiles(
            profiles[:length - 1], window, 0.25)
        del calls[:]
        detect_shifts_from_profiles(profiles[:length], window, 0.25,
                                    previous=previous)
        assert 0 < len(calls) <= 2 * (window + 1)
    del calls[:]
    detect_shifts_from_profiles(profiles, window, 0.25)
    assert len(calls) == 2 * 399      # the batch pays per boundary


def test_tuner_decisions_equal_a_from_scratch_detector(monkeypatch):
    carried = run_scenario("shift", seed=0, quick=True).result
    assert carried.safety["shift_resets"] >= 1
    resumed = []

    def from_scratch(profiles, window, threshold, previous):
        resumed.append(previous is not None)
        return detect_shifts_from_profiles(profiles, window, threshold)

    monkeypatch.setattr(bandit, "detect_shifts_from_profiles",
                        from_scratch)
    scratch = run_scenario("shift", seed=0, quick=True).result
    assert any(resumed)
    assert carried.decisions == scratch.decisions
    assert carried.safety == scratch.safety
    assert carried.total_cost == scratch.total_cost
    assert carried.design.assignments == scratch.design.assignments
