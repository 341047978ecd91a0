"""Unit tests for workload analysis (profiles, shifts, k suggestion)."""

import os
import subprocess
import sys

import pytest

import repro
from repro.errors import WorkloadError
from repro.workload import (Statement, Workload, block_profiles,
                            detect_shifts, detect_summary_shifts,
                            make_paper_workload, paper_generator,
                            summarize_statements)
from repro.workload.analysis import (BlockProfile, _queried_column,
                                     detect_shifts_from_profiles,
                                     segment_profile)


@pytest.fixture(scope="module")
def w1():
    return make_paper_workload("W1", paper_generator(seed=3),
                               block_size=100)


class TestBlockProfiles:
    def test_one_profile_per_block(self, w1):
        profiles = block_profiles(w1, 100)
        assert len(profiles) == 30
        assert [p.block_index for p in profiles] == list(range(30))

    def test_frequencies_sum_to_one(self, w1):
        for profile in block_profiles(w1, 100):
            assert sum(profile.frequencies.values()) == \
                pytest.approx(1.0)

    def test_mix_a_block_profile(self, w1):
        # First W1 block is mix A: ~55% a, ~25% b.
        profile = block_profiles(w1, 100)[0]
        assert profile.frequencies["a"] == pytest.approx(0.55,
                                                         abs=0.15)
        assert profile.frequencies.get("c", 0) < 0.3

    def test_non_point_statements_bucketed(self):
        workload = Workload([Statement("DELETE FROM t WHERE a = 1"),
                             Statement("SELECT a FROM t WHERE a = 1")])
        profile = block_profiles(workload, 2)[0]
        assert profile.frequencies["<other>"] == pytest.approx(0.5)

    def test_zero_block_size_raises(self, w1):
        with pytest.raises(WorkloadError):
            block_profiles(w1, 0)

    def test_equal_profiles_of_summarized_phases(self, w1):
        phases = summarize_statements(w1, 100).phases
        expected = [segment_profile(phase, i)
                    for i, phase in enumerate(phases)]
        profiles = block_profiles(w1, 100)
        assert profiles == expected
        assert [list(p.frequencies.items()) for p in profiles] == \
            [list(p.frequencies.items()) for p in expected]


class TestProfileDistance:
    def test_identical_profiles_distance_zero(self):
        p = BlockProfile(0, {"a": 0.5, "b": 0.5})
        assert p.distance(p) == 0.0

    def test_disjoint_profiles_distance_one(self):
        p1 = BlockProfile(0, {"a": 1.0})
        p2 = BlockProfile(1, {"b": 1.0})
        assert p1.distance(p2) == pytest.approx(1.0)

    def test_symmetric(self):
        p1 = BlockProfile(0, {"a": 0.7, "b": 0.3})
        p2 = BlockProfile(1, {"a": 0.2, "b": 0.8})
        assert p1.distance(p2) == pytest.approx(p2.distance(p1))

    def test_independent_of_hash_seed(self):
        # Summed over a set of column names, this pair gave three
        # different floats under PYTHONHASHSEED 0, 1 and 2; dict
        # order gives one.
        script = (
            "from repro.workload.analysis import BlockProfile\n"
            "p1 = BlockProfile(0, {'d': 0.3, 'c': 0.6, 'a': 0.0,"
            " 'f': 0.68, 'b': 0.34})\n"
            "p2 = BlockProfile(1, {'b': 0.31, 'g': 0.82, 'c': 0.48,"
            " 'a': 0.32, 'f': 0.48})\n"
            "print(p1.distance(p2).hex())\n")
        src = os.path.dirname(os.path.dirname(repro.__file__))
        digests = set()
        for seed in ("0", "1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            done = subprocess.run([sys.executable, "-c", script],
                                  env=env, capture_output=True,
                                  text=True, check=True)
            digests.add(done.stdout.strip())
        assert len(digests) == 1


class TestDetectShifts:
    @pytest.mark.parametrize("name", ["W1", "W2", "W3"])
    def test_two_major_shifts_on_paper_workloads(self, name):
        workload = make_paper_workload(name, paper_generator(seed=3),
                                       block_size=100)
        report = detect_shifts(workload, 100)
        assert report.major_shifts == (10, 20), name
        assert report.suggested_k == 2

    def test_minor_shifts_not_counted_as_major(self, w1):
        report = detect_shifts(w1, 100)
        # W1 has 12 minor boundaries (A<->B and C<->D alternations).
        assert len(report.minor_shifts) >= 10
        assert set(report.major_shifts).isdisjoint(
            report.minor_shifts)

    def test_summary_shifts_equal_raw_shifts(self, w1):
        assert detect_summary_shifts(summarize_statements(w1, 100)) == \
            detect_shifts(w1, 100)

    def test_stable_workload_has_no_shifts(self):
        from repro.workload import QueryMix, PointQueryGenerator, \
            workload_from_block_mixes
        generator = PointQueryGenerator("t", {"a": (0, 100),
                                              "b": (0, 100)}, seed=0)
        mix = QueryMix("M", {"a": 0.6, "b": 0.4})
        workload = workload_from_block_mixes(generator, [mix] * 10,
                                             block_size=50)
        report = detect_shifts(workload, 50)
        assert report.major_shifts == ()
        assert report.suggested_k == 0


class TestResumableDetection:
    def test_scores_explain_every_marker(self, w1):
        report = detect_shifts(w1, 100)
        assert len(report.scores) == len(report.profiles) == 30
        assert report.scores[0] is None
        scored = {b for b, s in enumerate(report.scores)
                  if s is not None}
        assert scored == {*report.major_shifts, *report.minor_shifts}
        for boundary in report.major_shifts:
            assert report.scores[boundary] >= report.threshold
        assert (report.window, report.threshold) == (4, 0.25)

    @pytest.mark.parametrize("window, threshold", [
        (0, 0.25), (-1, 0.25), (4, 0.0), (4, -0.5)])
    def test_bad_window_or_threshold_raises(self, w1, window,
                                            threshold):
        with pytest.raises(WorkloadError):
            detect_shifts(w1, 100, window, threshold)

    def test_previous_must_be_a_prefix_report(self, w1):
        profiles = block_profiles(w1, 100)
        previous = detect_shifts_from_profiles(profiles[:12], 3, 0.25)
        assert detect_shifts_from_profiles(
            profiles, 3, 0.25, previous=previous) == \
            detect_shifts_from_profiles(profiles, 3, 0.25)
        rebuilt = block_profiles(w1, 100)    # equal, not identical
        for stream, window, threshold in [
                (profiles[:11], 3, 0.25),    # previous is longer
                (rebuilt, 3, 0.25),          # another stream
                (profiles, 4, 0.25),         # another window
                (profiles, 3, 0.3)]:         # another threshold
            with pytest.raises(WorkloadError):
                detect_shifts_from_profiles(stream, window, threshold,
                                            previous=previous)


class TestSuggestK:
    def test_matches_paper_choice_for_w1(self, w1):
        assert detect_shifts(w1, 100).suggested_k == 2


class TestQueriedColumn:
    @pytest.mark.parametrize("sql", [
        "SELECT a FROM t WHERE a = 1.5.3",   # SqlSyntaxError
        "SELEKT a FROM t",                   # SqlSyntaxError
        "SELECT a, COUNT(*) FROM t",         # SqlUnsupportedError
    ])
    def test_unparseable_statements_profile_as_no_column(self, sql):
        assert _queried_column(Statement(sql)) is None
        profile = block_profiles(Workload([Statement(sql)]), 1)[0]
        assert profile.frequencies == {"<other>": 1.0}

    def test_other_exceptions_propagate(self, monkeypatch):
        import repro.sqlengine.sql.parser as parser
        import repro.workload.model as model

        def broken(_sql):
            raise RuntimeError("not a SQL error")
        monkeypatch.setattr(model, "parse", broken)
        # No shape is bound, so the column comes off the statement's
        # own AST — the parse that raises.
        monkeypatch.setattr(parser, "_SHAPES", {})
        with pytest.raises(RuntimeError):
            _queried_column(Statement("SELECT a FROM t WHERE a = 1"))
