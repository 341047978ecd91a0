"""Tests for design deployment and workload replay."""

import numpy as np
import pytest

from repro.bench import estimate_replay, replay_design
from repro.core import (Configuration, DesignSequence,
                        EMPTY_CONFIGURATION, WhatIfCostProvider)
from repro.errors import DesignError
from repro.sqlengine import Database, IndexDef
from repro.workload import (make_paper_workload, paper_generator,
                            segment_by_count)

A = Configuration({IndexDef("t", ("a",))})
B = Configuration({IndexDef("t", ("b",))})


@pytest.fixture
def db():
    db = Database()
    db.create_table("t", [("a", "INTEGER"), ("b", "INTEGER"),
                          ("c", "INTEGER"), ("d", "INTEGER")])
    rng = np.random.default_rng(0)
    db.bulk_load("t", {c: rng.integers(0, 500_000, 10_000)
                       for c in "abcd"})
    return db


@pytest.fixture
def segments():
    workload = make_paper_workload("W1", paper_generator(seed=2),
                                   block_size=20)[:120]
    return segment_by_count(workload, 20)  # 6 segments


class TestReplayDesign:
    def test_transitions_applied_and_counted(self, db, segments):
        design = DesignSequence(EMPTY_CONFIGURATION,
                                [A, A, B, B, A, A])
        report = replay_design(db, segments, design)
        assert report.design_changes == 3
        assert db.current_configuration() == frozenset(A.indexes)

    def test_final_config_transition(self, db, segments):
        design = DesignSequence(EMPTY_CONFIGURATION, [A] * 6)
        report = replay_design(db, segments, design,
                               final_config=EMPTY_CONFIGURATION)
        assert db.current_configuration() == frozenset()
        assert report.design_changes == 2  # into A, back to empty

    def test_exec_units_positive_per_segment(self, db, segments):
        design = DesignSequence(EMPTY_CONFIGURATION, [A] * 6)
        report = replay_design(db, segments, design)
        assert len(report.segments) == 6
        assert all(s.exec_units > 0 for s in report.segments)
        assert report.total_units == pytest.approx(
            report.exec_units + report.trans_units)

    def test_length_mismatch_raises(self, db, segments):
        design = DesignSequence(EMPTY_CONFIGURATION, [A])
        with pytest.raises(DesignError):
            replay_design(db, segments, design)

    def test_better_design_measures_cheaper(self, db, segments):
        # Phase 1 of W1 queries mostly a/b: an a-index beats none.
        no_index = DesignSequence(EMPTY_CONFIGURATION,
                                  [EMPTY_CONFIGURATION] * 6)
        with_index = DesignSequence(EMPTY_CONFIGURATION, [A] * 6)
        cost_none = replay_design(db, segments, no_index).total_units
        cost_a = replay_design(db, segments, with_index).total_units
        assert cost_a < cost_none


class TestEstimateReplay:
    def test_estimate_agrees_with_replay_on_ranking(self, db,
                                                    segments):
        """Cost-model pricing must rank designs like metered replays."""
        provider = WhatIfCostProvider(db.what_if())
        designs = [DesignSequence(EMPTY_CONFIGURATION, assignment)
                   for assignment in (
                       [EMPTY_CONFIGURATION] * 6, [A] * 6,
                       [A, A, B, B, A, A])]
        estimated = [estimate_replay(provider, segments, d).total_units
                     for d in designs]
        metered = [replay_design(db, segments, d).total_units
                   for d in designs]
        assert np.argsort(estimated).tolist() == \
            np.argsort(metered).tolist()

    def test_estimate_counts_transitions(self, db, segments):
        provider = WhatIfCostProvider(db.what_if())
        design = DesignSequence(EMPTY_CONFIGURATION,
                                [A, B, A, B, A, B])
        report = estimate_replay(provider, segments, design)
        assert report.design_changes == 6
        assert report.trans_units > 0

    def test_estimate_final_config(self, db, segments):
        provider = WhatIfCostProvider(db.what_if())
        design = DesignSequence(EMPTY_CONFIGURATION, [A] * 6)
        with_final = estimate_replay(provider, segments, design,
                                     final_config=EMPTY_CONFIGURATION)
        without = estimate_replay(provider, segments, design)
        assert with_final.trans_units > without.trans_units
        assert with_final.design_changes == without.design_changes + 1
