"""End-to-end integration: SQL in, constrained design out, replay
measured — the full pipeline across every subsystem."""

import numpy as np
import pytest

from repro import (ConstrainedGraphAdvisor, Database, EMPTY_CONFIGURATION,
                   IndexDef, ProblemInstance, UnconstrainedAdvisor,
                   WhatIfCostProvider, single_index_configurations)
from repro.bench import estimate_replay, replay_design
from repro.core import build_cost_matrices
from repro.workload import (PointQueryGenerator, QueryMix,
                            load_trace, save_trace, segment_by_count,
                            workload_from_block_mixes)


@pytest.fixture(scope="module")
def pipeline():
    """Build db + workload + problem once for the module."""
    db = Database()
    db.create_table("t", [("a", "INTEGER"), ("b", "INTEGER"),
                          ("c", "INTEGER"), ("d", "INTEGER")])
    rng = np.random.default_rng(21)
    db.bulk_load("t", {c: rng.integers(0, 100_000, 30_000)
                       for c in "abcd"})
    generator = PointQueryGenerator(
        "t", {c: (0, 100_000) for c in "abcd"}, seed=3)
    hot_a = QueryMix("hotA", {"a": 0.8, "b": 0.1, "c": 0.05,
                              "d": 0.05})
    hot_c = QueryMix("hotC", {"c": 0.8, "d": 0.1, "a": 0.05,
                              "b": 0.05})
    workload = workload_from_block_mixes(
        generator, [hot_a] * 5 + [hot_c] * 5 + [hot_a] * 5,
        block_size=60)
    segments = segment_by_count(workload, 60)
    candidates = [IndexDef("t", (x,)) for x in "abcd"]
    problem = ProblemInstance(
        segments=tuple(segments),
        configurations=single_index_configurations(candidates),
        initial=EMPTY_CONFIGURATION, final=EMPTY_CONFIGURATION)
    provider = WhatIfCostProvider(db.what_if())
    matrices = build_cost_matrices(problem, provider)
    return db, workload, segments, problem, provider, matrices


class TestFullPipeline:
    def test_constrained_design_tracks_the_two_shifts(self, pipeline):
        _, _, _, problem, provider, matrices = pipeline
        rec = ConstrainedGraphAdvisor(
            2, count_initial_change=False).recommend(
            problem, provider, matrices)
        runs = rec.design.runs()
        assert len(runs) == 3
        assert runs[0].config.label == "{I(a)}"
        assert runs[1].config.label == "{I(c)}"
        assert runs[2].config.label == "{I(a)}"
        assert [r.start for r in runs] == [0, 5, 10]

    def test_replay_of_recommended_design_beats_no_design(self,
                                                          pipeline):
        db, _, segments, problem, provider, matrices = pipeline
        rec = ConstrainedGraphAdvisor(
            2, count_initial_change=False).recommend(
            problem, provider, matrices)
        from repro.core import DesignSequence
        nothing = DesignSequence(EMPTY_CONFIGURATION,
                                 [EMPTY_CONFIGURATION] * len(segments))
        cost_design = replay_design(
            db, segments, rec.design,
            final_config=EMPTY_CONFIGURATION).total_units
        cost_nothing = replay_design(
            db, segments, nothing,
            final_config=EMPTY_CONFIGURATION).total_units
        assert cost_design < 0.5 * cost_nothing
        db.apply_configuration(set())

    def test_estimated_cost_predicts_replay_ranking(self, pipeline):
        db, _, segments, problem, provider, matrices = pipeline
        unconstrained = UnconstrainedAdvisor().recommend(
            problem, provider, matrices)
        constrained = ConstrainedGraphAdvisor(
            1, count_initial_change=False).recommend(
            problem, provider, matrices)
        est_u = estimate_replay(provider, segments,
                                unconstrained.design,
                                EMPTY_CONFIGURATION).total_units
        est_c = estimate_replay(provider, segments,
                                constrained.design,
                                EMPTY_CONFIGURATION).total_units
        met_u = replay_design(db, segments, unconstrained.design,
                              final_config=EMPTY_CONFIGURATION
                              ).total_units
        met_c = replay_design(db, segments, constrained.design,
                              final_config=EMPTY_CONFIGURATION
                              ).total_units
        # k=1 cannot track both shifts: worse than unconstrained in
        # both the estimate and the metered replay.
        assert est_u < est_c
        assert met_u < met_c
        db.apply_configuration(set())

    def test_trace_round_trip_preserves_recommendation(self, pipeline,
                                                       tmp_path):
        _, workload, _, problem, provider, matrices = pipeline
        path = tmp_path / "trace.jsonl"
        save_trace(workload, path)
        reloaded = load_trace(path)
        segments = segment_by_count(reloaded, 60)
        problem2 = ProblemInstance(
            segments=tuple(segments),
            configurations=problem.configurations,
            initial=problem.initial, final=problem.final)
        matrices2 = build_cost_matrices(problem2, provider)
        r1 = ConstrainedGraphAdvisor(2).recommend(problem, provider,
                                                  matrices)
        r2 = ConstrainedGraphAdvisor(2).recommend(problem2, provider,
                                                  matrices2)
        assert [c.label for c in r1.design.assignments] == \
            [c.label for c in r2.design.assignments]

    def test_statement_granularity_also_works(self, pipeline):
        """The paper's exact per-statement formulation, small slice."""
        db, workload, _, problem, provider, _ = pipeline
        tiny = workload[:40]
        segments = segment_by_count(tiny, 1)
        problem2 = ProblemInstance(
            segments=tuple(segments),
            configurations=problem.configurations,
            initial=EMPTY_CONFIGURATION)
        matrices2 = build_cost_matrices(problem2, provider)
        rec = ConstrainedGraphAdvisor(3).recommend(problem2, provider,
                                                   matrices2)
        assert len(rec.design) == 40
        assert rec.change_count <= 3
