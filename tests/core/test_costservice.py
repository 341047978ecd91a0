"""Tests for the batched, instrumented :class:`CostService`.

The contract under test is the tentpole one: batching and caching may
change *how many* optimizer calls are issued, but never a single
matrix entry — the batched service must be bit-identical to the serial
``WhatIfCostProvider`` path on every paper workload.
"""

import time

import numpy as np
import pytest

from repro.core import (Configuration, ConstrainedGraphAdvisor,
                        CostService, EMPTY_CONFIGURATION,
                        MatrixCostProvider, ProblemInstance,
                        UnconstrainedAdvisor, WhatIfCostProvider,
                        build_cost_matrices, single_index_configurations,
                        supports_batching, sweep_k, validated_k)
from repro.core.bandit import BanditTuner, ReactiveRule, default_arms
from repro.sqlengine import IndexDef
from repro.workload import (PhaseSummary, Segment, Statement, atoms_of,
                            jitter_blocks, make_paper_workload,
                            paper_generator, segment_by_count,
                            summarize_segments)

BLOCK = 50


@pytest.fixture()
def service(small_db):
    """A fresh CostService per test (counters start at zero)."""
    return CostService(small_db.what_if())


def _problem(workload_name, paper_candidates, seed=5):
    workload = make_paper_workload(workload_name,
                                   paper_generator(seed=seed),
                                   block_size=BLOCK)
    return ProblemInstance(
        segments=tuple(segment_by_count(workload, BLOCK)),
        configurations=single_index_configurations(paper_candidates),
        initial=EMPTY_CONFIGURATION, final=EMPTY_CONFIGURATION)


class TestSerialEquivalence:
    """Batched matrices == serial matrices, bit for bit."""

    @pytest.mark.parametrize("name", ["W1", "W2", "W3"])
    def test_matrices_bit_identical(self, small_db, paper_candidates,
                                    name):
        problem = _problem(name, paper_candidates)
        serial = build_cost_matrices(
            problem, WhatIfCostProvider(small_db.what_if()))
        batched = build_cost_matrices(
            problem, CostService(small_db.what_if()))
        assert np.array_equal(serial.exec_matrix, batched.exec_matrix)
        assert np.array_equal(serial.trans_matrix,
                              batched.trans_matrix)
        assert serial.initial_index == batched.initial_index
        assert serial.final_index == batched.final_index

    def test_scalar_exec_cost_matches_serial(self, small_db,
                                             small_problem, service):
        serial = WhatIfCostProvider(small_db.what_if())
        segment = small_problem.segments[0]
        for config in small_problem.configurations:
            assert service.exec_cost(segment, config) == \
                serial.exec_cost(segment, config)

    def test_validated_k_matches_serial(self, small_db, small_problem,
                                        small_provider):
        workload = make_paper_workload(
            "W1", paper_generator(seed=5), block_size=BLOCK)
        variations = [jitter_blocks(workload, BLOCK, seed=9 + i)
                      for i in range(2)]
        serial = validated_k(small_problem, small_provider, variations,
                             block_size=BLOCK, ks=[0, 2, 6],
                             count_initial_change=False)
        batched = validated_k(small_problem,
                              CostService(small_db.what_if()),
                              variations, block_size=BLOCK,
                              ks=[0, 2, 6],
                              count_initial_change=False)
        assert serial.ks == batched.ks
        assert serial.training_costs == batched.training_costs
        assert serial.validation_costs == batched.validation_costs


class TestTemplateDedup:
    def test_constant_blind_point_queries(self, small_db):
        opt = small_db.what_if()
        t1 = opt.statement_template(
            Statement("SELECT a FROM t WHERE a = 100000").ast)
        t2 = opt.statement_template(
            Statement("SELECT a FROM t WHERE a = 300000").ast)
        assert t1.key == t2.key

    def test_out_of_domain_constant_differs(self, small_db):
        """A constant outside the column's observed domain induces
        selectivity 0 — a different template, so dedup stays exact."""
        opt = small_db.what_if()
        inside = opt.statement_template(
            Statement("SELECT a FROM t WHERE a = 100000").ast)
        outside = opt.statement_template(
            Statement("SELECT a FROM t WHERE a = 900000").ast)
        assert inside.key != outside.key

    def test_different_columns_differ(self, small_db):
        opt = small_db.what_if()
        t1 = opt.statement_template(
            Statement("SELECT a FROM t WHERE a = 1").ast)
        t2 = opt.statement_template(
            Statement("SELECT a FROM t WHERE b = 1").ast)
        assert t1.key != t2.key

    def test_range_bounds_distinguish_templates(self, small_db):
        opt = small_db.what_if()
        t1 = opt.statement_template(
            Statement("SELECT a FROM t WHERE a < 100").ast)
        t2 = opt.statement_template(
            Statement("SELECT a FROM t WHERE a < 400000").ast)
        assert t1.key != t2.key

    def test_estimate_template_matches_statement(self, small_db):
        opt = small_db.what_if()
        stmt = Statement("SELECT a FROM t WHERE a = 42").ast
        template = opt.statement_template(stmt)
        config = frozenset({IndexDef("t", ("a",))})
        assert opt.estimate_template(template, config).units == \
            opt.estimate_statement(stmt, config).units

    def test_dml_templates(self, small_db):
        opt = small_db.what_if()
        ins = opt.statement_template(
            Statement("INSERT INTO t (a, b, c, d) "
                      "VALUES (1, 2, 3, 4)").ast)
        upd1 = opt.statement_template(
            Statement("UPDATE t SET a = 1 WHERE b = 100000").ast)
        upd2 = opt.statement_template(
            Statement("UPDATE t SET a = 9 WHERE b = 300000").ast)
        dele = opt.statement_template(
            Statement("DELETE FROM t WHERE b = 100000").ast)
        assert ins.key[0] == "insert"
        assert upd1.key == upd2.key
        assert upd1.key != dele.key


class TestScalarCaching:
    @pytest.mark.parametrize("units_of", [
        tuple, lambda segments: tuple(summarize_segments(segments)),
    ], ids=["segments", "phases"])
    def test_scalar_replays_resolve_through_template_tier(
            self, small_problem, service, units_of):
        """After a batch, every scalar call is served bit-equal from
        the (template, config) tier — no optimizer call, one template
        hit per atom — and the request ledger balances across batch,
        scalar and fresh-literal traffic."""
        units = units_of(small_problem.segments)
        configs = small_problem.configurations
        matrix = service.exec_matrix(units, configs)
        stats = service.stats
        issued = stats.whatif_calls
        n_statements = sum(len(unit) for unit in units)
        assert stats.exec_requests == n_statements * len(configs)

        for i, unit in enumerate(units):
            n_atoms = sum(1 for _ in atoms_of(unit))
            for j, config in enumerate(configs):
                hits = stats.template_hits
                assert service.exec_cost(unit, config) == matrix[i, j]
                assert stats.template_hits == hits + n_atoms
        assert stats.whatif_calls == issued
        assert stats.exec_requests == 2 * n_statements * len(configs)

        # A literal no batch has seen: new SQL text, known template.
        literal = Statement("SELECT a FROM t WHERE a = 123457")
        assert literal.sql not in service._row_by_sql
        fresh = Segment((literal,), 0)
        hits = stats.template_hits
        service.exec_cost(fresh, configs[0])
        assert stats.whatif_calls == issued
        assert stats.template_hits == hits + 1
        assert stats.whatif_calls + stats.whatif_calls_avoided == \
            stats.exec_requests == 2 * n_statements * len(configs) + 1

    def test_new_constant_hits_template_cache(self, service):
        config = Configuration({IndexDef("t", ("a",))})
        s1 = Segment((Statement("SELECT a FROM t WHERE a = 1"),), 0)
        s2 = Segment((Statement("SELECT a FROM t WHERE a = 2"),), 1)
        assert service.exec_cost(s1, config) == \
            service.exec_cost(s2, config)
        assert service.stats.whatif_calls == 1
        assert service.stats.template_hits == 1
        assert service.stats.unique_templates == 1

    def test_trans_and_size_caches(self, service, paper_candidates):
        a = Configuration({paper_candidates[0]})
        b = Configuration({paper_candidates[1]})
        first = service.trans_cost(a, b)
        assert service.trans_cost(a, b) == first
        assert service.stats.trans_calls == 1
        assert service.stats.trans_cache_hits == 1
        assert service.size_bytes(a) == service.size_bytes(a)
        assert service.stats.size_calls == 1
        assert service.stats.size_cache_hits == 1

    def test_trans_cache_is_one_row_per_source(self, service,
                                               paper_candidates):
        # A cached pair costs no key object: the fill files each
        # estimate under its source's row, where trans_cost finds it.
        configs = single_index_configurations(paper_candidates)
        matrix = service.trans_matrix(configs)
        assert list(service._trans_cache) == list(configs)
        assert all(len(row) == len(configs) - 1
                   for row in service._trans_cache.values())
        assert service.trans_cost(configs[1], configs[0]) == matrix[1, 0]
        assert service.stats.trans_cache_hits == 1

    def test_refresh_stats_invalidates(self, small_db, service):
        segment = Segment(
            (Statement("SELECT a FROM t WHERE a = 1"),), 0)
        optimizer = service.optimizer
        service.exec_cost(segment, EMPTY_CONFIGURATION)
        assert service.stats.whatif_calls == 1
        optimizer.refresh_stats(dict(optimizer._stats))
        service.exec_cost(segment, EMPTY_CONFIGURATION)
        # Same stats, but the epoch bump must force a re-estimate.
        assert service.stats.whatif_calls == 2


class TestBatchCounters:
    def test_batch_avoids_per_statement_calls(self, small_problem,
                                              service):
        service.exec_matrix(small_problem.segments,
                            small_problem.configurations)
        stats = service.stats
        n_statements = sum(len(s) for s in small_problem.segments)
        n_configs = small_problem.n_configurations
        assert stats.batch_calls == 1
        assert stats.batched_statements == n_statements
        assert stats.exec_requests == n_statements * n_configs
        # Decomposition: one call per distinct (template, relevant
        # subset), strictly fewer than templates x configurations.
        assert stats.whatif_calls == stats.unique_signatures
        assert stats.whatif_calls < \
            stats.unique_templates * n_configs
        assert stats.whatif_calls_avoided == \
            n_statements * n_configs - stats.whatif_calls

    def test_second_batch_is_free(self, small_problem, service):
        service.exec_matrix(small_problem.segments,
                            small_problem.configurations)
        issued = service.stats.whatif_calls
        service.exec_matrix(small_problem.segments,
                            small_problem.configurations)
        assert service.stats.whatif_calls == issued
        assert service.stats.batch_calls == 2

    def test_empty_segment_row_is_zero(self, service,
                                       paper_candidates):
        segments = (Segment((), 0),
                    Segment((Statement("SELECT a FROM t "
                                       "WHERE a = 1"),), 1))
        configs = single_index_configurations(paper_candidates)
        matrix = service.exec_matrix(segments, configs)
        assert np.all(matrix[0] == 0.0)
        assert np.all(matrix[1] > 0.0)


class TestShapeKeyedFrontEnd:
    """Front-end work is per shape and per template, not per distinct
    string — counted, not timed."""

    def test_front_end_calls_scale_with_shapes(self, small_db,
                                               paper_candidates,
                                               monkeypatch):
        import repro.sqlengine.sql.parser as parser_module
        import repro.sqlengine.whatif as whatif_module
        import repro.workload.model as model_module
        from repro.workload import summarize_statements

        calls = {"tokenize": 0, "parse": 0, "analyze_select": 0}

        def counting(module, name):
            original = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)

        monkeypatch.setattr(parser_module, "_SHAPES", {})
        counting(parser_module, "tokenize")
        counting(model_module, "parse")  # what ``Statement.ast`` calls
        counting(whatif_module, "analyze_select")

        rng = np.random.default_rng(17)
        columns = ("a", "b", "c", "d")
        trace = [Statement(f"SELECT {columns[int(c)]} FROM t WHERE "
                           f"{columns[int(c)]} = {int(v)}")
                 for c, v in zip(rng.integers(0, 4, 4_000),
                                 rng.integers(0, 500_000, 4_000))]
        shapes = len(columns)
        assert len({s.sql for s in trace}) >= 2_000
        summary = summarize_statements(trace, block_size=1_000)
        assert len(summary.phases) == 4
        configs = single_index_configurations(paper_candidates)

        optimizer = small_db.what_if()
        service = CostService(optimizer)
        matrix = service.exec_matrix(summary.phases, configs)
        templates = service.stats.unique_templates
        assert templates <= 2 * shapes
        assert calls["tokenize"] <= shapes
        assert 0 < calls["parse"] <= shapes + templates
        assert calls["analyze_select"] <= shapes + templates
        assert len(optimizer._planning) <= templates

        reference = WhatIfCostProvider(small_db.what_if())
        assert np.array_equal(matrix, np.array(
            [[reference.exec_cost(phase, config) for config in configs]
             for phase in summary.phases]))


class TestExecFold:
    """``exec_matrix`` folds a unit's atoms with one cumulative sum
    per block; the row must still be the canonical left fold."""

    def test_long_unit_row_is_the_left_fold(self, small_db,
                                            paper_candidates):
        from repro.core.costservice import _FOLD_BLOCK

        rng = np.random.default_rng(23)
        n_atoms = 5 * _FOLD_BLOCK + 7  # ends inside a block
        assert n_atoms >= 5_000
        columns = ("a", "b", "c", "d")
        # Out-of-domain constants (selectivity 0) mix cheap terms in.
        sqls = dict.fromkeys(
            f"SELECT {columns[int(c)]} FROM t WHERE "
            f"{columns[int(c)]} = {int(v)}"
            for c, v in zip(rng.integers(0, 4, 2 * n_atoms),
                            rng.integers(0, 700_000, 2 * n_atoms)))
        statements = tuple(map(Statement, list(sqls)[:n_atoms]))
        weights = tuple(map(int, rng.integers(1, 1_000, n_atoms)))
        assert len(statements) == n_atoms
        length = sum(weights)
        phase = PhaseSummary(statements, weights, start=0, length=length)
        empty = PhaseSummary((), (), start=length, length=0)
        configs = single_index_configurations(paper_candidates)[:3]

        service = CostService(small_db.what_if())
        before = time.perf_counter()
        matrix = service.exec_matrix([phase, empty], configs)
        elapsed = time.perf_counter() - before
        assert not matrix[1].any()
        # The timer brackets the call — it is an interval, not a
        # clock reading or a block offset.
        assert 0.0 <= service.stats.exec_seconds <= elapsed

        reference = WhatIfCostProvider(small_db.what_if())
        for j, config in enumerate(configs):
            total = 0.0
            for statement, weight in zip(statements, weights):
                total += service.exec_cost(
                    PhaseSummary((statement,), (weight,), 0, weight),
                    config)
            assert matrix[0, j] == total
            assert matrix[0, j] == reference.exec_cost(phase, config)


class TestSupportsBatching:
    def test_cost_service_supports(self, service):
        assert supports_batching(service)

    def test_serial_provider_does_not(self, small_provider):
        assert not supports_batching(small_provider)

    def test_matrix_provider_ndarray_attr_is_not_batching(self):
        """MatrixCostProvider stores ``exec_matrix`` as an ndarray
        attribute — it must not be mistaken for the batch method."""
        segs = [Segment((Statement("SELECT a FROM t"),), 0)]
        configs = [EMPTY_CONFIGURATION]
        provider = MatrixCostProvider(segs, configs,
                                      np.zeros((1, 1)),
                                      np.zeros((1, 1)))
        assert not supports_batching(provider)


class TestSharedAdvisorSession:
    """The acceptance scenario: one service across an unconstrained
    run, a k-aware run, and a k sweep on the W1 Table-2 instance."""

    def test_session_issues_2x_fewer_estimates(self, small_problem,
                                               service):
        unconstrained = UnconstrainedAdvisor().recommend(
            small_problem, service)
        after_first = service.stats_snapshot()
        constrained = ConstrainedGraphAdvisor(
            2, count_initial_change=False).recommend(
            small_problem, service)
        matrices = build_cost_matrices(small_problem, service)
        sweep = sweep_k(matrices, count_initial_change=False)

        # Later runs ride entirely on the first run's caches.
        reruns = service.stats.delta(after_first)
        assert reruns.whatif_calls == 0

        # The serial provider would issue one estimate per unique
        # (sql, configuration) pair per matrix build; the service must
        # beat that by >= 2x across the whole session (it does, by
        # orders of magnitude, via template dedup).
        unique_sqls = {statement.sql
                       for segment in small_problem.segments
                       for statement in segment}
        serial_calls = len(unique_sqls) * \
            small_problem.n_configurations
        assert 2 * service.stats.whatif_calls <= serial_calls

        # And the shared session changed no answers.
        serial_sweep = sweep_k(
            build_cost_matrices(
                small_problem,
                WhatIfCostProvider(service.optimizer)),
            count_initial_change=False)
        assert sweep.costs == serial_sweep.costs
        assert unconstrained.cost == pytest.approx(
            serial_sweep.unconstrained_cost)
        assert constrained.cost == pytest.approx(
            serial_sweep.costs[2])

    def test_recommendation_carries_costing_stats(self, small_problem,
                                                  service):
        recommendation = ConstrainedGraphAdvisor(
            2, count_initial_change=False).recommend(
            small_problem, service)
        costing = recommendation.costing
        assert costing is not None
        for key in ("whatif_calls", "whatif_calls_avoided",
                    "cache_hit_rate", "exec_seconds",
                    "costing_seconds", "total_seconds"):
            assert key in costing
        assert costing["whatif_calls"] > 0
        assert "what-if calls=" in recommendation.summary()

    def test_no_costing_stats_without_service(self, small_problem,
                                              small_matrices):
        recommendation = ConstrainedGraphAdvisor(
            2, count_initial_change=False).recommend(
            small_problem, MatrixCostProvider(
                small_problem.segments,
                small_matrices.configurations,
                small_matrices.exec_matrix,
                small_matrices.trans_matrix),
            small_matrices)
        assert recommendation.costing is None

    def test_online_tuner_reports_costing(self, small_db,
                                          paper_candidates, service):
        workload = make_paper_workload(
            "W1", paper_generator(seed=5), block_size=BLOCK)
        result = BanditTuner(default_arms(paper_candidates), service,
                             gate=ReactiveRule(cooldown=10), decay=0.95,
                             observe_every=1).run(workload[:120])
        assert result.costing is not None
        assert result.costing["whatif_calls"] > 0
        assert result.costing["cache_hit_rate"] > 0.5


class TestStatsBookkeeping:
    def test_delta_subtracts_counters(self):
        from repro.core import CostEstimationStats
        earlier = CostEstimationStats(whatif_calls=3,
                                      whatif_calls_avoided=10,
                                      unique_templates=2)
        later = CostEstimationStats(whatif_calls=5,
                                    whatif_calls_avoided=25,
                                    unique_templates=4)
        delta = later.delta(earlier)
        assert delta.whatif_calls == 2
        assert delta.whatif_calls_avoided == 15
        # Totals, not differences, for the template census.
        assert delta.unique_templates == 4

    def test_cache_hit_rate(self):
        from repro.core import CostEstimationStats
        assert CostEstimationStats().cache_hit_rate == 0.0
        stats = CostEstimationStats(whatif_calls=1,
                                    whatif_calls_avoided=3)
        assert stats.cache_hit_rate == pytest.approx(0.75)

    def test_as_dict_round_trip(self):
        from repro.core import CostEstimationStats
        stats = CostEstimationStats(whatif_calls=7, batch_calls=2)
        data = stats.as_dict()
        assert data["whatif_calls"] == 7
        assert data["batch_calls"] == 2
        assert "cache_hit_rate" in data

    def test_invalidate_clears_caches(self, service):
        segment = Segment(
            (Statement("SELECT a FROM t WHERE a = 1"),), 0)
        service.exec_cost(segment, EMPTY_CONFIGURATION)
        service.invalidate()
        service.exec_cost(segment, EMPTY_CONFIGURATION)
        assert service.stats.whatif_calls == 2


class TestDecomposition:
    """Relevance-signature tier: fewer calls, identical bits."""

    @pytest.mark.parametrize("name", ["W1", "W2", "W3"])
    def test_bit_identical_to_undecomposed(self, small_db,
                                           paper_candidates, name):
        problem = _problem(name, paper_candidates)
        decomposed = CostService(small_db.what_if())
        base = build_cost_matrices(
            problem, WhatIfCostProvider(small_db.what_if()))
        dec = build_cost_matrices(problem, decomposed)
        assert np.array_equal(base.exec_matrix, dec.exec_matrix)
        assert np.array_equal(base.trans_matrix, dec.trans_matrix)
        assert decomposed.stats.whatif_calls < \
            decomposed.stats.unique_templates * \
            problem.n_configurations

    def test_scalar_path_uses_signature_cache(self, small_db,
                                              small_problem):
        service = CostService(small_db.what_if())
        segment = small_problem.segments[0]
        a = Configuration({IndexDef("t", ("a",))})
        padded = a.with_index(IndexDef("t", ("c", "d")))
        service.exec_cost(segment, a)
        calls = service.stats.whatif_calls
        # Queries untouched by I(c,d) resolve from the signature
        # tier; only templates I(c,d) can serve cost new calls.
        service.exec_cost(segment, padded)
        assert service.stats.signature_hits > 0
        assert service.stats.whatif_calls - calls < \
            service.stats.unique_templates

    def test_invalidate_clears_signature_caches(self, small_db,
                                                small_problem):
        service = CostService(small_db.what_if())
        service.exec_matrix(small_problem.segments,
                            small_problem.configurations)
        assert service._signature_units
        signatures = service.stats.unique_signatures
        assert signatures == sum(
            len(row) for row in service._signature_units.values())
        service.invalidate()
        assert not service._signature_units
        calls = service.stats.whatif_calls
        service.exec_matrix(small_problem.segments,
                            small_problem.configurations)
        assert service.stats.whatif_calls > calls
        # The signature count restarts with the caches.
        assert service.stats.unique_signatures == signatures

    def test_l3_keys_distinguish_compression_levels(self, small_db):
        """Cache-conflation regression: compressed variants are
        distinct signature members, so the decomposed service must
        neither serve one level's units for another nor drift from
        the undecomposed bits over a level-only-differing space."""
        from repro.core.structures import (Compression,
                                          compressed_variants)
        base = [IndexDef("t", ("a",)), IndexDef("t", ("a", "b"))]
        candidates = list(compressed_variants(base))
        assert len(candidates) == 3 * len(base)
        problem = _problem("W1", candidates)
        raw = build_cost_matrices(
            problem, WhatIfCostProvider(small_db.what_if()))
        dec = build_cost_matrices(
            problem, CostService(small_db.what_if()))
        assert np.array_equal(raw.exec_matrix, dec.exec_matrix)
        assert np.array_equal(raw.trans_matrix, dec.trans_matrix)
        # The levels genuinely price differently somewhere — if the
        # L3 key dropped the level, these columns would be forced
        # equal and this assertion is what would catch it.
        configs = list(problem.configurations)
        none_col = configs.index(Configuration(
            {IndexDef("t", ("a", "b"))}))
        heavy_col = configs.index(Configuration(
            {IndexDef("t", ("a", "b"), Compression.HEAVY)}))
        assert not np.array_equal(dec.exec_matrix[:, none_col],
                                  dec.exec_matrix[:, heavy_col])

    def test_idle_injector_runs_the_same_fill(self, small_db,
                                              paper_candidates):
        """An attached injector that never fires changes neither a
        cell nor a counter: the fill tested under faults is the fill
        that ships, batch and scalar."""
        from repro.faults import FaultInjector, FaultPlan
        problem = _problem("W1", paper_candidates)
        counters = ("whatif_calls", "signature_hits", "signature_fills")

        def run(injector):
            batch_optimizer = small_db.what_if()
            batch_optimizer.fault_injector = injector
            batch = CostService(batch_optimizer)
            matrix = batch.exec_matrix(problem.segments,
                                       problem.configurations)
            scalar_optimizer = small_db.what_if()
            scalar_optimizer.fault_injector = injector
            scalar = CostService(scalar_optimizer)
            replay = [scalar.exec_cost(segment, config)
                      for segment in problem.segments
                      for config in problem.configurations]
            return (matrix, replay,
                    [getattr(batch.stats, c) for c in counters],
                    [getattr(scalar.stats, c) for c in counters])

        watched = run(FaultInjector(FaultPlan(specs=()), seed=0))
        plain = run(None)
        assert np.array_equal(watched[0], plain[0])
        assert watched[1:] == plain[1:]
        # Not vacuous: both routes shared estimates across configs.
        assert plain[2][2] > 0 and plain[3][1] > 0

