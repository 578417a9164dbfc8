"""Tests for the execution-engine layer.

Covers the pipeline stages one by one, the cross-query presence store (LRU
bounds, hit/miss accounting, query-set keying), the regression for the
historical ``flows_for_all`` cache hazard, batched-vs-sequential result
equality on both scenario builders, and the serial path's statistics
accounting against direct reducer and presence calls.
"""

from __future__ import annotations

from dataclasses import fields

import pytest

from repro import (
    DataReductionConfig,
    EngineConfig,
    FlowComputer,
    QueryEngine,
    TkPLQuery,
)
from repro.core import SearchStats
from repro.engine import (
    BatchPlanner,
    PresenceStore,
    StoredPresence,
    make_store_key,
)
from repro.experiments.runner import overlapping_queries

WINDOW = (1.0, 8.0)


def fresh_computer(figure1, reduction=None) -> FlowComputer:
    return FlowComputer(
        figure1["graph"],
        figure1["matrix"],
        reduction or DataReductionConfig.enabled(),
    )


def fresh_engine(scenario, config=None, reduction=None) -> QueryEngine:
    return QueryEngine(
        scenario.system.graph,
        scenario.system.matrix,
        reduction or DataReductionConfig.enabled(),
        config=config,
    )


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------
class TestEngineConfig:
    def test_rejects_unknown_continuous_refresh(self):
        with pytest.raises(ValueError, match="incremental"):
            EngineConfig(continuous_refresh="eventually")

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            EngineConfig(presence_store_capacity=-1)

    def test_factories(self):
        assert EngineConfig().caching_enabled
        assert not EngineConfig.uncached().caching_enabled
        assert [field.name for field in fields(EngineConfig)] == [
            "presence_store_capacity",
            "continuous_refresh",
            "scoring_kernel",
        ]


# ----------------------------------------------------------------------
# Presence store
# ----------------------------------------------------------------------
class TestPresenceStore:
    @staticmethod
    def entry(psl: int = 1) -> StoredPresence:
        return StoredPresence(psls=frozenset({psl}), sequence=(), pruned=False)

    def test_keyed_by_query_set(self):
        store = PresenceStore(capacity=8)
        entry = self.entry()
        store.put(7, WINDOW, {1, 2}, entry)
        # The same object under a different query set (or no set) must miss.
        assert store.get(7, WINDOW, {1, 3}) is None
        assert store.get(7, WINDOW, None) is None
        assert store.get(7, WINDOW, {2, 1}) is entry

    def test_keyed_by_window(self):
        store = PresenceStore(capacity=8)
        store.put(7, WINDOW, {1}, self.entry())
        assert store.get(7, (1.0, 9.0), {1}) is None

    def test_lru_eviction_and_stats(self):
        store = PresenceStore(capacity=2)
        store.put(1, WINDOW, {1}, self.entry())
        store.put(2, WINDOW, {1}, self.entry())
        assert store.get(1, WINDOW, {1}) is not None  # 1 becomes most recent
        store.put(3, WINDOW, {1}, self.entry())  # evicts 2
        assert store.get(2, WINDOW, {1}) is None
        assert store.get(1, WINDOW, {1}) is not None
        assert store.get(3, WINDOW, {1}) is not None
        assert len(store) == 2
        assert store.stats.evictions == 1
        assert store.stats.hits == 3
        assert store.stats.misses == 1
        assert 0.0 < store.stats.hit_rate < 1.0

    def test_store_key_normalisation(self):
        assert make_store_key(1, (0, 10), [3, 2], (9, 4)) == (
            1,
            (0.0, 10.0),
            frozenset({2, 3}),
            (9, 4),
        )
        assert make_store_key(1, (0, 10), None)[2] is None
        assert make_store_key(1, (0, 10), None)[3] is None

    def test_keyed_by_data_version(self):
        store = PresenceStore(capacity=8)
        store.put(7, WINDOW, {1}, self.entry(), data_key=(1, 5))
        assert store.get(7, WINDOW, {1}, data_key=(1, 6)) is None
        assert store.get(7, WINDOW, {1}, data_key=(2, 5)) is None
        assert store.get(7, WINDOW, {1}, data_key=(1, 5)) is not None

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            PresenceStore(capacity=0)


# ----------------------------------------------------------------------
# Stage-by-stage units
# ----------------------------------------------------------------------
class TestStages:
    def test_fetch_stage_deterministic_order_and_totals(self, figure1, figure1_iupt):
        computer = fresh_computer(figure1)
        pipeline = computer.pipeline
        ctx = pipeline.context(WINDOW, frozenset(figure1["slocs"].values()))
        sequences = pipeline.fetch.run(ctx, figure1_iupt)
        assert list(sequences) == sorted(sequences)
        assert ctx.stats.objects_total == 3
        # A second fetch over the same window must not inflate the total.
        pipeline.fetch.run(ctx, figure1_iupt)
        assert ctx.stats.objects_total == 3

    @pytest.mark.parametrize(
        "enabled", [True, False], ids=["reduced", "unreduced"]
    )
    def test_presence_stage_matches_direct_calls(
        self, figure1, figure1_iupt, enabled
    ):
        """The stage's artefact is the reducer's output plus its presence."""
        reduction = (
            DataReductionConfig.enabled() if enabled else DataReductionConfig.disabled()
        )
        pipeline = fresh_computer(figure1, reduction).pipeline
        direct = fresh_computer(figure1, reduction)
        query_key = frozenset({figure1["slocs"]["r6"]})
        ctx = pipeline.context(WINDOW, query_key)
        for object_id, sequence in figure1_iupt.sequences_in(*WINDOW).items():
            staged = pipeline.presence.run(ctx, object_id, sequence)
            reduced = direct.reducer.reduce(sequence, query_key)
            assert staged.sequence == reduced.sequence
            assert staged.psls == reduced.psls
            assert staged.pruned == reduced.pruned
            if reduced.pruned:
                assert staged.computation is None
                continue
            assert staged.computation == direct.presence_computation(
                reduced.sequence
            )

    def test_presence_stage_store_accounting(self, figure1, figure1_iupt):
        scenario_like = figure1
        engine = QueryEngine(scenario_like["graph"], scenario_like["matrix"])
        pipeline = engine.pipeline
        query_key = frozenset({scenario_like["slocs"]["r6"]})
        ctx = pipeline.context(WINDOW, query_key)
        sequences = figure1_iupt.sequences_in(*WINDOW)
        object_id = next(iter(sequences))

        first = pipeline.presence.run(ctx, object_id, sequences[object_id])
        seen_after_first = ctx.stats.reduction_stats.objects_seen
        assert engine.store.stats.misses == 1
        assert engine.store.stats.puts >= 1

        second = pipeline.presence.run(ctx, object_id, sequences[object_id])
        assert second is first  # the cached artefact, not a recomputation
        assert engine.store.stats.hits == 1
        assert ctx.stats.reduction_stats.objects_seen == seen_after_first

    def test_pruned_objects_are_cached_too(self, figure1, figure1_iupt):
        engine = QueryEngine(figure1["graph"], figure1["matrix"])
        pipeline = engine.pipeline
        # Objects never near r5 get pruned under a {r5} query; the pruning
        # decision itself must be cached so repeats skip the reduction.
        ctx = pipeline.context(WINDOW, frozenset({figure1["slocs"]["r5"]}))
        sequences = figure1_iupt.sequences_in(*WINDOW)
        entries = dict(pipeline.presences(ctx, sequences))
        pruned_ids = [oid for oid, entry in entries.items() if entry.pruned]
        assert pruned_ids, "expected at least one pruned object under {r5}"
        seen = ctx.stats.reduction_stats.objects_seen
        again = dict(pipeline.presences(ctx, sequences))
        assert ctx.stats.reduction_stats.objects_seen == seen
        for object_id in pruned_ids:
            assert again[object_id].pruned


# ----------------------------------------------------------------------
# The flows_for_all cache-correctness regression
# ----------------------------------------------------------------------
class TestCacheCorrectnessRegression:
    def test_flows_for_all_matches_independent_flows(self, figure1, figure1_iupt):
        """Shared-pass flows and accounting must equal independent flow calls.

        Under the old shared cache, a location processed after one that had
        cached an object reused the artefact even when the object's PSLs
        exclude the later location, inflating ``flow_evaluations`` relative
        to the per-location pruning an independent call performs.
        """
        sloc_ids = sorted(figure1["slocs"].values())
        shared_stats = SearchStats()
        shared = fresh_computer(figure1).flows_for_all(
            figure1_iupt, sloc_ids, *WINDOW, stats=shared_stats
        )

        independent_evaluations = 0
        for sloc_id in sloc_ids:
            result = fresh_computer(figure1).flow(figure1_iupt, sloc_id, *WINDOW)
            assert shared[sloc_id] == result.flow
            independent_evaluations += result.stats.flow_evaluations
        assert shared_stats.flow_evaluations == independent_evaluations
        assert shared_stats.objects_total == 3

    def test_store_on_flow_calls_stays_per_location(self, figure1, figure1_iupt):
        """A store shared across flow() calls must not leak across locations.

        This is the stale-hit hazard of the historical object-id-only keying:
        one cache shared across per-location flow calls served an artefact
        produced by ``reduce(seq, {B})`` for location ``A`` — bypassing A's
        (query-dependent) pruning decision.
        """
        engine = QueryEngine(figure1["graph"], figure1["matrix"])
        slocs = figure1["slocs"]
        with_store_r1 = engine.flow(figure1_iupt, slocs["r1"], *WINDOW).flow
        with_store_r3 = engine.flow(figure1_iupt, slocs["r3"], *WINDOW).flow
        assert len(engine.store) > 0
        assert with_store_r1 == fresh_computer(figure1).flow(
            figure1_iupt, slocs["r1"], *WINDOW
        ).flow
        assert with_store_r3 == fresh_computer(figure1).flow(
            figure1_iupt, slocs["r3"], *WINDOW
        ).flow


# ----------------------------------------------------------------------
# Engine equivalence with the pre-engine wrappers
# ----------------------------------------------------------------------
class TestEngineEquivalence:
    def test_engine_flow_matches_flow_computer(self, figure1, figure1_iupt):
        engine = QueryEngine(
            figure1["graph"], figure1["matrix"], DataReductionConfig.disabled()
        )
        computer = fresh_computer(figure1, DataReductionConfig.disabled())
        for name, sloc_id in figure1["slocs"].items():
            assert (
                engine.flow(figure1_iupt, sloc_id, *WINDOW).flow
                == computer.flow(figure1_iupt, sloc_id, *WINDOW).flow
            ), name

    @pytest.mark.parametrize("algorithm", ["naive", "nested-loop", "best-first"])
    def test_algorithms_agree_through_engine(
        self, small_real_scenario, algorithm
    ):
        scenario = small_real_scenario
        query = TkPLQuery.build(
            scenario.pick_query_slocations(0.6, seed=2),
            3,
            scenario.start_time,
            scenario.end_time,
        )
        via_engine = fresh_engine(scenario).search(scenario.iupt, query, algorithm)
        via_system = scenario.system.search(scenario.iupt, query, algorithm)
        assert via_engine.top_k_ids() == via_system.top_k_ids()
        assert via_engine.flows == via_system.flows

    def test_warm_store_returns_identical_answers(self, small_real_scenario):
        scenario = small_real_scenario
        engine = fresh_engine(scenario)
        query = TkPLQuery.build(
            scenario.pick_query_slocations(0.5, seed=4),
            2,
            scenario.start_time,
            scenario.end_time,
        )
        cold = engine.search(scenario.iupt, query, "nested-loop")
        warm = engine.search(scenario.iupt, query, "nested-loop")
        assert cold.flows == warm.flows
        assert cold.top_k_ids() == warm.top_k_ids()
        stats = engine.cache_stats()
        assert stats["hits"] > 0
        # The warm run reduced nothing: everything came from the store.
        assert warm.stats.reduction_stats.objects_seen == 0

    def test_store_invalidated_when_table_grows(self, figure1, figure1_iupt):
        """Streaming new reports in must not be answered from stale artefacts.

        The presence store keys on the IUPT's identity-and-version token, so
        a cached-engine flow recomputes after an append instead of serving
        the pre-append value.
        """
        from repro import IUPT, SampleSet

        iupt = IUPT()
        iupt.extend(figure1_iupt.records)  # private copy; fixtures stay pristine
        engine = QueryEngine(figure1["graph"], figure1["matrix"])
        sloc_id = figure1["slocs"]["r6"]

        before = engine.flow(iupt, sloc_id, *WINDOW).flow
        # A new visitor reported squarely inside the hallway (p8 in r6).
        iupt.report(99, SampleSet.from_pairs([(figure1["plocs"]["p8"], 1.0)]), 5.0)
        after = engine.flow(iupt, sloc_id, *WINDOW).flow
        fresh = QueryEngine(figure1["graph"], figure1["matrix"]).flow(
            iupt, sloc_id, *WINDOW
        ).flow
        assert after == fresh
        assert after > before

    def test_best_first_reuses_nested_loop_artefacts(self, small_real_scenario):
        scenario = small_real_scenario
        engine = fresh_engine(scenario)
        query = TkPLQuery.build(
            scenario.pick_query_slocations(0.5, seed=4),
            2,
            scenario.start_time,
            scenario.end_time,
        )
        nl = engine.search(scenario.iupt, query, "nested-loop")
        hits_before = engine.store.stats.hits
        bf = engine.search(scenario.iupt, query, "best-first")
        assert engine.store.stats.hits > hits_before
        assert bf.top_k_ids() == nl.top_k_ids()


# ----------------------------------------------------------------------
# Batched evaluation
# ----------------------------------------------------------------------
class TestBatchPlanner:
    @pytest.mark.parametrize(
        "scenario_fixture", ["small_real_scenario", "small_synth_scenario"]
    )
    def test_batch_equals_sequential(self, scenario_fixture, request):
        scenario = request.getfixturevalue(scenario_fixture)
        queries = overlapping_queries(scenario, count=6, k=2, q_fraction=0.5, seed=3)

        report = fresh_engine(scenario).batch(scenario.iupt, queries)
        assert report.groups == 1
        assert len(report) == len(queries)
        if scenario_fixture == "small_real_scenario":
            # Guard against a vacuous comparison: the real scenario must
            # produce actual flows (the synthetic grid's currently don't).
            assert any(
                flow > 0.0
                for result in report.results
                for flow in result.flows.values()
            )

        for query, batched in zip(queries, report.results):
            sequential = fresh_engine(
                scenario, config=EngineConfig.uncached()
            ).search(scenario.iupt, query, "nested-loop")
            assert batched.flows == sequential.flows
            assert batched.top_k_ids() == sequential.top_k_ids()

    def test_batch_groups_by_window(self, small_real_scenario):
        scenario = small_real_scenario
        early = overlapping_queries(
            scenario, count=2, k=2, q_fraction=0.4, delta_seconds=120.0, seed=1
        )
        late = overlapping_queries(
            scenario, count=2, k=2, q_fraction=0.4, delta_seconds=90.0, seed=8
        )
        queries = [early[0], late[0], early[1], late[1]]
        engine = fresh_engine(scenario)
        planner = BatchPlanner(engine.pipeline)
        groups = planner.plan(queries)
        assert sorted(len(group) for group in groups) == [2, 2]

        report = engine.batch(scenario.iupt, queries)
        for query, batched in zip(queries, report.results):
            sequential = fresh_engine(
                scenario, config=EngineConfig.uncached()
            ).search(scenario.iupt, query, "nested-loop")
            assert batched.flows == sequential.flows

    def test_multi_window_shared_stats_sum_per_window(self, small_real_scenario):
        """objects_total across window groups must sum, not max.

        A per-window maximum undercounts multi-window batches and can push
        the aggregate pruning ratio negative (more computed objects than the
        reported population).
        """
        scenario = small_real_scenario
        early = overlapping_queries(
            scenario, count=2, k=2, q_fraction=0.9, delta_seconds=120.0, seed=1
        )
        late = overlapping_queries(
            scenario, count=2, k=2, q_fraction=0.9, delta_seconds=90.0, seed=8
        )
        report = fresh_engine(scenario).batch(scenario.iupt, early + late)
        expected_total = sum(
            len(scenario.iupt.sequences_in(*window))
            for window in {early[0].interval, late[0].interval}
        )
        assert report.shared_stats.objects_total == expected_total
        assert report.shared_stats.pruning_ratio >= 0.0

    def test_batch_matches_all_three_algorithms(self, small_synth_scenario):
        scenario = small_synth_scenario
        queries = overlapping_queries(scenario, count=4, k=2, q_fraction=0.6, seed=11)
        report = fresh_engine(scenario).batch(scenario.iupt, queries)
        for query, batched in zip(queries, report.results):
            for algorithm in ("naive", "nested-loop", "best-first"):
                independent = fresh_engine(
                    scenario, config=EngineConfig.uncached()
                ).search(scenario.iupt, query, algorithm)
                assert batched.top_k_ids() == independent.top_k_ids(), algorithm


# ----------------------------------------------------------------------
# Serial per-object accounting
# ----------------------------------------------------------------------
def direct_stats(scenario, window, query_key) -> SearchStats:
    """The counters of reducing every object and computing its presence by
    hand, with the engine's primitives called directly."""
    computer = FlowComputer(
        scenario.system.graph, scenario.system.matrix, DataReductionConfig.enabled()
    )
    stats = SearchStats()
    for object_id, sequence in scenario.iupt.sequences_in(*window).items():
        reduced = computer.reducer.reduce(sequence, query_key, stats.reduction_stats)
        if not reduced.pruned:
            computer.presence_computation(reduced.sequence, stats)
            stats.note_object_computed(object_id)
    return stats


class TestSerialAccounting:
    """``presences()`` reports exactly the work of the direct calls."""

    @staticmethod
    def assert_same_work(staged: SearchStats, direct: SearchStats) -> None:
        assert direct.objects_computed > 0 and direct.path_stats.valid_paths > 0
        assert staged.reduction_stats == direct.reduction_stats
        assert staged.objects_computed == direct.objects_computed
        assert staged.computed_object_ids == direct.computed_object_ids
        assert staged.path_stats.valid_paths == direct.path_stats.valid_paths

    def test_nested_loop_stats_equal_direct_calls(self, small_real_scenario):
        scenario = small_real_scenario
        query = TkPLQuery.build(
            scenario.pick_query_slocations(0.7, seed=6),
            3,
            scenario.start_time,
            scenario.end_time,
        )
        result = fresh_engine(scenario, config=EngineConfig.uncached()).search(
            scenario.iupt, query, "nested-loop"
        )
        self.assert_same_work(
            result.stats,
            direct_stats(scenario, query.interval, frozenset(query.query_slocations)),
        )

    def test_flows_stats_equal_direct_calls(self, small_real_scenario):
        scenario = small_real_scenario
        sloc_ids = scenario.slocation_ids()
        window = (scenario.start_time, scenario.end_time)
        stats = SearchStats()
        fresh_engine(scenario).flow_computer.flows_for_all(
            scenario.iupt, sloc_ids, *window, stats=stats
        )
        self.assert_same_work(
            stats, direct_stats(scenario, window, frozenset(sloc_ids))
        )


# ----------------------------------------------------------------------
# Statistics plumbing
# ----------------------------------------------------------------------
class TestSearchStats:
    def test_note_objects_total_keeps_maximum(self):
        stats = SearchStats()
        stats.note_objects_total(5)
        stats.note_objects_total(3)
        stats.note_objects_total(5)
        assert stats.objects_total == 5

    def test_merge_combines_counters(self):
        left, right = SearchStats(), SearchStats()
        left.note_object_computed(1)
        right.note_object_computed(1)
        right.note_object_computed(2)
        left.flow_evaluations = 2
        right.flow_evaluations = 3
        right.note_objects_total(7)
        right.reduction_stats.objects_seen = 4
        left.merge(right)
        assert left.objects_computed == 2  # distinct objects, not a sum
        assert left.flow_evaluations == 5
        assert left.objects_total == 7
        assert left.reduction_stats.objects_seen == 4

    def test_merge_across_windows_sums_populations(self):
        left, right = SearchStats(), SearchStats()
        left.note_objects_total(10)
        right.note_objects_total(10)
        left.merge(right)
        assert left.objects_total == 20
