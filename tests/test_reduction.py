"""Algorithm 1 with memoised plans against the set-by-set oracle.

``tests/reduction_oracle.py`` transcribes ``ReduceData`` per set without the
plan memo; ``DataReducer`` must agree with it on P-locations (probabilities
within 1e-12), PSLs, the pruning decision and every ``ReductionStats``
counter, under every preset.
"""

from __future__ import annotations

import pickle
import random
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DataReductionConfig, SampleSet
from repro.core import DataReducer, FlowComputer
from repro.core.reduction import ReductionStats
from repro.space import IndoorLocationMatrix
from tests import reduction_oracle

PRESETS = {
    "enabled": DataReductionConfig.enabled(),
    "disabled": DataReductionConfig.disabled(),
    "original_with_psls": DataReductionConfig.original_with_psls(),
}


def assert_matches_oracle(reducer, sequence, matrix, graph, config, query):
    stats = ReductionStats()
    result = reducer.reduce(sequence, query, stats)
    sets, psls, pruned, counters = reduction_oracle.reduce(
        sequence, matrix, graph, config, query
    )
    assert [s.plocation_key for s in result.sequence] == [
        tuple(loc for loc, _ in pairs) for pairs in sets
    ]
    for got, want in zip(result.sequence, sets):
        assert tuple(s.ploc_id for s in got) == got.plocation_key
        # Only sets passed through unchanged may keep an input's scale.
        total = sum(s.prob for s in got)
        if not any(got is sample_set for sample_set in sequence):
            assert abs(total - 1.0) <= 1e-12
        want_total = sum(prob for _, prob in want)
        for sample, (_, prob) in zip(got, want):
            assert abs(sample.prob / total - prob / want_total) <= 1e-12
    assert result.psls == psls
    assert result.pruned == pruned
    assert stats.as_dict() == counters
    return result


@st.composite
def dwell_sequences(draw):
    """Index sequences over p1..p9; each drawn location set dwells 1-3 reports.

    Each report sums to a drawn total within the 1e-3 a ``SampleSet``
    accepts without rescaling.
    """
    sequence = []
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        locations = draw(
            st.lists(st.integers(min_value=0, max_value=8), min_size=1, max_size=5, unique=True)
        )
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            weights = draw(
                st.lists(
                    st.floats(min_value=0.01, max_value=1.0),
                    min_size=len(locations),
                    max_size=len(locations),
                )
            )
            scale = draw(st.floats(min_value=0.9991, max_value=1.0009)) / sum(weights)
            sequence.append([(loc, w * scale) for loc, w in zip(locations, weights)])
    return sequence


query_indices = st.one_of(
    st.none(), st.sets(st.integers(min_value=0, max_value=5), max_size=6)
)


def _on_figure1(figure1, indices, query):
    plocs = [figure1["plocs"][f"p{i}"] for i in range(1, 10)]
    slocs = [figure1["slocs"][f"r{i}"] for i in range(1, 7)]
    sequence = [
        SampleSet.from_pairs([(plocs[i], w) for i, w in pairs])
        for pairs in indices
    ]
    return sequence, None if query is None else frozenset(slocs[i] for i in query)


class TestAgainstOracle:
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    @given(indices=dwell_sequences(), query=query_indices)
    @settings(max_examples=60, deadline=None)
    def test_figure1_sequences(self, figure1, preset, indices, query):
        graph, matrix, config = figure1["graph"], figure1["matrix"], PRESETS[preset]
        sequence, query = _on_figure1(figure1, indices, query)
        reducer = DataReducer(graph, matrix, config)
        assert_matches_oracle(reducer, sequence, matrix, graph, config, query)
        # The same reducer again, now with plans memoised by the first call.
        assert_matches_oracle(reducer, sequence[::-1], matrix, graph, config, query)

    def test_equivalent_plocations_in_a_dwell_run(self, figure1):
        graph, matrix, plocs = figure1["graph"], figure1["matrix"], figure1["plocs"]
        config = DataReductionConfig.enabled()
        dwell = [(plocs["p5"], 0.2), (plocs["p6"], 0.3), (plocs["p8"], 0.5)]
        sequence = [SampleSet.from_pairs(dwell)] * 3 + [SampleSet.certain(plocs["p5"])]
        result = assert_matches_oracle(
            DataReducer(graph, matrix, config), sequence, matrix, graph, config, None
        )
        assert [len(s) for s in result.sequence] == [2, 1]

    def test_real_scenario_windows(self, small_real_scenario):
        graph = small_real_scenario.system.graph
        matrix = small_real_scenario.system.matrix
        iupt = small_real_scenario.iupt
        slocs = small_real_scenario.slocation_ids()
        rng = random.Random(3)
        reducers = {name: DataReducer(graph, matrix, c) for name, c in PRESETS.items()}
        for _ in range(20):
            start = rng.uniform(0.0, 210.0)
            query = frozenset(rng.sample(slocs, 4))
            for sequence in iupt.sequences_in(start, start + 30.0).values():
                for name, reducer in reducers.items():
                    assert_matches_oracle(
                        reducer, sequence, matrix, graph, PRESETS[name], query
                    )


class TestMemoIsolation:
    def test_reducers_on_different_matrices_keep_their_own_plans(self, figure1):
        graph, matrix, plocs = figure1["graph"], figure1["matrix"], figure1["plocs"]
        # p8 moved into p7's cell: p6 and p8 are no longer equivalent.
        split_cells = dict(matrix.cells_of)
        split_cells[plocs["p8"]] = matrix.cells_of[plocs["p7"]]
        split = IndoorLocationMatrix(split_cells, dict(matrix.representative))
        config = DataReductionConfig.enabled()
        sequence = [
            SampleSet.from_pairs([(plocs["p6"], 0.4), (plocs["p8"], 0.6)]),
            SampleSet.from_pairs([(plocs["p6"], 0.7), (plocs["p8"], 0.3)]),
        ]
        results = [
            assert_matches_oracle(DataReducer(graph, m, config), sequence, m, graph, config, None)
            for m in (matrix, matrix.merged(graph), split)
        ]
        assert [len(s) for s in results[0].sequence] == [1]
        assert [len(s) for s in results[2].sequence] == [2]

    def test_cells_between_memo(self, figure1):
        graph, matrix = figure1["graph"], figure1["matrix"]
        for m in (IndoorLocationMatrix.from_graph(graph), matrix.merged(graph)):
            ids = sorted(m.representative) + [999]
            for a in ids:
                for b in ids:
                    expected = m.cells_adjacent(a) & m.cells_adjacent(b)
                    assert m.cells_between(a, b) == expected
                    assert m.cells_between(a, b) == expected
            assert len(m._between) <= len(m.representative) ** 2
            assert "_between" not in repr(m)
            assert m == IndoorLocationMatrix(
                dict(m.cells_of), dict(m.representative), m.is_merged
            )
            copy = pickle.loads(pickle.dumps(m))
            assert copy == m and copy._between == m._between
            assert copy.cells_between(ids[0], ids[1]) == m.cells_between(ids[0], ids[1])

    def test_flow_computer_pickles_with_memos(self, figure1, figure1_iupt):
        computer = FlowComputer(figure1["graph"], figure1["matrix"])
        before = computer.flows_for_all(figure1_iupt, sorted(figure1["slocs"].values()), 1.0, 8.0)
        copy = pickle.loads(pickle.dumps(computer))
        after = copy.flows_for_all(figure1_iupt, sorted(figure1["slocs"].values()), 1.0, 8.0)
        assert after == before

    def test_threads_share_one_fresh_reducer(self, small_real_scenario):
        graph = small_real_scenario.system.graph
        matrix = small_real_scenario.system.matrix
        config = DataReductionConfig.enabled()
        sequences = list(small_real_scenario.iupt.sequences_in(0.0, 240.0).values())
        query = frozenset(small_real_scenario.slocation_ids()[:5])
        reducer = DataReducer(graph, matrix, config)

        def reduce_all(seed):
            order = list(range(len(sequences)))
            random.Random(seed).shuffle(order)
            for index in order:
                assert_matches_oracle(reducer, sequences[index], matrix, graph, config, query)
            return len(order)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(reduce_all, seed) for seed in range(4)]
                counts = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert counts == [len(sequences)] * 4
