"""Edge-count metrics, report serialization, partition diagnostics."""

import json

import pytest

from bnsl.averaging import LocalStructure
from bnsl.errors import InvalidInput
from bnsl.evaluate import (EvalReport, metrics_from_counts,
                           partition_diagnostics, score_structure)
from bnsl.partition import Partition
from bnsl.weights import WeightedGraph


class TestMetricsFromCounts:
    def test_worked_example(self):
        precision, recall, f = metrics_from_counts(43, 8, 3)
        assert round(precision, 3) == 84.314
        assert round(recall, 3) == 93.478
        assert round(f, 3) == 88.660

    def test_perfect(self):
        assert metrics_from_counts(5, 0, 0) == (100.0, 100.0, 100.0)

    def test_zero_over_zero_is_zero(self):
        assert metrics_from_counts(0, 0, 0) == (0.0, 0.0, 0.0)
        assert metrics_from_counts(0, 5, 0) == (0.0, 0.0, 0.0)
        assert metrics_from_counts(0, 0, 5) == (0.0, 0.0, 0.0)

    def test_f_is_harmonic_mean(self):
        precision, recall, f = metrics_from_counts(3, 1, 2)
        assert f == pytest.approx(2 * precision * recall
                                  / (precision + recall))

    def test_negative_counts_rejected(self):
        with pytest.raises(InvalidInput):
            metrics_from_counts(-1, 0, 0)


class TestScoreStructure:
    def test_skeleton_ignores_direction(self, chain_net):
        learned = LocalStructure((0, 1, 2), ((1, 0), (1, 2)), {})
        report = score_structure(learned, chain_net)
        assert (report.tp, report.fp, report.fn) == (2, 0, 0)
        assert report.f_score == 100.0
        assert report.directed is False

    def test_directed_counts_reversal_twice(self, chain_net):
        learned = LocalStructure((0, 1, 2), ((1, 0), (1, 2)), {})
        report = score_structure(learned, chain_net, directed=True)
        assert (report.tp, report.fp, report.fn) == (1, 1, 1)
        assert report.precision == 50.0
        assert report.recall == 50.0

    def test_extra_and_missing_edges(self, chain_net):
        learned = LocalStructure((0, 1, 2), ((0, 1), (0, 2)), {})
        report = score_structure(learned, chain_net)
        assert (report.tp, report.fp, report.fn) == (1, 1, 1)

    def test_universe_mismatch_rejected(self, chain_net):
        learned = LocalStructure((0, 1), ((0, 1),), {})
        with pytest.raises(InvalidInput, match="cover"):
            score_structure(learned, chain_net)


class TestEvalReport:
    def test_to_dict_and_json_round_trip(self):
        report = EvalReport(3, 1, 2, 75.0, 60.0, 66.667, True)
        d = report.to_dict()
        assert d["tp"] == 3 and d["directed"] is True
        back = json.loads(report.to_json())
        assert back == json.loads(json.dumps(d))


class TestPartitionDiagnostics:
    def _path_graph(self, n):
        g = WeightedGraph(n)
        for i in range(n - 1):
            g.add_edge(i, i + 1, 1.0)
        return g

    def test_path_community(self):
        p = Partition(3, ((0, 1, 2),))
        out = partition_diagnostics(p, self._path_graph(3))
        assert out["avg_shortest_path"] == pytest.approx(4.0 / 3.0)
        assert out["avg_diameter"] == 2.0
        assert out["communities"] == 1
        assert out["sizes"] == [3]
        assert out["avg_size"] == 3.0

    def test_disconnected_pairs_excluded(self):
        g = WeightedGraph(3)
        g.add_edge(0, 1, 1.0)  # node 2 unreachable inside the community
        p = Partition(3, ((0, 1, 2),))
        out = partition_diagnostics(p, g)
        assert out["avg_shortest_path"] == 1.0
        assert out["avg_diameter"] == 1.0

    def test_paths_stay_inside_community(self):
        # 0 and 2 connect only through 1, which is in another community
        g = self._path_graph(3)
        p = Partition(3, ((0, 2), (1,)))
        out = partition_diagnostics(p, g)
        assert out["per_community_avg_path"] == [0.0, 0.0]

    def test_singletons_contribute_zero(self):
        p = Partition(2, ((0,), (1,)))
        out = partition_diagnostics(p, WeightedGraph(2))
        assert out["avg_shortest_path"] == 0.0
        assert out["avg_diameter"] == 0.0
        assert out["sizes"] == [1, 1]

    def test_size_histogram_bins(self):
        communities = (tuple(range(0, 3)), tuple(range(3, 10)),
                       tuple(range(10, 62)))
        p = Partition(62, communities)
        out = partition_diagnostics(p, WeightedGraph(62))
        hist = out["size_histogram"]
        assert hist["1-5"] == 1
        assert hist["6-10"] == 1
        assert hist[">50"] == 1
        assert sum(hist.values()) == 3

    def test_universe_mismatch_rejected(self):
        with pytest.raises(InvalidInput):
            partition_diagnostics(Partition(2, ((0, 1),)), WeightedGraph(3))
