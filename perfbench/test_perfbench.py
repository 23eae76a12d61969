"""The benchmark's checks reject corrupted results; its tracer adds up.

Run with ``PYTHONPATH=src python3 -m pytest perfbench -q`` from the
repository root.
"""

from __future__ import annotations

import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import hostspeed  # noqa: E402
from tracing import Span, Tracer, _covered, instrumented  # noqa: E402

NET = """\
var a 2 s0 s1
var b 2 s0 s1  # comment
var c 2 s0 s1
var d 2 s0 s1
arc a b
arc b c
arc c d
"""


def pipeline_result(edges, communities, rounds=None, report=None):
    names, truth = checks.read_network(NET)
    tp, fp, fn = checks.skeleton_counts(edges, truth)
    if report is None:
        report = SimpleNamespace(tp=tp, fp=fp, fn=fn, f_score=checks.f_score(tp, fp, fn))
    if rounds is None:
        rounds = len(communities) - 1
    return SimpleNamespace(
        structure=SimpleNamespace(nodes=tuple(range(len(names))), edges=tuple(edges)),
        partition=SimpleNamespace(communities=tuple(communities)),
        report=report,
        run_report={"merge_sequence": [((0,), (1,))] * rounds})


def problems(result, max_comm=3, min_f=None):
    names, truth = checks.read_network(NET)
    return checks.pipeline_problems(result, names, truth, max_comm, min_f)


GOOD_EDGES = ((0, 1), (1, 2), (2, 3))
GOOD_COMMS = ((0, 1, 2), (2, 3))


def test_reader_and_counts():
    names, truth = checks.read_network(NET)
    assert names == ["a", "b", "c", "d"]
    assert truth == {(0, 1), (1, 2), (2, 3)}
    assert checks.skeleton_counts([(1, 0), (0, 3)], truth) == (1, 1, 2)
    assert checks.f_score(0, 0, 0) == 0.0
    assert checks.f_score(1, 1, 2) == pytest.approx(40.0)


def test_pipeline_checks_accept_a_correct_result():
    assert problems(pipeline_result(GOOD_EDGES, GOOD_COMMS)) == []


def test_dropped_true_edge_is_rejected():
    good = pipeline_result(GOOD_EDGES, GOOD_COMMS)
    bad = pipeline_result(GOOD_EDGES[:2], GOOD_COMMS, report=good.report)
    assert any("recomputed" in p for p in problems(bad))


def test_both_direction_pair_is_rejected():
    bad = pipeline_result(GOOD_EDGES + ((1, 0),), GOOD_COMMS)
    assert any("both directions" in p for p in problems(bad))


def test_self_loop_and_missing_node_are_rejected():
    assert any("self-loop" in p
               for p in checks.structure_problems(range(4), [(2, 2)], 4))
    assert any("covers" in p for p in checks.structure_problems(range(3), [], 4))


def test_oversized_community_is_rejected():
    bad = pipeline_result(GOOD_EDGES, ((0, 1, 2, 3),))
    assert any("exceeds max_comm" in p for p in problems(bad, max_comm=3))


def test_uncovered_variable_and_wrong_round_count_are_rejected():
    assert any("partition covers" in p
               for p in problems(pipeline_result(GOOD_EDGES, ((0, 1, 2),))))
    assert any("merge rounds" in p
               for p in problems(pipeline_result(GOOD_EDGES, GOOD_COMMS, rounds=2)))


def test_f_below_the_bar_is_rejected():
    weak = pipeline_result(((0, 1),), GOOD_COMMS)
    assert problems(weak) == []
    assert any("below" in p for p in problems(weak, min_f=70.0))


NODE_SETS = [(0, 1), (1, 2), (5, 6, 7, 8), (7, 8, 9, 10)]
UNION = (0, 1, 2, 5, 6, 7, 8, 9, 10)


def merge_result(sequence, nodes=UNION, edges=(), evals=10):
    return SimpleNamespace(merge_sequence=tuple(sequence), jaccard_evaluations=evals,
                           structure=SimpleNamespace(nodes=tuple(nodes), edges=tuple(edges)))


def test_reference_merge_order():
    # both pairs have Jaccard 1/3; the larger union goes first even though
    # the other pair is lexicographically smaller
    assert checks.reference_merge_sequence(NODE_SETS) == [
        ((5, 6, 7, 8), (7, 8, 9, 10)), ((0, 1), (1, 2)),
        ((0, 1, 2), (5, 6, 7, 8, 9, 10))]


def test_merge_checks_accept_the_reference():
    ref = checks.reference_merge_sequence(NODE_SETS)
    assert checks.merge_problems(merge_result(ref), NODE_SETS, ref, set()) == []


def test_swapped_merge_round_is_rejected():
    ref = checks.reference_merge_sequence(NODE_SETS)
    swapped = [ref[1], ref[0]] + ref[2:]
    got = checks.merge_problems(merge_result(swapped), NODE_SETS, ref, set())
    assert any("round 0" in p for p in got)


def test_merge_node_set_counter_and_arcs_are_checked():
    ref = checks.reference_merge_sequence(NODE_SETS)
    n = len(NODE_SETS)
    assert any("union of the pool" in p for p in checks.merge_problems(
        merge_result(ref, nodes=UNION[1:]), NODE_SETS, ref, set()))
    assert any("exceed 2n(n-1)" in p for p in checks.merge_problems(
        merge_result(ref, evals=2 * n * (n - 1) + 1), NODE_SETS, ref, set()))
    assert any("pool's arcs" in p for p in checks.merge_problems(
        merge_result(ref), NODE_SETS, ref, {(0, 1)}))


def test_merge_checks_accept_merge_all():
    import numpy as np
    from bnsl import DiscreteDataset, LearnerConfig, LocalStructure, WeightedGraph, merge_all

    rng = np.random.default_rng(3)
    sets = [tuple(sorted(rng.choice(20, size=int(rng.integers(2, 7)),
                                    replace=False).tolist())) for _ in range(10)]
    pool = [LocalStructure(s, ((s[0], s[1]),), {}) for s in sets]
    rows = rng.integers(0, 2, size=(8, 20)).astype(np.int32)
    rows[0], rows[1] = 0, 1
    data = DiscreteDataset([f"v{k}" for k in range(20)], [2] * 20, rows)
    result = merge_all(pool, WeightedGraph(20), data, LearnerConfig(learner="greedy"))
    ref = checks.reference_merge_sequence(sets)
    arcs = {(s[0], s[1]) for s in sets}
    assert checks.merge_problems(result, sets, ref, arcs) == []


def test_arcs_on_cycles():
    assert checks.arcs_on_cycles([(0, 1), (1, 2), (0, 2)]) == 0
    assert checks.arcs_on_cycles([(0, 1), (1, 2), (2, 0), (2, 3)]) == 3
    assert checks.arcs_on_cycles([(0, 1), (1, 0), (5, 6), (6, 7), (7, 5)]) == 5


def test_covered_and_self_time():
    assert _covered([(0, 2), (1, 3), (5, 6), (5.5, 5.7)]) == pytest.approx(4.0)
    t = Tracer()
    t.spans += [Span("outer", 0.0, 10.0, None), Span("a", 1.0, 4.0, 0),
                Span("b", 2.0, 3.0, 1), Span("b", 6.0, 7.0, 0), Span("c", 8.0, 9.0, 0)]
    assert t.self_time("outer", {"a", "b"}) == pytest.approx(10.0 - 3.0 - 1.0)
    assert t.total("b") == pytest.approx(2.0)
    assert t.calls("b") == 2


def test_instrumented_counts_and_restores():
    import numpy as np
    import bnsl
    from bnsl import DiscreteDataset, weights

    before = (weights.mutual_information, bnsl.weight_matrix,
              bnsl.partition.weight_matrix, bnsl.averaging.ScoreCache.family_score)
    rows = np.random.default_rng(0).integers(0, 2, size=(50, 4)).astype(np.int32)
    data = DiscreteDataset(["p", "q", "r", "s"], [2] * 4, rows)
    tracer = Tracer()
    with instrumented(tracer):
        weights.weight_matrix(data, "MI")
        bnsl.partition.weight_matrix(data, "MI")
    assert tracer.counts["weights.mi_calls"] == 12
    assert len(tracer.mi_pairs) == 6
    assert tracer.calls("partition.weight_matrix") == 2
    assert (weights.mutual_information, bnsl.weight_matrix,
            bnsl.partition.weight_matrix,
            bnsl.averaging.ScoreCache.family_score) == before


def test_scaled_series_uses_the_loops_around_each_timing():
    ref, e = hostspeed.REFERENCE_S, hostspeed.ELASTICITY
    refs = [ref, ref, 2 * ref, 2 * ref]
    out = hostspeed.scaled_series([1.0, None, 4.0], refs)
    assert out[0] == pytest.approx(1.0 / (4 / 3) ** e)  # refs[0:3]
    assert out[1] is None
    assert out[2] == pytest.approx(4.0 / (5 / 3) ** e)  # refs[1:4]
    assert hostspeed.scaled(4.0, ref) == pytest.approx(4.0)
    assert hostspeed.reference_seconds() > 0
    with pytest.raises(ValueError):
        hostspeed.scaled_series([1.0], refs)
