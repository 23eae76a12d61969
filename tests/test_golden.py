"""Pinned pipeline outputs: a refactor that keeps behaviour keeps these.

Each of the 24 pipeline runs (alarm, insurance, win95pts and fivehub,
seeds 0-2, both learners, 20000 samples) compares the learned edges, the
``repr`` of each edge's support, the partition and the merge sequence
exactly against ``golden_outputs.json``; a count that is off in one row
moves a model averaging support long before it moves an edge.  Two more pins hold the
consensus partition of the alarm seed-0 sample at a small ``max_comm``,
which forces the recursive re-partition and the tighten-split fallback
that the default pipeline never reaches.  The weight-layer pin holds, for
the same sample, the kept edges of the elbow cut of each weight function
and of the substrate with the ``repr`` of each kept weight, and the
``repr`` of the MI PageRank vector, so that a last-bit drift in a weight
shows here before it moves a partition.  It also holds the first-level
link communities of each of those weight graphs and of the second-order
network they form, so that a last-bit drift in an edge-pair similarity
shows here before it moves a consensus.  A change that moves them on
purpose re-pins with

    PYTHONPATH=src python tests/test_golden.py --write

which prints the id of each pin whose value changed (or "no pin changed"),
and names the re-pin and its reason in CHANGES.md.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from bnsl.data import forward_sample, load_network
from bnsl.partition import consensus_partition, link_communities, second_order_network
from bnsl.pipeline import PipelineConfig, build_substrate, run_pipeline
from bnsl.weights import WEIGHT_FUNCTIONS, elbow_truncate, pagerank, pair_stats, weight_matrix

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden_outputs.json"
NETWORKS_DIR = HERE.parent / "networks"

RUNS = [(network, seed, learner) for network in ("alarm", "insurance", "win95pts", "fivehub")
        for seed in (0, 1, 2) for learner in ("modelavg", "greedy")]
# (network, seed, max_comm): max_comm=3 recurses 5 times and reaches the
# tighten-split; max_comm=4 recurses 4 times
PARTITION_RUNS = [("alarm", 0, 3), ("alarm", 0, 4)]
WEIGHT_RUNS = [("alarm", 0)]


def run_id(network: str, seed: int, learner: str) -> str:
    return f"{network}-seed{seed}-{learner}"


def partition_run_id(network: str, seed: int, max_comm: int) -> str:
    return f"{network}-seed{seed}-consensus-max_comm{max_comm}"


def weights_run_id(network: str, seed: int) -> str:
    return f"{network}-seed{seed}-weights"


def pinned_outputs(network: str, seed: int, learner: str) -> dict:
    result = run_pipeline(PipelineConfig(
        network=str(NETWORKS_DIR / f"{network}.net"), n_samples=20000,
        seed=seed, learner=learner))
    s = result.structure
    return {"edges": [list(e) for e in s.edges],
            "support": [repr(s.support.get(e)) for e in s.edges],
            "communities": [list(c) for c in result.partition.communities],
            "merge_sequence": result.run_report["merge_sequence"]}


def pinned_partition(network: str, seed: int, max_comm: int) -> list[list[int]]:
    data = forward_sample(load_network(NETWORKS_DIR / f"{network}.net"), 20000, seed)
    return [list(c) for c in consensus_partition(data, max_comm=max_comm).communities]


def pinned_cut(g) -> dict:
    return {"edges": [list(e) for e in g.edges()],
            "weights": [repr(g.weight(*e)) for e in g.edges()]}


def pinned_weights(network: str, seed: int) -> dict:
    data = forward_sample(load_network(NETWORKS_DIR / f"{network}.net"), 20000, seed)
    stats = pair_stats(data)
    cuts = {fn: pinned_cut(elbow_truncate(weight_matrix(stats, fn)))
            for fn in WEIGHT_FUNCTIONS}
    cuts["substrate"] = pinned_cut(build_substrate(stats))
    pr = pagerank(weight_matrix(stats, "MI"))
    parts = {fn: link_communities(elbow_truncate(weight_matrix(stats, fn)))
             for fn in WEIGHT_FUNCTIONS}
    parts["second_order"] = link_communities(second_order_network(list(parts.values())))
    return {"cuts": cuts, "pagerank": [repr(float(v)) for v in pr],
            "partitions": {k: [list(c) for c in p.communities] for k, p in parts.items()}}


@pytest.mark.parametrize("network,seed,learner", RUNS,
                         ids=[run_id(*r) for r in RUNS])
def test_pipeline_matches_pinned_outputs(network, seed, learner):
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))[run_id(network, seed, learner)]
    got = pinned_outputs(network, seed, learner)
    assert got["communities"] == want["communities"]
    assert got["edges"] == want["edges"]
    assert got["support"] == want["support"]
    assert got["merge_sequence"] == want["merge_sequence"]


@pytest.mark.parametrize("network,seed,max_comm", PARTITION_RUNS,
                         ids=[partition_run_id(*r) for r in PARTITION_RUNS])
def test_capped_partition_matches_pinned_outputs(network, seed, max_comm):
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))[
        partition_run_id(network, seed, max_comm)]
    assert pinned_partition(network, seed, max_comm) == want["communities"]


@pytest.mark.parametrize("network,seed", WEIGHT_RUNS,
                         ids=[weights_run_id(*r) for r in WEIGHT_RUNS])
def test_weight_layer_matches_pinned_outputs(network, seed):
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))[weights_run_id(network, seed)]
    got = pinned_weights(network, seed)
    assert got["cuts"].keys() == want["cuts"].keys()
    for name, cut in got["cuts"].items():
        assert cut == want["cuts"][name], name
    assert got["pagerank"] == want["pagerank"]
    assert got["partitions"].keys() == want["partitions"].keys()
    for name, communities in got["partitions"].items():
        assert communities == want["partitions"][name], name


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    pins = {run_id(*r): pinned_outputs(*r) for r in RUNS}
    pins.update({partition_run_id(*r): {"communities": pinned_partition(*r)}
                 for r in PARTITION_RUNS})
    pins.update({weights_run_id(*r): pinned_weights(*r) for r in WEIGHT_RUNS})
    old = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    moved = [k for k in {**old, **pins} if old.get(k) != pins.get(k)]
    lines = [f" {json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
             for k, v in pins.items()]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print("\n".join(f"moved: {k}" for k in moved) or "no pin changed")
