"""Pinned pipeline outputs: a refactor that keeps behaviour keeps these.

Each run compares the learned edges, the ``repr`` of each edge's support,
the partition and the merge sequence exactly against
``golden_outputs.json``; a count that is off in one row moves a model
averaging support long before it moves an edge.  Two more pins hold the
consensus partition of the alarm seed-0 sample at a small ``max_comm``,
which forces the recursive re-partition and the tighten-split fallback
that the default pipeline never reaches.  A change that moves them on purpose re-pins with

    PYTHONPATH=src python tests/test_golden.py --write

and names the re-pin and its reason in CHANGES.md.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from bnsl.data import forward_sample, load_network
from bnsl.partition import consensus_partition
from bnsl.pipeline import PipelineConfig, run_pipeline

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden_outputs.json"
NETWORKS_DIR = HERE.parent / "networks"

RUNS = ([("alarm", seed, learner) for seed in (0, 1, 2)
         for learner in ("modelavg", "greedy")] + [("insurance", 0, "modelavg")]
        + [("win95pts", 0, learner) for learner in ("modelavg", "greedy")])
# (network, seed, max_comm): max_comm=3 recurses 5 times and reaches the
# tighten-split; max_comm=4 recurses 4 times
PARTITION_RUNS = [("alarm", 0, 3), ("alarm", 0, 4)]


def run_id(network: str, seed: int, learner: str) -> str:
    return f"{network}-seed{seed}-{learner}"


def partition_run_id(network: str, seed: int, max_comm: int) -> str:
    return f"{network}-seed{seed}-consensus-max_comm{max_comm}"


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


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    pins = {run_id(*r): pinned_outputs(*r) for r in RUNS}
    pins.update({partition_run_id(*r): {"communities": pinned_partition(*r)}
                 for r in PARTITION_RUNS})
    lines = [f" {json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
             for k, v in pins.items()]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
