"""The benchmark's workloads: inputs, the timed operation and its checks.

Each workload builds its inputs in ``__init__`` (the set-up the benchmark
times) and runs one timed operation per ``run()`` call.  The benchmark
appends each result to ``results``; ``problems()`` checks them all after
the timed loop, so that no check runs while the clock does.
"""

from __future__ import annotations

import statistics
from pathlib import Path

import numpy as np

import bnsl
import checks
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent

# The pipeline inputs are pinned: on alarm the wall time of one run moves
# from 4.2 s to 7.0 s between sample seeds 0-5, which no bound could absorb,
# so a seeded sample would measure the seed rather than the code.
PIPELINE_SEED = 0
N_SAMPLES = 20000

STAGES = ("data", "weights", "partition", "learn", "merge")

POOL_SIZE = 200
POOL_ARC_PROB = 0.5


class PipelineWorkload:
    """``run_pipeline`` on one bundled network with one learner."""

    def __init__(self, network: str, learner: str, min_f: float | None, seed: int):
        del seed  # the pipeline input is pinned; see PIPELINE_SEED
        path = ROOT / "networks" / f"{network}.net"
        self.names, self.truth = checks.read_network(path.read_text(encoding="utf-8"))
        self.config = bnsl.PipelineConfig(network=str(path), n_samples=N_SAMPLES,
                                          seed=PIPELINE_SEED, learner=learner)
        self.min_f = min_f
        self.results = []

    def run(self):
        return bnsl.run_pipeline(self.config)

    def problems(self) -> list[str]:
        out = []
        for r in self.results:
            out += checks.pipeline_problems(r, self.names, self.truth,
                                            self.config.max_comm, self.min_f)
        return out

    def skeleton_f(self) -> float:
        return statistics.median(r.report.f_score for r in self.results)

    def layer_metrics(self, tracer: Tracer, result) -> dict[str, float]:
        timings = result.run_report["timings"]
        return {
            **{f"pipeline.{k}_s": timings[k] for k in STAGES},
            "pipeline.learn_self_s": tracer.self_time(
                "pipeline.learn", {"blankets.community_blanket",
                                   "averaging.learn_structure", "merge.resolve"}),
            "merge.jaccard_evaluations": result.run_report["jaccard_evaluations"],
            "merge.arcs_on_cycles": checks.arcs_on_cycles(result.structure.edges),
        }


class MergePoolWorkload:
    """``merge_all`` alone on a seeded pool of small structures.

    The node sets follow criterion 5's generator (sizes 2-6 drawn from a
    universe of 2n variables; ``--seed 700`` gives its n=200 pool exactly).
    Each structure also carries arcs of one hidden order, lower index to
    higher, so the merged skeleton can be scored.  The weight graph has no
    edges, so ``resolve`` never learns and the merge ranking dominates.
    """

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        universe = 2 * POOL_SIZE
        self.node_sets = []
        for _ in range(POOL_SIZE):
            size = int(rng.integers(2, 7))
            members = rng.choice(universe, size=size, replace=False)
            self.node_sets.append(tuple(sorted(members.tolist())))
        arc_rng = np.random.default_rng([seed, 1])
        pool, self.arcs = [], set()
        for ns in self.node_sets:
            arcs = [(a, b) for i, a in enumerate(ns) for b in ns[i + 1:]
                    if arc_rng.random() < POOL_ARC_PROB]
            self.arcs.update(arcs)
            pool.append(bnsl.LocalStructure(ns, tuple(arcs), {e: 1.0 for e in arcs}))
        self.pool = pool
        self.graph = bnsl.WeightedGraph(universe)
        rows = np.random.default_rng([seed, 2]).integers(0, 2, size=(8, universe))
        rows[0], rows[1] = 0, 1
        self.data = bnsl.DiscreteDataset([f"v{k}" for k in range(universe)],
                                         [2] * universe, rows.astype(np.int32))
        self.learner = bnsl.LearnerConfig(learner="greedy")
        self.results = []

    def run(self):
        return bnsl.merge_all(self.pool, self.graph, self.data, self.learner)

    def problems(self) -> list[str]:
        reference = checks.reference_merge_sequence(self.node_sets)
        out = []
        for r in self.results:
            out += checks.merge_problems(r, self.node_sets, reference, self.arcs)
        return out

    def skeleton_f(self) -> float:
        return statistics.median(
            checks.f_score(*checks.skeleton_counts(r.structure.edges, self.arcs))
            for r in self.results)

    def layer_metrics(self, tracer: Tracer, result) -> dict[str, float]:
        return {**{f"pipeline.{k}_s": 0.0 for k in STAGES + ("learn_self",)},
                "merge.jaccard_evaluations": result.jaccard_evaluations,
                "merge.arcs_on_cycles": checks.arcs_on_cycles(result.structure.edges)}


WORKLOADS = {
    "alarm-modelavg": lambda seed: PipelineWorkload("alarm", "modelavg", 70.0, seed),
    "win95pts-greedy": lambda seed: PipelineWorkload("win95pts", "greedy", None, seed),
    "merge-pool-200": MergePoolWorkload,
}


def layer_metrics(workload, tracer: Tracer, result) -> dict[str, float]:
    """Every per-layer metric of one traced operation except the overhead.

    A layer the workload never enters reads 0.
    """
    c = tracer.counts
    lookups = c["averaging.family_lookups"]
    computed = c["averaging.family_scores_computed"]
    mi_calls, mi_pairs = c["weights.mi_calls"], len(tracer.mi_pairs)
    return {
        "data.load_inputs_s": tracer.total("data.load_inputs"),
        "weights.build_substrate_s": tracer.total("weights.build_substrate"),
        "weights.mi_calls": mi_calls,
        "weights.mi_pairs": mi_pairs,
        "weights.mi_calls_per_pair": mi_calls / mi_pairs if mi_pairs else 0.0,
        "partition.consensus_s": tracer.total("partition.consensus"),
        "partition.weight_matrix_calls": tracer.calls("partition.weight_matrix"),
        "partition.weight_matrix_s": tracer.total("partition.weight_matrix"),
        "partition.link_communities_calls": tracer.calls("partition.link_communities"),
        "partition.link_communities_s": tracer.total("partition.link_communities"),
        "blankets.community_blanket_s": tracer.total("blankets.community_blanket"),
        "blankets.ci_tests": c["blankets.ci_tests"],
        "blankets.cmi_calls": c["blankets.cmi_calls"],
        "averaging.learn_structure_s": tracer.total("averaging.learn_structure"),
        "averaging.order_mcmc_s": tracer.total("averaging.order_mcmc"),
        "averaging.mcmc_steps": c["averaging.mcmc_steps"],
        "averaging.logsumexp_calls": c["averaging.logsumexp_calls"],
        "averaging.greedy_learn_s": tracer.total("averaging.greedy_learn"),
        "averaging.family_lookups": lookups,
        "averaging.family_scores_computed": computed,
        "averaging.bdeu_s": float(tracer.seconds["averaging.family_scores_computed"]),
        "averaging.cache_hit_ratio": (lookups - computed) / lookups if lookups else 0.0,
        "merge.merge_all_s": tracer.total("merge.merge_all"),
        "merge.jaccard_calls": c["merge.jaccard_calls"],
        "merge.resolve_calls": tracer.calls("merge.resolve"),
        "merge.resolve_s": tracer.total("merge.resolve"),
        **workload.layer_metrics(tracer, result),
    }
