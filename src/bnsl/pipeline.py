"""End-to-end orchestration: data -> weights -> partition -> learn -> merge.

Every stage is timed, failures are re-raised tagged with the stage name,
and all randomness is derived deterministically from one master seed, so
a run is reproducible from its config alone.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .averaging import (EXACT_MAX_NODES, LearnerConfig, LocalStructure,
                        learn_structure, save_structure)
from .blankets import community_blanket, inner_markov_graph, rnn_sample
from .data import (DiscreteDataset, GroundTruthNet, forward_sample,
                   load_dataset, load_network, reading, save_dataset)
from .errors import InvalidInput, PipelineStageError, check_number_types
from .evaluate import EvalReport, score_structure
from .merge import MergeResult, combine_structures, merge_all, resolve
from .partition import Partition, consensus_partition, save_partition
from .weights import (WEIGHT_FUNCTIONS, PairStats, WeightedGraph, elbow_truncate,
                      pair_stats, save_weighted_graph, weight_matrix)

log = logging.getLogger("bnsl.pipeline")


@dataclass(frozen=True)
class PipelineConfig(LearnerConfig):
    """Everything a full run needs: the ``LearnerConfig`` of its windows and
    the other stages' settings; JSON round-trippable.  Names, types and
    ranges are checked when it is built, so a bad one fails before any stage
    runs.  With ``learner="modelavg"`` every window is averaged exactly, so
    ``max_learn_size`` may not exceed ``EXACT_MAX_NODES``."""

    network: str | None = None     # ground-truth net to sample and score against
    dataset: str | None = None     # or: a pre-built TSV dataset
    n_samples: int = 20000
    seed: int = 0
    weight_fns: tuple[str, ...] = WEIGHT_FUNCTIONS
    t_co: float = 0.5
    alpha: float = 0.05
    max_comm: int = 25
    max_learn_size: int = 15
    emit_intermediate: str | None = None

    def __post_init__(self):
        fns = self.weight_fns
        if not isinstance(fns, (list, tuple)) or not fns:  # a string is not a list
            raise InvalidInput("weight_fns must be a non-empty list of weight function names")
        object.__setattr__(self, "weight_fns", tuple(fns))
        for fn in self.weight_fns:
            if fn not in WEIGHT_FUNCTIONS:
                raise InvalidInput(f"unknown weight function {fn!r}")
        super().__post_init__()  # checks the learner and its settings
        for name in ("network", "dataset", "emit_intermediate"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, str):
                raise InvalidInput(f"{name} must be a path string or null, got {value!r}")
        check_number_types(self, reals=("alpha", "t_co"), integers=(
            "n_samples", "seed", "max_comm", "max_learn_size"))
        for name, ok, rule in (
                ("alpha", 0 < self.alpha < 1, "in (0, 1)"),
                ("t_co", 0 <= self.t_co <= 1, "in [0, 1]"),
                ("max_learn_size", self.max_learn_size >= 1, ">= 1"),
                ("max_learn_size", self.learner != "modelavg"
                 or self.max_learn_size <= EXACT_MAX_NODES,
                 f"<= {EXACT_MAX_NODES} with modelavg"),
                ("max_comm", self.max_comm >= 1, ">= 1"),
                ("n_samples", self.n_samples >= 1, ">= 1"),
                ("seed", self.seed >= 0, ">= 0")):
            if not ok:
                raise InvalidInput(f"{name} must be {rule}, got {getattr(self, name)!r}")

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "PipelineConfig":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as e:
            raise InvalidInput(f"config is not valid JSON: {e}") from e
        if not isinstance(raw, dict):
            raise InvalidInput(f"config must be a JSON object, got {type(raw).__name__}")
        unknown = set(raw) - {f for f in cls.__dataclass_fields__}
        if unknown:
            raise InvalidInput(f"unknown config keys: {sorted(unknown)}")
        return cls(**raw)


@dataclass
class PipelineResult:
    structure: LocalStructure
    partition: Partition
    report: EvalReport | None
    run_report: dict


def derive_seed(master: int, *path: int) -> int:
    """Stable per-stage seed from the master seed and an index path."""
    return int(np.random.SeedSequence((master,) + path).generate_state(1)[0])


def structure_to_dict(s: LocalStructure) -> dict:
    return {
        "nodes": list(s.nodes),
        "edges": [list(e) for e in s.edges],
        "support": {f"{a},{b}": v for (a, b), v in sorted(s.support.items())},
    }


def structure_from_dict(d: dict) -> LocalStructure:
    """Inverse of :func:`structure_to_dict`; an entry or ``"support"`` that
    is not a JSON object, a missing ``"nodes"`` or ``"edges"`` key, a node
    or edge endpoint that is not an integer, or a support key other than
    ``"a,b"`` raises ``InvalidInput``."""
    if not isinstance(d, dict):
        raise InvalidInput("not a JSON object")
    for key in ("nodes", "edges"):
        if key not in d:
            raise InvalidInput(f"missing {key!r}")
    raw = d.get("support", {})
    if not isinstance(raw, dict):
        raise InvalidInput("'support' is not a JSON object")
    support = {}
    for k, v in raw.items():
        try:
            a, b = (int(t) for t in k.split(","))
        except ValueError as e:
            raise InvalidInput(f"support key {k!r} is not 'a,b'") from e
        support[(a, b)] = float(v)
    return LocalStructure(tuple(d["nodes"]), tuple(tuple(e) for e in d["edges"]), support)


def save_pool(pool: list[LocalStructure], path) -> None:
    """The pool as ``{"structures": [...]}``, the file that ``bnsl learn``
    writes and ``bnsl merge --structures`` reads (:func:`load_pool`)."""
    text = json.dumps({"structures": [structure_to_dict(s) for s in pool]},
                      indent=2, sort_keys=True)
    Path(path).write_text(text + "\n", encoding="utf-8")


def load_pool(path) -> list[LocalStructure]:
    """The structures of a :func:`save_pool` file; a malformed file raises
    ``InvalidInput`` naming it and any malformed entry."""
    with reading(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as e:
            raise InvalidInput(f"not valid JSON: {e}") from e
    if not isinstance(raw, dict) or "structures" not in raw:
        raise InvalidInput(f"{path}: missing 'structures'")
    if not isinstance(raw["structures"], list):
        raise InvalidInput(f"{path}: 'structures' is not a list")
    pool = []
    for k, d in enumerate(raw["structures"]):
        try:
            pool.append(structure_from_dict(d))
        except (TypeError, ValueError) as e:  # InvalidInput too
            raise InvalidInput(f"{path}, entry {k}: {e}") from e
    return pool


class _Stages:
    """Tiny helper tracking wall-clock per named stage."""

    def __init__(self):
        self.timings: dict[str, float] = {}

    def run(self, name: str, fn):
        log.info("stage %s", name)
        t0 = time.perf_counter()
        try:
            out = fn()
        except PipelineStageError:
            raise
        except Exception as e:
            raise PipelineStageError(name, e) from e
        self.timings[name] = time.perf_counter() - t0
        return out


def load_inputs(config: PipelineConfig) -> tuple[DiscreteDataset, GroundTruthNet | None]:
    """Dataset plus optional ground truth per the config's data source."""
    if config.network:
        net = load_network(config.network)
        return forward_sample(net, config.n_samples, config.seed), net
    if config.dataset:
        return load_dataset(config.dataset), None
    raise InvalidInput("config needs 'network' or 'dataset'")


def build_substrate(source: DiscreteDataset | PairStats) -> WeightedGraph:
    """Elbow-pruned MI graph used for blanket candidacy and triplets; with
    fewer than two variables it has no edge."""
    if source.n_vars < 2:
        return WeightedGraph(source.n_vars)
    return elbow_truncate(weight_matrix(source, "MI"))


def learn_communities(data: DiscreteDataset, partition: Partition,
                      substrate: WeightedGraph, config: PipelineConfig,
                      run_report: dict | None = None) -> list[LocalStructure]:
    """Blanket-isolate, sample and learn every community; one structure each.

    A community's windows, and the clusters its ``resolve`` re-learns, count
    on the view its blanket search counted on (``BlanketResult.rows``),
    which holds every column they can reach and shares the dataset's memo.

    ``run_report["communities"]`` gets one entry per community, with the
    sizes of the windows it learned: the sampled windows, then the
    clusters that ``resolve`` re-learned.
    """
    if partition.n != data.n_vars:
        raise InvalidInput(f"partition covers {partition.n} nodes, "
                           f"the dataset has {data.n_vars} variables")
    pool = []
    detail = []
    for ci, comm in enumerate(partition.communities):
        br = community_blanket(data, substrate, comm, config.alpha)
        img = inner_markov_graph(br.community, br.blankets)
        subs = rnn_sample(img, br.blankets, max_learn_size=config.max_learn_size,
                          seed=derive_seed(config.seed, 1, ci))
        learned = []
        windows: list[int] = []  # sizes of the windows learned, in order
        seen: set[tuple[int, ...]] = set()
        for sc in subs:
            if sc.members in seen or len(sc.members) < 2:
                continue
            seen.add(sc.members)
            windows.append(len(sc.members))
            learned.append(learn_structure(br.rows, sc.members, config))
        conflicts: list = []
        if learned:
            # the edgeless community keeps a member whose only window was
            # itself, which no learned structure holds
            ens = combine_structures(learned + [LocalStructure(comm, ())], conflicts)
            pool.append(resolve(ens, substrate, br.rows, config, windows=windows))
        else:  # every window held one member, as with empty blankets: no edge
            pool.append(LocalStructure(comm, (), {}))
        detail.append({"community": ci, "size": len(comm),
                       "expanded": len(br.expanded),
                       "subsamples": len(subs), "learned": len(learned),
                       "ensemble_conflicts": len(conflicts),
                       "window_sizes": windows})
    if run_report is not None:
        run_report["communities"] = detail
    return pool


def merge_communities(data: DiscreteDataset, pool: list[LocalStructure],
                      substrate: WeightedGraph, config: PipelineConfig,
                      run_report: dict | None = None) -> MergeResult:
    """Merge the pool; ``run_report`` gets the merge sequence, the Jaccard
    evaluation count and the conflicts."""
    outside = sorted({v for s in pool for v in s.nodes if not 0 <= v < data.n_vars})
    if outside:
        raise InvalidInput(f"pool nodes {outside} outside 0..{data.n_vars - 1}")
    merged = merge_all(pool, substrate, data, config)
    if run_report is not None:
        run_report["merge_sequence"] = [[list(a), list(b)]
                                        for a, b in merged.merge_sequence]
        run_report["jaccard_evaluations"] = merged.jaccard_evaluations
        run_report["conflicts"] = [
            {k: (list(v) if isinstance(v, tuple) else v) for k, v in c.items()}
            for c in merged.conflicts]
    return merged


def run_pipeline(config: PipelineConfig) -> PipelineResult:
    """Full run; see the module docstring for the stage layout."""
    stages = _Stages()
    run_report: dict = {"config": json.loads(config.to_json())}

    data, truth = stages.run("data", lambda: load_inputs(config))

    def weights():
        stats = pair_stats(data)  # shared by the substrate and the partition
        return stats, build_substrate(stats)

    stats, substrate = stages.run("weights", weights)
    partition = stages.run("partition", lambda: consensus_partition(
        stats, config.weight_fns, config.t_co, config.max_comm))
    run_report["partition"] = [list(c) for c in partition.communities]

    pool = stages.run("learn", lambda: learn_communities(
        data, partition, substrate, config, run_report))
    merged = stages.run("merge", lambda: merge_communities(
        data, pool, substrate, config, run_report))

    report = None
    if truth is not None:
        report = stages.run("evaluate", lambda: score_structure(merged.structure, truth))
        run_report["evaluation"] = report.to_dict()
    run_report["timings"] = dict(stages.timings)

    if config.emit_intermediate:
        stages.run("emit", lambda: _emit(config, data, substrate, partition,
                                         pool, merged, report, run_report))
    return PipelineResult(merged.structure, partition, report, run_report)


def _emit(config, data, substrate, partition, pool, merged, report, run_report):
    out = Path(config.emit_intermediate)
    out.mkdir(parents=True, exist_ok=True)
    save_dataset(data, out / "dataset.tsv")
    save_weighted_graph(substrate, out / "substrate.tsv")
    save_partition(partition, out / "partition.txt")
    save_pool(pool, out / "structures.json")
    save_structure(merged.structure, out / "merged.edges")
    (out / "run_report.json").write_text(
        json.dumps(run_report, indent=2, sort_keys=True), encoding="utf-8")
    if report is not None:
        (out / "evaluation.json").write_text(report.to_json(), encoding="utf-8")
