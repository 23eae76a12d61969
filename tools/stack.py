"""Build a stacked-tile dataset: k independent samples of one network side by side.

Tile t holds ``forward_sample(net, n, seed=t)``, and its variables are the
network's names with the suffix ``_t``.  The truth of the stack is k
disjoint copies of the network, so skeleton F can be computed per tile.
By default the script writes two files into the output directory:

* ``<network>x<k>.tsv`` -- the samples, with their ``# cardinalities`` line
                           (the format that ``bnsl.data.load_dataset`` reads).
* ``<network>x<k>.net`` -- the truth: tile t is a copy of the network over
                           the columns with suffix ``_t``.

With ``--run greedy|modelavg`` it writes nothing and instead runs the
pipeline's stages on the stack in memory, with that learner and every other
setting at its default (seed 0).  It prints V, the seconds of each stage,
the skeleton F of tile 0 and the mean over the tiles, each tile's learned
arcs scored against the network, and the number of arcs that join two
tiles.

Run from the repository root:

    python3 tools/stack.py networks/win95pts.net --tiles 5 --n-samples 20000 \\
        [--out-dir stacks | --run greedy]
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path

import numpy as np

from bnsl.averaging import LocalStructure
from bnsl.data import (DiscreteDataset, GroundTruthNet, forward_sample, load_network,
                       ordered_sum, save_dataset, save_network)
from bnsl.evaluate import score_structure
from bnsl.partition import consensus_partition
from bnsl.pipeline import (PipelineConfig, build_substrate, learn_communities,
                           merge_communities)
from bnsl.weights import pair_stats


def tile_names(net: GroundTruthNet, k: int) -> tuple[str, ...]:
    """Every tile's names, tile by tile: tile t suffixes each name with ``_t``."""
    return tuple(f"{name}_{t}" for t in range(k) for name in net.names)


def stack_network(net: GroundTruthNet, k: int) -> GroundTruthNet:
    """k disjoint copies of ``net``; tile t's variable i is ``t * V + i``."""
    v = net.n_vars
    return GroundTruthNet(tile_names(net, k), net.states * k,
                          tuple((p + t * v, c + t * v) for t in range(k) for p, c in net.arcs),
                          list(net.cpts) * k)


def stack_samples(net: GroundTruthNet, k: int, n: int) -> DiscreteDataset:
    """The (n, k * V) samples whose tile t is ``forward_sample(net, n, seed=t)``."""
    v = net.n_vars
    out = np.empty((n, k * v), dtype=np.int32, order="F")
    for t in range(k):
        out[:, t * v:(t + 1) * v] = forward_sample(net, n, seed=t).samples
    out.flags.writeable = False  # so the dataset keeps it without a copy
    return DiscreteDataset(tile_names(net, k), net.cardinalities * k, out)


def run_stack(net: GroundTruthNet, k: int, n: int,
              learner: str) -> tuple[dict[str, float], LocalStructure]:
    """The stages of ``run_pipeline`` on the k-tile stack, built in memory:
    each stage's seconds and the merged structure."""
    config = PipelineConfig(n_samples=n, learner=learner)
    seconds: dict[str, float] = {}

    def stage(name, fn):
        t0 = time.perf_counter()
        out = fn()
        seconds[name] = time.perf_counter() - t0
        return out

    def weights():
        stats = pair_stats(data)
        return stats, build_substrate(stats)

    data = stage("data", lambda: stack_samples(net, k, n))
    stats, substrate = stage("weights", weights)
    partition = stage("partition", lambda: consensus_partition(
        stats, config.weight_fns, config.t_co, config.max_comm))
    pool = stage("learn", lambda: learn_communities(data, partition, substrate, config))
    merged = stage("merge", lambda: merge_communities(data, pool, substrate, config))
    return seconds, merged.structure


def tile_scores(s: LocalStructure, net: GroundTruthNet, k: int) -> tuple[list[float], int]:
    """The skeleton F of each tile's arcs against ``net``, and the number
    of arcs that join two tiles."""
    v = net.n_vars
    scores = []
    for t in range(k):
        arcs = tuple((a - t * v, b - t * v) for a, b in s.edges
                     if a // v == t and b // v == t)
        scores.append(score_structure(LocalStructure(tuple(range(v)), arcs), net).f_score)
    return scores, sum(1 for a, b in s.edges if a // v != b // v)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("network", help="the .net file to tile")
    parser.add_argument("--tiles", type=int, required=True, help="number of tiles k")
    parser.add_argument("--n-samples", type=int, required=True, help="rows per tile")
    parser.add_argument("--out-dir", default=".", help="directory for the two files")
    parser.add_argument("--run", choices=("greedy", "modelavg"),
                        help="run the pipeline on the stack with this learner instead")
    args = parser.parse_args(argv)
    if args.tiles < 1 or args.n_samples < 0:
        parser.error("--tiles must be at least 1 and --n-samples at least 0")
    net = load_network(args.network)
    if args.run:
        if args.n_samples < 1:
            parser.error("--run needs --n-samples of at least 1")
        seconds, structure = run_stack(net, args.tiles, args.n_samples, args.run)
        scores, across = tile_scores(structure, net, args.tiles)
        print("| tiles | V | total | " + " | ".join(seconds) + " | tile-0 F | mean tile F |")
        print(f"| {args.tiles} | {args.tiles * net.n_vars} | {sum(seconds.values()):.2f} s | "
              + " | ".join(f"{t:.2f}" for t in seconds.values())
              + f" | {scores[0]:.2f} | {ordered_sum(scores) / len(scores):.2f} |")
        print(f"arcs joining two tiles: {across}")
        return 0
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{Path(args.network).stem}x{args.tiles}"
    data = stack_samples(net, args.tiles, args.n_samples)
    save_dataset(data, out / f"{stem}.tsv")
    save_network(stack_network(net, args.tiles), out / f"{stem}.net")
    print(f"{out / stem}.tsv and .net: {data.n_vars} variables, {data.n_rows} rows")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
