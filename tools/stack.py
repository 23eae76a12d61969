"""Build a stacked-tile dataset: k independent samples of one network side by side.

Tile t holds ``forward_sample(net, n, seed=t)``, and its variables are the
network's names with the suffix ``_t``.  The truth of the stack is k
disjoint copies of the network, so skeleton F can be computed per tile.
The script writes two files into the output directory:

* ``<network>x<k>.tsv`` -- the samples, with their ``# cardinalities`` line
                           (the format that ``bnsl.data.load_dataset`` reads).
* ``<network>x<k>.net`` -- the truth: tile t is a copy of the network over
                           the columns with suffix ``_t``.

Run from the repository root:

    python3 tools/stack.py networks/win95pts.net --tiles 5 --n-samples 20000 \\
        [--out-dir stacks]
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

from bnsl.data import (DiscreteDataset, GroundTruthNet, forward_sample, load_network,
                       save_dataset, save_network)


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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("network", help="the .net file to tile")
    parser.add_argument("--tiles", type=int, required=True, help="number of tiles k")
    parser.add_argument("--n-samples", type=int, required=True, help="rows per tile")
    parser.add_argument("--out-dir", default=".", help="directory for the two files")
    args = parser.parse_args(argv)
    if args.tiles < 1 or args.n_samples < 0:
        parser.error("--tiles must be at least 1 and --n-samples at least 0")
    net = load_network(args.network)
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
