"""Consensus partition of variables into overlapping communities.

Each weight function yields its own graph, elbow cut, and link-community
partition.  Every community of every partition is one row of a membership
matrix; the share of a variable's rows that also hold another weighs the
pair in a second-order network, and clustering that network once more
gives a consensus that no single weight function dominates.  Communities may overlap, and any
community larger than the cap is recursively re-partitioned.
"""

from pathlib import Path

from bnsl import (build_substrate, consensus_partition, forward_sample,
                  load_network, partition_diagnostics)

NETWORKS = Path(__file__).resolve().parents[1] / "networks"


def main():
    net = load_network(NETWORKS / "alarm.net")
    data = forward_sample(net, 20000, seed=0)

    partition = consensus_partition(data)
    print(f"{len(partition.communities)} communities over "
          f"{partition.n} variables")
    for k, comm in enumerate(partition.communities):
        names = ", ".join(net.names[v] for v in comm)
        print(f"  community {k:2d} ({len(comm):2d}): {names}")

    overlapping = [v for v in range(partition.n)
                   if len(partition.communities_of(v)) > 1]
    print(f"{len(overlapping)} variables sit in more than one community")

    stats = partition_diagnostics(partition, build_substrate(data))
    print(f"average size {stats['avg_size']:.2f}, "
          f"average shortest path {stats['avg_shortest_path']:.2f}, "
          f"average diameter {stats['avg_diameter']:.2f}")
    print("size histogram:",
          {k: v for k, v in stats["size_histogram"].items() if v})


if __name__ == "__main__":
    main()
