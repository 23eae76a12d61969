"""Compare two checkouts on one benchmark workload by alternating pairs of runs.

Each pair runs ``perfbench/run.py --trace 0`` once in each tree, TREE_A
(the baseline) and TREE_B (the change), and the tree that goes first
alternates from pair to pair, so that a drift of the host's speed falls
on both sides alike.  For each end-to-end metric of TREE_A's
``BENCHMARK.json`` it prints each side's median and quartiles, how many
pairs B won, lost and tied (by the metric's ``better`` direction), and
whether the gap between the medians is larger than A's quartile spread.
A host whose speed drifts can move a median by more than one run's noise,
so a gain is claimed only when B wins nearly every pair as well.  Each
pair line and the summary also give each run's count of operations
attempted: perfbench keeps every operation's result, so a side that fits
more operations into its runs peaks higher in ``peak_rss_mb``.

Run from the repository root, for example:

    python3 tools/pairs.py ../parent . --workload alarm-modelavg --pairs 10 --seconds 30

It exits 1, at once, if a run exits nonzero or fails its output checks.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), by the inclusive method; one
    value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summarize(runs_a: list[dict], runs_b: list[dict], better: dict[str, str]) -> list[dict]:
    """One row per metric in ``better`` (name -> "lower" or "higher"):
    each side's quartiles, B's wins, losses and ties over the pairs, and
    whether the medians lie further apart than A's quartile spread.  Run k
    of A and run k of B form pair k; each run maps a metric name to its
    value."""
    if len(runs_a) != len(runs_b) or not runs_a:
        raise ValueError("need the same positive number of runs on each side")
    rows = []
    for name, direction in better.items():
        a = [r[name] for r in runs_a]
        b = [r[name] for r in runs_b]
        sign = 1 if direction == "lower" else -1
        won = sum(sign * (y - x) < 0 for x, y in zip(a, b))
        lost = sum(sign * (y - x) > 0 for x, y in zip(a, b))
        qa, qb = quartiles(a), quartiles(b)
        rows.append({"metric": name, "better": direction, "a": qa, "b": qb,
                     "won": won, "lost": lost, "tied": len(a) - won - lost,
                     "gap_over_spread": abs(qb[1] - qa[1]) > qa[2] - qa[0]})
    return rows


def format_rows(rows: list[dict], units: dict[str, str],
                operations: tuple[list[int], list[int]] | None = None) -> str:
    """The summary as a fixed-width table; given ``operations``, the counts
    of operations attempted by A's runs and by B's, a last row holds each
    side's median and quartiles of them."""
    def side(q):
        return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"

    out = [f"{'metric':<12} {'unit':<5} {'A median [q1, q3]':<32} "
           f"{'B median [q1, q3]':<32} B won/lost/tied  gap > A spread"]
    for r in rows:
        out.append(f"{r['metric']:<12} {units.get(r['metric'], ''):<5} {side(r['a']):<32} "
                   f"{side(r['b']):<32} {r['won']}/{r['lost']}/{r['tied']:<12} "
                   f"{'yes' if r['gap_over_spread'] else 'no'}")
    if operations is not None:
        a, b = (quartiles([float(n) for n in ops]) for ops in operations)
        out.append(f"{'operations':<12} {'count':<5} {side(a):<32} {side(b)}")
    return "\n".join(out)


def run_once(tree: Path, workload: str, seconds: float) -> tuple[dict, int]:
    """The end-to-end metrics of one untraced run in ``tree`` and its count
    of operations attempted; exits 1 if the run fails."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, encoding="utf-8")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    if result is None or not result["correct"] or result["failed"]:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"pairs: the run in {tree} failed (exit code {proc.returncode})")
    return {name: m["value"] for name, m in result["metrics"].items()}, result["attempted"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("tree_a", type=Path, help="the baseline checkout")
    ap.add_argument("tree_b", type=Path, help="the checkout with the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30.0, help="measuring time per run")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    spec = json.loads((args.tree_a / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    runs: dict[str, list[dict]] = {"A": [], "B": []}
    ops: dict[str, list[int]] = {"A": [], "B": []}
    trees = {"A": args.tree_a, "B": args.tree_b}
    for k in range(args.pairs):
        order = ("A", "B") if k % 2 == 0 else ("B", "A")
        for side in order:
            metrics, attempted = run_once(trees[side], args.workload, args.seconds)
            runs[side].append(metrics)
            ops[side].append(attempted)
        print(f"pair {k + 1} ({order[0]} first): "
              + "  ".join(f"{name} A {runs['A'][-1][name]:.6g} B {runs['B'][-1][name]:.6g}"
                          for name in better)
              + f"  operations A {ops['A'][-1]} B {ops['B'][-1]}", flush=True)
    print(f"{args.workload}: {args.pairs} alternating pairs of {args.seconds:g} s runs; "
          f"A = {args.tree_a}, B = {args.tree_b}")
    print(format_rows(summarize(runs["A"], runs["B"], better), units, (ops["A"], ops["B"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
