"""Skeleton F of the pipeline and of global greedy search on bundled networks.

For each network and seed, every method learns from the same sample,
``forward_sample(net, N, seed)``:

* ``pipeline, modelavg`` -- ``run_pipeline`` with the model-averaging learner;
* ``pipeline, greedy``   -- ``run_pipeline`` with the greedy learner;
* ``global greedy``      -- ``greedy_learn(sample, max_parents=3)`` on every
                            variable at once.

The script prints one Markdown row per network and method, with one cell
per seed: skeleton F in percentage points, tp/fp/fn, and the seconds of the
call (a pipeline run samples its own data; global greedy is timed without
the sampling).  F and the counts are deterministic; the seconds are not.

Run from the repository root:

    python3 tools/baselines.py [--networks alarm insurance win95pts] \\
        [--seeds 0 1 2] [--n-samples 20000]
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path

from bnsl.averaging import greedy_learn
from bnsl.data import forward_sample, load_network
from bnsl.evaluate import EvalReport, score_structure
from bnsl.pipeline import PipelineConfig, run_pipeline

NETWORKS_DIR = Path(__file__).resolve().parents[1] / "networks"
# each method's label, and the pipeline's learner (None for global greedy)
METHODS = {"pipeline, modelavg": "modelavg", "pipeline, greedy": "greedy",
           "global greedy": None}


def learn_and_score(learner: str | None, net_path: Path, n: int,
                    seed: int) -> tuple[EvalReport, float]:
    """The skeleton report of one method on one sample, and its seconds."""
    if learner is None:
        net = load_network(net_path)
        data = forward_sample(net, n, seed)
        t0 = time.perf_counter()
        learned = greedy_learn(data, max_parents=3)
        return score_structure(learned, net), time.perf_counter() - t0
    t0 = time.perf_counter()
    result = run_pipeline(PipelineConfig(network=str(net_path), n_samples=n,
                                         seed=seed, learner=learner))
    return result.report, time.perf_counter() - t0


def cell(report: EvalReport, seconds: float) -> str:
    return f"{report.f_score:.2f} ({report.tp}/{report.fp}/{report.fn}) {seconds:.2f} s"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--networks", nargs="+", default=["alarm", "insurance", "win95pts"],
                        help="bundled network names (files under networks/)")
    parser.add_argument("--seeds", nargs="+", type=int, default=[0, 1, 2])
    parser.add_argument("--n-samples", type=int, default=20000, help="rows per sample")
    args = parser.parse_args(argv)
    print(f"Skeleton F (tp/fp/fn) and seconds, N={args.n_samples}.\n")
    print("| network | method | " + " | ".join(f"seed {s}" for s in args.seeds) + " |")
    print("| --- | --- | " + " | ".join("---" for _ in args.seeds) + " |")
    for name in args.networks:
        for method, learner in METHODS.items():
            cells = [cell(*learn_and_score(learner, NETWORKS_DIR / f"{name}.net",
                                           args.n_samples, seed))
                     for seed in args.seeds]
            print(f"| {name} | {method} | " + " | ".join(cells) + " |", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
