"""Command line interface.

Subcommands cover the pipeline stages individually (sample, partition,
learn, merge, evaluate, diagnose) and as one run (pipeline).  Exit code 0
on success; failures print a stage-tagged message and exit nonzero.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import replace
from pathlib import Path

from .averaging import LEARNERS, load_structure, save_structure
from .data import forward_sample, load_dataset, load_network, reading, save_dataset
from .errors import PipelineStageError
from .evaluate import partition_diagnostics, score_structure
from .partition import consensus_partition, load_partition, save_partition
from .pipeline import (PipelineConfig, build_substrate, learn_communities, load_pool,
                       merge_communities, run_pipeline, save_pool)


_FLAGS = {
    "--config": {"help": "JSON file of pipeline settings"},
    "--seed": {"type": int, "help": "master seed (overrides config)"},
    "--learner": {"choices": LEARNERS,
                  "help": "local structure learner (overrides config)"},
    "--emit-intermediate": {"metavar": "DIR", "help": "directory for per-stage artifacts"},
}


def _add_common(p: argparse.ArgumentParser, *flags: str) -> None:
    """``-v`` plus the settings flags this subcommand reads."""
    for flag in flags:
        p.add_argument(flag, **_FLAGS[flag])
    p.add_argument("-v", "--verbose", action="store_true")


def _config(args: argparse.Namespace) -> PipelineConfig:
    cfg = PipelineConfig()
    if args.config:
        with reading(args.config) as fh:
            cfg = PipelineConfig.from_json(fh.read())
    # a flag given on the command line overrides the config field it is named after
    return replace(cfg, **{k: v for k, v in vars(args).items()
                           if k in PipelineConfig.__dataclass_fields__ and v is not None})


def _write_json(obj: dict, path: str | None) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True)
    if path:
        Path(path).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="bnsl", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="forward-sample a network to a TSV dataset")
    p.add_argument("--network", required=True)
    p.add_argument("--n", type=int, dest="n_samples", help="rows to sample (overrides config)")
    p.add_argument("--out", required=True)
    _add_common(p, "--config", "--seed")

    p = sub.add_parser("partition", help="consensus-partition a dataset's variables")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    _add_common(p, "--config")

    p = sub.add_parser("learn", help="learn one structure per community")
    p.add_argument("--dataset", required=True)
    p.add_argument("--partition", required=True)
    p.add_argument("--out", required=True, help="structures JSON")
    p.add_argument("--report", help="JSON of per-community learn detail")
    _add_common(p, "--config", "--seed", "--learner")

    p = sub.add_parser("merge", help="merge learned community structures")
    p.add_argument("--dataset", required=True)
    p.add_argument("--structures", required=True, help="structures JSON from learn")
    p.add_argument("--out", required=True, help="edge list of the final structure")
    p.add_argument("--report", help="JSON run report")
    _add_common(p, "--config", "--learner")

    p = sub.add_parser("evaluate", help="score a learned structure against a network")
    p.add_argument("--learned", required=True, help="edge list file")
    p.add_argument("--network", required=True)
    p.add_argument("--directed", action="store_true")
    p.add_argument("--out", help="JSON report (default stdout)")
    _add_common(p)

    p = sub.add_parser("pipeline", help="run every stage end to end")
    p.add_argument("--out", help="edge list of the final structure")
    p.add_argument("--report", help="JSON run report (default stdout)")
    _add_common(p, "--config", "--seed", "--learner", "--emit-intermediate")

    p = sub.add_parser("diagnose", help="partition statistics on the weight graph")
    p.add_argument("--dataset", required=True)
    p.add_argument("--partition", required=True)
    p.add_argument("--out", help="JSON (default stdout)")
    _add_common(p, "--config")

    args = ap.parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(name)s: %(message)s")
    try:
        return _dispatch(args)
    except PipelineStageError as e:
        print(f"bnsl {args.command}: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001 - the CLI boundary reports and exits
        print(f"bnsl {args.command}: stage '{args.command}' failed: {e}",
              file=sys.stderr)
        return 1


def _dispatch(args: argparse.Namespace) -> int:
    cmd = args.command
    if cmd == "sample":
        cfg = _config(args)
        net = load_network(cfg.network)
        save_dataset(forward_sample(net, cfg.n_samples, cfg.seed), args.out)
    elif cmd == "partition":
        cfg = _config(args)
        data = load_dataset(cfg.dataset)
        part = consensus_partition(data, cfg.weight_fns, cfg.t_co, cfg.max_comm)
        save_partition(part, args.out)
    elif cmd == "learn":
        cfg = _config(args)
        data = load_dataset(cfg.dataset)
        part = load_partition(args.partition)
        learn_report: dict = {}
        pool = learn_communities(data, part, build_substrate(data), cfg,
                                 run_report=learn_report)
        save_pool(pool, args.out)
        if args.report:
            _write_json(learn_report, args.report)
    elif cmd == "merge":
        cfg = _config(args)
        data = load_dataset(cfg.dataset)
        pool = load_pool(args.structures)
        merge_report: dict = {}
        result = merge_communities(data, pool, build_substrate(data), cfg,
                                   run_report=merge_report)
        save_structure(result.structure, args.out)
        if args.report:
            _write_json(merge_report, args.report)
    elif cmd == "evaluate":
        net = load_network(args.network)
        report = score_structure(load_structure(args.learned), net, args.directed)
        _write_json(report.to_dict(), args.out)
    elif cmd == "pipeline":
        cfg = _config(args)
        result = run_pipeline(cfg)
        if args.out:
            save_structure(result.structure, args.out)
        _write_json(result.run_report, args.report)
    elif cmd == "diagnose":
        cfg = _config(args)
        data = load_dataset(cfg.dataset)
        part = load_partition(args.partition)
        _write_json(partition_diagnostics(part, build_substrate(data)), args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
