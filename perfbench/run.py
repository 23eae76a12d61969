"""Benchmark of bnsl: run one workload, check its outputs, print metrics.

    python3 perfbench/run.py --workload alarm-modelavg --seed 0 --seconds 30 --trace 0

runs whole operations of the workload for ``--seconds`` seconds and prints,
as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Times of operations and set-ups are
scaled to a fixed host speed by a reference loop; see hostspeed.py.
Without ``--workload`` it runs every workload, untraced and traced, one
child process after another, and prints a summary.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SPEC = ROOT / "BENCHMARK.json"
SETUP_REPEATS = 5  # set-ups per run: this process and four children


def _pin_threads() -> None:
    """One BLAS/OpenMP thread, so that all load comes from this process's
    one thread and a 2-core machine is not oversubscribed."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"


def _import_bnsl() -> float:
    """Import bnsl from this checkout's src/ and return the seconds it took."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    try:
        import bnsl
    except ImportError as e:
        raise SystemExit(f"perfbench: cannot import bnsl from {src}: {e}")
    took = time.perf_counter() - t0
    if src.resolve() not in Path(bnsl.__file__).resolve().parents:
        raise SystemExit(f"perfbench: bnsl was imported from {bnsl.__file__}, not {src}")
    return took


def _round(traced_run: bool, index: int) -> tuple[bool, ...]:
    """The operations of one round: untraced only, or an untraced and a
    traced one in alternating order."""
    if not traced_run:
        return (False,)
    return (False, True) if index % 2 == 0 else (True, False)


def _set_up(name: str, seed: int):
    """Import bnsl and build the workload's inputs; (seconds, workload)."""
    _pin_threads()
    import_s = _import_bnsl()
    import workloads
    if name not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {name!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    t0 = time.perf_counter()
    workload = workloads.WORKLOADS[name](seed)
    return import_s + time.perf_counter() - t0, workload


def _child_set_up(name: str, seed: int) -> float:
    """Scaled set-up seconds of the workload in a fresh child process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    return float(proc.stdout.split()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    setup_s, workload = _set_up(name, seed)
    import hostspeed
    import workloads
    from tracing import Tracer, instrumented

    # The reference loop runs after the set-up, which it scales, and after
    # every operation, so that each operation lies between two of its runs.
    refs = [hostspeed.reference_seconds()]
    setup_scaled = hostspeed.scaled(setup_s, refs[0])
    ops: list[tuple[bool, float | None]] = []  # (traced, wall or None if it failed)
    layers: list[dict] = []
    last_trace = None
    attempted = failed = 0
    start = time.perf_counter()
    rounds = 0
    while rounds == 0 or time.perf_counter() - start < seconds:
        for traced in _round(trace, rounds):
            attempted += 1
            gc.collect()
            tracer = Tracer()
            wall = None
            try:
                with instrumented(tracer) if traced else nullcontext():
                    t0 = time.perf_counter()
                    result = workload.run()
                    wall = time.perf_counter() - t0
            except Exception:
                failed += 1
                traceback.print_exc()
            ops.append((traced, wall))
            refs.append(hostspeed.reference_seconds())
            if wall is None:
                continue
            workload.results.append(result)
            if traced:
                layers.append(workloads.layer_metrics(workload, tracer, result))
                last_trace = tracer
        rounds += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    scaled = hostspeed.scaled_series([w for _, w in ops], refs)
    walls: dict[bool, list[float]] = {False: [], True: []}
    for (traced, _), wall in zip(ops, scaled):
        if wall is not None:
            walls[traced].append(wall)
    raw_walls = [w for traced, w in ops if w is not None and not traced]
    problems = workload.problems() if workload.results else ["no operation succeeded"]

    values: dict[str, float] = {}
    if trace:
        wanted = spec["per_layer"]
        if layers and walls[False]:
            values = {key: statistics.median(m[key] for m in layers) for key in layers[0]}
            values["trace.overhead_s"] = (statistics.median(walls[True])
                                          - statistics.median(walls[False]))
            values["host.raw_wall_s"] = statistics.median(raw_walls)
            values["host.reference_s"] = statistics.median(refs)
            RESULTS.mkdir(exist_ok=True)
            (RESULTS / f"trace-{name}-seed{seed}.json").write_text(
                json.dumps(last_trace.to_dict()), encoding="utf-8")
    else:
        wanted = spec["end_to_end"]
        setups = [setup_scaled] + [_child_set_up(name, seed)
                                   for _ in range(SETUP_REPEATS - 1)]
        if walls[False]:
            values = {"wall_s": statistics.median(walls[False]),
                      "setup_s": statistics.median(setups),
                      "peak_rss_mb": peak_rss_mb,
                      "skeleton_f": workload.skeleton_f()}
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        problems.append(f"no value for {', '.join(missing)}")
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    correct = not problems
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in wanted}

    n_ops = len(walls[False]) + len(walls[True])
    print(f"{name} seed {seed}: {attempted} operations attempted, {failed} failed, "
          f"{n_ops} timed in {rounds} rounds")
    if raw_walls:
        print(f"  unscaled: median operation {statistics.median(raw_walls):.6g} s, "
              f"set-up {setup_s:.6g} s; median reference loop "
              f"{statistics.median(refs):.6g} s (REFERENCE_S {hostspeed.REFERENCE_S} s)")
    for key, m in metrics.items():
        print(f"  {key} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in its own child process."""
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    summary, status = {}, 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or not lines:
                print(f"{w['name']} trace {trace}: exit code {proc.returncode}")
                status = 1
                continue
            summary[f"{w['name']}/trace{trace}"] = json.loads(lines[-1])
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"summary-seed{seed}.json"
    out.write_text(json.dumps(summary, indent=2, sort_keys=True), encoding="utf-8")
    print(f"summary written to {out.relative_to(ROOT)}")
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="one workload; all of them when omitted")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float,
                    help="measuring time per run; BENCHMARK.json's run_seconds by default")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="print the workload's set-up seconds and exit")
    args = ap.parse_args(argv)
    if args.setup_only:
        if args.workload is None:
            ap.error("--setup-only needs --workload")
        import hostspeed
        setup_s = _set_up(args.workload, args.seed)[0]
        print(hostspeed.scaled(setup_s, hostspeed.reference_seconds()))
        return 0
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads(SPEC.read_text(encoding="utf-8"))["run_seconds"]
    if args.workload is None:
        return run_all(args.seed, seconds)
    return run_workload(args.workload, args.seed, seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
