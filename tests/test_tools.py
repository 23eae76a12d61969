"""The scripts under tools/ run as fresh processes and reproduce the files
bundled with the repository or the figures the library computes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bnsl.averaging import LocalStructure, greedy_learn
from bnsl.data import forward_sample, load_dataset, load_network
from bnsl.evaluate import score_structure
from bnsl.pipeline import PipelineConfig, run_pipeline

ROOT = Path(__file__).resolve().parents[1]
BUNDLED = ("alarm.net", "fivehub.net", "insurance.net", "win95pts.net")


def run_tool(script: str, *args, cwd) -> str:
    """The script's standard output; it must exit 0."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / script), *args],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          encoding="utf-8", timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def test_make_networks_rewrites_the_bundled_networks(tmp_path):
    run_tool("make_networks.py", "--out-dir", str(tmp_path), cwd=tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == list(BUNDLED)
    for name in BUNDLED:
        assert (tmp_path / name).read_bytes() == (ROOT / "networks" / name).read_bytes(), name


def test_stack_places_one_seeded_sample_per_tile(tmp_path):
    net = load_network(ROOT / "networks" / "fivehub.net")
    run_tool("stack.py", str(ROOT / "networks" / "fivehub.net"), "--tiles", "2",
             "--n-samples", "500", "--out-dir", str(tmp_path), cwd=tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fivehubx2.net", "fivehubx2.tsv"]
    data = load_dataset(tmp_path / "fivehubx2.tsv")
    truth = load_network(tmp_path / "fivehubx2.net")
    v = net.n_vars
    assert data.n_rows == 500 and data.n_vars == 2 * v
    assert data.cardinalities == truth.cardinalities == net.cardinalities * 2
    assert truth.names == data.names
    for t in range(2):
        tile = slice(t * v, (t + 1) * v)
        assert data.names[tile] == tuple(f"{name}_{t}" for name in net.names)
        assert np.array_equal(data.samples[:, tile], forward_sample(net, 500, seed=t).samples)
        assert truth.states[tile] == net.states
        assert all(np.array_equal(a, b) for a, b in zip(truth.cpts[tile], net.cpts))
    assert truth.arcs == tuple(sorted((p + t * v, c + t * v)
                                      for t in range(2) for p, c in net.arcs))


def test_baselines_prints_each_methods_skeleton_f(tmp_path):
    out = run_tool("baselines.py", "--networks", "fivehub", "--seeds", "0",
                   "--n-samples", "2000", cwd=tmp_path)
    rows = [line.split(" | ") for line in out.splitlines() if line.startswith("| fivehub")]
    net_file = ROOT / "networks" / "fivehub.net"
    net = load_network(net_file)
    want = {f"pipeline, {learner}": run_pipeline(PipelineConfig(
        network=str(net_file), n_samples=2000, seed=0, learner=learner)).report
        for learner in ("modelavg", "greedy")}
    want["global greedy"] = score_structure(
        greedy_learn(forward_sample(net, 2000, seed=0), max_parents=3), net)
    assert [row[1] for row in rows] == list(want)
    for _, method, got in rows:
        r = want[method]
        assert got.startswith(f"{r.f_score:.2f} ({r.tp}/{r.fp}/{r.fn}) "), (method, got)
        assert got.endswith(" s |")


@pytest.mark.parametrize("learner", ["greedy", "modelavg"])
def test_stack_run_scores_each_tile_of_the_pipeline_run(tmp_path, learner):
    net = load_network(ROOT / "networks" / "fivehub.net")
    run_tool("stack.py", str(ROOT / "networks" / "fivehub.net"), "--tiles", "2",
             "--n-samples", "500", "--out-dir", str(tmp_path), cwd=tmp_path)
    out = run_tool("stack.py", str(ROOT / "networks" / "fivehub.net"), "--tiles", "2",
                   "--n-samples", "500", "--run", learner, cwd=tmp_path)
    header, row, across = out.splitlines()
    assert header.split(" | ")[1:-2] == ["V", "total", "data", "weights", "partition",
                                        "learn", "merge"]
    cells = row.strip("| ").split(" | ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fivehubx2.net", "fivehubx2.tsv"]
    # the in-memory stack learns what the pipeline learns from its TSV
    got = run_pipeline(PipelineConfig(dataset=str(tmp_path / "fivehubx2.tsv"),
                                      learner=learner)).structure
    v = net.n_vars
    tiles = [score_structure(LocalStructure(tuple(range(v)), tuple(
        (a - t * v, b - t * v) for a, b in got.edges if a // v == b // v == t)), net).f_score
        for t in range(2)]
    assert cells[:2] == ["2", str(2 * v)]
    assert cells[-2:] == [f"{tiles[0]:.2f}", f"{(tiles[0] + tiles[1]) / 2:.2f}"]
    assert across == f"arcs joining two tiles: {sum(a // v != b // v for a, b in got.edges)}"


def load_pairs():
    import importlib.util
    spec = importlib.util.spec_from_file_location("pairs", ROOT / "tools" / "pairs.py")
    pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pairs)
    return pairs


def test_pairs_summary_counts_wins_by_each_metrics_direction():
    pairs = load_pairs()
    a = [{"wall_s": w, "skeleton_f": f} for w, f in ((1.0, 80.0), (1.2, 80.0), (1.1, 80.0),
                                                      (1.3, 80.0), (1.0, 80.0))]
    b = [{"wall_s": w, "skeleton_f": f} for w, f in ((0.9, 81.0), (1.0, 80.0), (1.1, 79.0),
                                                      (1.0, 81.0), (0.8, 81.0))]
    wall, f = pairs.summarize(a, b, {"wall_s": "lower", "skeleton_f": "higher"})
    assert wall["a"] == (1.0, 1.1, 1.2) and wall["b"] == (0.9, 1.0, 1.0)
    assert (wall["won"], wall["lost"], wall["tied"]) == (4, 0, 1)
    assert not wall["gap_over_spread"]  # 0.1 apart against A's spread of 0.2
    assert (f["won"], f["lost"], f["tied"]) == (3, 1, 1)
    assert f["a"] == (80.0, 80.0, 80.0) and f["gap_over_spread"]  # 81 against a spread of 0
    one = pairs.summarize(a[:1], b[:1], {"wall_s": "lower"})[0]
    assert one["a"] == (1.0, 1.0, 1.0) and one["won"] == 1
    table = pairs.format_rows([wall, f], {"wall_s": "s"})
    assert table.splitlines()[1].split()[:3] == ["wall_s", "s", "1.1"]
    assert "4/0/1" in table
    assert len(table.splitlines()) == 3  # no operations row unless given
    # the operation counts of each side's runs: medians 100 and 120
    counted = pairs.format_rows([wall, f], {"wall_s": "s"},
                                ([100, 98, 101, 100, 99], [120, 121, 118, 120, 122]))
    assert counted.splitlines()[:3] == table.splitlines()
    assert counted.splitlines()[3].split() == ["operations", "count", "100", "[99,", "100]",
                                               "120", "[120,", "121]"]
    with pytest.raises(ValueError):
        pairs.summarize(a, b[:2], {"wall_s": "lower"})


@pytest.mark.parametrize("given,seed", [((), "0"), (("--seed", "7"), "7")])
def test_pairs_passes_its_seed_to_every_run(monkeypatch, capsys, given, seed):
    pairs = load_pairs()
    commands = []

    def fake_run(cmd, **kwargs):
        commands.append(cmd)
        metrics = {"wall_s": 0.1, "setup_s": 0.2, "peak_rss_mb": 50.0, "skeleton_f": 100.0}
        line = json.dumps({"correct": True, "failed": 0, "attempted": 3,
                           "metrics": {k: {"value": v} for k, v in metrics.items()}})
        return subprocess.CompletedProcess(cmd, 0, stdout=f"progress\n{line}\n", stderr="")

    monkeypatch.setattr(pairs.subprocess, "run", fake_run)
    assert pairs.main([str(ROOT), str(ROOT), "--workload", "merge-pool-200",
                       "--pairs", "2", "--seconds", "1", *given]) == 0
    # two pairs of runs, each told the seed; perfbench's own default is 0
    assert len(commands) == 4
    assert all(cmd[cmd.index("--seed") + 1] == seed for cmd in commands)
    assert f"merge-pool-200 seed {seed}: 2 alternating pairs" in capsys.readouterr().out
