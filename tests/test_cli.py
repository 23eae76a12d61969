"""Command line interface, driven in process through main(argv)."""

import argparse
import json
import math

import pytest

from bnsl import cli
from bnsl.averaging import load_structure
from bnsl.cli import main
from bnsl.data import forward_sample, load_dataset, load_network, save_network
from bnsl.errors import InvalidInput, NetworkFormatError
from bnsl.partition import load_partition
from bnsl.pipeline import load_pool
from bnsl.weights import load_weighted_graph

from conftest import NETWORKS_DIR, chain3


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A network file plus a sampled dataset the subcommands can chain on."""
    root = tmp_path_factory.mktemp("cli")
    net_path = root / "chain.net"
    save_network(chain3(), net_path)
    data_path = root / "data.tsv"
    code = main(["sample", "--network", str(net_path), "--n", "1500",
                 "--seed", "3", "--out", str(data_path)])
    assert code == 0
    return root


@pytest.fixture(scope="module")
def config_file(workdir):
    path = workdir / "config.json"
    path.write_text(json.dumps({"max_parents": 2}), encoding="utf-8")
    return str(path)


def test_sample_writes_loadable_dataset(workdir):
    data = load_dataset(workdir / "data.tsv")
    assert data.samples.shape == (1500, 3)
    assert data.names == ("a", "b", "c")


def test_partition_subcommand(workdir):
    out = workdir / "partition.txt"
    code = main(["partition", "--dataset", str(workdir / "data.tsv"),
                 "--out", str(out)])
    assert code == 0
    part = load_partition(out)
    assert part.n == 3


def test_learn_merge_evaluate_chain(workdir, config_file):
    structures = workdir / "structures.json"
    code = main(["learn", "--dataset", str(workdir / "data.tsv"),
                 "--partition", str(workdir / "partition.txt"),
                 "--config", config_file, "--seed", "3",
                 "--out", str(structures)])
    assert code == 0
    raw = json.loads(structures.read_text(encoding="utf-8"))
    assert raw["structures"]

    merged = workdir / "merged.edges"
    merge_report = workdir / "merge_report.json"
    code = main(["merge", "--dataset", str(workdir / "data.tsv"),
                 "--structures", str(structures), "--config", config_file,
                 "--out", str(merged),
                 "--report", str(merge_report)])
    assert code == 0
    assert "jaccard_evaluations" in json.loads(merge_report.read_text(encoding="utf-8"))

    eval_out = workdir / "eval.json"
    code = main(["evaluate", "--learned", str(merged),
                 "--network", str(workdir / "chain.net"),
                 "--out", str(eval_out)])
    assert code == 0
    report = json.loads(eval_out.read_text(encoding="utf-8"))
    assert report["f_score"] == 100.0


def test_pipeline_subcommand(workdir, config_file, capsys):
    with open(config_file, encoding="utf-8") as fh:
        cfg = json.load(fh)
    cfg["network"] = str(workdir / "chain.net")
    cfg["n_samples"] = 1500
    full = workdir / "full_config.json"
    full.write_text(json.dumps(cfg), encoding="utf-8")

    out = workdir / "pipeline.edges"
    code = main(["pipeline", "--config", str(full), "--seed", "3",
                 "--out", str(out)])
    assert code == 0
    run_report = json.loads(capsys.readouterr().out)
    assert run_report["evaluation"]["f_score"] == 100.0
    assert run_report["config"]["seed"] == 3
    assert run_report["config"]["max_parents"] == 2
    assert out.exists()


def test_learner_override_lands_in_report(workdir, config_file, capsys):
    cfg = {"network": str(workdir / "chain.net"), "n_samples": 800}
    full = workdir / "greedy_config.json"
    full.write_text(json.dumps(cfg), encoding="utf-8")
    code = main(["pipeline", "--config", str(full), "--learner", "greedy"])
    assert code == 0
    run_report = json.loads(capsys.readouterr().out)
    assert run_report["config"]["learner"] == "greedy"


def _stage_by_stage_matches_pipeline(tmp_path, capsys, n, seed, learner):
    net = str(NETWORKS_DIR / "alarm.net")
    data, part = tmp_path / "data.tsv", tmp_path / "partition.txt"
    structures, edges = tmp_path / "structures.json", tmp_path / "staged.edges"
    learn_report, merge_report = tmp_path / "learn.json", tmp_path / "merge.json"
    assert main(["sample", "--network", net, "--n", str(n), "--seed", str(seed),
                 "--out", str(data)]) == 0
    assert main(["partition", "--dataset", str(data), "--out", str(part)]) == 0
    assert main(["learn", "--dataset", str(data), "--partition", str(part),
                 "--seed", str(seed), "--learner", learner, "--out", str(structures),
                 "--report", str(learn_report)]) == 0
    assert main(["merge", "--dataset", str(data), "--structures", str(structures),
                 "--learner", learner, "--out", str(edges),
                 "--report", str(merge_report)]) == 0

    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"network": net, "n_samples": n}), encoding="utf-8")
    emitted = tmp_path / "emitted"
    assert main(["pipeline", "--config", str(cfg), "--seed", str(seed),
                 "--learner", learner, "--emit-intermediate", str(emitted),
                 "--out", str(tmp_path / "pipeline.edges")]) == 0
    capsys.readouterr()
    assert (emitted / "dataset.tsv").read_bytes() == data.read_bytes()
    assert load_partition(part) == load_partition(emitted / "partition.txt")
    assert edges.read_bytes() == (tmp_path / "pipeline.edges").read_bytes()
    assert (emitted / "structures.json").read_bytes() == structures.read_bytes()
    staged = json.loads(merge_report.read_text(encoding="utf-8"))
    run = json.loads((emitted / "run_report.json").read_text(encoding="utf-8"))
    assert set(staged) == {"merge_sequence", "jaccard_evaluations", "conflicts"}
    for key in staged:
        assert staged[key] == run[key], key
    staged_learn = json.loads(learn_report.read_text(encoding="utf-8"))
    assert staged_learn == {"communities": run["communities"]}
    assert run["communities"]
    return staged


def test_stage_by_stage_matches_pipeline(tmp_path, capsys):
    # the pipeline shares one PairStats between its stages; the stage
    # subcommands rebuild everything from the saved TSV dataset
    staged = _stage_by_stage_matches_pipeline(tmp_path, capsys, 20000, 0, "modelavg")
    assert staged["merge_sequence"] and staged["jaccard_evaluations"] > 0


def test_stage_by_stage_keeps_a_state_no_row_holds(tmp_path, capsys):
    # in these 30 rows no VENTMACH value is in its state 3; a TSV that lost
    # that state changed the BDeu and G-test figures and flipped an arc
    data = forward_sample(load_network(NETWORKS_DIR / "alarm.net"), 30, seed=1)
    ventmach = data.names.index("VENTMACH")
    assert data.cardinalities[ventmach] == 4 and data.column(ventmach).max() < 3
    _stage_by_stage_matches_pipeline(tmp_path, capsys, 30, 1, "greedy")


@pytest.mark.parametrize("n", [2, 4])
def test_learn_partition_over_other_variables_exits_one(workdir, tmp_path, capsys, n):
    part = tmp_path / "partition.txt"
    part.write_text(f"# nodes {n}\n" + "".join(f"{v}\n" for v in range(n)), encoding="utf-8")
    assert main(["learn", "--dataset", str(workdir / "data.tsv"), "--partition", str(part),
                 "--out", str(tmp_path / "s.json")]) == 1
    assert f"partition covers {n} nodes, the dataset has 3 variables" in capsys.readouterr().err


def test_merge_pool_node_outside_the_dataset_exits_one(workdir, tmp_path, capsys):
    structures = tmp_path / "structures.json"
    structures.write_text(json.dumps({"structures": [
        {"nodes": [0, 1], "edges": [[0, 1]]}, {"nodes": [1, 99], "edges": []}]}),
        encoding="utf-8")
    assert main(["merge", "--dataset", str(workdir / "data.tsv"),
                 "--structures", str(structures), "--out", str(tmp_path / "m.edges")]) == 1
    assert "pool nodes [99] outside 0..2" in capsys.readouterr().err


@pytest.mark.parametrize("raw, message", [
    ({"pool": []}, ": missing 'structures'"),
    ({"structures": [{"nodes": [0, 1]}]}, ", entry 0: missing 'edges'"),
    ({"structures": [{"nodes": [0, 1], "edges": []},
                     {"nodes": [0, 1], "edges": [[0, 1]], "support": {"0-1": 0.5}}]},
     ", entry 1: support key '0-1' is not 'a,b'"),
    # NaN loses every comparison, so it used to win the conflict with 1 -> 0
    ({"structures": [{"nodes": [0, 1], "edges": [[0, 1]], "support": {"0,1": math.nan}},
                     {"nodes": [0, 1], "edges": [[1, 0]], "support": {"1,0": 0.5}}]},
     ", entry 0: support of (0, 1) must lie in [0, 1], got nan"),
    ({"structures": [{"nodes": [0, 1], "edges": [[0]]}]}, ", entry 0: "),
    ({"structures": [{"nodes": [0, 1], "edges": [[0, 1]], "support": {"0,1": "high"}}]},
     ", entry 0: "),
    ({"structures": [5]}, ", entry 0: not a JSON object"),
    ({"structures": [{"nodes": [0, 1], "edges": [[0, 1]], "support": [1]}]},
     ", entry 0: 'support' is not a JSON object"),
    ({"structures": 5}, ": 'structures' is not a list"),
    # a node that is not an integer used to be truncated or parsed
    ({"structures": [{"nodes": [0.5, 1], "edges": []}]},
     ", entry 0: node must be an integer, got 0.5"),
    ({"structures": [{"nodes": [0, 1], "edges": []}, {"nodes": [0, "1"], "edges": []}]},
     ", entry 1: node must be an integer, got '1'"),
    ({"structures": [{"nodes": [0, True], "edges": []}]},
     ", entry 0: node must be an integer, got True"),
    ({"structures": [{"nodes": [0, 1], "edges": [[0, 1.5]]}]},
     ", entry 0: edge endpoint must be an integer, got 1.5")],
    ids=["no_structures", "no_edges", "bad_support_key", "nan_support", "short_edge",
         "text_support", "not_an_object", "support_not_an_object",
         "structures_not_a_list", "float_node",
         "text_node", "bool_node", "float_endpoint"])
def test_merge_malformed_structures_file_names_the_entry(workdir, tmp_path, capsys,
                                                         raw, message):
    structures = tmp_path / "structures.json"
    structures.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["merge", "--dataset", str(workdir / "data.tsv"),
                 "--structures", str(structures), "--out", str(tmp_path / "m.edges")]) == 1
    assert f"{structures}{message}" in capsys.readouterr().err


def test_merge_structures_file_that_is_not_json_is_named(workdir, tmp_path, capsys):
    structures = tmp_path / "structures.json"
    structures.write_text('{"structures": [', encoding="utf-8")
    assert main(["merge", "--dataset", str(workdir / "data.tsv"),
                 "--structures", str(structures), "--out", str(tmp_path / "m.edges")]) == 1
    assert f"{structures}: not valid JSON: " in capsys.readouterr().err


NOT_UTF8 = b"\xff\xfe\x00a"
DECODE = "'utf-8' codec can't decode byte 0xff in position 0"
NO_CPT = b"var a 2 x y\nvar b 2 x y\narc a b\ncpt a : 0.5 0.5\n"


# each reader, a file it cannot read, the error's class, line and message
# after the path, and the command line that reaches the reader, if one does
@pytest.mark.parametrize("read, content, error, line, message, argv", [
    (load_dataset, NOT_UTF8, InvalidInput, None, DECODE,
     ["partition", "--dataset", "{bad}", "--out", "{tmp}/p.txt"]),
    (load_dataset, b"", InvalidInput, None, "dataset file is empty",
     ["partition", "--dataset", "{bad}", "--out", "{tmp}/p.txt"]),
    (load_network, NOT_UTF8, InvalidInput, None, DECODE,
     ["sample", "--network", "{bad}", "--out", "{tmp}/d.tsv"]),
    (load_network, NO_CPT, NetworkFormatError, None, "'b' needs 2 cpt rows, got 0",
     ["sample", "--network", "{bad}", "--out", "{tmp}/d.tsv"]),
    (load_network, b"var a 2 x\n", NetworkFormatError, 1,
     "line 1: expected 2 distinct state labels", None),
    (load_partition, NOT_UTF8, InvalidInput, None, DECODE,
     ["learn", "--dataset", "{data}", "--partition", "{bad}", "--out", "{tmp}/s.json"]),
    (load_partition, b"# nodes 3\n0 1\n", InvalidInput, None,
     "communities must cover every node",
     ["learn", "--dataset", "{data}", "--partition", "{bad}", "--out", "{tmp}/s.json"]),
    (load_structure, NOT_UTF8, InvalidInput, None, DECODE,
     ["evaluate", "--learned", "{bad}", "--network", "{net}"]),
    (load_weighted_graph, NOT_UTF8, InvalidInput, None, DECODE, None),
    (load_pool, NOT_UTF8, InvalidInput, None, DECODE,
     ["merge", "--dataset", "{data}", "--structures", "{bad}", "--out", "{tmp}/m.edges"]),
    (lambda path: cli._config(argparse.Namespace(config=path)), NOT_UTF8, InvalidInput,
     None, DECODE, ["pipeline", "--config", "{bad}"])],
    ids=["dataset", "empty_dataset", "network", "network_without_cpt", "network_line",
         "partition", "partition_not_covering", "structure", "weighted_graph",
         "structures_json", "config"])
def test_reader_names_the_file(workdir, tmp_path, capsys, read, content, error, line,
                               message, argv):
    bad = tmp_path / "bad"
    bad.write_bytes(content)
    with pytest.raises(InvalidInput) as e:
        read(str(bad))
    assert type(e.value) is error and getattr(e.value, "line", None) == line
    assert str(e.value).startswith(f"{bad}: {message}")
    if argv:
        fill = dict(bad=bad, tmp=tmp_path, data=workdir / "data.tsv",
                    net=workdir / "chain.net")
        assert main([a.format(**fill) for a in argv]) == 1
        assert f"stage '{argv[0]}' failed: {bad}: {message}" in capsys.readouterr().err


def test_diagnose_subcommand(workdir, capsys):
    code = main(["diagnose", "--dataset", str(workdir / "data.tsv"),
                 "--partition", str(workdir / "partition.txt")])
    assert code == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["communities"] >= 1
    assert "size_histogram" in stats


def test_missing_file_exits_one(workdir, capsys):
    code = main(["evaluate", "--learned", "/nonexistent/x.edges",
                 "--network", str(workdir / "chain.net")])
    assert code == 1
    err = capsys.readouterr().err
    assert "bnsl evaluate" in err and "failed" in err


def test_pipeline_stage_error_exits_two(tmp_path, capsys):
    code = main(["pipeline", "--config", "/dev/null"])
    assert code == 1  # unreadable config fails before any stage
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"network": "/nonexistent/x.net"}), encoding="utf-8")
    code = main(["pipeline", "--config", str(path)])
    assert code == 2
    assert "stage 'data' failed" in capsys.readouterr().err


def test_sample_takes_n_from_config(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"n_samples": 500}), encoding="utf-8")
    out = tmp_path / "data.tsv"
    assert main(["sample", "--network", str(NETWORKS_DIR / "alarm.net"),
                 "--config", str(cfg), "--out", str(out)]) == 0
    assert load_dataset(out).n_rows == 500


def test_bad_config_name_exits_one_before_any_stage(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"network": str(NETWORKS_DIR / "alarm.net"),
                               "learner": "nope"}), encoding="utf-8")
    assert main(["pipeline", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "unknown learner 'nope'" in err and "stage 'data'" not in err


@pytest.mark.parametrize("key", ["substrate_fn", "k_subsamples", "t_tri", "directed_eval"])
def test_removed_config_key_exits_one_before_any_stage(tmp_path, capsys, key):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"network": str(NETWORKS_DIR / "alarm.net"), key: None}),
                   encoding="utf-8")
    assert main(["pipeline", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert f"unknown config keys: ['{key}']" in err and "stage 'data'" not in err


@pytest.mark.parametrize("field, value", [
    ("alpha", 1.5), ("max_learn_size", 0), ("max_learn_size", 17), ("t_co", 7.0),
    ("seed", -1), ("seed", 1.5), ("n_samples", 2000.5), ("max_parents", 1.5),
    ("max_parents", True), ("ess", "10"), ("network", 2)])
def test_out_of_range_config_exits_one_before_any_stage(tmp_path, capsys, field, value):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"network": str(NETWORKS_DIR / "alarm.net"),
                               field: value}), encoding="utf-8")
    assert main(["pipeline", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert f"{field} must be" in err and "stage 'data'" not in err


# each subcommand's required arguments, so that only the flag under test fails
_REQUIRED = {
    "sample": ["--network", "n.net", "--out", "x.tsv"],
    "partition": ["--dataset", "d.tsv", "--out", "p.txt"],
    "learn": ["--dataset", "d.tsv", "--partition", "p.txt", "--out", "s.json"],
    "merge": ["--dataset", "d.tsv", "--structures", "s.json", "--out", "m.edges"],
    "evaluate": ["--learned", "m.edges", "--network", "n.net"],
    "diagnose": ["--dataset", "d.tsv", "--partition", "p.txt"],
}
# every settings flag that a subcommand does not read
_UNREAD = [
    ("sample", ["--learner", "greedy"]), ("sample", ["--emit-intermediate", "x"]),
    ("partition", ["--seed", "3"]), ("partition", ["--learner", "greedy"]),
    ("partition", ["--emit-intermediate", "x"]),
    ("learn", ["--emit-intermediate", "x"]), ("merge", ["--seed", "3"]),
    ("merge", ["--emit-intermediate", "x"]),
    ("evaluate", ["--config", "c.json"]), ("evaluate", ["--seed", "3"]),
    ("evaluate", ["--learner", "greedy"]), ("evaluate", ["--emit-intermediate", "x"]),
    ("diagnose", ["--seed", "3"]), ("diagnose", ["--learner", "greedy"]),
    ("diagnose", ["--emit-intermediate", "x"]),
]


@pytest.mark.parametrize("command, flag", _UNREAD,
                         ids=[f"{c}{f[0]}" for c, f in _UNREAD])
def test_unread_flag_is_systemexit(command, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, *_REQUIRED[command], *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments: " + " ".join(flag) in capsys.readouterr().err


def test_unknown_subcommand_is_systemexit():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_missing_required_argument_is_systemexit():
    with pytest.raises(SystemExit):
        main(["sample", "--out", "x.tsv"])
