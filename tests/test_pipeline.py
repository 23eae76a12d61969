"""End-to-end orchestration: config handling, staging, reproducibility."""

import json
import math
import re

import numpy as np
import pytest

import bnsl.merge
import bnsl.pipeline
from bnsl.data import DiscreteDataset, save_dataset, save_network
from bnsl.errors import InvalidInput, PipelineStageError
from bnsl.pipeline import (PipelineConfig, build_substrate, derive_seed,
                           learn_communities, load_inputs, merge_communities,
                           run_pipeline, structure_from_dict, structure_to_dict)
from bnsl.averaging import LearnerConfig, LocalStructure
from bnsl.partition import Partition
from bnsl.weights import elbow_truncate, weight_matrix

from conftest import REPO_ROOT, chain3


@pytest.fixture(scope="module")
def chain_net_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("nets") / "chain.net"
    save_network(chain3(), path)
    return str(path)


@pytest.fixture(scope="module")
def small_config(chain_net_file):
    return PipelineConfig(network=chain_net_file, n_samples=2000, seed=3)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(7, 1, 2) == derive_seed(7, 1, 2)

    def test_path_sensitive(self):
        # the stage prefixes used by the pipeline must never collide
        seeds = {derive_seed(7, 1, 0), derive_seed(7, 2, 0, 0),
                 derive_seed(7, 3, 0), derive_seed(7, 4),
                 derive_seed(7, 2, 0, 1), derive_seed(7, 2, 1, 0),
                 derive_seed(8, 4)}
        assert len(seeds) == 7

    def test_fits_in_uint32(self):
        s = derive_seed(123, 4, 5, 6)
        assert 0 <= s < 2 ** 32


class TestPipelineConfig:
    def test_json_round_trip(self):
        config = PipelineConfig(dataset="d.tsv", n_samples=500, seed=9,
                                weight_fns=("MI", "Pearson"), learner="greedy")
        back = PipelineConfig.from_json(config.to_json())
        assert back == config

    def test_unknown_key_rejected(self):
        with pytest.raises(InvalidInput, match="unknown config keys"):
            PipelineConfig.from_json('{"n_sampels": 10}')

    @pytest.mark.parametrize("text, message", [
        ("5", "got int"), ('["seed"]', "got list"), ("null", "got NoneType"),
        ('"seed"', "got str"), ('{"seed": 1', "not valid JSON"),
    ], ids=["number", "list", "null", "string", "truncated"])
    def test_non_object_rejected(self, text, message):
        with pytest.raises(InvalidInput, match=message):
            PipelineConfig.from_json(text)

    @pytest.mark.parametrize("raw, message", [
        ({"learner": "nope"}, "unknown learner 'nope'"),
        ({"weight_fns": "MI"}, "non-empty list"),
        ({"weight_fns": []}, "non-empty list"),
        ({"weight_fns": ["MI", "MI_x"]}, "unknown weight function 'MI_x'"),
        # open() of an int reads that file descriptor and closes it
        ({"network": 2}, "network must be a path string or null, got 2"),
        ({"network": 1}, "network must be a path string or null, got 1"),
        ({"dataset": 0}, "dataset must be a path string or null, got 0"),
        ({"emit_intermediate": True},
         "emit_intermediate must be a path string or null, got True"),
    ], ids=["learner", "weight_fns-string", "weight_fns-empty", "weight_fns-entry",
            "network-stderr", "network-stdout", "dataset-stdin", "emit_intermediate-bool"])
    def test_bad_name_rejected(self, raw, message):
        with pytest.raises(InvalidInput, match=message):
            PipelineConfig.from_json(json.dumps(raw))

    @pytest.mark.parametrize("key, value", [
        ("substrate_fn", "MI"), ("k_subsamples", 3), ("t_tri", 0.5),
        ("directed_eval", True)])
    def test_removed_key_rejected(self, key, value):
        with pytest.raises(InvalidInput, match=f"unknown config keys: \\['{key}'\\]"):
            PipelineConfig.from_json(json.dumps({key: value}))

    @pytest.mark.parametrize("field, value, rule", [
        ("alpha", 0.0, "in \\(0, 1\\)"), ("alpha", 1.5, "in \\(0, 1\\)"),
        ("t_co", 7.0, "in \\[0, 1\\]"), ("t_avg", -0.1, "in \\[0, 1\\]"),
        ("max_learn_size", 0, ">= 1"), ("max_comm", 0, ">= 1"),
        ("n_samples", 0, ">= 1"), ("max_learn_size", 17, "<= 16 with modelavg"),
        ("max_parents", -1, ">= 0"), ("ess", 0.0, "> 0"), ("ess", math.inf, "finite"),
        ("seed", -1, ">= 0"), ("seed", 1.5, "an integer"), ("n_samples", 2000.5, "an integer"),
        ("max_comm", 2.0, "an integer"), ("max_learn_size", True, "an integer"),
        ("max_parents", 1.5, "an integer"), ("max_parents", True, "an integer"),
        ("alpha", "0.05", "a real number"), ("t_co", False, "a real number"),
        ("ess", "10", "a real number"), ("t_avg", None, "a real number"),
    ])
    def test_out_of_range_number_rejected(self, field, value, rule):
        with pytest.raises(InvalidInput, match=f"{field} must be {rule}, got {value!r}"):
            PipelineConfig.from_json(json.dumps({field: value}))

    def test_range_edges_accepted(self):
        PipelineConfig(t_co=0.0, t_avg=1.0, max_learn_size=1, max_comm=1,
                       n_samples=1, max_parents=0, ess=1e-9)
        PipelineConfig(t_co=1.0, t_avg=0.0, max_learn_size=16)
        PipelineConfig(max_learn_size=17, learner="greedy")  # greedy has no limit

    def test_readme_table_lists_every_field(self):
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Configuration", 1)[1].split("\n## ", 1)[0]
        keys = [key for line in section.splitlines() if line.startswith("| `")
                for key in re.findall(r"`(\w+)`", line.split("|")[1])]
        assert len(keys) == len(set(keys))
        assert set(keys) == set(PipelineConfig.__dataclass_fields__)

    def test_weight_fns_list_becomes_tuple(self):
        assert PipelineConfig(weight_fns=["MI", "Pearson"]).weight_fns == ("MI", "Pearson")

    def test_is_the_learner_config_it_was_given(self):
        config = PipelineConfig(learner="greedy", max_parents=2, ess=4.0,
                                t_avg=0.6)
        assert isinstance(config, LearnerConfig)
        assert config.learner == "greedy"
        assert config.max_parents == 2
        assert config.ess == 4.0
        assert config.t_avg == 0.6


class TestStructureDict:
    def test_round_trip(self):
        s = LocalStructure((0, 2, 5), ((0, 2), (5, 2)),
                           {(0, 2): 0.5, (5, 2): 1.0})
        back = structure_from_dict(structure_to_dict(s))
        assert back == s

    def test_dict_is_json_serializable(self):
        s = LocalStructure((0, 1), ((0, 1),), {(0, 1): 0.25})
        text = json.dumps(structure_to_dict(s))
        assert json.loads(text)["support"] == {"0,1": 0.25}


class TestLoadInputs:
    def test_network_mode_samples_and_returns_truth(self, chain_net_file):
        config = PipelineConfig(network=chain_net_file, n_samples=100, seed=1)
        data, truth = load_inputs(config)
        assert data.samples.shape == (100, 3)
        assert truth is not None and truth.n_vars == 3

    def test_dataset_mode(self, tmp_path, chain_data):
        path = tmp_path / "d.tsv"
        save_dataset(chain_data, path)
        config = PipelineConfig(dataset=str(path))
        data, truth = load_inputs(config)
        assert truth is None
        assert np.array_equal(data.samples, chain_data.samples)

    def test_neither_source_rejected(self):
        with pytest.raises(InvalidInput, match="network.*dataset|'network' or 'dataset'"):
            load_inputs(PipelineConfig())


class TestBuildSubstrate:
    def test_matches_elbow_of_weight_matrix(self, chain_data):
        direct = elbow_truncate(weight_matrix(chain_data, "MI"))
        sub = build_substrate(chain_data)
        assert set(sub.edges()) == set(direct.edges())
        for e in sub.edges():
            assert sub.weight(*e) == direct.weight(*e)


class TestLearnCommunities:
    def test_pool_entries_carry_their_community(self, chain_data):
        part = Partition(3, ((0, 1), (1, 2), (2,)))
        substrate = build_substrate(chain_data)
        for learner in ("greedy", "modelavg"):
            config = PipelineConfig(learner=learner)
            pool = learn_communities(chain_data, part, substrate, config)
            assert len(pool) == 3
            for s, comm in zip(pool, part.communities):
                assert set(comm) <= set(s.nodes)

    def test_report_lists_the_windows_learned(self, chain_data, monkeypatch):
        real = bnsl.pipeline.learn_structure
        sizes = []

        def recording(data, nodes, *args):
            sizes.append(len(nodes))
            return real(data, nodes, *args)

        for module in (bnsl.pipeline, bnsl.merge):
            monkeypatch.setattr(module, "learn_structure", recording)
        part = Partition(3, ((0, 1, 2), (2,)))
        report: dict = {}
        learn_communities(chain_data, part, build_substrate(chain_data),
                          PipelineConfig(), run_report=report)
        windows = [c["window_sizes"] for c in report["communities"]]
        assert [n for w in windows for n in w] == sizes
        assert windows[0] and all(2 <= n <= 3 for n in windows[0])

    @pytest.mark.parametrize("n", [2, 4])
    def test_partition_over_other_variables_rejected(self, chain_data, n):
        part = Partition(n, tuple((v,) for v in range(n)))
        with pytest.raises(InvalidInput,
                           match=f"partition covers {n} nodes, the dataset has 3 variables"):
            learn_communities(chain_data, part, build_substrate(chain_data),
                              PipelineConfig())


class TestMergeCommunities:
    def test_pool_node_outside_the_dataset_rejected(self, chain_data):
        pool = [LocalStructure((0, 1), ((0, 1),)), LocalStructure((1, 99), ((1, 99),))]
        with pytest.raises(InvalidInput, match=r"pool nodes \[99\] outside 0\.\.2"):
            merge_communities(chain_data, pool, build_substrate(chain_data),
                              PipelineConfig())


class TestRunPipeline:
    def test_deterministic_and_reported(self, small_config):
        a = run_pipeline(small_config)
        b = run_pipeline(small_config)
        assert a.structure.edges == b.structure.edges
        assert a.partition.communities == b.partition.communities
        assert a.report is not None
        assert a.report == b.report

    def test_recovers_chain_skeleton(self, small_config):
        result = run_pipeline(small_config)
        assert result.structure.skeleton() == \
            {frozenset({0, 1}), frozenset({1, 2})}
        assert result.report.f_score == 100.0

    def test_run_report_keys(self, small_config):
        result = run_pipeline(small_config)
        rr = result.run_report
        for key in ("config", "partition", "communities", "merge_sequence",
                    "jaccard_evaluations", "conflicts", "evaluation",
                    "timings"):
            assert key in rr, key
        assert set(rr["timings"]) == {"data", "weights", "partition",
                                      "learn", "merge", "evaluate"}
        assert json.dumps(rr)  # must be JSON serializable

    def test_dataset_mode_skips_evaluation(self, tmp_path, chain_data):
        path = tmp_path / "d.tsv"
        save_dataset(chain_data, path)
        config = PipelineConfig(dataset=str(path))
        result = run_pipeline(config)
        assert result.report is None
        assert "evaluation" not in result.run_report

    def test_emit_intermediate_files(self, tmp_path, chain_net_file):
        out = tmp_path / "inter"
        config = PipelineConfig(network=chain_net_file, n_samples=500,
                                seed=2,
                                emit_intermediate=str(out))
        run_pipeline(config)
        names = {p.name for p in out.iterdir()}
        assert names == {"dataset.tsv", "substrate.tsv", "partition.txt", "structures.json",
                         "merged.edges", "run_report.json", "evaluation.json"}
        rr = json.loads((out / "run_report.json").read_text(encoding="utf-8"))
        assert rr["config"]["seed"] == 2
        # one structure per community, with its supports
        pool = json.loads((out / "structures.json").read_text(encoding="utf-8"))
        assert len(pool["structures"]) == len(rr["partition"])
        assert all("support" in d for d in pool["structures"])

    def test_stage_attribution_on_failure(self):
        config = PipelineConfig(network="/nonexistent/x.net")
        with pytest.raises(PipelineStageError) as info:
            run_pipeline(config)
        assert info.value.stage == "data"
        assert "stage 'data' failed" in str(info.value)

    @pytest.mark.parametrize("learner", ["modelavg", "greedy"])
    def test_two_variable_dataset(self, tmp_path, chain_data, learner):
        path = tmp_path / "pair.tsv"
        save_dataset(chain_data.select([0, 1]), path)
        result = run_pipeline(PipelineConfig(dataset=str(path), learner=learner))
        assert result.partition.communities == ((0, 1),)
        assert result.structure.nodes == (0, 1)
        if learner == "greedy":
            # the exact average gives each direction of a lone pair about
            # 1/2, which the per-direction threshold of 0.5 may drop
            assert result.structure.skeleton() == {frozenset({0, 1})}

    @pytest.mark.parametrize("learner", ["modelavg", "greedy"])
    def test_constant_column_dataset(self, tmp_path, chain_data, learner):
        samples = np.column_stack([chain_data.samples, np.zeros(chain_data.n_rows, int)])
        path = tmp_path / "const.tsv"
        save_dataset(DiscreteDataset(chain_data.names + ("const",),
                                     chain_data.cardinalities + (2,), samples), path)
        result = run_pipeline(PipelineConfig(dataset=str(path), learner=learner))
        assert (3,) in result.partition.communities
        assert result.structure.nodes == (0, 1, 2, 3)
        assert all(3 not in e for e in result.structure.edges)
        # the constant column's community samples one window and learns none
        detail = result.run_report["communities"]
        assert all(set(d) == {"community", "size", "expanded", "subsamples", "learned",
                              "ensemble_conflicts", "window_sizes"} for d in detail)
        lone = detail[result.partition.communities.index((3,))]
        assert (lone["subsamples"], lone["learned"], lone["ensemble_conflicts"],
                lone["window_sizes"]) == (1, 0, 0, [])

    @pytest.mark.parametrize("learner", ["modelavg", "greedy"])
    def test_one_variable_dataset(self, tmp_path, chain_data, learner):
        path = tmp_path / "one.tsv"
        save_dataset(chain_data.select([0]), path)
        result = run_pipeline(PipelineConfig(dataset=str(path), learner=learner))
        assert result.partition.communities == ((0,),)
        assert result.structure.nodes == (0,) and result.structure.edges == ()

    @pytest.mark.parametrize("learner", ["modelavg", "greedy"])
    def test_member_whose_only_window_is_itself_is_kept(self, learner):
        # at n=50, seed 1, member 3 of community (2, 3) has an empty blanket
        # and no inner-markov neighbour, so its only window is (3,), which
        # is too small to learn
        config = PipelineConfig(network=str(REPO_ROOT / "networks" / "fivehub.net"),
                                n_samples=50, seed=1, learner=learner)
        result = run_pipeline(config)
        assert (2, 3) in result.partition.communities
        assert result.structure.nodes == tuple(range(9))

    def test_greedy_learner_runs(self, chain_net_file):
        config = PipelineConfig(network=chain_net_file, n_samples=1000,
                                seed=5, learner="greedy")
        result = run_pipeline(config)
        assert result.structure.skeleton() == \
            {frozenset({0, 1}), frozenset({1, 2})}
