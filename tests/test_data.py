"""Network parsing, sampling, discretization and dataset round trips."""

import numpy as np
import pytest

from bnsl.data import (DiscreteDataset, GroundTruthNet, discretize,
                       forward_sample, load_dataset, load_network,
                       parse_network, save_dataset, save_network,
                       serialize_network)
from bnsl.errors import InvalidInput, NetworkFormatError

from conftest import chain3
from oracles import equal_frequency_codes

CHAIN_TEXT = """\
# tiny chain
var a 2 no yes
var b 2 no yes
var c 3 low mid high
arc a b
arc b c
cpt a | : 0.6 0.4
cpt b | no : 0.9 0.1
cpt b | yes : 0.2 0.8
cpt c | no : 0.7 0.2 0.1
cpt c | yes : 0.1 0.3 0.6
"""


class TestParseNetwork:
    def test_round_trip_identity(self):
        net = parse_network(CHAIN_TEXT)
        again = parse_network(serialize_network(net))
        assert again == net

    def test_structure_fields(self):
        net = parse_network(CHAIN_TEXT)
        assert list(net.names) == ["a", "b", "c"]
        assert list(net.cardinalities) == [2, 2, 3]
        assert net.arcs == ((0, 1), (1, 2))
        assert list(net.parents_of(1)) == [0]
        assert list(net.children_of(1)) == [2]
        assert list(net.parents_of(0)) == []
        assert net.skeleton() == {frozenset({0, 1}), frozenset({1, 2})}

    def test_root_bar_optional(self):
        net = parse_network("var x 2 a b\ncpt x : 0.5 0.5\n")
        assert net.cpts[0].shape == (1, 2)

    def test_comments_and_blanks_ignored(self):
        text = "# header\n\nvar x 2 a b\n  # indented comment\ncpt x : 0.5 0.5\n"
        assert list(parse_network(text).names) == ["x"]

    @pytest.mark.parametrize("text,fragment", [
        ("var a 2 x\n", "line 1"),
        ("frob a b\n", "line 1"),
        ("var a 2 x y\nvar a 2 x y\n", "line 2"),
        ("var a 2 x y\narc a b\n", "line 2"),
        ("var a 1 x\n", "line 1"),
        ("var a 2 x y\ncpt a : 0.7 0.7\n", "line 2"),
        ("var a 2 x y\ncpt a : 0.5 0.5\ncpt a : 0.5 0.5\n", "duplicate"),
        ("var a 2 x y\n", "cpt"),
    ])
    def test_errors_carry_line_context(self, text, fragment):
        with pytest.raises(NetworkFormatError, match=fragment):
            parse_network(text)

    def test_cycle_rejected(self):
        text = ("var a 2 x y\nvar b 2 x y\narc a b\narc b a\n"
                "cpt a | x : 0.5 0.5\ncpt a | y : 0.5 0.5\n"
                "cpt b | x : 0.5 0.5\ncpt b | y : 0.5 0.5\n")
        with pytest.raises(NetworkFormatError, match="cycle"):
            parse_network(text)

    def test_missing_parent_config_rejected(self):
        text = ("var a 2 x y\nvar b 2 x y\narc a b\n"
                "cpt a : 0.5 0.5\ncpt b | x : 0.5 0.5\n")
        with pytest.raises(NetworkFormatError):
            parse_network(text)


class TestGroundTruthNet:
    def test_validation_rejects_cycles(self):
        with pytest.raises(NetworkFormatError, match="cycle"):
            GroundTruthNet(names=["a", "b"], states=[("x", "y")] * 2,
                           arcs=((0, 1), (1, 0)),
                           cpts=[np.full((2, 2), 0.5), np.full((2, 2), 0.5)])

    def test_validation_rejects_bad_row_sum(self):
        with pytest.raises(InvalidInput, match="distributions"):
            GroundTruthNet(names=["a"], states=[("x", "y")], arcs=(),
                           cpts=[np.array([[0.6, 0.6]])])

    def test_validation_rejects_shape_mismatch(self):
        with pytest.raises(InvalidInput, match="shape"):
            GroundTruthNet(names=["a", "b"], states=[("x", "y")] * 2,
                           arcs=((0, 1),),
                           cpts=[np.array([[0.5, 0.5]]),
                                 np.array([[0.5, 0.5]])])

    def test_topological_order_is_valid(self):
        net = chain3()
        order = net.topological_order()
        pos = {v: i for i, v in enumerate(order)}
        assert all(pos[p] < pos[c] for p, c in net.arcs)

    def test_file_round_trip(self, tmp_path):
        net = parse_network(CHAIN_TEXT)
        path = tmp_path / "chain.net"
        save_network(net, path)
        assert load_network(path) == net


class TestForwardSample:
    def test_deterministic_by_seed(self, chain_net):
        a = forward_sample(chain_net, 100, seed=3)
        b = forward_sample(chain_net, 100, seed=3)
        c = forward_sample(chain_net, 100, seed=4)
        assert np.array_equal(a.samples, b.samples)
        assert not np.array_equal(a.samples, c.samples)

    def test_shapes_and_ranges(self, chain_data):
        assert chain_data.samples.shape == (5000, 3)
        assert chain_data.samples.dtype == np.int32
        for col, card in enumerate(chain_data.cardinalities):
            assert chain_data.column(col).max() < card
            assert chain_data.column(col).min() >= 0

    def test_root_marginal_matches_prior(self, chain_net):
        data = forward_sample(chain_net, 50000, seed=11)
        freq = np.bincount(data.column(0), minlength=2) / 50000
        assert freq == pytest.approx(chain_net.cpts[0][0], abs=0.01)

    def test_conditional_rows_respected(self, chain_net):
        data = forward_sample(chain_net, 50000, seed=12)
        a, b = data.column(0), data.column(1)
        for val in (0, 1):
            rows = b[a == val]
            freq = np.bincount(rows, minlength=2) / rows.size
            assert freq == pytest.approx(chain_net.cpts[1][val], abs=0.02)

    def test_collider_configuration_indexing(self):
        # c's cpt rows are indexed with the first (smaller-index) parent
        # as the most significant digit; make the parents distinguishable.
        net = GroundTruthNet(
            names=["a", "b", "c"], states=[("x", "y")] * 3,
            arcs=((0, 2), (1, 2)),
            cpts=[np.array([[0.5, 0.5]]), np.array([[0.5, 0.5]]),
                  np.array([[1.0, 0.0], [1.0, 0.0],
                            [0.0, 1.0], [0.0, 1.0]])])
        data = forward_sample(net, 4000, seed=5)
        a, c = data.column(0), data.column(2)
        assert np.array_equal(a, c)


class TestDiscretize:
    def test_hand_example(self):
        ds = discretize(np.array([[5.0], [3.0], [3.0], [7.0], [1.0]]), 2)
        assert ds.samples.ravel().tolist() == [1, 0, 0, 1, 0]
        assert list(ds.cardinalities) == [2]

    def test_ties_share_a_bin(self):
        ds = discretize(np.array([[2.0], [2.0], [2.0], [2.0], [9.0], [9.0]]), 2)
        assert ds.samples.ravel().tolist() == [0, 0, 0, 0, 1, 1]

    def test_constant_column_rejected_by_name(self):
        with pytest.raises(InvalidInput, match="flat"):
            discretize(np.array([[1.0, 0.5], [1.0, 0.7], [1.0, 0.2]]), 3,
                       names=["flat", "ok"])

    def test_matches_sort_based_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(40):
            n = int(rng.integers(5, 60))
            bins = int(rng.integers(2, 7))
            # integer draws force ties
            column = rng.integers(0, 8, size=n).astype(float)
            try:
                ds = discretize(column[:, None], bins)
            except InvalidInput:
                continue  # all values fell into one equal-frequency bin
            assert ds.samples.ravel().tolist() == \
                equal_frequency_codes(column.tolist(), bins)

    def test_codes_monotone_in_value(self):
        rng = np.random.default_rng(9)
        column = rng.normal(size=200)
        ds = discretize(column[:, None], 5)
        codes = ds.samples.ravel()
        order = np.argsort(column)
        assert np.all(np.diff(codes[order]) >= 0)


class TestDiscreteDataset:
    def test_validation(self):
        with pytest.raises(InvalidInput):
            DiscreteDataset(["a"], [1], np.zeros((3, 1), dtype=np.int32))
        with pytest.raises(InvalidInput):
            DiscreteDataset(["a"], [2],
                            np.full((3, 1), 5, dtype=np.int32))

    def test_samples_read_only(self, chain_data):
        with pytest.raises(ValueError):
            chain_data.samples[0, 0] = 1

    def test_select_keeps_column_subset(self, chain_data):
        sub = chain_data.select([2, 0])
        assert list(sub.names) == [chain_data.names[2], chain_data.names[0]]
        assert list(sub.cardinalities) == [chain_data.cardinalities[2],
                                            chain_data.cardinalities[0]]
        assert np.array_equal(sub.column(0), chain_data.column(2))

    def test_file_round_trip(self, tmp_path, chain_data):
        path = tmp_path / "data.tsv"
        save_dataset(chain_data, path)
        back = load_dataset(path)
        assert list(back.names) == list(chain_data.names)
        assert np.array_equal(back.samples, chain_data.samples)

    def test_columns_contiguous_and_read_only(self, tmp_path, chain_net, chain_data):
        rows = np.array([[0, 1, 2], [1, 0, 1], [1, 1, 0], [0, 0, 2]], dtype=np.int64)
        path = tmp_path / "data.tsv"
        save_dataset(chain_data, path)
        made = [DiscreteDataset(["a", "b", "c"], [2, 2, 3], rows),
                DiscreteDataset(["a", "b", "c"], [2, 2, 3], rows.T.copy().T),
                chain_data, chain_data.select([2, 0]), forward_sample(chain_net, 50, seed=1),
                load_dataset(path)]
        for ds in made:
            assert ds.samples.dtype == np.int32
            assert not ds.samples.flags.writeable
            for i in range(ds.n_vars):
                assert ds.column(i).flags.c_contiguous
            with pytest.raises(ValueError):
                ds.samples[..., 0] = 0

    def test_samples_copied_from_input(self):
        rows = np.zeros((5, 2), dtype=np.int32, order="F")
        ds = DiscreteDataset(["a", "b"], [2, 2], rows)
        rows[0, 0] = 1
        assert ds.samples[0, 0] == 0

    def test_round_trip_exact(self, tmp_path, chain_data):
        path = tmp_path / "data.tsv"
        save_dataset(chain_data, path)
        back = load_dataset(path)
        assert back.names == chain_data.names
        assert back.cardinalities == chain_data.cardinalities
        assert back.samples.dtype == chain_data.samples.dtype
        assert np.array_equal(back.samples, chain_data.samples)
        save_dataset(back, tmp_path / "again.tsv")
        assert (tmp_path / "again.tsv").read_bytes() == path.read_bytes()

    def test_round_trip_keeps_an_unobserved_top_state(self, tmp_path):
        rows = np.array([[0, 1], [2, 0], [1, 1]])
        ds = DiscreteDataset(["a", "b"], [4, 2], rows)
        path = tmp_path / "data.tsv"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert back.cardinalities == (4, 2)
        assert np.array_equal(back.samples, rows)

    @pytest.mark.parametrize("line, match", [
        ("# cardinalities 3\n", "1 cardinalities for 2 variables"),
        ("# cardinalities 3 two\n", "must be integers"),
        ("# cardinalities 2 2\n", "states outside"),  # no room for state 2 of a
        ("# cardinalities 3 1\n", "cardinality >= 2"),
    ])
    def test_malformed_cardinalities_line_rejected(self, tmp_path, line, match):
        path = tmp_path / "data.tsv"
        path.write_text("a\tb\n" + line + "0\t1\n2\t0\n", encoding="utf-8")
        with pytest.raises(InvalidInput, match=match):
            load_dataset(path)

    def test_load_infers_cardinalities(self, tmp_path, chain_data):
        path = tmp_path / "data.tsv"
        save_dataset(chain_data, path)
        path.write_text("".join(line for line in path.read_text(encoding="utf-8")
                                .splitlines(keepends=True) if not line.startswith("#")),
                        encoding="utf-8")
        back = load_dataset(path)
        assert list(back.cardinalities) == [
            int(chain_data.column(i).max()) + 1 for i in range(3)]

    def test_load_infers_at_least_two_states(self, tmp_path):
        path = tmp_path / "data.tsv"
        path.write_text("a\tb\n0\t1\n0\t0\n0\t2\n", encoding="utf-8")
        assert load_dataset(path).cardinalities == (2, 3)
        path.write_text("a\tb\n0\t0\n", encoding="utf-8")  # one row
        assert load_dataset(path).cardinalities == (2, 2)
