"""Network parsing, sampling, discretization and dataset round trips."""

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from bnsl.data import (DiscreteDataset, GroundTruthNet, discretize,
                       forward_sample, load_dataset, load_network,
                       parse_network, save_dataset, save_network,
                       serialize_network)
from bnsl.errors import InvalidInput, NetworkFormatError

from conftest import NETWORKS_DIR, chain3
from oracles import argmax_forward_sample, equal_frequency_codes

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
        ("var a 2 x y\ncpt a : nan 0.5\n", "line 2"),
        ("var a 2 x y\ncpt a : nan nan\n", "line 2"),
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

    @pytest.mark.parametrize("row", [[np.nan, 0.5], [np.nan, np.nan]])
    def test_validation_rejects_nan(self, row):
        # a NaN fails both "< 0" and "> tolerance", so a row is accepted
        # only when it passes each check on the good side
        with pytest.raises(InvalidInput, match="distributions"):
            GroundTruthNet(names=["a"], states=[("x", "y")], arcs=(),
                           cpts=[np.array([row])])

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

    def test_peak_memory_is_one_sample_array(self):
        # the sampler fills one int32 array and hands it to the dataset, so
        # the run never holds a second copy of the samples
        net = load_network(NETWORKS_DIR / "win95pts.net")
        tracemalloc.start()
        try:
            data = forward_sample(net, 20000, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * data.samples.nbytes, (peak, data.samples.nbytes)

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

    @pytest.mark.parametrize("network", sorted(p.stem for p in NETWORKS_DIR.glob("*.net")))
    def test_matches_the_argmax_sampler(self, network):
        net = load_network(NETWORKS_DIR / f"{network}.net")
        for seed, n in ((0, 0), (1, 1), (2, 7), (0, 3000), (5, 3000)):
            got = forward_sample(net, n, seed).samples
            assert np.array_equal(got, argmax_forward_sample(net, n, seed)), (seed, n)

    def test_zero_probability_states_match_the_argmax_sampler(self):
        net = GroundTruthNet(
            names=["a", "b", "c"], states=[("x", "y", "z")] * 3,
            arcs=((0, 1), (0, 2), (1, 2)),
            cpts=[np.array([[0.0, 0.7, 0.3]]),
                  np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.5, 0.0, 0.5]]),
                  np.tile([[0.0, 1.0, 0.0], [0.2, 0.0, 0.8], [0.0, 0.0, 1.0]], (3, 1))])
        for seed in range(4):
            got = forward_sample(net, 2000, seed).samples
            assert np.array_equal(got, argmax_forward_sample(net, 2000, seed))
            assert not (got[:, 0] == 0).any() and not (got[:, 1] == 1).any()
            cfg = got[:, 0] * 3 + got[:, 1]
            assert (net.cpts[2][cfg, got[:, 2]] > 0).all()

    def test_cumulative_sum_above_one_before_the_last_state(self):
        # within the row-sum tolerance, yet the second step already exceeds
        # 1.0, above any draw, so neither sampler draws the last state
        row = np.array([0.5, 0.5 + 1e-12, 0.0])
        assert np.cumsum(row)[1] > 1.0
        net = GroundTruthNet(names=["a", "b"], states=[("x", "y", "z")] * 2,
                             arcs=((0, 1),),
                             cpts=[np.array([[0.1, 0.2, 0.7]]),
                                   np.array([row, [0.1] * 2 + [0.8], [0.3, 0.3, 0.4]])])
        for seed in range(4):
            got = forward_sample(net, 5000, seed).samples
            assert np.array_equal(got, argmax_forward_sample(net, 5000, seed))
            assert not (got[got[:, 0] == 0, 1] == 2).any()


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

    def test_nan_rejected_by_name(self):
        with pytest.raises(InvalidInput, match="column 'x0' holds NaN"):
            discretize([[math.nan, 1], [1, 2], [2, 3], [3, 4]], 2)

    def test_infinities_keep_their_order(self):
        ds = discretize([[-math.inf], [1.0], [2.0], [math.inf]], 2)
        assert ds.samples.ravel().tolist() == [0, 0, 1, 1]

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
    def test_validation(self, chain_data):
        with pytest.raises(InvalidInput):
            DiscreteDataset(["a"], [1], np.zeros((3, 1), dtype=np.int32))
        with pytest.raises(InvalidInput):
            DiscreteDataset(["a"], [2],
                            np.full((3, 1), 5, dtype=np.int32))
        v = chain_data.n_vars
        for cols, bad in (((-1,), -1), ((v,), v), ((0, -1), -1)):
            with pytest.raises(InvalidInput, match=rf"column index {bad} outside 0\.\.{v - 1}"):
                chain_data.counts(cols)

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

    def test_read_only_owned_int32_fortran_input_is_shared(self):
        rows = np.zeros((5, 2), dtype=np.int32, order="F")
        rows[:2, 1] = 1
        rows.flags.writeable = False
        ds = DiscreteDataset(["a", "b"], [2, 2], rows)
        assert ds.samples is rows

    @pytest.mark.parametrize("make", [
        lambda rows: rows[:],  # a read-only view of a writable array
        lambda rows: np.array(rows, order="C"),  # row-major
        lambda rows: rows.astype(np.int64),  # another dtype
        lambda rows: rows.astype(">i4"),  # another byte order
    ], ids=["view", "c-order", "int64", "big-endian"])
    def test_any_other_input_is_copied(self, make):
        rows = np.zeros((5, 2), dtype=np.int32, order="F")
        rows[:2, 1] = 1
        given = make(rows)
        given.flags.writeable = False
        ds = DiscreteDataset(["a", "b"], [2, 2], given)
        assert not np.shares_memory(ds.samples, given)
        assert not np.shares_memory(ds.samples, rows)
        assert np.array_equal(ds.samples, rows)
        rows[0, 0] = 1
        assert ds.samples[0, 0] == 0

    def test_views_share_the_memo_and_select_starts_a_new_one(self, chain_data):
        data = DiscreteDataset(chain_data.names, chain_data.cardinalities,
                               chain_data.samples)
        data.memo["key"] = 1.0
        assert data.distinct([0, 2]).memo is data.memo
        assert data.pair_tables().memo is data.memo
        sub = data.select([0, 1, 2])
        assert sub.memo == {} and sub.memo is not data.memo

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

    @pytest.mark.parametrize("body, where", [
        ("0\tx\n", "string 'x' to int32 at row 0, column 2"),
        ("0\t1\n2.5\t0\n", "string '2.5' to int32 at row 1, column 1"),
        ("0\t1\n1\n", "changed from 2 to 1 at row 2"),
        ("0\t1\n0\t2147483648\n", "string '2147483648' to int32 at row 1, column 2"),
    ], ids=["letter", "fraction", "short-row", "beyond-int32"])
    def test_bad_cell_names_the_file(self, tmp_path, body, where):
        path = tmp_path / "data.tsv"
        path.write_text("a\tb\n" + body, encoding="utf-8")
        with pytest.raises(InvalidInput, match=f"^{re.escape(str(path))}: .*{where}"):
            load_dataset(path)

    def test_load_peak_memory_is_two_sample_arrays(self, tmp_path):
        # loadtxt parses int32, and the dataset makes its one column-major copy
        data = forward_sample(load_network(NETWORKS_DIR / "alarm.net"), 2000, seed=0)
        path = tmp_path / "data.tsv"
        save_dataset(data, path)
        tracemalloc.start()
        try:
            back = load_dataset(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(back.samples, data.samples)
        assert peak < 2.25 * data.samples.nbytes, (peak, data.samples.nbytes)

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

    def test_zero_rows_load_without_a_warning(self, tmp_path):
        ds = DiscreteDataset(["a", "b"], [2, 3], np.zeros((0, 2), dtype=np.int32))
        path = tmp_path / "data.tsv"
        save_dataset(ds, path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("# no rows\n\n")  # loadtxt would skip these lines too
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            back = load_dataset(path)
        assert back.names == ("a", "b")
        assert back.cardinalities == (2, 3)
        assert back.samples.shape == (0, 2)
