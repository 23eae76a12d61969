"""Conditional independence tests, IAMB, and sub-community sampling."""

import numpy as np
import pytest
from scipy.stats import chi2, chi2_contingency

import bnsl.blankets
from bnsl.blankets import (BlanketResult, community_blanket,
                           conditional_mutual_information, g_test, iamb,
                           inner_markov_graph, mb_candidates, rnn_sample)
from bnsl.data import DiscreteDataset, DistinctRows, forward_sample, load_network
from bnsl.errors import ConditioningSetTooLarge, InvalidInput
from bnsl.pipeline import PipelineConfig, run_pipeline
from bnsl.weights import WeightedGraph, mutual_information

from conftest import NETWORKS_DIR, chain3, collider3, random_binary_net
from oracles import cmi_by_four_bincounts, conditional_mi_of, markov_blanket_of


def random_dataset(rng, n_rows, cards):
    cols = [rng.integers(0, c, size=n_rows) for c in cards]
    for j, c in enumerate(cards):
        cols[j][:c] = np.arange(c)
    samples = np.column_stack(cols).astype(np.int32)
    return DiscreteDataset([f"v{k}" for k in range(len(cards))],
                           list(cards), samples)


class TestConditionalMutualInformation:
    def test_empty_conditioning_reduces_to_mi(self, chain_data):
        got = conditional_mutual_information(chain_data, 0, 1)
        assert got == pytest.approx(mutual_information(chain_data, 0, 1),
                                    abs=1e-12)

    def test_matches_stratified_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(25):
            cards = [int(rng.integers(2, 4)) for _ in range(4)]
            data = random_dataset(rng, int(rng.integers(30, 150)), cards)
            got = conditional_mutual_information(data, 0, 1, [2, 3])
            want = conditional_mi_of(data.column(0).tolist(),
                                     data.column(1).tolist(),
                                     [data.column(2).tolist(),
                                      data.column(3).tolist()])
            assert got == pytest.approx(want, abs=1e-10)

    def test_nonnegative(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            data = random_dataset(rng, 50, [2, 2, 2])
            assert conditional_mutual_information(data, 0, 1, [2]) >= 0.0

    def test_chain_screening(self, chain_data):
        # conditioning on the middle variable screens the endpoints
        raw = conditional_mutual_information(chain_data, 0, 2)
        screened = conditional_mutual_information(chain_data, 0, 2, [1])
        assert screened < raw / 5

    def test_cell_budget_enforced(self, chain_data, monkeypatch):
        monkeypatch.setattr(bnsl.blankets, "MAX_CMI_CELLS", 4)
        with pytest.raises(ConditioningSetTooLarge,
                           match=r"CMI\(0; 1 \| \(2,\)\) needs 8 count cells"):
            conditional_mutual_information(chain_data, 0, 1, [2])
        assert conditional_mutual_information(chain_data, 0, 1) > 0.0


@pytest.fixture
def tables_counted(monkeypatch):
    """The columns of every table counted on a dataset or a distinct view."""
    counted = []
    for cls in (DiscreteDataset, DistinctRows):
        def recording(self, cols, real=cls.counts):
            counted.append(tuple(cols))
            return real(self, cols)
        monkeypatch.setattr(cls, "counts", recording)
    return counted


class TestEntropyMemo:
    def test_every_cmi_of_an_alarm_run_equals_a_fresh_computation(self, monkeypatch):
        real, seen = bnsl.blankets.conditional_mutual_information, []

        def recording(data, x, y, z=(), *args):
            value = real(data, x, y, z, *args)
            seen.append((x, y, tuple(z), value))
            return value

        monkeypatch.setattr(bnsl.blankets, "conditional_mutual_information", recording)
        network = NETWORKS_DIR / "alarm.net"
        run_pipeline(PipelineConfig(network=str(network), n_samples=20000, seed=0))
        assert len(seen) > len({(x, y, tuple(sorted(z))) for x, y, z, _ in seen})
        fresh = forward_sample(load_network(network), 20000, seed=0)
        for x, y, z, value in seen:
            assert value == cmi_by_four_bincounts(fresh, x, y, z), (x, y, z)

    def test_a_repeated_call_counts_no_table(self, tables_counted):
        data = random_dataset(np.random.default_rng(5), 200, [2, 3, 2, 3])
        first = conditional_mutual_information(data, 0, 1, [2, 3])
        assert tables_counted == [(2, 3, 0, 1)]
        assert conditional_mutual_information(data, 0, 1, [3, 2]) == first
        view = data.distinct(range(4))
        assert conditional_mutual_information(view, 0, 1, [2, 3]) == first
        assert tables_counted == [(2, 3, 0, 1)]
        # (2, 3, 1, 0) orders the cells differently from (2, 3, 0, 1): a miss
        swapped = conditional_mutual_information(view, 1, 0, [2, 3])
        assert tables_counted == [(2, 3, 0, 1), (2, 3, 1, 0)]
        assert swapped == cmi_by_four_bincounts(data, 1, 0, [2, 3])
        conditional_mutual_information(data, 1, 0, [2, 3])
        assert len(tables_counted) == 2

    def test_checks_run_after_a_memo_hit(self, monkeypatch):
        data = random_dataset(np.random.default_rng(6), 200, [2, 3, 2, 3])
        for _ in range(2):
            conditional_mutual_information(data, 0, 1, [2])
        monkeypatch.setattr(bnsl.blankets, "MAX_CMI_CELLS", 11)
        with pytest.raises(ConditioningSetTooLarge):
            conditional_mutual_information(data, 0, 1, [2])
        for x, y, z in ((0, 1, [1, 2]), (0, 0, [2]), (1, 1, ())):
            with pytest.raises(InvalidInput, match="disjoint"):
                conditional_mutual_information(data, x, y, z)
        for x, y, z in ((0, 4, [2]), (-1, 1, [2]), (0, 1, [4])):
            with pytest.raises(InvalidInput, match="outside 0..3"):
                conditional_mutual_information(data, x, y, z)

    def test_datasets_do_not_share_entries(self, tables_counted):
        rng = np.random.default_rng(7)
        cards = [2, 3, 2, 3]
        a, b = random_dataset(rng, 300, cards), random_dataset(rng, 300, cards)
        conditional_mutual_information(a, 0, 1, [2])
        for other in (b, a.select(range(4)), a.select([1, 0, 2, 3])):
            del tables_counted[:]
            got = conditional_mutual_information(other, 0, 1, [2])
            assert tables_counted == [(2, 0, 1)]
            assert got == cmi_by_four_bincounts(other, 0, 1, [2])


class TestGTest:
    def test_statistic_matches_contingency_g(self):
        rng = np.random.default_rng(43)
        for _ in range(15):
            data = random_dataset(rng, 300, [3, 4])
            table = np.zeros((3, 4))
            for a, b in zip(data.column(0), data.column(1)):
                table[a, b] += 1
            if (table == 0).any():
                continue
            want_g, want_p, want_df, _ = chi2_contingency(
                table, correction=False, lambda_="log-likelihood")
            got_g, got_df, got_p = g_test(data, 0, 1)
            assert got_g == pytest.approx(want_g, rel=1e-10)
            assert got_df == want_df
            assert got_p == pytest.approx(want_p, abs=1e-12)

    def test_df_uses_declared_cardinalities(self):
        # an unobserved stratum of z must still widen the test
        rng = np.random.default_rng(44)
        data = random_dataset(rng, 200, [2, 3, 3])
        g, df, p = g_test(data, 0, 1, [2])
        assert df == (2 - 1) * (3 - 1) * 3
        assert p == pytest.approx(float(chi2.sf(g, df)), abs=1e-15)

    def test_p_value_is_chi2_sf_bit_for_bit(self, chain_data):
        rng = np.random.default_rng(45)
        data = random_dataset(rng, 400, [2, 3, 4, 2, 3])
        for x, y, z in ((0, 1, ()), (1, 2, (0,)), (2, 4, (0, 3)), (3, 4, (0, 1, 2))):
            g, df, p = g_test(data, x, y, z)
            assert p == float(chi2.sf(g, df))
        for z in ((), (1,)):
            g, df, p = g_test(chain_data, 0, 2, z)
            assert p == float(chi2.sf(g, df))

    def test_dependence_detected(self, chain_data):
        _, _, p_dep = g_test(chain_data, 0, 1)
        _, _, p_ind = g_test(chain_data, 0, 2, [1])
        assert p_dep < 1e-6
        assert p_ind > 0.01


class TestIamb:
    def test_chain_blankets(self, chain_data):
        assert iamb(chain_data, 1, [0, 2]) == {0, 2}
        assert iamb(chain_data, 0, [1, 2]) == {1}
        assert iamb(chain_data, 2, [0, 1]) == {1}

    def test_forward_test_reuses_the_cmi_that_chose_the_candidate(self, chain_data,
                                                                  monkeypatch):
        real = conditional_mutual_information
        calls = []

        def recording(data, x, y, z=()):
            calls.append((x, y, tuple(sorted(z))))
            return real(data, x, y, z)

        monkeypatch.setattr(bnsl.blankets, "conditional_mutual_information", recording)
        assert iamb(chain_data, 0, [1, 2]) == {1}
        # forward: both candidates, then 2 given {1}, which tests independent;
        # backward: 1 given the empty rest of the blanket
        assert calls == [(0, 1, ()), (0, 2, ()), (0, 2, (1,)), (0, 1, ())]

    def test_collider_includes_spouse(self):
        net = collider3()
        data = forward_sample(net, 8000, seed=9)
        assert iamb(data, 0, [1, 2]) == {1, 2}
        assert iamb(data, 2, [0, 1]) == {0, 1}

    def test_restricted_candidates(self, chain_data):
        assert iamb(chain_data, 0, [2]) <= {2}

    def test_result_never_contains_target(self, chain_data):
        assert 1 not in iamb(chain_data, 1, [0, 1, 2])

    def test_alpha_validation(self, chain_data):
        with pytest.raises(InvalidInput):
            iamb(chain_data, 0, [1], alpha=0.0)
        with pytest.raises(InvalidInput):
            iamb(chain_data, 0, [1], alpha=1.0)

    def test_matches_structural_blanket_on_random_nets(self):
        rng = np.random.default_rng(45)
        hits = trials = 0
        for k in range(5):
            net = random_binary_net(rng, 6, arc_prob=0.5, max_parents=2,
                                    sharp=True)
            data = forward_sample(net, 8000, seed=100 + k)
            for x in range(6):
                want = markov_blanket_of(net, x)
                got = iamb(data, x, [v for v in range(6) if v != x])
                trials += 1
                hits += got == want
        assert hits / trials >= 0.9


class TestBlanketHelpers:
    def test_mb_candidates_mean_rule(self):
        g = WeightedGraph(4)
        g.add_edge(0, 1, 3.0)
        g.add_edge(0, 2, 1.0)
        g.add_edge(0, 3, 2.0)
        # mean incident weight of 0 is 2.0; keep >= mean
        assert mb_candidates(g, 0) == {1, 3}
        assert mb_candidates(g, 1) == {0}
        assert mb_candidates(WeightedGraph(2), 0) == frozenset()

    def test_community_blanket_fields(self, chain_data):
        g = WeightedGraph(3)
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 2, 1.0)
        res = community_blanket(chain_data, g, [0, 1])
        assert isinstance(res, BlanketResult)
        assert res.community == (0, 1)
        assert set(res.blankets) == {0, 1}
        assert set(res.expanded) >= {0, 1}

    def test_inner_markov_graph_symmetry(self):
        blankets = {0: frozenset({1}), 1: frozenset(), 2: frozenset({1})}
        img = inner_markov_graph([0, 1, 2], blankets)
        assert img[0] == {1}
        assert img[1] == {0, 2}
        assert img[2] == {1}


class TestRnnSample:
    def line_img(self, n):
        img = {v: set() for v in range(n)}
        for v in range(n - 1):
            img[v].add(v + 1)
            img[v + 1].add(v)
        return img

    def test_cores_cover_all_nodes(self):
        img = self.line_img(10)
        blankets = {v: frozenset() for v in range(10)}
        subs = rnn_sample(img, blankets, max_learn_size=5, seed=3)
        covered = set()
        for s in subs:
            covered.update(s.core)
        assert covered == set(range(10))

    def test_minimum_draw_count(self):
        img = self.line_img(6)
        blankets = {v: frozenset() for v in range(6)}
        # one-node cores cover the 6 nodes in 6 draws; the minimum of
        # ceil(2 * 6 / 1) = 12 draws keeps sampling past coverage
        subs = rnn_sample(img, blankets, max_learn_size=1, seed=0)
        assert len(subs) == 12

    def test_member_budget_respected(self):
        img = self.line_img(12)
        blankets = {v: frozenset({(v + 3) % 12, (v + 7) % 12})
                    for v in range(12)}
        for s in rnn_sample(img, blankets, max_learn_size=6, seed=1):
            assert len(s.members) <= 6
            assert set(s.core) <= set(s.members)

    def test_deterministic_by_seed(self):
        img = self.line_img(8)
        blankets = {v: frozenset({(v + 2) % 8}) for v in range(8)}
        a = rnn_sample(img, blankets, seed=5)
        b = rnn_sample(img, blankets, seed=5)
        assert a == b

    def test_default_k_from_sizes(self):
        img = self.line_img(9)
        blankets = {v: frozenset() for v in range(9)}
        # ceil(2 * 9 / 4) = 5 draws at least
        subs = rnn_sample(img, blankets, max_learn_size=4, seed=2)
        assert len(subs) >= 5

    def test_bad_inputs(self):
        with pytest.raises(InvalidInput):
            rnn_sample({}, {})
        with pytest.raises(InvalidInput):
            rnn_sample(self.line_img(3), {v: frozenset() for v in range(3)},
                       max_learn_size=0)
