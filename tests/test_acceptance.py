"""Acceptance gate: every criterion runs at its stated tolerance.

Each criterion ends by printing one PASS/FAIL line straight to the
terminal (capture bypassed), so a full run reads as a checklist:

    python3 -m pytest tests/test_acceptance.py -v

Criterion 1 also parametrizes every recorded benchmark row separately.
Three recorded rows contradict their own edge counts (the printed
metrics belong to different counts, verified below); those three are
marked as strict expected failures rather than silently skipped.
"""

import statistics
import time

import numpy as np
import pytest
from scipy import stats

from bnsl.averaging import (LearnerConfig, LocalStructure, ScoreCache,
                            bdeu_family_score, exact_order_average,
                            order_mcmc)
from bnsl.blankets import iamb
from bnsl.data import DiscreteDataset, forward_sample, load_network
from bnsl.evaluate import metrics_from_counts
from bnsl.merge import merge_all
from bnsl.partition import Partition, build_psm, co_occurrence
from bnsl.pipeline import PipelineConfig, run_pipeline
from bnsl.weights import WeightedGraph

from conftest import NETWORKS_DIR, chain3, random_binary_net
from oracles import (dag_enumeration_posterior, dag_log_predictive,
                     markov_blanket_of, naive_merge_sequence)

TOL_PP = 0.001      # percentage points, criteria 1 and 2
TOL_SCORE = 1e-9    # log-score and posterior agreement, criteria 3 and 7


def _verdict(capsys, criterion, ok, detail):
    with capsys.disabled():
        print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# --------------------------------------------------------------------------
# criterion 1: recorded benchmark rows reproduce from their edge counts
# --------------------------------------------------------------------------
# (network, algorithm, scope, tp, fn, fp, precision, recall, f)

BENCHMARK_ROWS = [
    ("alarm", "ARACNE", "L", 39, 7, 6, 86.667, 84.783, 85.714),
    ("alarm", "ARACNE", "G", 31, 15, 4, 88.571, 67.391, 76.543),
    ("alarm", "PC", "L", 38, 8, 0, 100.000, 82.609, 90.476),
    ("alarm", "PC", "G", 35, 11, 0, 100.000, 76.087, 86.420),
    ("alarm", "Greedy", "L", 43, 3, 4, 82.979, 84.783, 83.871),
    ("alarm", "Greedy", "G", 44, 2, 9, 83.019, 95.652, 88.889),
    ("alarm", "MMHC", "L", 43, 3, 3, 93.478, 93.478, 93.478),
    ("alarm", "MMHC", "G", 44, 2, 1, 97.778, 95.652, 96.703),
    ("alarm", "ModelAvg", "L", 43, 3, 8, 84.314, 93.478, 88.660),
    ("insurance", "ARACNE", "L", 33, 19, 4, 89.189, 63.462, 74.157),
    ("insurance", "ARACNE", "G", 25, 27, 2, 92.593, 48.077, 63.291),
    ("insurance", "PC", "L", 36, 16, 3, 92.308, 69.231, 79.121),
    ("insurance", "PC", "G", 31, 21, 1, 96.875, 59.615, 73.810),
    ("insurance", "Greedy", "L", 41, 11, 7, 87.179, 65.385, 82.000),
    ("insurance", "Greedy", "G", 47, 5, 11, 81.034, 90.385, 85.455),
    ("insurance", "MMHC", "L", 43, 9, 4, 91.489, 82.692, 86.869),
    ("insurance", "MMHC", "G", 43, 9, 2, 95.556, 82.692, 88.660),
    ("insurance", "ModelAvg", "L", 45, 7, 7, 86.538, 86.538, 86.538),
    ("win95pts", "ARACNE", "L", 81, 31, 39, 67.500, 72.321, 69.828),
    ("win95pts", "ARACNE", "G", 53, 59, 8, 86.885, 47.321, 61.272),
    ("win95pts", "PC", "L", 64, 48, 8, 88.889, 57.143, 69.565),
    ("win95pts", "PC", "G", 38, 74, 3, 92.683, 33.929, 49.673),
    ("win95pts", "Greedy", "L", 99, 13, 143, 40.909, 88.393, 55.932),
    ("win95pts", "Greedy", "G", 94, 18, 106, 47.000, 83.929, 60.256),
    ("win95pts", "MMHC", "L", 92, 20, 56, 62.162, 82.143, 70.769),
    ("win95pts", "MMHC", "G", 90, 22, 32, 73.770, 80.357, 76.923),
    ("win95pts", "ModelAvg", "L", 98, 14, 93, 51.309, 87.500, 64.686),
    ("pigs", "ARACNE", "L", 592, 0, 14, 97.690, 100.000, 98.831),
    ("pigs", "ARACNE", "G", 592, 15, 4, 99.831, 100.000, 99.916),
    ("pigs", "PC", "L", 574, 18, 0, 100.000, 96.959, 98.456),
    ("pigs", "PC", "G", 591, 1, 8, 98.664, 99.831, 99.244),
    ("pigs", "Greedy", "L", 570, 22, 13, 97.770, 96.284, 97.021),
    ("pigs", "Greedy", "G", 592, 0, 47, 92.645, 100.000, 96.182),
    ("pigs", "MMHC", "L", 574, 18, 2, 99.653, 96.959, 98.288),
    ("pigs", "MMHC", "G", 592, 0, 0, 100.000, 100.000, 100.000),
    ("pigs", "ModelAvg", "L", 447, 145, 940, 32.228, 75.507, 45.174),
    ("link", "ARACNE", "L", 422, 703, 338, 55.526, 37.511, 44.775),
    ("link", "ARACNE", "G", 444, 681, 280, 61.326, 39.467, 48.026),
    ("link", "PC", "L", 466, 659, 277, 62.719, 41.422, 49.893),
    ("link", "PC", "G", 70, 1055, 26, 72.917, 6.222, 11.466),
    ("link", "Greedy", "L", 413, 712, 342, 54.702, 36.711, 43.936),
    ("link", "Greedy", "G", 783, 342, 1374, 36.300, 69.600, 47.715),
    ("link", "MMHC", "L", 474, 651, 321, 59.623, 42.133, 49.375),
    ("link", "MMHC", "G", 621, 504, 418, 59.769, 55.200, 57.394),
    ("link", "ModelAvg", "L", 408, 717, 413, 49.695, 36.267, 41.932),
]

# Rows whose printed metrics cannot come from their own counts.  For each,
# the counts whose metrics DO match the printed values (where any exist).
INCONSISTENT_ROWS = {
    ("alarm", "Greedy", "L"):
        "counts (tp 43, fp 4, fn 3) give 91.489/93.478/92.473; the printed "
        "82.979/84.783/83.871 instead matches tp 39, fp 8, fn 7",
    ("insurance", "Greedy", "L"):
        "counts (tp 41, fp 7, fn 11) give 85.417/78.846/82.000; the printed "
        "precision/recall instead match tp 34, fp 5, fn 18, while the "
        "printed F matches the row's own counts",
    ("pigs", "ARACNE", "G"):
        "counts (tp 592, fp 4, fn 15) give 99.329/97.529/98.421; the "
        "printed 99.831/100.000/99.916 instead matches tp 592, fp 1, fn 0",
}


def _row_diff(row):
    _, _, _, tp, fn, fp, precision, recall, f = row
    got = metrics_from_counts(tp, fp, fn)
    return max(abs(g - w) for g, w in zip(got, (precision, recall, f)))


def _row_params():
    params = []
    for row in BENCHMARK_ROWS:
        key = row[:3]
        marks = ()
        if key in INCONSISTENT_ROWS:
            marks = pytest.mark.xfail(strict=True,
                                      reason=INCONSISTENT_ROWS[key])
        params.append(pytest.param(row, id="-".join(key), marks=marks))
    return params


@pytest.mark.parametrize("row", _row_params())
def test_criterion_1_recorded_rows(row):
    assert _row_diff(row) <= TOL_PP


def test_criterion_1_inconsistent_rows_are_transcription_slips():
    """The three outlier rows' printed metrics match other counts exactly."""
    def rounded(tp, fp, fn):
        return tuple(round(x, 3) for x in metrics_from_counts(tp, fp, fn))

    assert rounded(39, 8, 7) == (82.979, 84.783, 83.871)
    p, r, _ = rounded(34, 5, 18)
    assert (p, r) == (87.179, 65.385)
    assert rounded(41, 7, 11)[2] == 82.000
    assert rounded(592, 1, 0) == (99.831, 100.000, 99.916)


def test_criterion_1_summary(capsys):
    reproduced, inconsistent = [], []
    for row in BENCHMARK_ROWS:
        (reproduced if _row_diff(row) <= TOL_PP else inconsistent).append(row[:3])
    ok = (len(reproduced) == 42
          and set(inconsistent) == set(INCONSISTENT_ROWS))
    _verdict(capsys, 1, ok,
             f"{len(reproduced)}/45 benchmark rows reproduce within "
             f"{TOL_PP} pp; the {len(inconsistent)} remaining rows are the "
             "known count/metric mismatches (see INCONSISTENT_ROWS)")


# --------------------------------------------------------------------------
# criterion 2: membership-matrix worked example
# --------------------------------------------------------------------------

def test_criterion_2_membership_matrix_example(capsys):
    partitions = [
        Partition(9, ((3, 6), (6, 7, 8), (0,), (1,), (2,), (4,), (5,))),
        Partition(9, ((3, 6, 7, 8), (0,), (1,), (2,), (4,), (5,))),
    ]
    psm = build_psm(partitions, 6)
    want = np.array([
        [0, 0, 0, 1, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 0, 0, 1, 1, 1],
        [0, 0, 0, 1, 0, 0, 1, 1, 1],
    ], dtype=np.uint8)
    ok = np.array_equal(psm.rows, want)
    cos = {u: co_occurrence(psm, u) for u in (3, 7, 8)}
    ok = ok and all(abs(c - 2.0 / 3.0) < 1e-15 for c in cos.values())
    ok = ok and co_occurrence(psm, 6) == 1.0 and co_occurrence(psm, 0) == 0.0
    _verdict(capsys, 2, ok,
             "stacked membership rows exact; co-occurrence 2/3 for the "
             "three partners, 1 for the node, 0 for strangers")


# --------------------------------------------------------------------------
# criterion 3: order-averaged posteriors against DAG enumeration
# --------------------------------------------------------------------------

def test_criterion_3_posterior_equivalence(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(301)
    worst = 0.0
    for i in range(10):
        k = 3 if i < 5 else 4
        net = random_binary_net(rng, k, arc_prob=0.6)
        data = forward_sample(net, 500, seed=300 + i)
        got = exact_order_average(data).matrix
        want = dag_enumeration_posterior(data.samples,
                                         list(data.cardinalities))
        worst = max(worst, float(np.abs(got - want).max()))

    chain_data = forward_sample(chain3(), 2000, seed=30)
    exact = exact_order_average(chain_data).matrix
    approx = order_mcmc(chain_data, T=200, burn_in=200, seed=0).matrix
    mcmc_diff = float(np.abs(exact - approx).max())

    elapsed = time.perf_counter() - t0
    ok = worst <= TOL_SCORE and mcmc_diff <= 0.05 and elapsed < 120
    _verdict(capsys, 3, ok,
             f"10 fixtures vs enumeration worst diff {worst:.2e} "
             f"(tol 1e-9); sampler vs exact {mcmc_diff:.3f} (tol 0.05); "
             f"{elapsed:.1f}s of 120s")


# --------------------------------------------------------------------------
# criterion 4: blanket recovery on strong-CPT networks
# --------------------------------------------------------------------------

def test_criterion_4_blanket_recovery(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(401)
    total = match = 0
    for i in range(20):
        size = (6, 7, 8)[i % 3]
        net = random_binary_net(rng, size, arc_prob=0.4, sharp=True)
        data = forward_sample(net, 20000, seed=400 + i)
        for x in range(size):
            want = markov_blanket_of(net, x)
            got = iamb(data, x, [v for v in range(size) if v != x],
                       alpha=0.005)
            total += 1
            match += frozenset(got) == want
    rate = 100.0 * match / total
    elapsed = time.perf_counter() - t0
    ok = rate >= 95.0 and elapsed < 300
    _verdict(capsys, 4, ok,
             f"exact blanket on {match}/{total} (node, network) pairs = "
             f"{rate:.2f}% (needs 95%); {elapsed:.1f}s of 300s")


# --------------------------------------------------------------------------
# criterion 5: merge schedule against the full-rescan reference
# --------------------------------------------------------------------------

def _flat_dataset(n_vars):
    rng = np.random.default_rng(0)
    arr = rng.integers(0, 2, size=(8, n_vars)).astype(np.int32)
    arr[0, :] = 0
    arr[1, :] = 1
    return DiscreteDataset([f"v{k}" for k in range(n_vars)],
                           [2] * n_vars, arr)


def test_criterion_5_merge_schedule(capsys):
    t0 = time.perf_counter()
    checked = []
    for n in (10, 50, 200):
        rng = np.random.default_rng(500 + n)
        universe = 2 * n
        node_sets = []
        for _ in range(n):
            size = int(rng.integers(2, 7))
            members = rng.choice(universe, size=size, replace=False)
            node_sets.append(tuple(sorted(members.tolist())))
        pool = [LocalStructure(ns, (), {}) for ns in node_sets]
        result = merge_all(pool, WeightedGraph(universe),
                           _flat_dataset(universe),
                           LearnerConfig(learner="greedy"))
        want_sequence, _ = naive_merge_sequence(node_sets)
        assert list(result.merge_sequence) == want_sequence, f"n={n}"
        assert result.jaccard_evaluations <= 2 * n * (n - 1), f"n={n}"
        checked.append(f"n={n}: {result.jaccard_evaluations} evals "
                       f"<= {2 * n * (n - 1)}")
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60
    _verdict(capsys, 5, ok,
             "sequences match the full-rescan reference exactly; "
             + "; ".join(checked) + f"; {elapsed:.1f}s of 60s")


# --------------------------------------------------------------------------
# criterion 6: benchmark pipelines at full sample size
# --------------------------------------------------------------------------

def test_criterion_6_benchmark_pipelines(capsys):
    t0 = time.perf_counter()
    f_scores, max_community = [], 0
    for seed in (0, 1, 2):
        config = PipelineConfig(network=str(NETWORKS_DIR / "alarm.net"),
                                n_samples=20000, seed=seed)
        result = run_pipeline(config)
        f_scores.append(result.report.f_score)
        max_community = max(max_community, max(result.partition.sizes()))
    alarm_elapsed = time.perf_counter() - t0
    median_f = statistics.median(f_scores)

    t1 = time.perf_counter()
    smoke = run_pipeline(PipelineConfig(
        network=str(NETWORKS_DIR / "win95pts.net"), n_samples=20000, seed=0))
    smoke_elapsed = time.perf_counter() - t1

    ok = (median_f >= 70.0 and max_community <= 25 and alarm_elapsed < 1800
          and len(smoke.structure.nodes) == 76 and smoke_elapsed < 7200)
    _verdict(capsys, 6, ok,
             f"alarm median skeleton F {median_f:.1f} over seeds 0-2 "
             f"(needs 70), largest community {max_community} (cap 25), "
             f"{alarm_elapsed:.0f}s of 1800s; 76-variable smoke run "
             f"finished in {smoke_elapsed:.0f}s of 7200s")


# --------------------------------------------------------------------------
# criterion 7: scores decompose over families, cache is transparent
# --------------------------------------------------------------------------

def test_criterion_7_score_decomposability(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(700)
    worst = 0.0
    for i in range(100):
        n_vars = int(rng.integers(2, 6))
        net = random_binary_net(rng, n_vars, arc_prob=0.5)
        data = forward_sample(net, int(rng.integers(50, 400)), seed=700 + i)
        fresh = sum(bdeu_family_score(data, v, net.parents_of(v))
                    for v in range(n_vars))
        cache = ScoreCache(data, 10.0)
        cached = sum(cache.family_score(v, net.parents_of(v))
                     for v in range(n_vars))
        assert cached == fresh, "cache must be bit-transparent"
        joint = dag_log_predictive(data.samples, net.arcs,
                                   list(data.cardinalities))
        worst = max(worst, abs(fresh - joint))
    elapsed = time.perf_counter() - t0
    ok = worst <= TOL_SCORE and elapsed < 60
    _verdict(capsys, 7, ok,
             f"100 random structures: family sums match the joint "
             f"sequential-predictive value, worst diff {worst:.2e} "
             f"(tol 1e-9), cached sums bit-identical; "
             f"{elapsed:.1f}s of 60s")


# --------------------------------------------------------------------------
# criterion 8: sampler marginals pass a chi-square sanity check
# --------------------------------------------------------------------------

def test_criterion_8_sampler_marginals(capsys):
    t0 = time.perf_counter()
    net = load_network(NETWORKS_DIR / "fivehub.net")
    roots = [i for i in range(net.n_vars) if not net.parents_of(i)]
    assert len(roots) == 5
    data = forward_sample(net, 20000, seed=0)
    p_values = []
    for i in roots:
        observed = np.bincount(data.samples[:, i],
                               minlength=net.cardinalities[i])
        expected = 20000 * net.cpts[i][0]
        p_values.append(float(stats.chisquare(observed,
                                              f_exp=expected).pvalue))
    elapsed = time.perf_counter() - t0
    ok = min(p_values) >= 0.01 and elapsed < 60
    _verdict(capsys, 8, ok,
             "root marginals at N=20000: chi-square p = "
             + ", ".join(f"{p:.3f}" for p in p_values)
             + f" (all must be >= 0.01); {elapsed:.1f}s of 60s")
