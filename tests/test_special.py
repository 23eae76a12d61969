"""bnsl's own log-gamma, log-sum-exp and chi-squared tail against scipy.

The pipeline's edges hinge on the last bit of a score, so ``gammaln`` and
``logsumexp`` must equal scipy's bit for bit, and every G-test decision of
``iamb`` must equal ``chdtrc(df, g) < alpha``; scipy stays the oracle.
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.special as sc

import bnsl.averaging as av
import bnsl.blankets as bl
import bnsl.special as sp
from bnsl.averaging import bdeu_family_score
from bnsl.data import DiscreteDataset, DistinctRows, forward_sample, load_network
from bnsl.pipeline import PipelineConfig, run_pipeline

from conftest import NETWORKS_DIR, REPO_ROOT
from oracles import bdeu_by_parent_loop

N_DRAWS = 10 ** 6


def gammaln_each(xs: np.ndarray) -> np.ndarray:
    return np.array([sp.gammaln(x) for x in xs.tolist()])


@pytest.fixture(scope="module")
def alarm_run():
    """Every argument of ``gammaln`` and every (df, g, alpha) decided in one
    alarm model-averaging run (N = 20000, seed 0)."""
    args, decisions = [], []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(av, "gammaln", lambda x: args.append(x) or sp.gammaln(x))
        mp.setattr(bl, "chi2_sf_below", lambda *a: decisions.append(a) or sp.chi2_sf_below(*a))
        run_pipeline(PipelineConfig(network=str(NETWORKS_DIR / "alarm.net"),
                                    n_samples=20000, seed=0, learner="modelavg"))
    return np.array(args), decisions


@pytest.mark.parametrize("low, high", [(1e-6, 13.0), (13.0, 1000.0), (1000.0, 1e8),
                                       (1e8, 1.7e308)],
                         ids=["below-13", "13-1000", "1000-1e8", "above-1e8"])
def test_gammaln_is_scipys_bit_for_bit(low, high):
    rng = np.random.default_rng(int(math.log10(high)))
    n = N_DRAWS + N_DRAWS // 100  # the spare for the draws out of range below
    if high > 1e8:  # spread over the magnitudes
        xs = np.exp(rng.uniform(math.log(low), math.log(high), n))
    else:
        xs = rng.uniform(low, high, n)
        # a quarter of the draws as BDeu takes them: a pseudo-count ess / (q r) plus a count
        q = n // 4
        xs[:q] = 10.0 / rng.integers(1, 2 ** 22, q) + np.floor(xs[:q])
    xs = xs[(low <= xs) & (xs < high)]
    assert len(xs) >= N_DRAWS
    assert np.array_equal(gammaln_each(xs), sc.gammaln(xs))


def test_gammaln_is_scipys_on_every_argument_of_an_alarm_run(alarm_run):
    args, _ = alarm_run
    assert len(args) > 5000
    assert np.array_equal(gammaln_each(args), sc.gammaln(args))


def test_logsumexp_is_scipys_bit_for_bit():
    assert av.logsumexp is sp.logsumexp  # the benchmark's tracer counts it there
    rng = np.random.default_rng(7)
    for trial in range(3000):
        v = rng.normal(0.0, 10.0 ** rng.uniform(-3, 4), int(rng.integers(1, 1001)))
        if trial % 3 == 0:
            v = np.round(v)  # a largest value held more than once
        if trial % 5 == 0:
            v[rng.random(len(v)) < 0.3] = -np.inf
        got, want = sp.logsumexp(v.tolist()), sc.logsumexp(v)
        assert got == want or (np.isnan(got) and np.isnan(want))


@pytest.mark.parametrize("v", [[-np.inf], [-np.inf] * 3, [np.inf], [1.0, np.inf],
                               [np.inf, -np.inf, 2.0], [-3.0, -np.inf]])
def test_logsumexp_of_infinite_input_is_scipys(v):
    assert sp.logsumexp(v) == sc.logsumexp(v)


DFS = sorted({1, 2, 3, 4, 5, 7, 8, 10, 16, 27, 64, 100, 256, 1000, 4096, 10 ** 4,
              65536, 10 ** 5, 2 ** 18, 10 ** 6, 2 ** 21, 3 * 10 ** 6, 2 ** 22})


@pytest.mark.parametrize("df", DFS)
def test_chi2_sf_is_within_its_error_bound_of_chdtrc(df):
    for p in np.geomspace(1e-4, 0.5, 40):
        g = sc.chdtri(df, p)
        want = sc.chdtrc(df, g)
        assert abs(sp.chi2_sf(df, g) - want) <= sp.CHI2_BAND / 10 * want


@pytest.fixture
def chdtrc_calls(monkeypatch):
    calls = []
    real = sc.chdtrc
    monkeypatch.setattr(sc, "chdtrc", lambda df, g: calls.append((df, g)) or real(df, g))
    return calls


@pytest.mark.parametrize("df", [1, 3, 24, 1000, 2 ** 20])
@pytest.mark.parametrize("alpha", [1e-4, 0.01, 0.05, 0.5])
def test_decision_near_alpha_is_chdtrcs(df, alpha, chdtrc_calls):
    g = sc.chdtri(df, alpha)
    for x in (np.nextafter(g, 0), g, np.nextafter(g, np.inf)):
        assert sp.chi2_sf_below(df, x, alpha) == (sc.chdtrc(df, x) < alpha)
    assert len(chdtrc_calls) == 3 * 2  # each decision asked, and the oracle
    del chdtrc_calls[:]
    assert sp.chi2_sf_below(df, sc.chdtri(df, alpha / 2), alpha)
    assert not sp.chi2_sf_below(df, sc.chdtri(df, min(2 * alpha, 0.9)), alpha)
    assert chdtrc_calls == []


def test_every_decision_of_an_alarm_run_is_chdtrcs(alarm_run):
    _, decisions = alarm_run
    assert len(decisions) > 200
    for df, g, alpha in decisions:
        assert sp.chi2_sf_below(df, g, alpha) == (sc.chdtrc(df, g) < alpha)


def fresh(data: DiscreteDataset) -> DiscreteDataset:
    """The same samples with empty memos, so cold log-gamma tables."""
    return DiscreteDataset(data.names, data.cardinalities, data.samples)


def test_bdeu_equals_the_oracle_from_cold_and_warm_tables():
    data = forward_sample(load_network(NETWORKS_DIR / "alarm.net"), 3000, seed=4)
    rng = np.random.default_rng(11)
    cols = list(range(data.n_vars))
    families = []
    for _ in range(60):
        child, *parents = rng.choice(cols, size=1 + int(rng.integers(0, 4)),
                                     replace=False).tolist()
        families.append((child, tuple(parents), float(rng.choice([1.0, 2.5, 10.0]))))
    for child, parents, ess in families:
        want = bdeu_by_parent_loop(data, child, parents, ess)
        cold = fresh(data)
        assert cold.memo == {}
        view = fresh(data).distinct(sorted((child,) + parents))
        assert isinstance(view, DistinctRows) and view.memo == {}
        for d in (cold, cold, view, view):  # the second call of each reads warm tables
            assert bdeu_family_score(d, child, parents, ess) == want
        assert len(cold.memo["gammaln"]) == 2 and len(view.memo["gammaln"]) == 2
    # one dataset's tables for every family, warm where an earlier family filled them
    for child, parents, ess in families:
        assert bdeu_family_score(data, child, parents, ess) == \
            bdeu_by_parent_loop(data, child, parents, ess)


def test_bdeu_sums_once_from_cold_and_warm_tables(monkeypatch):
    data = forward_sample(load_network(NETWORKS_DIR / "alarm.net"), 3000, seed=4)
    rng = np.random.default_rng(12)
    sums, bdeu_sum = [], av._bdeu_sum
    monkeypatch.setattr(av, "_bdeu_sum", lambda *a: sums.append(a) or bdeu_sum(*a))
    for _ in range(30):
        child, *parents = rng.choice(data.n_vars, size=1 + int(rng.integers(0, 4)),
                                     replace=False).tolist()
        cold = fresh(data)
        for _ in range(2):  # cold tables, then warm
            sums.clear()
            bdeu_family_score(cold, child, parents)
            assert len(sums) == 1


@pytest.mark.parametrize("n", [1, 2, 5, 33])
def test_stacked_bdeu_sums_equal_each_familys_own_sums(n):
    # numpy's pairwise sum switches from an unrolled loop to halving at 128
    # terms; each row sum of a stack must be that row's own 1-D sum, as
    # bdeu_family_score took it on one family, at every length
    rng = np.random.default_rng(n)
    n_rows = 500
    t_j, t_jk = (rng.standard_normal(n_rows + 1) * 10.0 ** rng.integers(-3, 6, n_rows + 1)
                 for _ in range(2))
    shapes = [(q, 1) for q in range(1, 300)] + [(q, r) for q in (7, 64, 243) for r in (2, 3, 5)]
    for q, r in shapes:
        counts = rng.integers(0, n_rows + 1, size=(n, q, r))
        nj = rng.integers(0, n_rows + 1, size=(n, q))
        got = av._bdeu_sum(t_j, t_jk, nj, counts)
        for k in range(n):
            one = (t_j[0] - t_j[nj[k]]).sum()
            one += (t_jk[counts[k]] - t_jk[0]).sum()
            assert got[k] == one, (q, r, k)


def test_import_and_pipelines_load_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    network = str(NETWORKS_DIR / "fivehub.net")
    code = ("import sys, bnsl\n"
            "for learner in ('modelavg', 'greedy'):\n"
            "    bnsl.run_pipeline(bnsl.PipelineConfig(\n"
            f"        network={network!r}, n_samples=2000, learner=learner))\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, encoding="utf-8", timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"
