"""Acceptance gate: one test per criterion, tolerances as stated.

Each test carries @pytest.mark.acceptance(num, label); the conftest hook
prints a PASS/FAIL line per criterion after the run. Criteria 5 and 8
share one 200-instance survey through a session fixture. ACCEPTANCE_NOTES
entries are written before the asserts so the summary carries measured
numbers even for a failing criterion.
"""

import itertools
import time

import numpy as np
import pytest

from priordp import (
    EdgeMap,
    GaussianModel,
    JointDistribution,
    QuerySpec,
    full_space_search,
    global_sensitivity,
    leakage_gaussian,
    local_sensitivity,
    log_g,
    pdp_exact_all,
    pdp_exact_discrete,
    pdp_numeric_gaussian,
    pearson_corr,
    search_synthetic,
)

from chain_reference import DictEdges, all_values, edge_value, gamma_set
from conftest import (
    ACCEPTANCE_NOTES,
    LEAK_A_STRONG,
    LEAK_A_WEAK,
    LEAK_B_WEAK,
    LEAK_C_WEAK,
    LEAK_D_WEAK,
    LEAK_E3A_WEAK,
    LEAK_E3B_WEAK,
    binary_table,
    random_instance,
)

SUM = {n: QuerySpec.sum_query(n) for n in (2, 3, 4, 5)}


@pytest.fixture(scope="session")
def domination_survey():
    """200 random instances, every node: chain value vs oracle value.

    Returns a list of per-node records shared by criteria 5 and 8.
    """
    rng = np.random.default_rng(20260815)
    records = []
    for idx in range(200):
        n = int(rng.integers(3, 6))
        dist = random_instance(rng, n)
        query = SUM[n]
        graph, _ = full_space_search(dist, query, 1.0)
        ls = [local_sensitivity(dist, query, j) for j in range(n)]
        gs = global_sensitivity(dist, query)
        exact = pdp_exact_all(dist, query, 1.0)
        for (i, K), chain in all_values(graph).items():
            oracle = exact[i, K].leakage
            unknown = [j for j in range(n) if j != i and j not in K]
            sum_ls = ls[i] + sum(ls[j] for j in unknown)
            group = (len(unknown) + 1) * gs
            records.append(
                {
                    "instance": idx,
                    "n": n,
                    "chain": chain,
                    "oracle": oracle,
                    "sum_ls_bound": sum_ls,
                    "group_bound": group,
                }
            )
    return records


@pytest.fixture(scope="session")
def synthetic_sweep():
    """30-seed fast/full comparison at n=15 for averCorr 0.2/0.5/0.8."""
    out = {}
    for corr in (0.2, 0.5, 0.8):
        for seed in range(30):
            edges = EdgeMap(15, corr, seed=seed)
            full = search_synthetic(edges, mode="full")
            fast = search_synthetic(edges, mode="fast")
            out[(corr, seed)] = (full, fast)
    return out


@pytest.mark.acceptance(1, "worked examples: strong exact, weak values, <1s")
def test_criterion_1_worked_examples(table_a, table_b, sum2):
    t0 = time.perf_counter()
    strong = pdp_exact_discrete(table_a, sum2, 1.0, 0, (1,))
    weak_a = pdp_exact_discrete(table_a, sum2, 1.0, 0, ())
    weak_b = pdp_exact_discrete(table_b, sum2, 1.0, 0, ())
    graph_a, _ = full_space_search(table_a, sum2, 1.0)
    graph_b, _ = full_space_search(table_b, sum2, 1.0)
    elapsed = time.perf_counter() - t0
    assert strong.leakage == pytest.approx(LEAK_A_STRONG, abs=1e-9)
    assert graph_a.node_value((0, (1,))) == pytest.approx(
        LEAK_A_STRONG, abs=1e-9
    )
    assert weak_a.leakage == pytest.approx(1.19, abs=0.02)
    assert graph_a.node_value((0, ())) == pytest.approx(
        1.19, abs=0.02
    )
    assert weak_b.leakage == pytest.approx(0.82, abs=0.02)
    assert graph_b.node_value((0, ())) == pytest.approx(
        0.82, abs=0.02
    )
    # frozen digits pin the implementation tighter than the stated window
    assert weak_a.leakage == pytest.approx(LEAK_A_WEAK, abs=1e-9)
    assert weak_b.leakage == pytest.approx(LEAK_B_WEAK, abs=1e-9)
    assert elapsed < 1.0


@pytest.mark.acceptance(2, "near-degenerate tables: 1.95 / 0.05, argmax vs oracle")
def test_criterion_2_near_degenerate(table_e3a, table_e3b, sum2):
    t0 = time.perf_counter()
    values = {}
    for name, dist, expect in (
        ("a", table_e3a, 1.95),
        ("b", table_e3b, 0.05),
    ):
        graph, report = full_space_search(dist, sum2, 1.0)
        weak = graph.node_value((0, ()))
        assert weak == pytest.approx(expect, abs=0.02)
        oracle_weak = pdp_exact_discrete(dist, sum2, 1.0, 0, ()).leakage
        assert weak == pytest.approx(oracle_weak, abs=1e-9)
        # the reported argmax adversary must be confirmed by the oracle
        oracle_arg = pdp_exact_discrete(dist, sum2, 1.0, *report.argmax).leakage
        assert report.leakage == pytest.approx(oracle_arg, abs=1e-9)
        values[name] = weak
    elapsed = time.perf_counter() - t0
    assert values["a"] == pytest.approx(LEAK_E3A_WEAK, abs=1e-9)
    assert values["b"] == pytest.approx(LEAK_E3B_WEAK, abs=1e-9)
    assert elapsed < 1.0


@pytest.mark.acceptance(3, "degenerate diagonal tables: 2.000 and 6.000 exact")
def test_criterion_3_degenerate_diagonal(table_c, table_d, sum2):
    for dist, expect in ((table_c, LEAK_C_WEAK), (table_d, LEAK_D_WEAK)):
        oracle = pdp_exact_discrete(dist, sum2, 1.0, 0, ()).leakage
        assert oracle == pytest.approx(expect, abs=1e-9)
        graph, _ = full_space_search(dist, sum2, 1.0)
        assert graph.node_value((0, ())) == pytest.approx(
            expect, abs=1e-9
        )


@pytest.mark.acceptance(4, "bivariate Gaussian: |1+rho| M/lambda, numeric 1e-3")
def test_criterion_4_bivariate_gaussian():
    M, lam = 2.0, 0.8
    for rho in (-1.0, -0.5, 0.0, 0.5, 1.0):
        model = GaussianModel(
            mu=[0.0, 0.0], sigma=[[1.0, rho], [rho, 1.0]], M=M, lam=lam
        )
        closed = leakage_gaussian(model, 0, [])
        assert closed == pytest.approx(abs(1 + rho) * M / lam, abs=1e-12)
        numeric = pdp_numeric_gaussian(model, 0, [])
        assert numeric == pytest.approx(closed, abs=1e-3)


@pytest.mark.acceptance(5, "oracle domination over 200 random instances")
def test_criterion_5_oracle_domination(domination_survey):
    # The ray-based increments do not certify an upper bound: the output
    # supremum can sit at an interior kink above both rays. The assert is
    # kept verbatim and the measured gap is reported either way; the notes
    # ledger records the analysis (D24).
    gaps = np.asarray([r["chain"] - r["oracle"] for r in domination_survey])
    violations = gaps < -1e-9
    ACCEPTANCE_NOTES[5] = (
        f"mean gap {gaps.mean():+.4f}, mean |gap| {np.abs(gaps).mean():.4f}, "
        f"violations {int(violations.sum())}/{gaps.size} nodes, "
        f"worst overshoot {max(0.0, float(-gaps.min())):.4f}"
    )
    assert not violations.any(), (
        f"{int(violations.sum())} of {gaps.size} nodes exceed the chain value; "
        f"worst gap {-gaps.min():.6f}"
    )


@pytest.mark.acceptance(6, "independence makes prior knowledge irrelevant")
def test_criterion_6_independence_invariance():
    rng = np.random.default_rng(11)
    for _ in range(100):
        sizes = rng.integers(2, 4, size=3)
        margs = []
        doms = []
        for s in sizes:
            p = rng.dirichlet(np.ones(int(s))) + 0.02
            margs.append(p / p.sum())
            doms.append(tuple(np.sort(rng.uniform(0.0, 1.5, size=int(s)))))
        probs = np.einsum("i,j,k->ijk", *margs)
        dist = JointDistribution(doms, probs)
        for i in range(3):
            others = [j for j in range(3) if j != i]
            vals = []
            for take in range(4):
                K = tuple(o for p_, o in enumerate(others) if (take >> p_) & 1)
                vals.append(
                    pdp_exact_discrete(dist, SUM[3], 1.0, i, K).leakage
                )
            assert max(vals) - min(vals) <= 1e-9


@pytest.mark.acceptance(7, "increment-ratio sign law on 1000 binary tables")
def test_criterion_7_sign_law():
    rng = np.random.default_rng(12)
    lam = 1.0
    for _ in range(1000):
        cells = rng.dirichlet(np.ones(4)).reshape(2, 2) + 0.01
        cells /= cells.sum()
        dist = binary_table(cells.tolist())
        rho = pearson_corr(dist, 0, 1)
        gammas = gamma_set(dist, 0, 1, {}, lam)
        ic = edge_value(local_sensitivity(dist, SUM[2], 0) / lam, gammas)
        ls_j = local_sensitivity(dist, SUM[2], 1)
        # raw bound, not the clamped helper: |IC| <= LS_j / lam
        assert abs(ic) <= ls_j / lam + 1e-12
        if max(abs(ic), abs(rho)) > 1e-12:
            assert (ic > 0) == (rho > 0)


@pytest.mark.acceptance(8, "chain values within sensitivity and group bounds")
def test_criterion_8_bounds(domination_survey):
    worst_ls = 0.0
    worst_group = 0.0
    for rec in domination_survey:
        worst_ls = max(worst_ls, rec["chain"] - rec["sum_ls_bound"])
        worst_group = max(worst_group, rec["chain"] - rec["group_bound"])
    ACCEPTANCE_NOTES[8] = (
        f"min margin to sum-LS bound {max(0.0, -worst_ls):.4f}, "
        f"to group bound {max(0.0, -worst_group):.4f}"
    )
    assert worst_ls <= 1e-9
    assert worst_group <= 1e-9


@pytest.mark.acceptance(9, "Gaussian closed form vs numeric on 100 SPD models")
def test_criterion_9_gaussian_agreement():
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 6))
        A = rng.normal(size=(n, n))
        model = GaussianModel(
            mu=rng.normal(size=n),
            sigma=A @ A.T + 0.2 * np.eye(n),
            M=float(rng.uniform(0.5, 2.0)),
            lam=float(rng.uniform(0.5, 2.0)),
        )
        i = int(rng.integers(n))
        others = [j for j in range(n) if j != i]
        take = int(rng.integers(2 ** len(others)))
        K = [o for p, o in enumerate(others) if (take >> p) & 1]
        closed = leakage_gaussian(model, i, K)
        numeric = pdp_numeric_gaussian(model, i, K)
        worst = max(worst, abs(closed - numeric))
        assert numeric == pytest.approx(closed, abs=1e-3)
    ACCEPTANCE_NOTES[9] = f"worst closed-vs-numeric gap {worst:.2e}"
    # kernel log-slope stays in [-1, 1] and saturates at the tails
    for b in (0.3, 1.0, 3.0):
        xs = np.linspace(-30.0, 30.0, 6001)
        slopes = np.diff(log_g(xs, b)) / np.diff(xs)
        assert np.max(np.abs(slopes)) <= 1.0 + 1e-9
    h = 1e-6
    assert (log_g(-20 + h, 1.0) - log_g(-20.0, 1.0)) / h == pytest.approx(
        1.0, abs=1e-6
    )
    assert (log_g(20 + h, 1.0) - log_g(20.0, 1.0)) / h == pytest.approx(
        -1.0, abs=1e-6
    )


@pytest.mark.acceptance(10, "pruned search trails exhaustive by <10% at 0.8")
def test_criterion_10_algorithm_relations(synthetic_sweep):
    rel_gaps = []
    for (corr, seed), (full, fast) in synthetic_sweep.items():
        assert fast.leakage >= full.leakage - 1e-12, (corr, seed)
        if corr == 0.8:
            rel_gaps.append((fast.leakage - full.leakage) / full.leakage)
    mean_gap = float(np.mean(rel_gaps))
    ACCEPTANCE_NOTES[10] = f"mean relative gap at averCorr 0.8: {mean_gap:.2%}"
    assert mean_gap < 0.10
    # constant-edge structure: positive increments peak at the top layer,
    # negative ones at the first
    n = 6
    pos = {
        (i, K, j): 0.3
        for i in range(n)
        for r in range(1, n)
        for K in itertools.combinations([t for t in range(n) if t != i], r)
        for j in K
    }
    neg = {k: -0.1 for k in pos}
    top = search_synthetic(DictEdges(pos, n), mode="full")
    assert n - len(top.argmax[1]) == n
    assert top.leakage == pytest.approx(1.0 + (n - 1) * 0.3, abs=1e-12)
    bottom = search_synthetic(DictEdges(neg, n), mode="full")
    assert n - len(bottom.argmax[1]) == 1
    assert bottom.leakage == pytest.approx(1.0, abs=1e-12)


@pytest.mark.acceptance(11, "search runtimes: n=15 caps and growth shapes")
def test_criterion_11_performance(synthetic_sweep):
    full15, fast15 = synthetic_sweep[(0.8, 0)]
    assert full15.elapsed < 120.0
    assert fast15.elapsed < 1.0
    sizes = list(range(8, 16))
    fast_times = []
    for n in sizes:
        edges = EdgeMap(n, 0.5, seed=1)
        t = min(
            search_synthetic(edges, mode="fast").elapsed for _ in range(3)
        )
        fast_times.append(max(t, 1e-7))
    slope_fast = float(
        np.polyfit(np.log(sizes), np.log(fast_times), 1)[0]
    )
    full_sizes = [12, 13, 14, 15]
    full_times = []
    for n in full_sizes:
        edges = EdgeMap(n, 0.5, seed=1)
        full_times.append(max(search_synthetic(edges, mode="full").elapsed, 1e-7))
    slope_full = float(
        np.polyfit(full_sizes, np.log2(full_times), 1)[0]
    )
    ACCEPTANCE_NOTES[11] = (
        f"full n=15 {full15.elapsed:.2f}s, fast {fast15.elapsed*1e3:.1f}ms, "
        f"fast log-log slope {slope_fast:.2f}, full log2 slope {slope_full:.2f}"
    )
    assert slope_fast < 5.0
    assert slope_full > 0.5
