"""Brute-force oracle: frozen fixture values, witness consistency, gain.

The reference density below recomputes Pr(r | x_i, x_K) with plain Python
loops and math.exp, sharing no code with the package internals. The frozen
constants in conftest were produced by this oracle and independently
confirmed with 50-digit arithmetic; here they guard against regressions.
The batched oracle is also checked bit for bit against the per-hypothesis
loop kept in oracle_reference.py, whose posterior-odds gain is checked
against the reference density.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from priordp import (
    JointDistribution,
    QuerySpec,
    gen_discrete_corr,
    load_distribution,
    local_sensitivity,
    marginal,
    pdp_exact_all,
    pdp_exact_discrete,
    transform_linear_query,
)
from priordp import oracle
from priordp.model_discrete import PROB_FLOOR

import oracle_reference
from chain_reference import ImpossibleCondition
from oracle_reference import bayesian_gain
from conftest import (
    CELLS_C,
    LEAK_A_WEAK,
    LEAK_B_WEAK,
    LEAK_C_WEAK,
    LEAK_D_WEAK,
    LEAK_E3A_WEAK,
    LEAK_E3B_WEAK,
    LEAK_ZERO_COEF_WEAK,
    ZERO_COEF_TABLE,
    binary_table,
    sized_table,
)


def ref_log_density(dist, query, lam, i, xi, k_assign, r):
    """log Pr(r | x_i=xi, x_K) by direct enumeration, original units."""
    coef = query.coefficients
    dens = 0.0
    ctx = 0.0
    for idx in itertools.product(*[range(len(d)) for d in dist.domains]):
        vals = [dist.domains[t][k] for t, k in enumerate(idx)]
        if vals[i] != xi:
            continue
        if any(vals[k] != v for k, v in k_assign.items()):
            continue
        p = float(dist.probs[idx])
        ctx += p
        s = sum(c * v for c, v in zip(coef, vals))
        dens += p * math.exp(-abs(r - s) / lam) / (2 * lam)
    if ctx <= 0:
        raise ZeroDivisionError("conditioning event has zero mass")
    return math.log(dens / ctx)


def ref_ray_limit(dist, query, lam, i, xi, k_assign, sign):
    """lim_{r->sign*inf} of log Pr(r|...) + |r|/lam (the ray constant)."""
    coef = query.coefficients
    total = 0.0
    ctx = 0.0
    for idx in itertools.product(*[range(len(d)) for d in dist.domains]):
        vals = [dist.domains[t][k] for t, k in enumerate(idx)]
        if vals[i] != xi:
            continue
        if any(vals[k] != v for k, v in k_assign.items()):
            continue
        p = float(dist.probs[idx])
        ctx += p
        s = sum(c * v for c, v in zip(coef, vals))
        total += p * math.exp(sign * s / lam) / (2 * lam)
    return math.log(total / ctx)


class TestFrozenValues:
    def test_strong_adversary_is_dp_level(
        self, table_a, table_b, table_c, table_e3a, table_e3b, sum2
    ):
        for dist in (table_a, table_b, table_c, table_e3a, table_e3b):
            res = pdp_exact_discrete(dist, sum2, 1.0, 0, [1])
            assert res.leakage == pytest.approx(1.0, abs=1e-12)

    def test_weak_adversary_positive_corr(self, table_a, sum2):
        res = pdp_exact_discrete(table_a, sum2, 1.0, 0, [])
        assert res.leakage == pytest.approx(LEAK_A_WEAK, abs=1e-9)

    def test_weak_adversary_negative_corr(self, table_b, sum2):
        res = pdp_exact_discrete(table_b, sum2, 1.0, 0, [])
        assert res.leakage == pytest.approx(LEAK_B_WEAK, abs=1e-9)

    def test_weak_adversary_perfect_corr(self, table_c, sum2):
        res = pdp_exact_discrete(table_c, sum2, 1.0, 0, [])
        assert res.leakage == pytest.approx(LEAK_C_WEAK, abs=1e-12)

    def test_weak_adversary_wide_domain(self, table_d, sum2):
        res = pdp_exact_discrete(table_d, sum2, 1.0, 0, [])
        assert res.leakage == pytest.approx(LEAK_D_WEAK, abs=1e-12)

    def test_weak_adversary_strong_positive(self, table_e3a, sum2):
        res = pdp_exact_discrete(table_e3a, sum2, 1.0, 0, [])
        assert res.leakage == pytest.approx(LEAK_E3A_WEAK, abs=1e-9)

    def test_weak_adversary_strong_negative(self, table_e3b, sum2):
        res = pdp_exact_discrete(table_e3b, sum2, 1.0, 0, [])
        assert res.leakage == pytest.approx(LEAK_E3B_WEAK, abs=1e-9)

    def test_lambda_scaling(self, table_c, sum2):
        res = pdp_exact_discrete(table_c, sum2, 4.0, 0, [])
        assert res.leakage == pytest.approx(LEAK_C_WEAK / 4.0, abs=1e-12)

    def test_validation(self, table_a, sum2):
        with pytest.raises(ValueError):
            pdp_exact_discrete(table_a, sum2, 0.0, 0, [])
        with pytest.raises(ValueError):
            pdp_exact_discrete(table_a, sum2, 1.0, 0, [0])

    def test_out_of_range_adversary(self, table_a, sum2):
        # (-1, [0, 1]) leaves no unknown tuple, and a negative index would
        # read the last tuple's domain
        for i, K in ((-1, [0, 1]), (2, []), (0, [2])):
            with pytest.raises(ValueError, match="out of range"):
                pdp_exact_discrete(table_a, sum2, 1.0, i, K)
        with pytest.raises(ValueError):
            pdp_exact_all(table_a, sum2, 0.0)

    @pytest.mark.parametrize("lam", [float("nan"), float("inf")])
    def test_non_finite_lambda(self, table_a, sum2, lam):
        with pytest.raises(ValueError, match="lambda"):
            pdp_exact_discrete(table_a, sum2, lam, 0, [])
        with pytest.raises(ValueError, match="lambda"):
            pdp_exact_all(table_a, sum2, lam)

    def test_overflowing_query_sum(self, sum2):
        # LS_i / lambda is finite, a center / lambda is not
        far = JointDistribution([[100000, 100001], [0, 1]], [[0.3, 0.2], [0.2, 0.3]])
        with pytest.raises(ValueError, match="too small"):
            pdp_exact_discrete(far, sum2, 1e-305, 0, [])
        with pytest.raises(ValueError, match="too small"):
            pdp_exact_all(far, sum2, 1e-305)
        assert len(pdp_exact_all(far, sum2, 1e-300)) == 4


class TestWitnessConsistency:
    """The reported supremum must be reproducible from its own witness."""

    @pytest.mark.parametrize("fixture", ["table_a", "table_b", "table_e3a", "table_e3b"])
    def test_value_at_witness(self, fixture, sum2, request):
        dist = request.getfixturevalue(fixture)
        res = pdp_exact_discrete(dist, sum2, 1.0, 0, [])
        args = (dist, sum2, 1.0, 0)
        if math.isinf(res.r_star):
            sign = 1 if res.r_star > 0 else -1
            v = ref_ray_limit(*args, res.xi, res.assignment, sign) - ref_ray_limit(
                *args, res.xi_prime, res.assignment, sign
            )
        else:
            v = ref_log_density(*args, res.xi, res.assignment, res.r_star) - ref_log_density(
                *args, res.xi_prime, res.assignment, res.r_star
            )
        assert v == pytest.approx(res.leakage, abs=1e-10)

    @pytest.mark.parametrize("fixture", ["table_a", "table_b", "table_e3b"])
    def test_no_output_beats_supremum(self, fixture, sum2, request):
        dist = request.getfixturevalue(fixture)
        res = pdp_exact_discrete(dist, sum2, 1.0, 0, [])
        rng = np.random.default_rng(3)
        dom = dist.domains[0]
        for r in rng.uniform(-8, 8, 200):
            for a, b in itertools.permutations(dom, 2):
                gap = ref_log_density(dist, sum2, 1.0, 0, a, {}, float(r)) - ref_log_density(
                    dist, sum2, 1.0, 0, b, {}, float(r)
                )
                assert gap <= res.leakage + 1e-10


class TestProductDistribution:
    def test_prior_never_matters_when_independent(self, sum2):
        rng = np.random.default_rng(5)
        for _ in range(20):
            p0 = rng.dirichlet(np.ones(2)) + 0.05
            p1 = rng.dirichlet(np.ones(3)) + 0.05
            p0, p1 = p0 / p0.sum(), p1 / p1.sum()
            probs = np.outer(p0, p1)
            from priordp import JointDistribution

            dist = JointDistribution(
                [(0.0, 1.0), tuple(sorted(rng.uniform(0, 2, 3)))], probs
            )
            q = QuerySpec.sum_query(2)
            for i, others in ((0, [1]), (1, [0])):
                want = local_sensitivity(dist, q, i) / 1.0
                for K in ([], others):
                    res = pdp_exact_discrete(dist, q, 1.0, i, K)
                    assert res.leakage == pytest.approx(want, abs=1e-9)


class TestBayesianGain:
    def test_equals_output_density_ratio(self, table_a, sum2):
        # posterior-odds gain == log-density ratio, pointwise in r
        for r in (-3.0, -0.4, 0.0, 0.9, 2.5):
            gain = bayesian_gain(table_a, sum2, 1.0, 0, 1.0, 0.0, {}, r)
            direct = ref_log_density(table_a, sum2, 1.0, 0, 1.0, {}, r) - ref_log_density(
                table_a, sum2, 1.0, 0, 0.0, {}, r
            )
            assert gain == pytest.approx(direct, abs=1e-10)

    def test_with_prior_knowledge(self, table_a, sum2):
        for r in (-1.0, 0.3, 1.7):
            gain = bayesian_gain(table_a, sum2, 1.0, 0, 1.0, 0.0, {1: 1.0}, r)
            direct = ref_log_density(
                table_a, sum2, 1.0, 0, 1.0, {1: 1.0}, r
            ) - ref_log_density(table_a, sum2, 1.0, 0, 0.0, {1: 1.0}, r)
            assert gain == pytest.approx(direct, abs=1e-10)

    def test_antisymmetric_in_hypotheses(self, table_b, sum2):
        g1 = bayesian_gain(table_b, sum2, 1.0, 0, 1.0, 0.0, {}, 0.7)
        g2 = bayesian_gain(table_b, sum2, 1.0, 0, 0.0, 1.0, {}, 0.7)
        assert g1 == pytest.approx(-g2, abs=1e-12)

    def test_bounded_by_leakage(self, table_e3a, sum2):
        res = pdp_exact_discrete(table_e3a, sum2, 1.0, 0, [])
        rng = np.random.default_rng(9)
        for r in rng.uniform(-10, 10, 300):
            gain = bayesian_gain(table_e3a, sum2, 1.0, 0, 1.0, 0.0, {}, float(r))
            assert abs(gain) <= res.leakage + 1e-10

    def test_zero_mass_hypothesis_raises(self, sum2):
        dist = binary_table([[0.5, 0.0], [0.25, 0.25]])
        with pytest.raises(ImpossibleCondition):
            bayesian_gain(dist, sum2, 1.0, 0, 0.0, 1.0, {1: 1.0}, 0.0)

    def test_coefficient_mapping(self, table_a):
        # callers pass original-unit values; a scaled query must not change
        # how hypotheses are identified
        q = QuerySpec((2.0, 1.0))
        g = bayesian_gain(table_a, q, 1.0, 0, 1.0, 0.0, {}, 0.5)
        direct = ref_log_density(table_a, q, 1.0, 0, 1.0, {}, 0.5) - ref_log_density(
            table_a, q, 1.0, 0, 0.0, {}, 0.5
        )
        assert g == pytest.approx(direct, abs=1e-10)

    def test_validation(self, table_a, sum2):
        with pytest.raises(ValueError):
            bayesian_gain(table_a, sum2, -1.0, 0, 1.0, 0.0, {}, 0.0)
        with pytest.raises(ValueError):
            bayesian_gain(table_a, sum2, 1.0, 0, 1.0, 0.0, {0: 1.0}, 0.0)


def assert_oracle_matches_reference(dist, query, lam):
    """Every OracleResult field equals the per-hypothesis loop, bit for bit.

    repr tells -0.0 from 0.0 and prints floats exactly, so equal reprs mean
    equal bits.
    """
    n = dist.n
    for i in range(n):
        others = [t for t in range(n) if t != i]
        for size in range(n):
            for K in itertools.combinations(others, size):
                got = pdp_exact_discrete(dist, query, lam, i, K)
                want = oracle_reference.pdp_exact_discrete(dist, query, lam, i, K)
                assert repr(dataclasses.astuple(got)) == repr(dataclasses.astuple(want)), (i, K)


class TestBatchedMatchesReference:
    @pytest.mark.parametrize("size", [2, 3])
    def test_random_tables(self, size):
        rng = np.random.default_rng(60 + size)
        for n in range(1, 6 if size == 2 else 5):
            for lam in (0.05, 1.0, 4.0):
                dist = sized_table(rng, n, size, zero_frac=0.2 if n > 2 else 0.0)
                assert_oracle_matches_reference(dist, QuerySpec.sum_query(n), lam)

    @pytest.mark.parametrize("cells", [1, 7])
    def test_rows_split_along_kinks(self, monkeypatch, cells):
        # a budget below one row's (kinks x centers) cells splits every wide
        # row along its kinks; each kink reduces on its own, so no bit moves
        monkeypatch.setattr(oracle, "_STACK_CELLS", cells)
        rng = np.random.default_rng(65)
        for n, size in ((3, 3), (4, 2), (4, 3)):
            dist = sized_table(rng, n, size, zero_frac=0.1)
            for lam in (0.05, 1.0):
                assert_oracle_matches_reference(dist, QuerySpec.sum_query(n), lam)

    def test_zero_cell_tables(self):
        for dist in (binary_table(CELLS_C), gen_discrete_corr(3, 1.0, 2),
                     gen_discrete_corr(4, 1.0, 2)):
            for lam in (0.05, 1.0):
                assert_oracle_matches_reference(dist, QuerySpec.sum_query(dist.n), lam)

    def test_signed_query_with_zero_coefficient(self):
        rng = np.random.default_rng(63)
        for n, size in ((3, 2), (3, 3), (4, 2)):
            dist = sized_table(rng, n, size, zero_frac=0.2)
            coeffs = (-1.0, 0.0) + tuple(rng.choice([-2.0, 0.5, 2.0], size=n - 2))
            assert_oracle_matches_reference(dist, QuerySpec(coeffs), 1.0)

    def test_impossible_condition_skips_assignment(self):
        # Pr(x_0 = 0, x_1 = 0) is 1e-12 in the renormalized marginal, which
        # makes the assignment feasible, but the table slice itself sums to
        # one ulp below 1e-12, so the mixture raises and the assignment is
        # skipped
        cells = [4.999999999999999e-13, 4.999999999999999e-13, 0.43542451977082214,
                 0.00017061625178585555, 0.30063624609172834, 0.009605342689260906,
                 0.14168668124598127, 0.11247659394942147]
        dist = JointDistribution([(0.0, 1.0)] * 3, np.reshape(cells, (2, 2, 2)))
        query = QuerySpec.sum_query(3)
        y = transform_linear_query(dist, query)
        assert marginal(y, [0, 1]).probs[0, 0] >= PROB_FLOOR
        assert float(y.probs[0, 0, :].sum()) < PROB_FLOOR
        res = pdp_exact_discrete(dist, query, 1.0, 0, [1])
        # only the x_1 = 1 assignment counts its kinks, the sums 1, 2 and 3
        assert res.assignment == {1: 1.0}
        assert res.kinks_evaluated == 3
        assert_oracle_matches_reference(dist, query, 1.0)

    def test_slices_past_the_pairwise_block(self):
        # at n=9 an x_T slice with |K| <= 1 holds 128 or 256 cells, past the
        # 128 terms at which numpy's pairwise sum starts to split: each
        # slice's mass is still its own sum, bit for bit
        rng = np.random.default_rng(69)
        dist = sized_table(rng, 9, 2, zero_frac=0.1)
        query = QuerySpec.sum_query(9)
        for i in range(9):
            for K in [()] + [(k,) for k in range(9) if k != i]:
                got = pdp_exact_discrete(dist, query, 1.0, i, K)
                want = oracle_reference.pdp_exact_discrete(dist, query, 1.0, i, K)
                assert repr(dataclasses.astuple(got)) == repr(dataclasses.astuple(want)), (i, K)


# _STACK_CELLS budgets at which, on an 81-cell table, a batch of 5
# adversaries splits layer |K| = 1, or a batch of 16 holds layers 0 and 1
BATCH_SPLITS_LAYER = 5 * 81
BATCH_SPANS_LAYERS = 16 * 81


def assert_all_matches_reference(dist, query, lam):
    """pdp_exact_all equals the per-hypothesis loop on every adversary, bit
    for bit, keyed in _all_adversaries order; returns its results."""
    got = pdp_exact_all(dist, query, lam)
    assert list(got) == list(oracle._all_adversaries(dist.n))
    assert len(got) == dist.n * 2 ** (dist.n - 1)
    for (i, K), res in got.items():
        want = oracle_reference.pdp_exact_discrete(dist, query, lam, i, K)
        assert repr(dataclasses.astuple(res)) == repr(dataclasses.astuple(want)), (i, K)
    return got


class TestAllMatchesReference:
    """The all-adversary batches on the tables of TestBatchedMatchesReference."""

    @pytest.mark.parametrize("size", [2, 3])
    def test_random_tables(self, size):
        rng = np.random.default_rng(60 + size)
        for n in range(1, 6 if size == 2 else 5):
            for lam in (0.05, 1.0, 4.0):
                dist = sized_table(rng, n, size, zero_frac=0.2 if n > 2 else 0.0)
                assert_all_matches_reference(dist, QuerySpec.sum_query(n), lam)

    @pytest.mark.parametrize("cells", [1, 7, BATCH_SPLITS_LAYER, BATCH_SPANS_LAYERS])
    def test_stack_bounds_move_no_bit(self, monkeypatch, cells):
        # stacks of one row, or split along their kinks, and scan stacks of
        # one context: each row and pair still reduces on its own; at the
        # last two budgets a batch splits a layer, or holds two whole layers
        monkeypatch.setattr(oracle, "_STACK_CELLS", cells)
        rng = np.random.default_rng(65)
        for n, size in ((3, 3), (4, 2), (4, 3)):
            dist = sized_table(rng, n, size, zero_frac=0.1)
            for lam in (0.05, 1.0):
                assert_all_matches_reference(dist, QuerySpec.sum_query(n), lam)

    @pytest.mark.parametrize("cells", [BATCH_SPLITS_LAYER, BATCH_SPANS_LAYERS])
    def test_batches_at_the_stack_bounds(self, monkeypatch, cells):
        # the budgets above do what they say on the 81-cell n=4 table: its
        # layers |K| = 0..3 hold 4, 12, 12 and 4 adversaries, and a batch
        # takes the next cells // 81 adversaries in (|K|, T) order
        batches = []
        exact = oracle._exact

        def record(tab, lam, adversaries):
            batches.append(sorted({len(ks) for _, ks in adversaries}))
            return exact(tab, lam, adversaries)

        monkeypatch.setattr(oracle, "_STACK_CELLS", cells)
        monkeypatch.setattr(oracle, "_exact", record)
        dist = sized_table(np.random.default_rng(65), 4, 3, zero_frac=0.1)
        pdp_exact_all(dist, QuerySpec.sum_query(4), 1.0)
        if cells == BATCH_SPANS_LAYERS:
            assert batches == [[0, 1], [2, 3]]
        else:
            assert batches == [[0, 1], [1], [1], [1, 2], [2], [2, 3], [3]]

    def test_zero_cell_tables(self):
        for dist in (binary_table(CELLS_C), gen_discrete_corr(3, 1.0, 2),
                     gen_discrete_corr(4, 1.0, 2)):
            for lam in (0.05, 1.0):
                assert_all_matches_reference(dist, QuerySpec.sum_query(dist.n), lam)

    def test_signed_query_with_zero_coefficient(self):
        rng = np.random.default_rng(63)
        for n, size in ((3, 2), (3, 3), (4, 2)):
            dist = sized_table(rng, n, size, zero_frac=0.2)
            coeffs = (-1.0, 0.0) + tuple(rng.choice([-2.0, 0.5, 2.0], size=n - 2))
            assert_all_matches_reference(dist, QuerySpec(coeffs), 1.0)

    def test_integer_domains_merge_equal_sums(self):
        # many cells of a slice share one sum, so merged centers add three
        # or more weights, whose order of addition shows in the last bits
        rng = np.random.default_rng(66)
        for n, size in ((5, 2), (4, 3)):
            domain = tuple(float(v) for v in range(size))
            dist = JointDistribution([domain] * n, rng.dirichlet(np.ones(size**n)).reshape((size,) * n))
            for lam in (0.05, 1.0):
                assert_all_matches_reference(dist, QuerySpec.sum_query(n), lam)

    def test_impossible_condition_skips_assignment(self):
        # the table of TestBatchedMatchesReference: the x_0 = 0, x_1 = 0
        # slice sums below PROB_FLOOR, so adversary (0, [1]) drops x_1 = 0
        cells = [4.999999999999999e-13, 4.999999999999999e-13, 0.43542451977082214,
                 0.00017061625178585555, 0.30063624609172834, 0.009605342689260906,
                 0.14168668124598127, 0.11247659394942147]
        dist = JointDistribution([(0.0, 1.0)] * 3, np.reshape(cells, (2, 2, 2)))
        got = assert_all_matches_reference(dist, QuerySpec.sum_query(3), 1.0)
        res = got[0, (1,)]
        assert res.assignment == {1: 1.0}
        assert res.kinks_evaluated == 3


class TestZeroCoefficient:
    """A tuple with coefficient 0 keeps its hypotheses, and leaks through its
    correlation with the others as it does in the limit a -> 0+."""

    def test_frozen_value(self):
        res = pdp_exact_all(load_distribution(ZERO_COEF_TABLE), QuerySpec((0.0, 1.0)), 1.0)
        assert res[0, ()].leakage == pytest.approx(LEAK_ZERO_COEF_WEAK, abs=1e-9)

    def test_limit_of_small_coefficient(self):
        rng = np.random.default_rng(68)
        for _ in range(12):
            n = int(rng.integers(3, 6))
            dist = sized_table(rng, n, 2 if n == 5 else 3, zero_frac=0.1)
            coeffs = rng.choice([-1.5, -1.0, 0.5, 1.0, 2.0], size=n)
            zero = int(rng.integers(n))
            coeffs[zero] = 0.0
            got = pdp_exact_all(dist, QuerySpec(tuple(coeffs)), 0.8)
            coeffs[zero] = 1e-13
            want = pdp_exact_all(dist, QuerySpec(tuple(coeffs)), 0.8)
            assert got.keys() == want.keys()
            for key, res in got.items():
                assert res.leakage == pytest.approx(want[key].leakage, abs=1e-9), key
