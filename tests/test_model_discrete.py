"""Joint tables, marginals/conditionals, sensitivities, query transforms."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from priordp import (
    DegenerateVariable,
    JointDistribution,
    QuerySpec,
    distribution_to_json,
    global_sensitivity,
    load_distribution,
    local_sensitivity,
    marginal,
    model_discrete,
    pearson_corr,
    transform_linear_query,
)

from chain_reference import ImpossibleCondition, conditional, corr_sign_2x2, value_index
from conftest import binary_table, CELLS_A, CELLS_B, CELLS_C, random_instance, sized_table


def three_tuple() -> JointDistribution:
    rng = np.random.default_rng(7)
    return random_instance(rng, 3)


class TestJointDistribution:
    def test_validation_rejects_unsorted_domain(self):
        with pytest.raises(ValueError):
            JointDistribution([(1.0, 0.0), (0.0, 1.0)], np.full((2, 2), 0.25))

    def test_validation_rejects_duplicate_domain_values(self):
        with pytest.raises(ValueError):
            JointDistribution([(0.0, 0.0), (0.0, 1.0)], np.full((2, 2), 0.25))

    def test_validation_rejects_negative_mass(self):
        probs = np.array([[0.6, -0.1], [0.3, 0.2]])
        with pytest.raises(ValueError):
            JointDistribution([(0.0, 1.0), (0.0, 1.0)], probs)

    def test_validation_rejects_wrong_total(self):
        with pytest.raises(ValueError):
            JointDistribution([(0.0, 1.0), (0.0, 1.0)], np.full((2, 2), 0.3))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_validation_rejects_non_finite_domain(self, bad):
        with pytest.raises(ValueError, match="finite"):
            JointDistribution([(0.0, bad), (0.0, 1.0)], np.full((2, 2), 0.25))

    def test_validation_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            JointDistribution([(0.0, 1.0)], np.full((2, 2), 0.25))

    def test_probs_are_read_only(self, table_a):
        with pytest.raises(ValueError):
            table_a.probs[0, 0] = 0.9

    def test_value_index_matches_with_tolerance(self, table_a):
        assert value_index(table_a, 0, 1.0 + 1e-12) == 1
        with pytest.raises(ValueError):
            value_index(table_a, 0, 0.5)

    def test_near_unit_mass_renormalized(self):
        probs = np.full((2, 2), 0.25) * (1 + 2e-10)
        dist = JointDistribution([(0.0, 1.0), (0.0, 1.0)], probs)
        assert dist.probs.sum() == pytest.approx(1.0, abs=1e-15)


class TestMarginalConditional:
    def test_marginal_against_manual_sum(self):
        dist = three_tuple()
        m = marginal(dist, [0, 2])
        np.testing.assert_allclose(m.probs, dist.probs.sum(axis=1), rtol=1e-12)
        assert m.domains == (dist.domains[0], dist.domains[2])

    def test_marginal_bitwise_equals_numpy_sum(self):
        # marginal() reorders numpy's summation loops; the sums must come
        # out bit for bit as from one multi-axis sum, then one normalization,
        # also past numpy's 8192-value blocks (n = 14 binary)
        rng = np.random.default_rng(60)
        tables = [
            sized_table(rng, 9, 2, zero_frac=0.2),
            sized_table(rng, 6, 3),
            sized_table(rng, 14, 2),
        ]
        for sizes in ((2, 1, 3, 2, 4, 1, 2), (1, 2, 2, 1), (9, 2, 3, 8)):
            probs = rng.dirichlet(np.ones(int(np.prod(sizes)))).reshape(sizes)
            domains = [tuple(range(s)) for s in sizes]
            tables.append(JointDistribution(domains, probs))
        for dist in tables:
            n = dist.n
            masks = range(1, 1 << n) if n < 10 else rng.integers(1, 1 << n, size=300)
            for mask in masks:
                keep = [a for a in range(n) if (int(mask) >> a) & 1]
                drop = tuple(a for a in range(n) if a not in keep)
                table = dist.probs.sum(axis=drop) if drop else dist.probs
                want = table / float(table.sum())
                got = marginal(dist, keep).probs
                assert got.shape == want.shape
                assert np.array_equal(got.view(np.int64), want.view(np.int64)), keep

    def test_marginal_order_is_canonical(self):
        dist = three_tuple()
        assert marginal(dist, [2, 0]).domains == marginal(dist, [0, 2]).domains

    def test_conditional_matches_bayes_ratio(self):
        dist = three_tuple()
        v1 = dist.domains[1][0]
        cond = conditional(dist, [0, 2], {1: v1})
        joint = dist.probs[:, 0, :]
        np.testing.assert_allclose(cond.probs, joint / joint.sum(), rtol=1e-12)

    def test_conditional_normalizes(self):
        dist = three_tuple()
        cond = conditional(dist, [2], {0: dist.domains[0][1]})
        assert cond.probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_impossible_condition_raises(self):
        # Pr(x1=1) = 0 in this table
        dist = binary_table([[0.5, 0.5], [0.0, 0.0]])
        with pytest.raises(ImpossibleCondition):
            conditional(dist, [1], {0: 1.0})

    def test_empty_targets_rejected(self, table_a):
        with pytest.raises(ValueError):
            conditional(table_a, [], {0: 0.0})

    def test_zero_mass_conditioning_value(self, table_c):
        cond = conditional(table_c, [1], {0: 0.0})
        np.testing.assert_allclose(cond.probs, [1.0, 0.0])

    def test_overlapping_targets_and_given(self, table_a):
        with pytest.raises(ValueError):
            conditional(table_a, [0], {0: 0.0})


class TestCorrelation:
    def test_positive_table(self, table_a):
        assert pearson_corr(table_a, 0, 1) == pytest.approx(0.2, abs=1e-12)

    def test_negative_table(self, table_b):
        assert pearson_corr(table_b, 0, 1) == pytest.approx(-0.2, abs=1e-12)

    def test_perfect_correlation(self, table_c):
        assert pearson_corr(table_c, 0, 1) == pytest.approx(1.0, abs=1e-12)

    def test_independent_product(self):
        dist = binary_table([[0.35, 0.35], [0.15, 0.15]])
        assert pearson_corr(dist, 0, 1) == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_variable_raises(self):
        dist = binary_table([[0.5, 0.5], [0.0, 0.0]])
        with pytest.raises(DegenerateVariable):
            pearson_corr(dist, 0, 1)

    def test_sign_shortcut_matches_pearson(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            probs = rng.dirichlet(np.ones(4)).reshape(2, 2)
            probs = (probs + 0.005) / (probs + 0.005).sum()
            dist = binary_table(probs)
            sign = corr_sign_2x2(dist, 0, 1)
            rho = pearson_corr(dist, 0, 1)
            if sign == "0":
                assert abs(rho) < 1e-7
            else:
                assert (rho > 0) == (sign == "+")

    def test_sign_rejects_non_binary(self):
        dist = JointDistribution(
            [(0.0, 1.0, 2.0), (0.0, 1.0)], np.full((3, 2), 1 / 6)
        )
        with pytest.raises(ValueError):
            corr_sign_2x2(dist, 0, 1)


class TestSensitivity:
    def test_local_sensitivity_is_domain_width(self, table_d, sum2):
        assert local_sensitivity(table_d, sum2, 0) == 1.0
        assert local_sensitivity(table_d, sum2, 1) == 5.0
        # |a_i| times the width, equal bit for bit to the largest pairwise
        # |a_i (v - w)|, for negative and zero coefficients and a
        # single-value domain
        wide = JointDistribution([(-0.3, 0.1, 0.7), (2.5,)], np.full((3, 1), 1 / 3))
        cases = [
            (table_d, QuerySpec((-1.5, 0.2)), 0, 1.5),
            (table_d, QuerySpec((0.0, -0.7)), 0, 0.0),
            (table_d, QuerySpec((0.0, -0.7)), 1, 3.5),
            (wide, QuerySpec((-3.0, 4.0)), 0, 3.0),
            (wide, QuerySpec((-3.0, 4.0)), 1, 0.0),
        ]
        for dist, q, i, width in cases:
            a, dom = q.coefficients[i], dist.domains[i]
            pairwise = max(abs(a * (v - w)) for v in dom for w in dom)
            got = local_sensitivity(dist, q, i)
            assert got == pytest.approx(width) and got == pairwise

    def test_coefficient_scaling(self, table_a):
        q = QuerySpec((2.0, 1.0))
        assert local_sensitivity(table_a, q, 0) == 2.0

    def test_zero_coefficient(self, table_a):
        q = QuerySpec((0.0, 1.0))
        assert local_sensitivity(table_a, q, 0) == 0.0

    def test_global_is_max_local(self, table_d, sum2):
        assert global_sensitivity(table_d, sum2) == 5.0

    def test_index_out_of_range(self, table_d, sum2):
        for i in (-1, 2):
            with pytest.raises(ValueError, match="range"):
                local_sensitivity(table_d, sum2, i)

    def test_multivalued_width(self):
        dist = JointDistribution(
            [(0.0, 0.4, 1.7), (0.0, 1.0)], np.full((3, 2), 1 / 6)
        )
        assert local_sensitivity(dist, QuerySpec.sum_query(2), 0) == pytest.approx(1.7)


def test_logsumexp_bitwise_equal_to_scipy():
    from scipy.special import logsumexp as scipy_logsumexp

    rng = np.random.default_rng(29)
    for _ in range(4000):
        shape = tuple(rng.integers(1, 5, size=rng.integers(1, 4)))
        # one decimal, so that maxima tie
        a = np.round(rng.normal(scale=3.0, size=shape), 1)
        a[rng.random(shape) < 0.1] = -np.inf
        a[rng.random(shape) < 0.05] = np.inf
        b = [None, rng.uniform(0.1, 2.0, size=shape), np.zeros(shape)][rng.integers(3)]
        if b is not None and rng.random() < 0.5:
            b[rng.random(shape) < 0.3] = 0.0
        axis = None if rng.random() < 0.3 else int(rng.integers(-len(shape), len(shape)))
        got = np.asarray(model_discrete.logsumexp(a, axis=axis, b=b))
        want = np.asarray(scipy_logsumexp(a, axis=axis, b=b))
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes(), (a, b, axis)


class TestQuerySpec:
    def test_sum_query(self):
        assert QuerySpec.sum_query(3).coefficients == (1.0, 1.0, 1.0)

    def test_parse(self):
        assert QuerySpec.parse("1, -0.5, 2").coefficients == (1.0, -0.5, 2.0)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            QuerySpec((0.0, 0.0))

    @pytest.mark.parametrize("text", ["1,nan", "inf,1", "1,-inf"])
    def test_non_finite_rejected(self, text):
        with pytest.raises(ValueError, match="finite"):
            QuerySpec.parse(text)


class TestTransform:
    def test_identity_for_sum_query(self, table_a, sum2):
        y = transform_linear_query(table_a, sum2)
        assert y.domains == table_a.domains
        np.testing.assert_array_equal(y.probs, table_a.probs)

    def test_positive_scaling(self, table_a):
        y = transform_linear_query(table_a, QuerySpec((2.0, 1.0)))
        assert y.domains[0] == (0.0, 2.0)

    def test_negative_coefficient_flips_axis(self, table_a):
        y = transform_linear_query(table_a, QuerySpec((-1.0, 1.0)))
        assert y.domains[0] == (-1.0, 0.0)
        # mass of (x1=1, x2=c) must now sit at (y1=-1, x2=c), i.e. row 0
        np.testing.assert_allclose(y.probs[0], np.asarray(CELLS_A)[1])

    def test_zero_coefficient_collapses_axis(self, table_a):
        # every value of the axis becomes 0.0, but its cells stay, and with
        # them the tuple's correlation with the others
        y = transform_linear_query(table_a, QuerySpec((0.0, 1.0)))
        assert y.domains == ((0.0, 0.0), (0.0, 1.0))
        np.testing.assert_array_equal(y.probs, table_a.probs)

    def test_overflowing_scale_rejected(self, table_d):
        with pytest.raises(ValueError, match="finite"):
            transform_linear_query(table_d, QuerySpec((1.0, 1e308)))

    def test_moments_preserved(self):
        dist = three_tuple()
        q = QuerySpec((2.0, -1.5, 0.5))
        y = transform_linear_query(dist, q)
        # E[sum a_i x_i] under the original equals E[sum y_i] under y
        def query_mean(d, coefs):
            total = 0.0
            for idx in itertools.product(*[range(len(dm)) for dm in d.domains]):
                val = sum(c * d.domains[t][k] for t, (c, k) in enumerate(zip(coefs, idx)))
                total += val * float(d.probs[idx])
            return total

        lhs = query_mean(dist, q.coefficients)
        rhs = query_mean(y, (1.0,) * 3)
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestSerialization:
    def test_round_trip(self, table_a):
        data = distribution_to_json(table_a)
        again = load_distribution(data)
        assert again.domains == table_a.domains
        np.testing.assert_array_equal(again.probs, table_a.probs)

    def test_load_from_json_string(self):
        text = '{"domains": [[0, 1], [0, 1]], "probs": [0.3, 0.2, 0.2, 0.3]}'
        dist = load_distribution(text)
        assert dist.probs[0, 0] == pytest.approx(0.3)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            load_distribution({"domains": [[0, 1], [0, 1]], "probs": [0.5, 0.5]})

    def test_no_tuples(self):
        # numpy once refused this table with "Cannot set flags on array scalars."
        with pytest.raises(ValueError, match="at least one tuple"):
            load_distribution({"domains": [], "probs": [1.0]})


@st.composite
def small_tables(draw):
    s0 = draw(st.integers(2, 3))
    s1 = draw(st.integers(2, 3))
    cells = draw(
        st.lists(
            st.floats(0.01, 1.0, allow_nan=False), min_size=s0 * s1, max_size=s0 * s1
        )
    )
    probs = np.asarray(cells).reshape(s0, s1)
    probs = probs / probs.sum()
    d0 = tuple(np.linspace(0.0, 1.0, s0))
    d1 = tuple(np.linspace(0.0, 2.0, s1))
    return JointDistribution([d0, d1], probs)


@given(small_tables())
@settings(max_examples=60, deadline=None)
def test_marginals_sum_to_one(dist):
    for subset in ([0], [1], [0, 1]):
        assert marginal(dist, subset).probs.sum() == pytest.approx(1.0, abs=1e-9)


@given(small_tables())
@settings(max_examples=60, deadline=None)
def test_conditional_times_marginal_recovers_joint(dist):
    m1 = marginal(dist, [1])
    recon = np.empty_like(dist.probs)
    for k1, v1 in enumerate(dist.domains[1]):
        cond = conditional(dist, [0], {1: v1})
        recon[:, k1] = cond.probs * float(m1.probs[k1])
    np.testing.assert_allclose(recon, dist.probs, atol=1e-12)


@pytest.mark.parametrize("call, message", [
    (lambda d: JointDistribution([[0.0, 1.0], []], [[0.5], [0.5]]), "at least one value"),
    (lambda d: marginal(d, []), "non-empty"),
    (lambda d: marginal(d, [0, 2]), "out of range"),
    (lambda d: pearson_corr(d, 1, 1), "two distinct"),
    (lambda d: local_sensitivity(d, QuerySpec((1.0,)), 0), "query length"),
    (lambda d: transform_linear_query(d, QuerySpec((1.0, 1.0, 1.0))), "query length"),
    (lambda d: load_distribution({"domains": [[0, 1]]}), '"domains" and "probs"'),
    (lambda d: load_distribution({"probs": [1.0]}), '"domains" and "probs"'),
], ids=["empty_domain", "empty_subset", "subset_range", "same_tuple", "ls_query",
        "transform_query", "no_probs", "no_domains"])
def test_input_refusals(table_a, call, message):
    with pytest.raises(ValueError, match=message):
        call(table_a)
