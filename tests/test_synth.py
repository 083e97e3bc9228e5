"""Synthetic generators: hashed edge maps, covariances, steered tables."""

import math

import numpy as np
import pytest

from priordp import (
    EdgeMap,
    InfeasibleCorrelation,
    JointDistribution,
    gen_covariance,
    gen_discrete_corr,
    marginal,
    mean_pairwise_corr,
    pearson_corr,
    splitmix64,
)


class TestSplitmix64:
    def test_reference_vector(self):
        # first output of the SplitMix64 stream seeded with 0
        assert int(splitmix64(np.uint64(0))) == 0xE220A8397B1DCDAF

    def test_elementwise(self):
        xs = np.arange(64, dtype=np.uint64)
        batch = splitmix64(xs)
        assert batch.dtype == np.uint64
        for x, v in zip(xs, batch):
            assert splitmix64(x) == v

    def test_wrapping(self):
        # near-2^64 inputs must wrap, not overflow-error
        v = splitmix64(np.uint64(2**64 - 1))
        assert 0 <= int(v) < 2**64


def edge_sample(emap, count=8192, i=0, j=1):
    # child priors containing j, excluding i: bit 1 set, bits >= 2 vary
    masks = (np.arange(count, dtype=np.uint64) << np.uint64(2)) | np.uint64(2)
    return emap.values(i, masks, j)


class TestEdgeMap:
    def test_mean_magnitude(self):
        for alpha in (2.0, 512.0):
            emap = EdgeMap(16, 0.8, seed=7, alpha=alpha)
            vals = edge_sample(emap)
            assert abs(np.mean(np.abs(vals)) - 0.8) < 0.02

    def test_sign_follows_aver_corr(self):
        pos = edge_sample(EdgeMap(16, 0.5, seed=1))
        neg = edge_sample(EdgeMap(16, -0.5, seed=1))
        assert np.all(pos >= 0) and np.all(pos <= 1.0)
        assert np.all(neg <= 0) and np.all(neg >= -1.0)
        np.testing.assert_allclose(neg, -pos, atol=0)

    def test_degenerate_corr(self):
        assert np.all(edge_sample(EdgeMap(16, 0.0)) == 0.0)
        assert np.all(edge_sample(EdgeMap(16, 1.0, scale=2.5)) == 2.5)
        assert np.all(edge_sample(EdgeMap(16, -1.0)) == -1.0)

    def test_scale_bounds(self):
        emap = EdgeMap(16, 0.3, seed=9, scale=0.25)
        # the unit is also every strongest adversary's leakage
        assert emap.first == [0.25] * 16
        vals = edge_sample(emap)
        assert np.all(np.abs(vals) <= 0.25)
        assert np.mean(np.abs(vals)) == pytest.approx(0.3 * 0.25, abs=0.01)

    def test_determinism_and_seed_sensitivity(self):
        a = edge_sample(EdgeMap(16, 0.6, seed=3))
        b = edge_sample(EdgeMap(16, 0.6, seed=3))
        c = edge_sample(EdgeMap(16, 0.6, seed=4))
        np.testing.assert_array_equal(a, b)
        assert np.any(a != c)

    def test_scalar_matches_batch(self):
        # one child's lookup equals its entry in a batch of children
        emap = EdgeMap(8, 0.7, seed=3)
        mask = (1 << 1) | (1 << 3) | (1 << 5)
        batch = emap.values(0, np.asarray([0b1000, mask, 0b11000], dtype=np.uint64), 3)
        assert emap.values(0, np.asarray([mask]), 3)[0] == batch[1]

    def test_validation(self):
        with pytest.raises(ValueError, match="n must"):
            EdgeMap(0, 0.5)
        with pytest.raises(ValueError, match="n <= 50"):
            EdgeMap(51, 0.5)
        with pytest.raises(ValueError, match="aver_corr"):
            EdgeMap(4, 1.5)
        with pytest.raises(ValueError, match="scale"):
            EdgeMap(4, 0.5, scale=0.0)
        with pytest.raises(ValueError, match="alpha"):
            EdgeMap(4, 0.5, alpha=-1.0)
        emap = EdgeMap(4, 0.5)
        for lookup in (emap.values, emap.bounds):
            with pytest.raises(ValueError, match="indices"):
                lookup(2, np.asarray([1], dtype=np.uint64), 2)
            with pytest.raises(ValueError, match="belong"):
                lookup(0, np.asarray([0b0110]), 3)
            with pytest.raises(ValueError, match="belong"):
                lookup(0, np.asarray([0b0011]), 1)

    @pytest.mark.parametrize("name", ["scale", "alpha"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected(self, name, bad):
        # a NaN or infinite edge unit would wipe out every layer past the first
        with pytest.raises(ValueError, match=name):
            EdgeMap(4, 0.5, seed=1, **{name: bad})

    @pytest.mark.parametrize("alpha", [0.5, 2.0, 512.0, 1e5])
    def test_bounds_hold_every_edge(self, alpha):
        n = 10
        masks = np.arange(1 << n, dtype=np.int64)
        for corr in (-1.0, -0.9, -0.3, -0.05, 0.0, 0.05, 0.3, 0.9, 1.0):
            emap = EdgeMap(n, corr, seed=4, scale=0.37, alpha=alpha)
            for i in range(n):
                child = masks[(masks >> i) & 1 == 0]
                js = np.arange(n)[:, None]
                row, col = np.nonzero((child >> js) & 1)
                sel, j = child[col], js[row, 0]
                vals = emap.values(i, sel, j)
                lo, hi = emap.bounds(i, sel, j)
                assert np.all(lo <= vals) and np.all(vals <= hi), (corr, i)


class TestGenCovariance:
    def test_positive_equicorrelation(self):
        S = gen_covariance(4, 0.5)
        d = np.sqrt(np.diag(S))
        corr = S / np.outer(d, d)
        off = corr[~np.eye(4, dtype=bool)]
        np.testing.assert_allclose(off, 0.5, atol=1e-14)
        assert np.linalg.eigvalsh(S).min() >= -1e-12

    def test_negative_feasible(self):
        S = gen_covariance(4, -1.0 / 3.0)
        d = np.sqrt(np.diag(S))
        corr = S / np.outer(d, d)
        off = corr[~np.eye(4, dtype=bool)]
        np.testing.assert_allclose(off, -1.0 / 3.0, atol=1e-12)
        assert np.linalg.eigvalsh(S).min() >= -1e-9

    def test_negative_infeasible(self):
        with pytest.raises(InfeasibleCorrelation, match="1/"):
            gen_covariance(4, -0.5)

    def test_zero_and_single(self):
        np.testing.assert_array_equal(gen_covariance(3, 0.0), np.eye(3))
        np.testing.assert_array_equal(gen_covariance(1, 0.9), np.eye(1))

    def test_validation(self):
        with pytest.raises(ValueError, match="n must"):
            gen_covariance(0, 0.5)
        with pytest.raises(ValueError, match="aver_coeff"):
            gen_covariance(3, 2.0)


class TestGenDiscreteCorr:
    def test_mixture_weight_is_correlation(self):
        dist = gen_discrete_corr(2, 0.2, 2)
        np.testing.assert_allclose(
            dist.probs, [[0.3, 0.2], [0.2, 0.3]], atol=1e-15
        )
        assert pearson_corr(dist, 0, 1) == pytest.approx(0.2, abs=1e-12)

    def test_degenerate_targets(self):
        top = gen_discrete_corr(2, 1.0, 2)
        np.testing.assert_allclose(top.probs, [[0.5, 0.0], [0.0, 0.5]], atol=0)
        assert pearson_corr(top, 0, 1) == pytest.approx(1.0)
        bot = gen_discrete_corr(2, -1.0, 2)
        np.testing.assert_allclose(bot.probs, [[0.0, 0.5], [0.5, 0.0]], atol=0)
        assert pearson_corr(bot, 0, 1) == pytest.approx(-1.0)

    def test_unseeded_multiway(self):
        dist = gen_discrete_corr(3, 0.6, 3)
        assert mean_pairwise_corr(dist) == pytest.approx(0.6, abs=1e-9)
        for t in range(3):
            np.testing.assert_allclose(marginal(dist, [t]).probs, 1 / 3, atol=1e-12)

    def test_jitter_retunes_to_target(self):
        dist = gen_discrete_corr(2, 0.37, 3, seed=5)
        assert mean_pairwise_corr(dist) == pytest.approx(0.37, abs=1e-6)
        assert np.all(dist.probs > 0)

    def test_jitter_determinism(self):
        a = gen_discrete_corr(2, 0.37, 3, seed=5)
        b = gen_discrete_corr(2, 0.37, 3, seed=5)
        c = gen_discrete_corr(2, 0.37, 3, seed=6)
        np.testing.assert_array_equal(a.probs, b.probs)
        assert np.any(a.probs != c.probs)

    def test_far_negative_target_warns(self):
        # alternating signs cap the reachable mean near -1/3 for n >= 3
        with pytest.warns(UserWarning, match="misses target"):
            dist = gen_discrete_corr(4, -0.8, 2)
        got = mean_pairwise_corr(dist)
        assert -0.5 < got < -0.2

    def test_validation(self):
        with pytest.raises(ValueError, match="n must"):
            gen_discrete_corr(1, 0.5, 2)
        with pytest.raises(ValueError, match="domain_size"):
            gen_discrete_corr(2, 0.5, 1)
        with pytest.raises(ValueError, match="target_corr"):
            gen_discrete_corr(2, 1.5, 2)

    def test_one_tuple_has_no_pairs(self):
        one = JointDistribution([[0.0, 1.0]], [0.4, 0.6])
        with pytest.raises(ValueError, match="at least two tuples"):
            mean_pairwise_corr(one)

    def test_returns_joint_distribution(self):
        dist = gen_discrete_corr(2, 0.4, 4, seed=11)
        assert isinstance(dist, JointDistribution)
        assert dist.domains == ((0.0, 1.0, 2.0, 3.0), (0.0, 1.0, 2.0, 3.0))
