"""Gaussian model: conditioning algebra, G kernel, closed form vs numeric.

Reference implementations here stay deliberately naive: textbook bivariate
formulas, dense numpy solves, scipy.stats.norm for the kernel, and a quad
integral for the Laplace/Gaussian convolution identity.
"""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate
from scipy.special import erfcx
from scipy.stats import norm

from priordp import model_gaussian
from priordp import (
    GaussianModel,
    SearchSpaceExceeded,
    SingularConditioning,
    leakage_gaussian,
    load_gaussian_model,
    log_g,
    max_leakage_gaussian,
    mu0_expand,
    pdp_numeric_gaussian,
)


def log_g_two_logs(x, b):
    """log G(x; b) as two log-erfcx terms joined by logaddexp, each term
    below the switch replaced by its leading term z^2 + log 2."""

    def log_erfcx(z):
        small = z < model_gaussian._ERFCX_SWITCH
        out = np.empty_like(z)
        out[~small] = np.log(erfcx(z[~small]))
        out[small] = z[small] ** 2 + math.log(2.0)
        return out

    u = np.asarray(x, dtype=float) / b
    z1 = np.asarray((u + b) / math.sqrt(2.0))
    z2 = np.asarray((b - u) / math.sqrt(2.0))
    return -(u * u + b * b) / 2.0 - math.log(2.0) + np.logaddexp(log_erfcx(z1), log_erfcx(z2))


def conditional_gaussian(model, known_idx, known_vals):
    """(mean, cov) of the tuples outside known_idx, in index order, given
    exact values of the known ones: mean = mu_1 + S_12 S_22^{-1} (v - mu_2),
    cov = S_11 - S_12 S_22^{-1} S_21. SingularConditioning when the known
    block is not positive definite."""
    known = sorted(set(int(k) for k in known_idx))
    vals = np.asarray(list(known_vals), dtype=float)
    if len(known) != vals.size:
        raise ValueError("known_idx and known_vals lengths differ")
    unknown = [u for u in range(model.n) if u not in known]
    mu = np.asarray(model.mu)
    S = model.sigma
    if not known:
        return mu.copy(), S.copy()
    if not unknown:
        return np.empty(0), np.empty((0, 0))
    S12 = S[np.ix_(unknown, known)]
    # first column solves the mean shift, remaining columns solve S_22^{-1} S_21
    t = model_gaussian._solve_block(
        S[np.ix_(known, known)], np.column_stack([vals - mu[known], S12.T])
    )
    cov = S[np.ix_(unknown, unknown)] - S12 @ t[:, 1:]
    return mu[unknown] + S12 @ t[:, 0], (cov + cov.T) / 2.0


def random_spd_model(rng, n, M=1.0, lam=1.0):
    A = rng.normal(size=(n, n))
    sigma = A @ A.T + 0.3 * np.eye(n)
    mu = rng.normal(size=n)
    return GaussianModel(mu=mu, sigma=sigma, M=M, lam=lam)


def equicorrelated(n, rho, M=1.0, lam=1.0):
    sigma = np.full((n, n), rho)
    np.fill_diagonal(sigma, 1.0)
    return GaussianModel(mu=[0.0] * n, sigma=sigma, M=M, lam=lam)


class TestModelValidation:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            GaussianModel(mu=[0.0, 0.0], sigma=np.eye(3))

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            GaussianModel(mu=[0.0, 0.0], sigma=[[1.0, 0.5], [0.2, 1.0]])

    def test_indefinite_rejected(self):
        with pytest.raises(ValueError, match="semidefinite"):
            GaussianModel(mu=[0.0, 0.0], sigma=[[1.0, 2.0], [2.0, 1.0]])

    @pytest.mark.parametrize("rho", [1.0, -1.0])
    def test_singular_but_psd_accepted(self, rho):
        # perfectly correlated tuples are legal model inputs
        m = GaussianModel(mu=[0.0, 0.0], sigma=[[1.0, rho], [rho, 1.0]])
        assert m.n == 2

    def test_bad_scalars(self):
        with pytest.raises(ValueError, match="M"):
            GaussianModel(mu=[0.0], sigma=[[1.0]], M=0.0)
        with pytest.raises(ValueError, match="lambda"):
            GaussianModel(mu=[0.0], sigma=[[1.0]], lam=-1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="M"):
            GaussianModel(mu=[0.0], sigma=[[1.0]], M=bad)
        with pytest.raises(ValueError, match="lambda"):
            GaussianModel(mu=[0.0], sigma=[[1.0]], lam=bad)
        with pytest.raises(ValueError, match="finite"):
            GaussianModel(mu=[0.0, bad], sigma=np.eye(2))
        with pytest.raises(ValueError, match="finite"):
            GaussianModel(mu=[0.0, 0.0], sigma=[[1.0, bad], [bad, 1.0]])

    def test_sigma_read_only(self):
        m = GaussianModel(mu=[0.0, 0.0], sigma=np.eye(2))
        with pytest.raises(ValueError):
            m.sigma[0, 0] = 5.0


class TestConditionalGaussian:
    def test_bivariate_textbook(self):
        rho = 0.6
        m = GaussianModel(
            mu=[1.0, -2.0], sigma=[[4.0, rho * 2 * 3], [rho * 2 * 3, 9.0]]
        )
        mean, cov = conditional_gaussian(m, [1], [0.5])
        # x0 | x1=v: mu0 + rho*(s0/s1)*(v - mu1), var (1-rho^2) s0^2
        assert mean[0] == pytest.approx(1.0 + rho * (2 / 3) * (0.5 + 2.0))
        assert cov[0, 0] == pytest.approx((1 - rho**2) * 4.0)

    def test_matches_dense_solve(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            m = random_spd_model(rng, 5)
            known = sorted(rng.choice(5, size=2, replace=False).tolist())
            unknown = [u for u in range(5) if u not in known]
            vals = rng.normal(size=2)
            mean, cov = conditional_gaussian(m, known, vals)
            S = m.sigma
            mu = np.asarray(m.mu)
            S22i = np.linalg.inv(S[np.ix_(known, known)])
            ref_mean = mu[unknown] + S[np.ix_(unknown, known)] @ S22i @ (
                vals - mu[known]
            )
            ref_cov = S[np.ix_(unknown, unknown)] - S[
                np.ix_(unknown, known)
            ] @ S22i @ S[np.ix_(known, unknown)]
            np.testing.assert_allclose(mean, ref_mean, atol=1e-10)
            np.testing.assert_allclose(cov, ref_cov, atol=1e-10)

    def test_empty_and_full_conditioning(self):
        m = random_spd_model(np.random.default_rng(6), 3)
        mean, cov = conditional_gaussian(m, [], [])
        np.testing.assert_allclose(mean, m.mu)
        np.testing.assert_allclose(cov, m.sigma)
        mean, cov = conditional_gaussian(m, [0, 1, 2], [0.0, 0.0, 0.0])
        assert mean.size == 0 and cov.shape == (0, 0)

    def test_singular_known_block(self):
        m = GaussianModel(mu=[0.0, 0.0, 0.0], sigma=np.ones((3, 3)))
        with pytest.raises(SingularConditioning):
            conditional_gaussian(m, [0, 1], [0.2, 0.3])

    def test_length_mismatch(self):
        m = random_spd_model(np.random.default_rng(7), 3)
        with pytest.raises(ValueError, match="lengths"):
            conditional_gaussian(m, [0, 1], [0.5])


class TestMu0Expand:
    def test_no_unknowns(self):
        m = random_spd_model(np.random.default_rng(8), 3)
        exp = mu0_expand(m, 0, [1, 2])
        assert exp.coef_i == 0.0
        assert exp.sigma0_sq == 0.0
        assert exp.mu00 == 0.0

    def test_independence_kills_coefficients(self):
        m = GaussianModel(
            mu=[1.0, 2.0, 3.0, 4.0], sigma=np.diag([1.0, 2.0, 3.0, 4.0])
        )
        exp = mu0_expand(m, 1, [3])
        assert exp.coef_i == pytest.approx(0.0, abs=1e-14)
        assert exp.coef_k[3] == pytest.approx(0.0, abs=1e-14)
        # unknowns are {0, 2}
        assert exp.mu00 == pytest.approx(1.0 + 3.0)
        assert exp.sigma0_sq == pytest.approx(1.0 + 3.0)

    def test_affine_expansion_matches_conditioning(self):
        # mu0(x_i, x_K) must equal the summed conditional mean at any values
        rng = np.random.default_rng(9)
        for _ in range(8):
            m = random_spd_model(rng, 4)
            i, K = 2, [0]
            exp = mu0_expand(m, i, K)
            for _ in range(3):
                xi, xk = rng.normal(), rng.normal()
                # conditioning indices sorted: [0, 2] -> values [xk, xi]
                mean, cov = conditional_gaussian(m, [0, 2], [xk, xi])
                assert mean.sum() == pytest.approx(
                    exp.mu00 + exp.coef_i * xi + exp.coef_k[0] * xk, abs=1e-9
                )
                assert cov.sum() == pytest.approx(exp.sigma0_sq, abs=1e-9)

    def test_weakest_coefficient_row_ratio(self):
        rng = np.random.default_rng(10)
        m = random_spd_model(rng, 5)
        for i in range(5):
            exp = mu0_expand(m, i, [])
            ref = (m.sigma[i, :].sum() - m.sigma[i, i]) / m.sigma[i, i]
            assert exp.coef_i == pytest.approx(ref, abs=1e-10)

    def test_validation(self):
        m = random_spd_model(np.random.default_rng(11), 3)
        with pytest.raises(ValueError, match="prior"):
            mu0_expand(m, 1, [1])
        # a negative index would alias a tuple counted from the end
        for i, K in [(3, []), (0, [7]), (-1, [0]), (0, [-1]), (0, [-3])]:
            with pytest.raises(ValueError, match="range"):
                mu0_expand(m, i, K)
            with pytest.raises(ValueError, match="range"):
                pdp_numeric_gaussian(m, i, K)

    def test_singular_conditioning_block(self):
        # rho = 1 everywhere: conditioning on {i} u K with |K| >= 1 inverts
        # a rank-one 2x2 block
        m = equicorrelated(3, 1.0)
        with pytest.raises(SingularConditioning):
            mu0_expand(m, 0, [1])


class TestGKernel:
    def test_matches_direct_formula(self):
        # norm.sf, not 1 - norm.cdf: the upper tail needs full precision
        xs = np.linspace(-20, 20, 241)
        for b in (0.5, 1.0, 3.0):
            direct = np.exp(xs) * norm.sf(xs / b + b) + np.exp(
                -xs
            ) * norm.cdf(xs / b - b)
            np.testing.assert_allclose(np.exp(log_g(xs, b)), direct, rtol=1e-10)

    def test_log_overflow_safe(self):
        for x in (-1e6, -1e3, 1e3, 1e6):
            v = log_g(x, 1.0)
            assert math.isfinite(v)
            # far tails decay like e^{-|x|} times the shared Gaussian factor
            assert v <= -abs(x) + abs(x) * 1e-6 + 10.0

    def test_scalar_and_array_agree(self):
        xs = np.array([-3.0, 0.0, 7.0])
        arr = log_g(xs, 2.0)
        assert arr.shape == xs.shape
        for x, v in zip(xs, arr):
            assert log_g(float(x), 2.0) == pytest.approx(v, abs=0.0)

    def test_bad_b(self):
        with pytest.raises(ValueError, match="positive"):
            log_g(0.0, 0.0)

    @pytest.mark.parametrize("grid", [
        np.linspace(-20.0, 40.0, 601),
        np.linspace(-60.0, 10.0, 701),
        np.array(-30.0),
        np.array(3.0),
    ])
    def test_matches_two_log_form(self, grid):
        # one log of the erfcx sum against the log of each term and their
        # logaddexp. Both long grids reach below the switch at b <= 1, and
        # -30 does at b <= 0.5. Measured: at most 7.1e-15 apart (b = 10)
        for b in (0.1, 0.5, 1.0, 3.0, 10.0):
            want = log_g_two_logs(grid, b)
            got = log_g(grid, b)
            assert np.shape(got) == want.shape
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14)

    def test_convolution_identity(self):
        # int Lap(t - s; lam) N(s; 0, s2) ds = (1/2lam) e^{s2/2lam^2} G(t/lam; s/lam)
        for t, sigma, lam in [(0.3, 0.8, 1.0), (-2.0, 1.5, 0.7), (4.0, 0.4, 2.0)]:
            def integrand(s):
                return (
                    math.exp(-abs(t - s) / lam)
                    / (2 * lam)
                    * norm.pdf(s, scale=sigma)
                )
            val, _ = integrate.quad(integrand, -np.inf, np.inf, limit=200)
            closed = (
                math.exp(sigma**2 / (2 * lam**2))
                / (2 * lam)
                * math.exp(log_g(t / lam, sigma / lam))
            )
            assert val == pytest.approx(closed, rel=1e-7)

    def test_log_slope_bounded_by_one(self):
        xs = np.linspace(-50, 50, 4001)
        for b in (0.3, 1.0, 3.0):
            lg = log_g(xs, b)
            slopes = np.diff(lg) / np.diff(xs)
            assert np.max(np.abs(slopes)) <= 1.0 + 1e-9


class TestClosedFormVsNumeric:
    def test_agreement_random_models(self):
        rng = np.random.default_rng(12)
        for _ in range(8):
            n = int(rng.integers(2, 5))
            m = random_spd_model(rng, n, M=float(rng.uniform(0.5, 2.0)),
                                 lam=float(rng.uniform(0.5, 2.0)))
            for i in range(n):
                others = [j for j in range(n) if j != i]
                for mask in range(2 ** len(others)):
                    K = [o for p, o in enumerate(others) if (mask >> p) & 1]
                    closed = leakage_gaussian(m, i, K)
                    grid = pdp_numeric_gaussian(m, i, K)
                    # the grid sup undershoots the true sup up to float noise
                    assert grid <= closed + 1e-9
                    assert grid == pytest.approx(closed, abs=1e-3)

    def test_bivariate_identity(self):
        for rho in (-1.0, -0.5, 0.0, 0.5, 1.0):
            m = equicorrelated(2, rho, M=1.5, lam=1.0)
            assert leakage_gaussian(m, 0, []) == pytest.approx(
                abs(1 + rho) * 1.5, abs=1e-12
            )

    def test_pure_laplace_when_all_known(self):
        m = random_spd_model(np.random.default_rng(13), 3, M=2.0, lam=4.0)
        assert leakage_gaussian(m, 1, [0, 2]) == pytest.approx(0.5, abs=1e-15)
        assert pdp_numeric_gaussian(m, 1, [0, 2]) == pytest.approx(0.5, abs=1e-15)


class TestNumericGrid:
    """pdp_numeric_gaussian's grid r = k * span / 10000, k = -10000..10000,
    evaluated as the oracle does: the unshifted term on k >= 0, mirrored."""

    @staticmethod
    def grid(model, i, K):
        exp = mu0_expand(model, i, K)
        lam = model.lam
        delta = (1.0 + exp.coef_i) * model.M
        span = 12.0 * math.sqrt(exp.sigma0_sq) + 4.0 * exp.sigma0_sq / lam + 20.0 * lam + abs(delta)
        return np.arange(-10000, 10001) * (span / 10000), delta, math.sqrt(exp.sigma0_sq) / lam

    def adversaries(self):
        rng = np.random.default_rng(15)
        # lambda 4 puts b = sigma0 / lambda below 1, where points fall below
        # the erfcx switch
        for lam in (0.3, 1.0, 4.0):
            m = random_spd_model(rng, 3, M=1.2, lam=lam)
            for i, K in ((0, []), (1, [0]), (2, [1])):
                yield m, i, K

    def test_grid_is_odd_and_mirror_exact(self):
        for m, i, K in self.adversaries():
            r, delta, b = self.grid(m, i, K)
            assert np.array_equal(r[::-1], -r)
            half = log_g(r[10000:] / m.lam, b)
            full = log_g(r / m.lam, b)
            assert np.array_equal(np.concatenate([half[:0:-1], half]), full)
            # the oracle's supremum is the full grid's, bit for bit
            want = np.max(np.abs(full - log_g((r - delta) / m.lam, b)))
            assert pdp_numeric_gaussian(m, i, K) == float(want)

    def test_warm_call_allocates_no_grid_row(self):
        m = random_spd_model(np.random.default_rng(16), 4, M=1.0, lam=0.7)
        pdp_numeric_gaussian(m, 0, [1])  # this thread's first row
        tracemalloc.start()
        try:
            pdp_numeric_gaussian(m, 2, [3])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20001 * 8


class TestMaxLeakage:
    def test_identity_sigma_flat(self):
        m = GaussianModel(mu=[0.0] * 4, sigma=np.eye(4), M=3.0, lam=2.0)
        rep = max_leakage_gaussian(m)
        assert rep.leakage == pytest.approx(1.5, abs=1e-12)
        assert rep.node_count == 4 * 2**3
        for layer in range(1, 5):
            assert rep.layer_max[layer] == pytest.approx(1.5, abs=1e-12)

    def test_equicorrelated_peak_at_weakest(self):
        m = equicorrelated(4, 0.5)
        rep = max_leakage_gaussian(m)
        assert rep.leakage == pytest.approx(1.0 + 3 * 0.5, abs=1e-12)
        assert rep.argmax[1] == ()
        # more prior knowledge never helps the adversary here
        for layer in range(1, 4):
            assert rep.layer_max[layer] <= rep.layer_max[layer + 1] + 1e-12

    def test_cap(self, monkeypatch):
        m = equicorrelated(3, 0.2)
        with monkeypatch.context() as patch:
            patch.setattr(model_gaussian, "ENUM_CAP", 2)
            with pytest.raises(SearchSpaceExceeded):
                max_leakage_gaussian(m)
            rep = max_leakage_gaussian(m, force=True)
        assert rep.node_count == 12
        big = GaussianModel(mu=[0.0] * 21, sigma=np.eye(21))
        with pytest.raises(SearchSpaceExceeded):
            max_leakage_gaussian(big)

    def test_report_shape(self):
        m = equicorrelated(3, -0.3)
        rep = max_leakage_gaussian(m)
        assert rep.algorithm == "enumerate"
        js = rep.to_json()
        assert js["node_count"] == 12
        assert set(js["layer_max"]) == {"1", "2", "3"}


def enumerated_values(model):
    """Every adversary's leakage from the batched enumeration, keyed by
    (i, K), checking that each batch's layer is n - |K|."""
    n = model.n
    out = {}
    for attacks, layer, masks, v in model_gaussian._adversary_values(model):
        for i, mask, value in zip(attacks.ravel().tolist(), masks.ravel().tolist(),
                                  v.ravel().tolist()):
            K = tuple(t for t in range(n) if (mask >> t) & 1)
            assert layer == n - len(K) and (i, K) not in out
            out[(i, K)] = value
    return out


def reference_enumeration(model):
    """Per-adversary leakage_gaussian in (i, mask over the others) order."""
    n = model.n
    out = []
    for i in range(n):
        others = [j for j in range(n) if j != i]
        for mask in range(2 ** (n - 1)):
            K = tuple(o for p, o in enumerate(others) if (mask >> p) & 1)
            out.append((i, K, leakage_gaussian(model, i, K)))
    return out


class TestEnumeration:
    def test_matches_per_adversary(self):
        rng = np.random.default_rng(15)
        for n in range(1, 9):
            m = random_spd_model(rng, n, M=float(rng.uniform(0.5, 2.0)),
                                 lam=float(rng.uniform(0.5, 2.0)))
            ref = reference_enumeration(m)
            vals = enumerated_values(m)
            rep = max_leakage_gaussian(m)
            layer_ref = {}
            assert len(vals) == len(ref)
            for i, K, v in ref:
                assert vals[(i, K)] == v, (i, K)
                layer = n - len(K)
                layer_ref[layer] = max(layer_ref.get(layer, -math.inf), v)
            assert rep.node_count == len(ref)
            assert rep.layer_max.keys() == layer_ref.keys()
            for layer, v in layer_ref.items():
                assert rep.layer_max[layer] == v
            assert rep.leakage == max(rep.layer_max.values())
            # the report's argmax is the least maximal adversary (i, K)
            top = max(vals.values())
            assert rep.argmax == min(node for node, v in vals.items() if v == top)

    def test_tie_goes_to_first_in_order(self):
        # x_0, x_1 anti-correlated, x_2 independent. Leakage 1 is reached by
        # (2, ()) in the first batch (one-element prior sets) and, earlier in
        # adversary order, by (0, (1,)) in a later batch; all values exact
        sigma = [[1.0, -0.5, 0.0], [-0.5, 1.0, 0.0], [0.0, 0.0, 1.0]]
        m = GaussianModel(mu=[0.0] * 3, sigma=sigma)
        ref = reference_enumeration(m)
        assert [v for _, _, v in ref] == [0.5, 1.0, 0.5, 1.0, 0.5, 1.0, 0.5, 1.0,
                                          1.0, 1.0, 1.0, 1.0]
        rep = max_leakage_gaussian(m)
        assert rep.leakage == 1.0
        assert rep.argmax == (0, (1,))

    def test_tie_follows_adversary_node_order(self):
        # tuple 0 is independent, so knowing it changes nothing: (3, (1, 4))
        # and (3, (0, 1, 4)) tie bit for bit. Over the tuples other than 3,
        # the mask of (1, 4) is smaller, but (0, 1, 4) sorts first as a node
        S = np.array([[130, 0, 0, 0, 0],
                      [0, 82, -8, -13, 8],
                      [0, -8, 82, 8, -13],
                      [0, -13, 8, 45, -4],
                      [0, 8, -13, -4, 45]]) / 128
        m = GaussianModel(mu=[0.0] * 5, sigma=S, M=1.0, lam=1.0)
        rep = max_leakage_gaussian(m)
        assert rep.leakage == 1.139742721733243
        assert leakage_gaussian(m, 3, (1, 4)) == leakage_gaussian(m, 3, (0, 1, 4))
        assert rep.argmax == (3, (0, 1, 4))

    @pytest.mark.parametrize("n", [5, 9])
    def test_equicorrelated_argmax_has_no_prior(self, n):
        m = equicorrelated(n, 0.3)
        rep = max_leakage_gaussian(m)
        assert rep.argmax[1] == ()
        assert rep.leakage == pytest.approx(1.0 + (n - 1) * 0.3, abs=1e-12)

    def test_singular_block_raises(self):
        m = GaussianModel(mu=[0.0] * 4, sigma=np.ones((4, 4)))
        with pytest.raises(SingularConditioning):
            max_leakage_gaussian(m)

    def test_singular_full_set_is_never_inverted(self):
        # x_{n-1} is the sum of the others: only the full set is singular
        n = 5
        B = np.vstack([np.eye(n - 1), np.ones(n - 1)])
        m = GaussianModel(mu=[0.0] * n, sigma=B @ B.T)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(m.sigma)
        rep = max_leakage_gaussian(m)
        ref = reference_enumeration(m)
        assert rep.leakage == pytest.approx(max(v for _, _, v in ref), abs=1e-12)
        assert rep.layer_max[1] == 1.0

    def test_batch_budget_does_not_change_report(self, monkeypatch):
        rng = np.random.default_rng(16)
        models = [random_spd_model(rng, n) for n in (3, 6, 8)] + [equicorrelated(7, 0.4)]
        before = [max_leakage_gaussian(m) for m in models]
        monkeypatch.setattr(model_gaussian, "_STACK_CELLS", 1)
        for m, want in zip(models, before):
            got = max_leakage_gaussian(m)
            assert repr(got.layer_max) == repr(want.layer_max)
            assert repr(got.leakage) == repr(want.leakage)
            assert (got.argmax, got.node_count, got.metadata) == (
                want.argmax, want.node_count, want.metadata)


class TestGaussianSerialization:
    def test_round_trip(self):
        m = random_spd_model(np.random.default_rng(14), 3, M=1.25, lam=0.5)
        js = {"mu": list(m.mu), "sigma": m.sigma.tolist(), "M": m.M, "lambda": m.lam}
        back = load_gaussian_model(js)
        assert back.mu == m.mu
        np.testing.assert_allclose(back.sigma, m.sigma)
        assert (back.M, back.lam) == (m.M, m.lam)

    def test_json_string_and_lam_alias(self):
        m = load_gaussian_model(
            '{"mu": [0, 0], "sigma": [[1, 0], [0, 1]], "M": 2, "lam": 4}'
        )
        assert m.lam == 4.0
        assert leakage_gaussian(m, 0, []) == pytest.approx(0.5)

    def test_missing_keys(self):
        with pytest.raises(ValueError, match="missing"):
            load_gaussian_model({"mu": [0.0], "sigma": [[1.0]]})
        with pytest.raises(ValueError, match="lambda"):
            load_gaussian_model({"mu": [0.0], "sigma": [[1.0]], "M": 1.0})
        with pytest.raises(ValueError, match="object"):
            load_gaussian_model("[1, 2, 3]")

    def test_overflowing_scale(self):
        # every leakage is (M / lambda) |1 + mu0i|, infinite at any adversary
        model = {"mu": [0, 0], "sigma": [[1, 0.5], [0.5, 1]], "M": 1e300, "lambda": 1e-10}
        with pytest.raises(ValueError, match="M / lambda overflows"):
            load_gaussian_model(model)
        assert load_gaussian_model({**model, "lambda": 1e-8}).lam == 1e-8

    def test_overflowing_leakage(self):
        # M / lambda is finite, but (M / lambda) |1 + mu0i| is not at (0, ())
        model = load_gaussian_model(
            {"mu": [0, 0], "sigma": [[1, 100], [100, 10000.01]], "M": 1e307, "lambda": 0.1})
        for evaluate in (lambda: max_leakage_gaussian(model),
                         lambda: leakage_gaussian(model, 0, [])):
            with pytest.raises(ValueError, match=r"adversary \(i=0, K=\[\]\) overflows"):
                evaluate()
        assert math.isfinite(leakage_gaussian(model, 1, []))
