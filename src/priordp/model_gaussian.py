"""Closed-form leakage for continuous data under a multivariate Gaussian model.

For x ~ N_n(mu, Sigma) and the Laplace-perturbed sum query, an adversary
attacking tuple i with prior knowledge of the tuples in K faces output
densities that are Laplace kernels convolved with the Gaussian law of the
sum of the unknown tuples given (x_i, x_K). That conditional sum is
N(mu0, sigma0^2) with mu0 affine in the conditioning values; writing mu0i
for the coefficient of x_i inside mu0, the leakage has the closed form

    l = (M / lambda) * |1 + mu0i|

where M bounds |x_i - x_i'|. The convolution kernel itself is

    G(x; b) = e^x (1 - Phi(x/b + b)) + e^{-x} Phi(x/b - b),

whose log-slope is bounded in (-1, 1) and saturates at the tails, which is
what makes the supremum over outputs equal the closed form above.

Indices are 0-based. Covariances may be positive SEMIdefinite: perfectly
correlated models are legal inputs and flow through the sigma0 = 0 branch;
blocks are only required to be invertible where they are actually inverted.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import chain, combinations, islice
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import SearchSpaceExceeded, SingularConditioning
from .model_discrete import _SCRATCH
from .report import LeakageReport, _Summary, _adversary

_LN2 = math.log(2.0)
_SQRT2 = math.sqrt(2.0)
# erfcx(z) for z < -25 is taken as its leading term 2*exp(z^2); the
# dropped erfcx(-z) correction, and log G's other erfcx term, are below
# 1e-270 relative there, and direct evaluation overflows past z ~ -26.6.
_ERFCX_SWITCH = -25.0


@dataclass(frozen=True, eq=False)
class GaussianModel:
    """Multivariate Gaussian database model.

    Parameters
    ----------
    mu : sequence of float
        Mean vector, length n, finite.
    sigma : array_like, shape (n, n)
        Covariance matrix; finite, symmetric, positive semidefinite.
    M : float
        Bound on |x_i - x_i'| between the two hypothesized values of the
        attacked tuple. Must be positive and finite.
    lam : float
        Laplace noise scale, positive and finite.
    """

    mu: tuple[float, ...]
    sigma: np.ndarray = field(repr=False)
    M: float = 1.0
    lam: float = 1.0

    def __post_init__(self) -> None:
        mu = tuple(float(v) for v in self.mu)
        object.__setattr__(self, "mu", mu)
        S = np.asarray(self.sigma, dtype=float)
        n = len(mu)
        if S.shape != (n, n):
            raise ValueError(f"sigma shape {S.shape} does not match len(mu)={n}")
        if not (all(map(math.isfinite, mu)) and np.isfinite(S).all()):
            raise ValueError("mu and sigma must be finite")
        scale = max(1.0, float(np.abs(S).max()))
        if np.abs(S - S.T).max() > 1e-10 * scale:
            raise ValueError("sigma must be symmetric")
        S = (S + S.T) / 2.0
        if float(np.linalg.eigvalsh(S).min()) < -1e-12 * scale:
            raise ValueError("sigma must be positive semidefinite")
        S.flags.writeable = False
        object.__setattr__(self, "sigma", S)
        object.__setattr__(self, "M", float(self.M))
        object.__setattr__(self, "lam", float(self.lam))
        if not 0 < self.M < math.inf:
            raise ValueError("M must be positive and finite")
        if not 0 < self.lam < math.inf:
            raise ValueError("lambda must be positive and finite")
        # every leakage of the model is (M / lambda) |1 + mu0i|
        if not math.isfinite(self.M / self.lam):
            raise ValueError(f"M / lambda overflows: M {self.M!r}, lambda {self.lam!r}")

    @property
    def n(self) -> int:
        return len(self.mu)


@dataclass(frozen=True)
class Mu0Expansion:
    """Affine expansion of the conditional mean of the unknown-tuple sum.

    mu0 = mu00 + coef_i * x_i + sum_k coef_k[k] * x_k, and the conditional
    variance of the sum is sigma0_sq. With no unknown tuples the convention
    is coef_i = 0, sigma0_sq = 0 (the output is pure Laplace noise).
    """

    mu00: float
    coef_i: float
    coef_k: Mapping[int, float]
    sigma0_sq: float


def _solve_block(blocks: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """blocks^{-1} rhs for stacked (..., c, c) blocks and (..., c, k) right sides.

    A Cholesky factorization is the gate: SingularConditioning unless every
    block is positive definite. The solve itself is np.linalg.solve.
    """
    try:
        np.linalg.cholesky(blocks)
    except np.linalg.LinAlgError as exc:
        raise SingularConditioning(f"conditioning block is singular: {exc}") from exc
    return np.linalg.solve(blocks, rhs)


def _coefficients(S: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(w, c), both (sets, |C|), for the sorted proper prior sets C in the
    rows of idx: c = 1^T Sigma_UC sums each member's sigma row outside C, and
    w = Sigma_CC^{-1} c holds each member's coefficient inside mu0."""
    blocks = S[idx[:, :, None], idx[:, None, :]]
    c = S.sum(axis=1)[idx] - blocks.sum(axis=2)
    return _solve_block(blocks, c[:, :, None])[:, :, 0], c


def mu0_expand(model: GaussianModel, i: int, K: Iterable[int]) -> Mu0Expansion:
    """Expand the conditional mean/variance of the unknown-tuple sum.

    The sum s_U of tuples outside {i} | K, conditioned on (x_i, x_K), is
    N(mu0, sigma0_sq); mu0 is affine in the conditioning values and its
    coefficients are extracted here by linearity, from the same solve as
    the enumeration's, so both give the same leakage bit for bit.
    """
    i, ks = _adversary((i, K), model.n)
    cond = sorted((i,) + ks)
    unknown = [u for u in range(model.n) if u not in cond]
    if not unknown:
        return Mu0Expansion(0.0, 0.0, {k: 0.0 for k in ks}, 0.0)
    S = model.sigma
    mu = np.asarray(model.mu)
    (w,), (c,) = _coefficients(S, np.array([cond]))
    coef = dict(zip(cond, w.tolist()))
    return Mu0Expansion(
        mu00=float(mu[unknown].sum() - w @ mu[cond]),
        coef_i=coef.pop(i),
        coef_k=coef,
        sigma0_sq=max(0.0, float(S[np.ix_(unknown, unknown)].sum() - c @ w)),
    )


def leakage_gaussian(
    model: GaussianModel,
    i: int,
    K: Iterable[int],
    expansion: Mu0Expansion | None = None,
) -> float:
    """Exact leakage of adversary (i, K): (M / lambda) * |1 + mu0i|.

    `expansion` is mu0_expand(model, i, K) when the caller already has it.
    Raises ValueError when the product overflows.
    """
    exp = mu0_expand(model, i, K) if expansion is None else expansion
    value = model.M / model.lam * abs(1.0 + exp.coef_i)
    if not math.isfinite(value):
        raise _overflow(model, *_adversary((i, K), model.n), abs(1.0 + exp.coef_i))
    return value


def _overflow(model: GaussianModel, i: int, ks: tuple[int, ...], factor: float) -> ValueError:
    """The refusal of a leakage (M / lambda) |1 + mu0i| that is not finite."""
    return ValueError(
        f"the Gaussian leakage of adversary (i={i}, K={list(ks)}) overflows: "
        f"(M / lambda) |1 + mu0i| = ({model.M!r} / {model.lam!r}) * {factor!r} is not finite"
    )


def log_g(x, b, out=None):
    """log G(x; b), overflow-safe for all x.

    G is even, and both of its terms share the exponent -(a^2 + b^2)/2,
    a = |x|/b, once written with the scaled complementary error function,
    so the whole computation runs in log space with one log per point:

    log G = -(a^2 + b^2)/2 - log 2
            + log(erfcx((b - a)/sqrt2) + erfcx((b + a)/sqrt2))

    Below _ERFCX_SWITCH the last term is its leading term (b - a)^2/2 + log 2.
    `out`, an array of x's shape, receives the values and is returned; the
    scratch rows belong to the calling thread and are reused.
    """
    # imported on first use: scipy.special is half of a bare import's time
    # and memory, and only the grid oracle needs it here
    from scipy.special import erfcx

    b = float(b)
    if b <= 0.0:
        raise ValueError("b must be positive")
    x = np.asarray(x, dtype=float)
    val = np.empty(x.shape) if out is None else out
    a = np.abs(x, out=_SCRATCH.row("a", x.shape))
    a /= b
    zm = np.subtract(b, a, out=_SCRATCH.row("zm", x.shape))
    zm /= _SQRT2
    zp = np.add(a, b, out=_SCRATCH.row("zp", x.shape))
    zp /= _SQRT2
    # erfcx(zm) is inf below -26.6; those points take the leading term
    erfcx(zm, out=val)
    val += erfcx(zp, out=zp)
    np.log(val, out=val)
    small = np.less(zm, _ERFCX_SWITCH, out=_SCRATCH.row("small", x.shape, bool))
    if small.any():
        np.square(zm, out=zm)
        zm += _LN2
        np.copyto(val, zm, where=small)
    np.square(a, out=a)
    a += b * b
    a /= -2.0
    a -= _LN2
    val += a
    return val if val.ndim else float(val)


# most tuples whose n * 2^(n-1) adversaries are enumerated without force
ENUM_CAP = 20

# Most cells of the stacked (|C|, |C|) blocks solved in one batched call.
# Bounds the enumeration's memory at n = ENUM_CAP.
_STACK_CELLS = 1 << 18


def _prior_sets(n: int, size: int, step: int) -> Iterator[np.ndarray]:
    """The size-subsets of range(n) as sorted index rows, step rows at a time."""
    sets = combinations(range(n), size)
    while True:
        idx = np.fromiter(chain.from_iterable(islice(sets, step)), dtype=np.intp)
        if not idx.size:
            return
        yield idx.reshape(-1, size)


def _adversary_values(
    model: GaussianModel,
) -> Iterator[tuple[np.ndarray, int, np.ndarray, np.ndarray]]:
    """Leakages of all adversaries, batched by prior set C = {i} | K.

    The coefficient vector w = Sigma_CC^{-1} Sigma_CU 1 depends only on C,
    so one solve per nonempty proper subset C gives the leakage of all |C|
    adversaries (i, C - {i}) as (M / lambda) * |1 + w[pos(i)]|. The subsets
    of one size are solved in batches of at most _STACK_CELLS block cells.
    The full set is never inverted: with no unknown tuple its adversaries
    face the noise alone. Each batch yields (attacks, layer, masks,
    leakages), three aligned (sets, |C|) arrays and the graph layer
    n - |K|; masks hold each K over all n tuples. A leakage that overflows
    raises ValueError naming the first such adversary in this order.
    """
    n = model.n
    scale = model.M / model.lam
    for size in range(1, n):
        for idx in _prior_sets(n, size, max(1, _STACK_CELLS // (size * size))):
            w, _ = _coefficients(model.sigma, idx)
            with np.errstate(over="ignore"):
                values = scale * np.abs(1.0 + w)
            if not np.isfinite(values).all():
                row, col = np.argwhere(~np.isfinite(values))[0].tolist()
                i = int(idx[row, col])
                ks = tuple(int(k) for k in idx[row] if k != i)
                raise _overflow(model, i, ks, float(abs(1.0 + w[row, col])))
            bit = 1 << idx
            masks = bit.sum(axis=1, keepdims=True) - bit
            yield idx, n - size + 1, masks, values
    attacks = np.arange(n)[:, None]
    yield attacks, 1, ((1 << n) - 1) ^ (1 << attacks), np.full((n, 1), scale)


def max_leakage_gaussian(model: GaussianModel, force: bool = False) -> LeakageReport:
    """Exact supremum of leakage_gaussian over all adversaries (i, K).

    Enumerates all n * 2^(n-1) adversaries, one solve per prior set (see
    _adversary_values), into the graph searches' report summary; refuses
    above ENUM_CAP tuples unless force=True. Layers follow the graph
    convention: layer = n - |K|. argmax is the least maximal adversary.
    """
    n = model.n
    if n > ENUM_CAP and not force:
        raise SearchSpaceExceeded(
            f"n={n} would enumerate {n * 2 ** (n - 1)} adversaries (cap {ENUM_CAP})"
        )
    summary = _Summary()
    for batch in _adversary_values(model):
        summary(*batch)
    return summary.report("enumerate", {"n": n, "cap": ENUM_CAP})


def load_gaussian_model(data) -> GaussianModel:
    """Build a model from a dict or JSON string.

    Expected keys: "mu" (list), "sigma" (nested list), "M" (positive query
    coefficient bound), and "lambda" (noise scale; "lam" is accepted too).
    """
    if isinstance(data, (str, bytes)):
        data = json.loads(data)
    if not isinstance(data, Mapping):
        raise ValueError("gaussian model JSON must be an object")
    try:
        mu = data["mu"]
        sigma = data["sigma"]
        m_bound = data["M"]
    except KeyError as exc:
        raise ValueError(f"gaussian model JSON is missing key {exc}") from None
    lam = data.get("lambda", data.get("lam"))
    if lam is None:
        raise ValueError('gaussian model JSON is missing key "lambda"')
    return GaussianModel(mu=mu, sigma=sigma, M=float(m_bound), lam=float(lam))

