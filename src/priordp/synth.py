"""Synthetic inputs for scaling studies: hash-keyed edge maps, equicorrelated
covariance matrices, and discrete tables with a prescribed mean correlation.

Edge maps let the graph searches run at sizes where a real distribution is
unaffordable. Each edge value is a deterministic function of (attacked
tuple, removed tuple, child prior set), so the full and pruned searches see
byte-identical weights without materializing 2^n entries. An edge map's
scale plays the role of GS/lambda: it is the unit of the edge magnitudes
and the leakage of every strongest adversary, its first layer, so
search_synthetic(EdgeMap(..., scale=s), mode=mode) searches a whole chain.
"""

from __future__ import annotations

import math
import warnings
from itertools import combinations

import numpy as np

from .errors import InfeasibleCorrelation
from .model_discrete import JointDistribution, pearson_corr
from .whg import edge_indices

_MIX = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)

# EdgeMap.bounds grid: G = 2^_GRID_BITS cells, one per value of a hash's top bits
_GRID_BITS = 12
_GRID = 1 << _GRID_BITS


def splitmix64(x):
    """SplitMix64 finalizer on uint64 scalars or arrays (wrapping arithmetic)."""
    with np.errstate(over="ignore"):
        z = np.asarray(x, dtype=np.uint64) + _MIX
        z ^= z >> np.uint64(30)
        z *= _M1
        z ^= z >> np.uint64(27)
        z *= _M2
        z ^= z >> np.uint64(31)
    return z


class EdgeMap:
    """Deterministic synthetic edge weights with mean magnitude aver_corr.

    The edge for (i, child prior K, removed j) hashes the triple, maps the
    hash to a uniform variate, and applies the Beta(alpha, alpha(1-m)/m)
    quantile scaled by `scale`, where m = |aver_corr|; the Beta mean is
    exactly m for any alpha, so edge magnitudes average m * scale. The sign
    of aver_corr is the sign of every edge. m = 0 yields all-zero edges and
    m = 1 the constant sign * scale.

    alpha sets the edge spread (variance m^2 (1-m) / (alpha + m)). Pruned
    search overestimates the min-merged leakage by an amount that grows
    with that spread, so the default keeps the edges concentrated: at
    alpha=512 the pruned result lands within about 5% of the exhaustive
    one on 15-tuple graphs, versus over 100% for loose shapes like
    alpha=2. Pass a smaller alpha to stress pruning error deliberately.

    bounds() gives each edge an interval without a quantile. On first use
    the map evaluates the scaled quantile once on the grid u = k / G,
    k = 0..G, G = 2^_GRID_BITS, in the same expression order as values().
    An edge's variate u lies in its grid cell [k / G, (k + 1) / G], where k
    is the top _GRID_BITS bits of its hash, and its interval is the cell
    widened by one on each side, clamped at the ends. That holds because
    betaincinv is monotone in u and the product with sign * scale rounds
    monotonically; the widening leaves a margin of a whole cell (2.4e-4 in
    u) for betaincinv to be out of order before an interval could miss.
    """

    def __init__(
        self,
        n: int,
        aver_corr: float,
        seed: int = 0,
        scale: float = 1.0,
        alpha: float = 512.0,
    ):
        if n < 1:
            raise ValueError("n must be >= 1")
        if not -1.0 <= aver_corr <= 1.0:
            raise ValueError("aver_corr must lie in [-1, 1]")
        if not 0 < scale < math.inf:
            raise ValueError("scale must be positive and finite")
        if not 0 < alpha < math.inf:
            raise ValueError("alpha must be positive and finite")
        if n > 50:
            raise ValueError("edge keys support n <= 50")
        self.n = int(n)
        self.aver_corr = float(aver_corr)
        self.seed = int(seed)
        self.scale = float(scale)
        self.first = [self.scale] * self.n
        self.alpha = float(alpha)
        self._sign = math.copysign(1.0, aver_corr) if aver_corr else 0.0
        self._m = abs(aver_corr)
        self._base = splitmix64(np.uint64(self.seed & 0xFFFFFFFFFFFFFFFF))
        self._cells: tuple[np.ndarray, np.ndarray] | None = None

    def values(
        self, i: int | np.ndarray, child_masks: np.ndarray, j: int | np.ndarray
    ) -> np.ndarray:
        """Vectorized lookup; child_masks are bitmasks of the child's K, and
        i and j are each one tuple or an int64 array of them aligned with
        child_masks: the attacked and the removed tuple of each edge."""
        atts, masks, js = edge_indices(self.n, i, child_masks, j)
        if self._m in (0.0, 1.0):
            return np.full(masks.shape, self._sign * self.scale * self._m)
        h = self._hash(atts, masks, js)
        u = ((h >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
        return self._sign * self.scale * self._quantile(u)

    def bounds(
        self, i: int | np.ndarray, child_masks: np.ndarray, j: int | np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """(lo, hi), two new arrays with lo <= values(i, child_masks, j) <= hi
        element by element: the widened grid cell of each edge, or the exact
        value twice when m is 0 or 1."""
        atts, masks, js = edge_indices(self.n, i, child_masks, j)
        if self._m in (0.0, 1.0):
            value = np.full(masks.shape, self._sign * self.scale * self._m)
            return value, value.copy()
        if self._cells is None:
            grid = self._sign * self.scale * self._quantile(np.arange(_GRID + 1) / _GRID)
            k = np.arange(_GRID)
            below, above = np.maximum(k - 1, 0), np.minimum(k + 2, _GRID)
            if self._sign < 0:  # the grid descends
                below, above = above, below
            self._cells = grid[below], grid[above]
        lo, hi = self._cells
        cell = self._hash(atts, masks, js)
        cell >>= np.uint64(64 - _GRID_BITS)
        return lo[cell], hi[cell]

    def _hash(self, atts: np.ndarray, masks: np.ndarray, js: np.ndarray) -> np.ndarray:
        # atts, masks and js are non-negative int64, so their uint64 views
        # are the same numbers
        key = masks.view(np.uint64) << np.uint64(12)
        key |= atts.view(np.uint64) << np.uint64(6)
        key |= js.view(np.uint64)
        key ^= self._base
        return splitmix64(key)

    def _quantile(self, u: np.ndarray) -> np.ndarray:
        # imported on first use, so commands without synthetic edges never
        # load scipy.special
        from scipy.special import betaincinv

        return betaincinv(self.alpha, self.alpha * (1.0 - self._m) / self._m, u)


def gen_covariance(n: int, aver_coeff: float) -> np.ndarray:
    """Equicorrelated covariance: unit off-diagonals, diagonal 1/|aver_coeff|.

    Every pair then has correlation exactly aver_coeff. aver_coeff = 0 gives
    the identity matrix. Negative values are only feasible (positive
    semidefinite) for |aver_coeff| <= 1/(n-1); beyond that the requested
    matrix is not a covariance and InfeasibleCorrelation reports the range.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not -1.0 <= aver_coeff <= 1.0:
        raise ValueError("aver_coeff must lie in [-1, 1]")
    if aver_coeff == 0.0 or n == 1:
        return np.eye(n)
    if aver_coeff < 0 and abs(aver_coeff) > 1.0 / (n - 1) + 1e-12:
        raise InfeasibleCorrelation(
            f"negative equicorrelation needs |aver_coeff| <= 1/(n-1) = "
            f"{1.0 / (n - 1):.6g} for n={n}, got {aver_coeff}"
        )
    sigma = np.full((n, n), math.copysign(1.0, aver_coeff))
    np.fill_diagonal(sigma, 1.0 / abs(aver_coeff))
    return sigma


def _orientations(n: int, negative: bool) -> np.ndarray:
    if not negative:
        return np.ones(n)
    # alternate signs; a balanced split minimizes the mean pairwise product
    return np.asarray([1.0 if t % 2 == 0 else -1.0 for t in range(n)])


def _mixture_table(n: int, s: int, w: float, orient: np.ndarray) -> np.ndarray:
    probs = np.full((s,) * n, (1.0 - w) / s**n)
    idx = np.arange(s)
    for v in range(s):
        cell = tuple(idx[v] if o > 0 else idx[s - 1 - v] for o in orient)
        probs[cell] += w / s
    return probs


def mean_pairwise_corr(dist: JointDistribution) -> float:
    """Average Pearson correlation over all tuple pairs."""
    pairs = list(combinations(range(dist.n), 2))
    if not pairs:
        raise ValueError("need at least two tuples")
    return float(np.mean([pearson_corr(dist, i, j) for i, j in pairs]))


def gen_discrete_corr(
    n: int, target_corr: float, domain_size: int, seed: int | None = None
) -> JointDistribution:
    """Joint table over domains {0..domain_size-1}^n with mean pairwise
    Pearson correlation steered to target_corr.

    The core is a mixture (1-w) * uniform + w * comonotone-diagonal, whose
    pairwise correlation is exactly w (marginals stay uniform under both
    components). Negative targets use the antitone diagonal for n = 2; for
    n >= 3 signs alternate across tuples, which caps the reachable mean at
    about -1/3, so far-negative targets are best-effort and raise a warning
    when the miss exceeds 0.1. A seed adds a small positive jitter table
    (skipped at |target| = 1 to preserve the exact degenerate table) and the
    mixture weight is re-tuned against the measured correlation.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if domain_size < 2:
        raise ValueError("domain_size must be >= 2")
    if not -1.0 <= target_corr <= 1.0:
        raise ValueError("target_corr must lie in [-1, 1]")
    domains = [np.arange(domain_size, dtype=float) for _ in range(n)]
    orient = _orientations(n, target_corr < 0)
    pair_mean = float(
        np.mean([orient[i] * orient[j] for i, j in combinations(range(n), 2)])
    )
    jitter = None
    if seed is not None and abs(target_corr) < 1.0:
        rng = np.random.default_rng(seed)
        jitter = rng.uniform(0.5, 1.5, (domain_size,) * n)
        jitter /= jitter.sum()

    def build(w: float) -> JointDistribution:
        probs = _mixture_table(n, domain_size, w, orient)
        if jitter is not None:
            eps = 0.02 * (1.0 - w)
            probs = (1.0 - eps) * probs + eps * jitter
        return JointDistribution(domains, probs)

    # without jitter the mean correlation is exactly w * pair_mean
    w = min(1.0, abs(target_corr) / abs(pair_mean)) if pair_mean else 0.0
    dist = build(w)
    if jitter is not None:
        lo, hi = 0.0, 1.0
        for _ in range(500):
            got = mean_pairwise_corr(dist)
            if abs(got - target_corr) <= 1e-9:
                break
            if (got - target_corr) * math.copysign(1.0, pair_mean) > 0:
                hi = w
            else:
                lo = w
            w = 0.5 * (lo + hi)
            dist = build(w)
    achieved = mean_pairwise_corr(dist)
    if abs(achieved - target_corr) > 0.1:
        warnings.warn(
            f"mean pairwise correlation {achieved:.3f} misses target "
            f"{target_corr:.3f}; the sign pattern caps the reachable range",
            stacklevel=2,
        )
    return dist
