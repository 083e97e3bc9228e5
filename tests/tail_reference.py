"""The tail leakage of every adversary, from tilted marginals: a second route
to the oracle's values on its two output rays, kept as test-side reference
code.

As r -> -inf the output density given (x_i = a, x_K) tends to a constant
times e^{r/lam} sum_{x_U} Pr(x_U | a, x_K) e^{-(a + sum x_K + sum x_U)/lam},
U the unknown tuples, and as r -> +inf to e^{-r/lam} times the same sum
with the sign of every exponent flipped. The known sum cancels in the
log-ratio of two hypotheses a and b, which there reads

    log M^s(a, x_K) - log M(a, x_K) + s a/lam  -  the same at b,

s = -1 for r -> -inf and +1 for r -> +inf, with M(x_T) = Pr(x_T) and
M^s(x_T) = sum_{x_U} Pr(x_T, x_U) e^{s sum x_U / lam}, T = {i} u K. The
tail leakage of (i, K) is the largest of these over the assignments x_K
with Pr(x_K) >= PROB_FLOOR, the pairs a != b with Pr(a, x_K) >= PROB_FLOOR
and both signs; an adversary who knows every other tuple has every pair in
its domain. It is at most the exact leakage, and equal to it where the
oracle's witness is "tail". Nothing here builds a mixture, a kink or a
merged center, so it checks the oracle's kink scan and its witness label
from outside.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from priordp import JointDistribution, QuerySpec, transform_linear_query
from priordp.model_discrete import PROB_FLOOR


def _tail(y: JointDistribution, lam: float, i: int, ks: tuple[int, ...]) -> float:
    """The tail leakage of adversary (i, ks) on the transformed table y."""
    dom = np.asarray(y.domains[i], dtype=float)
    unknown = [u for u in range(y.n) if u != i and u not in ks]
    if not unknown:
        return float(dom.max() - dom.min()) / lam
    # Pr(x_i, x_K, x_U) as (hypothesis, assignment, unknown cell)
    probs = y.probs.transpose([i, *ks, *unknown]).reshape(
        dom.size, -1, math.prod(len(y.domains[u]) for u in unknown))
    grids = np.meshgrid(*[np.asarray(y.domains[u], dtype=float) for u in unknown], indexing="ij")
    u_sum = sum(grids).ravel()
    mass = probs.sum(axis=2)
    feasible = (mass >= PROB_FLOOR) & (mass.sum(axis=0) >= PROB_FLOOR)
    best = 0.0
    for s in (-1.0, 1.0):
        # log M^s, the largest exponent factored out; a cell of zero mass
        # reads log 0 - log 0, NaN, and is not feasible
        e = s * u_sum / lam
        with np.errstate(divide="ignore", invalid="ignore"):
            log_tilted = np.log((probs * np.exp(e - e.max())).sum(axis=2)) + e.max()
            v = log_tilted - np.log(mass) + s * dom[:, None] / lam
        for c in np.flatnonzero(feasible.sum(axis=0) >= 2):
            vc = v[feasible[:, c], c]
            best = max(best, float(vc.max() - vc.min()))
    return best


def tail_all(
    dist: JointDistribution, query: QuerySpec, lam: float
) -> dict[tuple[int, tuple[int, ...]], float]:
    """The tail leakage of every adversary (i, K), K a sorted tuple."""
    y = transform_linear_query(dist, query)
    out = {}
    for i in range(y.n):
        others = [j for j in range(y.n) if j != i]
        for size in range(len(others) + 1):
            for ks in itertools.combinations(others, size):
                out[i, ks] = _tail(y, lam, i, ks)
    return out
