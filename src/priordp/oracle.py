"""Brute-force, assumption-free leakage evaluation.

The leakage of adversary (i, K) is the supremum over hypothesis values
x_i, x_i' and outputs r of

    log Pr(r | x_i, x_K) - log Pr(r | x_i', x_K),

where Pr(r | x_i, x_K) marginalizes the unknown tuples: a mixture of Laplace
densities centered at the achievable query sums. On every interval between
adjacent centers each mixture equals A e^{-r/lam} + B e^{r/lam}, so the
log-ratio of two mixtures is a Moebius function of e^{2r/lam} there, hence
monotone per interval. The supremum over r is therefore attained at a center
("kink point") of either mixture or in one of the two r -> +-inf limits, and
this module evaluates exactly those candidates; no output grid is involved
for discrete data.

All mixture arithmetic runs through log-sum-exp so that lam much smaller
than the domain width cannot underflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from typing import Iterable, Mapping

import numpy as np

from .errors import ImpossibleCondition
from .model_discrete import (
    PROB_FLOOR,
    JointDistribution,
    QuerySpec,
    conditional,
    logsumexp,
    marginal,
    transform_linear_query,
)
from .model_gaussian import GaussianModel, log_g, mu0_expand

_NEG_RAY = float("-inf")
_POS_RAY = float("inf")


@dataclass
class OracleResult:
    """Supremum found by the brute-force search plus its witness.

    r_star is a kink point, or +-inf when the supremum sits on an output
    ray. xi, xi_prime and the assignment values are in sum-query units
    (original values scaled by the query coefficients).
    """

    leakage: float
    xi: float | None
    xi_prime: float | None
    r_star: float
    assignment: dict[int, float] = field(default_factory=dict)
    kinks_evaluated: int = 0


def _merge_centers(centers: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Collapse duplicate mixture centers (within 1e-12) summing weights."""
    order = np.argsort(centers)
    c = centers[order]
    w = weights[order]
    keep = np.empty(c.size, dtype=bool)
    keep[0] = True
    np.greater(np.diff(c), 1e-12, out=keep[1:])
    idx = np.cumsum(keep) - 1
    out_c = c[keep]
    out_w = np.zeros(out_c.size)
    np.add.at(out_w, idx, w)
    return out_c, out_w


def _hypothesis_mixture(
    dist: JointDistribution,
    i: int,
    value: float,
    assignment: Mapping[int, float],
    unknown: list[int],
) -> tuple[np.ndarray, np.ndarray]:
    """Centers and weights of Pr(sum | x_i = value, x_K = assignment).

    Centers include the known contribution value + sum(assignment) so that
    reported kink points live on the true output axis.
    """
    base = value + math.fsum(assignment.values())
    if not unknown:
        return np.array([base]), np.array([1.0])
    cond = conditional(dist, unknown, {i: value, **assignment})
    grids = np.meshgrid(*[np.asarray(d) for d in cond.domains], indexing="ij")
    sums = sum(grids).ravel() + base
    w = cond.probs.ravel()
    pos = w > 0.0
    return _merge_centers(sums[pos], w[pos])


def _log_mixture_at(
    r: np.ndarray, centers: np.ndarray, weights: np.ndarray, lam: float
) -> np.ndarray:
    """log of sum_s w_s * exp(-|r - c_s|/lam) at each r (density up to 1/2lam)."""
    a = -np.abs(r[:, None] - centers[None, :]) / lam
    return logsumexp(a, axis=1, b=weights[None, :])


def pdp_exact_discrete(
    dist: JointDistribution,
    query: QuerySpec,
    lam: float,
    i: int,
    K: Iterable[int],
) -> OracleResult:
    """Exact leakage of adversary (i, K) for the Laplace-perturbed query.

    The supremum runs over all positive-probability assignments of x_K
    (assignments below probability 1e-12 are impossible conditioning
    contexts and are skipped), all hypothesis pairs feasible under each
    assignment, and all outputs. When the adversary knows every other tuple
    the output density needs no conditional distribution at all, so every
    in-domain hypothesis pair is feasible regardless of the probability
    table; the result is then assignment-independent and reported with an
    empty assignment.
    """
    if lam <= 0:
        raise ValueError("lambda must be positive")
    y = transform_linear_query(dist, query)
    i = int(i)
    ks = sorted(set(int(k) for k in K))
    if i in ks:
        raise ValueError("attacked tuple cannot be in the prior set")
    unknown = [u for u in range(y.n) if u != i and u not in ks]

    if not unknown:
        # pure-mechanism conditional: the value is assignment-independent
        assignments: list[dict[int, float]] = [{}]
        joint_ik = None
    else:
        if ks:
            k_marg = marginal(y, ks)
            assignments = [
                dict(zip(ks, combo))
                for combo, p in zip(product(*k_marg.domains), k_marg.probs.ravel())
                if float(p) >= PROB_FLOOR
            ]
        else:
            assignments = [{}]
        # Pr(x_i, x_K), axes sorted: gates which hypotheses are feasible
        joint_ik = marginal(y, [i] + ks)
        axes = sorted([i] + ks)

    best = OracleResult(0.0, None, None, 0.0)
    kink_count = 0
    for assignment in assignments:
        if joint_ik is None:
            feas = list(y.domains[i])
        else:
            feas = []
            for a in y.domains[i]:
                vals_by_axis = [a if t == i else assignment[t] for t in axes]
                idx = tuple(
                    joint_ik.value_index(pos, v) for pos, v in enumerate(vals_by_axis)
                )
                if float(joint_ik.probs[idx]) >= PROB_FLOOR:
                    feas.append(a)
        if not feas:
            continue
        mixtures: dict[float, tuple[np.ndarray, np.ndarray]] = {}
        try:
            for a in feas:
                mixtures[a] = _hypothesis_mixture(y, i, a, assignment, unknown)
        except ImpossibleCondition:
            continue
        kinks = np.unique(np.concatenate([c for c, _ in mixtures.values()]))
        kink_count += kinks.size
        hyp = list(mixtures)
        log_at = np.stack([_log_mixture_at(kinks, *mixtures[a], lam) for a in hyp])
        low = np.array([logsumexp(-mixtures[a][0] / lam, b=mixtures[a][1]) for a in hyp])
        up = np.array([logsumexp(mixtures[a][0] / lam, b=mixtures[a][1]) for a in hyp])
        for ai, a in enumerate(hyp):
            for bi, b in enumerate(hyp):
                if ai == bi:
                    continue
                diff = log_at[ai] - log_at[bi]
                k_best = int(np.argmax(diff))
                cands = (
                    (float(diff[k_best]), float(kinks[k_best])),
                    (float(low[ai] - low[bi]), _NEG_RAY),
                    (float(up[ai] - up[bi]), _POS_RAY),
                )
                for v, r in cands:
                    if v > best.leakage:
                        best = OracleResult(v, a, b, r, dict(assignment))
    best.kinks_evaluated = kink_count
    return best


def dp_exact(
    dist: JointDistribution,
    query: QuerySpec,
    lam: float,
    group: Iterable[int] | None = None,
) -> float:
    """Worst-case DP leakage sup |f(x) - f(x')| / lam by exhaustive search.

    group=None varies a single tuple (standard sensitivity); group=S varies
    all tuples of S jointly, which is the "treat correlated tuples as one"
    group bound. Coordinates outside the varying set cancel in a linear
    query, so enumerating the varying coordinates is the full search.
    """
    if lam <= 0:
        raise ValueError("lambda must be positive")
    y = transform_linear_query(dist, query)
    if group is None:
        best = 0.0
        for i in range(y.n):
            for v, w in product(y.domains[i], repeat=2):
                best = max(best, abs(v - w))
        return best / lam
    gs = sorted(set(int(g) for g in group))
    if not gs or gs[0] < 0 or gs[-1] >= y.n:
        raise ValueError(f"invalid group {gs} for n={y.n}")
    size = int(np.prod([len(y.domains[g]) for g in gs]))
    if size * size > 10_000_000:
        raise ValueError("group domain product too large for exhaustive search")
    best = 0.0
    for xs in product(*[y.domains[g] for g in gs]):
        for xs2 in product(*[y.domains[g] for g in gs]):
            best = max(best, abs(math.fsum(xs) - math.fsum(xs2)))
    return best / lam


def pdp_numeric_gaussian(
    model: GaussianModel,
    i: int,
    K: Iterable[int],
    r_grid: np.ndarray | None = None,
) -> float:
    """Grid supremum of the Gaussian-model log-ratio; numeric ground truth.

    The output density given (x_i, x_K) is, up to shared factors,
    G(t / lam; sigma0 / lam) with t the output centered at the conditional
    mean, and the two hypotheses differ by |1 + mu0i| * M in t. The default
    grid spans +-(12 sigma0 + 4 sigma0^2/lam + 20 lam + |delta|): the
    log-slope of G saturates only past sigma0^2/lam, so the span must grow
    with that scale, not just with sigma0.

    A degenerate sigma0 (no unknown tuples, or perfectly determined ones)
    bypasses G: the output is pure Laplace and the value is |delta| / lam.
    """
    exp = mu0_expand(model, i, K)
    sigma0 = math.sqrt(exp.sigma0_sq)
    delta = (1.0 + exp.coef_i) * model.M
    lam = model.lam
    if sigma0 <= 1e-12 * max(1.0, model.M):
        return abs(delta) / lam
    if r_grid is None:
        span = 12.0 * sigma0 + 4.0 * exp.sigma0_sq / lam + 20.0 * lam + abs(delta)
        r_grid = np.linspace(-span, span, 20001)
    b = sigma0 / lam
    vals = log_g(r_grid / lam, b) - log_g((r_grid - delta) / lam, b)
    return float(np.max(np.abs(vals)))


def bayesian_gain(
    dist: JointDistribution,
    query: QuerySpec,
    lam: float,
    i: int,
    xi_a: float,
    xi_b: float,
    k_assign: Mapping[int, float],
    r: float,
) -> float:
    """Adversary's information gain: posterior log-odds minus prior log-odds.

    gain = log [Pr(x_i=a | r, x_K) / Pr(x_i=b | r, x_K)]
         - log [Pr(x_i=a | x_K) / Pr(x_i=b | x_K)]

    computed through the explicit posterior (prior times output likelihood,
    normalized over every feasible hypothesis), which equals the output
    log-density ratio pointwise. Zero-probability events raise
    ImpossibleCondition.
    """
    if lam <= 0:
        raise ValueError("lambda must be positive")
    y = transform_linear_query(dist, query)
    ks = sorted(set(int(k) for k in k_assign))
    if i in ks:
        raise ValueError("attacked tuple cannot be in the prior set")
    # tuple values arrive in original units; the analysis runs on the
    # sum-query form, so map them through the query coefficients (r is an
    # output value and needs no mapping)
    coef = query.coefficients
    assignment = {int(k): coef[int(k)] * float(v) for k, v in k_assign.items()}
    xi_a = coef[i] * float(xi_a)
    xi_b = coef[i] * float(xi_b)
    unknown = [u for u in range(y.n) if u != i and u not in ks]
    prior = conditional(y, [i], assignment) if ks else marginal(y, [i])
    dom = y.domains[i]
    log_prior = {}
    for pos, a in enumerate(dom):
        p = float(prior.probs[pos])
        if p >= PROB_FLOOR:
            log_prior[a] = math.log(p)
    for v in (xi_a, xi_b):
        if dom[y.value_index(i, v)] not in log_prior:
            raise ImpossibleCondition(f"Pr(x_{i}={v}, x_K) is zero")
    xi_a = dom[y.value_index(i, xi_a)]
    xi_b = dom[y.value_index(i, xi_b)]
    log_lik = {}
    for a in log_prior:
        centers, weights = _hypothesis_mixture(y, i, a, assignment, unknown)
        log_lik[a] = float(_log_mixture_at(np.array([r]), centers, weights, lam)[0])
    joint = {a: log_prior[a] + log_lik[a] for a in log_prior}
    norm = logsumexp(np.array(list(joint.values())))
    post_a = joint[xi_a] - norm
    post_b = joint[xi_b] - norm
    return (post_a - post_b) - (log_prior[xi_a] - log_prior[xi_b])
