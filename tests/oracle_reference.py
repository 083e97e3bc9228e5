"""The per-hypothesis brute-force oracle, kept as test-side reference code.

The package evaluates each adversary in one batched pass: table slices
instead of conditional tables, one mixture row per x_T cell shared by every
adversary of T = {i} u K, and one log-sum-exp per mixture shape. This
module is the earlier, direct formulation: one conditional table, one
mixture and one log-sum-exp per (assignment, hypothesis), and feasibility
read cell by cell. Both take a center as the query sum of its table cell,
added tuple by tuple from 0.0, T's tuples in sorted order first, then the
unknown ones. It scans per hypothesis pair, the best kink of each,
where the package scans per context, one argmax over every pair and kink;
both take the first maximum in the order (assignment, x_i, x_i', kink), so
both must name the same witness. It labels the witness by the same rule.
Tests require the package to match it in every OracleResult field, bit for
bit; nothing in the package imports it. It also holds `bayesian_gain`, the
adversary's posterior log-odds gain, which tests check against the output
log-density ratio.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable, Mapping

import numpy as np

from priordp import (
    JointDistribution,
    OracleResult,
    QuerySpec,
    marginal,
    transform_linear_query,
)
from priordp.model_discrete import PROB_FLOOR, logsumexp
from priordp.oracle import _TAIL_MARGIN

from chain_reference import ImpossibleCondition, conditional_at, value_index


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
    hyp: int,
    cells: Mapping[int, int],
    unknown: list[int],
) -> tuple[np.ndarray, np.ndarray]:
    """Centers and weights of Pr(sum | x_i, x_K), with x_i the value at index
    hyp of its domain and each x_k the value at index cells[k] of its own.
    A center is the query sum of its cell, added tuple by tuple from 0.0:
    T = {i} u K in sorted order first, then the unknown tuples."""
    known = {i: hyp, **cells}
    base = 0.0
    for t in sorted(known):
        base += dist.domains[t][known[t]]
    if not unknown:
        return np.array([base]), np.array([1.0])
    cond = conditional_at(dist, unknown, known)
    grids = np.meshgrid(*[np.asarray(d) for d in cond.domains], indexing="ij")
    sums = functools.reduce(np.add, grids, base).ravel()
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
    """Exact leakage of adversary (i, K), one hypothesis at a time.

    Hypotheses and assignments are domain indices, not values: a zero
    query coefficient gives its tuple a domain of repeated zeros."""
    if lam <= 0:
        raise ValueError("lambda must be positive")
    y = transform_linear_query(dist, query)
    i = int(i)
    ks = sorted(set(int(k) for k in K))
    if i in ks:
        raise ValueError("attacked tuple cannot be in the prior set")
    unknown = [u for u in range(y.n) if u != i and u not in ks]

    dom = y.domains[i]
    if not unknown:
        assignments: list[dict[int, int]] = [{}]
        joint_ik = None
    else:
        if ks:
            k_marg = marginal(y, ks)
            assignments = [
                dict(zip(ks, cell))
                for cell in np.ndindex(k_marg.probs.shape)
                if float(k_marg.probs[cell]) >= PROB_FLOOR
            ]
        else:
            assignments = [{}]
        joint_ik = marginal(y, [i] + ks)
        axes = sorted([i] + ks)

    best = OracleResult(0.0, None, None, 0.0)
    kink_count = 0
    for cells in assignments:
        if joint_ik is None:
            feas = list(range(len(dom)))
        else:
            feas = [
                a for a in range(len(dom))
                if float(joint_ik.probs[tuple(a if t == i else cells[t] for t in axes)])
                >= PROB_FLOOR
            ]
        if not feas:
            continue
        mixtures: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        try:
            for a in feas:
                mixtures[a] = _hypothesis_mixture(y, i, a, cells, unknown)
        except ImpossibleCondition:
            continue
        assignment = {k: y.domains[k][p] for k, p in cells.items()}
        kinks = np.unique(np.concatenate([c for c, _ in mixtures.values()]))
        kink_count += kinks.size
        hyp = list(mixtures)
        log_at = np.stack([_log_mixture_at(kinks, *mixtures[a], lam) for a in hyp])
        for ai, a in enumerate(hyp):
            for bi, b in enumerate(hyp):
                if ai == bi:
                    continue
                diff = log_at[ai] - log_at[bi]
                k_best = int(np.argmax(diff))
                v = float(diff[k_best])
                if v > best.leakage:
                    # the log-ratio is constant on each output ray beyond
                    # the outermost kinks
                    tail = max(float(diff[0]), float(diff[-1]))
                    interior = v - tail > _TAIL_MARGIN * max(1.0, v)
                    best = OracleResult(v, dom[a], dom[b], float(kinks[k_best]), dict(assignment),
                                        witness="interior" if interior else "tail")
    best.kinks_evaluated = kink_count
    return best


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
    """Posterior log-odds minus prior log-odds, likelihoods built per hypothesis."""
    if lam <= 0:
        raise ValueError("lambda must be positive")
    y = transform_linear_query(dist, query)
    ks = sorted(set(int(k) for k in k_assign))
    if i in ks:
        raise ValueError("attacked tuple cannot be in the prior set")
    coef = query.coefficients
    assignment = {int(k): coef[int(k)] * float(v) for k, v in k_assign.items()}
    xi_a = coef[i] * float(xi_a)
    xi_b = coef[i] * float(xi_b)
    unknown = [u for u in range(y.n) if u != i and u not in ks]
    cells = {k: value_index(y, k, v) for k, v in assignment.items()}
    prior = conditional_at(y, [i], cells) if ks else marginal(y, [i])
    log_prior = {}
    for pos in range(len(y.domains[i])):
        p = float(prior.probs[pos])
        if p >= PROB_FLOOR:
            log_prior[pos] = math.log(p)
    for v in (xi_a, xi_b):
        if value_index(y, i, v) not in log_prior:
            raise ImpossibleCondition(f"Pr(x_{i}={v}, x_K) is zero")
    xi_a = value_index(y, i, xi_a)
    xi_b = value_index(y, i, xi_b)
    log_lik = {}
    for a in log_prior:
        centers, weights = _hypothesis_mixture(y, i, a, cells, unknown)
        log_lik[a] = float(_log_mixture_at(np.array([r]), centers, weights, lam)[0])
    joint = {a: log_prior[a] + log_lik[a] for a in log_prior}
    norm = logsumexp(np.array(list(joint.values())))
    post_a = joint[xi_a] - norm
    post_b = joint[xi_b] - norm
    return (post_a - post_b) - (log_prior[xi_a] - log_prior[xi_b])
