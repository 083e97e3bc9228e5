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

pdp_exact_discrete evaluates one adversary in one pass. Each feasible
(assignment of x_K, hypothesis x_i) pair gives one mixture row, read from a
slice of the table; the rows of one assignment share its kinks, the union of
their centers. Rows are grouped by shape (number of kinks, number of
centers), and each group takes one log-sum-exp over a (rows, kinks, centers)
stack for the values at the kinks and one per output ray, split at
_STACK_CELLS cells (a single row above that, along its kinks). Groups are
never padded to a common shape: zero-weight terms change how numpy's
pairwise summation groups the terms of a row longer than 8, and with it the
last bits of the sum, whereas an unpadded stack reduces each row exactly as
a call on that row alone would. The candidates
are then scanned in a fixed order (assignment, hypothesis x_i, hypothesis
x_i', then kink, r -> -inf, r -> +inf) with a strict >, so the witness is
the first candidate that reaches the supremum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from typing import Iterable, Sequence

import numpy as np

from .errors import ImpossibleCondition
from .model_discrete import (
    PROB_FLOOR,
    JointDistribution,
    QuerySpec,
    logsumexp,
    marginal,
    transform_linear_query,
)
from .model_gaussian import GaussianModel, Mu0Expansion, log_g, mu0_expand

_NEG_RAY = float("-inf")
_POS_RAY = float("inf")

# Most cells stacked into one log-sum-exp. Stacking saves calls on the many
# small mixtures of a node; the rows of a wide table hold thousands of cells
# each, and stacking all of them would multiply the node's memory. A single
# row above the budget is split along its kinks.
_STACK_CELLS = 1 << 14


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

    @property
    def witness(self) -> str | None:
        """Where the supremum sat: "kink", "ray", or None at zero leakage."""
        if self.leakage == 0.0:
            return None
        return "ray" if math.isinf(self.r_star) else "kink"


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


class _SumLaw:
    """Output law of adversary (i, K) as Laplace mixture centers and weights.

    Pr(r | x_i, x_K) mixes Laplace densities centered at x_i + sum(x_K) plus
    each achievable sum of the unknown tuples U, weighted by Pr(x_U | x_i,
    x_K). Those weights are one slice of the table; the sums of U over every
    cell of a slice are computed once per adversary.
    """

    def __init__(self, y: JointDistribution, i: int, ks: list[int]):
        self._y = y
        self._i = i
        self._ks = ks
        self.unknown = [u for u in range(y.n) if u != i and u not in ks]
        grids = np.meshgrid(*[np.asarray(y.domains[u]) for u in self.unknown], indexing="ij")
        self._sums = sum(grids).ravel() if self.unknown else None

    def mixture(
        self, a: int, k_pos: Sequence[int], base: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Centers and weights given x_i = dom(x_i)[a] and x_K at positions k_pos.

        base = x_i + sum(x_K) puts the centers on the true output axis;
        centers within 1e-12 merge. Raises ImpossibleCondition when
        Pr(x_i, x_K) is below 1e-12. With no unknown tuple the law is the
        noise alone, whatever the table holds.
        """
        if not self.unknown:
            return np.array([base]), np.array([1.0])
        cell: list[object] = [slice(None)] * self._y.n
        cell[self._i] = a
        for k, p in zip(self._ks, k_pos):
            cell[k] = p
        table = self._y.probs[tuple(cell)]
        mass = float(table.sum())
        if mass < PROB_FLOOR:
            raise ImpossibleCondition(f"Pr(x_{self._i}, x_K) = {mass!r} is (near) zero")
        w = (table / mass).ravel()
        pos = w > 0.0
        return _merge_centers(self._sums[pos] + base, w[pos])


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
    law = _SumLaw(y, i, ks)
    dom_i = y.domains[i]
    if law.unknown:
        # Pr(x_K) gates the assignments and Pr(x_i, x_K) the hypotheses: one
        # row per x_K cell in product order, one column per x_i value (the
        # x_i axis of the sorted marginal moves last)
        live = marginal(y, ks).probs.ravel() >= PROB_FLOOR if ks else [True]
        joint_ik = np.moveaxis(marginal(y, [i] + ks).probs, sum(k < i for k in ks), -1)
        feasible = joint_ik.reshape(-1, len(dom_i)) >= PROB_FLOOR
        axes = ks
    else:
        # pure-mechanism conditional: the value is assignment-independent
        live = [True]
        feasible = np.ones((1, len(dom_i)), dtype=bool)
        axes = []

    contexts = []  # (assignment, hypothesis values, kinks, first row)
    rows = []  # (kinks, centers, weights) per assignment and hypothesis
    kink_count = 0
    for c, k_pos in enumerate(product(*[range(len(y.domains[k])) for k in axes])):
        hyps = np.flatnonzero(feasible[c]).tolist() if live[c] else []
        if not hyps:
            continue
        assignment = {k: y.domains[k][p] for k, p in zip(axes, k_pos)}
        known = math.fsum(assignment.values())
        try:
            mixtures = [law.mixture(a, k_pos, dom_i[a] + known) for a in hyps]
        except ImpossibleCondition:
            continue
        kinks = np.unique(np.concatenate([centers for centers, _ in mixtures]))
        kink_count += kinks.size
        contexts.append((assignment, [dom_i[a] for a in hyps], kinks, len(rows)))
        rows += [(kinks, centers, weights) for centers, weights in mixtures]

    groups: dict[tuple[int, int], list[int]] = {}
    for r, (kinks, centers, _) in enumerate(rows):
        groups.setdefault((kinks.size, centers.size), []).append(r)
    log_at = [None] * len(rows)
    low = np.empty(len(rows))
    up = np.empty(len(rows))
    for (nk, nc), ids in groups.items():
        step = max(1, _STACK_CELLS // (nk * nc))
        # a row wider than the budget is reduced a slice of its kinks at a time
        k_step = max(1, _STACK_CELLS // nc)
        for s in range(0, len(ids), step):
            part = ids[s : s + step]
            kinks, centers, weights = (np.stack([rows[r][f] for r in part]) for f in range(3))
            at = np.concatenate([
                logsumexp(
                    -np.abs(kinks[:, k : k + k_step, None] - centers[:, None, :]) / lam,
                    axis=2,
                    b=weights[:, None, :],
                )
                for k in range(0, nk, k_step)
            ], axis=1)
            for r, row_at in zip(part, at):
                log_at[r] = row_at
            low[part] = logsumexp(-centers / lam, axis=1, b=weights)
            up[part] = logsumexp(centers / lam, axis=1, b=weights)

    best = OracleResult(0.0, None, None, 0.0)
    for assignment, hyp, kinks, first in contexts:
        for ai, a in enumerate(hyp):
            for bi, b in enumerate(hyp):
                if ai == bi:
                    continue
                ra, rb = first + ai, first + bi
                diff = log_at[ra] - log_at[rb]
                k_best = int(np.argmax(diff))
                cands = (
                    (float(diff[k_best]), float(kinks[k_best])),
                    (float(low[ra] - low[rb]), _NEG_RAY),
                    (float(up[ra] - up[rb]), _POS_RAY),
                )
                for v, r in cands:
                    if v > best.leakage:
                        best = OracleResult(v, a, b, r, dict(assignment))
    best.kinks_evaluated = kink_count
    return best


def pdp_numeric_gaussian(
    model: GaussianModel,
    i: int,
    K: Iterable[int],
    expansion: Mu0Expansion | None = None,
) -> float:
    """Grid supremum of the Gaussian-model log-ratio; numeric ground truth.

    The output density given (x_i, x_K) is, up to shared factors,
    G(t / lam; sigma0 / lam) with t the output centered at the conditional
    mean, and the two hypotheses differ by |1 + mu0i| * M in t. The grid
    spans +-(12 sigma0 + 4 sigma0^2/lam + 20 lam + |delta|): the
    log-slope of G saturates only past sigma0^2/lam, so the span must grow
    with that scale, not just with sigma0.

    A degenerate sigma0 (no unknown tuples, or perfectly determined ones)
    bypasses G: the output is pure Laplace and the value is |delta| / lam.

    `expansion` is mu0_expand(model, i, K) when the caller already has it;
    the grid itself never depends on the closed form.
    """
    exp = mu0_expand(model, i, K) if expansion is None else expansion
    sigma0 = math.sqrt(exp.sigma0_sq)
    delta = (1.0 + exp.coef_i) * model.M
    lam = model.lam
    if sigma0 <= 1e-12 * max(1.0, model.M):
        return abs(delta) / lam
    span = 12.0 * sigma0 + 4.0 * exp.sigma0_sq / lam + 20.0 * lam + abs(delta)
    r_grid = np.linspace(-span, span, 20001)
    b = sigma0 / lam
    vals = log_g(r_grid / lam, b) - log_g((r_grid - delta) / lam, b)
    return float(np.max(np.abs(vals)))

