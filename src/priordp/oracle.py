"""Brute-force, assumption-free leakage evaluation.

The leakage of adversary (i, K) is the supremum over hypothesis values
x_i, x_i' and outputs r of

    log Pr(r | x_i, x_K) - log Pr(r | x_i', x_K),

where Pr(r | x_i, x_K) marginalizes the unknown tuples: a mixture of Laplace
densities centered at the achievable query sums. On every interval between
adjacent centers each mixture equals A e^{-r/lam} + B e^{r/lam}, so the
log-ratio of two mixtures is a Moebius function of e^{2r/lam} there, hence
monotone per interval. The supremum over r is therefore attained at a center
("kink point") of either mixture or in one of the two r -> +-inf limits.
Past the largest kink of a context, the union of its rows' centers, every
mixture is a constant times e^{-r/lam}, so the log-ratio of two is constant
there and equals its value at that kink; the same holds below the smallest
kink. The kinks are thus the only candidates this module evaluates: no
output grid is involved for discrete data, and no ray.

All mixture arithmetic runs through log-sum-exp so that lam much smaller
than the domain width cannot underflow. Both oracles admit the noise scale
by model_discrete._noise_table, the rule the chain shares, before any work:
every query sum and kink offset is at most the bound S behind the table's
noise floor, so none overflows when divided by lam.

pdp_exact_all evaluates every adversary of a table in batches ordered by
(|K|, T), T = {i} u K. An adversary has at most one mixture term per table
cell, so each batch takes the next _STACK_CELLS // (table cells)
adversaries, whatever their layer |K|: a small table runs in one or two
batches, and a wide one keeps its memory near one adversary's.
pdp_exact_discrete is the same kernel on a batch of one. The output law
given (x_i, x_K) depends on the x_T cell alone, so each x_T slice of the
table gives one mixture row, shared by every adversary of T: its weights
are Pr(x_U | x_T), U the tuples outside T, its mass the sum of its row
gathered from the table, and each center the query sum of its table cell,
added tuple by tuple from 0.0, T's tuples in sorted order first, then U's.
Rows of one length are sorted together, one argsort along the row, and
then every row of a batch merges its centers in one pass (the 1e-12 rule,
one np.add.at in sorted order). An adversary reads the cells of T in
(context, hypothesis) order, by array arithmetic on the x_T cell index:
its context is the cell index with axis i removed and its hypothesis the
coordinate on axis i, and each feasible (adversary, assignment of x_K,
hypothesis x_i) triple names the row of its cell. An adversary who knows
every other tuple faces the noise alone and reads as adversary (i, {}) of
the one-tuple table {x_i}: one row of weight 1 per hypothesis, centered at
x_i. The rows of one assignment share its kinks, the union of their centers.
Rows are then grouped by shape (number of kinks, number of centers) across
the batch, and each group takes one log-sum-exp over a (rows, kinks,
centers) stack for the values at the kinks, split at _STACK_CELLS cells (a
single row above that, along its kinks). Groups are never padded to a
common shape: zero-weight terms change how numpy's pairwise summation
groups the terms of a row longer than 8, and with it the last bits of the
sum, whereas an unpadded stack reduces each row exactly as a call on that
row alone would. Each context gives one candidate, the first (hypothesis
x_i, hypothesis x_i' != x_i, kink) in that scan order where the pair's
log-ratio is largest, and an adversary's winner is the candidate of its
first context that reaches the supremum. No candidate is NaN: under
_noise_table every kink offset over lam is at most S/lam, which is finite,
and every weight is > 0, so every log mixture is finite. The witness says
"interior" when the winner beats its pair's tail, the larger of the pair's
values at the first and last kink, by more than _TAIL_MARGIN relative;
otherwise the supremum holds on a whole output ray and the witness says
"tail". The results are bit for bit those of one adversary, one hypothesis
at a time.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .model_discrete import (
    _SCRATCH,
    PROB_FLOOR,
    JointDistribution,
    QuerySpec,
    logsumexp,
    marginal,
    _noise_table,
)
from .model_gaussian import GaussianModel, Mu0Expansion, log_g, mu0_expand
from .report import _adversary

# A winning kink is "interior" when it beats its pair's tail by more than
# _TAIL_MARGIN * max(1, value). On the pinned corpus, the oracle tests and
# the criterion-5 survey, a tail that ties the kink up to rounding lies
# within 3.1e-12 of it in these units, and every other kink beats both
# tails by 4.7e-5 or more.
_TAIL_MARGIN = 1e-9

# Most cells stacked into one log-sum-exp or one scan, and most mixture terms
# in one batch of pdp_exact_all. Stacking saves calls on the many small
# mixtures of a table; the rows of a wide table hold thousands of cells each,
# and stacking all of them would multiply the memory. A single row above the
# budget is split along its kinks, and a single adversary is a batch.
_STACK_CELLS = 1 << 14

# The Gaussian grid has 2 * _HALF_GRID + 1 points, held in rows of _SCRATCH.
_HALF_GRID = 10000


@dataclass
class OracleResult:
    """Supremum found by the brute-force search plus its witness.

    r_star is the kink at which the supremum sits. witness is "interior"
    when r_star beats both ends of the pair's kinks by more than
    _TAIL_MARGIN relative; "tail" when it does not, and the supremum then
    holds on the whole output ray beyond the outermost kink; None at zero
    leakage. xi, xi_prime and the assignment values are in sum-query units
    (original values scaled by the query coefficients).
    """

    leakage: float
    xi: float | None
    xi_prime: float | None
    r_star: float
    assignment: dict[int, float] = field(default_factory=dict)
    kinks_evaluated: int = 0
    witness: str | None = None


def _all_adversaries(n: int) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Every adversary (i, K) over n tuples, K a sorted tuple: by attacked
    tuple i, then by the bitmask of K over the other tuples."""
    for i in range(n):
        others = [j for j in range(n) if j != i]
        for mask in range(1 << len(others)):
            yield i, tuple(o for p, o in enumerate(others) if (mask >> p) & 1)


class _Table:
    """A transformed table and what every batch reads from it per subset of
    tuples: which cells of a marginal reach PROB_FLOOR, computed once, on
    first use."""

    def __init__(self, y: JointDistribution):
        self.y = y
        self.doms = [np.asarray(d, dtype=float) for d in y.domains]
        self._live: dict[tuple[int, ...], np.ndarray] = {}

    def shape(self, axes: Sequence[int]) -> tuple[int, ...]:
        return tuple(len(self.y.domains[t]) for t in axes)

    def live(self, axes: tuple[int, ...]) -> np.ndarray:
        """Pr(x_axes) >= PROB_FLOOR per cell, in product order."""
        if axes not in self._live:
            self._live[axes] = marginal(self.y, axes).probs.ravel() >= PROB_FLOOR
        return self._live[axes]


def _starts(sizes: np.ndarray) -> np.ndarray:
    """Offsets of consecutive blocks of the given sizes, plus the total."""
    off = np.zeros(sizes.size + 1, dtype=np.intp)
    np.cumsum(sizes, out=off[1:])
    return off


def _merge_rows(
    values: np.ndarray, lengths: np.ndarray, tol: float, weights: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """Sort each row and merge every value within tol of the one before it.

    Rows of the given lengths lie back to back in values, and none is empty.
    Rows of one length are sorted together, one argsort along the row, so
    that tied values keep the order a row sorted alone gives them; the merge
    then runs over every row at once, restarting at each row's first value,
    and with weights one np.add.at adds each merged weight's terms in sorted
    order. With tol 0 this is np.unique of each row. Returns the merged
    values and weights (None without weights), row after row, and the
    offset of each row plus the total.
    """
    start = _starts(lengths)
    order = np.empty(start[-1], dtype=np.intp)
    for length in np.unique(lengths).tolist():
        src = start[np.flatnonzero(lengths == length), None] + np.arange(length)
        order[src] = np.take_along_axis(src, np.argsort(values[src], axis=1), axis=1)
    v = values[order]
    keep = np.empty(v.size, dtype=bool)
    np.greater(np.diff(v), tol, out=keep[1:])
    keep[start[:-1]] = True
    # merged values before each position, and the total
    rank = _starts(keep)
    out_w = None
    if weights is not None:
        out_w = np.zeros(rank[-1])
        np.add.at(out_w, rank[1:] - 1, weights[order])
    return v[keep], out_w, rank[start]


def _slices(
    tab: _Table, ts: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Mixture terms of every x_T slice of the table, T = ts.

    Returns (slot, weights, centers, lengths). slot gives each x_T cell, in
    product order, its row of lengths; -1 where Pr(x_T) is below
    PROB_FLOOR, a dead cell; -2 where Pr(x_T) reaches it but the slice
    itself sums below it, a void cell. weights and centers hold,
    slice after slice, Pr(x_U | x_T) and the query sum of each cell of the
    slice with positive weight, U the tuples outside T. A center is its
    cell's values added tuple by tuple from 0.0, T's in sorted order first,
    then U's. The rows are not merged.
    """
    y = tab.y
    shape = tab.shape(ts)
    cells = np.flatnonzero(tab.live(ts))
    unknown = tuple(u for u in range(y.n) if u not in ts)
    table = y.probs.transpose(ts + unknown).reshape(math.prod(shape), -1)
    rows = table[cells]
    # a gathered row is contiguous, and numpy sums it pairwise, as it sums
    # a contiguous copy of the slice taken alone; a sum over the U axes of
    # the whole table differs in the last bit on some cells
    mass = rows.sum(axis=1)
    ok = mass >= PROB_FLOOR
    slot = np.full(table.shape[0], -1)
    slot[cells] = -2
    slot[cells[ok]] = np.arange(int(ok.sum()))
    w = rows[ok] / mass[ok, None]
    pos = w > 0.0
    sums = functools.reduce(np.add.outer, [tab.doms[t] for t in ts + unknown], 0.0)
    return slot, w[pos], sums.reshape(table.shape)[cells[ok]][pos], pos.sum(axis=1)


def _rows(tab: _Table, adversaries: list[tuple[int, tuple[int, ...]]]) -> tuple[np.ndarray, ...]:
    """The mixture rows of a batch, one per (adversary, assignment of x_K,
    hypothesis x_i), in that order; an assignment is one context.

    A row is the slice of its x_T cell, T = {i} u K, so the adversaries of
    one T read the same rows: each slot row is built and merged once (the
    1e-12 rule, one pass over the batch), and a row names its slot; slot -1
    drops its hypothesis and -2 its assignment. The adversary who knows
    every other tuple is adversary (i, {}) of the table {x_i}, keyed by i.
    Returns (centers, weights, m_off, row_slot, hyp, ctx_cell, ctx_first,
    adv_ctx): the merged terms of slot s at m_off[s] : m_off[s + 1], each
    row's slot and x_i index, each context's x_K cell and first row, and
    each adversary's first context; the offsets end with the total.
    """
    y, n = tab.y, tab.y.n
    w_parts, c_parts, len_parts = [], [], []
    n_slots = 0
    # each T = {i} u K once: the slot of each x_T cell, from t_first[T] on
    # in the concatenation of t_slot
    t_first: dict[object, int] = {}
    t_slot = []
    t_size = 0
    # each adversary: its cells of T, hypotheses, cells per hypothesis step
    # along T, first x_T cell, and per x_K cell Pr(x_K) >= PROB_FLOOR
    size, d, inner, t_off, k_live = [], [], [], [], []
    one = np.ones(1, dtype=bool)
    for i, ks in adversaries:
        ts = key = tuple(sorted((i,) + ks))
        d_i = len(y.domains[i])
        if len(ts) == n:
            ts, ks, key = (i,), (), i
        if key not in t_first:
            if key == i:
                # adding 0.0 reads a -0.0 as 0.0, as a sum from 0.0 does
                slot, w, c, lengths = (np.arange(d_i), np.ones(d_i), tab.doms[i] + 0.0,
                                       np.ones(d_i, dtype=np.intp))
            else:
                slot, w, c, lengths = _slices(tab, ts)
            t_first[key] = t_size
            t_size += slot.size
            t_slot.append(np.where(slot < 0, slot, slot + n_slots))
            w_parts.append(w)
            c_parts.append(c)
            len_parts.append(lengths)
            n_slots += lengths.size
        shape = tab.shape(ts)
        size.append(math.prod(shape))
        d.append(d_i)
        inner.append(math.prod(shape[ts.index(i) + 1 :]))
        # Pr(x_K) gates the assignments
        k_live.append(tab.live(ks) if ks else one)
        t_off.append(t_first[key])

    # element q of adversary a is context q // d and hypothesis q % d, so
    # each adversary reads its x_T cells in the order (context, hypothesis):
    # the context is the cell index with axis i removed, and the hypothesis
    # coordinate i
    size, d, inner = np.array(size), np.array(d), np.array(inner)
    adv = np.repeat(np.arange(size.size), size)
    ctx, hyp = np.divmod(np.arange(adv.size) - _starts(size)[adv], d[adv])
    step = inner[adv]
    cell = ctx // step * (d[adv] * step) + hyp * step + ctx % step + np.array(t_off)[adv]
    k_first = _starts(size // d)
    ctx += k_first[adv]
    # Pr(x_i, x_K) gates the hypotheses
    slot = np.concatenate(t_slot)[cell]
    use = (slot != -1) & np.concatenate(k_live)[ctx]
    # a hypothesis whose slice sums below PROB_FLOOR voids the assignment
    void = np.zeros(k_first[-1], dtype=bool)
    void[ctx[use & (slot < 0)]] = True
    use &= ~void[ctx]
    kept = np.flatnonzero(use)
    ctx = ctx[kept]
    counts = np.bincount(ctx, minlength=k_first[-1])
    cells = np.flatnonzero(counts)
    owner = np.searchsorted(k_first, cells, side="right") - 1
    centers, weights, m_off = _merge_rows(
        np.concatenate(c_parts), np.concatenate(len_parts), 1e-12, np.concatenate(w_parts))
    return (centers, weights, m_off, slot[kept], hyp[kept], cells - k_first[owner],
            _starts(counts[cells]), _starts(np.bincount(owner, minlength=size.size)))


def _log_mixtures(
    lam: float, centers: np.ndarray, weights: np.ndarray, m_off: np.ndarray,
    row_slot: np.ndarray, kinks: np.ndarray, k_off: np.ndarray, ctx_first: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Log mixture of every row at each kink of its context: (log_at,
    at_off), row r's values at log_at[at_off[r] : at_off[r + 1]]. Row r
    reads its centers and weights through its slot, row_slot[r].

    Rows of one shape (kinks, centers) are stacked, _STACK_CELLS cells at a
    time; a single row above that is reduced a slice of its kinks at a
    time.
    """
    row_ctx = np.repeat(np.arange(ctx_first.size - 1), np.diff(ctx_first))
    row_nk = np.diff(k_off)[row_ctx]
    row_nc = np.diff(m_off)[row_slot]
    at_off = _starts(row_nk)
    log_at = np.empty(at_off[-1])
    shapes = row_nk * (row_nc.max(initial=0) + 1) + row_nc
    for key in np.unique(shapes).tolist():
        ids = np.flatnonzero(shapes == key)
        nk, nc = int(row_nk[ids[0]]), int(row_nc[ids[0]])
        step = max(1, _STACK_CELLS // (nk * nc))
        k_step = max(1, _STACK_CELLS // nc)
        for s in range(0, ids.size, step):
            part = ids[s : s + step]
            kk = kinks[k_off[row_ctx[part], None] + np.arange(nk)]
            terms = m_off[row_slot[part], None] + np.arange(nc)
            cc, ww = centers[terms], weights[terms]
            at = np.concatenate([
                logsumexp(
                    -np.abs(kk[:, k : k + k_step, None] - cc[:, None, :]) / lam,
                    axis=2,
                    b=ww[:, None, :],
                )
                for k in range(0, nk, k_step)
            ], axis=1)
            log_at[at_off[part, None] + np.arange(nk)] = at
    return log_at, at_off


def _candidates(
    log_at: np.ndarray, at_off: np.ndarray,
    kinks: np.ndarray, k_off: np.ndarray, ctx_first: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The candidate of every context: the first (hypothesis x_i, hypothesis
    x_i' != x_i, kink), in that scan order, where the pair's log-ratio is
    largest. Returns (values, pair, r, tails), one entry per context: the
    log-ratio, the rows of x_i and x_i' (pair[0] and pair[1]), the kink,
    and the tail, the larger of the pair's log-ratios at the context's
    first and last kink, which each hold on the output ray beyond that
    kink. A context of fewer than two rows has no pair and the value -inf.

    Contexts of one shape (rows, kinks) are stacked, _STACK_CELLS cells at
    a time, and each stack takes one argmax over its h x h x kinks
    log-ratios, the diagonal x_i = x_i' set to -inf.
    """
    ctx_h = np.diff(ctx_first)
    ctx_nk = np.diff(k_off)
    values = np.full(ctx_h.size, -np.inf)
    pair = np.zeros((2, ctx_h.size), dtype=np.intp)
    r_at, tails = np.zeros(ctx_h.size), np.zeros(ctx_h.size)
    shapes = ctx_h * (ctx_nk.max(initial=0) + 1) + ctx_nk
    for key in np.unique(shapes[ctx_h > 1]).tolist():
        ids = np.flatnonzero(shapes == key)
        h, nk = int(ctx_h[ids[0]]), int(ctx_nk[ids[0]])
        step = max(1, _STACK_CELLS // (h * h * nk))
        for s in range(0, ids.size, step):
            part = ids[s : s + step]
            rows = ctx_first[part, None] + np.arange(h)
            la = log_at[at_off[rows][:, :, None] + np.arange(nk)]
            diff = la[:, :, None, :] - la[:, None, :, :]
            diff[:, np.arange(h), np.arange(h)] = -np.inf
            a, b, k = np.unravel_index(np.argmax(diff.reshape(part.size, -1), axis=1), (h, h, nk))
            c = np.arange(part.size)
            values[part] = diff[c, a, b, k]
            pair[:, part] = rows[c, a], rows[c, b]
            r_at[part] = kinks[k_off[part] + k]
            tails[part] = np.maximum(diff[c, a, b, 0], diff[c, a, b, -1])
    return values, pair, r_at, tails


def _exact(tab: _Table, lam: float, adversaries: list[tuple[int, tuple[int, ...]]]) -> list[OracleResult]:
    """OracleResult of each adversary (i, K) of tab.y, K a sorted tuple: the
    candidate of its first context that reaches the supremum, or zero
    leakage when no candidate is above 0."""
    y = tab.y
    centers, weights, m_off, row_slot, hyp, ctx_cell, ctx_first, adv_ctx = _rows(tab, adversaries)
    # the kinks of a context are the union of its rows' centers, each row's
    # gathered through its slot
    lengths = np.diff(m_off)[row_slot]
    row_first = _starts(lengths)
    src = np.repeat(m_off[row_slot] - row_first[:-1], lengths) + np.arange(row_first[-1])
    kinks, _, k_off = _merge_rows(centers[src], np.diff(row_first[ctx_first]), 0.0)
    log_at, at_off = _log_mixtures(lam, centers, weights, m_off, row_slot, kinks, k_off, ctx_first)
    values, pair, r_at, tails = _candidates(log_at, at_off, kinks, k_off, ctx_first)
    kink_counts = np.diff(k_off[adv_ctx]).tolist()
    results = []
    for a, (i, ks) in enumerate(adversaries):
        best = OracleResult(0.0, None, None, 0.0, kinks_evaluated=kink_counts[a])
        lo, hi = adv_ctx[a], adv_ctx[a + 1]
        c = lo + int(np.argmax(values[lo:hi])) if hi > lo else lo
        if hi > lo and values[c] > best.leakage:
            if ks and len(ks) + 1 < y.n:
                k_pos = np.unravel_index(ctx_cell[c], tab.shape(ks))
                best.assignment = {k: y.domains[k][p] for k, p in zip(ks, k_pos)}
            best.leakage = float(values[c])
            best.xi = y.domains[i][hyp[pair[0, c]]]
            best.xi_prime = y.domains[i][hyp[pair[1, c]]]
            best.r_star = float(r_at[c])
            interior = best.leakage - tails[c] > _TAIL_MARGIN * max(1.0, best.leakage)
            best.witness = "interior" if interior else "tail"
        results.append(best)
    return results


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
    return _exact(_Table(_noise_table(dist, query, lam)), lam, [_adversary((i, K), dist.n)])[0]


def pdp_exact_all(
    dist: JointDistribution, query: QuerySpec, lam: float
) -> dict[tuple[int, tuple[int, ...]], OracleResult]:
    """pdp_exact_discrete of every adversary (i, K), keyed by (i, K) with K
    a sorted tuple: by attacked tuple i, then by the bitmask of K over the
    other tuples.

    The table is transformed once and each marginal taken once. The
    adversaries are ordered by (|K|, T), T = {i} u K, so that adversaries
    sharing their slices meet in one batch, and cut into batches of
    _STACK_CELLS // (table cells) adversaries, across layers: an adversary
    has at most one mixture term per table cell, which keeps a wide table's
    memory near one adversary's, while a small table runs whole.
    """
    tab = _Table(_noise_table(dist, query, lam))
    found = dict.fromkeys(_all_adversaries(tab.y.n))
    ordered = sorted(found, key=lambda a: (len(a[1]), sorted((a[0],) + a[1])))
    step = max(1, _STACK_CELLS // tab.y.probs.size)
    for s in range(0, len(ordered), step):
        batch = ordered[s : s + step]
        found.update(zip(batch, _exact(tab, lam, batch)))
    return found


@functools.cache
def _grid_steps() -> np.ndarray:
    """k = -_HALF_GRID .. _HALF_GRID as floats, shared read-only."""
    steps = np.arange(-_HALF_GRID, _HALF_GRID + 1, dtype=float)
    steps.setflags(write=False)
    return steps


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
    is r = k * span / 10000 for k = -10000 .. 10000, with span
    12 sigma0 + 4 sigma0^2/lam + 20 lam + |delta|: the log-slope of G
    saturates only past sigma0^2/lam, so the span must grow with that
    scale, not just with sigma0.

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
    b = sigma0 / lam
    steps = _grid_steps()
    x = _SCRATCH.row("x", steps.shape)
    lead = _SCRATCH.row("lead", steps.shape)
    shifted = _SCRATCH.row("shifted", steps.shape)
    # r = k * (span / _HALF_GRID) is odd in k bit for bit, and G is even, so
    # log_g(r / lam, b) is computed on k >= 0 and mirrored
    np.multiply(steps[_HALF_GRID:], span / _HALF_GRID, out=x[_HALF_GRID:])
    x[_HALF_GRID:] /= lam
    log_g(x[_HALF_GRID:], b, out=lead[_HALF_GRID:])
    lead[:_HALF_GRID] = lead[:_HALF_GRID:-1]
    np.multiply(steps, span / _HALF_GRID, out=x)
    x -= delta
    x /= lam
    log_g(x, b, out=shifted)
    lead -= shifted
    return float(np.abs(lead, out=lead).max())

