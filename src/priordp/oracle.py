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
than the domain width cannot underflow. Both oracles admit the noise scale
by model_discrete._noise_table, the rule the chain shares, before any work:
every query sum and kink offset is at most the bound S behind the table's
noise floor, so none overflows when divided by lam.

pdp_exact_all evaluates every adversary of a table in batches ordered by
(|K|, T), T = {i} u K. An adversary has at most one mixture term per table
cell, so each batch takes the next _STACK_CELLS // (table cells)
adversaries, whatever their layer |K|: a small table runs in one or two
batches, and a wide one keeps its memory near one adversary's.
pdp_exact_discrete is the same kernel on a batch of one. Adversaries with
the same T share their x_T slices: each slice is read once, for every i in
T, and its mass is the sum of its row gathered from the table. The rows of
a batch are laid out by array arithmetic on the x_T cell index: an
adversary reads the cells of T in (context, hypothesis) order, its context
the cell index with axis i removed and its hypothesis the coordinate on
axis i. Each feasible (adversary, assignment of x_K, hypothesis x_i) triple
gives one mixture row; rows of one length merge their centers together
(argsort along the row, the 1e-12 rule, one np.add.at in sorted order), and
the rows of one assignment share its kinks, the union of their centers.
Rows are then grouped by shape (number of kinks, number of centers) across
the batch, and each group takes one log-sum-exp over a (rows, kinks,
centers) stack for the values at the kinks and one per output ray, split at
_STACK_CELLS cells (a single row above that, along its kinks). Groups are
never padded to a common shape: zero-weight terms change how numpy's
pairwise summation groups the terms of a row longer than 8, and with it the
last bits of the sum, whereas an unpadded stack reduces each row exactly as
a call on that row alone would. The candidates keep a fixed scan order
(assignment, hypothesis x_i, hypothesis x_i', then kink, r -> -inf,
r -> +inf), and the witness is the first candidate that reaches the
supremum; a NaN candidate never wins. The results are bit for bit those of
one adversary, one hypothesis at a time, on every table whose x_T slices
hold at most 8192 cells (see _slices).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from itertools import product
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

_NEG_RAY = float("-inf")
_POS_RAY = float("inf")

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


def _all_adversaries(n: int) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Every adversary (i, K) over n tuples, K a sorted tuple: by attacked
    tuple i, then by the bitmask of K over the other tuples."""
    for i in range(n):
        others = [j for j in range(n) if j != i]
        for mask in range(1 << len(others)):
            yield i, tuple(o for p, o in enumerate(others) if (mask >> p) & 1)


class _Table:
    """A transformed table and what every batch reads from it per subset of
    tuples: which cells of a marginal reach PROB_FLOOR, and the fsum of each
    x_K assignment. Each is computed once, on first use."""

    def __init__(self, y: JointDistribution):
        self.y = y
        self.doms = [np.asarray(d, dtype=float) for d in y.domains]
        self._live: dict[tuple[int, ...], np.ndarray] = {}
        self._known: dict[tuple[int, ...], np.ndarray] = {}

    def shape(self, axes: Sequence[int]) -> tuple[int, ...]:
        return tuple(len(self.y.domains[t]) for t in axes)

    def live(self, axes: tuple[int, ...]) -> np.ndarray:
        """Pr(x_axes) >= PROB_FLOOR per cell, in product order."""
        if axes not in self._live:
            self._live[axes] = marginal(self.y, axes).probs.ravel() >= PROB_FLOOR
        return self._live[axes]

    def known(self, ks: tuple[int, ...]) -> np.ndarray:
        """math.fsum of the values of each x_K assignment, in product order."""
        if ks not in self._known:
            self._known[ks] = np.array(
                [math.fsum(c) for c in product(*[self.y.domains[k] for k in ks])]
            )
        return self._known[ks]


def _starts(sizes: np.ndarray) -> np.ndarray:
    """Offsets of consecutive blocks of the given sizes, plus the total."""
    off = np.zeros(sizes.size + 1, dtype=np.intp)
    np.cumsum(sizes, out=off[1:])
    return off


def _merge_rows(
    values: np.ndarray, lengths: np.ndarray, tol: float, weights: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """Sort each row and merge every value within tol of the one before it.

    Rows of the given lengths lie back to back in values. Rows of one length
    are merged together: one argsort along the row and, with weights, one
    np.add.at in sorted order, so each merged weight adds its terms in the
    order a row merged alone would. With tol 0 this is np.unique of each
    row. Returns the merged values and weights (None without weights), row
    after row, and the offset of each row plus the total.
    """
    start = _starts(lengths)
    parts = []
    kept = np.empty(lengths.size, dtype=np.intp)
    for length in np.unique(lengths).tolist():
        rows = np.flatnonzero(lengths == length)
        src = start[rows, None] + np.arange(length)
        src = np.take_along_axis(src, np.argsort(values[src], axis=1), axis=1)
        v = values[src]
        keep = np.empty(v.shape, dtype=bool)
        keep[:, 0] = True
        np.greater(np.diff(v, axis=1), tol, out=keep[:, 1:])
        rank = np.cumsum(keep, axis=1) - 1
        kept[rows] = rank[:, -1] + 1
        parts.append((rows, src, v, keep, rank))
    off = _starts(kept)
    out = np.empty(off[-1])
    out_w = None if weights is None else np.zeros(off[-1])
    for rows, src, v, keep, rank in parts:
        dest = off[rows, None] + rank
        out[dest[keep]] = v[keep]
        if out_w is not None:
            np.add.at(out_w, dest.ravel(), weights[src].ravel())
    return out, out_w, off


def _slices(
    tab: _Table, ts: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Mixture terms of every x_T slice of the table, T = ts.

    Returns (slot, weights, sums, lengths). slot gives each x_T cell, in
    product order, its row of lengths, or -1 where Pr(x_T) is below
    PROB_FLOOR or the slice itself sums below it. weights and sums hold,
    slice after slice, Pr(x_U | x_T) and the sum of x_U over the cells of
    the slice with positive weight, U the tuples outside T.
    """
    y = tab.y
    shape = tab.shape(ts)
    cells = np.flatnonzero(tab.live(ts))
    unknown = tuple(u for u in range(y.n) if u not in ts)
    table = y.probs.transpose(ts + unknown).reshape(math.prod(shape), -1)
    rows = table[cells]
    # a gathered row is contiguous, and numpy sums it pairwise; so does it
    # sum a slice taken alone as a view of the table, bit for bit, up to
    # numpy's 8192-element buffer, past which a strided view is summed one
    # buffer at a time. Only a sum over the U axes of the whole table
    # differs on smaller slices, in the last bit on some cells
    mass = rows.sum(axis=1)
    ok = mass >= PROB_FLOOR
    slot = np.full(table.shape[0], -1)
    slot[cells[ok]] = np.arange(int(ok.sum()))
    w = rows[ok] / mass[ok, None]
    pos = w > 0.0
    # x_U sums in product order, added axis by axis from 0.0
    sums = functools.reduce(np.add.outer, [tab.doms[u] for u in unknown], 0.0).ravel()
    return slot, w[pos], sums[np.nonzero(pos)[1]], pos.sum(axis=1)


def _rows(tab: _Table, adversaries: list[tuple[int, tuple[int, ...]]]) -> tuple[np.ndarray, ...]:
    """The mixture rows of a batch, one per (adversary, assignment of x_K,
    hypothesis x_i), in that order; an assignment is one context.

    Returns (centers, weights, m_off, hyp, ctx_cell, ctx_first, adv_ctx):
    the merged terms of row r at m_off[r] : m_off[r + 1], its x_i index,
    each context's x_K cell and first row, and each adversary's first
    context; the offsets end with the total.
    """
    y, n = tab.y, tab.y.n
    # slot 0 is the law of an adversary who knows every other tuple: the
    # noise alone, one center at its base (adding -0.0 keeps every bit)
    w_parts, s_parts, len_parts = [np.ones(1)], [np.full(1, -0.0)], [np.ones(1, dtype=np.intp)]
    n_slots = 1
    # each T = {i} u K once: Pr(x_T) >= PROB_FLOOR and the slot of each x_T
    # cell, from t_first[T] on in the concatenation of t_live and t_slot
    t_first: dict[object, int] = {}
    t_live, t_slot = [], []
    t_size = 0
    # each adversary: its cells of T, hypotheses, cells per hypothesis step
    # along T, first x_T cell, and per x_K cell Pr(x_K) >= PROB_FLOOR and the
    # fsum of the assignment
    size, d, inner, t_off, k_live, known = [], [], [], [], [], []
    one, zero = np.ones(1, dtype=bool), np.zeros(1)
    for i, ks in adversaries:
        ts = tuple(sorted((i,) + ks))
        d_i = len(y.domains[i])
        if len(ts) == n:
            # assignment-independent: one context with an empty assignment,
            # every hypothesis on slot 0
            key: object = d_i
            if key not in t_first:
                t_first[key] = t_size
                t_size += d_i
                t_live.append(np.ones(d_i, dtype=bool))
                t_slot.append(np.zeros(d_i, dtype=np.intp))
            size.append(d_i)
            inner.append(1)
            k_live.append(one)
            known.append(zero)
        else:
            key = ts
            if key not in t_first:
                slot, w, s, lengths = _slices(tab, ts)
                t_first[key] = t_size
                t_size += slot.size
                t_live.append(tab.live(ts))
                t_slot.append(np.where(slot < 0, -1, slot + n_slots))
                w_parts.append(w)
                s_parts.append(s)
                len_parts.append(lengths)
                n_slots += lengths.size
            shape = tab.shape(ts)
            size.append(math.prod(shape))
            inner.append(math.prod(shape[ts.index(i) + 1 :]))
            # Pr(x_K) gates the assignments
            k_live.append(tab.live(ks) if ks else one)
            known.append(tab.known(ks))
        d.append(d_i)
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
    use = np.concatenate(t_live)[cell] & np.concatenate(k_live)[ctx]
    slot = np.concatenate(t_slot)[cell]
    # a hypothesis whose slice sums below PROB_FLOOR voids the assignment
    void = np.zeros(k_first[-1], dtype=bool)
    void[ctx[use & (slot < 0)]] = True
    use &= ~void[ctx]
    kept = np.flatnonzero(use)
    adv, ctx, hyp = adv[kept], ctx[kept], hyp[kept]
    row_base = (np.concatenate([tab.doms[i] for i, _ in adversaries])[_starts(d)[adv] + hyp]
                + np.concatenate(known)[ctx])
    counts = np.bincount(ctx, minlength=k_first[-1])
    cells = np.flatnonzero(counts)
    owner = np.searchsorted(k_first, cells, side="right") - 1

    # gather each row's terms from its slice, centers at sum(x_U) + base
    slot_len = np.concatenate(len_parts)
    row_slot = slot[kept]
    lengths = slot_len[row_slot]
    src = np.repeat(_starts(slot_len)[row_slot] - _starts(lengths)[:-1], lengths)
    src += np.arange(src.size)
    raw = np.concatenate(s_parts)[src]
    raw += np.repeat(row_base, lengths)
    centers, weights, m_off = _merge_rows(raw, lengths, 1e-12, np.concatenate(w_parts)[src])
    return (centers, weights, m_off, hyp, cells - k_first[owner], _starts(counts[cells]),
            _starts(np.bincount(owner, minlength=size.size)))


def _log_mixtures(
    lam: float, centers: np.ndarray, weights: np.ndarray, m_off: np.ndarray,
    kinks: np.ndarray, k_off: np.ndarray, ctx_first: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Log mixture of every row at each kink of its context and on both
    output rays: (log_at, at_off, low, up), row r's kink values at
    log_at[at_off[r] : at_off[r + 1]].

    Rows of one shape (kinks, centers) are stacked, _STACK_CELLS cells at a
    time; a single row above that is reduced a slice of its kinks at a
    time.
    """
    row_ctx = np.repeat(np.arange(ctx_first.size - 1), np.diff(ctx_first))
    row_nk = np.diff(k_off)[row_ctx]
    row_nc = np.diff(m_off)
    at_off = _starts(row_nk)
    log_at = np.empty(at_off[-1])
    low = np.empty(row_nc.size)
    up = np.empty(row_nc.size)
    shapes = row_nk * (row_nc.max(initial=0) + 1) + row_nc
    for key in np.unique(shapes).tolist():
        ids = np.flatnonzero(shapes == key)
        nk, nc = int(row_nk[ids[0]]), int(row_nc[ids[0]])
        step = max(1, _STACK_CELLS // (nk * nc))
        k_step = max(1, _STACK_CELLS // nc)
        for s in range(0, ids.size, step):
            part = ids[s : s + step]
            kk = kinks[k_off[row_ctx[part], None] + np.arange(nk)]
            cc = centers[m_off[part, None] + np.arange(nc)]
            ww = weights[m_off[part, None] + np.arange(nc)]
            at = np.concatenate([
                logsumexp(
                    -np.abs(kk[:, k : k + k_step, None] - cc[:, None, :]) / lam,
                    axis=2,
                    b=ww[:, None, :],
                )
                for k in range(0, nk, k_step)
            ], axis=1)
            log_at[at_off[part, None] + np.arange(nk)] = at
            low[part] = logsumexp(-cc / lam, axis=1, b=ww)
            up[part] = logsumexp(cc / lam, axis=1, b=ww)
    return log_at, at_off, low, up


def _candidates(
    log_at: np.ndarray, at_off: np.ndarray, low: np.ndarray, up: np.ndarray,
    kinks: np.ndarray, k_off: np.ndarray, ctx_first: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every candidate value and its output r, in scan order: context,
    hypothesis x_i, hypothesis x_i' != x_i, then the best kink, r -> -inf
    and r -> +inf. Returns (values, r, cand_off): a context of h rows has
    3 h (h - 1) candidates, from cand_off of it.

    The best kink of a pair is the first argmax of its log-ratio over the
    kinks, so a NaN there makes the kink candidate NaN. Contexts of one
    shape (rows, kinks) are stacked, _STACK_CELLS cells at a time.
    """
    ctx_h = np.diff(ctx_first)
    ctx_nk = np.diff(k_off)
    cand_off = _starts(3 * ctx_h * (ctx_h - 1))
    values = np.empty(cand_off[-1])
    r_at = np.empty(cand_off[-1])
    shapes = ctx_h * (ctx_nk.max(initial=0) + 1) + ctx_nk
    for key in np.unique(shapes[ctx_h > 1]).tolist():
        ids = np.flatnonzero(shapes == key)
        h, nk = int(ctx_h[ids[0]]), int(ctx_nk[ids[0]])
        pairs = ~np.eye(h, dtype=bool)
        block = np.arange(3 * h * (h - 1))
        step = max(1, _STACK_CELLS // (h * h * nk))
        for s in range(0, ids.size, step):
            part = ids[s : s + step]
            rows = ctx_first[part, None] + np.arange(h)
            la = log_at[at_off[rows][:, :, None] + np.arange(nk)]
            diff = la[:, :, None, :] - la[:, None, :, :]
            k_best = np.argmax(diff, axis=3)[..., None]
            r_kink = kinks[k_off[part, None, None] + k_best[..., 0]]
            v = np.stack([
                np.take_along_axis(diff, k_best, axis=3)[..., 0],
                low[rows][:, :, None] - low[rows][:, None, :],
                up[rows][:, :, None] - up[rows][:, None, :],
            ], axis=3)
            r = np.stack([
                r_kink, np.full(r_kink.shape, _NEG_RAY), np.full(r_kink.shape, _POS_RAY)
            ], axis=3)
            dest = cand_off[part, None] + block
            values[dest] = v[:, pairs].reshape(part.size, -1)
            r_at[dest] = r[:, pairs].reshape(part.size, -1)
    return values, r_at, cand_off


def _exact(tab: _Table, lam: float, adversaries: list[tuple[int, tuple[int, ...]]]) -> list[OracleResult]:
    """OracleResult of each adversary (i, K) of tab.y, K a sorted tuple."""
    y = tab.y
    centers, weights, m_off, hyp, ctx_cell, ctx_first, adv_ctx = _rows(tab, adversaries)
    # the kinks of a context are the union of its rows' centers
    kinks, _, k_off = _merge_rows(centers, np.diff(m_off[ctx_first]), 0.0)
    log_at, at_off, low, up = _log_mixtures(lam, centers, weights, m_off, kinks, k_off, ctx_first)
    values, r_at, cand_off = _candidates(log_at, at_off, low, up, kinks, k_off, ctx_first)
    # the first candidate that reaches the supremum is the witness; a NaN
    # candidate never wins
    ranked = np.where(np.isnan(values), -np.inf, values)
    kink_counts = np.diff(k_off[adv_ctx]).tolist()
    results = []
    for a, (i, ks) in enumerate(adversaries):
        best = OracleResult(0.0, None, None, 0.0, kinks_evaluated=kink_counts[a])
        lo, hi = cand_off[adv_ctx[a]], cand_off[adv_ctx[a + 1]]
        j = lo + int(np.argmax(ranked[lo:hi])) if hi > lo else lo
        if hi > lo and values[j] > best.leakage:
            c = int(np.searchsorted(cand_off, j, side="right")) - 1
            pair = (j - cand_off[c]) // 3
            ai, bi = divmod(pair, int(ctx_first[c + 1] - ctx_first[c]) - 1)
            bi += bi >= ai
            if ks and len(ks) + 1 < y.n:
                k_pos = np.unravel_index(ctx_cell[c], tab.shape(ks))
                best.assignment = {k: y.domains[k][p] for k, p in zip(ks, k_pos)}
            best.leakage = float(values[j])
            best.xi = y.domains[i][hyp[ctx_first[c] + ai]]
            best.xi_prime = y.domains[i][hyp[ctx_first[c] + bi]]
            best.r_star = float(r_at[j])
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
    adversaries = list(_all_adversaries(tab.y.n))
    ordered = sorted(adversaries, key=lambda a: (len(a[1]), sorted((a[0],) + a[1])))
    step = max(1, _STACK_CELLS // tab.y.probs.size)
    found = {}
    for s in range(0, len(ordered), step):
        batch = ordered[s : s + step]
        found.update(zip(batch, _exact(tab, lam, batch)))
    return {a: found[a] for a in adversaries}


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

