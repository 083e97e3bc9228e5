"""Weighted hierarchical graph of adversaries and the leakage chain rule.

Every adversary (i, K) — attack tuple i, prior knowledge of the tuples in
K — is a node; layer k holds the adversaries with |K| = n - k, so layer 1
is the strongest (knows all others) and layer n the weakest (knows none).
An edge connects a child (i, K) to its ancestor (i, K \\ {j}): the ancestor
no longer knows tuple j and pays a correlation-driven increment

    IC = log [ sum_xj Pr(xj | x_i = a, x_K') e^{-xj/lam}
             / sum_xj Pr(xj | x_i = b, x_K') e^{-xj/lam} ]

for some hypothesis pair (a, b). The ancestor leakage is |l_child + IC*|
where IC* maximizes that absolute value over the candidate set.

Candidate set: for each feasible hypothesis pair the e^{-xj/lam}-weighted
increment above (the r -> -inf output ray) and the negated e^{+xj/lam}
variant (the r -> +inf ray). For swap-symmetric tables the two coincide;
for asymmetric tables both orientations are needed to recover the exact
value on two-tuple unit-width instances. Reports record this as
metadata["edge_candidates"] = "two_sided".

The increments sample the output-density ratio only on its two tails, but
the true supremum over outputs can sit at an interior kink (an output equal
to an attainable query sum), which no ray sees. On unit-width binary
domains the ray values attain the supremum and the chain matches or bounds
the exact leakage; on instances mixing unequal domain widths the exact
supremum can exceed the chain value at any noise scale. The chain is the
scalable surrogate, the brute-force oracle the ground truth, and the gap
between them is a measured quantity, not an assumed sign.

Node leakage quantifies over prior-knowledge *values*: the max over all
positive-probability assignments of x_K' enters the candidate set.

All searches run on one bitmask kernel fed by an edge source, which
describes a whole chain: an object with attributes `n` and `first`, the
values of the n strongest adversaries (i, all other tuples) by i (LS_i/lam
for a table, the scale for an EdgeMap), and a method `values(i, masks, j)`,
where `masks` is an int64 array of child prior sets K (bit t set when t is
in K), i the attacked tuple and j the removed tuple of each edge: each one
int for all of them, or an int64 array aligned with `masks`. Every i and
j must lie in [0, n), each j differ from its i and belong to its child's
K, and no K holds its i; both edge sources check this with edge_indices,
which raises ValueError otherwise. It returns either one increment per
child (synthetic edges) or a (cmin, cmax) pair of arrays, the extremes of
each child's candidate set (a table). |l + c| is convex in c, so the
kernel takes cmax when |l + cmax| >= |l + cmin| and cmin otherwise;
a NaN pair marks an edge with no feasible candidate, which leaves its
parent untouched. An attacked tuple with one value has no hypothesis pair,
so its edges take the candidate 0 and its nodes read 0, its exact leakage.

The kernel computes each layer once for every attacked tuple. Its values()
calls take the (i, mask, j) triples of every attacked tuple i and removed
tuple j != i of the layer, split into chunks of at most _EXPAND_CHUNK
expanded masks so that memory stays flat on wide layers; a chunk ends
where an attacked tuple's masks end, unless they fill more than one chunk.
Its on_layer and on_edges hooks get aligned arrays of attacked tuples:
(atts, layer, masks, values) and (atts, js, masks, increments).

An edge source may also have bounds(i, masks, j) -> (lo, hi), two new
arrays that hold values() element by element at a fraction of its cost
(EdgeMap has it; a table's source does not). Then the kernel bounds
|l + x| over x in [lo, hi] by [lb, ub] for every edge of a chunk, caps each
parent at the least of its current value and its edges' ub, and passes to
values() only the edges with lb <= cap. The pruning is exact: a dropped
edge's value is at least its lb, above the cap, and the cap is either the
parent's value or the ub of a kept edge whose value is at most the cap.
Float addition, negation and scaling round monotonically, so the bounds
hold for the rounded values too, and the min over the kept edges is the
min over all of them bit for bit. The edges kept depend on how a layer is
cut into chunks, and each attacked tuple's masks are cut as they would be
if it were searched alone, so the kept edges are those of a search one
attacked tuple at a time. An on_edges hook asks for every edge, so a kernel
given one evaluates them all.

Both searches feed the kernel's on_layer calls to report._Summary, which
builds every evaluator's report. A table search also returns its graph:
the arrays of its on_layer and on_edges calls, joined into one array each.

A table's edge source computes the candidates of whole prior sets
T = {i} u K, every (i, j) pair of T at once, stacking the sets of one size
|T| into one log-sum-exp over x_j per table shape. It keeps them in one flat
array indexed by the mask of T, so each values() call is one numpy gather.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable

import numpy as np

from .errors import SearchSpaceExceeded
from .model_discrete import (
    _SCRATCH,
    PROB_FLOOR,
    JointDistribution,
    QuerySpec,
    local_sensitivity,
    logsumexp,
    marginal,
    transform_linear_query,
)
from .report import LeakageReport, _Summary

_LOG_FLOOR = math.log(PROB_FLOOR)

# Most marginal cells stacked into one log-sum-exp. Stacking saves numpy
# calls on the many small prior sets; the bound keeps the stack's memory
# flat where a batch of sets or a single marginal is large.
_STACK_CELLS = 1 << 15

# fewest values numpy sums pairwise rather than one by one
_PAIRWISE = 8

# Most expanded masks per edge-source call of the kernel. A call covers
# every removed tuple of its masks, so it holds up to n - 1 (mask, j) pairs
# per mask; the bound keeps that and the edge source's temporaries flat
# where a layer is wide. A chunk takes the masks of several attacked tuples,
# so an n=14 full search makes 79 calls of 9,400 edges on average, and two
# threads running searches hand the GIL to each other only between those
# long numpy calls. The bound also fixes which edges the bound pass keeps
# (see _kernel), so changing it changes the edge counts, not the results.
_EXPAND_CHUNK = 2048

# most tuples a full table search takes without force=True
FULL_CAP = 15

_NODE = np.dtype([("attack", "i8"), ("mask", "i8"), ("value", "f8")])
_EDGE = np.dtype([("attack", "i8"), ("j", "i8"), ("mask", "i8"), ("ic", "f8")])


@dataclass(frozen=True, eq=False)
class WeightedHierGraph:
    """A table search's graph as two structured arrays, rows in kernel order:
    nodes by layer, then attacked tuple, then mask.

    nodes has one row (attack, mask, value) per computed node, with bit t of
    mask set when t is in K. edges has one row (attack, j, mask, ic) per edge
    taken: the child (attack, mask) forgets tuple j at increment ic.
    """

    n: int
    nodes: np.ndarray
    edges: np.ndarray

    def node_value(self, node: tuple[int, Iterable[int]]) -> float:
        """The value of adversary (i, K), K in any order; KeyError when the
        search did not compute that node."""
        i, prior = node
        mask = sum(1 << t for t in set(prior))
        if mask >> i & 1:
            raise ValueError(f"attacked tuple {i} cannot be in the prior set")
        rows = self.nodes[(self.nodes["attack"] == i) & (self.nodes["mask"] == mask)]
        if rows.size == 0:
            raise KeyError(node)
        return float(rows["value"][0])


class _TableEdges:
    """Edge source over a sum-query table: (cmin, cmax) per child.

    The candidates of every edge inside a prior set T = {i} u K depend only
    on the marginal over T, so they are computed once per T, for every
    (i, j) in T. The unit of work is a slice: one set T with one removed
    tuple x_j. Slices of one size class |T| and one table shape are stacked
    up to _STACK_CELLS cells, and each stack takes one log-sum-exp over x_j
    (log m, lo and up together) and one _segment_extremes. The log of each
    marginal is written straight into the stack with x_j leading, so a large
    set, whose slices fill stacks alone, pays no copy beyond that. A wide
    x_j (_PAIRWISE values or more), whose sum depends on memory layout, is
    summed in place along its own axis, one slice at a time.

    On a miss, values() computes exactly the sets the call lacks, one batch
    per size class, so each set is computed once and only if some edge asks
    for it: a full search computes every set, a fast one skips those that
    only pruned nodes would ask for. The (cmin, cmax) pairs of a set are
    |T| x |T| x 2 floats indexed by the ranks of i and j in T, kept in one
    flat array that grows as sets are added; _off maps a set mask to its
    first entry (-1 until computed), so values() is one gather. Marginals
    are not kept.
    """

    def __init__(self, y: JointDistribution, lam: float):
        n = self.n = y.n
        # a strongest adversary's leakage is LS_i(f) / lam: with all other
        # tuples known the output density is the bare Laplace kernel
        sum_query = QuerySpec.sum_query(n)
        self.first = [local_sensitivity(y, sum_query, i) / lam for i in range(n)]
        if not all(map(math.isfinite, self.first)):
            # an infinite node is never expanded, so its ancestors would
            # drop out of the search
            raise ValueError(f"lambda {lam!r} is too small: LS_i / lambda overflows")
        # the candidates divide each domain value by lambda, which overflows
        # first when the values lie far from 0 against their width
        if not math.isfinite(max(abs(v) for d in y.domains for v in d) / lam):
            raise ValueError(f"lambda {lam!r} is too small: a domain value / lambda overflows")
        self._y = y
        self._lam = lam
        self._off = np.full(1 << n, -1, dtype=np.int64)
        self._flat = np.empty(0)
        self._end = 0

    def values(
        self, i: int | np.ndarray, child_masks: np.ndarray, j: int | np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        atts, masks, js = edge_indices(self.n, i, child_masks, j)
        t = masks | (1 << atts)
        off = self._off[t]
        if (off < 0).any():
            # one set T appears once per removed tuple j of its child
            self._fill(np.unique(t[off < 0]))
            off = self._off[t]
        # entry (rank of i in T, rank of j in T) of T's |T| x |T| x 2 block
        k = np.bitwise_count(t).astype(np.int64)
        pos = off + 2 * (np.bitwise_count(t & ((1 << atts) - 1)) * k
                         + np.bitwise_count(t & ((1 << js) - 1)))
        return self._flat[pos], self._flat[pos + 1]

    def _fill(self, missing: np.ndarray) -> None:
        size = np.bitwise_count(missing)
        for k in np.unique(size).tolist():
            self._compute(missing[size == k], k)

    def _compute(self, sets: np.ndarray, k: int) -> None:
        width = 2 * k * k
        end = self._end + sets.size * width
        if end > self._flat.size:
            grown = np.empty(max(end, 2 * self._flat.size))
            grown[: self._end] = self._flat[: self._end]
            self._flat = grown
        self._off[sets] = self._end + width * np.arange(sets.size)
        self._end = end
        probs, axes = [], []
        groups: dict[tuple[int, ...], list[tuple[int, int]]] = {}
        for row, t in enumerate(sets.tolist()):
            ax = [a for a in range(self.n) if (t >> a) & 1]
            p = marginal(self._y, ax).probs
            probs.append(p)
            axes.append(ax)
            for pj in range(k):
                shape = p.shape[:pj] + p.shape[pj + 1:] + p.shape[pj : pj + 1]
                groups.setdefault(shape, []).append((row, pj))
        for shape, slices in groups.items():
            # numpy sums a contiguous last axis pairwise from _PAIRWISE values
            # up and any other axis value by value, so the order of a wide
            # x_j sum depends on memory layout: wide slices are summed in
            # place, one at a time; narrower ones sum alike in any layout
            step = max(1, _STACK_CELLS // math.prod(shape)) if shape[-1] < _PAIRWISE else 1
            for c in range(0, len(slices), step):
                chunk = slices[c : c + step]
                ext = self._reduce(shape, chunk, probs, axes)
                rows, pjs = np.asarray(chunk).T
                # segment a of a slice is the a-th tuple of T other than x_j
                pi = np.arange(k - 1) + (np.arange(k - 1) >= pjs[:, None])
                pos = self._off[sets[rows]][:, None] + 2 * (pi * k + pjs[:, None])
                self._flat[pos] = ext[0]
                self._flat[pos + 1] = ext[1]

    def _reduce(
        self,
        shape: tuple[int, ...],
        chunk: list[tuple[int, int]],
        probs: list[np.ndarray],
        axes: list[list[int]],
    ) -> np.ndarray:
        """[cmin, cmax] per slice of the chunk and tuple of T other than x_j,
        for slices whose x_j-last marginal has this shape."""
        dims, s = shape[:-1], shape[-1]
        g = len(chunk)
        w = np.stack([self._y.domains[axes[row][pj]] for row, pj in chunk], axis=-1) / self._lam
        with np.errstate(divide="ignore"):
            if s < _PAIRWISE:
                # the log lands in a buffer with x_j leading, where each sum
                # over x_j is one vector op along long runs; numpy reduces a
                # short innermost axis many times slower
                lt = _SCRATCH.row("stack", (3, s, g) + dims)
                views = [probs[row].transpose(_lead(pj, len(shape))) for row, pj in chunk]
                np.log(np.stack(views, axis=1, out=lt[0]), out=lt[0])
                w = w.reshape((s, g) + (1,) * len(dims))
                axis = 1
            else:
                (row, pj), = chunk
                lt = _SCRATCH.row("stack", (3,) + probs[row].shape)
                np.log(probs[row], out=lt[0])
                w = w.reshape((s,) + (1,) * (len(dims) - pj))
                axis = pj + 1
        np.subtract(lt[0], w, out=lt[1])
        np.add(lt[0], w, out=lt[2])
        # log m and log sum_xj Pr(x_T) e^{-+ xj/lam} over the axes T \ {j};
        # the joint mass m cancels the conditional normalization
        lse = logsumexp(lt, axis=axis).reshape((3, g) + dims)
        feasible = lse[0] >= _LOG_FLOOR
        with np.errstate(invalid="ignore"):
            # zero-mass rows yield -inf - -inf = nan; 'feasible' masks them out
            lo_up = lse[1:] - lse[0]
        if not feasible.all():
            lo_up[:, ~feasible] = np.nan
        return _segment_extremes(lo_up)


def edge_indices(
    n: int, i: int | np.ndarray, child_masks: np.ndarray, j: int | np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The attacked tuple(s), child masks and removed tuple(s) of an
    edge-source call as int64 arrays, checked element by element: every i
    and j lies in [0, n), j != i, each j belongs to its child's K, and no K
    holds its i."""
    atts = np.asarray(i, dtype=np.int64)
    masks = np.asarray(child_masks, dtype=np.int64)
    js = np.asarray(j, dtype=np.int64)
    if ((atts < 0) | (atts >= n) | (js < 0) | (js >= n) | (js == atts)).any():
        raise ValueError("tuple indices out of range")
    bit = 1 << js
    if ((masks & (bit | (1 << atts))) != bit).any():
        raise ValueError("edge indices invalid: j must belong to K, and i must not")
    return atts, masks, js


def _lead(pj: int, k: int) -> tuple[int, ...]:
    """Axis order that moves axis pj of a k-axis array to the front."""
    return (pj,) + tuple(range(pj)) + tuple(range(pj + 1, k))


def _segment_extremes(lo_up: np.ndarray) -> np.ndarray:
    """[cmin, cmax] per slice and axis of dims, from a (2, slices, *dims)
    array of lo and up values: the extremes of lo[m] - lo[n] and
    -(up[m] - up[n]) over every hypothesis pair m < n along that axis. NaN
    cells (infeasible) drop out. A one-value axis gets 0, since it has no
    two hypotheses to tell apart, and any other axis with no pair of
    feasible cells gets NaN.

    The extremes are kept per kind (lo, up) and merged last by np.minimum
    and np.maximum, which return their second operand on equal values: a
    zero extreme of both kinds reads -0.0, the sign of the up kind's zeros,
    whatever the stack.
    """
    g, dims = lo_up.shape[1], lo_up.shape[2:]
    ext = np.full((2, 2, g, len(dims)), np.nan)  # (min, max) x (lo, up)
    ext[..., np.equal(dims, 1)] = 0.0
    for a, s in enumerate(dims):
        at = (slice(None),) * (a + 2)
        for m, nn in combinations(range(s), 2):
            d = lo_up[at + (m,)] - lo_up[at + (nn,)]
            np.negative(d[1], out=d[1])
            d = d.reshape(2, g, -1)
            np.fmin(ext[0, :, :, a], np.fmin.reduce(d, axis=2), out=ext[0, :, :, a])
            np.fmax(ext[1, :, :, a], np.fmax.reduce(d, axis=2), out=ext[1, :, :, a])
    return np.stack([np.minimum(*ext[0]), np.maximum(*ext[1])])


def _kernel(
    edges,
    fast: bool,
    on_layer: Callable[[np.ndarray, int, np.ndarray, np.ndarray], None],
    on_edges: Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], None] | None = None,
) -> None:
    """Layered min-merge search over child-K bitmasks, every attacked tuple
    of a layer in one pass.

    Node (i, K) sits at row i and column c, where c is K with bit i squeezed
    out, ranked among the (n-1)-bit masks of its size: every row holds its
    layer's nodes in the same columns, and a column order is a mask order.
    Only the children's layer and the parents' layer are kept, each as a
    flat array of n rows of C(n-1, |K|) columns, with inf for a node not
    reached.

    Each layer makes one edge-source call per chunk of expanded masks (see
    _chunks), covering every removed tuple j != i of each: the (attacked
    tuple, child mask, j) triples of the chunk go to values(atts, masks, js)
    as aligned int64 arrays, and one np.minimum.at merges them all into
    their parents. A min over the same multiset does not depend on order, so
    the values equal those of one call per (i, j) bit for bit. When the
    source has bounds() and no on_edges hook is given, only the edges of a
    chunk that can still set their parent's minimum reach values() (see the
    module notes and _may_lower), with one bound per parent for the chunk.
    Rows have disjoint parents, so the edges kept depend only on how each
    row is cut, and a row is cut as if it were searched alone.

    Calls on_layer(atts, layer, masks, values) once per layer, its nodes in
    (attack, mask) order, and on_edges(atts, js, child masks, increments)
    for every batch of edges taken, always after the on_layer call of the
    children's layer. In fast mode each layer keeps, per attacked tuple, the
    min(n, count) largest nodes for expansion, ties broken by
    (-value, child mask).
    """
    n = edges.n
    size = np.bitwise_count(np.arange(1 << (n - 1), dtype=np.int64))
    cols_pc = [np.flatnonzero(size == k) for k in range(n)]
    rank = np.empty(size.size, dtype=np.int64)
    for cols in cols_pc:
        rank[cols] = np.arange(cols.size)
    bits = 1 << np.arange(n - 1, dtype=np.int64)[:, None]
    bounds = getattr(edges, "bounds", None) if on_edges is None else None

    tuples = np.arange(n, dtype=np.int64)
    # a layer as one flat array: node (i, column rank r) at i * width + r
    child_layer = np.asarray(edges.first, dtype=float)
    on_layer(tuples, 1, ((1 << n) - 1) ^ (1 << tuples), child_layer)
    expand, count = tuples, np.ones(n, dtype=np.int64)
    for layer in range(2, n + 1):
        cols, pcols = cols_pc[n + 1 - layer], cols_pc[n - layer]
        parent_layer = np.full(n * pcols.size, np.inf)
        for lo, hi in _chunks(count):
            a, r = np.divmod(expand[lo:hi], cols.size)
            c, child = cols[r], child_layer[expand[lo:hi]]
            # the chunk's parents lie in rows a[0] to a[-1]
            parents = parent_layer[a[0] * pcols.size : (a[-1] + 1) * pcols.size]
            k, to = _unsqueeze(c, a), (a - a[0]) * pcols.size
            # numpy finds the nonzeros of a bool array twice as fast
            b, e = np.nonzero((c & bits) != 0)
            a, c, k, child, to = a[e], c[e], k[e], child[e], to[e]
            # in place from here on: a chunk holds thousands of edges on
            # each thread that runs a search
            c ^= 1 << b
            to += rank[c]
            b += b >= a
            js = b
            del b, c, e
            if bounds is not None:
                keep = _may_lower(bounds(a, k, js), child, to, parents)
                a, k, js, child, to = a[keep], k[keep], js[keep], child[keep], to[keep]
            out = edges.values(a, k, js)
            if isinstance(out, tuple):
                cmin, cmax = out
                ok = ~np.isnan(cmin)
                a, k, js, child, to = a[ok], k[ok], js[ok], child[ok], to[ok]
                cmin, cmax = cmin[ok], cmax[ok]
                ic = np.where(np.abs(child + cmax) >= np.abs(child + cmin), cmax, cmin)
            else:
                ic = np.asarray(out, dtype=float)
            np.minimum.at(parents, to, np.abs(child + ic))
            if on_edges is not None:
                on_edges(a, js, k, ic)
        child_layer = parent_layer
        expand = np.flatnonzero(np.isfinite(child_layer))
        att, r = np.divmod(expand, pcols.size)
        vals = child_layer[expand]
        on_layer(att, layer, _unsqueeze(pcols[r], att), vals)
        if expand.size == 0:
            break
        count = np.bincount(att, minlength=n)
        if fast:
            # att ascends, so each tuple's nodes are one run of the order;
            # expand orders a tuple's nodes by column, so by child mask
            order = np.lexsort((expand, -vals, att))
            pos = np.arange(att.size) - (np.cumsum(count) - count)[att]
            keep = np.zeros(att.size, dtype=bool)
            keep[order[pos < n]] = True
            expand, count = expand[keep], np.minimum(count, n)
        del att, r, vals  # not kept through the next layer's chunks


def _chunks(counts: np.ndarray) -> list[tuple[int, int]]:
    """(start, stop) of each chunk of a layer's expanded masks, from the
    count of each row. A chunk holds whole rows, up to _EXPAND_CHUNK masks
    in all; a longer row is cut into pieces of _EXPAND_CHUNK masks from its
    start, and only its last piece may share a chunk, with the rows after
    it."""
    out: list[tuple[int, int]] = []
    start = 0
    for count in counts.tolist():
        for lo in range(start, start + count, _EXPAND_CHUNK):
            hi = min(lo + _EXPAND_CHUNK, start + count)
            if out and hi - out[-1][0] <= _EXPAND_CHUNK:
                out[-1] = (out[-1][0], hi)
            else:
                out.append((lo, hi))
        start += count
    return out


def _unsqueeze(cols: np.ndarray, atts: np.ndarray) -> np.ndarray:
    """The prior-set masks K of columns cols in rows atts: a zero bit put
    back at each attacked tuple."""
    low = (1 << atts) - 1
    return (cols & low) | ((cols & ~low) << 1)


def _may_lower(
    lo_hi: tuple[np.ndarray, np.ndarray],
    child: np.ndarray,
    to: np.ndarray,
    values: np.ndarray,
) -> np.ndarray:
    """Indices of the edges that can still set their parent's minimum, from
    the bounds() interval [lo, hi] of each increment, the child's value and
    the parent's index `to` in values; overwrites lo and hi.

    |child + x| over x in [lo, hi] lies in [lb, ub], with ub = max(hi', -lo')
    and lb = max(lo', -hi', 0) at lo' = child + lo and hi' = child + hi. cap
    holds each parent's bound: the least of its value and its edges' ub. The
    arithmetic runs in place, in lo, hi and one more array, because a chunk
    holds thousands of edges on each thread that runs a search.
    """
    lo, hi = lo_hi
    lo += child
    hi += child
    ub = np.negative(lo)
    np.maximum(ub, hi, out=ub)
    np.negative(hi, out=hi)
    lb = np.maximum(lo, hi, out=lo)
    np.maximum(lb, 0.0, out=lb)
    # hi is free from here on; cap is read only at the parents it sets
    cap = np.empty(values.size)
    cap[to] = np.take(values, to, out=hi)
    np.minimum.at(cap, to, ub)
    # a NaN bound compares false and keeps its edge
    return np.flatnonzero(~(lb > np.take(cap, to, out=hi)))


def _search_distribution(
    dist: JointDistribution,
    query: QuerySpec,
    lam: float,
    *,
    fast: bool,
    force: bool = False,
) -> tuple[WeightedHierGraph, LeakageReport]:
    y = transform_linear_query(dist, query)
    n = y.n
    if not fast and n > FULL_CAP and not force:
        raise SearchSpaceExceeded(
            f"n={n} would materialize {n * 2 ** (n - 1)} nodes (cap {FULL_CAP}); "
            "pass force=True to override"
        )
    if not 0 < lam < math.inf:
        raise ValueError("lambda must be positive and finite")
    summary = _Summary()
    nodes: list[np.ndarray] = []
    edges = [np.empty(0, _EDGE)]  # a one-tuple table has no edges

    def on_layer(atts: np.ndarray, layer: int, masks: np.ndarray, vals: np.ndarray) -> None:
        summary(atts, layer, masks, vals)
        rows = np.empty(masks.size, _NODE)
        rows["attack"], rows["mask"], rows["value"] = atts, masks, vals
        nodes.append(rows)

    def on_edges(atts: np.ndarray, js: np.ndarray, masks: np.ndarray, ics: np.ndarray) -> None:
        rows = np.empty(masks.size, _EDGE)
        rows["attack"], rows["j"], rows["mask"], rows["ic"] = atts, js, masks, ics
        edges.append(rows)

    _kernel(_TableEdges(y, lam), fast, on_layer, on_edges)
    graph = WeightedHierGraph(n, np.concatenate(nodes), np.concatenate(edges))
    return graph, summary.report(
        "fast" if fast else "full",
        {
            "edge_candidates": "two_sided",
            "lambda": lam,
        },
    )


def full_space_search(
    dist: JointDistribution,
    query: QuerySpec,
    lam: float,
    *,
    force: bool = False,
) -> tuple[WeightedHierGraph, LeakageReport]:
    """Materialize every adversary node layer by layer (exhaustive search).

    A node reachable through several removal orders keeps the minimum of the
    candidate leakages. Refuses n > FULL_CAP unless force=True.
    """
    return _search_distribution(dist, query, lam, fast=False, force=force)


def fast_search(
    dist: JointDistribution,
    query: QuerySpec,
    lam: float,
) -> tuple[WeightedHierGraph, LeakageReport]:
    """Pruned search: per layer and attacked tuple, only the min(n, count)
    largest nodes are expanded further.

    Ties break by (-value, child mask): among nodes of equal leakage, the
    one whose prior set K has the smaller bitmask sum(2^t for t in K) is
    expanded first. Every computed node still enters the report, but
    pruning removes alternative paths whose minima could lower deeper node
    values, so fast leakage >= full leakage; with n <= 2 no pruning is
    possible and the result is identical to full_space_search.
    """
    return _search_distribution(dist, query, lam, fast=True)


def search_synthetic(edges, mode: str = "full") -> LeakageReport:
    """Run the exhaustive or pruned search over externally supplied edges.

    `edges` is an edge source (see the module notes), first layer included:
    an EdgeMap's is its scale, the unit GS/lambda of a synthetic chain.
    Node and edge semantics match the distribution-driven searches; values
    are already in leakage units, so no noise scale is involved here.
    """
    if mode not in ("full", "fast"):
        raise ValueError("mode must be 'full' or 'fast'")
    summary = _Summary()
    _kernel(edges, mode == "fast", summary)
    return summary.report(mode, {"synthetic": True, "n": edges.n})
