"""Scalar chain-rule helpers, the dict-based distribution search and the
per-removed-tuple kernel loop, kept as test-side reference code.

The package runs every search on one bitmask kernel with per-prior-set
edge candidates. This module is the earlier, direct formulation: one
conditional table and one scipy log-sum-exp per hypothesis and edge, and a
node-by-node dict loop summarized by sorting every node; and
`reference_kernel`, the bitmask kernel as it was before it batched every
removed tuple, and then every attacked tuple of a layer, into one
edge-source call. Tests cross-check the package against them value for
value; nothing in the package imports this module.
It also holds `value_index`, which finds a value in a tuple's domain, the
conditional tables the oracle reference uses, given by value or by domain
index, `first_layer`, the strongest
adversaries' leakage as a node dict, the increment-ratio sign law,
`DictEdges`, an edge source over a hand-built {(i, K, j): ic} mapping and
first layer that takes attacked and removed tuples as ints or aligned
arrays, and
`graph_dicts`, which turns a search's node and edge arrays back into the
reference's dicts.
"""

from __future__ import annotations

import math
from itertools import combinations
from types import SimpleNamespace
from typing import Callable, Iterable, Mapping

import numpy as np
from scipy.special import logsumexp

from priordp import (
    DegenerateVariable,
    JointDistribution,
    PrivacyModelError,
    QuerySpec,
    local_sensitivity,
    marginal,
    transform_linear_query,
)
from priordp.model_discrete import PROB_FLOOR
from priordp.whg import edge_indices

_LOG_FLOOR = math.log(PROB_FLOOR)

# an adversary (i, K): attacked tuple i, K the sorted tuple of known tuples
Node = tuple[int, tuple[int, ...]]


def value_index(dist: JointDistribution, i: int, value: float) -> int:
    """Index of `value` inside dom(x_i), matched within 1e-9."""
    dom = dist.domains[i]
    k = int(np.argmin([abs(d - value) for d in dom]))
    if abs(dom[k] - value) > 1e-9 * max(1.0, abs(value)):
        raise ValueError(f"value {value!r} not in dom(x_{i}) = {dom}")
    return k


class ImpossibleCondition(PrivacyModelError):
    """Conditioning on an event of (near-)zero probability; the reference
    oracle skips such contexts."""


def conditional(
    dist: JointDistribution,
    targets: Iterable[int],
    given: Mapping[int, float],
) -> SimpleNamespace:
    """Pr(x_targets | x_given), Bayes-normalized: `domains` and `probs` over
    the targets in ascending order. Raises ImpossibleCondition when the
    conditioning event has probability below 1e-12."""
    cells = {int(k): value_index(dist, int(k), float(v)) for k, v in given.items()}
    return conditional_at(dist, targets, cells)


def conditional_at(
    dist: JointDistribution,
    targets: Iterable[int],
    cells: Mapping[int, int],
) -> SimpleNamespace:
    """conditional() with each given tuple fixed by its index in its domain
    instead of its value, so that a domain may repeat a value."""
    tgt = tuple(sorted(set(int(i) for i in targets)))
    giv = {int(k): int(p) for k, p in cells.items()}
    if not tgt:
        raise ValueError("targets must be non-empty")
    if set(tgt) & set(giv):
        raise ValueError("targets and given indices overlap")
    idx: list[object] = [slice(None)] * dist.n
    for k, p in giv.items():
        idx[k] = p
    sliced = dist.probs[tuple(idx)]
    remaining = [i for i in range(dist.n) if i not in giv]
    sum_axes = tuple(ax for ax, i in enumerate(remaining) if i not in tgt)
    table = sliced.sum(axis=sum_axes) if sum_axes else sliced
    # a contiguous copy sums pairwise, as the package sums a gathered row;
    # numpy sums a strided view past its 8192-element buffer one buffer at
    # a time
    mass = float(np.ascontiguousarray(table).sum())
    if mass < PROB_FLOOR:
        raise ImpossibleCondition(f"Pr(given={giv}) = {mass!r} is (near) zero")
    return SimpleNamespace(domains=tuple(dist.domains[i] for i in tgt), probs=table / mass)


def corr_sign_2x2(dist: JointDistribution, i: int, j: int) -> str:
    """Sign of the correlation of two binary tuples, '+', '-' or '0', from
    the cross-product p00*p11 - p01*p10, which for 2x2 tables has exactly
    the sign of the Pearson correlation."""
    cond = conditional(dist, (i, j), {})
    if any(len(d) != 2 for d in cond.domains):
        raise ValueError("corr_sign_2x2 requires binary domains for both tuples")
    p = cond.probs
    cross = float(p[0, 0] * p[1, 1] - p[0, 1] * p[1, 0])
    if abs(cross) <= 1e-15:
        return "0"
    return "+" if cross > 0 else "-"


def ir_value(ic: float, ls_j: float, lam: float) -> float:
    """Increment ratio IC / (LS_j / lam), clamped to [-1, 1] against float
    rounding; sign-linked to the correlation of the attacked and removed
    tuples."""
    if lam <= 0:
        raise ValueError("lambda must be positive")
    if ls_j <= 0:
        raise DegenerateVariable("removed tuple has zero local sensitivity")
    return float(np.clip(ic / (ls_j / lam), -1.0, 1.0))


def ic_pair(
    dist: JointDistribution,
    i: int,
    j: int,
    prior_assign: Mapping[int, float],
    x_im: float,
    x_in: float,
    lam: float,
    tail: str = "lower",
) -> float:
    """Correlation increment of tuple j for hypothesis pair (x_im, x_in).

    `dist` is taken with sum-query semantics (apply transform_linear_query
    first for general linear queries). tail="lower" weights the conditional
    of x_j by e^{-xj/lam} (the r -> -inf output ray); tail="upper" by
    e^{+xj/lam}. Antisymmetric under swapping the hypothesis pair.
    """
    if lam <= 0:
        raise ValueError("lambda must be positive")
    if tail not in ("lower", "upper"):
        raise ValueError("tail must be 'lower' or 'upper'")
    sign = -1.0 if tail == "lower" else 1.0
    out = []
    for val in (x_im, x_in):
        cond = conditional(dist, [j], {i: val, **prior_assign})
        xj = np.asarray(cond.domains[0])
        out.append(float(logsumexp(sign * xj / lam, b=cond.probs)))
    return out[0] - out[1]


def gamma_set(
    dist: JointDistribution,
    i: int,
    j: int,
    prior_assign: Mapping[int, float],
    lam: float,
    tail: str = "lower",
) -> tuple[float, ...]:
    """Increment candidates over ordered hypothesis pairs m < n of dom(x_i).

    Pairs whose conditioning event has probability below 1e-12 are skipped;
    with every pair feasible the set has C(s, 2) elements for domain size s.
    """
    ks = sorted(prior_assign)
    joint = marginal(dist, [i] + ks)
    axes = sorted([i] + ks)
    feas = []
    for a in dist.domains[i]:
        vals = [a if t == i else prior_assign[t] for t in axes]
        idx = tuple(value_index(joint, pos, v) for pos, v in enumerate(vals))
        if float(joint.probs[idx]) >= PROB_FLOOR:
            feas.append(a)
    return tuple(
        ic_pair(dist, i, j, prior_assign, a, b, lam, tail)
        for a, b in combinations(feas, 2)
    )


def edge_value(l_child: float, gammas: Iterable[float]) -> float:
    """The increment gamma maximizing |l_child + gamma|.

    Ties break toward the larger gamma (then larger |gamma|).
    """
    best: tuple[float, float, float] | None = None
    for g in gammas:
        key = (abs(l_child + g), g, abs(g))
        if best is None or key > best:
            best = key
    if best is None:
        raise ValueError("empty increment candidate set")
    return best[1]


def ancestor_leakage(l_child: float, ic: float) -> float:
    """Chain-rule step: leakage of the ancestor node, |l_child + ic|."""
    return abs(l_child + ic)


def first_layer(
    dist: JointDistribution, query: QuerySpec, lam: float
) -> dict[Node, float]:
    """Leakage of every strongest adversary: LS_i(f) / lam.

    With all other tuples known, the output density is the bare Laplace
    kernel, so the value depends only on the domain widths, never on the
    probability table.
    """
    if lam <= 0:
        raise ValueError("lambda must be positive")
    n = dist.n
    return {
        (i, tuple(t for t in range(n) if t != i)): local_sensitivity(
            dist, query, i
        )
        / lam
        for i in range(n)
    }


def chain_rule_path(start: float, ics: Iterable[float]) -> float:
    """Nested-absolute-value accumulation of increments along a path."""
    value = abs(start)
    for ic in ics:
        value = abs(value + ic)
    return value


def edge_candidates(
    y: JointDistribution,
    i: int,
    j: int,
    k_prime: tuple[int, ...],
    lam: float,
) -> np.ndarray:
    """All increment candidates for the edge (i, K'+{j}) -> (i, K'): both
    ray orientations for every feasible assignment of x_K' and ordered pair
    of x_i values. A one-value x_i has no pair and gets the one candidate 0,
    since there is nothing to tell apart."""
    axes = sorted((i, j, *k_prime))
    sub = marginal(y, axes)
    pos_i = axes.index(i)
    pos_j = axes.index(j)
    rest = [p for p in range(len(axes)) if p not in (pos_i, pos_j)]
    table = np.transpose(sub.probs, rest + [pos_i, pos_j])
    table = table.reshape(-1, table.shape[-2], table.shape[-1])
    with np.errstate(divide="ignore"):
        # x_j leading, as the package lays out its stacks: each sum over x_j
        # adds the values in order, whatever their number, where numpy would
        # sum a contiguous last axis of 8 or more values pairwise
        lt = np.log(np.moveaxis(table, 2, 0))
    xj = (np.asarray(y.domains[j]) / lam)[:, None, None]
    lse = logsumexp(
        np.ascontiguousarray(np.stack([lt, lt - xj, lt + xj])[:, :, None]), axis=1
    )[:, 0]
    log_m = lse[0]
    feasible = log_m >= _LOG_FLOOR
    with np.errstate(invalid="ignore"):
        lo = lse[1] - log_m
        up = lse[2] - log_m
    cands: list[float] = []
    s = table.shape[1]
    if s == 1:
        return np.zeros(1)
    for m, nn in combinations(range(s), 2):
        ok = feasible[:, m] & feasible[:, nn]
        if not ok.any():
            continue
        cands.extend(lo[ok, m] - lo[ok, nn])
        cands.extend(-(up[ok, m] - up[ok, nn]))
    return np.asarray(cands)


def pick_edge(l_child: float, cands: np.ndarray) -> float:
    scores = np.abs(l_child + cands)
    return float(cands[scores == scores.max()].max())


def search_distribution(
    dist: JointDistribution,
    query: QuerySpec,
    lam: float,
    *,
    fast: bool,
):
    """Dict-based chain search: (layers, edges, layer_max, leakage, argmax,
    node_count). In fast mode ties among equal nodes break by node order."""
    y = transform_linear_query(dist, query)
    n = y.n
    layers: list[dict[Node, float]] = [
        first_layer(y, QuerySpec.sum_query(n), lam)
    ]
    edges: dict[tuple[Node, int], float] = {}
    expand = layers[0]
    for _ in range(1, n):
        nxt: dict[Node, float] = {}
        for node in sorted(expand):
            l_child = expand[node]
            i, prior = node
            for j in prior:
                k_prime = tuple(t for t in prior if t != j)
                cands = edge_candidates(y, i, j, k_prime, lam)
                if cands.size == 0:
                    continue
                ic = pick_edge(l_child, cands)
                edges[(node, j)] = ic
                parent = (i, k_prime)
                val = ancestor_leakage(l_child, ic)
                if parent not in nxt or val < nxt[parent]:
                    nxt[parent] = val
        if not nxt:
            break
        layers.append(nxt)
        if fast:
            by_attack: dict[int, list[Node]] = {}
            for node in nxt:
                by_attack.setdefault(node[0], []).append(node)
            expand = {}
            for nodes in by_attack.values():
                nodes.sort(key=lambda nd: (-nxt[nd], nd))
                for nd in nodes[: min(n, len(nodes))]:
                    expand[nd] = nxt[nd]
        else:
            expand = nxt
    values: dict[Node, float] = {}
    for layer in layers:
        values.update(layer)
    layer_max, best, argmax = summarize_layers(values, n)
    return {
        "layers": layers,
        "edges": edges,
        "layer_max": layer_max,
        "leakage": best,
        "argmax": argmax,
        "node_count": len(values),
    }


def summarize_layers(
    values: Mapping[Node, float], n: int
) -> tuple[dict[int, float], float, Node | None]:
    """(per-layer maxima, overall max, argmax) of node values, the argmax
    being the first maximal node in sorted node order."""
    layer_max: dict[int, float] = {}
    best_val = float("-inf")
    best_node: Node | None = None
    for node in sorted(values):
        v = values[node]
        k = n - len(node[1])
        if k not in layer_max or v > layer_max[k]:
            layer_max[k] = v
        if v > best_val:
            best_val = v
            best_node = node
    if best_node is None:
        return {}, 0.0, None
    return layer_max, best_val, best_node


def graph_dicts(graph) -> tuple[list[dict[Node, float]], dict]:
    """The (layers, edges) dicts of a table search's graph, in the order the
    search emitted its rows: layers[k-1] maps the layer-k nodes to their
    leakage, trailing empty layers dropped, and edges maps (child node,
    removed tuple j) to the increment taken on that edge."""
    n = graph.n
    layers: list[dict[Node, float]] = [{} for _ in range(n)]
    for i, mask, value in graph.nodes.tolist():
        prior = mask_tuple(mask)
        layers[n - len(prior) - 1][i, prior] = value
    while layers and not layers[-1]:
        layers.pop()
    edges = {
        ((i, mask_tuple(mask)), j): ic
        for i, j, mask, ic in graph.edges.tolist()
    }
    return layers, edges


def all_values(graph) -> dict[Node, float]:
    """Every node value of a table search's graph, layer by layer."""
    out: dict[Node, float] = {}
    for layer in graph_dicts(graph)[0]:
        out.update(layer)
    return out


def mask_tuple(mask: int) -> tuple[int, ...]:
    """The sorted tuple of the set bits of a prior-set mask."""
    return tuple(t for t in range(mask.bit_length()) if (mask >> t) & 1)


class DictEdges:
    """Edge source over a {(i, K tuple, j): ic} mapping, with a first layer
    of one float for every tuple or n floats. i and j are each one tuple or
    an int64 array aligned with the masks; indices are checked with
    priordp.whg.edge_indices, and a missing edge raises KeyError."""

    def __init__(
        self,
        mapping: Mapping[tuple[int, tuple[int, ...], int], float],
        n: int,
        first: float | Iterable[float] = 1.0,
    ):
        self.n = n
        self.first = np.broadcast_to(np.asarray(first, dtype=float), (n,)).tolist()
        self._map = {(i, tuple(sorted(K)), j): float(v) for (i, K, j), v in mapping.items()}

    def values(self, i, child_masks: np.ndarray, j) -> np.ndarray:
        atts, masks, js = edge_indices(self.n, i, child_masks, j)
        atts, js = (np.broadcast_to(x, masks.shape).tolist() for x in (atts, js))
        return np.asarray([
            self._map[(a, mask_tuple(mask), jj)]
            for a, mask, jj in zip(atts, masks.tolist(), js)
        ])


def reference_kernel(
    edges,
    fast: bool,
    on_layer: Callable[[int, int, np.ndarray, np.ndarray], None],
    on_edges: Callable[[int, int, np.ndarray, np.ndarray], None] | None = None,
) -> None:
    """Layered min-merge search over child-K bitmasks with one edge-source
    call per (attacked tuple i, layer, removed tuple j).

    Same hooks as `priordp.whg._kernel`, except that on_layer(i, layer,
    masks, values) gets one int i per call, one call per attacked tuple and
    layer, and on_edges(i, j, child masks, increments) one int i and one int
    j per call.
    """
    n = edges.n
    full_mask = (1 << n) - 1
    by_pc: list[list[int]] = [[] for _ in range(n + 1)]
    for mask in range(1 << n):
        by_pc[bin(mask).count("1")].append(mask)
    masks_pc = [np.asarray(m, dtype=np.int64) for m in by_pc]

    values = np.empty(1 << n)
    for i in range(n):
        values.fill(np.inf)
        start = full_mask ^ (1 << i)
        values[start] = edges.first[i]
        on_layer(i, 1, np.asarray([start]), np.asarray([edges.first[i]]))
        expand = np.asarray([start], dtype=np.int64)
        for layer in range(2, n + 1):
            for j in range(n):
                if j == i:
                    continue
                sel = expand[(expand >> j) & 1 == 1]
                if sel.size == 0:
                    continue
                out = edges.values(i, sel, j)
                child = values[sel]
                if isinstance(out, tuple):
                    cmin, cmax = out
                    ok = ~np.isnan(cmin)
                    sel, child, cmin, cmax = sel[ok], child[ok], cmin[ok], cmax[ok]
                    ic = np.where(np.abs(child + cmax) >= np.abs(child + cmin), cmax, cmin)
                else:
                    ic = np.asarray(out, dtype=float)
                np.minimum.at(values, sel ^ (1 << j), np.abs(child + ic))
                if on_edges is not None:
                    on_edges(i, j, sel, ic)
            pc = masks_pc[n - layer]
            parents = pc[(pc >> i) & 1 == 0]
            vals = values[parents]
            done = np.isfinite(vals)
            parents, vals = parents[done], vals[done]
            on_layer(i, layer, parents, vals)
            if parents.size == 0:
                break
            if fast:
                keep = np.zeros(parents.size, dtype=bool)
                keep[np.argsort(-vals, kind="stable")[:n]] = True
                expand = parents[keep]
            else:
                expand = parents
