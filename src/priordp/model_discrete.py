"""Discrete joint-distribution model of a correlated database.

A database is a vector of n numeric tuples x_0..x_{n-1} (0-based indices
throughout). Its correlation structure is captured by a dense joint
probability table over the product of the per-tuple domains. Everything
downstream (brute-force leakage oracle, graph chain rule) consumes the
marginal distributions, Pearson correlations and query sensitivities
derived here.

All types are immutable after construction and all operations are pure
functions, so values can be shared freely across threads.
"""

from __future__ import annotations

import json
import math
import threading
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .errors import DegenerateVariable

# Conditioning events with less mass than this are treated as impossible;
# perfect-correlation tables produce exact zeros and near-zeros from rounding.
PROB_FLOOR = 1e-12

# Tables are validated at load within this tolerance, then renormalized once.
LOAD_TOL = 1e-9


def _as_sorted_values(values: Iterable[float]) -> tuple[float, ...]:
    vals = tuple(float(v) for v in values)
    if len(vals) < 1:
        raise ValueError("every tuple domain needs at least one value")
    if not all(math.isfinite(v) for v in vals):
        raise ValueError(f"domain values must be finite, got {vals}")
    if any(b <= a for a, b in zip(vals, vals[1:])):
        raise ValueError(f"domain values must be strictly increasing, got {vals}")
    return vals


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """Dense joint probability table over per-tuple numeric domains.

    Parameters
    ----------
    domains : sequence of sequences of float
        dom(x_i) for each tuple, strictly increasing values.
    probs : array_like
        Probability table with one axis per tuple, axis i indexed by
        dom(x_i). Must be nonnegative and sum to 1 within 1e-9; it is
        renormalized exactly once at construction.
    """

    domains: tuple[tuple[float, ...], ...]
    probs: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        doms = tuple(_as_sorted_values(d) for d in self.domains)
        if not doms:
            raise ValueError("a distribution needs at least one tuple")
        object.__setattr__(self, "domains", doms)
        table = np.asarray(self.probs, dtype=float)
        shape = tuple(len(d) for d in doms)
        if table.shape != shape:
            raise ValueError(
                f"probability table shape {table.shape} does not match "
                f"domain sizes {shape}"
            )
        if np.any(table < -PROB_FLOOR):
            raise ValueError("probabilities must be nonnegative")
        table = np.where(table < 0.0, 0.0, table)
        total = float(table.sum())
        if not math.isfinite(total) or abs(total - 1.0) > LOAD_TOL:
            raise ValueError(f"probabilities must sum to 1 (got {total!r})")
        table = table / total
        table.flags.writeable = False
        object.__setattr__(self, "probs", table)

    @classmethod
    def _of_sums(
        cls, domains: tuple[tuple[float, ...], ...], table: np.ndarray
    ) -> "JointDistribution":
        """A distribution over domains taken from a validated one and a table
        of sums of its cells: nothing is left to check, and only the
        constructor's normalization applies. transform_linear_query also
        builds its table here, since a zero coefficient repeats the value
        0.0 in a domain, which the constructor refuses."""
        out = object.__new__(cls)
        table = table / float(table.sum())
        table.flags.writeable = False
        object.__setattr__(out, "domains", domains)
        object.__setattr__(out, "probs", table)
        return out

    @property
    def n(self) -> int:
        """Number of tuples."""
        return len(self.domains)


@dataclass(frozen=True)
class QuerySpec:
    """Linear query f(x) = sum_i a_i * x_i."""

    coefficients: tuple[float, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(float(a) for a in self.coefficients)
        if not all(math.isfinite(a) for a in coeffs):
            raise ValueError(f"query coefficients must be finite, got {coeffs}")
        if not any(a != 0.0 for a in coeffs):
            raise ValueError("linear query needs at least one nonzero coefficient")
        object.__setattr__(self, "coefficients", coeffs)

    @classmethod
    def sum_query(cls, n: int) -> "QuerySpec":
        return cls((1.0,) * n)

    @classmethod
    def parse(cls, text: str) -> "QuerySpec":
        return cls(tuple(float(t) for t in text.split(",")))


class _Scratch(threading.local):
    """Rows of one thread, reused from call to call and grown on demand.

    A fresh large array is handed back to the OS when it is freed, so the
    next one faults in every page again; a thread that keeps its rows pays
    that once. _SCRATCH is the one instance, and each row name belongs to
    one function: "stack" to the table edge source's log-sum-exp stacks,
    "x", "lead" and "shifted" to the Gaussian grid oracle, and "a", "zm",
    "zp" and "small" to log_g.
    """

    def __init__(self):
        self._rows: dict[str, np.ndarray] = {}

    def row(self, name: str, shape: tuple[int, ...], dtype=float) -> np.ndarray:
        n = math.prod(shape)
        buf = self._rows.get(name)
        if buf is None or buf.size < n:
            buf = self._rows[name] = np.empty(n, dtype)
        return buf[:n].reshape(shape)


_SCRATCH = _Scratch()


def logsumexp(a, axis=None, b=None) -> np.ndarray | float:
    """log(sum(b * exp(a))) over `axis` (all axes when None), real a, b >= 0.

    The arithmetic of scipy.special.logsumexp (scipy 1.17) without its
    array-API dispatch: terms equal to the maximum are split out, the rest
    summed as s, and the result is log1p(s/m) + log(m) + max, with the plain
    log(sum(b * exp(a))) taken wherever that is not finite. Results are
    bitwise equal to scipy's, at a fraction of its cost per call on the
    small arrays the searches and the oracle reduce. Inputs are non-empty,
    and negative weights, which no caller has, are not supported.
    """
    a = np.asarray(a, dtype=float)
    if b is not None:
        a, b = np.broadcast_arrays(a, np.asarray(b, dtype=float))
        b = np.atleast_1d(b)
    a = np.atleast_1d(a)
    axis = tuple(range(a.ndim)) if axis is None else axis
    with np.errstate(all="ignore"):
        x = a if b is None else np.where(b == 0, -np.inf, a)
        x_max = np.max(x, axis=axis, keepdims=True)
        i_max = x == x_max
        # the maxima are split out by zeroing their terms, which equals
        # exp(-inf - x_max) wherever x_max is finite; elsewhere the
        # result is not finite either way and is recomputed below
        e = np.subtract(x, x_max)
        np.exp(e, out=e)
        e *= ~i_max
        if b is not None:
            e *= b
            i_max = i_max * b
        # m counts the maxima by weight, and s >= 0 as the weights are
        m = np.sum(i_max, axis=axis, keepdims=True, dtype=float)
        s = np.sum(e, axis=axis, keepdims=True)
        # log1p(where(s == 0, s, s / m)) + log(m) + x_max, in place
        out = np.divide(s, m)
        np.copyto(out, s, where=s == 0)
        np.log1p(out, out=out)
        out += np.log(m, out=m)
        out += x_max
        finite = np.isfinite(out)
        if not finite.all():
            b_exp_a = np.exp(a) if b is None else b * np.exp(a)
            out_inf = np.log(np.sum(b_exp_a, axis=axis, keepdims=True))
            out = np.where(finite, out, out_inf)
    out = np.squeeze(out, axis=axis)
    return out[()] if out.ndim == 0 else out


def marginal(dist: JointDistribution, subset: Iterable[int]) -> JointDistribution:
    """Marginal distribution over `subset` (result axes in sorted order)."""
    keep = sorted(set(int(i) for i in subset))
    if not keep:
        raise ValueError("subset must be non-empty")
    if keep[0] < 0 or keep[-1] >= dist.n:
        raise ValueError(f"subset {keep} out of range for n={dist.n}")
    table = _sum_out(dist.probs, keep)
    return JointDistribution._of_sums(tuple(dist.domains[i] for i in keep), table)


def _sum_out(table: np.ndarray, keep: list[int]) -> np.ndarray:
    """table.sum(axis=<the axes not in keep>) for a C-ordered table, bit for
    bit, in a fraction of the time.

    numpy sums the dropped axes after the last kept one as one run per
    output cell (pairwise from eight values up), then adds those run sums
    for the other dropped cells one at a time in C order, along the last
    kept axes, whose short runs make that step slow. Here the run sums come
    from the same call on the trailing axes, and the rest is summed over a
    copy with the dropped cells leading, so each addition covers every kept
    cell at once and the order of the additions stays the same. One-value
    axes drop out first, as numpy's own iteration merges them away.
    """
    shape = table.shape
    wide = [a for a in range(table.ndim) if shape[a] > 1]
    x = table.reshape([shape[a] for a in wide])
    kept = [p for p, a in enumerate(wide) if a in keep]
    if not kept:
        x = x.sum()  # only one-value axes are kept: the table is one run
    else:
        last = kept[-1]
        if last < x.ndim - 1:
            x = x.reshape(x.shape[: last + 1] + (-1,)).sum(axis=-1)
        drop = [p for p in range(last + 1) if p not in kept]
        if drop:
            lead = x.transpose(drop + kept)
            x = lead.reshape((-1,) + lead.shape[len(drop):]).sum(axis=0)
    return np.reshape(x, [shape[a] for a in keep])


def _moments_2d(
    domains: tuple[tuple[float, ...], tuple[float, ...]], table: np.ndarray
) -> tuple[float, float, float, float, float]:
    xi = np.asarray(domains[0])
    xj = np.asarray(domains[1])
    pi = table.sum(axis=1)
    pj = table.sum(axis=0)
    ei = float(pi @ xi)
    ej = float(pj @ xj)
    vi = float(pi @ (xi - ei) ** 2)
    vj = float(pj @ (xj - ej) ** 2)
    cov = float((xi - ei) @ table @ (xj - ej))
    return ei, ej, vi, vj, cov


def pearson_corr(dist: JointDistribution, i: int, j: int) -> float:
    """Pearson correlation of x_i and x_j.

    Clamped to [-1, 1] against rounding. Raises DegenerateVariable when a
    variance vanishes.
    """
    if i == j:
        raise ValueError("need two distinct tuple indices")
    pair = marginal(dist, (i, j))
    lo, hi = sorted((i, j))
    _, _, v_lo, v_hi, cov = _moments_2d(pair.domains, pair.probs)
    widths = [d[-1] - d[0] for d in pair.domains]
    floor = [1e-12 * w * w for w in widths]
    if v_lo <= floor[0] or v_hi <= floor[1]:
        raise DegenerateVariable(
            f"zero variance for tuple {lo if v_lo <= floor[0] else hi}"
        )
    rho = cov / math.sqrt(v_lo * v_hi)
    rho = min(1.0, max(-1.0, rho))
    # moments were computed with axes (min(i,j), max(i,j)); order does not
    # change the value, so no swap correction is needed
    return rho


def local_sensitivity(dist: JointDistribution, query: QuerySpec, i: int) -> float:
    """LS_i(f): largest |f(x) - f(x')| over pairs differing only in tuple i.

    For a linear query the other coordinates cancel, so LS_i(f) is |a_i|
    times the width of dom(x_i), its last value minus its first. Float
    rounding is monotone, so this equals the maximum over all value pairs
    bit for bit; a single-value domain gives 0.
    """
    if len(query.coefficients) != dist.n:
        raise ValueError("query length does not match number of tuples")
    if not 0 <= i < dist.n:
        raise ValueError(f"tuple index {i} out of range for n={dist.n}")
    dom = dist.domains[i]
    return abs(query.coefficients[i]) * (dom[-1] - dom[0])


def global_sensitivity(dist: JointDistribution, query: QuerySpec) -> float:
    """GS(f) = max_i LS_i(f) for a sum-decomposable linear query."""
    return max(local_sensitivity(dist, query, i) for i in range(dist.n))


def transform_linear_query(
    dist: JointDistribution, query: QuerySpec
) -> JointDistribution:
    """Rewrite a linear query as a sum query over y_i = a_i * x_i.

    Domains are rescaled by a_i and re-sorted (axis flipped for negative
    coefficients). Every axis keeps its cells: a tuple with a_i = 0 keeps
    its hypotheses, each of value 0.0, and with them its correlation with
    the other tuples, through which it still leaks. Its domain then repeats
    0.0, so the returned domains are nondecreasing, not strictly increasing.
    """
    if len(query.coefficients) != dist.n:
        raise ValueError("query length does not match number of tuples")
    domains: list[tuple[float, ...]] = []
    table = dist.probs
    for i, a in enumerate(query.coefficients):
        if a >= 0.0:
            domains.append(tuple(a * v for v in dist.domains[i]))
        else:
            domains.append(tuple(a * v for v in reversed(dist.domains[i])))
            table = np.flip(table, axis=i)
    if not all(math.isfinite(v) for d in domains for v in d):
        raise ValueError("scaled domain values must be finite")
    return JointDistribution._of_sums(tuple(domains), table)


def _noise_floor(y: JointDistribution) -> float:
    """The least noise scale the evaluators of the sum-query table y can
    divide by. Every quotient they form (a domain value, a width LS_t, a
    chain node value, a query sum or a kink offset, over lambda) is at most
    S / lambda, S = sum_t (|min y_t| + |max y_t|), here held 2^-40 below
    the float maximum for their rounding."""
    s = math.fsum(abs(d[0]) + abs(d[-1]) for d in y.domains)
    return math.nextafter(s / (np.finfo(float).max * (1.0 - 2.0**-40)), math.inf)


def _noise_table(dist: JointDistribution, query: QuerySpec, lam: float) -> JointDistribution:
    """transform_linear_query(dist, query), refused unless lam >= _noise_floor(y)."""
    y = transform_linear_query(dist, query)
    floor = _noise_floor(y)
    if not floor <= lam < math.inf:
        raise ValueError(f"lambda {lam!r} is too small or not finite: the table needs >= {floor!r}")
    return y


def load_distribution(obj: Mapping | str) -> JointDistribution:
    """Build a JointDistribution from the JSON object format.

    Format: {"domains": [[v, ...], ...], "probs": [p, ...]} with probs
    flattened in row-major order over the domain product. A string argument
    is parsed as JSON text.
    """
    if isinstance(obj, str):
        obj = json.loads(obj)
    if not isinstance(obj, Mapping) or "domains" not in obj or "probs" not in obj:
        raise ValueError('distribution JSON needs "domains" and "probs" keys')
    domains = [list(map(float, d)) for d in obj["domains"]]
    flat = np.asarray(obj["probs"], dtype=float).ravel()
    size = int(np.prod([len(d) for d in domains]))
    if flat.size != size:
        raise ValueError(
            f"probs length {flat.size} does not match domain product {size}"
        )
    table = flat.reshape(tuple(len(d) for d in domains))
    return JointDistribution(tuple(tuple(d) for d in domains), table)


def distribution_to_json(dist: JointDistribution) -> dict:
    """Inverse of load_distribution (row-major flattening)."""
    return {
        "domains": [list(d) for d in dist.domains],
        "probs": [float(p) for p in dist.probs.ravel()],
    }
