"""Leakage reports and the summary that builds them."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class LeakageReport:
    """Outcome of a leakage search.

    Attributes
    ----------
    layer_max : dict[int, float]
        Max node leakage per 1-based layer (over nodes actually computed).
    leakage : float
        Overall supremum = max over layer_max.
    argmax : tuple[int, tuple[int, ...]] or None
        The least adversary (i, K) attaining the supremum, K a sorted tuple,
        in tuple order, for every evaluator: a key of pdp_exact_all's result.
    node_count : int
        Number of nodes computed.
    elapsed : float
        Wall-clock seconds spent in the search.
    algorithm : str
        "full" or "fast" (or another tag for closed-form enumerations).
    metadata : dict
        Free-form provenance of the run (modes, caps, invocation).
    """

    layer_max: dict[int, float]
    leakage: float
    argmax: tuple[int, tuple[int, ...]] | None
    node_count: int
    elapsed: float
    algorithm: str
    metadata: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "leakage": self.leakage,
            "argmax": None if self.argmax is None else [self.argmax[0], list(self.argmax[1])],
            "layer_max": {str(k): v for k, v in sorted(self.layer_max.items())},
            "node_count": self.node_count,
            "elapsed_seconds": self.elapsed,
            "algorithm": self.algorithm,
            "metadata": self.metadata,
        }


class _Summary:
    """A leakage report streamed from batches of adversary values: per-layer
    maxima, the supremum, its argmax and the node count.

    Each call brings one layer's values, their attacked tuple (one int, or
    an array aligned with the values) and their prior sets K as bitmasks
    over all n tuples (bit t set when t is in K). argmax is the least
    maximal node (i, K) in tuple order, whatever the order of the calls.
    """

    def __init__(self) -> None:
        self.t0 = time.perf_counter()
        self.layer_max: dict[int, float] = {}
        self.leakage = -math.inf
        self.argmax: tuple[int, tuple[int, ...]] | None = None
        self.node_count = 0

    def __call__(
        self, attack: int | np.ndarray, layer: int, masks: np.ndarray, vals: np.ndarray
    ) -> None:
        self.node_count += vals.size
        if vals.size == 0:
            return
        top = float(vals.max())
        self.layer_max[layer] = max(self.layer_max.get(layer, -math.inf), top)
        if not top >= self.leakage:  # NaN compares false
            return
        tied = vals == top
        attack = np.broadcast_to(attack, vals.shape)[tied]
        i = int(attack.min())
        if top == self.leakage and i > self.argmax[0]:
            return
        node = (i, _least_prior(masks[tied][attack == i]))
        if top > self.leakage or node < self.argmax:
            self.leakage, self.argmax = top, node

    def report(self, algorithm: str, metadata: dict) -> LeakageReport:
        return LeakageReport(
            layer_max=self.layer_max,
            leakage=self.leakage,
            argmax=self.argmax,
            node_count=self.node_count,
            elapsed=time.perf_counter() - self.t0,
            algorithm=algorithm,
            metadata=metadata,
        )


def _adversary(node: tuple, n: int) -> tuple[int, tuple[int, ...]]:
    """Adversary (i, K) over n tuples as an int and a sorted tuple, the form
    of every argmax and pdp_exact_all key; refuses i in K or outside range(n)."""
    i, ks = int(node[0]), tuple(sorted({int(k) for k in node[1]}))
    if i in ks:
        raise ValueError(f"attacked tuple {i} cannot be in the prior set")
    if not all(0 <= t < n for t in (i,) + ks):
        raise ValueError(f"adversary ({i}, {list(ks)}) out of range for n={n}")
    return i, ks


def _least_prior(masks: np.ndarray) -> tuple[int, ...]:
    """The least of a nonempty array of prior-set masks as sorted tuples:
    keep the masks whose lowest member is the least and strip it, until one
    mask is left or one is empty, since a tuple sorts before its extensions."""
    prior = []
    while masks.size > 1 and masks.all():
        low = masks & -masks
        least = low.min()
        masks = masks[low == least] ^ least
        prior.append(int(least).bit_length() - 1)
    rest = int(masks.min())  # the one mask left, or an empty one
    return tuple(prior) + tuple(t for t in range(rest.bit_length()) if rest >> t & 1)
