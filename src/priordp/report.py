"""Shared result types: adversary identity and leakage reports."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True, order=True)
class AdversaryNode:
    """An adversary attacking tuple `attack` while knowing tuples `prior`.

    `prior` is kept sorted so that node identity is canonical: two nodes are
    the same adversary iff (attack, prior) compare equal.
    """

    attack: int
    prior: tuple[int, ...]

    def __post_init__(self) -> None:
        prior = tuple(sorted(set(int(k) for k in self.prior)))
        object.__setattr__(self, "prior", prior)
        object.__setattr__(self, "attack", int(self.attack))
        if self.attack in prior:
            raise ValueError(f"attacked tuple {self.attack} cannot be in the prior set")

    def layer(self, n: int) -> int:
        """1-based graph layer: n - |prior| (layer 1 = strongest adversary)."""
        return n - len(self.prior)

    def to_json(self) -> list:
        return [self.attack, list(self.prior)]


@dataclass
class LeakageReport:
    """Outcome of a leakage search.

    Attributes
    ----------
    layer_max : dict[int, float]
        Max node leakage per 1-based layer (over nodes actually computed).
    leakage : float
        Overall supremum = max over layer_max.
    argmax : AdversaryNode
        A node attaining the supremum. On ties the graph searches take the
        first in (attack, sorted prior tuple) order.
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
    argmax: AdversaryNode | None
    node_count: int
    elapsed: float
    algorithm: str
    metadata: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "leakage": self.leakage,
            "argmax": None if self.argmax is None else self.argmax.to_json(),
            "layer_max": {str(k): v for k, v in sorted(self.layer_max.items())},
            "node_count": self.node_count,
            "elapsed_seconds": self.elapsed,
            "algorithm": self.algorithm,
            "metadata": self.metadata,
        }

