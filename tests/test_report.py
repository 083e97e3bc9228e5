"""Report aggregation and the (i, K) argmax."""

import json

import numpy as np
import pytest

from priordp import GaussianModel, LeakageReport, max_leakage_gaussian
from priordp import model_gaussian, whg
from priordp.report import _Summary
from priordp.synth import EdgeMap

from chain_reference import summarize_layers


class TestSummarizeLayers:
    def test_per_layer_maxima(self):
        n = 3
        values = {
            (0, (1, 2)): 1.0,
            (1, (0, 2)): 2.5,
            (0, (1,)): 1.7,
            (0, ()): 0.4,
        }
        layer_max, best, arg = summarize_layers(values, n)
        assert layer_max == {1: 2.5, 2: 1.7, 3: 0.4}
        assert best == 2.5
        assert arg == (1, (0, 2))

    def test_tie_picks_smallest_node(self):
        values = {
            (1, ()): 3.0,
            (0, ()): 3.0,
        }
        _, best, arg = summarize_layers(values, 2)
        assert best == 3.0
        assert arg == (0, ())

    def test_empty_input(self):
        layer_max, best, arg = summarize_layers({}, 4)
        assert layer_max == {}
        assert best == 0.0
        assert arg is None


def test_report_json_shape():
    rep = LeakageReport(
        layer_max={2: 1.5, 1: 2.0},
        leakage=2.0,
        argmax=(0, (1,)),
        node_count=4,
        elapsed=0.01,
        algorithm="full",
        metadata={"lambda": 1.0},
    )
    obj = rep.to_json()
    assert obj["leakage"] == 2.0
    assert obj["argmax"] == [0, [1]]
    assert list(obj["layer_max"]) == ["1", "2"]
    assert obj["algorithm"] == "full"
    json.dumps(obj)  # must be serializable as-is


class ZeroEdges:
    """Synthetic edges of increment 0 after a first layer of one float for
    every tuple or n floats: every node keeps its first-layer value."""

    def __init__(self, n, first=1.0):
        self.n = n
        self.first = np.broadcast_to(np.asarray(first, dtype=float), (n,)).tolist()

    def values(self, i, masks, j):
        return np.zeros(np.shape(masks))


def replay(batches):
    summary = _Summary()
    for batch in batches:
        summary(*batch)
    return summary.report("replay", {})


def same_numbers(a, b):
    return (a.layer_max, a.leakage, a.argmax, a.node_count) == (
        b.layer_max, b.leakage, b.argmax, b.node_count)


def search_batches(edges, fast):
    batches = []
    whg._kernel(edges, fast, lambda *call: batches.append(call))
    return batches


class TestSummary:
    def test_tie_goes_to_least_node(self):
        # as sorted tuples: (1, 2), (0, 1, 3), (0, 1), (0, 3), (1,)
        masks = np.array([0b110, 0b1011, 0b11, 0b1001, 0b10])
        rep = replay([(2, 3, masks, np.ones(5))])
        assert rep.argmax == (2, (0, 1))
        # with aligned attacked tuples the least attacked tuple goes first:
        # (4, (0,)) loses to (1, (0, 2, 3)), which beats (1, (2, 3))
        attacks = np.array([4, 1, 4, 1])
        masks = np.array([0b111, 0b1101, 0b1, 0b1100])
        rep = replay([(attacks, 3, masks, np.ones(4))])
        assert rep.argmax == (1, (0, 2, 3))
        # a tuple sorts before its extensions, the empty one first of all
        rep = replay([(0, 2, np.array([0b1110, 0b110, 0b10]), np.ones(3))])
        assert rep.argmax == (0, (1,))
        rep = replay([(0, 2, np.array([0b1110, 0, 0b10]), np.ones(3))])
        assert rep.argmax == (0, ())

    def test_argmax_matches_sorted_nodes(self):
        # random batches with few distinct values, so most maxima tie
        rng = np.random.default_rng(16)
        for _ in range(200):
            n = int(rng.integers(1, 8))
            size = int(rng.integers(1, 40))
            attacks = rng.integers(0, n, size)
            masks = rng.integers(0, 1 << n, size) & ~(1 << attacks)
            vals = rng.integers(0, 3, size).astype(float)
            cuts = np.sort(rng.integers(0, size + 1, 3))
            batches = [(attacks[a:b], 1, masks[a:b], vals[a:b])
                       for a, b in zip([0, *cuts], [*cuts, size])]
            rng.shuffle(batches)
            rep = replay(batches)
            want = min((i, tuple(t for t in range(n) if (m >> t) & 1))
                       for i, m, v in zip(attacks, masks, vals) if v == vals.max())
            assert rep.leakage == vals.max()
            assert rep.argmax == want

    def test_larger_value_wins_over_order(self):
        rep = replay([(0, 2, np.array([0b10]), np.array([1.0])),
                      (1, 2, np.array([0b1]), np.array([2.0])),
                      (0, 1, np.array([0b110]), np.array([2.0]))])
        assert rep.leakage == 2.0
        assert rep.argmax == (0, (1, 2))
        assert rep.layer_max == {1: 2.0, 2: 2.0}
        assert rep.node_count == 3

    @pytest.mark.parametrize("fast", [False, True])
    def test_search_batches_in_any_order(self, fast):
        # with zero increments every node of every attacked tuple ties
        for edges in (ZeroEdges(5), EdgeMap(6, 0.5, seed=1)):
            batches = search_batches(edges, fast)
            rep = whg.search_synthetic(edges, mode="fast" if fast else "full")
            assert same_numbers(replay(batches), rep)
            assert same_numbers(replay(reversed(batches)), rep)
            if isinstance(edges, ZeroEdges):
                assert rep.argmax == (0, ())

    def test_enumeration_batches_in_any_order(self):
        S = np.array([[130, 0, 0, 0, 0],
                      [0, 82, -8, -13, 8],
                      [0, -8, 82, 8, -13],
                      [0, -13, 8, 45, -4],
                      [0, 8, -13, -4, 45]]) / 128
        for m in (GaussianModel(mu=[0.0] * 5, sigma=S),
                  GaussianModel(mu=[0.0] * 6, sigma=np.eye(6))):
            batches = list(model_gaussian._adversary_values(m))
            rep = max_leakage_gaussian(m)
            assert same_numbers(replay(batches), rep)
            assert same_numbers(replay(reversed(batches)), rep)
            # and within each batch, rows in reverse
            flipped = [tuple(a[::-1] if np.ndim(a) else a for a in b) for b in batches]
            assert same_numbers(replay(flipped), rep)
