"""Adversary identity and report aggregation."""

import json

import pytest

from priordp import AdversaryNode, LeakageReport

from chain_reference import summarize_layers


class TestAdversaryNode:
    def test_prior_canonicalized(self):
        node = AdversaryNode(2, (3, 1, 3))
        assert node.prior == (1, 3)

    def test_attack_in_prior_rejected(self):
        with pytest.raises(ValueError):
            AdversaryNode(1, (0, 1))

    def test_equality_after_canonicalization(self):
        assert AdversaryNode(0, (2, 1)) == AdversaryNode(0, (1, 2))
        assert hash(AdversaryNode(0, (2, 1))) == hash(AdversaryNode(0, (1, 2)))

    def test_layer_numbering(self):
        n = 4
        assert AdversaryNode(0, (1, 2, 3)).layer(n) == 1
        assert AdversaryNode(0, ()).layer(n) == 4

    def test_ordering_is_total(self):
        nodes = [AdversaryNode(1, ()), AdversaryNode(0, (1,)), AdversaryNode(0, ())]
        ordered = sorted(nodes)
        assert ordered[0] == AdversaryNode(0, ())
        assert ordered[-1] == AdversaryNode(1, ())

    def test_json_round_trip(self):
        node = AdversaryNode(3, (0, 5))
        assert node.to_json() == [3, [0, 5]]
        # and through an actual JSON encoder
        assert AdversaryNode(*json.loads(json.dumps(node.to_json()))) == node


class TestSummarizeLayers:
    def test_per_layer_maxima(self):
        n = 3
        values = {
            AdversaryNode(0, (1, 2)): 1.0,
            AdversaryNode(1, (0, 2)): 2.5,
            AdversaryNode(0, (1,)): 1.7,
            AdversaryNode(0, ()): 0.4,
        }
        layer_max, best, arg = summarize_layers(values, n)
        assert layer_max == {1: 2.5, 2: 1.7, 3: 0.4}
        assert best == 2.5
        assert arg == AdversaryNode(1, (0, 2))

    def test_tie_picks_smallest_node(self):
        values = {
            AdversaryNode(1, ()): 3.0,
            AdversaryNode(0, ()): 3.0,
        }
        _, best, arg = summarize_layers(values, 2)
        assert best == 3.0
        assert arg == AdversaryNode(0, ())

    def test_empty_input(self):
        layer_max, best, arg = summarize_layers({}, 4)
        assert layer_max == {}
        assert best == 0.0
        assert arg is None


def test_report_json_shape():
    rep = LeakageReport(
        layer_max={2: 1.5, 1: 2.0},
        leakage=2.0,
        argmax=AdversaryNode(0, (1,)),
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
