"""Hierarchical-graph search: increments, edges, chain rule, both algorithms."""

import dataclasses
import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from priordp import oracle, whg
from priordp import (
    DegenerateVariable,
    JointDistribution,
    QuerySpec,
    SearchSpaceExceeded,
    fast_search,
    full_space_search,
    load_distribution,
    local_sensitivity,
    pdp_exact_all,
    pdp_exact_discrete,
    search_synthetic,
    transform_linear_query,
)
from priordp.synth import EdgeMap

import oracle_reference
from chain_reference import (
    DictEdges,
    all_values,
    ancestor_leakage,
    chain_rule_path,
    corr_sign_2x2,
    edge_value,
    first_layer,
    gamma_set,
    graph_dicts,
    ic_pair,
    ir_value,
    mask_tuple,
    reference_kernel,
    search_distribution,
)
from conftest import (
    IC_A,
    LEAK_A_WEAK,
    LEAK_B_WEAK,
    ONE_VALUE_TABLE,
    ZERO_COEF_TABLE,
    binary_table,
    random_instance,
    sized_table,
)


class TestICPair:
    def test_frozen_positive_table(self, table_a):
        ic = ic_pair(table_a, 0, 1, {}, 0.0, 1.0, 1.0, "lower")
        assert ic == pytest.approx(IC_A, abs=1e-9)

    def test_upper_tail_negates_on_symmetric_table(self, table_a):
        lo = ic_pair(table_a, 0, 1, {}, 0.0, 1.0, 1.0, "lower")
        up = ic_pair(table_a, 0, 1, {}, 0.0, 1.0, 1.0, "upper")
        assert up == pytest.approx(-lo, abs=1e-12)

    def test_antisymmetric_in_hypotheses(self, table_b):
        a = ic_pair(table_b, 0, 1, {}, 0.0, 1.0, 1.0, "lower")
        b = ic_pair(table_b, 0, 1, {}, 1.0, 0.0, 1.0, "lower")
        assert a == pytest.approx(-b, abs=1e-12)

    def test_validation(self, table_a):
        with pytest.raises(ValueError):
            ic_pair(table_a, 0, 1, {}, 0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            ic_pair(table_a, 0, 1, {}, 0.0, 1.0, 1.0, "sideways")

    @given(st.integers(0, 2**32 - 1), st.floats(0.3, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_bounded_by_removed_sensitivity(self, seed, lam):
        rng = np.random.default_rng(seed)
        dist = random_instance(rng, 2)
        ls1 = local_sensitivity(dist, QuerySpec.sum_query(2), 1)
        for a, b in itertools.combinations(dist.domains[0], 2):
            for tail in ("lower", "upper"):
                ic = ic_pair(dist, 0, 1, {}, a, b, lam, tail)
                assert abs(ic) <= ls1 / lam + 1e-12


class TestGammaSet:
    def test_pair_count(self):
        rng = np.random.default_rng(1)
        probs = rng.dirichlet(np.ones(9)).reshape(3, 3) + 0.01
        probs /= probs.sum()
        dist = JointDistribution([(0.0, 0.5, 1.0), (0.0, 1.0, 2.0)], probs)
        assert len(gamma_set(dist, 0, 1, {}, 1.0)) == 3  # C(3,2)

    def test_infeasible_hypotheses_skipped(self):
        dist = binary_table([[0.5, 0.5], [0.0, 0.0]])
        assert gamma_set(dist, 0, 1, {}, 1.0) == ()

    def test_conditioning_restricts_pairs(self):
        rng = np.random.default_rng(2)
        dist = random_instance(rng, 3)
        v2 = dist.domains[2][0]
        out = gamma_set(dist, 0, 1, {2: v2}, 1.0)
        s = len(dist.domains[0])
        assert len(out) == s * (s - 1) // 2  # all feasible: probs have a floor


class TestEdgeValue:
    def test_picks_max_absolute_sum(self):
        assert edge_value(1.0, [0.3, -0.1]) == 0.3
        assert edge_value(-0.5, [0.3, -0.4]) == -0.4

    def test_tie_prefers_larger_gamma(self):
        assert edge_value(0.0, [-0.5, 0.5]) == 0.5
        # |1.0 + 0.5| == |1.0 - 2.5| exactly in binary floats
        assert edge_value(1.0, [0.5, -2.5]) == 0.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            edge_value(1.0, [])

    def test_ancestor_leakage(self):
        assert ancestor_leakage(1.0, -1.5) == pytest.approx(0.5)
        assert ancestor_leakage(1.0, 0.25) == pytest.approx(1.25)


class TestIRValue:
    def test_plain_ratio(self):
        assert ir_value(0.5, 2.0, 1.0) == pytest.approx(0.25)
        assert ir_value(0.5, 1.0, 0.5) == pytest.approx(0.25)

    def test_clamp_absorbs_rounding(self):
        assert ir_value(1.0 + 1e-13, 1.0, 1.0) == 1.0
        assert ir_value(-1.0 - 1e-13, 1.0, 1.0) == -1.0

    def test_validation(self):
        with pytest.raises(DegenerateVariable):
            ir_value(0.5, 0.0, 1.0)
        with pytest.raises(ValueError):
            ir_value(0.5, 1.0, 0.0)

    def test_sign_matches_correlation_on_binary_tables(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            probs = rng.dirichlet(np.ones(4)).reshape(2, 2) + 0.01
            probs /= probs.sum()
            dist = binary_table(probs)
            sign = corr_sign_2x2(dist, 0, 1)
            ic = ic_pair(dist, 0, 1, {}, 0.0, 1.0, 1.0, "lower")
            ir = ir_value(ic, 1.0, 1.0)
            if sign == "+":
                assert 0.0 < ir <= 1.0
            elif sign == "-":
                assert -1.0 <= ir < 0.0
            else:
                assert abs(ir) < 1e-9


class TestFirstLayer:
    def test_values_are_scaled_sensitivities(self, table_d, sum2):
        fl = first_layer(table_d, sum2, 2.0)
        assert fl[0, (1,)] == pytest.approx(0.5)
        assert fl[1, (0,)] == pytest.approx(2.5)

    def test_distribution_invariance(self, table_a, table_b, sum2):
        assert first_layer(table_a, sum2, 1.0) == first_layer(table_b, sum2, 1.0)

    def test_rejects_bad_lambda(self, table_a, sum2):
        with pytest.raises(ValueError):
            first_layer(table_a, sum2, 0.0)
        for search in (full_space_search, fast_search):
            with pytest.raises(ValueError):
                search(table_a, sum2, 0.0)

    @pytest.mark.parametrize("search", [full_space_search, fast_search])
    def test_searches_start_from_first_layer(self, search):
        # the layer-1 rows of graph.nodes, bit for bit
        rng = np.random.default_rng(39)
        for n in (1, 2, 3, 4):
            dist = random_instance(rng, n)
            q = QuerySpec.sum_query(n)
            graph, _ = search(dist, q, 0.7)
            assert graph_dicts(graph)[0][0] == first_layer(dist, q, 0.7)

    @pytest.mark.parametrize("domains, coeffs", [
        ([(0.0, 1.0), (0.0, 5.0)], None),
        ([(0.0, 0.4, 1.3), (0.2, 0.5, 0.9), (0.0, 1.0, 2.5)], None),
        ([(0.0, 1.0), (0.0, 0.3, 2.0), (0.1, 0.7)], (1.5, -2.0, 0.0)),
        ([(0.0, 1.0), (7.0,), (0.0, 1.5)], None),
    ], ids=["binary", "ternary", "signed", "one_value"])
    def test_table_edges_carry_first_layer(self, domains, coeffs):
        # the edge source of a table search holds LS_i / lambda of the
        # transformed table, which the full search's layer 1 reads
        n, sizes = len(domains), [len(d) for d in domains]
        probs = np.random.default_rng(71).dirichlet(np.ones(math.prod(sizes)))
        dist = JointDistribution(domains, probs.reshape(sizes))
        query = QuerySpec(coeffs) if coeffs else QuerySpec.sum_query(n)
        y = transform_linear_query(dist, query)
        first = whg._TableEdges(y, 0.3).first
        assert repr(first) == repr(list(first_layer(y, QuerySpec.sum_query(n), 0.3).values()))
        graph, _ = full_space_search(dist, query, 0.3)
        assert repr(first) == repr(list(graph_dicts(graph)[0][0].values()))


class TestNoiseFloor:
    """One rule admits a table's noise scale for the chain and the oracle:
    S / lambda finite, S = sum_t (|min y_t| + |max y_t|) over the scaled
    domains, checked before any work."""

    @staticmethod
    def signed_table(seed):
        # domains that need not start at 0, signed and zero coefficients
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        sizes = rng.integers(2, 4, size=n)
        domains = [np.unique(rng.uniform(-3.0, 3.0, size=s)) for s in sizes]
        probs = rng.dirichlet(np.ones(math.prod(len(d) for d in domains)))
        coeffs = rng.choice([-2.0, -0.5, 0.0, 1.0, 1.5], size=n)
        coeffs[rng.integers(n)] = 1.0
        dist = JointDistribution(domains, probs.reshape([len(d) for d in domains]))
        return dist, QuerySpec(coeffs)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_bound_admits_finite_values(self, seed):
        dist, query = self.signed_table(seed)
        y = transform_linear_query(dist, query)
        s = math.fsum(abs(d[0]) + abs(d[-1]) for d in y.domains)
        big = sys.float_info.max
        graph, report = full_space_search(dist, query, 2 * s / big)
        assert len(graph.nodes) == dist.n * 2 ** (dist.n - 1)
        assert np.isfinite(graph.nodes["value"]).all() and math.isfinite(report.leakage)
        exact = pdp_exact_all(dist, query, 2 * s / big)
        assert all(math.isfinite(r.leakage) for r in exact.values())
        # a NaN log-ratio would show first at the floor
        for (i, K), r in exact.items():
            want = oracle_reference.pdp_exact_discrete(dist, query, 2 * s / big, i, K)
            assert repr(dataclasses.astuple(r)) == repr(dataclasses.astuple(want)), (i, K)

        def entered(*args):
            raise AssertionError("work started before the noise scale was checked")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(whg, "_TableEdges", entered)
            mp.setattr(oracle, "_rows", entered)
            for run in (full_space_search, fast_search, pdp_exact_all):
                with pytest.raises(ValueError, match="too small"):
                    run(dist, query, s / (2 * big))
            with pytest.raises(ValueError, match="too small"):
                pdp_exact_discrete(dist, query, s / (2 * big), 0, [])


def test_chain_rule_path_nested_absolutes():
    assert chain_rule_path(1.0, [0.5, -2.0]) == pytest.approx(0.5)
    assert chain_rule_path(1.0, []) == 1.0
    assert chain_rule_path(-1.0, [0.2]) == pytest.approx(1.2)


class TestDistributionSearch:
    def test_frozen_positive_table(self, table_a, sum2):
        graph, report = full_space_search(table_a, sum2, 1.0)
        assert graph.node_value((0, (1,))) == pytest.approx(1.0)
        assert graph.node_value((0, ())) == pytest.approx(
            LEAK_A_WEAK, abs=1e-9
        )
        assert report.leakage == pytest.approx(LEAK_A_WEAK, abs=1e-9)
        assert report.argmax == (0, ())
        assert report.algorithm == "full"

    def test_frozen_negative_table_max_at_first_layer(self, table_b, sum2):
        graph, report = full_space_search(table_b, sum2, 1.0)
        assert graph.node_value((0, ())) == pytest.approx(
            LEAK_B_WEAK, abs=1e-9
        )
        # with anticorrelation the weaker adversary learns less; the report
        # supremum sits on the strongest adversaries
        assert report.leakage == pytest.approx(1.0, abs=1e-12)
        assert 2 - len(report.argmax[1]) == 1

    def test_fast_equals_full_when_nothing_prunable(self, sum2):
        rng = np.random.default_rng(23)
        for _ in range(5):
            dist = random_instance(rng, 2)
            gf, rf = full_space_search(dist, sum2, 1.0)
            ga, ra = fast_search(dist, sum2, 1.0)
            assert ra.leakage == pytest.approx(rf.leakage, abs=1e-12)
            assert all_values(gf) == pytest.approx(all_values(ga))

    def test_fast_dominates_full(self):
        rng = np.random.default_rng(29)
        q = QuerySpec.sum_query(4)
        for _ in range(10):
            dist = random_instance(rng, 4)
            _, rf = full_space_search(dist, q, 1.0)
            _, ra = fast_search(dist, q, 1.0)
            assert ra.leakage >= rf.leakage - 1e-12

    def test_graph_is_dp_consistent(self):
        # every deeper node equals the min over its in-edges of |child + ic|
        rng = np.random.default_rng(31)
        dist = random_instance(rng, 4)
        q = QuerySpec.sum_query(4)
        graph, _ = full_space_search(dist, q, 1.0)
        values = all_values(graph)
        layers, edges = graph_dicts(graph)
        for k in range(2, 5):  # layers below the strongest
            layer = layers[k - 1]
            for parent, val in layer.items():
                cands = []
                for ((i, K), j), ic in edges.items():
                    if (i, tuple(t for t in K if t != j)) != parent:
                        continue
                    if 4 - len(K) != k - 1:
                        continue
                    cands.append(abs(values[i, K] + ic))
                assert cands, f"no in-edges recorded for {parent}"
                assert val == pytest.approx(min(cands), abs=1e-12)

    def test_chain_dominates_oracle_unit_binary(self, sum2):
        # Ray-limit increment candidates certify the supremum on unit-width
        # binary domains.  Skewed multi-width instances can place the exact
        # supremum at an interior kink above every ray, so domination is
        # asserted only on this family; the general chain-vs-oracle gap is
        # measured, not assumed (see notes on the domination criterion).
        rng = np.random.default_rng(37)
        for _ in range(60):
            cells = rng.dirichlet(np.ones(4)).reshape(2, 2) + 0.01
            cells /= cells.sum()
            dist = binary_table(cells.tolist())
            graph, _ = full_space_search(dist, sum2, 1.0)
            for node, val in all_values(graph).items():
                exact = pdp_exact_discrete(dist, sum2, 1.0, *node)
                assert val >= exact.leakage - 1e-9

    def test_chain_exact_on_strongest_adversaries(self):
        # layer 1 = single unknown tuple; the chain starts from the exact
        # scaled sensitivity there, so chain and oracle must agree.
        rng = np.random.default_rng(38)
        q = QuerySpec.sum_query(3)
        for _ in range(6):
            dist = random_instance(rng, 3)
            graph, _ = full_space_search(dist, q, 1.0)
            for node, val in all_values(graph).items():
                if 3 - len(node[1]) == 1:
                    exact = pdp_exact_discrete(dist, q, 1.0, *node)
                    assert val == pytest.approx(exact.leakage, abs=1e-12)

    @pytest.mark.parametrize("lam", [float("nan"), float("inf"), 0.0])
    def test_bad_lambda(self, table_a, sum2, lam):
        # a NaN lambda once passed lam <= 0 and gave leakage -inf
        with pytest.raises(ValueError, match="lambda"):
            full_space_search(table_a, sum2, lam)
        with pytest.raises(ValueError, match="lambda"):
            fast_search(table_a, sum2, lam)

    def test_cap_and_force(self, sum2, monkeypatch):
        rng = np.random.default_rng(43)
        dist = random_instance(rng, 3)
        q = QuerySpec.sum_query(3)
        monkeypatch.setattr(whg, "FULL_CAP", 2)
        with pytest.raises(SearchSpaceExceeded):
            full_space_search(dist, q, 1.0)
        _, rep = full_space_search(dist, q, 1.0, force=True)
        assert rep.leakage > 0

    def test_metadata(self, table_a, sum2):
        _, rep = full_space_search(table_a, sum2, 0.5)
        assert rep.metadata["edge_candidates"] == "two_sided"
        assert rep.metadata["lambda"] == 0.5


def assert_matches_reference(dist, query, lam):
    """The kernel search equals the dict-based reference bit for bit."""
    for fast, search in ((False, full_space_search), (True, fast_search)):
        graph, report = search(dist, query, lam)
        ref = search_distribution(dist, query, lam, fast=fast)
        layers, edges = graph_dicts(graph)
        assert layers == ref["layers"]
        assert edges == ref["edges"]
        assert report.node_count == ref["node_count"]
        assert report.argmax == ref["argmax"]
        assert report.leakage == ref["leakage"]
        assert report.layer_max == ref["layer_max"]


class TestKernelMatchesReference:
    @pytest.mark.parametrize("size", [2, 3])
    def test_random_tables(self, size):
        rng = np.random.default_rng(50 + size)
        for n in range(1, 6 if size == 2 else 5):
            for lam in (0.4, 1.0, 3.0):
                dist = sized_table(rng, n, size)
                assert_matches_reference(dist, QuerySpec.sum_query(n), lam)

    def test_zero_cells_and_missing_edges(self):
        rng = np.random.default_rng(53)
        missing = 0
        for n, size in ((3, 2), (4, 2), (5, 2), (3, 3), (4, 3)):
            dist = sized_table(rng, n, size, zero_frac=0.3)
            # x_0 = x_1: with x_1 known, x_0 has one feasible value, so edges
            # (0, K) -> (0, K - {j}) with 1 in K - {j} have no candidates
            cells = np.array(dist.probs)
            idx = np.arange(size)
            eq = (idx[:, None] == idx[None, :]).reshape((size, size) + (1,) * (n - 2))
            cells = cells * eq
            dist = JointDistribution(dist.domains, cells / cells.sum())
            q = QuerySpec.sum_query(n)
            assert_matches_reference(dist, q, 1.0)
            graph, _ = full_space_search(dist, q, 1.0)
            missing += n * (n - 1) * 2 ** (n - 2) - len(graph.edges)
            values = all_values(graph)
            _, edges = graph_dicts(graph)
            for parent, val in values.items():
                ins = [
                    abs(values[i, K] + ic)
                    for ((i, K), j), ic in edges.items()
                    if (i, tuple(t for t in K if t != j)) == parent
                ]
                if n - len(parent[1]) > 1:
                    assert val == min(ins)
        assert missing > 0

    def test_signed_query_coefficients(self):
        rng = np.random.default_rng(54)
        for n, size in ((2, 3), (3, 2), (4, 2), (3, 3), (5, 2)):
            dist = sized_table(rng, n, size)
            coeffs = rng.choice([-2.0, -1.0, -0.5, 0.0, 1.0, 2.0], size=n)
            coeffs[0] = -1.0
            assert_matches_reference(dist, QuerySpec(tuple(coeffs)), 1.0)

    def test_mixed_domain_sizes(self):
        # the slices of one prior set fall into several table shapes
        rng = np.random.default_rng(56)
        for sizes in ((2, 3, 2), (3, 2, 4, 2), (2, 1, 3, 2), (4, 2, 3, 2, 2)):
            for zero in (0.0, 0.3):
                dist = mixed_table(rng, sizes, zero)
                n = len(sizes)
                q = QuerySpec(tuple(rng.choice([-1.5, -1.0, 0.5, 1.0], size=n)))
                assert_matches_reference(dist, q, 0.8)

    @pytest.mark.parametrize("cells", [1, 40])
    def test_stack_size_leaves_results_unchanged(self, cells, monkeypatch):
        rng = np.random.default_rng(57)
        cases = [
            sized_table(rng, 5, 2, zero_frac=0.2),
            sized_table(rng, 4, 3),
            mixed_table(rng, (3, 2, 4, 2), 0.2),
            mixed_table(rng, (9, 2, 3), 0.0),
            mixed_table(rng, (8, 8, 2), 0.3),
        ]
        before = [search_repr(d) for d in cases]
        monkeypatch.setattr(whg, "_STACK_CELLS", cells)
        assert [search_repr(d) for d in cases] == before
        for d in cases:
            assert_matches_reference(d, QuerySpec.sum_query(d.n), 1.0)

    def test_wide_domains(self):
        # numpy sums 8 or more values along a contiguous last axis pairwise
        # and along any other axis one by one, so a wide x_j is where a sum
        # that followed the memory layout would part from the reference
        rng = np.random.default_rng(59)
        for sizes in ((2, 3, 10), (9, 9), (2, 2, 16), (2, 9, 2, 9)):
            dist = mixed_table(rng, sizes, 0.1)
            q = QuerySpec(tuple(rng.choice([-1.5, -1.0, 0.5, 1.0, 2.0], size=len(sizes))))
            for lam in (0.05, 0.7, 3.0):
                assert_matches_reference(dist, q, lam)

    def test_fill_computes_exactly_the_sets_asked_for(self, monkeypatch):
        rng = np.random.default_rng(58)
        dist = sized_table(rng, 6, 2)
        q = QuerySpec.sum_query(6)
        computed, asked = [], set()
        compute, values = whg._TableEdges._compute, whg._TableEdges.values

        def record_compute(self, sets, k):
            computed.extend(sets.tolist())
            return compute(self, sets, k)

        def record_values(self, i, masks, j):
            asked.update((masks | (1 << np.asarray(i))).tolist())
            return values(self, i, masks, j)

        monkeypatch.setattr(whg._TableEdges, "_compute", record_compute)
        monkeypatch.setattr(whg._TableEdges, "values", record_values)

        def counts():
            out = []
            for search in (full_space_search, fast_search):
                computed.clear()
                asked.clear()
                search(dist, q, 1.0)
                # each set T = K u {i} once per search, and only if an edge
                # asked for it
                assert len(computed) == len(set(computed))
                assert set(computed) == asked
                out.append(len(computed))
            return out

        # a full search asks for every set of two or more tuples; the fast
        # one skips some on this table
        full, fast = counts()
        assert full == (1 << 6) - 1 - 6 > fast
        # chunks of two masks make calls that lack only some sets of a size
        # class, and 40 cells split their stacks
        monkeypatch.setattr(whg, "_STACK_CELLS", 40)
        monkeypatch.setattr(whg, "_EXPAND_CHUNK", 2)
        assert counts() == [full, fast]
        assert_matches_reference(dist, q, 1.0)

    def test_fast_ties_break_by_child_mask(self):
        n = 6
        dist = dyadic_table()
        graph, report = fast_search(dist, QuerySpec.sum_query(n), 1.0)
        layers, edges = graph_dicts(graph)
        for i in range(n):
            layer3 = [nd for nd in layers[2] if nd[0] == i]
            assert len({layers[2][nd] for nd in layer3}) == 1
            assert len(layer3) == 10
            expanded = {nd for (nd, _) in edges if nd in layer3}
            by_mask = sorted(layer3, key=lambda nd: sum(1 << t for t in nd[1]))
            assert expanded == set(by_mask[:n])
        assert report.node_count == 180


class TestGraphArrays:
    """The node and edge arrays of a table search, on binary and ternary
    tables without zero cells."""

    @pytest.mark.parametrize("mode", ["full", "fast"])
    @pytest.mark.parametrize("size, sizes_n", [(2, (2, 3, 4, 5, 6)), (3, (2, 3, 4))])
    def test_rows(self, mode, size, sizes_n):
        rng = np.random.default_rng(61 + size)
        search = full_space_search if mode == "full" else fast_search
        for n in sizes_n:
            graph, report = search(sized_table(rng, n, size), QuerySpec.sum_query(n), 1.0)
            nodes, edges = graph.nodes, graph.edges
            assert graph.n == n
            assert len(nodes) == report.node_count
            keys = set(zip(nodes["attack"].tolist(), nodes["mask"].tolist()))
            assert len(keys) == len(nodes)
            assert not ((nodes["mask"] >> nodes["attack"]) & 1).any()
            # edge_indices' contract: j is in the child's K and attack is not
            assert ((edges["mask"] >> edges["j"]) & 1 == 1).all()
            assert not ((edges["mask"] >> edges["attack"]) & 1).any()
            # every edge joins a computed child to a computed ancestor
            for i, j, mask, _ in edges.tolist():
                assert (i, mask) in keys and (i, mask ^ (1 << j)) in keys
            if mode == "full":
                assert len(nodes) == n * 2 ** (n - 1)
                assert len(edges) == n * (n - 1) * 2 ** (n - 2)

    def test_node_value(self, table_a, sum2):
        graph, _ = full_space_search(table_a, sum2, 1.0)
        for i, mask, value in graph.nodes.tolist():
            assert graph.node_value((i, mask_tuple(mask))) == value
            # K in any order
            assert graph.node_value((i, mask_tuple(mask)[::-1])) == value
        # a two-tuple table has no tuple 2 to attack
        with pytest.raises(ValueError, match="out of range"):
            graph.node_value((2, ()))
        with pytest.raises(ValueError, match="prior set"):
            graph.node_value((1, (0, 1)))


class TestDegenerateTuples:
    """A full search reaches all n 2^(n-1) nodes when a tuple has a zero
    coefficient or a single value, and its report's argmax is a key of
    pdp_exact_all."""

    def test_zero_coefficient_is_the_small_coefficient_limit(self):
        rng = np.random.default_rng(69)
        cases = [(load_distribution(ZERO_COEF_TABLE), [0.0, 1.0])]
        for n in (3, 4, 5):
            coeffs = list(rng.choice([-1.5, -1.0, 0.5, 1.0, 2.0], size=n))
            coeffs[int(rng.integers(n))] = 0.0
            cases.append((sized_table(rng, n, 2, zero_frac=0.1), coeffs))
        for dist, coeffs in cases:
            query = QuerySpec(tuple(coeffs))
            graph, report = full_space_search(dist, query, 0.8)
            n = dist.n
            assert report.node_count == len(graph.nodes) == n * 2 ** (n - 1)
            assert report.argmax in pdp_exact_all(dist, query, 0.8)
            small = QuerySpec(tuple(1e-13 if a == 0.0 else a for a in coeffs))
            limit, _ = full_space_search(dist, small, 0.8)
            np.testing.assert_array_equal(graph.nodes[["attack", "mask"]],
                                          limit.nodes[["attack", "mask"]])
            np.testing.assert_allclose(graph.nodes["value"], limit.nodes["value"],
                                       rtol=0, atol=1e-9)

    def test_one_value_tuple_reads_zero(self):
        rng = np.random.default_rng(70)
        cases = [load_distribution(ONE_VALUE_TABLE)]
        cases += [mixed_table(rng, sizes, 0.1) for sizes in ((2, 1, 3), (1, 2, 2, 2))]
        for dist in cases:
            n = dist.n
            query = QuerySpec.sum_query(n)
            graph, report = full_space_search(dist, query, 1.0)
            assert report.node_count == len(graph.nodes) == n * 2 ** (n - 1)
            exact = pdp_exact_all(dist, query, 1.0)
            assert report.argmax in exact
            for i, mask, value in graph.nodes.tolist():
                if len(dist.domains[i]) == 1:
                    assert value == exact[i, mask_tuple(mask)].leakage == 0.0


def dyadic_table():
    """Exchangeable binary table over 6 tuples with dyadic cells: every
    marginal is exact, so all nodes of a layer tie bit for bit, within and
    across attacked tuples."""
    weight = np.array([40, 8, 2, 1, 2, 8, 40]) / 256
    cells = np.array([weight[sum(x)] for x in itertools.product((0, 1), repeat=6)])
    return JointDistribution([(0.0, 1.0)] * 6, cells.reshape((2,) * 6))


def mixed_table(rng, sizes, zero_frac=0.0):
    """Random table with the given domain size per tuple."""
    domains = [tuple(np.sort(rng.uniform(0.0, 1.5, size=s))) for s in sizes]
    probs = rng.dirichlet(np.ones(math.prod(sizes))).reshape(sizes)
    if zero_frac:
        probs[rng.random(probs.shape) < zero_frac] = 0.0
        probs /= probs.sum()
    return JointDistribution(domains, probs)


def search_repr(dist):
    """Every node value, edge and report field of both searches, as text, so
    that equal means equal bit for bit (signed zeros included)."""
    q = QuerySpec.sum_query(dist.n)
    out = []
    for search in (full_space_search, fast_search):
        graph, report = search(dist, q, 0.9)
        out.append(repr((*graph_dicts(graph), report.node_count, report.argmax,
                         report.leakage, report.layer_max)))
    return out


def dense_edges(n, value_fn):
    """Every (i, K, j) edge for an n-tuple graph from an explicit rule, as a
    mapping for DictEdges."""
    out = {}
    for i in range(n):
        others = [t for t in range(n) if t != i]
        for size in range(1, n):
            for K in itertools.combinations(others, size):
                for j in K:
                    out[(i, K, j)] = value_fn(i, K, j)
    return out


class TestSyntheticSearch:
    def test_all_positive_edges_peak_at_top_layer(self):
        n, c = 4, 0.3
        edges = dense_edges(n, lambda i, K, j: c)
        rep = search_synthetic(DictEdges(edges, n), mode="full")
        assert rep.leakage == pytest.approx(1.0 + (n - 1) * c, abs=1e-12)
        assert n - len(rep.argmax[1]) == n
        fast = search_synthetic(DictEdges(edges, n), mode="fast")
        assert fast.leakage == pytest.approx(rep.leakage, abs=1e-12)

    def test_all_negative_edges_peak_at_first_layer(self):
        n, c = 4, 0.2  # c < 1/n keeps every partial sum positive
        edges = dense_edges(n, lambda i, K, j: -c)
        rep = search_synthetic(DictEdges(edges, n), mode="full")
        assert rep.leakage == pytest.approx(1.0, abs=1e-12)
        assert n - len(rep.argmax[1]) == 1

    def test_mixed_signs_peak_at_interior_layer(self):
        def rule(i, K, j):
            return 0.8 if len(K) == 2 else -1.5

        edges = dense_edges(3, rule)
        rep = search_synthetic(DictEdges(edges, 3), mode="full")
        assert rep.leakage == pytest.approx(1.8, abs=1e-12)
        assert 3 - len(rep.argmax[1]) == 2

    def test_min_merge_across_paths(self):
        edges = dense_edges(3, lambda i, K, j: 0.0)
        edges[(0, (1, 2), 1)] = 0.5
        edges[(0, (1, 2), 2)] = 0.9
        edges[(0, (2,), 2)] = 0.1
        edges[(0, (1,), 1)] = -0.9
        rep = search_synthetic(DictEdges(edges, 3), mode="full")
        # weakest adversary attacking 0: min(|1.5 + 0.1|, |1.9 - 0.9|) = 1.0
        assert rep.layer_max == pytest.approx({1: 1.0, 2: 1.9, 3: 1.0})

    def test_validation(self):
        edges = dense_edges(3, lambda i, K, j: 0.1)
        with pytest.raises(ValueError):
            search_synthetic(DictEdges(edges, 3), mode="greedy")

    @pytest.mark.parametrize("first", [math.nan, math.inf, -math.inf, -1.0])
    @pytest.mark.parametrize("mode", ["full", "fast"])
    def test_bad_first_layer_rejected(self, first, mode):
        # an EdgeMap's first layer is its scale, which it refuses before
        # any search can start
        with pytest.raises(ValueError, match="scale"):
            search_synthetic(EdgeMap(4, 0.5, seed=1, scale=first), mode=mode)

    @pytest.mark.parametrize("first, same", [(np.float64(1.3), 1.3), (np.int64(1), 1.0)])
    def test_numpy_first_layer_as_float(self, first, same):
        for mode in ("full", "fast"):
            assert (synthetic_repr(EdgeMap(6, 0.5, seed=2, scale=first), mode)
                    == synthetic_repr(EdgeMap(6, 0.5, seed=2, scale=same), mode))

    def test_missing_edge_found(self):
        edges = dense_edges(3, lambda i, K, j: 0.1)
        del edges[(0, (1, 2), 2)]
        with pytest.raises(KeyError):
            search_synthetic(DictEdges(edges, 3), mode="full")

    def test_generated_edges_fast_dominates_full(self):
        for seed in range(3):
            edges = EdgeMap(10, 0.6, seed=seed)
            rf = search_synthetic(edges, mode="full")
            ra = search_synthetic(edges, mode="fast")
            assert ra.leakage >= rf.leakage - 1e-12
            assert ra.node_count <= rf.node_count

    def test_generated_search_deterministic(self):
        edges = EdgeMap(9, 0.4, seed=5)
        r1 = search_synthetic(edges, mode="fast")
        r2 = search_synthetic(edges, mode="fast")
        assert r1.leakage == r2.leakage
        assert r1.argmax == r2.argmax


def peak_edges(peaks):
    """DictEdges at n=5 on which attacked tuple 4's nodes are worth 2.0 at
    the prior sets in `peaks`, 1.0 at its first layer and 0.5 elsewhere.
    Each edge carries the difference of its two node values, so every path
    into a node gives the node's value exactly. Tuples 0-3 stay at 0.5."""
    def value(i, K):
        return 1.0 if i == 4 and len(K) == 4 else 2.0 if i == 4 and K in peaks else 0.5

    return DictEdges(
        dense_edges(5, lambda i, K, j: value(i, tuple(t for t in K if t != j)) - value(i, K)), 5,
        [value(i, tuple(t for t in range(5) if t != i)) for i in range(5)],
    )


class TestArgmaxRule:
    """Both searches report the first maximal node in (attack, sorted prior
    tuple) order, on ties where that order and child-mask order disagree:
    K=(0,3) (mask 9) against K=(1,2) (mask 6) in one layer, and K=(0,) in
    layer 4 against K=(1,2) in layer 3."""

    @pytest.mark.parametrize("mode", ["full", "fast"])
    @pytest.mark.parametrize("peaks, want", [({(0, 3), (1, 2)}, (0, 3)), ({(0,), (1, 2)}, (0,))])
    def test_dict_edges(self, mode, peaks, want):
        rep = search_synthetic(peak_edges(peaks), mode=mode)
        assert rep.layer_max[1] == 1.0
        assert (rep.leakage, rep.argmax) == (2.0, (4, want))

    @pytest.mark.parametrize("domains, cells, want", [
        # swapping x0 with x1 and x2 with x3 at once leaves the table as it
        # is and maps K=(0,3) to (1,2)
        ([(0.0, 1.0)] * 4 + [(0.0, 2.0)],
         [1, 9, 0, 13, 0, 13, 5, 5, 0, 4, 0, 5, 0, 0, 14, 0,
          0, 4, 0, 0, 0, 5, 14, 0, 8, 2, 0, 0, 0, 0, 5, 21], (0, 3)),
        # x0 and x1 are exchangeable, and x2 and x3 take one value, so that
        # knowing them moves no node value: K=(0,) ties K=(1,) and (1,2)
        ([(0.0, 1.0), (0.0, 1.0), (0.0,), (0.0,), (0.0, 2.0)],
         [165, 113, 33, 9, 33, 9, 88, 62], (0,)),
    ])
    def test_table(self, domains, cells, want):
        # cells are multiples of 1/512, so every marginal is exact and the
        # tied nodes tie bit for bit
        shape = tuple(len(d) for d in domains)
        dist = JointDistribution(domains, np.reshape(cells, shape) / sum(cells))
        graph, report = full_space_search(dist, QuerySpec.sum_query(5), 0.25)
        ties = sorted(nd for nd, v in all_values(graph).items() if v == report.leakage)
        assert ties[0] == report.argmax == (4, want)
        assert (4, (1, 2)) in ties


def kernel_trace(kernel, edges, fast):
    """The nodes a kernel reports, as a map from (attacked tuple, layer) to
    {mask: value}, and the set of (i, j, mask, ic) edges it reports, values
    as text, so that equal means equal bit for bit. The attacked and removed
    tuples of a hook call may be ints or arrays aligned with the masks, and
    no node may be reported twice."""
    nodes, taken = {}, set()

    def on_layer(atts, layer, masks, vals):
        atts = np.broadcast_to(atts, masks.shape)
        for i, mask, v in zip(atts.tolist(), masks.tolist(), vals.tolist()):
            row = nodes.setdefault((i, layer), {})
            assert mask not in row
            row[mask] = repr(v)

    def on_edges(atts, js, masks, ics):
        atts, js = np.broadcast_to(atts, masks.shape), np.broadcast_to(js, masks.shape)
        for i, j, mask, ic in zip(atts.tolist(), js.tolist(), masks.tolist(), ics.tolist()):
            taken.add((i, j, mask, repr(ic)))

    kernel(edges, fast, on_layer, on_edges)
    return nodes, taken


def table_kernel_input(dist, lam):
    """The edge source a table search hands the kernel."""
    return whg._TableEdges(transform_linear_query(dist, QuerySpec.sum_query(dist.n)), lam)


def synthetic_repr(edges, mode):
    """A synthetic search's report as text, timing left out."""
    return repr(dataclasses.replace(search_synthetic(edges, mode=mode), elapsed=0.0))


class TestBatchedKernel:
    """The kernel's one pass per layer over every attacked tuple against the
    one edge-source call per (attacked tuple, layer, removed tuple) of
    tests/chain_reference.py."""

    @pytest.mark.parametrize("alpha", [2.0, 512.0])
    @pytest.mark.parametrize("corr", [-0.5, 0.2, 0.8])
    def test_edge_map_matches_reference(self, corr, alpha, monkeypatch):
        batched = whg._kernel
        for n in (1, 2, 5, 10):
            edges = EdgeMap(n, corr, seed=n, alpha=alpha)
            for fast in (False, True):
                nodes, taken = kernel_trace(batched, edges, fast)
                ref_nodes, ref_taken = kernel_trace(reference_kernel, edges, fast)
                assert nodes == ref_nodes
                assert taken == ref_taken
                if not fast:
                    assert len(taken) == n * (n - 1) * 2 ** max(n - 2, 0)
            reports = []
            for kernel in (batched, reference_kernel):
                monkeypatch.setattr(whg, "_kernel", kernel)
                reports.append([synthetic_repr(edges, mode) for mode in ("full", "fast")])
            assert reports[0] == reports[1]

    @pytest.mark.parametrize("chunk", [1, 7])
    def test_chunk_size_leaves_results_unchanged(self, chunk, monkeypatch):
        synthetic = [EdgeMap(9, corr, seed=3, alpha=4.0) for corr in (-0.5, 0.6)]
        rng = np.random.default_rng(59)
        tables = [sized_table(rng, 5, 2, zero_frac=0.2), mixed_table(rng, (3, 2, 4, 2), 0.2)]

        def reports():
            out = [synthetic_repr(e, mode) for e in synthetic for mode in ("full", "fast")]
            for dist in tables:
                # chunks take edges in another order; the graph is the same
                for search in (full_space_search, fast_search):
                    graph, report = search(dist, QuerySpec.sum_query(dist.n), 0.9)
                    layers, edges = graph_dicts(graph)
                    out.append(repr((layers, sorted(edges.items()),
                                     dataclasses.replace(report, elapsed=0.0))))
            return out

        before = reports()
        monkeypatch.setattr(whg, "_EXPAND_CHUNK", chunk)
        assert reports() == before

    @pytest.mark.parametrize("table", ["zero_cells", "dyadic"])
    def test_fast_selection_matches_reference(self, table):
        n = 6
        if table == "zero_cells":
            dist = sized_table(np.random.default_rng(60), n, 2, zero_frac=0.2)
        else:
            dist = dyadic_table()
        edges = table_kernel_input(dist, 1.0)
        nodes, taken = kernel_trace(whg._kernel, edges, True)
        ref_nodes, ref_taken = kernel_trace(reference_kernel, edges, True)
        assert nodes == ref_nodes
        assert taken == ref_taken
        by_layer = {}
        for (i, layer), row in nodes.items():
            by_layer.setdefault(layer, []).append(row)
        if table == "zero_cells":
            # the attacked tuples of a pruned layer keep unequal node counts,
            # some below n
            assert any(min(map(len, rows)) < n and len(set(map(len, rows))) > 1
                       for rows in by_layer.values())
        else:
            # every node of layer 3 ties, across attacked tuples too
            assert len({v for row in by_layer[3] for v in row.values()}) == 1
            assert [len(row) for row in by_layer[3]] == [10] * n


# averCorr and alpha values on which the bounded search is checked
PRUNE_CORRS = (-1.0, -0.9, -0.3, -0.05, 0.0, 0.05, 0.3, 0.9, 1.0)
PRUNE_ALPHAS = (0.5, 2.0, 512.0, 1e5)


class TestBoundedKernel:
    """Without an on_edges hook the kernel evaluates only the edges whose
    bounds() interval can still lower their parent's minimum."""

    @pytest.mark.parametrize("n, scales", [(2, (0.37, 1.0, 3.0)), (3, (0.37, 1.0, 3.0)),
                                           (5, (0.37, 3.0)), (8, (1.0,)), (11, (0.37,))])
    def test_reports_match_reference(self, n, scales, monkeypatch):
        corrs = PRUNE_CORRS if n < 11 else (-0.05, 0.9)
        maps = [EdgeMap(n, corr, seed=n, scale=scale, alpha=alpha)
                for corr in corrs for alpha in PRUNE_ALPHAS for scale in scales]
        reports = []
        for kernel in (whg._kernel, reference_kernel):
            monkeypatch.setattr(whg, "_kernel", kernel)
            reports.append([synthetic_repr(e, mode) for e in maps for mode in ("full", "fast")])
        assert reports[0] == reports[1]

    def test_most_edges_skip_the_quantile(self, monkeypatch):
        n = 10
        evaluated = []
        values = EdgeMap.values

        def counting(self, i, masks, j):
            evaluated.append(np.size(masks))
            return values(self, i, masks, j)

        monkeypatch.setattr(EdgeMap, "values", counting)
        search_synthetic(EdgeMap(n, 0.5, seed=1), mode="full")
        assert 0 < sum(evaluated) < 0.3 * n * (n - 1) * 2 ** (n - 2)
        # the kept edges depend only on how each attacked tuple's layer is
        # cut into chunks, so these counts hold at any packing of the rows
        assert sum(evaluated) == 5120
        evaluated.clear()
        search_synthetic(EdgeMap(n, 0.5, seed=1), mode="fast")
        assert sum(evaluated) == 2402


def pairs_of(n, i):
    """Every (child mask, removed tuple j) edge of attacked tuple i, as
    int64 arrays in j-major order."""
    masks = np.arange(1 << n, dtype=np.int64)
    masks = masks[(masks >> i) & 1 == 0]
    js = np.asarray([t for t in range(n) if t != i])[:, None]
    row, col = np.nonzero((masks >> js) & 1)
    return masks[col], js[row, 0]


def edge_sources():
    """values() of both edge sources and of DictEdges, and EdgeMap.bounds(),
    each as the method of a fresh source."""
    rng = np.random.default_rng(60)
    dist = mixed_table(rng, (2, 3, 2, 2, 3), 0.2)
    y = transform_linear_query(dist, QuerySpec.sum_query(dist.n))
    mapping = dense_edges(5, lambda i, K, j: (31 * i + 7 * j + sum(K)) % 11 / 10 - 0.5)
    return pytest.mark.parametrize("make", [
        lambda: EdgeMap(5, 0.4, seed=2, alpha=8.0).values,
        lambda: EdgeMap(5, 0.4, seed=2, alpha=8.0).bounds,
        lambda: whg._TableEdges(y, 0.7).values,
        lambda: DictEdges(mapping, 5).values,
    ], ids=["edge_map", "edge_map_bounds", "table", "dict"])


class TestEdgeSourceContract:
    @edge_sources()
    def test_array_j_equals_scalar_calls(self, make):
        for i in range(5):
            masks, js = pairs_of(5, i)
            # one increment per edge, or a pair of rows: (cmin, cmax) or (lo, hi)
            batched = np.asarray(make()(i, masks, js))
            expect = np.empty_like(batched)
            source = make()
            for j in np.unique(js).tolist():
                expect[..., js == j] = source(i, masks[js == j], j)
            assert repr(batched.tolist()) == repr(expect.tolist())

    @edge_sources()
    def test_array_i_equals_scalar_calls(self, make):
        atts, masks, js, expect = [], [], [], []
        for i in range(5):
            m, j = pairs_of(5, i)
            scalar = np.asarray(make()(i, m, j))
            aligned = np.asarray(make()(np.full(m.size, i), m, j))
            assert repr(aligned.tolist()) == repr(scalar.tolist())
            atts.append(np.full(m.size, i))
            masks.append(m)
            js.append(j)
            expect.append(scalar)
        # the edges of every attacked tuple in one call give the same bits too
        batched = np.asarray(make()(*map(np.concatenate, (atts, masks, js))))
        assert repr(batched.tolist()) == repr(np.concatenate(expect, axis=-1).tolist())

    @edge_sources()
    @pytest.mark.parametrize("bad", [1, -1, 5])
    def test_bad_j_in_array_rejected(self, make, bad):
        masks = np.asarray([0b00110, 0b01100, 0b10100], dtype=np.int64)
        js = np.asarray([2, bad, 4], dtype=np.int64)
        with pytest.raises(ValueError, match="indices"):
            make()(1, masks, js)
        with pytest.raises(ValueError, match="indices"):
            make()(1, masks[:1], bad)

    @edge_sources()
    @pytest.mark.parametrize("bad, match", [
        (-1, "indices"), (5, "indices"), (3, "indices"), (2, "belong")])
    def test_bad_i_in_array_rejected(self, make, bad, match):
        # the middle edge removes j = 3 from K = {2, 3}: i = 3 is its own j,
        # and i = 2 lies in its K
        masks = np.asarray([0b00110, 0b01100, 0b10100], dtype=np.int64)
        js = np.asarray([2, 3, 4], dtype=np.int64)
        make()(np.asarray([0, 0, 0], dtype=np.int64), masks, js)
        with pytest.raises(ValueError, match=match):
            make()(np.asarray([0, bad, 0], dtype=np.int64), masks, js)

    @edge_sources()
    def test_j_outside_child_rejected(self, make):
        # j = 3 lies in range but not in the child's K = {1, 2}
        make()(0, np.asarray([0b0110]), 2)
        with pytest.raises(ValueError, match="belong"):
            make()(0, np.asarray([0b0110]), 3)
        with pytest.raises(ValueError, match="belong"):
            make()(0, np.asarray([0b0110, 0b1010]), np.asarray([2, 2]))

    @edge_sources()
    def test_child_holding_i_rejected(self, make):
        with pytest.raises(ValueError, match="belong"):
            make()(0, np.asarray([0b0111]), 2)
