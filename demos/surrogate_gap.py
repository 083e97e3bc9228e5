"""Measure where the chain-rule surrogate sits relative to the exact value.

The layered chain rule prices one forgotten tuple at a time by looking at
the output-density ratio on its two tails. On most instances that lands on
or above the brute-force supremum, but the supremum can sit at an interior
kink that no tail sees, so the surrogate is not a certified upper bound.
This script quantifies the gap on random instances instead of trusting it.
"""

import numpy as np

from priordp import JointDistribution, QuerySpec, full_space_search, pdp_exact_all


def random_instance(rng, n):
    sizes = rng.integers(2, 4, size=n)
    domains = [tuple(np.sort(rng.uniform(0.0, 1.5, size=s))) for s in sizes]
    probs = rng.dirichlet(np.ones(int(np.prod(sizes)))) + 0.01
    return JointDistribution(domains, (probs / probs.sum()).reshape(tuple(sizes)))


def main():
    rng = np.random.default_rng(7)
    gaps = []
    worst = None
    for _ in range(40):
        n = int(rng.integers(3, 5))
        dist = random_instance(rng, n)
        query = QuerySpec.sum_query(n)
        graph, _ = full_space_search(dist, query, 1.0)
        oracle = pdp_exact_all(dist, query, 1.0)
        # one row (attacked tuple, prior-set bitmask, chain value) per node
        for i, mask, chain in graph.nodes.tolist():
            K = tuple(t for t in range(n) if (mask >> t) & 1)
            exact = oracle[i, K]
            gap = chain - exact.leakage
            gaps.append(gap)
            if worst is None or gap < worst[0]:
                worst = (gap, [i, list(K)], chain, exact.leakage)
    gaps = np.asarray(gaps)
    under = int((gaps < -1e-9).sum())
    print(f"{gaps.size} adversary nodes over 40 random instances")
    print(f"chain - exact: mean {gaps.mean():+.4f}, min {gaps.min():+.4f}, "
          f"max {gaps.max():+.4f}")
    print(f"surrogate sits below the exact value on {under} nodes "
          f"({under / gaps.size:.1%})")
    gap, node, chain, exact = worst
    print(f"\nlargest undershoot: adversary {node}")
    print(f"  chain {chain:.6f} vs exact {exact:.6f}")
    print("the brute-force oracle (or the oracle-check command) is the")
    print("ground truth whenever a certified number matters.")


if __name__ == "__main__":
    main()
