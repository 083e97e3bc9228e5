"""Walk the four reference tables and print every adversary's leakage.

Shows the core effect: with correlated tuples, an adversary who knows
LESS can learn MORE from the noisy query answer, because the unknown
tuples leak through their correlation with the attacked one.
"""

import numpy as np

from priordp import (
    JointDistribution,
    QuerySpec,
    full_space_search,
    pdp_exact_discrete,
    pearson_corr,
)

TABLES = {
    "positively correlated (rho = +0.2)": [[0.3, 0.2], [0.2, 0.3]],
    "negatively correlated (rho = -0.2)": [[0.2, 0.3], [0.3, 0.2]],
    "perfectly correlated": [[0.5, 0.0], [0.0, 0.5]],
    "near-perfect positive": [[0.49, 0.01], [0.01, 0.49]],
    "near-perfect negative": [[0.01, 0.49], [0.49, 0.01]],
}


def main():
    query = QuerySpec.sum_query(2)
    lam = 1.0
    for label, cells in TABLES.items():
        dist = JointDistribution([(0.0, 1.0), (0.0, 1.0)], np.asarray(cells))
        rho = pearson_corr(dist, 0, 1)
        graph, report = full_space_search(dist, query, lam)
        strong = graph.node_value((0, (1,)))
        weak = graph.node_value((0, ()))
        oracle = pdp_exact_discrete(dist, query, lam, 0, ()).leakage
        print(f"\n{label}  (measured rho {rho:+.2f})")
        print(f"  knows the other tuple : leakage {strong:.6f}")
        print(f"  knows nothing         : leakage {weak:.6f}"
              f"  (brute force agrees: {oracle:.6f})")
        amp = "amplifies" if weak > strong else "shrinks"
        print(f"  prior ignorance {amp} leakage by {abs(weak - strong):.6f}")
        print(f"  worst adversary overall: {report.argmax} "
              f"at {report.leakage:.6f}")


if __name__ == "__main__":
    main()
