"""A fixed, seeded corpus of every evaluator's results, pinned in
tests/data/pinned.json so that a change can show its results unchanged bit
for bit, or state how far they moved.

    PYTHONPATH=src python tests/pin_corpus.py     # rewrites the file

test_pinned.py builds the corpus afresh and compares it with the file
exactly. The file is rewritten only for a deliberate change of results.

What it holds, floats as float.hex so that signed zeros and the last bit
count:
- tables: binary, ternary and mixed domain sizes, zero cells, signed and
  zero query coefficients, a one-value domain, a wide domain (10 values,
  where numpy's pairwise sum and a sum in order could part), and a domain
  whose centers lie exactly at and one ulp past the oracle's 1e-12 merge
  rule, each at lambda 0.3, 1 and 3. Per table and lambda: the full and
  fast reports (leakage, layer_max, argmax, node_count), each with the
  sha256 of its nodes, and for n <= 7 every pdp_exact_all row (leakage,
  witness, kinks_evaluated), its adversary (i, K) written "i:k1,k2,...",
  with the sha256 of every row's witness values.
- synthetic: EdgeMap searches at n=10, averCorr +-0.5, alpha 2 and 512,
  scale 1 and 0.37, full and fast.
- gaussian: max_leakage_gaussian enumerations at n <= 10.

The node digest is the sha256 of the text lines "i mask value.hex()" of
every computed node, sorted, so it does not depend on how a search stores
its nodes. The witness digest is the sha256 of the sorted lines
"i:K xi xi_prime r_star assignment" of every oracle row, floats as
float.hex, a missing hypothesis as None and the assignment as "k=value"
pairs joined by commas.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from priordp import (
    EdgeMap,
    GaussianModel,
    JointDistribution,
    QuerySpec,
    fast_search,
    full_space_search,
    gen_covariance,
    gen_discrete_corr,
    max_leakage_gaussian,
    pdp_exact_all,
    search_synthetic,
)

PINNED = Path(__file__).parent / "data" / "pinned.json"

LAMBDAS = (0.3, 1.0, 3.0)

# most tuples for which the corpus holds the oracle's rows
ORACLE_N = 7


def _table(rng, sizes, zero_frac=0.0, domains=None):
    """A seeded table with the given domain size per tuple; sorted random
    domains in [0, 1.5) unless given, a fraction of cells zeroed. Built
    here rather than by the suites' helpers, so that the corpus does not
    move when they do."""
    if domains is None:
        domains = [tuple(np.sort(rng.uniform(0.0, 1.5, size=s))) for s in sizes]
    probs = rng.dirichlet(np.ones(math.prod(sizes))).reshape(sizes)
    if zero_frac:
        probs[rng.random(probs.shape) < zero_frac] = 0.0
        probs /= probs.sum()
    return JointDistribution(domains, probs)


def tables():
    """(name, distribution, query) of every table case."""
    rng = np.random.default_rng(2024)
    # the oracle merges sorted centers whose gap is at most 1e-12: with
    # x_0 = 0 the centers of tuple 1 sit one ulp past that gap and exactly
    # on it
    past = math.nextafter(1e-12, math.inf)
    edge = [(0.0, 1.0), (-past, 0.0, 1e-12), (0.0, 0.5, 2.0)]
    cases = [
        ("binary_n10", gen_discrete_corr(10, 0.5, 2, seed=1), None),
        ("binary_n7_zeros", _table(rng, (2,) * 7, 0.2), None),
        ("ternary_n6", gen_discrete_corr(6, 0.3, 3, seed=2), None),
        ("ternary_n5_zeros", _table(rng, (3,) * 5, 0.2), None),
        ("mixed_n5_zeros", _table(rng, (2, 3, 4, 2, 3), 0.15), None),
        ("signed_zero_coef_n6", _table(rng, (2, 3, 2, 2, 3, 2)), (1.0, -2.0, 0.0, 0.5, 1.0, -1.0)),
        ("one_value_n4", _table(rng, (2, 1, 3, 2), 0.1,
                                [(0.0, 1.0), (7.0,), (0.0, 1.0, 2.0), (0.0, 0.5)]), None),
        ("wide_n4", _table(rng, (10, 2, 3, 2), 0.1), None),
        ("merge_rule_n3", _table(rng, (2, 3, 3), 0.0, edge), None),
    ]
    return [(name, dist, QuerySpec(q) if q else QuerySpec.sum_query(dist.n))
            for name, dist, q in cases]


def _report(rep) -> dict:
    return {
        "leakage": rep.leakage.hex(),
        "layer_max": {str(k): v.hex() for k, v in sorted(rep.layer_max.items())},
        "argmax": None if rep.argmax is None else [rep.argmax[0], list(rep.argmax[1])],
        "node_count": rep.node_count,
    }


def node_digest(nodes) -> str:
    """sha256 of the sorted "i mask value.hex()" lines of (i, mask, value)
    triples."""
    lines = sorted(f"{i} {mask} {float(v).hex()}" for i, mask, v in nodes)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def witness_digest(rows) -> str:
    """sha256 of the sorted "i:K xi xi_prime r_star assignment" lines of
    pdp_exact_all rows."""
    def text(v):
        return "None" if v is None else float(v).hex()
    lines = sorted(
        f"{i}:{','.join(map(str, K))} {text(r.xi)} {text(r.xi_prime)} {text(r.r_star)} "
        + ",".join(f"{k}={text(v)}" for k, v in sorted(r.assignment.items()))
        for (i, K), r in rows.items()
    )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def table_case(name, dist, query, lam) -> dict:
    case = {"name": name, "lambda": lam.hex()}
    for mode, search in (("full", full_space_search), ("fast", fast_search)):
        graph, rep = search(dist, query, lam)
        case[mode] = _report(rep) | {"nodes": node_digest(graph.nodes.tolist())}
    if dist.n <= ORACLE_N:
        rows = pdp_exact_all(dist, query, lam)
        case["oracle"] = {
            "adversary": [f"{i}:{','.join(map(str, K))}" for i, K in rows],
            "leakage": [r.leakage.hex() for r in rows.values()],
            "witness": [r.witness for r in rows.values()],
            "kinks": [r.kinks_evaluated for r in rows.values()],
            "witness_digest": witness_digest(rows),
        }
    return case


def synthetic_cases() -> list[dict]:
    out = []
    for corr in (-0.5, 0.5):
        for alpha in (2.0, 512.0):
            for scale in (1.0, 0.37):
                edges = EdgeMap(10, corr, seed=3, scale=scale, alpha=alpha)
                case = {"name": f"edge_map_n10_c{corr}_a{alpha:g}_s{scale}"}
                for mode in ("full", "fast"):
                    case[mode] = _report(search_synthetic(edges, mode=mode))
                out.append(case)
    return out


def gaussian_models():
    """(name, model) of every Gaussian case."""
    rng = np.random.default_rng(7)
    a = rng.normal(size=(6, 6))
    return [
        ("equicorr_n10", GaussianModel(mu=np.zeros(10), sigma=gen_covariance(10, 0.3))),
        ("negative_equicorr_n8", GaussianModel(mu=np.zeros(8), sigma=gen_covariance(8, -0.1),
                                               M=2.0, lam=0.7)),
        ("random_n6", GaussianModel(mu=rng.normal(size=6), sigma=a @ a.T + 0.1 * np.eye(6),
                                    M=1.5, lam=0.3)),
    ]


def build() -> dict:
    return {
        "tables": [table_case(name, dist, q, lam)
                   for name, dist, q in tables() for lam in LAMBDAS],
        "synthetic": synthetic_cases(),
        "gaussian": [{"name": name, "enumerate": _report(max_leakage_gaussian(model))}
                     for name, model in gaussian_models()],
    }


def dumps(corpus: dict) -> str:
    """The file's text: one JSON value per line, keys in build order."""
    return json.dumps(corpus, indent=0) + "\n"


if __name__ == "__main__":
    PINNED.parent.mkdir(exist_ok=True)
    PINNED.write_text(dumps(build()), encoding="utf-8")
    print(f"wrote {PINNED} ({PINNED.stat().st_size} bytes)")
