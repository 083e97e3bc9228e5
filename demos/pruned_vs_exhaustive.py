"""Scaling study on synthetic edge weights: exhaustive vs pruned search.

The exhaustive search touches every adversary (n * 2^(n-1) nodes); the
pruned one keeps only the n largest nodes per layer per attack, which
can only overestimate, never miss, the worst case. Both run over the
same hash-generated edges so the comparison is exact and reproducible.
"""

import time

from priordp import EdgeMap, search_synthetic


def sweep(n, corrs, seeds):
    print(f"{'averCorr':>8} {'full.l':>9} {'fast.l':>9} {'rel gap':>8} "
          f"{'t_full':>8} {'t_fast':>8}")
    for corr in corrs:
        gaps, tf, tp, fl, pl = [], 0.0, 0.0, 0.0, 0.0
        for seed in range(seeds):
            edges = EdgeMap(n, corr, seed=seed)
            full = search_synthetic(edges, mode="full")
            fast = search_synthetic(edges, mode="fast")
            assert fast.leakage >= full.leakage - 1e-12
            gaps.append((fast.leakage - full.leakage) / full.leakage)
            tf += full.elapsed
            tp += fast.elapsed
            fl, pl = full.leakage, fast.leakage
        print(f"{corr:>8.1f} {fl:>9.4f} {pl:>9.4f} "
              f"{sum(gaps)/len(gaps):>7.2%} {tf/seeds:>7.2f}s {tp/seeds:>7.3f}s")


def growth(ns):
    print("\nruntime growth (seed 0, averCorr 0.5)")
    print(f"{'n':>4} {'nodes':>8} {'t_full':>9} {'t_fast':>9}")
    for n in ns:
        edges = EdgeMap(n, 0.5, seed=0)
        full = search_synthetic(edges, mode="full")
        fast = search_synthetic(edges, mode="fast")
        print(f"{n:>4} {n * 2 ** (n - 1):>8} {full.elapsed:>8.3f}s "
              f"{fast.elapsed:>8.4f}s")
    print("full doubles per added tuple; fast stays polynomial.")


if __name__ == "__main__":
    t0 = time.perf_counter()
    sweep(15, (0.2, 0.5, 0.8), seeds=5)
    growth(range(10, 16))
    print(f"\ntotal {time.perf_counter() - t0:.1f}s")
