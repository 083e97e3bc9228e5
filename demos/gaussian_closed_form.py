"""Continuous data: closed-form leakage against the numeric oracle.

For jointly Gaussian tuples the leakage of any adversary is
(M / lambda) |1 + mu0i|, where mu0i is the weight of the attacked value
inside the conditional mean of the unknown-tuple sum. No search needed;
the grid oracle is only here to show the formula is right.
"""

import numpy as np

from priordp import (
    GaussianModel,
    leakage_gaussian,
    max_leakage_gaussian,
    pdp_numeric_gaussian,
)


def bivariate_sweep():
    print("bivariate model, M = 1, lambda = 1, leakage of the no-prior adversary")
    print(f"{'rho':>6} {'closed form':>12} {'grid oracle':>12}")
    for rho in (-1.0, -0.5, 0.0, 0.5, 1.0):
        m = GaussianModel(mu=[0.0, 0.0], sigma=[[1.0, rho], [rho, 1.0]])
        closed = leakage_gaussian(m, 0, [])
        grid = pdp_numeric_gaussian(m, 0, [])
        print(f"{rho:>6.1f} {closed:>12.6f} {grid:>12.6f}")
    print("negative correlation cancels the attacked tuple's own shift;")
    print("at rho = -1 the answer says nothing about it at all.\n")


def layer_profile():
    n, rho = 6, 0.4
    sigma = np.full((n, n), rho)
    np.fill_diagonal(sigma, 1.0)
    m = GaussianModel(mu=[0.0] * n, sigma=sigma)
    rep = max_leakage_gaussian(m)
    print(f"equicorrelated model, n = {n}, rho = {rho}")
    print("layer k = number of unknown tuples + 1 (k = n means no prior)")
    for layer in sorted(rep.layer_max):
        bar = "#" * round(20 * rep.layer_max[layer] / rep.leakage)
        print(f"  layer {layer}: {rep.layer_max[layer]:8.4f}  {bar}")
    print(f"maximum {rep.leakage:.4f} at adversary {rep.argmax} "
          f"({rep.node_count} adversaries enumerated in {rep.elapsed*1e3:.1f} ms)")


if __name__ == "__main__":
    bivariate_sweep()
    layer_profile()
