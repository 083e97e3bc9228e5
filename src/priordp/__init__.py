"""Privacy leakage of Laplace-perturbed linear queries against adversaries
with prior knowledge over correlated databases.

Discrete joint tables get an exact brute-force oracle plus chain-rule graph
searches; multivariate Gaussian models get a closed form with a numeric
cross-check. Synthetic generators feed scaling experiments, and the
`priordp` console script fronts everything.
"""

from .errors import (
    DegenerateVariable,
    InfeasibleCorrelation,
    PrivacyModelError,
    SearchSpaceExceeded,
    SingularConditioning,
)
from .model_discrete import (
    JointDistribution,
    QuerySpec,
    distribution_to_json,
    global_sensitivity,
    load_distribution,
    local_sensitivity,
    marginal,
    pearson_corr,
    transform_linear_query,
)
from .model_gaussian import (
    GaussianModel,
    Mu0Expansion,
    leakage_gaussian,
    load_gaussian_model,
    log_g,
    max_leakage_gaussian,
    mu0_expand,
)
from .oracle import (
    OracleResult,
    pdp_exact_all,
    pdp_exact_discrete,
    pdp_numeric_gaussian,
)
from .report import LeakageReport
from .synth import (
    EdgeMap,
    gen_covariance,
    gen_discrete_corr,
    mean_pairwise_corr,
    splitmix64,
)
from .whg import (
    WeightedHierGraph,
    fast_search,
    full_space_search,
    search_synthetic,
)

__version__ = "0.1.0"

__all__ = [
    "DegenerateVariable",
    "EdgeMap",
    "GaussianModel",
    "InfeasibleCorrelation",
    "JointDistribution",
    "LeakageReport",
    "Mu0Expansion",
    "OracleResult",
    "PrivacyModelError",
    "QuerySpec",
    "SearchSpaceExceeded",
    "SingularConditioning",
    "WeightedHierGraph",
    "distribution_to_json",
    "fast_search",
    "full_space_search",
    "gen_covariance",
    "gen_discrete_corr",
    "global_sensitivity",
    "leakage_gaussian",
    "load_distribution",
    "load_gaussian_model",
    "local_sensitivity",
    "log_g",
    "marginal",
    "max_leakage_gaussian",
    "mean_pairwise_corr",
    "mu0_expand",
    "pdp_exact_all",
    "pdp_exact_discrete",
    "pdp_numeric_gaussian",
    "pearson_corr",
    "search_synthetic",
    "splitmix64",
    "transform_linear_query",
]
