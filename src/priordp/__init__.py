"""Privacy leakage of Laplace-perturbed linear queries against adversaries
with prior knowledge over correlated databases.

Discrete joint tables get an exact brute-force oracle plus chain-rule graph
searches; multivariate Gaussian models get a closed form with a numeric
cross-check. Synthetic generators feed scaling experiments, and the
`priordp` console script fronts everything.
"""

from .errors import (
    DegenerateVariable,
    ImpossibleCondition,
    InfeasibleCorrelation,
    PrivacyModelError,
    SearchSpaceExceeded,
    SingularConditioning,
)
from .model_discrete import (
    ConditionalTable,
    JointDistribution,
    QuerySpec,
    conditional,
    corr_sign_2x2,
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
    conditional_gaussian,
    g_function,
    gaussian_model_to_json,
    leakage_gaussian,
    load_gaussian_model,
    log_g,
    max_leakage_gaussian,
    mu0_expand,
)
from .oracle import (
    OracleResult,
    bayesian_gain,
    dp_exact,
    pdp_exact_discrete,
    pdp_numeric_gaussian,
)
from .report import AdversaryNode, LeakageReport, summarize_layers
from .synth import (
    EdgeMap,
    gen_covariance,
    gen_discrete_corr,
    gen_whg_edges,
    mean_pairwise_corr,
    splitmix64,
)
from .whg import (
    WeightedHierGraph,
    fast_search,
    first_layer,
    full_space_search,
    ir_value,
    load_synthetic_edges,
    search_synthetic,
)

__version__ = "0.1.0"

__all__ = [
    "AdversaryNode",
    "ConditionalTable",
    "DegenerateVariable",
    "EdgeMap",
    "GaussianModel",
    "ImpossibleCondition",
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
    "bayesian_gain",
    "conditional",
    "conditional_gaussian",
    "corr_sign_2x2",
    "distribution_to_json",
    "dp_exact",
    "fast_search",
    "first_layer",
    "full_space_search",
    "g_function",
    "gaussian_model_to_json",
    "gen_covariance",
    "gen_discrete_corr",
    "gen_whg_edges",
    "global_sensitivity",
    "ir_value",
    "leakage_gaussian",
    "load_distribution",
    "load_gaussian_model",
    "load_synthetic_edges",
    "local_sensitivity",
    "log_g",
    "marginal",
    "max_leakage_gaussian",
    "mean_pairwise_corr",
    "mu0_expand",
    "pdp_exact_discrete",
    "pdp_numeric_gaussian",
    "pearson_corr",
    "search_synthetic",
    "splitmix64",
    "summarize_layers",
    "transform_linear_query",
]
