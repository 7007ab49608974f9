"""Label-shift density-ratio estimation and importance-weighted training."""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "GOTO_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # before numpy loads: bits change with BLAS threads

from .data import (
    DataSource,
    GaussianMixtureSpec,
    RelaxedShiftSpec,
    equidistant_means,
    gen_gaussian_mixture,
    load_idx,
    perturb_relaxed,
    posterior_matrix,
    resample_by_marginal,
    sample_dirichlet_marginal,
    uniform_marginal,
)
from .estimators import (
    EstimateReport,
    EstimatorOptions,
    empirical_objective,
    empirical_objective_gradient,
    estimate_bbse,
    estimate_mlls_em,
    estimate_rlls,
    estimate_vrls,
)
from .federated import (
    Federation,
    FederationConfig,
    FederationNode,
    FederationResult,
    NodeSpec,
    ServerOptimizer,
    aggregate_ratios,
    build_federation,
    crossnode_listing_ratios,
    evaluate,
    exchange_marginals,
    train_global,
    weight_vectors,
)
from .metrics import TrialSummary, loglog_slope, ratio_mse, summarize
from .predictor import (
    Predictor,
    PredictorConfig,
    entropy_penalty,
    init_predictor,
    loss_and_grad,
    predict_labels,
    predict_proba,
    train_predictor,
    train_predictors,
)
from .types import (
    LabeledDataset,
    LabelMarginal,
    PROB_FLOOR,
    ProbabilityMatrix,
    RatioVector,
    make_marginal,
    ratio_from_marginals,
    read_features,
)

__version__ = "0.1.0"
