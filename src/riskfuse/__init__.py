"""riskfuse: software project risk scoring.

Combines fuzzy DEMATEL criterion weighting, a crow-search-tuned
Takagi-Sugeno neuro-fuzzy risk-magnitude model, intuitionistic fuzzy
TOPSIS ranking, and a final weighted risk score over COCOMO-style
project data.
"""

from .anfis import (
    AnfisModel,
    apply_parameter_scaling,
    bell_membership,
    fit_consequents_least_squares,
    forward,
    init_fis,
    mape,
    rmse,
    subtractive_clustering,
)
from .config import PipelineConfig, load_config
from .dataset import (
    CriteriaCatalog,
    FeatureMapping,
    ProjectRecord,
    bundled_path,
    default_catalog,
    feature_table,
    load_dataset,
)
from .dematel import (
    DematelResult,
    aggregate_responses,
    normalize_direct_matrix,
    priority_weights,
    prominence_relation,
    total_relation_matrix,
)
from .ecsa import (
    EcsaConfig,
    OptimizationResult,
    decay_coefficient,
    dynamic_awareness_probability,
    global_update,
    local_neighborhood_update,
    optimize,
    reshuffle_neighborhoods,
)
from .errors import DataError, NumericalError, PipelineError, RiskfuseError
from .fuzzy import (
    DEFAULT_DEMATEL_SCALE,
    IntuitionisticFuzzyValue,
    LinguisticScale,
    cfcs_defuzzify,
    ifv_multiply,
    tfn_from_linguistic,
)
from .pipeline import (
    RiskReport,
    aggregate_risk,
    cv_folds,
    potential_scores,
    run_pipeline,
    split_train_test,
    tune_anfis_with_ecsa,
)
from .reporting import emit_report, read_report
from .topsis import (
    CriterionKind,
    IfDecisionMatrix,
    closeness,
    ideal_solutions,
    rank_alternatives,
    rank_weighted,
    separation_measures,
    weighted_if_matrix,
)

__version__ = "0.1.0"
