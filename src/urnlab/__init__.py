"""Limit laws for balanced multicolor urns: classify, predict, verify.

The package splits into thin layers.  core simulates trajectories and
ensembles of a replacement scheme; spectral recognizes which structural
family a replacement matrix belongs to and extracts the vectors the limit
theory is phrased in; laws turns a recognized structure into explicit
limit-law predictions per tracked linear statistic; oracle recomputes the
small-n identities behind those predictions by exact enumeration; verify
runs Monte Carlo ensembles against the predictions and renders verdicts;
cli wires everything to JSON configs and artifact files.
"""
from .core import (
    EnsemblePaths,
    ReplacementSpec,
    default_checkpoints,
    new_spec,
    simulate_many,
    trajectory_rng,
)
from .laws import (
    LawPrediction,
    LimitKind,
    Normalization,
    euler_ratio,
    pi_n,
    predict,
)
from .oracle import (
    compensated_martingale_check,
    exact_conditional_variance_check,
    exact_distribution,
    exact_mean_linear,
    exact_mean_vector,
)
from .spectral import (
    Family,
    StructureClass,
    classify,
)
from .verify import (
    EnsembleReport,
    PredictionOutcome,
    ReportVerdict,
    VerdictPolicy,
    evaluate_report,
    ks_standard_normal,
    run_ensemble,
    studentize,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "EnsemblePaths",
    "ReplacementSpec",
    "default_checkpoints",
    "new_spec",
    "simulate_many",
    "trajectory_rng",
    "LawPrediction",
    "LimitKind",
    "Normalization",
    "euler_ratio",
    "pi_n",
    "predict",
    "compensated_martingale_check",
    "exact_conditional_variance_check",
    "exact_distribution",
    "exact_mean_linear",
    "exact_mean_vector",
    "Family",
    "StructureClass",
    "classify",
    "EnsembleReport",
    "PredictionOutcome",
    "ReportVerdict",
    "VerdictPolicy",
    "evaluate_report",
    "ks_standard_normal",
    "run_ensemble",
    "studentize",
]
