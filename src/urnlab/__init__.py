"""Limit laws for balanced multicolor urns: classify, predict, verify.

The package splits into thin layers.  core simulates trajectories and
ensembles of a replacement scheme; spectral recognizes which structural
family a replacement matrix belongs to and extracts the vectors the limit
theory is phrased in; laws turns a recognized structure into explicit
limit-law predictions per tracked linear statistic; oracle recomputes the
small-n identities behind those predictions by exact enumeration; verify
runs Monte Carlo ensembles against the predictions and renders verdicts;
cli wires everything to JSON configs and artifact files.

`import urnlab` loads none of them.  A public name, or a layer named as an
attribute (`urnlab.verify`), imports its home module on first use (PEP 562),
so `from urnlab import classify` loads core and spectral only.  The cli
module loads core, spectral and laws, which classify and predict need;
oracle-check adds oracle, simulate and verify add verify, and all adds both.
"""
__version__ = "0.1.0"

# The public names of each layer; _HOME maps each name to its layer.
_LAYERS = {
    "core": ("ReplacementSpec", "default_checkpoints", "new_spec", "simulate_many",
             "trajectory_rng"),
    "laws": ("LimitKind", "Normalization", "euler_ratio", "pi_n", "predict"),
    "oracle": ("compensated_martingale_check", "exact_conditional_variance_check",
               "exact_distribution", "exact_mean_linear", "exact_mean_vector"),
    "spectral": ("Family", "StructureClass", "classify"),
    "verify": ("EnsembleReport", "PredictionOutcome", "evaluate_report",
               "ks_standard_normal", "run_ensemble", "studentize"),
}
_HOME = {name: module for module, names in _LAYERS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name):
    # __import__ at level 1, as `from . import core` does, so that
    # `python -X importtime` still reports the module.
    if name in _LAYERS:
        return __import__(name, globals(), None, (), 1)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(__import__(_HOME[name], globals(), None, (), 1), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_LAYERS})
