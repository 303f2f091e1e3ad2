import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import urnlab

MODULES = ["urnlab"] + [
    f"urnlab.{name}" for name in ("core", "spectral", "laws", "oracle", "verify")
]
SRC = Path(urnlab.__file__).resolve().parent.parent


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist_once(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert sorted(n for n in set(exported) if exported.count(n) > 1) == []
    assert [n for n in exported if not hasattr(module, n)] == []


def fresh_process(statement):
    """Run `statement` in a new interpreter; report what it left loaded."""
    probe = (
        f"import json, sys\n{statement}\n"
        "print(json.dumps({'urnlab': sorted(m for m in sys.modules if m.startswith('urnlab.')),"
        " 'numpy': 'numpy' in sys.modules}))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_bare_import_loads_no_layer_and_no_numpy():
    assert fresh_process("import urnlab") == {"urnlab": [], "numpy": False}


def test_public_name_loads_only_its_home_modules():
    loaded = fresh_process("from urnlab import classify")["urnlab"]
    assert loaded == ["urnlab.core", "urnlab.spectral"]


def test_dir_lists_every_public_name_before_any_is_used():
    loaded = fresh_process(
        "import urnlab\nassert set(urnlab.__all__) <= set(dir(urnlab)), dir(urnlab)"
    )
    assert loaded["urnlab"] == []


def test_layers_resolve_after_bare_import():
    loaded = fresh_process(
        "import urnlab\nassert urnlab.verify.__name__ == 'urnlab.verify'\n"
        "from urnlab import cli\nassert cli.__name__ == 'urnlab.cli'"
    )
    assert {"urnlab.verify", "urnlab.cli"} <= set(loaded["urnlab"])


def test_public_names_are_their_home_module_objects():
    homes = set()
    for name in (n for n in urnlab.__all__ if n != "__version__"):
        value = getattr(urnlab, name)
        assert getattr(importlib.import_module(value.__module__), name) is value, name
        homes.add(value.__module__)
    assert homes == set(MODULES[1:])


def test_unknown_name_raises_attribute_error_naming_the_package():
    with pytest.raises(AttributeError, match="'urnlab' has no attribute 'no_such_name'"):
        urnlab.no_such_name
    with pytest.raises(ImportError):
        from urnlab import no_such_name  # noqa: F401


# The public surface, pinned so that no export or option comes back unnoticed.
PUBLIC_NAMES = [
    "__version__",
    "ReplacementSpec", "default_checkpoints", "new_spec", "simulate_many", "trajectory_rng",
    "LimitKind", "Normalization", "euler_ratio", "pi_n", "predict",
    "compensated_martingale_check", "exact_conditional_variance_check",
    "exact_distribution", "exact_mean_linear", "exact_mean_vector",
    "Family", "StructureClass", "classify",
    "EnsembleReport", "PredictionOutcome", "evaluate_report", "ks_standard_normal",
    "run_ensemble", "studentize",
]


def test_package_exports_are_pinned():
    assert urnlab.__all__ == PUBLIC_NAMES


@pytest.mark.parametrize("name, parameters", [
    ("simulate_many", ["spec", "horizon", "seed", "streams", "checkpoints", "track_vectors"]),
    ("run_ensemble", ["spec", "rows", "predictions", "horizon", "ensemble", "seed",
                      "checkpoints", "max_draws", "variance_scale"]),
    ("evaluate_report", ["report"]),
])
def test_entry_point_parameters_are_pinned(name, parameters):
    assert list(inspect.signature(getattr(urnlab, name)).parameters) == parameters
