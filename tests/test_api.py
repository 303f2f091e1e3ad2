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


# What each CLI command leaves loaded: CLI_BASE plus the layers it runs.
# classify and predict need no oracle and no verify, so they never compile them.
CLI_CONFIG = SRC.parent / "configs" / "two_color.json"
CLI_BASE = {"urnlab.core", "urnlab.spectral", "urnlab.laws", "urnlab.cli"}
CLI_LOADS = {
    "classify": set(),
    "predict": set(),
    "oracle-check": {"urnlab.oracle"},
    "simulate": {"urnlab.verify"},
    "verify": {"urnlab.verify"},
    "all": {"urnlab.oracle", "urnlab.verify"},
}


def _cli_args(command, out):
    return [command, "--config", str(CLI_CONFIG), "--horizon", "1000",
            "--ensemble", "100", "--out", str(out)]


@pytest.mark.parametrize("command", list(CLI_LOADS))
def test_each_command_loads_only_the_layers_it_runs(command, tmp_path):
    loaded = fresh_process(
        "from urnlab.cli import main\n"
        f"assert main({_cli_args(command, tmp_path)!r}) in (0, 1)"
    )
    assert set(loaded["urnlab"]) == CLI_BASE | CLI_LOADS[command]


# The names cli binds on first use, with their home layers.
CLI_NAMES_ON_USE = {
    "compensated_martingale_check": "oracle",
    "exact_conditional_variance_check": "oracle",
    "exact_mean_linear": "oracle",
    "evaluate_report": "verify",
    "run_ensemble": "verify",
}


def test_cli_names_bound_on_use_are_their_home_module_objects():
    from urnlab import cli

    assert {n: layer for layer, names in cli._LAZY.items() for n in names} == CLI_NAMES_ON_USE
    for name, layer in CLI_NAMES_ON_USE.items():
        home = importlib.import_module(f"urnlab.{layer}")
        assert getattr(cli, name) is getattr(home, name), name
    with pytest.raises(AttributeError, match="'urnlab.cli' has no attribute 'no_such_name'"):
        cli.no_such_name


@pytest.mark.parametrize("command, name", [
    ("simulate", "run_ensemble"),
    ("oracle-check", "exact_mean_linear"),
])
def test_cli_calls_a_wrapper_set_before_the_command_runs(command, name, monkeypatch, tmp_path):
    # perfbench's tracer wraps cli's names before main runs; loading the
    # layer must not put the plain function back.  The name is unbound
    # first, as in a fresh process, so getattr binds it through __getattr__.
    from urnlab import cli

    monkeypatch.delitem(vars(cli), name, raising=False)
    real = getattr(cli, name)
    calls = []

    def spy(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, name, spy)
    assert cli.main(_cli_args(command, tmp_path)) == 0
    assert calls
