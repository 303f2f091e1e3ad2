import importlib

import pytest

MODULES = ["urnlab"] + [
    f"urnlab.{name}" for name in ("core", "spectral", "laws", "oracle", "verify")
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist_once(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert sorted(n for n in set(exported) if exported.count(n) > 1) == []
    assert [n for n in exported if not hasattr(module, n)] == []
