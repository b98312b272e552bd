import importlib
import pkgutil

import pytest

import hawkes_meanfield

MODULES = ["hawkes_meanfield"] + sorted(
    f"hawkes_meanfield.{m.name}" for m in pkgutil.iter_modules(hawkes_meanfield.__path__)
)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []
