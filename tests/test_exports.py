import ast
import importlib
import pathlib
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


def test_package_has_no_assert_statements():
    # python -O strips asserts, so invariants must raise explicit exceptions
    found = []
    for path in sorted(pathlib.Path(hawkes_meanfield.__path__[0]).glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
