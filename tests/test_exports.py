"""Every name a module exports in ``__all__`` exists in that module, and
every name it imports is used; the test modules import nothing unused
either.  Only ``gmrf`` works on a Cholesky factor."""
from __future__ import annotations

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import lgmbench

MODULES = sorted(info.name for info in pkgutil.iter_modules(lgmbench.__path__, "lgmbench."))
TEST_FILES = sorted(Path(__file__).parent.glob("*.py"))
SOURCE_FILES = sorted(Path(lgmbench.__file__).parent.glob("*.py"))


def test_the_package_has_its_modules():
    assert {"lgmbench.gmrf", "lgmbench.laplace", "lgmbench.mcmc", "lgmbench.models"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), "duplicate export"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []


def unused_imports(source: str) -> list:
    """Names bound by an import that the module never reads or exports."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    return sorted(imported - used - exported)


def test_unused_import_check_finds_a_planted_import():
    source = "from __future__ import annotations\nimport os.path\nfrom math import pi, tau as t\nprint(pi)\n"
    assert unused_imports(source) == ["os", "t"]


@pytest.mark.parametrize("name", MODULES)
def test_every_import_is_used(name):
    source = Path(importlib.util.find_spec(name).origin).read_text(encoding="utf-8")
    assert unused_imports(source) == []


@pytest.mark.parametrize("path", TEST_FILES, ids=lambda path: path.name)
def test_every_test_module_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


# Factorising a matrix, solving against a factor and taking a factor's
# log determinant belong to ``gmrf.Factor``, so that one method owns each
# rounding path.  ``np.linalg.inv`` (an LU of a matrix, not of a factor)
# and ``np.linalg.LinAlgError`` stay allowed.
FACTOR_WORDS = (
    "_umath_linalg",
    "lapack",
    "np.linalg.solve",
    "np.linalg.cholesky",
    "try_cholesky",
    "upper_triangular_solve",
    "np.diag(chol",
)


@pytest.mark.parametrize("path", [p for p in SOURCE_FILES if p.name != "gmrf.py"], ids=lambda path: path.name)
def test_only_gmrf_works_on_a_cholesky_factor(path):
    source = path.read_text(encoding="utf-8")
    assert [word for word in FACTOR_WORDS if word in source] == []
