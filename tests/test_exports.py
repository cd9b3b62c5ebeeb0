"""Every name a module exports in ``__all__`` exists in that module."""
from __future__ import annotations

import importlib
import pkgutil

import pytest

import lgmbench

MODULES = sorted(info.name for info in pkgutil.iter_modules(lgmbench.__path__, "lgmbench."))


def test_the_package_has_its_modules():
    assert {"lgmbench.gmrf", "lgmbench.laplace", "lgmbench.mcmc", "lgmbench.models"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), "duplicate export"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []
