"""Run the examples in every chebflag module's docstrings as tests, and pin
each module's __all__ as the one list of its public names."""

import doctest
import importlib
import pkgutil
from types import ModuleType

import pytest

import chebflag

MODULES = sorted(
    f"chebflag.{info.name}" for info in pkgutil.iter_modules(chebflag.__path__)
)


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0


def test_doctests_are_found():
    attempted = sum(
        doctest.testmod(importlib.import_module(name)).attempted
        for name in MODULES
    )
    assert attempted > 0


@pytest.mark.parametrize("name", MODULES)
def test_public_names_are_defined(name):
    # each module's __all__ is the one list of its public names
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_package_root_binds_only_the_version():
    names = {
        n for n, v in vars(chebflag).items()
        if not n.startswith("_") and not isinstance(v, ModuleType)
    }
    assert names == set() and chebflag.__version__
