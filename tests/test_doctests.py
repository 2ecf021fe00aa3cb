"""Run the examples in every chebflag module's docstrings as tests."""

import doctest
import importlib
import pkgutil

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
