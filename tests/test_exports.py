"""Public names: every ``__all__`` entry of the package and of each
module resolves, and none is listed twice."""

import importlib
import pkgutil

import pytest

import tollopt

MODULES = ["tollopt"] + [
    f"tollopt.{info.name}" for info in pkgutil.iter_modules(tollopt.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_resolves_without_repeats(name):
    module = importlib.import_module(name)
    exported = list(module.__all__)
    assert len(exported) == len(set(exported))
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)
