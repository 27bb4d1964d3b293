"""Every name a buildlag module lists in __all__ exists, and the module
star-imports: a name left in __all__ after its definition is deleted fails
here even when nothing else imports it."""

import importlib
import pkgutil

import pytest

import buildlag

MODULES = [m for m in (importlib.import_module(f"buildlag.{info.name}")
                       for info in pkgutil.iter_modules(buildlag.__path__))
           if hasattr(m, "__all__")]


def test_the_public_modules_list_their_names():
    assert {m.__name__ for m in MODULES} >= {"buildlag.boundary", "buildlag.demand",
                                             "buildlag.montecarlo", "buildlag.policy"}


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_listed_name_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
    namespace = {}
    exec(f"from {module.__name__} import *", namespace)
    assert set(module.__all__) <= namespace.keys()
