"""Every ``l1gp`` module declares exactly its public API in ``__all__``."""

import importlib
import inspect
import pkgutil

import pytest

import l1gp

MODULES = ["l1gp"] + [
    f"l1gp.{info.name}" for info in pkgutil.iter_modules(l1gp.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_matches_public_definitions(name):
    mod = importlib.import_module(name)
    exported = getattr(mod, "__all__", None)
    assert exported is not None, f"{name} has no __all__"
    missing = [attr for attr in exported if not hasattr(mod, attr)]
    assert not missing, f"{name}.__all__ names undefined {missing}"
    defined = [
        attr
        for attr, obj in vars(mod).items()
        if not attr.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == name
    ]
    unlisted = sorted(set(defined) - set(exported))
    assert not unlisted, f"{name} defines public {unlisted} outside __all__"
