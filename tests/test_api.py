"""Every name that a fibdecide module lists in __all__ resolves, so
`from fibdecide.<module> import *` works for each module."""

import importlib
import pkgutil

import pytest

import fibdecide

MODULES = ["fibdecide"] + [f"fibdecide.{m.name}" for m in pkgutil.iter_modules(fibdecide.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    missing = [attr for attr in mod.__all__ if not hasattr(mod, attr)]
    assert not missing, f"{name}.__all__ lists missing names {missing}"
