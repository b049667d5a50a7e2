"""Every name a module lists in ``__all__`` is one it defines."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import posmap

MODULES = [posmap] + [
    importlib.import_module(f"posmap.{m.name}")
    for m in pkgutil.iter_modules(posmap.__path__)
    if m.name != "__main__"
]


@pytest.mark.parametrize(
    "module", [m for m in MODULES if hasattr(m, "__all__")], ids=lambda m: m.__name__
)
def test_all_names_resolve(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
