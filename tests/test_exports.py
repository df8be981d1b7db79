"""Every name a module exports must resolve.

``from repro.x import *`` and the documented public surface both read
``__all__``; a name left there after its definition was deleted only fails
when someone imports it.  This test imports ``repro`` and every ``repro.*``
module and resolves each exported name.
"""

import importlib
import pkgutil

import pytest

import repro

MODULES = ["repro"] + sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
)


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    missing = [name for name in exported if not hasattr(module, name)]
    assert missing == [], f"{module_name}.__all__ names undefined {missing}"
