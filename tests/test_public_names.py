"""Every name a ``repro`` package exports resolves, once.

A deletion that leaves its name in an ``__all__`` breaks ``from … import *``
only when somebody runs it; this test runs it for every package.
"""

import importlib
import pkgutil
from collections import Counter

import pytest

import repro


def _packages():
    yield repro.__name__
    for info in pkgutil.walk_packages(repro.__path__, prefix=f"{repro.__name__}."):
        if info.ispkg:
            yield info.name


EXPORTING = [name for name in _packages() if hasattr(importlib.import_module(name), "__all__")]


def test_packages_that_export_are_found():
    assert "repro" in EXPORTING and "repro.fabric" in EXPORTING


@pytest.mark.parametrize("package", EXPORTING)
def test_every_exported_name_resolves_once(package):
    module = importlib.import_module(package)
    exported = list(module.__all__)
    assert [n for n, c in Counter(exported).items() if c > 1] == []
    assert [n for n in exported if not hasattr(module, n)] == []
