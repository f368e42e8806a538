"""Every name a coverkit module lists in ``__all__`` resolves.

The bench's tracer wraps public functions by looking up each name in
``__all__``, so one stale name would break every traced run."""

import importlib
import pkgutil

import pytest

import coverkit

MODULES = ["coverkit"] + [
    f"coverkit.{info.name}" for info in pkgutil.iter_modules(coverkit.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_listed_name_resolves(name):
    module = importlib.import_module(name)
    listed = getattr(module, "__all__", [])
    assert len(set(listed)) == len(listed)
    assert [n for n in listed if not hasattr(module, n)] == []

