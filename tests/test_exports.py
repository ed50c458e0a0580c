"""Every name a ``repro`` subpackage lists in ``__all__`` must resolve.

A module deleted or renamed under a package whose ``__init__`` still
re-exports it fails at import; a name left in ``__all__`` after its import
is gone only fails at ``from repro.x import *`` or at the first caller.
"""
import importlib

import pytest

SUBPACKAGES = [
    "core", "parallel", "kernels", "experiments", "workloads", "amr", "hydro",
    "incomp", "eos", "burn", "io", "codesign", "testing",
]


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_every_exported_name_resolves(name):
    package = importlib.import_module(f"repro.{name}")
    dangling = [attr for attr in package.__all__ if not hasattr(package, attr)]
    assert not dangling, f"repro.{name}.__all__ names missing attributes: {dangling}"
