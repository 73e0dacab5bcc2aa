import importlib
import pkgutil

import pytest

import k3gonal

MODULES = sorted(
    f"k3gonal.{m.name}" for m in pkgutil.iter_modules(k3gonal.__path__)
    if not m.name.startswith("_")
)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_package_exports_are_the_submodules_objects():
    # each package-level name resolves and is the very object the submodule
    # exporting it holds, so a stale or shadowed re-export shows here
    owners = {}
    for name in MODULES:
        module = importlib.import_module(name)
        for n in module.__all__:
            owners.setdefault(n, []).append(module)
    assert len(set(k3gonal.__all__)) == len(k3gonal.__all__)
    for n in k3gonal.__all__:
        assert hasattr(k3gonal, n), n
        assert n in owners, f"{n} is exported by no submodule"
        assert all(getattr(k3gonal, n) is getattr(m, n) for m in owners[n]), n
