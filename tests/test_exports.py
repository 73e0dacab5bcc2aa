import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import k3gonal
from k3gonal.cli import main

import leaves

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


SUBMODULES = ["errors", "exactmath", "brillnoether", "gonality", "chains", "pencil", "hilbert"]


def _fresh(code):
    """Run `code` in a new interpreter that imports this `k3gonal`; return the
    JSON it prints last."""
    src = str(Path(k3gonal.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    prelude = ("import json, sys\n"
               "loaded = lambda: sorted(m for m in sys.modules if m.startswith('k3gonal.'))\n")
    done = subprocess.run([sys.executable, "-c", prelude + code], env=env, capture_output=True,
                          text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_bare_import_loads_no_submodule():
    assert _fresh("import k3gonal\nprint(json.dumps(loaded()))") == []


def test_a_name_loads_only_its_submodule_and_what_that_imports():
    assert _fresh("from k3gonal import delta0\nprint(json.dumps(loaded()))") == [
        "k3gonal.brillnoether", "k3gonal.errors", "k3gonal.exactmath", "k3gonal.gonality"]


def test_star_import_binds_every_exported_name():
    names = _fresh("import k3gonal\nnames = {}\nexec('from k3gonal import *', names)\n"
                   "print(json.dumps([n for n in names if n != '__builtins__']))")
    assert sorted(names) == sorted(k3gonal.__all__) and len(names) == 37


def test_dir_lists_the_exports_and_the_submodules_before_any_import():
    listed = _fresh("import k3gonal\nprint(json.dumps([dir(k3gonal), loaded()]))")
    assert set(k3gonal.__all__) | set(SUBMODULES) <= set(listed[0])
    assert listed[1] == []


def test_dir_lists_the_exports_and_the_submodules_and_loads_nothing():
    # in process, so `__dir__` runs here and not only in a fresh interpreter
    before = sorted(m for m in sys.modules if m.startswith("k3gonal."))
    listed = dir(k3gonal)
    assert set(k3gonal.__all__) | set(k3gonal._EXPORTS) <= set(listed)
    assert sorted(m for m in sys.modules if m.startswith("k3gonal.")) == before


def test_each_submodule_resolves_as_a_package_attribute():
    code = f"import k3gonal\nprint(json.dumps([getattr(k3gonal, m).__name__ for m in {SUBMODULES}]))"
    assert _fresh(code) == [f"k3gonal.{m}" for m in SUBMODULES]


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        getattr(k3gonal, "nope")
    assert _fresh("import k3gonal\ntry:\n    from k3gonal import nope\nexcept ImportError:\n"
                  "    print(json.dumps(loaded()))") == []


@pytest.mark.parametrize("module, name", [
    ("gonality", "Decomposition"), ("chains", "construct_minimal"),
    ("chains", "_lightest_plus_one"), ("hilbert", "ht_violation_check"),
    ("hilbert", "HTConeReport"),
])
def test_retired_names_are_gone(module, name):
    # decompose returns a plain tuple and chains.witness is the one chain
    # builder, so these names are bound nowhere
    assert name not in k3gonal.__all__
    assert not hasattr(importlib.import_module(f"k3gonal.{module}"), name)
    with pytest.raises(AttributeError):
        getattr(k3gonal, name)


def test_a_package_name_follows_its_submodule(monkeypatch):
    # the package binds no exported name, so a name replaced on its submodule
    # is replaced on the package too, and restored with it
    from k3gonal import gonality

    original = gonality.delta0
    monkeypatch.setattr(gonality, "delta0", len)
    assert k3gonal.delta0 is len and "delta0" not in vars(k3gonal)
    monkeypatch.undo()
    assert k3gonal.delta0 is original


ROOT = Path(__file__).resolve().parents[1]
# the exported names that no command, acceptance test or benchmark target
# reaches, each with the reason it stays
UNREACHED = {
    "DivisorClass": "the divisor side of the exact Bayer-Macri rule for the Mori cone",
    "pairing": "pairs a DivisorClass with a CurveClass for that rule",
    "InvariantViolation": "raised only by a failed cross-check, as tests/guards.py's FAULTS fire",
}


def _owners():
    """The exported names by the code object of each function they hold: a
    function's own, or each one in a class's `vars`, `_make` included."""
    owners = {}
    for name in k3gonal.__all__:
        value = getattr(k3gonal, name)
        for member in vars(value).values() if isinstance(value, type) else (value,):
            function = getattr(member, "__func__", getattr(member, "fget", member))
            if hasattr(function, "__code__"):
                owners.setdefault(function.__code__, set()).add(name)
    return owners


def _run_codes(capsys):
    """The code objects that run under every pinned case of leaves.py."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for argv in leaves.CASES:
            assert main(["--format", "json", *argv.split()]) == 0, argv
    finally:
        sys.setprofile(previous)
    capsys.readouterr()
    return codes


def test_every_exported_name_is_reached(capsys):
    owners = _owners()
    # a method every value class shares runs one code object, which names no
    # one class
    reached = {name for code in _run_codes(capsys) if len(owners.get(code, ())) == 1
               for name in owners[code]}
    acceptance = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    reached |= {alias.name for node in ast.walk(acceptance) if isinstance(node, ast.ImportFrom)
                and node.module.startswith("k3gonal") for alias in node.names}
    tracer = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    (targets,) = [node.value for node in tracer.body if isinstance(node, ast.Assign)
                  and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]]
    reached |= {path.split(".")[0] for module, path in ast.literal_eval(targets)
                if k3gonal._OWNER.get(path.split(".")[0]) == module}
    assert [name for name in k3gonal.__all__ if name not in reached | UNREACHED.keys()] == []
    # a kept name that something reaches needs no reason
    assert reached.isdisjoint(UNREACHED)
