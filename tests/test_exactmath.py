import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import k3gonal
from k3gonal.exactmath import exact_sqrt


def test_exact_sqrt_examples():
    assert exact_sqrt(9) == 3
    assert exact_sqrt(0) == 0
    assert exact_sqrt(10) is None


def test_exact_sqrt_rejects_negative():
    with pytest.raises(ValueError):
        exact_sqrt(-1)


@given(s=st.integers(min_value=0, max_value=10**6))
def test_exact_sqrt_roundtrip(s):
    assert exact_sqrt(s * s) == s


@given(n=st.integers(min_value=0, max_value=10**12))
def test_exact_sqrt_verdict(n):
    s = exact_sqrt(n)
    if s is None:
        r = int(n**0.5)
        for c in (r - 1, r, r + 1, r + 2):
            assert c * c != n
    else:
        assert s * s == n


def test_rational_normalization_is_structural():
    assert Fraction(2, 4) == Fraction(1, 2)
    assert (Fraction(2, 4).numerator, Fraction(2, 4).denominator) == (1, 2)
    assert Fraction(3, -6) == Fraction(-1, 2)
    assert Fraction(3, -6).denominator == 2


@pytest.mark.parametrize("path", sorted(Path(k3gonal.__file__).parent.glob("*.py")),
                         ids=lambda path: path.name)
def test_value_classes_are_made_only_by_value_class(path):
    # outside `exactmath`, nothing names `dataclass` (so every frozen value
    # class is made by `_value_class`), assigns an object's `__class__` or
    # calls a descriptor's `__set__` (so the retagging of `_make` and the
    # slot setters stay inside `_value_class`); nothing in the package sets
    # a field through `object.__setattr__` or builds past a constructor
    # through `object.__new__`; `__init__` imports no submodule, as its
    # exports are imported on first use
    for node in ast.walk(ast.parse(path.read_text(), path.name)):
        if path.name == "__init__.py" and isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = [node.module or ""] if isinstance(node, ast.ImportFrom) else [
                alias.name for alias in node.names]
            assert getattr(node, "level", 0) == 0 and not any(
                m.split(".")[0] == "k3gonal" for m in modules), f"{path.name}:{node.lineno}"
        if isinstance(node, ast.Attribute):
            assert ast.unparse(node) not in ("object.__setattr__", "object.__new__"), (
                f"{path.name}:{node.lineno}")
        if path.name != "exactmath.py":
            name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(
                node, "name", None)
            assert name not in ("dataclass", "make_dataclass", "__set__"), (
                f"{path.name}:{node.lineno}")
            assert not (isinstance(node, ast.Attribute) and node.attr == "__class__"
                        and isinstance(node.ctx, ast.Store)), f"{path.name}:{node.lineno}"
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "setattr":
                assert "__class__" not in ast.unparse(node), f"{path.name}:{node.lineno}"
