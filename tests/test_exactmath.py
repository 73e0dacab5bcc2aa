import ast
import copy
import dataclasses
import importlib
import inspect
import json
import pickle
import re
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path
from random import Random
from typing import NamedTuple

import pytest
from hypothesis import given, strategies as st

import k3gonal
from k3gonal import brillnoether, chains, gonality, hilbert, pencil
from k3gonal.exactmath import HIDDEN, _value_class, exact_sqrt
from k3gonal.pencil import BinaryForm, Pencil

import leaves


def test_exact_sqrt_examples():
    assert exact_sqrt(9) == 3
    assert exact_sqrt(0) == 0
    assert exact_sqrt(10) is None


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


def test_value_classes_import_no_dataclasses():
    # a fresh interpreter, without `site` so that no `.pth` file of the
    # environment imports anything first: importing the command line, and
    # running a well-formed command, which builds no argparse tree, load
    # none of `dataclasses` and the `inspect` and `copy` it imports
    src = str(Path(k3gonal.__file__).parent.parent)
    script = (
        "import json, sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "heavy = ('dataclasses', 'inspect', 'copy')\n"
        "loaded = lambda: [m for m in heavy if m in sys.modules]\n"
        "baseline = loaded()\n"
        "import k3gonal.cli\n"
        "imported = loaded()\n"
        "k3gonal.cli.main(['bn', 'rho', '-g', '9', '-r', '1', '-d', '6'])\n"
        "print(json.dumps([baseline, imported, loaded()]))\n"
    )
    run = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True,
                         check=True)
    baseline, imported, ran = json.loads(run.stdout.splitlines()[-1])
    assert baseline == [] and imported == baseline and ran == baseline


def test_command_line_imports_no_fractions():
    # a fresh interpreter, without `site`, runs every pinned case of
    # leaves.py in every format: every rational the command line prints is
    # computed from integers, so neither `fractions` nor the `decimal` it
    # imports is loaded past what the interpreter itself loaded first
    src = str(Path(k3gonal.__file__).parent.parent)
    script = (
        "import json, os, sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "heavy = ('fractions', 'decimal')\n"
        "loaded = lambda: [m for m in heavy if m in sys.modules]\n"
        "baseline = loaded()\n"
        "import k3gonal.cli\n"
        f"for argv in {leaves.argvs()!r}:\n"
        "    for fmt in ('table', 'json', 'csv'):\n"
        "        code = k3gonal.cli.main(['--format', fmt, *argv.split(), '--out', os.devnull])\n"
        "        assert code == 0, (argv, fmt)\n"
        "print(json.dumps([baseline, loaded()]))\n"
    )
    run = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True,
                         check=True)
    baseline, ran = json.loads(run.stdout.splitlines()[-1])
    assert baseline == [] and ran == baseline


def test_value_class_refuses_fewer_than_two_shown_or_compared_fields():
    class OneShown:
        n: int
        note: str = HIDDEN

    with pytest.raises(TypeError, match="OneShown"):
        _value_class(OneShown)


def test_value_class_refuses_a_field_without_default_after_one_with():
    class Misordered:
        a: int = 0
        b: int

    with pytest.raises(TypeError, match="Misordered.b"):
        _value_class(Misordered)


class Record(NamedTuple):
    """The contract of one value class, checked by the tests below."""

    cls: type
    signature: str  # str(inspect.signature(cls))
    args: tuple  # constructor arguments with distinct values
    fields: tuple  # every field of cls(*args), in `__slots__` order
    # library calls, each returning one value or a list of values; the first
    # values' reprs are pinned, in order
    builders: tuple
    pinned: tuple
    uncompared: tuple = ()  # the fields that take no part in `==` and `hash`
    # `__replace__` on the first value: the changes, and every field after
    # them or the error they raise
    replaced: tuple = ()
    pickled: bytes = b""  # the first value, pickled while the class was a dataclass
    refused: tuple = ()  # arguments the constructor refuses, with the TypeError's text
    # each function that builds the class by `_make`, with its calls' arguments
    unchecked: tuple = ()


# the (p, k) of the unchecked closed-form builds: p = 2..400, k = 2..9 and
# p near 10^40, where the large p include the minimal-q and the primitive
# isotropic shapes
GRID = [(p, k) for k in range(2, 10) for p in range(2, 401)] + [
    (p, k) for k in range(2, 10) for p in (
        10**40 - 1, 10**40, 10**40 + 1,
        10**20 * (10**20 + 1) * (k - 1), 10**40 * (k - 1) + 1)]


# a float is refused, never stored as the binary rational nearest it
# (Fraction(0.1) has denominator 2^55); an integer-only class names a
# Fraction, even a whole one, rather than scale it away
REFUSED = ((0.1, "float 0.1"), (Fraction(1, 2), "the Fraction Fraction(1, 2)"),
           (Fraction(2), "the Fraction Fraction(2, 1)"), ("1/2", "the str '1/2'"))


def _pencils():
    """Seeded pencils of k = 2..8, each with its wedge curve and a random
    smooth conic; 5 of the 35 wedge curves drop a zero term."""
    rng = Random(3)
    pencils = [pencil.random_pencil(k, rng) for k in range(2, 9) for _ in range(5)]
    return [(pen, pencil.wedge_curve(pen), pencil.random_smooth_conic(rng)) for pen in pencils]


def _draws():
    """Degrees k = 1..8, each with five seeded generators."""
    return [(k, Random(seed)) for k in range(1, 9) for seed in range(5)]


RECORDS = [
    Record(gonality.GonalityCase, "(p: int, k: int, delta: int)",
           (12, 3, 1), (12, 3, 1, 11, 2, -1, -9, False),
           (lambda: gonality.GonalityCase(9, 4, 2),),
           ("GonalityCase(p=9, k=4, delta=2, g=7, alpha=1, beta=2, rho=1, admissible=True)",),
           replaced=(({"delta": 1}, (9, 4, 1, 8, 1, 1, -1, False)), ({"g": 3}, ValueError)),
           refused=(((9.0, 4, 2), "float 9.0"), ((9, 4.0, 2), "float 4.0"),
                    ((9, 4, 2.0), "float 2.0")),
           pickled=b"\x80\x04\x95<\x00\x00\x00\x00\x00\x00\x00\x8c\x10k3gonal.gonality\x94"
           b"\x8c\x0cGonalityCase\x94\x93\x94)\x81\x94]\x94(K\tK\x04K\x02K\x07K\x01K"
           b"\x02K\x01\x88eb."),
    Record(brillnoether.NecessityReport,
           "(alpha: int, rho_at_alpha: int, satisfied: bool, threshold_delta: int)",
           (1, 2, 3, 4), (1, 2, 3, 4),
           (lambda: brillnoether.necessary_condition(9, 2, 1, 4),),
           ("NecessityReport(alpha=1, rho_at_alpha=1, satisfied=True, threshold_delta=1)",),
           unchecked=((brillnoether.necessary_condition, lambda: [
               (p, delta, 1, k) for p, k in GRID
               for delta in sorted({0, gonality.delta0(p, k), p // 2, p})]),)),
    Record(hilbert.CurveClass, "(p: int, k: int, a: int, y: int)", (8, 3, 1, 5), (8, 3, 1, 5),
           (lambda: hilbert.optimal_class(8, 2),), ("CurveClass(p=8, k=2, a=1, y=5)",),
           refused=(((8, 2, 1.0, 5), "float 1.0"), ((8, 2, 1, "5"), "str '5'"),
                    ((8, 2, True, 5), "bool True"), ((8.0, 2, 1, 5), "float 8.0"),
                    ((8, 2.0, 1, 5), "float 2.0")),
           unchecked=((hilbert.optimal_class, lambda: GRID),
                      (hilbert.extremal_ray_status, lambda: GRID))),
    Record(hilbert.RayReport,
           "(p: int, k: int, status: str, rays: tuple[k3gonal.hilbert.CurveClass, ...], "
           "q_scaled: int, notes: tuple[str, ...] = ())",
           tuple(range(6)), tuple(range(6)),
           (lambda: hilbert.extremal_ray_status(4, 3),),
           ("RayReport(p=4, k=3, status='PROVEN_BM', rays=(CurveClass(p=4, k=3, a=0, y=-1), "
            "CurveClass(p=4, k=3, a=1, y=6)), q_scaled=-12, notes=())",),
           unchecked=((hilbert.extremal_ray_status, lambda: GRID),)),
    Record(hilbert.LagrangianReport,
           "(p: int, k: int, has_isotropic: bool, s: int | None = None, "
           "alpha: int | None = None, value: int | None = None, not_nef: bool | None = None, "
           "necessary_condition_holds: bool | None = None, primitive: bool = False, "
           "n: int | None = None)",
           tuple(range(10)), tuple(range(10)),
           (lambda: hilbert.lagrangian_report(10, 2),),
           ("LagrangianReport(p=10, k=2, has_isotropic=True, s=3, alpha=2, value=-2, "
            "not_nef=False, necessary_condition_holds=True, primitive=True, n=3)",),
           unchecked=((hilbert.lagrangian_report, lambda: GRID),)),
    Record(BinaryForm, "(bound: int, coeffs)", (2, [1, 2, 3]), (2, (1, 2, 3)),
           (lambda: BinaryForm(1, (1, -1)) * BinaryForm(1, (1, 1)),),
           ("BinaryForm(bound=2, coeffs=(1, 0, -1))",),
           refused=tuple(((2, (v, 1, 0)), text) for v, text in REFUSED) + (
               ((2, [1, 0.5, 0]), "float 0.5"), ((True, (1, 2)), "bool True"),
               ((2.0, (1, 2, 3)), "float 2.0")),
           unchecked=(
               (BinaryForm.__mul__, lambda: [(pen.f, pen.g) for pen, _, _ in _pencils()]),
               (pencil.SymPlaneCurve.pullback,
                lambda: [(curve, *pencil._conic_forms(a)) for _, curve, a in _pencils()]),
               (pencil.wronskian, lambda: [(pen,) for pen, _, _ in _pencils()]),
               (pencil.diagonal_restriction,
                lambda: [(curve, pen.k) for pen, curve, _ in _pencils()]),
               (pencil._conic_forms, lambda: [(a,) for _, _, a in _pencils()]),
               (pencil._random_form, _draws))),
    Record(Pencil, "(f: k3gonal.pencil.BinaryForm, g: k3gonal.pencil.BinaryForm)",
           (BinaryForm(1, (1, 2)), BinaryForm(1, (3, 4))),
           (BinaryForm(1, (1, 2)), BinaryForm(1, (3, 4))),
           (lambda: Pencil(BinaryForm(2, (1, 0, -1)), BinaryForm(2, (0, 1, 0))),),
           ("Pencil(f=BinaryForm(bound=2, coeffs=(1, 0, -1)), "
            "g=BinaryForm(bound=2, coeffs=(0, 1, 0)))",),
           unchecked=((pencil.random_pencil, _draws),)),
    Record(pencil.SymPlaneCurve, "(degree: int, terms)",
           (1, {(1, 0, 0): 2, (0, 0, 1): 3}), (1, (((0, 0, 1), 3), ((1, 0, 0), 2))),
           (lambda: pencil.wedge_curve(
               Pencil(BinaryForm(3, (0, 0, 0, 1)), BinaryForm(3, (1, 0, 0, 0)))),),
           ("SymPlaneCurve(degree=2, terms=(((0, 2, 0), 1), ((1, 0, 1), -1)))",),
           refused=tuple(((1, terms), text) for v, text in REFUSED
                         for terms in ({(1, 0, 0): 1, (0, 1, 0): v}, [((1, 0, 0), v)])) + (
               ((1.0, {(1, 0, 0): 1}), "float 1.0"), ((1, {(1.0, 0, 0): 1}), "float 1.0"),
               ((1, [((0, 0, True), 1)]), "bool True")),
           unchecked=((pencil.wedge_curve, lambda: [(pen,) for pen, _, _ in _pencils()]),)),
    Record(hilbert.DivisorClass, "(p: int, k: int, a: int, c)", (8, 3, 2, Fraction(1, 2)),
           (8, 3, 2, Fraction(1, 2)),
           (lambda: hilbert.DivisorClass(8, 2, 1, Fraction(1, 2)),),
           ("DivisorClass(p=8, k=2, a=1, c=Fraction(1, 2))",),
           refused=(((8, 2, 1, 0.3), "float 0.3"), ((8, 2, 1.0, 0), "float 1.0"),
                    ((8, 2, "1", 0), "str '1'"), ((8, 2, 1, "1/2"), "str '1/2'"),
                    ((8, 2, True, 0), "bool True"), ((8, 2, 1, True), "bool True"),
                    ((8.0, 2, 1, 0), "float 8.0"), ((8, 2.0, 1, 0), "float 2.0"))),
    Record(hilbert.FamilyWitness, "(s: int, delta: int, curve: k3gonal.hilbert.CurveClass)",
           (1, 2, 3), (1, 2, 3),
           (lambda: hilbert.minimal_q_family(12, 3),),
           ("FamilyWitness(s=2, delta=4, curve=CurveClass(p=12, k=3, a=1, y=10))",)),
    Record(chains.ChainPartition, "(p: int, k: int, parts)",
           (9, 2, ((1, 2), (2, 1), (5, 1))), (9, 2, ((1, 2), (2, 1), (5, 1)), 4, 5),
           (lambda: chains.ChainPartition(8, 2, {1: 2, 2: 1, 4: 1}),
            lambda: chains.enumerate_partitions(5, 2)[2],
            lambda: chains.enumerate_partitions(12, 3)),
           ("ChainPartition(p=8, k=2, parts=((1, 2), (2, 1), (4, 1)))",
            "ChainPartition(p=5, k=2, parts=((2, 1), (3, 1)))"),
           uncompared=("g", "delta"),
           refused=(((8.0, 2, {8: 1}), "float 8.0"), ((8, 2.0, {8: 1}), "float 2.0"),
                    ((8, 2, {1: 2.0, 2: 1, 4: 1}), "float 2.0"),
                    ((8, 2, [(1.0, 2), (2, 1), (4, 1)]), "float 1.0")),
           replaced=(({"parts": ((8, 1),)}, (8, 2, ((8, 1),), 1, 7)),
                     ({"parts": {1: 3, 2: 1, 3: 1}}, (8, 2, ((1, 3), (2, 1), (3, 1)), 5, 3))),
           pickled=b"\x80\x04\x95I\x00\x00\x00\x00\x00\x00\x00\x8c\x0ek3gonal.chains\x94"
           b"\x8c\x0eChainPartition\x94\x93\x94)\x81\x94]\x94(K\x08K\x02K\x01K\x02\x86"
           b"\x94K\x02K\x01\x86\x94K\x04K\x01\x86\x94\x87\x94K\x04K\x04eb.",
           unchecked=((chains.enumerate_partitions,
                       lambda: [(p, k) for k in range(2, 7) for p in range(1, 31)]),)),
]


def _each(built):
    """The values a call returned: a list or tuple of them, or one value."""
    return built if isinstance(built, (list, tuple)) else [built]


def _of_class(built, cls):
    """The values of `cls` among those a call returned, each itself or held
    in a field of one, or in a tuple in such a field."""
    for value in _each(built):
        if type(value) is cls:
            yield value
            continue
        for name in type(value).__slots__:
            held = getattr(value, name)
            yield from (item for item in _each(held) if type(item) is cls)


def _package_trees():
    for path in sorted(Path(k3gonal.__file__).parent.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(), path.name)


def test_every_value_class_has_one_record():
    # every class that `_value_class` makes, in any module of the package,
    # has exactly one record, and every record names such a class
    decorated = [getattr(importlib.import_module(f"k3gonal.{module}"), node.name)
                 for module, tree in _package_trees() for node in ast.walk(tree)
                 if isinstance(node, ast.ClassDef)
                 and "_value_class" in map(ast.unparse, node.decorator_list)]
    assert sorted(record.cls.__name__ for record in RECORDS) == sorted(
        cls.__name__ for cls in decorated)
    assert {record.cls for record in RECORDS} == set(decorated)


def test_every_unchecked_build_is_listed():
    # each function (or method) outside `exactmath` that names `_make`, with
    # the class whose `_make` it names, is listed in that class's record
    made = set()
    for module, tree in _package_trees():
        if module == "exactmath":
            continue
        for top in tree.body:
            for node in top.body if isinstance(top, ast.ClassDef) else [top]:
                name = getattr(node, "name", None)
                if node is not top:
                    name = f"{top.name}.{name}"
                made.update((f"k3gonal.{module}", name, ast.unparse(n.value))
                            for n in ast.walk(node)
                            if isinstance(n, ast.Attribute) and n.attr == "_make")
    assert made == {(function.__module__, function.__qualname__, record.cls.__name__)
                    for record in RECORDS for function, _ in record.unchecked}


@pytest.mark.parametrize("record", RECORDS, ids=[record.cls.__name__ for record in RECORDS])
def test_value_class_constructors(record):
    cls, fields = record.cls, record.cls.__slots__
    # the constructor: its signature, `__match_args__` naming its parameters,
    # an `__init__` of the class's own module, every field read back, and
    # too few or too many arguments refused
    signature = inspect.signature(cls)
    assert str(signature) == record.signature
    assert cls.__match_args__ == tuple(signature.parameters)
    assert cls.__init__.__qualname__ == f"{cls.__name__}.__init__"
    assert cls.__init__.__module__ == cls.__module__
    assert tuple(getattr(cls(*record.args), name) for name in fields) == record.fields
    required = sum(p.default is inspect.Parameter.empty for p in signature.parameters.values())
    with pytest.raises(TypeError):
        cls(*record.args[:required - 1])
    with pytest.raises(TypeError):
        cls(*record.args, 0)
    # each method every value class has is one function body, not one
    # compiled per class
    for name in ("__eq__", "__hash__", "__repr__", "__getstate__", "__setstate__",
                 "__replace__", "__setattr__", "__delattr__"):
        assert getattr(cls, name).__code__ is getattr(RECORDS[0].cls, name).__code__, name


@pytest.mark.parametrize("cls, args, text", [
    (record.cls, args, text) for record in RECORDS for args, text in record.refused],
    ids=[f"{record.cls.__name__}-{n}" for record in RECORDS for n in range(len(record.refused))])
def test_value_class_refuses(cls, args, text):
    with pytest.raises(TypeError, match=re.escape(text)):
        cls(*args)


@pytest.mark.parametrize("record", RECORDS, ids=[record.cls.__name__ for record in RECORDS])
def test_value_class_compares_only_its_class(record):
    # a value compared with another type, even the tuple of its fields,
    # leaves the answer to that type
    value = record.cls(*record.args)
    assert value.__eq__(record.fields) is NotImplemented and value != record.fields


@pytest.mark.parametrize("record", RECORDS, ids=[record.cls.__name__ for record in RECORDS])
def test_value_class_keeps_its_record(record):
    cls, fields = record.cls, record.cls.__slots__
    # each value as its builder made it, and as `_make` builds it again from
    # the stored fields: `_make` fills a private twin class and retags the
    # instance, and neither the instance nor the class may show the twin
    assert cls.__mro__ == (cls, object)
    values = [value for build in record.builders for value in _each(build())]
    again = [value for build in record.builders for value in _each(build())]
    assert [repr(value) for value in values[:len(record.pinned)]] == list(record.pinned)
    for value, rebuilt in zip(values, again, strict=True):
        stored = tuple(getattr(value, name) for name in fields)
        made = cls._make(*stored)
        assert tuple(value.__getstate__()) == stored
        assert tuple(getattr(made, name) for name in fields) == stored
        for built in (value, made):
            assert type(built) is cls and repr(built) == repr(value)
            for name in fields:
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(built, name, getattr(built, name))
                with pytest.raises(dataclasses.FrozenInstanceError):
                    delattr(built, name)
            assert not hasattr(built, "__dict__")
            with pytest.raises(TypeError):
                weakref.ref(built)
        assert rebuilt is not value and made is not value and rebuilt == value == made
        compared = tuple(getattr(value, name) for name in fields
                         if name not in record.uncompared)
        assert hash(value) == hash(rebuilt) == hash(made) == hash(compared)
        by_keyword = cls(**{name: getattr(value, name) for name in cls.__match_args__})
        # a state as `dataclasses` pickled it, a list of every field in
        # order, still loads
        restored = cls.__new__(cls)
        restored.__setstate__(list(stored))
        for built in (value, made):
            others = [by_keyword, restored, built.__replace__(), copy.copy(built),
                      copy.deepcopy(built), pickle.loads(pickle.dumps(built))]
            if sys.version_info >= (3, 13):
                others.append(copy.replace(built))
            for other in others:
                assert type(other) is cls and other == value and repr(other) == repr(value)
                assert tuple(getattr(other, name) for name in fields) == stored
    # `__replace__` calls the checked constructor again, and refuses a
    # derived field
    for changes, expected in record.replaced:
        if isinstance(expected, type):
            with pytest.raises(expected):
                values[0].__replace__(**changes)
        else:
            assert values[0].__replace__(**changes).__getstate__() == expected
    if record.pickled:
        loaded = pickle.loads(record.pickled)
        assert type(loaded) is cls and loaded == values[0]
        assert loaded.__getstate__() == values[0].__getstate__()


# each unchecked build's function, and its class too when the function builds
# more than one class by `_make`
UNCHECKED = [(record, function, calls) for record in RECORDS
             for function, calls in record.unchecked]
_BUILDERS = [function for _, function, _ in UNCHECKED]


@pytest.mark.parametrize("record, function, calls", UNCHECKED, ids=[
    function.__qualname__ + (f"-{record.cls.__name__}" if _BUILDERS.count(function) > 1 else "")
    for record, function, _ in UNCHECKED])
def test_unchecked_builds_match_their_constructors(record, function, calls):
    # each result of a build by `_make`, returned or held in a field of what
    # is returned, rebuilt by the checked constructor; the state holds every
    # field, in `__slots__` order
    cls = record.cls
    for args in calls():
        values = list(_of_class(function(*args), cls))
        assert values, args
        for value in values:
            rebuilt = cls(**{name: getattr(value, name) for name in cls.__match_args__})
            assert type(value) is type(rebuilt) is cls, args
            assert value.__getstate__() == rebuilt.__getstate__(), args
            assert value == rebuilt and hash(value) == hash(rebuilt), args
            assert repr(value) == repr(rebuilt), args
