"""What plain integers and fractions lack: a perfect-square test, a check
that a value is an `int` and not a `bool`, and the maker of the package's
value classes.

Integers are plain Python ``int`` (arbitrary precision), rationals are
``fractions.Fraction`` (always lowest terms, positive denominator, structural
equality); no floating point anywhere.  A floor of a quotient by a positive
divisor is ``a // b``, and a ceiling ``-(-a // b)``, where it is used.
`exact_sqrt` decides perfect squares, and `_value_class` makes the package's
frozen, slotted value classes without the `dataclasses` module: its import,
with the `inspect` it pulls in, and the six methods it compiles per class
would double the time every command spends importing the package.  (From
Python 3.14, argparse's help formatter imports `dataclasses` itself; a
well-formed command builds no argparse tree and imports neither argparse nor
csv, so there only help and usage errors load it.)
A field that the constructor derives is declared `= DERIVED`, and one that
it derives and leaves out of `repr`, `==` and `hash` `= HIDDEN`.  A checked
constructor sets each field through its slot descriptor; an unchecked
`_make` fills a mutable twin of the class with the same slots and then
retags it as the frozen class, so only this module assigns a `__class__` or
calls a descriptor's `__set__`.
"""

import math
from operator import attrgetter

__all__ = ["exact_sqrt"]


def exact_sqrt(n: int) -> int | None:
    """Return s with s*s == n if n is a perfect square, else None.

    Uses the exact integer square root, then verifies by squaring; requires
    n >= 0.
    """
    if n < 0:
        raise ValueError(f"exact_sqrt requires a nonnegative argument, got {n}")
    s = math.isqrt(n)
    return s if s * s == n else None


def _int(v) -> int:
    """v itself if it is an int; anything else, a bool or a float included,
    is refused by name."""
    if type(v) is not int:
        raise TypeError(f"need integers, got the {type(v).__name__} {v!r}")
    return v


# Taken by a value-class field in place of a default: the class's own
# `__init__` computes a DERIVED field and passes it to `_fill`; a HIDDEN one
# is derived too, and left out of `repr`, `==` and `hash`.
DERIVED, HIDDEN, _NO_DEFAULT = object(), object(), object()


def _frozen_setattr(self, name, value):
    from dataclasses import FrozenInstanceError
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    from dataclasses import FrozenInstanceError
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _shared_methods(names, init, shown, fill):
    """The dunders every value class shares: each is a closure over one
    class's field names, so all classes run one code object per method.
    `repr`, `==` and `hash` read the shown fields; `__setstate__` refuses a
    state that does not hold one value per field, so that no default of
    `fill` stands in for a missing one, and calls `fill`.  Each tuple names
    two or more fields: `attrgetter` gives tuples."""
    store, show = attrgetter(*names), attrgetter(*shown)
    count = len(names)
    derived = frozenset(names).difference(init)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return show(self) == show(other)
        return NotImplemented

    def __hash__(self):
        return hash(show(self))

    def __repr__(self):
        pairs = map("%s=%r".__mod__, zip(shown, show(self)))
        return f"{self.__class__.__qualname__}({', '.join(pairs)})"

    def __getstate__(self):
        return store(self)

    def __setstate__(self, state):
        if len(state) != count:
            raise TypeError(f"{self.__class__.__qualname__} state holds {len(state)} "
                            f"values, not {count}")
        fill(self, *state)

    def __replace__(self, /, **changes):
        for name in derived.intersection(changes):
            raise ValueError(f"field {name} is declared with init=False, "
                             "it cannot be specified with replace()")
        values = {name: getattr(self, name) for name in init}
        values.update(changes)
        return self.__class__(**values)

    return __eq__, __hash__, __repr__, __getstate__, __setstate__, __replace__


def _value_class(cls):
    """Make `cls` a frozen value class with `__slots__`, an unchecked `_make`,
    and each field of a checked build set once by one direct call of its
    slot descriptor's `__set__`.

    Every annotation of the class body is a field, in order; a field takes
    the value assigned to it as its default, unless that value is one of the
    markers `DERIVED` and `HIDDEN`.  A field without a default may not follow
    one with a default, and at least two fields must be shown, that is, not
    `HIDDEN`.  The class is rebuilt with `__slots__` of the field names, so
    it has no `__dict__` and no weak references, and `__match_args__` names
    the init fields, those not derived.  It gets `__eq__` (same class, equal
    shown fields), `__hash__` (of the shown fields as a tuple), `__repr__`
    (`Name(a=1, b=2)` over the shown fields), `__getstate__` and
    `__setstate__` (every field, in order, through `_fill` or `__init__`; a
    state of another length raises `TypeError`, so a defaulted field is never
    filled in; a list, as pickles written by `dataclasses` hold, loads too)
    and `__replace__` (the constructor on the init fields and the changes; a
    derived field raises `ValueError`), so `pickle`, `copy` and, from Python
    3.13, `copy.replace` work.  Those six are closures made by
    `_shared_methods`, and assigning or deleting a field raises
    `dataclasses.FrozenInstanceError`, which is imported only then; so
    importing the package compiles none of them and imports no
    `dataclasses` of its own.  `dataclasses.fields`, `asdict` and `replace`
    do not apply to these classes.

    For each class two functions are compiled from the field names; each
    takes every field, in `__slots__` order.  A class that checks nothing
    gets the first as its `__init__`, with the field annotations and
    defaults.  A class with its own `__init__` keeps it, and that `__init__`
    ends in one call of `self._fill(...)` once its checks have passed.
    Every class gets the second as the static `_make(...)`, which builds an
    instance unchecked, in one frame.  `_make` stores what it is given, so a
    caller passes every field, defaulted ones included, in its stored form,
    such as a tuple where a field holds one.

    `_make` builds an instance of a private, mutable twin class that
    declares the same `__slots__` and nothing else, fills it by plain
    attribute stores, and then assigns the frozen class to its `__class__`.
    CPython allows that assignment between two heap types whose instances
    have the same layout: the same base, size, `__dict__` and weak-reference
    offsets, and equal tuples of added slot names (`compatible_for_assignment`
    in `Objects/typeobject.c`).  The twin is no base of the class, and no
    instance keeps it.  The interpreter specialises a plain store to a slot
    from CPython 3.11 on; there this took `BinaryForm._make` from 300-470 to
    210-230 ns and `ChainPartition._make` from 510-920 to 250-380 ns, against
    `object.__new__` (about 180 ns) plus one `__set__` call per field (about
    100 ns each).  `_fill` and `__init__` keep the setters: their instance
    already exists as the frozen class, so it would be retagged twice, and
    that measured slower for a small class (a three-field class took
    0.42 us with the setters and 0.52-0.57 us retagged on CPython 3.10,
    0.48-0.70 against 0.82 us on 3.13, and no clear difference on 3.11 and
    3.12).
    """
    own_init = "__init__" in cls.__dict__
    annotations = dict(cls.__annotations__)
    body = {key: value for key, value in cls.__dict__.items()
            if key not in ("__dict__", "__weakref__")}
    names = tuple(annotations)
    markers = {n: body.pop(n, _NO_DEFAULT) for n in names}
    defaults = []
    for n, value in markers.items():
        if value is not _NO_DEFAULT and value is not DERIVED and value is not HIDDEN:
            defaults.append(value)
        elif defaults:
            raise TypeError(f"{cls.__name__}.{n} has no default but follows a "
                            "field with one")
    shown = tuple(n for n in names if markers[n] is not HIDDEN)
    init = tuple(n for n in shown if markers[n] is not DERIVED)
    if len(shown) < 2:
        raise TypeError(f"{cls.__name__} needs two fields in its repr and in ==")
    body.update(__slots__=names, __match_args__=init, __qualname__=cls.__qualname__,
                __setattr__=_frozen_setattr, __delattr__=_frozen_delattr)
    cls = type(cls)(cls.__name__, cls.__bases__, body)
    setters = tuple(getattr(cls, n).__set__ for n in names)
    twin = type(f"_{cls.__name__}", (), {"__slots__": names})
    name = "_fill" if own_init else "__init__"
    args = ", ".join(names)
    sets = "".join(f"\n  set_{n}(self, {n})" for n in names)
    stores = "".join(f"\n  self.{n} = {n}" for n in names)
    source = (f"def build(twin, cls, {', '.join('set_' + n for n in names)}):\n"
              f" def {name}(self, {args}):{sets}\n"
              f" def _make({args}):\n  self = twin(){stores}\n"
              f"  self.__class__ = cls\n  return self\n"
              f" return {name}, _make")
    namespace = {}
    exec(source, namespace)
    fill, make = namespace["build"](twin, cls, *setters)
    fill.__annotations__ = annotations
    fill.__defaults__ = tuple(defaults)
    shared = _shared_methods(names, init, shown, fill)
    for function in (fill, make, *shared):
        function.__qualname__ = f"{cls.__qualname__}.{function.__name__}"
        function.__module__ = cls.__module__
        setattr(cls, function.__name__, function)
    cls._make = staticmethod(make)
    return cls
