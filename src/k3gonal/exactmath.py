"""What plain integers and fractions lack: a perfect-square test, and the
maker of the package's value classes.

Integers are plain Python ``int`` (arbitrary precision), rationals are
``fractions.Fraction`` (always lowest terms, positive denominator, structural
equality); no floating point anywhere.  A floor of a quotient by a positive
divisor is ``a // b``, and a ceiling ``-(-a // b)``, where it is used.
`exact_sqrt` decides perfect squares, and `_value_class` makes the package's
frozen, slotted value classes.  A checked constructor sets each field through
its slot descriptor; an unchecked `_make` fills a mutable twin of the class
with the same slots and then retags it as the frozen class, so only this
module assigns a `__class__` or calls a descriptor's `__set__`.
"""

import dataclasses
import math

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


def _value_class(cls):
    """`@dataclass(frozen=True, slots=True)`, with an unchecked `_make` and
    with each field of a checked build set once by one direct call of its
    slot descriptor's `__set__`.

    The class has no `__dict__` and no weak references.  For each class two
    functions are compiled from the field names, as `dataclass` compiles its
    `__init__`; each takes every field, in `dataclasses.fields` order.  A
    class that checks nothing gets the first as its `__init__`, with the
    dataclass signature.  A class with its own `__init__` keeps it, and that
    `__init__` ends in one call of `self._fill(...)` once its checks have
    passed.  Every class gets the second as the static `_make(...)`, which
    builds an instance unchecked, in one frame.  `_make` stores what it is
    given, so a caller passes every field, defaulted ones included, in its
    stored form, such as a tuple where a field holds one.

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
    that measured slower for a small class (`Decomposition(1, 2, 3)` took
    0.42 us with the setters and 0.52-0.57 us retagged on CPython 3.10,
    0.48-0.70 against 0.82 us on 3.13, and no clear difference on 3.11 and
    3.12).
    """
    own_init = "__init__" in cls.__dict__
    cls = dataclasses.dataclass(frozen=True, slots=True)(cls)
    fields = dataclasses.fields(cls)
    names = [f.name for f in fields]
    twin = type(f"_{cls.__name__}", (), {"__slots__": cls.__slots__})
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
    fill, make = namespace["build"](twin, cls, *(getattr(cls, n).__set__ for n in names))
    for function in (fill, make):
        function.__qualname__ = f"{cls.__qualname__}.{function.__name__}"
        function.__module__ = cls.__module__
    fill.__annotations__ = {f.name: f.type for f in fields}
    fill.__defaults__ = tuple(f.default for f in fields
                              if f.default is not dataclasses.MISSING)
    setattr(cls, name, fill)
    cls._make = staticmethod(make)
    return cls
