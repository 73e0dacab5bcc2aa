"""What plain integers and fractions lack: a perfect-square test, and the
maker of the package's value classes.

Integers are plain Python ``int`` (arbitrary precision), rationals are
``fractions.Fraction`` (always lowest terms, positive denominator, structural
equality); no floating point anywhere.  A floor of a quotient by a positive
divisor is ``a // b``, and a ceiling ``-(-a // b)``, where it is used.
`exact_sqrt` decides perfect squares, and `_value_class` makes the package's
frozen, slotted value classes.
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
    """`@dataclass(frozen=True, slots=True)`, with each field set once by one
    direct call of its slot descriptor's `__set__`.

    The class has no `__dict__` and no weak references.  For each class two
    functions are compiled from the field names, as `dataclass` compiles its
    `__init__`; each takes every field, in `dataclasses.fields` order.  A
    class that checks nothing gets the first as its `__init__`, with the
    dataclass signature.  A class with its own `__init__` keeps it, and that
    `__init__` ends in one call of `self._fill(...)` once its checks have
    passed; it also gets the second as the static `_make(...)`, which builds
    an instance unchecked, in one frame: `object.__new__` and the setters.
    `_make` stores what it is given, so a caller passes the stored form
    itself, such as a tuple where a field holds one.
    """
    own_init = "__init__" in cls.__dict__
    cls = dataclasses.dataclass(frozen=True, slots=True)(cls)
    fields = dataclasses.fields(cls)
    names = [f.name for f in fields]
    name = "_fill" if own_init else "__init__"
    args, body = ", ".join(names), "".join(f"\n  set_{n}(self, {n})" for n in names)
    source = (f"def build(new, cls, {', '.join('set_' + n for n in names)}):\n"
              f" def {name}(self, {args}):{body}\n"
              f" def _make({args}):\n  self = new(cls){body}\n  return self\n"
              f" return {name}, _make")
    namespace = {}
    exec(source, namespace)
    fill, make = namespace["build"](object.__new__, cls,
                                    *(getattr(cls, n).__set__ for n in names))
    for function in (fill, make):
        function.__qualname__ = f"{cls.__qualname__}.{function.__name__}"
        function.__module__ = cls.__module__
    fill.__annotations__ = {f.name: f.type for f in fields}
    fill.__defaults__ = tuple(f.default for f in fields
                              if f.default is not dataclasses.MISSING)
    setattr(cls, name, fill)
    if own_init:
        cls._make = staticmethod(make)
    return cls
