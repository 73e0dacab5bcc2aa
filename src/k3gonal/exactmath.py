"""Exact integer and rational arithmetic helpers.

Integers are plain Python ``int`` (arbitrary precision), rationals are
``fractions.Fraction`` (always lowest terms, positive denominator, structural
equality).  Everything downstream (node counts, Beauville-Bogomolov values,
cone bounds) is built on these three helpers; no floating point anywhere.
`_slot_setters` serves the package's slotted value classes.
"""

import dataclasses
import math

__all__ = ["floor_div", "ceil_div", "exact_sqrt"]


def floor_div(a: int, b: int) -> int:
    """Floor division toward minus infinity; requires b > 0.

    >>> floor_div(7, 2), floor_div(-7, 2)
    (3, -4)
    """
    if b <= 0:
        raise ValueError(f"floor_div requires a positive divisor, got {b}")
    return a // b


def ceil_div(a: int, b: int) -> int:
    """Ceiling division; requires b > 0.

    >>> ceil_div(7, 2), ceil_div(6, 3)
    (4, 2)
    """
    if b <= 0:
        raise ValueError(f"ceil_div requires a positive divisor, got {b}")
    return -((-a) // b)


def exact_sqrt(n: int) -> int | None:
    """Return s with s*s == n if n is a perfect square, else None.

    Uses the exact integer square root, then verifies by squaring; requires
    n >= 0.
    """
    if n < 0:
        raise ValueError(f"exact_sqrt requires a nonnegative argument, got {n}")
    s = math.isqrt(n)
    return s if s * s == n else None


def _slot_setters(cls) -> tuple:
    """The `__set__` of each field's slot descriptor, in `dataclasses.fields`
    order, for a `@dataclass(frozen=True, slots=True)` class.

    An explicit `__init__` calls them to set each field once past the frozen
    `__setattr__`, at well under the cost of `object.__setattr__` by name;
    unpacking the tuple into one name per field fails if the counts differ.
    """
    return tuple(getattr(cls, f.name).__set__ for f in dataclasses.fields(cls))
