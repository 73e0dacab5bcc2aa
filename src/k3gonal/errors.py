"""Shared exception types, and the one wording of each shared refusal.

A bad input raises plain :class:`ValueError`.  A failed internal cross-check
(two closed forms disagreeing, a witness not validating) raises
:class:`InvariantViolation`, which the CLI maps to exit code 2, not 1.
`_refuse_below`, `_refuse_delta`, `_refuse_series`, `_refuse_inadmissible`
and `_refuse_over_limit` each raise a refusal that several checks share.  A
check keeps its comparison inline and calls one only to refuse, so an
accepted input makes no added call.
"""

__all__ = ["InvariantViolation"]


class InvariantViolation(Exception):
    """An internal consistency check failed; never a user error."""


def _refuse_below(name: str, least: int, value) -> "NoReturn":
    raise ValueError(f"need {name} >= {least}, got {name}={value}")


def _refuse_delta(delta: int, p: int) -> "NoReturn":
    raise ValueError(f"need 0 <= delta <= p, got delta={delta}, p={p}")


def _refuse_series(r: int, d: int) -> "NoReturn":
    raise ValueError(f"need d > r >= 1, got r={r}, d={d}")


def _refuse_inadmissible(p: int, k: int, delta: int) -> "NoReturn":
    raise ValueError(f"(p={p}, k={k}, delta={delta}) is inadmissible")


def _refuse_over_limit(subject: str, name: str, limit: int) -> "NoReturn":
    raise ValueError(f"{subject} over the limit {name} = {limit}")
