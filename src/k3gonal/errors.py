"""Shared exception types.

Domain errors (bad inputs) raise plain :class:`ValueError`.  A failed
internal cross-check (two closed forms of the same quantity disagreeing,
a constructed witness not validating) raises :class:`InvariantViolation`
instead, so callers (in particular the CLI, which maps it to exit code 2)
can tell a user mistake from a broken identity.
"""

__all__ = ["InvariantViolation"]


class InvariantViolation(Exception):
    """An internal consistency check failed; never a user error."""
