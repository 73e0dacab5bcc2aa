"""Brill-Noether existence bound for linear series on normalizations.

For a curve of arithmetic genus p with delta marked nodes (geometric genus
g = p - delta) whose normalization carries a g^r_d, the necessary condition
implemented here is

    rho(p, alpha*r, alpha*d + delta) >= 0,
    alpha = floor( (g*r + (d-r)(r-1)) / (2r(d-r)) ),

where rho(g, r, d) = g - (r+1)(r + g - d) is the classical Brill-Noether
number.  For every l >= 0,

    rho(p, l*r, l*d + delta) = delta - l*(r*g - (d-r)(l*r + 1)),

so the condition reads delta >= threshold, the l = alpha term.  Every call
evaluates rho directly and checks that its value equals delta - threshold;
a mismatch aborts with :class:`InvariantViolation` rather than silently
trusting one transcription of the inequality.
"""

from .errors import InvariantViolation
from .exactmath import _value_class

__all__ = [
    "rho",
    "alpha_general",
    "NecessityReport",
    "necessary_condition",
]


def rho(g: int, r: int, d: int) -> int:
    """Brill-Noether number g - (r+1)(r + g - d).  Requires g, r, d >= 0."""
    if g < 0 or r < 0 or d < 0:
        for name, value in (("g", g), ("r", r), ("d", d)):
            if value < 0:
                raise ValueError(f"need {name} >= 0, got {name}={value}")
    return g - (r + 1) * (r + g - d)


def alpha_general(g: int, r: int, d: int) -> int:
    """The minimizing integer floor((g*r + (d-r)(r-1)) / (2r(d-r))).

    Requires d > r >= 1 and g >= 0 (the denominator must be positive).
    """
    if r < 1 or d <= r:
        raise ValueError(f"need d > r >= 1, got r={r}, d={d}")
    if g < 0:
        raise ValueError(f"need g >= 0, got g={g}")
    return (g * r + (d - r) * (r - 1)) // (2 * r * (d - r))


@_value_class
class NecessityReport:
    """Outcome of the existence bound at the minimizing integer alpha."""

    alpha: int
    rho_at_alpha: int
    satisfied: bool
    threshold_delta: int


def necessary_condition(p: int, delta: int, r: int, d: int) -> NecessityReport:
    """Evaluate the necessary condition for a g^r_d on the normalization.

    Requires p >= 2, d > r >= 1 and 0 <= delta <= p, checked in that order.
    Computes alpha, the threshold alpha*(r*g - (d-r)(alpha*r + 1)) and
    rho(p, alpha*r, alpha*d + delta), which must equal delta - threshold;
    `satisfied` holds iff rho_at_alpha >= 0.
    """
    if p < 2:
        raise ValueError(f"need p >= 2, got p={p}")
    if r < 1 or d <= r:
        raise ValueError(f"need d > r >= 1, got r={r}, d={d}")
    if not 0 <= delta <= p:
        raise ValueError(f"need 0 <= delta <= p, got delta={delta}, p={p}")
    g = p - delta
    alpha = alpha_general(g, r, d)
    threshold = alpha * (r * g - (d - r) * (alpha * r + 1))
    rho_at_alpha = rho(p, alpha * r, alpha * d + delta)
    if rho_at_alpha != delta - threshold:
        raise InvariantViolation(
            f"rho(p, alpha*r, alpha*d + delta) = {rho_at_alpha} != "
            f"delta - threshold = {delta - threshold} "
            f"at (p={p}, delta={delta}, r={r}, d={d}, alpha={alpha})"
        )
    return NecessityReport._make(alpha, rho_at_alpha, rho_at_alpha >= 0, threshold)
