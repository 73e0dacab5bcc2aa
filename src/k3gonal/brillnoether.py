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

The integer core `_bound` owns the delta range, alpha (computed nowhere
else), the threshold, rho and that check, and returns (alpha, rho_at_alpha,
threshold); `necessary_condition` checks p and the series and wraps its
result in a :class:`NecessityReport`, and `gonality.GonalityCase`, which has
checked p and k itself, calls the core alone.
"""

from .errors import InvariantViolation, _refuse_below, _refuse_delta, _refuse_series
from .exactmath import _int, _value_class

__all__ = [
    "rho",
    "NecessityReport",
    "necessary_condition",
]


def rho(g: int, r: int, d: int) -> int:
    """Brill-Noether number g - (r+1)(r + g - d).  Requires g, r, d >= 0."""
    if g < 0 or r < 0 or d < 0:
        for name, value in (("g", g), ("r", r), ("d", d)):
            if value < 0:
                _refuse_below(name, 0, value)
    return g - (r + 1) * (r + g - d)


@_value_class
class NecessityReport:
    """Outcome of the existence bound at the minimizing integer alpha."""

    alpha: int
    rho_at_alpha: int
    satisfied: bool
    threshold_delta: int


def necessary_condition(p: int, delta: int, r: int, d: int) -> NecessityReport:
    """Evaluate the necessary condition for a g^r_d on the normalization.

    Requires ints, then p >= 2, d > r >= 1 and 0 <= delta <= p, in that order.
    Computes alpha, the threshold alpha*(r*g - (d-r)(alpha*r + 1)) and
    rho(p, alpha*r, alpha*d + delta), which must equal delta - threshold;
    `satisfied` holds iff rho_at_alpha >= 0.
    """
    for value in (p, delta, r, d):
        _int(value)
    if p < 2:
        _refuse_below("p", 2, p)
    if r < 1 or d <= r:
        _refuse_series(r, d)
    alpha, rho_at_alpha, threshold = _bound(p, delta, r, d)
    return NecessityReport._make(alpha, rho_at_alpha, rho_at_alpha >= 0, threshold)


def _bound(p: int, delta: int, r: int, d: int) -> tuple[int, int, int]:
    """(alpha, rho_at_alpha, threshold) of the bound; the core of
    `necessary_condition`, for a caller that has checked p >= 2 and
    d > r >= 1.  Refuses a delta outside [0, p], and checks that
    rho(p, alpha*r, alpha*d + delta) equals delta - threshold.  Alpha is
    computed here alone; d > r >= 1 makes its denominator positive, and the
    delta range makes g = p - delta >= 0, so it needs no check of its own.
    """
    if not 0 <= delta <= p:
        _refuse_delta(delta, p)
    g = p - delta
    alpha = (g * r + (d - r) * (r - 1)) // (2 * r * (d - r))
    threshold = alpha * (r * g - (d - r) * (alpha * r + 1))
    rho_at_alpha = rho(p, alpha * r, alpha * d + delta)
    if rho_at_alpha != delta - threshold:
        raise InvariantViolation(
            f"rho(p, alpha*r, alpha*d + delta) = {rho_at_alpha} != "
            f"delta - threshold = {delta - threshold} "
            f"at (p={p}, delta={delta}, r={r}, d={d}, alpha={alpha})"
        )
    return alpha, rho_at_alpha, threshold
