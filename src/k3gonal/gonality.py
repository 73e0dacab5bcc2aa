"""The gonality specialization r=1, d=k and the minimal node number.

A triple (p, k, delta) of arithmetic genus, gonality and marked node
count is *admissible* when

    delta >= alpha * (p - delta - (k-1)(alpha+1)),
    alpha = floor( (p-delta) / (2(k-1)) ),

the r=1, d=k case of the general necessary condition.  For fixed p, k the
minimal admissible delta has a closed form driven by the unique writing

    p = (k-1) m (m+1) + t (m+1) + lambda,
    m = max{ n : (k-1) n (n+1) <= p },   0 <= t < 2(k-1),   0 <= lambda <= m,

namely  delta0 = (k-1) m (m-1) + t m + lambda = ceil(m p / (m+1)) - m (k-1)
whenever p > 2(k-1), and delta0 = 0 otherwise.  Both closed forms are
evaluated on every call and checked against each other.  Admissibility is
monotone in delta, so `is_optimal` certifies a claimed delta0 with
two evaluations of the bound at any p; the brute-force scan
`delta0_bruteforce` is the independent test oracle.
"""

from math import isqrt

from . import brillnoether
from .errors import InvariantViolation, _refuse_below, _refuse_inadmissible
from .exactmath import DERIVED, _int, _value_class

__all__ = [
    "GonalityCase",
    "admissible",
    "decompose",
    "delta0",
    "delta0_bruteforce",
    "expected_dims",
    "is_optimal",
]


def _check_pk(p: int, k: int) -> None:
    if p < 2:
        _refuse_below("p", 2, p)
    if k < 2:
        _refuse_below("k", 2, k)


@_value_class
class GonalityCase:
    """A triple (p, k, delta) with every derived invariant precomputed.

    g = p - delta, alpha = floor(g / (2(k-1))), beta = (k-1)(2 alpha + 1) - g,
    rho = rho(p, alpha, k alpha + delta), read with alpha from the integer
    core `brillnoether._bound` of necessary_condition (p and k are checked
    here, so the core checks delta alone, and no NecessityReport is built),
    and admissible iff rho >= 0.  Construction verifies the beta range
    -(k-1) < beta <= k-1 and the completed square in beta as a value
    identity: 4(k-1) rho = 4(k-1) delta - (g-k+1)^2 + beta^2.  A p, k or
    delta that is not an int is refused.
    """

    p: int
    k: int
    delta: int
    g: int = DERIVED
    alpha: int = DERIVED
    beta: int = DERIVED
    rho: int = DERIVED
    admissible: bool = DERIVED

    def __init__(self, p: int, k: int, delta: int):
        _check_pk(_int(p), _int(k))
        g = p - _int(delta)
        # checks 0 <= delta <= p
        alpha, rho, _ = brillnoether._bound(p, delta, 1, k)
        beta = (k - 1) * (2 * alpha + 1) - g
        if not -(k - 1) < beta <= k - 1:
            raise InvariantViolation(
                f"beta={beta} outside (-(k-1), k-1] at (p={p}, k={k}, delta={delta})"
            )
        by_square = 4 * (k - 1) * delta - (g - k + 1) ** 2 + beta * beta
        if 4 * (k - 1) * rho != by_square:
            raise InvariantViolation(
                f"4(k-1)rho = {4 * (k - 1) * rho} != 4(k-1)delta - (g-k+1)^2 + "
                f"beta^2 = {by_square} at (p={p}, k={k}, delta={delta})"
            )
        self._fill(p, k, delta, g, alpha, beta, rho, rho >= 0)


def admissible(p: int, k: int, delta: int) -> bool:
    """True iff (p, k, delta) satisfies the existence bound.

    >>> admissible(8, 2, 4), admissible(8, 2, 3)
    (True, False)
    """
    return GonalityCase(p, k, delta).admissible


def decompose(p: int, k: int) -> tuple[int, int, int]:
    """Decompose p as (k-1)m(m+1) + t(m+1) + lam with m maximal: (m, t, lam).

    m is read off in closed form: (k-1)n(n+1) <= p iff n(n+1) <= q with
    q = floor(p/(k-1)), iff (2n+1)^2 <= 4q+1, so
    m = (isqrt(4q+1) - 1) // 2, in O(log p) integer operations.  The range
    check below guards it: an m one too small would give t >= 2(k-1), one
    too large would give t < 0.  It is the only check m needs.  lam is p
    minus the other two terms, so (k-1)m(m+1) + t(m+1) + lam = p for every
    integer m and t, right or wrong; and t(m+1) = (m+1) floor(p/(m+1)) -
    (k-1)m(m+1), so lam = p mod (m+1) always lies in [0, m].  What is left
    is the t-range: 0 <= t < 2(k-1) iff (k-1)m(m+1) <= p < (k-1)(m+1)(m+2),
    which says that m is maximal.

    Below p = 2(k-1), the delta0 = 0 regime, m is 0 and the triple is
    (0, p, 0): the same guard certifies it, as 0 <= t = p < 2(k-1).

    >>> decompose(20, 3)
    (2, 2, 2)
    >>> decompose(3, 4)
    (0, 3, 0)
    """
    _check_pk(p, k)
    m = (isqrt(4 * (p // (k - 1)) + 1) - 1) // 2
    t = p // (m + 1) - m * (k - 1)
    lam = p - (k - 1) * m * (m + 1) - t * (m + 1)
    if not (0 <= t < 2 * (k - 1) and 0 <= lam <= m):
        raise InvariantViolation(
            f"decomposition (m={m}, t={t}, lam={lam}) out of range for p={p}, k={k}"
        )
    return m, t, lam


def delta0(p: int, k: int) -> int:
    """Minimal delta satisfying the existence bound, in closed form.

    0 for p <= 2(k-1); above that, one `decompose` call and then
    `_delta0_from`, which computes both closed forms ((k-1)m(m-1) + tm + lam
    and ceil(mp/(m+1)) - m(k-1)) and requires them equal.

    A p or k that is not an int is refused, by `_int` or by `decompose`.

    >>> delta0(8, 2), delta0(9, 4)
    (4, 2)
    """
    _check_pk(p, k)
    if p <= 2 * (k - 1):
        _int(p), _int(k)
        return 0
    return _delta0_from(p, k, decompose(p, k))


def _delta0_from(p: int, k: int, dec: tuple[int, int, int]) -> int:
    """delta0 by both closed forms from p's decomposition `dec` = (m, t, lam),
    which the caller has already obtained and checked; the core of `delta0`.

    Also right at p = 2(k-1), whose decomposition (1, 0, 0) gives 0 both ways.
    """
    m, t, lam = dec
    value = (k - 1) * m * (m - 1) + t * m + lam
    other = -(-m * p // (m + 1)) - m * (k - 1)
    if value != other:
        raise InvariantViolation(
            f"delta0 closed forms disagree: {value} != {other} at (p={p}, k={k})"
        )
    return value


def delta0_bruteforce(p: int, k: int) -> int:
    """Minimal admissible delta by linear scan; independent oracle for delta0.

    Terminates because delta = p is always admissible (g = 0 forces alpha = 0).
    """
    _check_pk(p, k)
    for delta in range(p + 1):
        if admissible(p, k, delta):
            return delta
    raise InvariantViolation(f"no admissible delta found for p={p}, k={k}")


def expected_dims(p: int, k: int, delta: int) -> tuple[int, int]:
    """(dim of the k-gonal locus, dim of W^1_k on the normalization).

    Returns (min{2(k-1), g}, max{0, 2(k-1) - g}); the second entry equals
    max{0, rho(g, 1, k)}.  Inadmissible triples are rejected: the locus is
    empty there.
    """
    case = GonalityCase(p, k, delta)
    if not case.admissible:
        _refuse_inadmissible(p, k, delta)
    g = case.g
    dim_vk = min(2 * (k - 1), g)
    dim_w1k = max(0, 2 * (k - 1) - g)
    return dim_vk, dim_w1k


def is_optimal(p: int, k: int, delta: int) -> bool:
    """True iff delta is the least admissible node number for (p, k).

    Two evaluations of the bound certify it: 0 <= delta <= p, delta is
    admissible, and delta = 0 or delta - 1 is not.  This suffices because
    admissibility is monotone in delta: it says delta >= T(p - delta), where
    T(g) is the maximum over integers l >= 0 of l(g - (k-1)(l+1)), attained
    at l = alpha (the term is concave in l, with its vertex within 1/2 of
    alpha).  Each term is nondecreasing in g, so T(p - delta) is
    nonincreasing in delta, and every delta above an admissible one is
    admissible too.

    >>> is_optimal(9, 4, 2), is_optimal(9, 4, 3)
    (True, False)
    """
    _check_pk(p, k)
    return (
        0 <= delta <= p
        and admissible(p, k, delta)
        and (delta == 0 or not admissible(p, k, delta - 1))
    )
