"""Beauville-Bogomolov arithmetic on the Hilbert scheme of k points.

Curve classes live in the rank-two lattice spanned by the polarization H
(with H^2 = 2p-2) and the exceptional fiber class r_k; divisor classes in the
span of H and the half-exceptional divisor e_k.  The form and pairing data:

    q(e_k) = -2(k-1),     q(r_k) = -1/(2(k-1)),     e_k . r_k = -1,
    q(aH - y r_k) = a^2 (2p-2) - y^2 / (2(k-1)),
    q(aH - c e_k) = a^2 (2p-2) - 2(k-1) c^2,
    (aH - c e_k) . (a'H - y r_k) = a a' (2p-2) - c y.

A gonality case (p, k, delta) contributes the curve class
H - (g+k-1) r_k with g = p - delta; at delta = delta0 this is the *optimal*
class H - ((m+1)(k-1) + floor(p/(m+1))) r_k, the effective class nearest the
cone boundary, and its self-intersection has the two closed forms

    q = 2(p-1) - (g+k-1)^2 / (2(k-1)) = 2(rho-1) - beta^2 / (2(k-1)),

bounded below by -(k+3)/2 with equality exactly when p = s(s+1)(k-1) at the
minimal delta.  Every such identity is computed both ways and cross-checked
at runtime; disagreement raises InvariantViolation.

Every rational is computed, compared and printed as two integers, such as
2(k-1) q and 2(k-1), by `_ratio_text`.  A `Fraction` is built only by the
public functions and properties that return one, each of which imports
`fractions` itself, so the command line imports neither it nor the `decimal`
it pulls in.
"""

from math import gcd, isqrt

from .errors import InvariantViolation, _refuse_below, _refuse_inadmissible, _refuse_over_limit
from .exactmath import _int, _value_class, exact_sqrt
from .gonality import GonalityCase, _check_pk, _delta0_from, decompose, delta0

__all__ = [
    "CurveClass",
    "DivisorClass",
    "pairing",
    "gonality_class",
    "optimal_class",
    "q_case",
    "tau",
    "FamilyWitness",
    "minimal_q_family",
    "isotropic_case",
    "LagrangianReport",
    "lagrangian_report",
    "RayReport",
    "extremal_ray_status",
    "genus_for_invariants",
    "attained_q_values",
    "q_candidate_count",
    "QVALUES_MAX_VALUES",
]

# `attained_q_values` builds one value per candidate of `q_candidate_count`
QVALUES_MAX_VALUES = 10**5


def _ratio_text(num: int, den: int) -> str:
    """num/den in lowest terms as "n/d", or "n" when d is 1; den >= 1.  The
    one rendering of every exact rational the package prints."""
    g = gcd(num, den)
    if g != 1:
        num, den = num // g, den // g
    return str(num) if den == 1 else f"{num}/{den}"


def _scaled_q(p: int, k: int, a: int, y: int) -> int:
    """2(k-1) q(aH - y r_k) = 4(k-1)(p-1) a^2 - y^2, the integer behind
    every comparison of a curve class's square."""
    return 4 * (k - 1) * (p - 1) * a * a - y * y


@_value_class
class CurveClass:
    """The 1-cycle class a*H - y*r_k on the Hilbert scheme of k points.

    Gonality constructors always produce a = 1, y = g+k-1 >= 0; the fiber
    class r_k itself is (a, y) = (0, -1).  Construction checks (p, k), and
    refuses a p, k, a or y that is not an int.
    """

    p: int
    k: int
    a: int
    y: int

    def __init__(self, p: int, k: int, a: int, y: int):
        _check_pk(_int(p), _int(k))
        self._fill(p, k, _int(a), _int(y))

    @property
    def q(self) -> "Fraction":
        """Beauville-Bogomolov square a^2 (2p-2) - y^2/(2(k-1))."""
        from fractions import Fraction
        return Fraction(_scaled_q(self.p, self.k, self.a, self.y), 2 * (self.k - 1))

    def display(self) -> str:
        if self.a == 0:
            if self.y == -1:
                return "r_k"
            if self.y == 1:
                return "-r_k"
            return f"{-self.y}*r_k"
        h = "H" if self.a == 1 else f"{self.a}*H"
        if self.y == 0:
            return h
        sign, y = ("-", self.y) if self.y >= 0 else ("+", -self.y)
        return f"{h} {sign} {y}*r_k"

    def to_payload(self) -> dict:
        return {"a": self.a, "y": self.y}


@_value_class
class DivisorClass:
    """The divisor class a*H - c*e_k; rational c allowed (Q-divisors).

    Construction checks (p, k), and refuses a p, k or a that is not an int
    and a c that is neither an int nor a Fraction; c is stored as a Fraction.
    """

    p: int
    k: int
    a: int
    c: "Fraction"

    def __init__(self, p: int, k: int, a: int, c):
        from fractions import Fraction
        _check_pk(_int(p), _int(k))
        if type(c) is int:
            c = Fraction(c)
        elif type(c) is not Fraction:
            raise TypeError(f"need an int or a Fraction, got the {type(c).__name__} {c!r}")
        self._fill(p, k, _int(a), c)

    @property
    def q(self) -> "Fraction":
        """Beauville-Bogomolov square a^2 (2p-2) - 2(k-1) c^2."""
        return self.a * self.a * (2 * self.p - 2) - 2 * (self.k - 1) * self.c * self.c


def pairing(d: DivisorClass, r: CurveClass) -> "Fraction":
    """Intersection number (aH - c e_k).(a'H - y r_k) = a a'(2p-2) - c y."""
    if (d.p, d.k) != (r.p, r.k):
        raise ValueError(
            f"mismatched ambient spaces: divisor on (p={d.p}, k={d.k}), "
            f"curve on (p={r.p}, k={r.k})"
        )
    return d.a * r.a * (2 * d.p - 2) - d.c * r.y


def gonality_class(p: int, k: int, delta: int) -> CurveClass:
    """The class H - (g+k-1) r_k of the rational curve from a g^1_k.

    Requires (p, k, delta) admissible; the locus is empty otherwise.  Built
    unchecked: the GonalityCase of this call has checked p and k as ints.
    """
    case = GonalityCase(p, k, delta)
    if not case.admissible:
        _refuse_inadmissible(p, k, delta)
    return CurveClass._make(p, k, 1, case.g + k - 1)


def optimal_class(p: int, k: int) -> CurveClass:
    """The gonality class at minimal delta, in closed form.

    y = (m+1)(k-1) + floor(p/(m+1)) above the delta0 = 0 regime, y = p+k-1
    inside it; cross-checked against the GonalityCase(p, k, delta0(p, k)),
    which must be admissible with y = g+k-1, so delta0 = p+k-1-y.

    The cross-check certifies y, not m.  y is the least of h(l) = l(k-1) +
    floor(p/l) over l >= 1, attained at l = m+1, and a neighbour l = m or
    m+2 attains it too in 3,491 of the 5,880 cases with 2(k-1) < p < 600,
    k = 2..11, so a wrong m there still gives the right class; only
    `decompose`'s own t-range guard certifies m.

    The class is built unchecked: the GonalityCase of this call has already
    refused a p or k that is not an int, and y is an int computed from them.
    `delta0` or `decompose`, whichever runs, checks p and k first.
    """
    if p <= 2 * (k - 1):
        y = p + k - 1
    else:
        m = decompose(p, k)[0]
        y = (m + 1) * (k - 1) + p // (m + 1)
    d0 = delta0(p, k)
    # a delta0 outside [0, p] has no GonalityCase, and is no admissible delta
    case = GonalityCase(p, k, d0) if 0 <= d0 <= p else None
    if case is None or not case.admissible:
        raise InvariantViolation(
            f"delta0={d0} is inadmissible at (p={p}, k={k}), "
            f"so the optimal class y={y} is no gonality class"
        )
    if y != case.g + k - 1:
        raise InvariantViolation(
            f"optimal class closed form y={y} != g+k-1 = {case.g + k - 1} "
            f"at delta0={d0} (p={p}, k={k})"
        )
    return CurveClass._make(p, k, 1, y)


def _scaled_q_case(p: int, k: int, delta: int) -> int:
    """2(k-1) q of the gonality class, by both closed forms, bound-checked.

    The integer core of `q_case`: requires 4(k-1)(p-1) - (g+k-1)^2 and
    4(k-1)(rho-1) - beta^2 equal, and at least -(k+3)(k-1), the scaled
    -(k+3)/2.  A message shows q itself, by `_ratio_text`.
    """
    case = GonalityCase(p, k, delta)
    if not case.admissible:
        _refuse_inadmissible(p, k, delta)
    den = 2 * (k - 1)
    first = _scaled_q(p, k, 1, case.g + k - 1)
    second = 4 * (k - 1) * (case.rho - 1) - case.beta**2
    if first != second:
        raise InvariantViolation(
            f"q closed forms disagree: {_ratio_text(first, den)} != "
            f"{_ratio_text(second, den)} at (p={p}, k={k}, delta={delta})"
        )
    if first < -(k + 3) * (k - 1):
        raise InvariantViolation(
            f"q={_ratio_text(first, den)} below -(k+3)/2 on an admissible case "
            f"(p={p}, k={k}, delta={delta})"
        )
    return first


def q_case(p: int, k: int, delta: int) -> "Fraction":
    """q of the gonality class, by both closed forms, bound-checked.

    Evaluates 2(p-1) - (g+k-1)^2/(2(k-1)) and 2(rho-1) - beta^2/(2(k-1)),
    requires them equal, and asserts the lower bound -(k+3)/2.  All three
    are compared as the integers 2(k-1) q: 4(k-1)(p-1) - (g+k-1)^2,
    4(k-1)(rho-1) - beta^2 and -(k+3)(k-1), by `_scaled_q_case`; the one
    `Fraction` is built here, at the API boundary.
    """
    from fractions import Fraction
    return Fraction(_scaled_q_case(p, k, delta), 2 * (k - 1))


def _tau_terms(p: int, k: int) -> tuple[int, int]:
    """The numerator 2(p-1) and denominator y_opt of `tau`, as integers."""
    return 2 * (p - 1), optimal_class(p, k).y


def tau(p: int, k: int) -> "Fraction":
    """Cone bound 2(p-1) / y_opt: H - t*e_k can be ample only for 0 < t < tau
    and nef only for 0 <= t <= tau."""
    from fractions import Fraction
    return Fraction(*_tau_terms(p, k))


@_value_class
class FamilyWitness:
    """The parameter s, node number delta and curve class of a closed family.

    Returned by `minimal_q_family` (q = -(k+3)/2) and `isotropic_case` (q = 0).
    """

    s: int
    delta: int
    curve: CurveClass


def minimal_q_family(p: int, k: int) -> FamilyWitness | None:
    """Detect p = s(s+1)(k-1) and return the q = -(k+3)/2 optimal class.

    Solved exactly: when (k-1) | p, s is read off the square root of
    4p/(k-1) + 1.  Returns None when p is not of this shape.
    root^2 = 4q + 1 with q = p/(k-1) >= 1 makes root odd and >= 3, so s >= 1, s(s+1) = q.
    The q check is an identity in s: with p = s(s+1)(k-1),
    4(k-1)(p-1) - ((2s+1)(k-1))^2 = -(k+3)(k-1) for every s, so it fires
    only when `CurveClass` or `_scaled_q` is broken.  The class check, s
    being unique for p, fires only when `optimal_class` is.
    """
    _check_pk(p, k)
    if p % (k - 1) != 0:
        return None
    root = exact_sqrt(4 * (p // (k - 1)) + 1)
    if root is None:
        return None
    s = (root - 1) // 2
    delta = p - 2 * s * (k - 1)
    curve = CurveClass(p, k, 1, (2 * s + 1) * (k - 1))
    if curve != optimal_class(p, k) or delta != delta0(p, k):
        raise InvariantViolation(
            f"minimal-q family class mismatch at (p={p}, k={k})"
        )
    scaled = _scaled_q(p, k, 1, curve.y)
    if scaled != -(k + 3) * (k - 1):
        raise InvariantViolation(
            f"minimal-q family q={_ratio_text(scaled, 2 * (k - 1))} != -(k+3)/2 "
            f"at (p={p}, k={k})"
        )
    return FamilyWitness(s=s, delta=delta, curve=curve)


def isotropic_case(p: int, k: int) -> FamilyWitness | None:
    """The q = 0 gonality class, existing iff (k-1)(p-1) is a perfect square.

    With s the positive root, the class sits at delta = p - 2s + k - 1; that
    delta only stays within [0, p] when 2s >= k-1 (equivalently g >= 0), so
    the degenerate square cases below that line also return None.
    (k-1)(p-1) >= 1, so its root s is never 0.
    The q check is an identity in s: `gonality_class` at that delta has
    y = g + k - 1 = 2s, and 4(k-1)(p-1) - (2s)^2 = 0 when s^2 = (k-1)(p-1),
    so it fires only when `CurveClass`, `gonality_class` or `_scaled_q` is
    broken.
    """
    _check_pk(p, k)
    s = exact_sqrt((k - 1) * (p - 1))
    if s is None or 2 * s < k - 1:
        return None
    delta = p - 2 * s + k - 1
    curve = gonality_class(p, k, delta)
    scaled = _scaled_q(p, k, 1, curve.y)
    if scaled != 0:
        raise InvariantViolation(
            f"isotropic class has q={_ratio_text(scaled, 2 * (k - 1))} != 0 at (p={p}, k={k})"
        )
    return FamilyWitness(s=s, delta=delta, curve=curve)


@_value_class
class LagrangianReport:
    """Necessary-condition report for a Lagrangian fibration structure.

    `value` is (k-1)(alpha+1)^2 - (2s+1)(alpha+1) + p with
    alpha = floor((2s-k+1)/(2(k-1))); nonnegative value means the isotropic
    divisor is not nef, negative means the necessary condition holds.
    `primitive` flags p = n^2 (k-1) + 1.
    """

    p: int
    k: int
    has_isotropic: bool
    s: int | None = None
    alpha: int | None = None
    value: int | None = None
    not_nef: bool | None = None
    necessary_condition_holds: bool | None = None
    primitive: bool = False
    n: int | None = None

    def to_payload(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


def _primitive_isotropic_n(p: int, k: int) -> int | None:
    """n with p = n^2 (k-1) + 1, if any; n >= 1 always, as k-1 divides
    p-1 >= 1, so (p-1)/(k-1) >= 1, and so is its square root."""
    if (p - 1) % (k - 1) != 0:
        return None
    return exact_sqrt((p - 1) // (k - 1))


def lagrangian_report(p: int, k: int) -> LagrangianReport:
    """Evaluate the isotropy detection and the fibration necessary condition.

    (k-1)(p-1) >= 1, so s >= 1; p - 1 = n^2 (k-1) iff s = n(k-1), so n = s/(k-1).
    """
    _check_pk(p, k)
    s = exact_sqrt((k - 1) * (p - 1))
    if s is None:
        return LagrangianReport._make(p, k, False, None, None, None, None, None, False, None)
    alpha = (2 * s - k + 1) // (2 * (k - 1))
    value = (k - 1) * (alpha + 1) ** 2 - (2 * s + 1) * (alpha + 1) + p
    n = s // (k - 1) if s % (k - 1) == 0 else None
    return LagrangianReport._make(
        p, k, True, s, alpha, value, value >= 0, value < 0, n is not None, n
    )


@_value_class
class RayReport:
    """Mori-cone extremal-ray classification for (p, k).

    `q_scaled` is the integer 2(k-1) q of the optimal class, and `q` the
    `Fraction` q itself.
    """

    p: int
    k: int
    status: str  # PROVEN_BM | PROVEN_MINQ | PROVEN_ISOPRIM | OPEN
    rays: tuple[CurveClass, ...]
    q_scaled: int
    notes: tuple[str, ...] = ()

    @property
    def q(self) -> "Fraction":
        """Beauville-Bogomolov square of the optimal class."""
        from fractions import Fraction
        return Fraction(self.q_scaled, 2 * (self.k - 1))

    def to_payload(self) -> dict:
        return {
            "p": self.p,
            "k": self.k,
            "status": self.status,
            "rays": [r.to_payload() for r in self.rays],
            "q": _ratio_text(self.q_scaled, 2 * (self.k - 1)),
            "notes": list(self.notes),
        }


def extremal_ray_status(p: int, k: int) -> RayReport:
    """Classify whether r_k and the optimal class are proven extremal.

    Proven families: p <= 2(k-1); p = s(s+1)(k-1); p = n^2(k-1)+1 with
    n >= 2.  Everything else is reported OPEN with the optimal class as the
    conjectural second ray; (p, k) = (8, 2) additionally carries the known
    counterexample note.  Both rays are built unchecked, on the (p, k)
    that `optimal_class` has checked.
    """
    opt = optimal_class(p, k)
    rays = (CurveClass._make(p, k, 0, -1), opt)
    q = _scaled_q(p, k, 1, opt.y)
    if p <= 2 * (k - 1):
        return RayReport._make(p, k, "PROVEN_BM", rays, q, ())
    if minimal_q_family(p, k) is not None:
        return RayReport._make(p, k, "PROVEN_MINQ", rays, q, ())
    n = _primitive_isotropic_n(p, k)
    if n is not None and n >= 2:
        return RayReport._make(p, k, "PROVEN_ISOPRIM", rays, q, ())
    notes = [
        "extremality of the optimal class is unresolved for this (p, k); "
        "it is reported as the conjectural second ray"
    ]
    if (p, k) == (8, 2):
        notes.append(
            "known counterexample: effective rational curves of class "
            "3*H - 16*r_k lie outside the cone spanned by r_k and H - 5*r_k"
        )
    return RayReport._make(p, k, "OPEN", rays, q, tuple(notes))


def genus_for_invariants(k: int, rho: int, beta: int, m: int) -> int:
    """The genus p realizing prescribed (rho, beta) at a chosen scale m.

    p = (k-1)m(m+1) + (k-1-beta)(m+1) + rho; the decomposition of p then is
    exactly (m, k-1-beta, rho), whose optimal-form reading of q is
    2(rho-1) - beta^2/(2(k-1)), and q_case at delta0 must equal it.  One
    `decompose` call checks the decomposition; delta0 is read off it by
    `_delta0_from`, which checks delta0's two closed forms without
    decomposing p again; and one `_scaled_q_case` call at delta0 gives
    2(k-1) q, compared with the integer 4(k-1)(rho-1) - beta^2, so no
    `Fraction` is built; a failure prints both by `_ratio_text`.  Requires
    k >= 2, rho >= 0, 0 <= beta <= k-1 and m >= max(1, rho).
    """
    if k < 2:
        _refuse_below("k", 2, k)
    if rho < 0:
        _refuse_below("rho", 0, rho)
    if not 0 <= beta <= k - 1:
        raise ValueError(f"need 0 <= beta <= k-1, got beta={beta}")
    if m < max(1, rho):
        raise ValueError(f"need m >= max(1, rho) = {max(1, rho)}, got m={m}")
    t = k - 1 - beta
    p = (k - 1) * m * (m + 1) + t * (m + 1) + rho
    dec = decompose(p, k)
    if dec != (m, t, rho):
        raise InvariantViolation(
            f"decomposition of p={p} is (m={dec[0]}, t={dec[1]}, lam={dec[2]}), "
            f"expected (m={m}, t={t}, lam={rho})"
        )
    predicted = 4 * (k - 1) * (rho - 1) - beta * beta  # 2(k-1) q
    actual = _scaled_q_case(p, k, _delta0_from(p, k, dec))
    if actual != predicted:
        den = 2 * (k - 1)
        raise InvariantViolation(
            f"optimal q at (p={p}, k={k}) is {_ratio_text(actual, den)}, "
            f"predicted {_ratio_text(predicted, den)}"
        )
    return p


def _scaled_q_values(k: int, p_max: int) -> list[int]:
    """The sorted integers 2(k-1) q of `attained_q_values(k, p_max)`.

    Below p = 2(k-1) (the delta0 = 0 regime) every optimal q is negative and
    is read off q_case(p, k, 0), through its integer core `_scaled_q_case`.
    From p = 2(k-1) on, the optimal q is 2(rho-1) - beta^2/(2(k-1)), which
    is negative only on the finite family of pairs (rho, beta) with
    0 <= beta <= k-1 and 4(rho-1) < k-1 (beta and -beta give the same q, and
    beta >= 0 has the smaller p).  Each pair is first realized at
    m = max(1, rho) by genus_for_invariants, one `decompose` call per pair,
    whose p grows as beta falls and as rho grows, so the walk stops at
    q >= 0 or p > p_max.  The cost is O(k) for the regime plus about two
    pairs per value returned, whatever p_max is.  Every q is collected,
    de-duplicated and sorted as the integer 2(k-1) q; the scale is positive,
    so the order is that of q.  The number of candidates, which bounds that
    cost, is what `q_candidate_count` returns; past QVALUES_MAX_VALUES of
    them, the walk is refused before it starts.
    """
    # q_candidate_count refuses k < 2 and p_max < 2 first
    if q_candidate_count(k, p_max) > QVALUES_MAX_VALUES:
        _refuse_over_limit(f"the spectrum at k={k}, pmax={p_max} has more than "
                           f"{QVALUES_MAX_VALUES} candidate values,", "QVALUES_MAX_VALUES",
                           QVALUES_MAX_VALUES)
    values = {_scaled_q_case(p, k, 0) for p in range(2, min(p_max + 1, 2 * (k - 1)))}
    rho = 0
    while 4 * (rho - 1) < k - 1:
        base, m = 4 * (k - 1) * (rho - 1), max(1, rho)
        for beta in range(k - 1, -1, -1):
            scaled = base - beta * beta  # 2(k-1) q
            if scaled >= 0 or genus_for_invariants(k, rho, beta, m) > p_max:
                break
            values.add(scaled)
        if beta == k - 1:
            break  # even the first p of this rho is past p_max
        rho += 1
    return sorted(values)


def attained_q_values(k: int, p_max: int) -> "list[Fraction]":
    """Sorted negative self-intersections of optimal classes for p <= p_max.

    `_scaled_q_values` refuses past QVALUES_MAX_VALUES candidates and walks
    and checks the rest as the integers 2(k-1) q; one `Fraction` per value.
    """
    from fractions import Fraction
    den = 2 * (k - 1)
    return [Fraction(scaled, den) for scaled in _scaled_q_values(k, p_max)]


def q_candidate_count(k: int, p_max: int) -> int:
    """How many candidates attained_q_values(k, p_max) walks, up to a cap.

    The candidates are the p in the delta0 = 0 regime 2 <= p < 2(k-1) and
    p <= p_max, and the pairs (rho, beta) with q < 0 whose first p is at
    most p_max; their number bounds the length of the spectrum.  For each
    rho, q < 0 means beta^2 > 4(k-1)(rho-1), and p <= p_max means
    (k-1-beta)(m+1) <= p_max - rho - (k-1)m(m+1) with m = max(1, rho); both
    hold for every beta from a least one up to k-1.  The sum over rho ends
    at the first rho with no pair, or at the first partial sum over
    QVALUES_MAX_VALUES, which is returned: the count is exact up to the cap.

    Each rho's pairs are counted in closed form, but the sum is not: it takes
    one step per rho, and each step adds at least one candidate, so the cap
    bounds it by QVALUES_MAX_VALUES + 1 steps for any k.  Uncapped, the up to
    min((k-1)/4, sqrt(p_max/(k-1))) steps at p_max = 10^40 took 0.35-0.40 s
    at k = 10^6 and did not return within 10 s at k = 10^9 (Python 3.11.7 on
    a shared 2-vCPU Intel Xeon Linux machine); capped, at k = 10^6 the
    delta0 = 0 regime alone passes the cap, in about 1 us.
    """
    if _int(k) < 2:
        _refuse_below("k", 2, k)
    if _int(p_max) < 2:
        _refuse_below("p_max", 2, p_max)
    count = max(0, min(p_max + 1, 2 * (k - 1)) - 2)
    rho = 0
    while 4 * (rho - 1) < k - 1 and count <= QVALUES_MAX_VALUES:
        m = max(1, rho)
        room = p_max - rho - (k - 1) * m * (m + 1)
        if room < 0:
            break
        least = max(k - 1 - room // (m + 1), 0)
        if rho > 0:
            least = max(least, isqrt(4 * (k - 1) * (rho - 1)) + 1)
        count += k - least
        rho += 1
    return count
