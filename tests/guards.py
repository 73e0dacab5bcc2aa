"""One record per injected fault, and per refusal of a domain check.

Each fault patches one attribute, so that one runtime cross-check of the
package is the first to fail.  test_gonality.py runs every record, through
its library call and every command that reaches its check, and its inventory
test fails for a `raise InvariantViolation` site or a label of
`pencil.verification_suite` that no record reaches; test_cli.py does the same
for the refusals and `raise ValueError`.  pytest collects nothing from here.
"""

import ast
import inspect
from math import isqrt
from operator import attrgetter
from pathlib import Path
from random import Random
from typing import NamedTuple

from k3gonal import brillnoether, chains, cli, exactmath, gonality, hilbert, pencil
from k3gonal.brillnoether import necessary_condition, rho
from k3gonal.chains import witness
from k3gonal.gonality import GonalityCase, decompose, delta0, delta0_bruteforce
from k3gonal.hilbert import (
    CurveClass,
    genus_for_invariants,
    gonality_class,
    isotropic_case,
    minimal_q_family,
    optimal_class,
    q_case,
)
from k3gonal.pencil import (
    BinaryForm,
    conic_intersection,
    distinct_root_count,
    random_coprime_pencil,
    random_smooth_conic,
    wedge_curve,
    wronskian,
)

import leaves


class Fault(NamedTuple):
    patch: tuple  # (module, attribute, replacement)
    call: object  # a library call that reaches the check
    cases: list  # the call's arguments, one tuple per call; the first names the check
    message: str  # a fragment of the check's message
    argvs: tuple = ()  # every command that reaches the check, none if none does


def _shifted_bound(alpha, rho_at_alpha):
    """`brillnoether._bound`, the core of `necessary_condition`, with alpha and
    rho at alpha moved by the given steps."""
    def shifted(p, delta, r, d):
        bound_alpha, bound_rho, threshold = _bound(p, delta, r, d)
        return bound_alpha + alpha, bound_rho + rho_at_alpha, threshold
    return shifted


_bound, _wedge_plan = brillnoether._bound, pencil._wedge_plan
_scaled_q, _delta0_from = hilbert._scaled_q, gonality._delta0_from


def _zeroed_wedge_plan(k):
    """`_wedge_plan` with every coefficient of the h_n expansion zero."""
    monomials, pairs = _wedge_plan(k)
    return monomials, tuple((i, j, tuple((n, 0) for n, _ in terms)) for i, j, terms in pairs)


def _cubic_conic_forms(a):
    """The conic's quadratic forms times x0, at degree bound 3."""
    return tuple(BinaryForm(3, (r[0], 2 * r[1], r[2], 0)) for r in a)


def _conic_count(k, seed):
    rng = Random(seed)
    return conic_intersection(wedge_curve(random_coprime_pencil(k, rng)), random_smooth_conic(rng))


def _seeded_wronskian(k, seed):
    return wronskian(random_coprime_pencil(k, Random(seed)))


class _ShiftedClass(CurveClass):
    """Every curve class built by name one r_k further out, by the checked
    constructor or by `_make`."""

    __slots__ = ()

    def __init__(self, p, k, a, y):
        CurveClass.__init__(self, p, k, a, y + 1)

    @staticmethod
    def _make(p, k, a, y):
        return _ShiftedClass(p, k, a, y)


def _point_conic_forms(a):
    """The conic collapsed to its point A(1, 2, 1), the image of x0 = x1:
    every pullback is a (2k-2)-fold root, so no sample is transversal."""
    return tuple(BinaryForm(2, (r[0] + 2 * r[1] + r[2], 0, 0)) for r in a)


def membership_breaking_wedge(pen):
    """The wedge curve plus e0^(k-3) (e1^2 - 4 e0 e2): it vanishes on the
    diagonal, so only the membership oracle sees it."""
    curve, k = wedge_curve(pen), pen.k
    store = dict(curve.terms)
    for expo, v in (((k - 3, 2, 0), 1), ((k - 2, 0, 1), -4)):
        store[expo] = store.get(expo, 0) + v
    return pencil.SymPlaneCurve(k - 1, store)


def _e0_multiple_wedge(pen):
    """e0^(k-1): of degree k - 1, but e0 times a curve of degree k - 2, so no
    term is free of e0."""
    return pencil.SymPlaneCurve(pen.k - 1, {(pen.k - 1, 0, 0): 1})


def doubled_wronskian(pen):
    """Twice the Wronskian: proportional to the diagonal restriction, not minus it."""
    w = wronskian(pen)
    return BinaryForm(w.bound, tuple(2 * c for c in w.coeffs))


def _shifted_decomposition(t, lam):
    """`decompose` with t and lambda moved by the given steps."""
    def shifted(p, k):
        m, t0, lam0 = decompose(p, k)
        return m, t0 + t, lam0 + lam
    return shifted


class _AllAdmissible(GonalityCase):
    """Every gonality case marked admissible."""

    __slots__ = ()
    admissible = True


def _mutated(function, old, new):
    """`function` with one source fragment replaced, compiled at its own lines
    and run in a copy of its module's namespace."""
    module = inspect.getmodule(function)
    source = inspect.getsource(function)
    assert source.count(old) == 1
    tree = ast.parse(source.replace(old, new))
    ast.increment_lineno(tree, function.__code__.co_firstlineno - 1)
    namespace = dict(vars(module))
    exec(compile(tree, module.__file__, "exec"), namespace)
    return namespace[function.__name__]


def _enumerate(p, k):
    return chains.enumerate_partitions(p, k)


def _suite(k, seed):
    return cli.pencil_verify(k, 5, seed)


def _verified_delta0(p, k):
    return cli.gonality_delta0(p, k, True)


# the cases of the closed forms in (p, k), and of the seeded pencils in (k, seed)
PK_CASES = [(8, 2), (9, 4), (12, 3), (10**40 + 1, 10**6)]
PENCIL_CASES = [(2, 0), (3, 1), (8, 2)]
# p = s(s+1)(k-1), and p = n^2(k-1) + 1 with n >= 2 (so (k-1)(p-1) is a square)
MINIMAL_Q_CASES = [(6, 2), (12, 3), (36, 4), (10**20 * (10**20 + 1) * (10**6 - 1), 10**6)]
PRIMITIVE_CASES = [(10, 2), (17, 2), (37, 10), (10**46 + 1, 10**6 + 1)]
CONE = "hilb cone -p 8 -k 2"
VERIFY = "pencil verify -k 3 --samples 5"
RAYS = "hilb rays -p 12 -k 3"
QVALUES = "hilb qvalues -k 3 --pmax 300"
SCAN = "hilb scan --pmax 12 --kmax 3"
DELTA0_VERIFY = "gonality delta0 -p 9 -k 4 --verify"
# one argv of each command that reaches a check of decompose or delta0, and
# of GonalityCase (each found by running every case of leaves.py under the fault)
DELTA0_ARGVS = ("chains witness -p 8 -k 2 --delta 5", "gonality delta0 -p 20 -k 3", CONE,
                "hilb rays -p 8 -k 2", SCAN)
DECOMPOSE_ARGVS = (*DELTA0_ARGVS, "hilb qvalues -k 2 --pmax 50")
CASE_ARGVS = (DELTA0_VERIFY, "gonality dims -p 8 -k 2 --delta 4",
              "hilb class -p 8 -k 2 --delta 4", CONE, "hilb q -p 8 -k 2 --delta 4",
              "hilb qvalues -k 2 --pmax 50", "hilb rays -p 8 -k 2", SCAN)
# (k, rho, beta, m) for genus_for_invariants
INVARIANT_CASES = [(3, 0, 2, 1), (4, 1, 1, 1), (10**6, 3, 5, 10**20)]
# delta0 - 1, where the witness rule's last chain index drops under 1 at (9, 2)
# and (20, 2), and only breaks the cap at (13, 3)
BELOW_DELTA0 = [(p, k, delta0(p, k) - 1) for p, k in [(13, 3), (9, 2), (20, 2)]]
CHAIN_CASES = [(8, 2), (13, 3), (40, 4)]
ENUMERATE_CASES = [(12, 2), (8, 2), (13, 3)]
ENUMERATE = "chains enumerate -p 12 -k 2"

# each fault breaks one closed form and leaves the check that guards it alone
FAULTS = {
    "decompose-m-too-large": Fault(
        (gonality, "isqrt", lambda n: isqrt(n) + 2), decompose, PK_CASES,
        "out of range for p=", DECOMPOSE_ARGVS),
    "decompose-m-too-small": Fault(
        (gonality, "isqrt", lambda n: isqrt(n) - 2), decompose, PK_CASES,
        "out of range for p=", DECOMPOSE_ARGVS),
    "delta0-two-forms": Fault(
        (gonality, "decompose", _shifted_decomposition(0, 1)), delta0, PK_CASES,
        "delta0 closed forms disagree", DELTA0_ARGVS),
    "case-beta-range": Fault(
        (brillnoether, "_bound", _shifted_bound(1, 0)),
        lambda p, k: GonalityCase(p, k, delta0(p, k)), PK_CASES,
        "outside (-(k-1), k-1]", CASE_ARGVS),
    "case-completed-square": Fault(
        (brillnoether, "_bound", _shifted_bound(0, 1)),
        lambda p, k: GonalityCase(p, k, delta0(p, k)), PK_CASES,
        "!= 4(k-1)delta - (g-k+1)^2 + beta^2", CASE_ARGVS),
    "wedge-vanished": Fault(
        (pencil, "_wedge_plan", _zeroed_wedge_plan),
        lambda k, seed: wedge_curve(random_coprime_pencil(k, Random(seed))), PENCIL_CASES,
        "wedge curve vanished for a valid pencil", (VERIFY,)),
    "conic-bezout": Fault(
        (pencil, "_conic_forms", _cubic_conic_forms), _conic_count, PENCIL_CASES,
        "pullback bound disagrees with Bezout degree", (VERIFY,)),
    # the formula in s is the oracle of the general optimal class here
    "minimal-q-class": Fault(
        (hilbert, "optimal_class", lambda p, k: CurveClass(p, k, 1, optimal_class(p, k).y + 1)),
        minimal_q_family, MINIMAL_Q_CASES, "minimal-q family class mismatch", (RAYS, SCAN)),
    "minimal-q-value": Fault(
        (hilbert, "CurveClass", _ShiftedClass), minimal_q_family, MINIMAL_Q_CASES,
        "minimal-q family q=", (RAYS, SCAN)),
    "isotropic-q": Fault(
        (hilbert, "gonality_class",
         lambda p, k, delta: CurveClass(p, k, 1, gonality_class(p, k, delta).y + 1)),
        isotropic_case, PRIMITIVE_CASES, "isotropic class has q="),
    # an offset of +2 keeps rho's sign at alpha = 0, so only the value
    # identity rho == delta - threshold catches it
    "necessity-rho": Fault(
        (brillnoether, "rho", lambda g, r, d: rho(g, r, d) + 2), necessary_condition,
        [(9, 9, 1, 4), (8, 8, 1, 2), (40, 40, 1, 3)], "rho(p, alpha*r, alpha*d + delta) = ",
        ("bn check -p 9 -k 4 --delta 9", *CASE_ARGVS)),
    "bruteforce-none-admissible": Fault(
        (gonality, "admissible", lambda p, k, delta: False), delta0_bruteforce, PK_CASES[:3],
        "no admissible delta found"),
    "optimal-class-inadmissible": Fault(
        (hilbert, "delta0", lambda p, k: delta0(p, k) - 1), optimal_class, PK_CASES,
        "is inadmissible at", (CONE, "hilb cone -p 50 -k 3", "hilb rays -p 50 -k 3", SCAN)),
    # delta0 one above, not m one off: y is the least l(k-1) + floor(p/l) over
    # l >= 1, at l = m + 1 and often at a neighbour too (at (12, 3), l = m
    # gives the same y), so a fault in m may never reach the guard
    "optimal-class-y": Fault(
        (hilbert, "delta0", lambda p, k: delta0(p, k) + 1), optimal_class, PK_CASES,
        "optimal class closed form", (CONE, "hilb cone -p 50 -k 3", "hilb rays -p 50 -k 3",
                                      SCAN)),
    "q-two-forms": Fault(
        (hilbert, "_scaled_q", lambda p, k, a, y: _scaled_q(p, k, a, y) + 1),
        lambda p, k: q_case(p, k, delta0(p, k)), PK_CASES, "q closed forms disagree",
        ("hilb q -p 9 -k 4 --delta 2", "hilb qvalues -k 2 --pmax 50")),
    "q-lower-bound": Fault(
        (hilbert, "GonalityCase", _AllAdmissible), lambda p, k: q_case(p, k, 0), PK_CASES,
        "below -(k+3)/2 on an admissible case", ("hilb q -p 8 -k 2 --delta 0",)),
    "genus-decomposition": Fault(
        (hilbert, "decompose", _shifted_decomposition(1, 0)), genus_for_invariants,
        INVARIANT_CASES, "expected (m=", (QVALUES,)),
    "genus-q": Fault(
        (hilbert, "_delta0_from", lambda p, k, dec: _delta0_from(p, k, dec) + 1),
        genus_for_invariants, INVARIANT_CASES, "predicted", (QVALUES,)),
    "chain-witness": Fault(
        (chains, "delta0", lambda p, k: delta0(p, k) - 1), witness, BELOW_DELTA0,
        "chain witness failed", ("chains witness -p 13 -k 3 --delta 4",)),
    # the witness at the patched delta0 passes the witness check, which comes
    # first, and fails the certificate lightest(g0) <= p < lightest(g0 + 1)
    "chain-minimal": Fault(
        (chains, "delta0", lambda p, k: delta0(p, k) + 1),
        lambda p, k: witness(p, k, delta0(p, k) + 1), CHAIN_CASES,
        "is not minimal for chains", ("chains witness -p 8 -k 2 --delta 5",)),
    "increment-merge": Fault(
        (chains, "increment",
         _mutated(chains.increment, "mult.get(j1 + j2, 0) + 1", "mult.get(j1 + j2, 0) + 2")),
        lambda p, k: chains.increment(witness(p, k, delta0(p, k))), CHAIN_CASES,
        "increment broke validity"),
    # the enumerator's g + delta = p check, broken at the leaf, down the
    # recursion, and in the delta sum
    "enumerator-sum": Fault(
        (chains, "enumerate_partitions", _mutated(
            chains.enumerate_partitions, "g_sum = g + a + rest", "g_sum = g + a + rest + 1")),
        _enumerate, ENUMERATE_CASES, "g + delta != p", (ENUMERATE,)),
    "enumerator-recursion": Fault(
        (chains, "enumerate_partitions", _mutated(
            chains.enumerate_partitions, "parts, g + a, delta", "parts, g + a - 1, delta")),
        _enumerate, ENUMERATE_CASES, "g + delta != p", (ENUMERATE,)),
    "enumerator-delta": Fault(
        (chains, "enumerate_partitions", _mutated(chains.enumerate_partitions,
         "delta_sum = delta + (part - 1) * a", "delta_sum = delta + part * a")),
        _enumerate, ENUMERATE_CASES, "g + delta != p", (ENUMERATE,)),
    # one above, one below and past p: each fails another test of is_optimal
    "cli-delta0-verify": Fault(
        (gonality, "delta0", lambda p, k: delta0(p, k) + 1), _verified_delta0, PK_CASES,
        "is not the least admissible delta", (DELTA0_VERIFY,)),
    "cli-delta0-verify-below": Fault(
        (gonality, "delta0", lambda p, k: delta0(p, k) - 1), _verified_delta0, PK_CASES,
        "is not the least admissible delta", (DELTA0_VERIFY,)),
    "cli-delta0-verify-past-p": Fault(
        (gonality, "delta0", lambda p, k: 99), _verified_delta0, PK_CASES[:3],
        "delta0 closed form 99 is not the least admissible delta", (DELTA0_VERIFY,)),
    "cli-verify-failures": Fault(
        (pencil, "wedge_curve", membership_breaking_wedge),
        lambda k, samples: cli.pencil_verify(k, samples, 0), [(3, 20), (4, 5)],
        "membership oracle at", ("pencil verify -k 3 --samples 20",)),
    "cli-verify-transversality": Fault(
        (pencil, "_conic_forms", _point_conic_forms),
        lambda k, seed: cli.pencil_verify(k, 10, seed), PENCIL_CASES, "below 95%", (VERIFY,)),
    # the suite's degree law, diagonal identity and squarefree cross-check
    "suite-wedge-degree": Fault(
        (pencil, "wedge_curve", _e0_multiple_wedge), _suite, PENCIL_CASES,
        "sample 0: wedge degree law", (VERIFY,)),
    "suite-diagonal": Fault(
        (pencil, "wronskian", doubled_wronskian), _suite, PENCIL_CASES,
        "sample 0: diagonal/Wronskian identity",
        (VERIFY, *(f"pencil verify -k {k} --samples 5 --seed 1" for k in (2, 3, 8)))),
    "suite-squarefree": Fault(
        (pencil, "distinct_root_count", lambda form: distinct_root_count(form) - 1), _suite,
        PENCIL_CASES, "sample 0: non-transversal report with squarefree pullback", (VERIFY,)),
    # two-bit slots: no product of the packed kernels fits, whether a product,
    # a Wronskian or a conic pullback
    "packed-carry": Fault(
        (pencil, "_width", lambda bound: 2), lambda kernel, *args: kernel(*args),
        [(_seeded_wronskian, k, seed) for k, seed in PENCIL_CASES]
        + [(pencil._mul, [9, 1], [9, 1]), (_conic_count, 3, 1)], "does not fit", (VERIFY,)),
}


class Refusal(NamedTuple):
    calls: tuple  # library calls that reach the check, each (function, *arguments)
    message: str  # the whole message, as the check words it
    argvs: tuple = ()  # every command that reaches the check, none if none does


# the public functions that refuse a p or k below 2 through gonality._check_pk
# first, on (p, k) and on (p, k, delta), and the leaves that take a --delta
PK_FUNCTIONS = (decompose, delta0, delta0_bruteforce, optimal_class, hilbert.tau,
                hilbert.extremal_ray_status, hilbert.lagrangian_report, minimal_q_family,
                isotropic_case)
DELTA_FUNCTIONS = (GonalityCase, gonality.admissible, gonality.expected_dims, gonality_class,
                   q_case)
DELTA_LEAVES = ("gonality dims", "hilb class", "hilb q")


def _pk_refusal(p, k, message):
    return Refusal(
        (*((f, p, k) for f in PK_FUNCTIONS), *((f, p, k, 0) for f in DELTA_FUNCTIONS),
         (gonality.is_optimal, p, k, 0), (CurveClass, p, k, 0, -1),
         (hilbert.DivisorClass, p, k, 1, 0)), message,
        tuple(f"{leaf} -p {p} -k {k}" for leaf in (
            "gonality delta0", "hilb cone", "hilb lagrangian", "hilb rays"))
        + tuple(f"{leaf} -p {p} -k {k} --delta 0" for leaf in DELTA_LEAVES))


def _delta_refusal(delta):
    """A delta out of [0, p] at (p, k) = (5, 2)."""
    return Refusal(
        ((necessary_condition, 5, delta, 1, 2), *((f, 5, 2, delta) for f in DELTA_FUNCTIONS)),
        f"need 0 <= delta <= p, got delta={delta}, p=5",
        tuple(f"{leaf} -p 5 -k 2 --delta {delta}" for leaf in ("bn check", *DELTA_LEAVES)))


invariants = genus_for_invariants
suite, Partition, Form = pencil.verification_suite, chains.ChainPartition, BinaryForm
Curve, Pencil = pencil.SymPlaneCurve, pencil.Pencil
ZERO_FORM, LINE = Form(2, (0, 0, 0)), wedge_curve(Pencil(Form(2, (0, 0, 1)), Form(2, (1, 0, 0))))
BIG_P, LIMITS = 10**40 + 1, leaves.LIMITS

# every domain check, with each message it refuses with; a *_MAX_* limit with
# the argv one past it of its leaf's record in leaves.py
REFUSALS = {
    "rho-g": Refusal(((rho, -1, 1, 3),), "need g >= 0, got g=-1", ("bn rho -g -1 -r 1 -d 3",)),
    "rho-r": Refusal(((rho, 4, -1, 3),), "need r >= 0, got r=-1", ("bn rho -g 4 -r -1 -d 3",)),
    "rho-d": Refusal(((rho, 4, 1, -3),), "need d >= 0, got d=-3", ("bn rho -g 4 -r 1 -d -3",)),
    "necessity-p": Refusal(((necessary_condition, 1, 0, 1, 2),), "need p >= 2, got p=1",
                           ("bn check -p 1 -k 2 --delta 0",)),
    # the series is named before delta, which is out of range too
    "necessity-series": Refusal(((necessary_condition, 9, 20, 1, 1),), "need d > r >= 1, got "
                                "r=1, d=1", ("bn check -p 9 -d 1 --delta 20",)),
    "necessity-series-r": Refusal(((necessary_condition, 5, 2, 2, 2),), "need d > r >= 1, got "
                                  "r=2, d=2", ("bn check -p 5 --delta 2 -r 2 -d 2",)),
    # the r < 1 half of the series check
    "alpha-series-r": Refusal(((necessary_condition, 5, 2, 0, 3),), "need d > r >= 1, got "
                              "r=0, d=3", ("bn check -p 5 --delta 2 -r 0 -d 3",)),
    "delta-over-p": _delta_refusal(6),
    "delta-negative": _delta_refusal(-1),
    "partition-p": Refusal(((Partition, 0, 2, ()),), "need p >= 1, got p=0",
                           ("chains stable -p 0 -k 2 --alpha 1:1",)),
    "partition-k": Refusal(((Partition, 4, 1, ()),), "need k >= 2, got k=1",
                           ("chains stable -p 4 -k 1 --alpha 1:4",)),
    "partition-index": Refusal(((Partition, 4, 2, {5: 1}),), "chain length index 5 outside 1..4",
                               ("chains stable -p 4 -k 2 --alpha 5:1",)),
    "partition-index-0": Refusal(((Partition, 4, 2, {0: 1}),), "chain length index 0 outside 1..4",
                                 ("chains stable -p 4 -k 2 --alpha 0:1",)),
    "partition-multiplicity": Refusal(((Partition, 4, 2, {2: -1}),),
                                      "negative multiplicity -1 for length index 2",
                                      ("chains stable -p 4 -k 2 --alpha 2:-1",)),
    "increment-invalid": Refusal(((chains.increment, Partition(8, 2, {1: 8})),),
                                 "cannot increment an invalid partition"),
    "increment-maximal": Refusal(((chains.increment, Partition(5, 2, {5: 1})),),
                                 "already maximal: a single chain admits no merge"),
    "witness-p": Refusal(((witness, 1, 2, 0),), "need p >= 2, got p=1",
                         ("chains witness -p 1 -k 2 --delta 0",)),
    "witness-k": Refusal(((witness, 8, 1, 4),), "need k >= 2, got k=1",
                         ("chains witness -p 8 -k 1 --delta 4",)),
    "witness-delta-negative": Refusal(((witness, 5, 2, -1),), "need 0 <= delta <= p, got "
                                      "delta=-1, p=5", ("chains witness -p 5 -k 2 --delta -1",)),
    # refused before delta0 is computed, as bn check and hilb q refuse it
    "witness-delta-over-p": Refusal(((witness, 5, 2, 6),), "need 0 <= delta <= p, got "
                                    "delta=6, p=5", ("chains witness -p 5 -k 2 --delta 6",)),
    "witness-inadmissible": Refusal(((witness, 8, 2, 3),), "inadmissible: delta=3 < delta0=4",
                                    ("chains witness -p 8 -k 2 --delta 3",)),
    # refused as inadmissible, not for the chain lengths its witness would have
    "witness-inadmissible-big-p": Refusal(
        ((witness, BIG_P, 2, 0),), f"inadmissible: delta=0 < delta0={delta0(BIG_P, 2)}",
        (f"chains witness -p {BIG_P} -k 2 --delta 0",)),
    "witness-delta-p": Refusal(((witness, 8, 2, 8),), "no chain witness for delta=8 > p-1=7",
                               ("chains witness -p 8 -k 2 --delta 8",)),
    "witness-lengths": Refusal(
        ((witness, BIG_P, 2, BIG_P - 199999),), f"the witness at p={BIG_P}, k=2, delta="
        f"{BIG_P - 199999} has up to 100001 chain lengths, over the limit "
        "WITNESS_MAX_LENGTHS = 100000", (LIMITS["WITNESS_MAX_LENGTHS"].past,)),
    "enumerate-max-p": Refusal(((chains.enumerate_partitions, 61, 2),), "p=61 is over the limit "
                               "DEFAULT_MAX_P = 60", (LIMITS["DEFAULT_MAX_P"].past,)),
    "enumerate-p": Refusal(((chains.enumerate_partitions, 0, 2),), "need p >= 1, got p=0",
                           ("chains enumerate -p 0 -k 2",)),
    "enumerate-k": Refusal(((chains.enumerate_partitions, 4, 1),), "need k >= 2, got k=1",
                           ("chains enumerate -p 4 -k 1",)),
    # a trailing --out that cannot be opened for writing, on a case of every leaf
    "out-unwritable": Refusal(
        ((cli._emit, "table", ".", {}, lambda: ""),), "cannot write --out .: Is a directory",
        tuple(f"{leaf.cases[0].argv} --out ." for leaf in leaves.LEAVES.values())),
    "bn-check-k": Refusal(((cli.bn_check, 9, 1, 2, None, None),), "need k >= 2, got k=1",
                          ("bn check -p 9 -k 1 --delta 2",)),
    "bn-check-k-0": Refusal(((cli.bn_check, 9, 0, 2, None, None),), "need k >= 2, got k=0",
                            ("bn check -p 9 -k 0 --delta 2",)),
    "bn-check-k-and-d": Refusal(((cli.bn_check, 9, 4, 2, None, 5),), "-k 4 sets d=4, which "
                                "conflicts with -d 5", ("bn check -p 9 -k 4 --delta 2 -d 5",)),
    "bn-check-k-and-r": Refusal(((cli.bn_check, 9, 4, 2, 2, None),), "-k 4 sets r=1, which "
                                "conflicts with -r 2", ("bn check -p 9 -k 4 --delta 2 -r 2",)),
    "bn-check-no-degree": Refusal(((cli.bn_check, 9, None, 2, None, None),), "provide -k, or an "
                                  "explicit degree via -d", ("bn check -p 9 --delta 2",)),
    "stable-alpha": Refusal(((cli.chains_stable, 8, 2, "1-2"),),
                            "--alpha expects comma-separated j:multiplicity pairs, got '1-2'",
                            ("chains stable -p 8 -k 2 --alpha 1-2",)),
    # the two rules of chains.validate, each named
    "stable-weight": Refusal(((cli.chains_stable, 8, 2, "1:1"),), "partition invalid: weight 1 "
                             "is not p=8", ("chains stable -p 8 -k 2 --alpha 1:1",)),
    "stable-cap": Refusal(((cli.chains_stable, 8, 2, "1:8"),), "partition invalid: alpha_1 = 8 "
                          "is over the cap 2(k-1) = 2", ("chains stable -p 8 -k 2 --alpha 1:8",)),
    "scan-pmin": Refusal(((cli.hilb_scan, 5, 2, 1, 2),), "need pmin >= 2, got pmin=1",
                         ("hilb scan --pmin 1 --pmax 5 --kmax 2",)),
    "scan-kmin": Refusal(((cli.hilb_scan, 5, 2, 2, 1),), "need kmin >= 2, got kmin=1",
                         ("hilb scan --kmin 1 --pmax 5 --kmax 2",)),
    "scan-empty-p": Refusal(((cli.hilb_scan, 3, 2, 5, 2),), "empty grid: need pmin <= pmax and "
                            "kmin <= kmax, got pmin=5, pmax=3, kmin=2, kmax=2",
                            ("hilb scan --pmin 5 --pmax 3 --kmax 2",)),
    "scan-empty-k": Refusal(((cli.hilb_scan, 8, 3, 2, 4),), "empty grid: need pmin <= pmax and "
                            "kmin <= kmax, got pmin=2, pmax=8, kmin=4, kmax=3",
                            ("hilb scan --pmax 8 --kmin 4 --kmax 3",)),
    "scan-max-rows": Refusal(((cli.hilb_scan, 100002, 2, 2, 2),), "grid of 100001 rows is over "
                             "the limit SCAN_MAX_ROWS = 100000", (LIMITS["SCAN_MAX_ROWS"].past,)),
    "sqrt-negative": Refusal(((exactmath.exact_sqrt, -1),),
                             "exact_sqrt requires a nonnegative argument, got -1"),
    "replace-derived": Refusal(((lambda value: value.__replace__(g=1), GonalityCase(9, 4, 2)),),
                               "field g is declared with init=False, it cannot be specified "
                               "with replace()"),
    "pk-p": _pk_refusal(1, 2, "need p >= 2, got p=1"),
    "pk-k": _pk_refusal(9, 1, "need k >= 2, got k=1"),
    "dims-inadmissible": Refusal(((gonality.expected_dims, 8, 2, 3),), "(p=8, k=2, delta=3) is "
                                 "inadmissible", ("gonality dims -p 8 -k 2 --delta 3",)),
    "pairing-spaces": Refusal(
        ((hilbert.pairing, hilbert.DivisorClass(9, 4, 1, 0), CurveClass(9, 3, 1, 1)),),
        "mismatched ambient spaces: divisor on (p=9, k=4), curve on (p=9, k=3)"),
    "class-inadmissible": Refusal(((gonality_class, 8, 2, 3),), "(p=8, k=2, delta=3) is "
                                  "inadmissible", ("hilb class -p 8 -k 2 --delta 3",)),
    "q-inadmissible": Refusal(((q_case, 8, 2, 3),), "(p=8, k=2, delta=3) is inadmissible",
                              ("hilb q -p 8 -k 2 --delta 3",)),
    "invariants-k": Refusal(((invariants, 1, 0, 0, 1),), "need k >= 2, got k=1"),
    "invariants-rho": Refusal(((invariants, 3, -1, 0, 1),), "need rho >= 0, got rho=-1"),
    "invariants-beta": Refusal(((invariants, 3, 0, 3, 2),), "need 0 <= beta <= k-1, got beta=3"),
    "invariants-m": Refusal(((invariants, 3, 2, 1, 1),), "need m >= max(1, rho) = 2, got m=1"),
    "qvalues-max-values": Refusal(
        ((hilbert.attained_q_values, 10**6, 100002),), "the spectrum at k=1000000, pmax=100002 "
        "has more than 100000 candidate values, over the limit QVALUES_MAX_VALUES = 100000",
        (LIMITS["QVALUES_MAX_VALUES"].past,)),
    "qvalues-k": Refusal(((hilbert.q_candidate_count, 1, 10), (hilbert.attained_q_values, 1, 10)),
                         "need k >= 2, got k=1", ("hilb qvalues -k 1 --pmax 10",)),
    "qvalues-pmax": Refusal(((hilbert.q_candidate_count, 3, 1), (hilbert.attained_q_values, 3, 1)),
                            "need p_max >= 2, got p_max=1", ("hilb qvalues -k 3 --pmax 1",)),
    "form-bound": Refusal(((Form, -1, ()),), "need bound >= 0, got bound=-1"),
    "form-coefficients": Refusal(((Form, 2, (1, 2)),),
                                 "degree bound 2 needs 3 coefficients, got 2"),
    "zero-form-multiplicity": Refusal(((attrgetter("infinity_multiplicity"), ZERO_FORM),),
                                      "the zero form has no root multiplicities"),
    "zero-form-roots": Refusal(((distinct_root_count, ZERO_FORM),),
                               "the zero form has no root divisor"),
    "proportional-bounds": Refusal(((pencil.proportional, Form(1, (1, 0)), ZERO_FORM),),
                                   "cannot compare forms at different bounds"),
    "pencil-bounds": Refusal(((Pencil, Form(1, (1, 2)), ZERO_FORM),),
                             "pencil members must share the degree bound"),
    "pencil-bound": Refusal(((Pencil, Form(0, (1,)), Form(0, (2,))),), "need bound >= 1, got bound=0"),
    # zero is proportional only to zero, so this needs its own check
    "pencil-zero": Refusal(((Pencil, Form(1, (0, 0)), Form(1, (0, -1))),
                            (Pencil, Form(2, (1, 2, 1)), ZERO_FORM)),
                           "pencil members must be nonzero forms"),
    "pencil-degenerate": Refusal(((Pencil, Form(2, (1, 2, 1)), Form(2, (2, 4, 2))),),
                                 "degenerate pencil: the two forms are proportional"),
    "curve-degree": Refusal(((Curve, -1, {}),), "need degree >= 0, got degree=-1"),
    "curve-exponent": Refusal(((Curve, 1, {(1, 1, 0): 1}),),
                              "exponent (1, 1, 0) is not of total degree 1"),
    "pullback-bounds": Refusal(((LINE.pullback, Form(1, (1, 0)), ZERO_FORM, Form(1, (0, 1))),),
                               "pullback forms must share a degree bound"),
    "diagonal-degree": Refusal(((pencil.diagonal_restriction, LINE, 3),),
                               "curve has degree 1, expected k-1 = 2"),
    # a matrix that maps the plane onto a line
    "conic-singular": Refusal(((conic_intersection, LINE, ((1, 0, 0), (0, 1, 0), (1, 1, 0))),),
                              "conic matrix is singular"),
    # the diagonal e1^2 = 4 e0 e2 contains the conic of the identity matrix
    "conic-contained": Refusal(((conic_intersection, Curve(2, {(0, 2, 0): 1, (1, 0, 1): -4}),
                                 ((1, 0, 0), (0, 1, 0), (0, 0, 1))),), "curve contains the conic"),
    "random-pencil-k": Refusal(((pencil.random_pencil, 0, Random(0)),
                                (random_coprime_pencil, 0, Random(0))), "need k >= 1, got k=0"),
    "suite-max-k": Refusal(((suite, 17, 1),), "k=17 is over the limit PENCIL_MAX_K = 16",
                           (LIMITS["PENCIL_MAX_K"].past,)),
    "suite-max-samples": Refusal(((suite, 3, 1001),), "samples=1001 is over the limit "
                                 "PENCIL_MAX_SAMPLES = 1000", (LIMITS["PENCIL_MAX_SAMPLES"].past,)),
    "suite-k": Refusal(((suite, 1, 1),), "need k >= 2, got k=1", ("pencil verify -k 1",)),
    "suite-samples": Refusal(((suite, 3, -1),), "need samples >= 0, got samples=-1",
                             ("pencil verify -k 3 --samples -1",)),
}
# the stdout errors of cli._emit, by a text of their message, each with the
# test of test_cli.py that holds it, which makes stdout fail
STDOUT_ERRORS = {
    "stdout encoding ": "test_stdout_encoding_error_names_the_encoding",
    "stdout was closed before": "test_closed_stdout_pipe_is_an_error_not_a_traceback",
    "cannot write stdout: ": "test_refused_stdout_write_is_an_error_not_a_traceback",
}


def _raises(tree, name):
    return [node for node in ast.walk(tree) if isinstance(node, ast.Raise) and isinstance(
        node.exc, ast.Call) and getattr(node.exc.func, "id", None) == name]


def raise_sites(name, refusers=True):
    """The source of the message of every `raise <name>(...)` in the package,
    by (file name, line).  A `_refuse_*` function raises for the check that
    calls it, so with `refusers` each call of one that raises `name` is a
    site, its source the call, and the function's own raise is none."""
    trees = {path.name: ast.parse(path.read_text(), path.name)
             for path in Path(gonality.__file__).parent.glob("*.py")}
    helpers = {node.name: _raises(node, name) for tree in trees.values() if refusers
               for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and node.name.startswith("_refuse_")}
    inner = {id(node) for raises in helpers.values() for node in raises}
    sites = {}
    for file, tree in trees.items():
        for node in _raises(tree, name):
            if id(node) not in inner:
                sites[file, node.lineno] = ast.unparse(node.exc.args[0])
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and helpers.get(getattr(node.func, "id", None)):
                sites[file, node.lineno] = ast.unparse(node)
    return sites


def raise_site(exc):
    """(file name, line) of the frame where `exc` was raised, or, for a
    `_refuse_*` function, of the check that called it."""
    tb, site = exc.__traceback__, None
    while tb is not None:
        if not tb.tb_frame.f_code.co_name.startswith("_refuse_"):
            site = Path(tb.tb_frame.f_code.co_filename).name, tb.tb_lineno
        tb = tb.tb_next
    return site


def suite_labels():
    """The label of every failure `pencil.verification_suite` collects, from
    the `failures.append(f"sample {index}: <label> ...")` calls of its
    integer core `_suite_counts`."""
    labels = set()
    for node in ast.walk(ast.parse(inspect.getsource(pencil._suite_counts))):
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "append" and \
                getattr(node.func.value, "id", None) == "failures":
            text = "".join(v.value if isinstance(v, ast.Constant) else "{}"
                           for v in node.args[0].values)
            labels.add(text.removeprefix("sample {}: ").removesuffix(" {}"))
    return labels
