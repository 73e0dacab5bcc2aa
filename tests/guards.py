"""One record per injected fault: a broken closed form and the check that catches it.

Each fault patches one attribute, so that one runtime cross-check of the
package is the first to fail.  test_gonality.py runs every record,
through its library call and through every command that reaches its check,
and its inventory test fails for a `raise InvariantViolation` site or a
label of `pencil.verification_suite` that no record reaches.  pytest collects
nothing from this module.
"""

import ast
import inspect
from math import isqrt
from pathlib import Path
from random import Random
from typing import NamedTuple

from k3gonal import brillnoether, chains, cli, gonality, hilbert, pencil
from k3gonal.brillnoether import necessary_condition, rho
from k3gonal.chains import witness
from k3gonal.gonality import GonalityCase, decompose, delta0, delta0_bruteforce
from k3gonal.hilbert import (
    CurveClass,
    genus_for_invariants,
    gonality_class,
    ht_violation_check,
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


class Fault(NamedTuple):
    patch: tuple  # (module, attribute, replacement)
    call: object  # a library call that reaches the check
    cases: list  # the call's arguments, one tuple per call; the first names the check
    message: str  # a fragment of the check's message
    argvs: tuple = ()  # every command that reaches the check, none if none does


def _shifted_report(alpha, rho_at_alpha):
    """`necessary_condition` with alpha and rho at alpha moved by the given steps."""
    def shifted(p, delta, r, d):
        report = necessary_condition(p, delta, r, d)
        return brillnoether.NecessityReport(
            report.alpha + alpha, report.rho_at_alpha + rho_at_alpha, report.satisfied,
            report.threshold_delta)
    return shifted


_wedge_plan, _primitive_isotropic_n = pencil._wedge_plan, hilbert._primitive_isotropic_n
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
    """Every curve class built by name one r_k further out."""

    __slots__ = ()

    def __init__(self, p, k, a, y):
        CurveClass.__init__(self, p, k, a, y + 1)


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
        (brillnoether, "necessary_condition", _shifted_report(1, 0)),
        lambda p, k: GonalityCase(p, k, delta0(p, k)), PK_CASES,
        "outside (-(k-1), k-1]", CASE_ARGVS),
    "case-completed-square": Fault(
        (brillnoether, "necessary_condition", _shifted_report(0, 1)),
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
    "ht-q-rbar": Fault(
        (hilbert, "_primitive_isotropic_n", lambda p, k: _primitive_isotropic_n(p, k) + 1),
        ht_violation_check, PRIMITIVE_CASES, "!= -2n - 1/(2(k-1))"),
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


def raise_sites():
    """(file name, line) of every `raise InvariantViolation(...)` in the package."""
    sites = set()
    for path in Path(gonality.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), path.name)):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and getattr(
                    node.exc.func, "id", None) == "InvariantViolation":
                sites.add((path.name, node.lineno))
    return sites


def suite_labels():
    """The label of every failure `pencil.verification_suite` collects, from
    its `failures.append(f"sample {index}: <label> ...")` calls."""
    labels = set()
    for node in ast.walk(ast.parse(inspect.getsource(pencil.verification_suite))):
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "append" and \
                getattr(node.func.value, "id", None) == "failures":
            text = "".join(v.value if isinstance(v, ast.Constant) else "{}"
                           for v in node.args[0].values)
            labels.add(text.removeprefix("sample {}: ").removesuffix(" {}"))
    return labels
