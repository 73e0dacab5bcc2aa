import ast
import inspect
from math import isqrt
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from k3gonal import brillnoether, chains, cli, gonality, hilbert, pencil
from k3gonal.brillnoether import necessary_condition, rho
from k3gonal.chains import witness
from k3gonal.errors import InvariantViolation
from k3gonal.gonality import (
    GonalityCase,
    admissible,
    decompose,
    delta0,
    delta0_bruteforce,
    expected_dims,
    is_optimal,
)
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
    random_coprime_pencil,
    random_smooth_conic,
    wedge_curve,
    wronskian,
)

GRID = [(p, k) for k in range(2, 7) for p in range(2, 61)]


def test_admissible_examples():
    assert admissible(8, 2, 4)
    assert not admissible(8, 2, 3)
    # alpha = 0 regime: every delta with g <= 2(k-1)-1 passes
    for k in range(2, 7):
        for p in range(2, 30):
            for delta in range(0, p + 1):
                if p - delta <= 2 * (k - 1) - 1:
                    assert admissible(p, k, delta)


def test_admissible_matches_general_condition():
    for p, k in GRID[:120]:
        for delta in range(0, p + 1):
            assert admissible(p, k, delta) == necessary_condition(p, delta, 1, k).satisfied


def test_decompose_examples():
    assert decompose(8, 2) == (2, 0, 2)
    assert decompose(9, 4) == (1, 1, 1)
    assert decompose(12, 3) == (2, 0, 0)


def test_decompose_returns_a_plain_tuple():
    # the triple (m, t, lam) is a bare tuple, at small p and near 10^40
    cases = [(p, k) for p, k in GRID if p >= 2 * (k - 1)] + [(10**40 + 1, 2), (10**40, 10**6)]
    for p, k in cases:
        dec = decompose(p, k)
        assert type(dec) is tuple and len(dec) == 3, (p, k)
        assert all(type(x) is int for x in dec), (p, k)


def test_decompose_rejects_small_p():
    with pytest.raises(ValueError):
        decompose(3, 4)  # p < 2(k-1)


@given(p=st.integers(2, 500), k=st.integers(2, 12))
@settings(max_examples=200, deadline=None)
def test_decomposition_roundtrip(p, k):
    if p < 2 * (k - 1):
        return
    m, t, lam = decompose(p, k)
    assert (k - 1) * m * (m + 1) + t * (m + 1) + lam == p
    assert 0 <= t < 2 * (k - 1)
    assert 0 <= lam <= m
    assert m >= 1
    # maximality of m
    assert (k - 1) * (m + 1) * (m + 2) > p


def _decompose_by_search(p, k):
    """Reference decomposition: m by linear search, O(sqrt(p/(k-1))) steps."""
    m = 1
    while (k - 1) * (m + 1) * (m + 2) <= p:
        m += 1
    t = p // (m + 1) - m * (k - 1)
    return m, t, p - (k - 1) * m * (m + 1) - t * (m + 1)


def test_decompose_matches_search_reference():
    for k in range(2, 21):
        for p in range(2 * (k - 1), 5001):
            assert decompose(p, k) == _decompose_by_search(p, k)


def _boundary_p(args):
    # p next to a threshold (k-1)n(n+1), where an off-by-one m would show
    k, n, offset = args
    return max(2 * (k - 1), (k - 1) * n * (n + 1) + offset), k


_EXTREME_PK = st.one_of(
    st.integers(2, 10**6).flatmap(
        lambda k: st.tuples(st.integers(2 * (k - 1), 10**40), st.just(k))
    ),
    st.tuples(
        st.integers(2, 10**6), st.integers(1, 10**17), st.integers(-1, 1)
    ).map(_boundary_p),
)


@given(pk=_EXTREME_PK)
@settings(max_examples=300, deadline=None)
def test_decompose_extremes(pk):
    p, k = pk
    m, t, lam = decompose(p, k)
    assert (k - 1) * m * (m + 1) + t * (m + 1) + lam == p
    assert 0 <= t < 2 * (k - 1)
    assert 0 <= lam <= m
    assert (k - 1) * m * (m + 1) <= p < (k - 1) * (m + 1) * (m + 2)


def test_delta0_examples():
    assert delta0(8, 2) == 4
    assert delta0(12, 3) == 4  # p = s(s+1)(k-1) with s=2: p - 2s(k-1)
    assert delta0(10, 2) == 5  # p = n^2(k-1)+1 with n=3: (n-1)^2(k-1)+1
    assert delta0(2, 2) == 0
    assert delta0(9, 4) == 2


def test_delta0_bruteforce_examples():
    assert delta0_bruteforce(8, 2) == 4
    assert delta0_bruteforce(2, 2) == 0
    assert delta0_bruteforce(9, 4) == 2


def test_delta0_matches_bruteforce_on_grid():
    for p, k in GRID:
        assert delta0(p, k) == delta0_bruteforce(p, k)


def test_is_optimal_holds_exactly_at_bruteforce():
    for k in range(2, 10):
        for p in range(2, 201):
            d0 = delta0_bruteforce(p, k)
            for delta in range(-1, p + 2):
                assert is_optimal(p, k, delta) == (delta == d0), (p, k, delta)


def test_genus_at_minimum():
    for p, k in GRID:
        if p > 2 * (k - 1):
            m, t, _ = decompose(p, k)
            assert p - delta0(p, k) == 2 * m * (k - 1) + t


def test_expected_dims_examples():
    assert expected_dims(8, 2, 4) == (2, 0)
    assert expected_dims(9, 4, 2) == (6, 0)
    for p in range(2, 12):
        for k in range(2, 6):
            assert expected_dims(p, k, p) == (0, 2 * (k - 1))


def test_expected_dims_rejects_inadmissible():
    with pytest.raises(ValueError):
        expected_dims(8, 2, 3)


def test_is_optimal_examples():
    assert is_optimal(8, 2, 4)
    assert not is_optimal(8, 2, 5)
    assert is_optimal(9, 4, 2)


def test_optimality_equivalence_on_grid():
    for p, k in GRID:
        d0 = delta0(p, k)
        for delta in range(0, p + 1):
            assert is_optimal(p, k, delta) == (delta == d0)


def test_beta_range_on_grid():
    for p, k in GRID:
        for delta in range(0, p + 1):
            case = GonalityCase(p, k, delta)
            assert -(k - 1) < case.beta <= k - 1
            assert case.g + case.delta == p


def test_case_rejects_bad_domain():
    with pytest.raises(ValueError):
        GonalityCase(1, 2, 0)
    with pytest.raises(ValueError):
        GonalityCase(5, 1, 0)
    with pytest.raises(ValueError):
        GonalityCase(5, 2, 6)


def _alpha_plus_one(p, delta, r, d):
    report = necessary_condition(p, delta, r, d)
    return brillnoether.NecessityReport(
        report.alpha + 1, report.rho_at_alpha, report.satisfied, report.threshold_delta
    )


def _rho_plus_one(p, delta, r, d):
    report = necessary_condition(p, delta, r, d)
    return brillnoether.NecessityReport(
        report.alpha, report.rho_at_alpha + 1, report.satisfied, report.threshold_delta
    )


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


class _ShiftedClass(CurveClass):
    """Every curve class built by name one r_k further out."""

    __slots__ = ()

    def __init__(self, p, k, a, y):
        CurveClass.__init__(self, p, k, a, y + 1)


def _point_conic_forms(a):
    """The conic collapsed to its point A(1, 2, 1), the image of x0 = x1:
    every pullback is a (2k-2)-fold root, so no sample is transversal."""
    return tuple(BinaryForm(2, (r[0] + 2 * r[1] + r[2], 0, 0)) for r in a)


def _membership_breaking_wedge(pen):
    """The wedge curve plus e0^(k-3) (e1^2 - 4 e0 e2): it vanishes on the
    diagonal, so only the membership oracle sees it."""
    curve, k = wedge_curve(pen), pen.k
    store = dict(curve.terms)
    for expo, v in (((k - 3, 2, 0), 1), ((k - 2, 0, 1), -4)):
        store[expo] = store.get(expo, 0) + v
    return pencil.SymPlaneCurve(k - 1, store)


def _t_one_too_large(p, k):
    m, t, lam = decompose(p, k)
    return m, t + 1, lam


def _lam_one_too_large(p, k):
    m, t, lam = decompose(p, k)
    return m, t, lam + 1


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


# the cases of the closed forms in (p, k), and of the seeded pencils in (k, seed)
PK_CASES = [(8, 2), (9, 4), (12, 3), (10**40 + 1, 10**6)]
PENCIL_CASES = [(2, 0), (3, 1), (8, 2)]
# p = s(s+1)(k-1), and p = n^2(k-1) + 1 with n >= 2 (so (k-1)(p-1) is a square)
MINIMAL_Q_CASES = [(6, 2), (12, 3), (36, 4), (10**20 * (10**20 + 1) * (10**6 - 1), 10**6)]
PRIMITIVE_CASES = [(10, 2), (17, 2), (37, 10), (10**46 + 1, 10**6 + 1)]
CONE = ["hilb", "cone", "-p", "8", "-k", "2"]
VERIFY = ["pencil", "verify", "-k", "3", "--samples", "5"]
RAYS = ["hilb", "rays", "-p", "12", "-k", "3"]
QVALUES = ["hilb", "qvalues", "-k", "3", "--pmax", "300"]
# (k, rho, beta, m) for genus_for_invariants
INVARIANT_CASES = [(3, 0, 2, 1), (4, 1, 1, 1), (10**6, 3, 5, 10**20)]
# delta0 - 1, where the witness rule's last chain index drops under 1 at (9, 2)
# and (20, 2), and only breaks the cap at (13, 3)
BELOW_DELTA0 = [(p, k, delta0(p, k) - 1) for p, k in [(13, 3), (9, 2), (20, 2)]]
CHAIN_CASES = [(8, 2), (13, 3), (40, 4)]

# each fault breaks one closed form and leaves the check that guards it alone:
# (module, attribute, replacement, the guarded call, its message, the call's
# arguments, a command that reaches the guard or None)
GUARD_FAULTS = {
    "decompose-m-too-large": (
        gonality, "isqrt", lambda n: isqrt(n) + 2, decompose, "out of range for p=",
        PK_CASES, CONE),
    "decompose-m-too-small": (
        gonality, "isqrt", lambda n: isqrt(n) - 2, decompose, "out of range for p=",
        PK_CASES, CONE),
    "delta0-two-forms": (
        gonality, "decompose", _lam_one_too_large, delta0, "delta0 closed forms disagree",
        PK_CASES, CONE),
    "case-beta-range": (
        brillnoether, "necessary_condition", _alpha_plus_one,
        lambda p, k: GonalityCase(p, k, delta0(p, k)), "outside (-(k-1), k-1]",
        PK_CASES, CONE),
    "case-completed-square": (
        brillnoether, "necessary_condition", _rho_plus_one,
        lambda p, k: GonalityCase(p, k, delta0(p, k)),
        "!= 4(k-1)delta - (g-k+1)^2 + beta^2", PK_CASES, CONE),
    "wedge-vanished": (
        pencil, "_wedge_plan", _zeroed_wedge_plan,
        lambda k, seed: wedge_curve(random_coprime_pencil(k, Random(seed))),
        "wedge curve vanished for a valid pencil", PENCIL_CASES, VERIFY),
    "conic-bezout": (
        pencil, "_conic_forms", _cubic_conic_forms, _conic_count,
        "pullback bound disagrees with Bezout degree", PENCIL_CASES, VERIFY),
    # the formula in s is the oracle of the general optimal class here
    "minimal-q-class": (
        hilbert, "optimal_class", lambda p, k: CurveClass(p, k, 1, optimal_class(p, k).y + 1),
        minimal_q_family, "minimal-q family class mismatch", MINIMAL_Q_CASES, RAYS),
    "minimal-q-value": (
        hilbert, "CurveClass", _ShiftedClass, minimal_q_family, "minimal-q family q=",
        MINIMAL_Q_CASES, RAYS),
    "isotropic-q": (
        hilbert, "gonality_class",
        lambda p, k, delta: CurveClass(p, k, 1, gonality_class(p, k, delta).y + 1),
        isotropic_case, "isotropic class has q=", PRIMITIVE_CASES, None),
    "ht-q-rbar": (
        hilbert, "_primitive_isotropic_n", lambda p, k: _primitive_isotropic_n(p, k) + 1,
        ht_violation_check, "!= -2n - 1/(2(k-1))", PRIMITIVE_CASES, None),
    # an offset of +2 keeps rho's sign at alpha = 0, so only the value
    # identity rho == delta - threshold catches it
    "necessity-rho": (
        brillnoether, "rho", lambda g, r, d: rho(g, r, d) + 2, necessary_condition,
        "rho(p, alpha*r, alpha*d + delta) = ", [(9, 9, 1, 4), (8, 8, 1, 2), (40, 40, 1, 3)],
        ["bn", "check", "-p", "9", "-k", "4", "--delta", "9"]),
    "bruteforce-none-admissible": (
        gonality, "admissible", lambda p, k, delta: False, delta0_bruteforce,
        "no admissible delta found", PK_CASES[:3], None),
    "optimal-class-inadmissible": (
        hilbert, "delta0", lambda p, k: delta0(p, k) - 1, optimal_class,
        "is inadmissible at", PK_CASES, CONE),
    # delta0 one above, not m one off: y is the least l(k-1) + floor(p/l) over
    # l >= 1, at l = m + 1 and often at a neighbour too (at (12, 3), l = m
    # gives the same y), so a fault in m may never reach the guard
    "optimal-class-y": (
        hilbert, "delta0", lambda p, k: delta0(p, k) + 1, optimal_class,
        "optimal class closed form", PK_CASES, CONE),
    "q-two-forms": (
        hilbert, "_scaled_q", lambda p, k, a, y: _scaled_q(p, k, a, y) + 1,
        lambda p, k: q_case(p, k, delta0(p, k)), "q closed forms disagree", PK_CASES,
        ["hilb", "q", "-p", "9", "-k", "4", "--delta", "2"]),
    "q-lower-bound": (
        hilbert, "GonalityCase", _AllAdmissible, lambda p, k: q_case(p, k, 0),
        "below -(k+3)/2 on an admissible case", PK_CASES,
        ["hilb", "q", "-p", "8", "-k", "2", "--delta", "0"]),
    "genus-decomposition": (
        hilbert, "decompose", _t_one_too_large, genus_for_invariants,
        "expected (m=", INVARIANT_CASES, QVALUES),
    "genus-q": (
        hilbert, "_delta0_from", lambda p, k, dec: _delta0_from(p, k, dec) + 1,
        genus_for_invariants, "predicted", INVARIANT_CASES, QVALUES),
    "chain-witness": (
        chains, "delta0", lambda p, k: delta0(p, k) - 1, witness, "chain witness failed",
        BELOW_DELTA0, ["chains", "witness", "-p", "13", "-k", "3", "--delta", "4"]),
    # the witness at the patched delta0 passes the witness check, which comes
    # first, and fails the certificate lightest(g0) <= p < lightest(g0 + 1)
    "chain-minimal": (
        chains, "delta0", lambda p, k: delta0(p, k) + 1,
        lambda p, k: witness(p, k, delta0(p, k) + 1), "is not minimal for chains",
        CHAIN_CASES, ["chains", "witness", "-p", "8", "-k", "2", "--delta", "5"]),
    "increment-merge": (
        chains, "increment",
        _mutated(chains.increment, "mult.get(j1 + j2, 0) + 1", "mult.get(j1 + j2, 0) + 2"),
        lambda p, k: chains.increment(witness(p, k, delta0(p, k))), "increment broke validity",
        CHAIN_CASES, None),
    "enumerator-sum": (
        chains, "enumerate_partitions",
        _mutated(chains.enumerate_partitions, "g_sum = g + a + rest", "g_sum = g + a + rest + 1"),
        lambda p, k: chains.enumerate_partitions(p, k), "g + delta != p", CHAIN_CASES[:2],
        ["chains", "enumerate", "-p", "12", "-k", "2"]),
    "cli-delta0-verify": (
        gonality, "delta0", lambda p, k: delta0(p, k) + 1,
        lambda p, k: cli.gonality_delta0(p, k, True), "is not the least admissible delta",
        PK_CASES, ["gonality", "delta0", "-p", "9", "-k", "4", "--verify"]),
    "cli-verify-failures": (
        pencil, "wedge_curve", _membership_breaking_wedge,
        lambda k, samples: cli.pencil_verify(k, samples, 0), "membership oracle at",
        [(3, 20), (4, 5)], ["pencil", "verify", "-k", "3", "--samples", "20"]),
    "cli-verify-transversality": (
        pencil, "_conic_forms", _point_conic_forms,
        lambda k, seed: cli.pencil_verify(k, 10, seed), "below 95%", PENCIL_CASES, VERIFY),
    "packed-carry": (
        pencil, "_width", lambda bound: 2,
        lambda k, seed: wronskian(random_coprime_pencil(k, Random(seed))), "does not fit",
        PENCIL_CASES, VERIFY),
}


@pytest.mark.parametrize("fault", GUARD_FAULTS)
def test_closed_form_guards_fire(monkeypatch, capsys, fault):
    module, name, replacement, call, message, cases, argv = GUARD_FAULTS[fault]
    monkeypatch.setattr(module, name, replacement)
    for args in cases:
        with pytest.raises(InvariantViolation) as caught:
            call(*args)
        assert message in str(caught.value)
    if argv is None:
        return  # no command reaches this guard
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("invariant violation: ") and message in err


def _guard_sites():
    """(file name, line) of every `raise InvariantViolation(...)` in the package."""
    sites = set()
    for path in Path(gonality.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), path.name)):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and getattr(
                    node.exc.func, "id", None) == "InvariantViolation":
                sites.add((path.name, node.lineno))
    return sites


def test_every_guard_has_a_fault_that_fires(monkeypatch):
    # each fault's first case raises at one guard; together they reach every
    # guard in the package, and nothing else
    fired = set()
    for module, name, replacement, call, _, cases, _ in GUARD_FAULTS.values():
        with monkeypatch.context() as patch:
            patch.setattr(module, name, replacement)
            with pytest.raises(InvariantViolation) as caught:
                call(*cases[0])
        tb = caught.value.__traceback__
        while tb.tb_next is not None:
            tb = tb.tb_next
        fired.add((Path(tb.tb_frame.f_code.co_filename).name, tb.tb_lineno))
    assert fired == _guard_sites()
