from math import isqrt
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from k3gonal import brillnoether, cli, gonality, hilbert, pencil
from k3gonal.brillnoether import necessary_condition
from k3gonal.errors import InvariantViolation
from k3gonal.exactmath import ceil_div
from k3gonal.gonality import (
    Decomposition,
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
    gonality_class,
    ht_violation_check,
    isotropic_case,
    minimal_q_family,
    optimal_class,
)
from k3gonal.pencil import (
    BinaryForm,
    conic_intersection,
    random_coprime_pencil,
    random_smooth_conic,
    wedge_curve,
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
    assert decompose(8, 2) == Decomposition(2, 0, 2)
    assert decompose(9, 4) == Decomposition(1, 1, 1)
    assert decompose(12, 3) == Decomposition(2, 0, 0)


def test_decompose_rejects_small_p():
    with pytest.raises(ValueError):
        decompose(3, 4)  # p < 2(k-1)


@given(p=st.integers(2, 500), k=st.integers(2, 12))
@settings(max_examples=200, deadline=None)
def test_decomposition_roundtrip(p, k):
    if p < 2 * (k - 1):
        return
    dec = decompose(p, k)
    assert (k - 1) * dec.m * (dec.m + 1) + dec.t * (dec.m + 1) + dec.lam == p
    assert 0 <= dec.t < 2 * (k - 1)
    assert 0 <= dec.lam <= dec.m
    assert dec.m >= 1
    # maximality of m
    assert (k - 1) * (dec.m + 1) * (dec.m + 2) > p


def _decompose_by_search(p, k):
    """Reference decomposition: m by linear search, O(sqrt(p/(k-1))) steps."""
    m = 1
    while (k - 1) * (m + 1) * (m + 2) <= p:
        m += 1
    t = p // (m + 1) - m * (k - 1)
    return Decomposition(m, t, p - (k - 1) * m * (m + 1) - t * (m + 1))


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
    dec = decompose(p, k)
    m, t, lam = dec.m, dec.t, dec.lam
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
            dec = decompose(p, k)
            assert p - delta0(p, k) == 2 * dec.m * (k - 1) + dec.t


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


# the cases of the closed forms in (p, k), and of the seeded pencils in (k, seed)
PK_CASES = [(8, 2), (9, 4), (12, 3), (10**40 + 1, 10**6)]
PENCIL_CASES = [(2, 0), (3, 1), (8, 2)]
# p = s(s+1)(k-1), and p = n^2(k-1) + 1 with n >= 2 (so (k-1)(p-1) is a square)
MINIMAL_Q_CASES = [(6, 2), (12, 3), (36, 4), (10**20 * (10**20 + 1) * (10**6 - 1), 10**6)]
PRIMITIVE_CASES = [(10, 2), (17, 2), (37, 10), (10**46 + 1, 10**6 + 1)]
CONE = ["hilb", "cone", "-p", "8", "-k", "2"]
VERIFY = ["pencil", "verify", "-k", "3", "--samples", "5"]
RAYS = ["hilb", "rays", "-p", "12", "-k", "3"]

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
        gonality, "ceil_div", lambda a, b: ceil_div(a, b) + 1, delta0,
        "delta0 closed forms disagree", PK_CASES, CONE),
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
