import ast
import copy
import dataclasses
import importlib
import inspect
import pickle
import sys
import time
import weakref
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import k3gonal
from k3gonal import hilbert
from k3gonal.brillnoether import NecessityReport, necessary_condition
from k3gonal.chains import ChainPartition, enumerate_partitions
from k3gonal.gonality import GonalityCase, admissible, decompose, delta0
from k3gonal.hilbert import (
    CurveClass,
    DivisorClass,
    FamilyWitness,
    HTConeReport,
    LagrangianReport,
    RayReport,
    attained_q_values,
    extremal_ray_status,
    genus_for_invariants,
    gonality_class,
    ht_violation_check,
    isotropic_case,
    lagrangian_report,
    minimal_q_family,
    optimal_class,
    pairing,
    q_candidate_count,
    q_case,
    rat_str,
    tau,
)
from k3gonal.pencil import BinaryForm, Pencil, SymPlaneCurve, wedge_curve

F = Fraction


def test_q_curve_examples():
    for k in (2, 3, 5):
        assert CurveClass(6, k, 0, 1).q == F(-1, 2 * (k - 1))
    assert CurveClass(9, 4, 1, 10).q == F(-2, 3)
    for p in (2, 7, 11):
        assert CurveClass(p, 3, 1, 0).q == 2 * p - 2


def test_fiber_class():
    fiber = CurveClass.fiber(9, 4)
    assert fiber.q == F(-1, 6)
    assert fiber.display() == "r_k"


def test_pairing_examples():
    p, k = 9, 4
    fiber = CurveClass.fiber(p, k)
    for t in (F(1), F(3, 2), F(7)):
        assert pairing(DivisorClass(p, k, 1, t), fiber) == t
    h_div = DivisorClass(p, k, 1, 0)
    assert pairing(h_div, CurveClass(p, k, 1, 10)) == 2 * p - 2
    # cone boundary: H - tau*e_k pairs to zero with the optimal class
    for pp, kk in [(8, 2), (12, 3), (9, 4), (2, 2), (30, 5)]:
        t = tau(pp, kk)
        opt = optimal_class(pp, kk)
        assert pairing(DivisorClass(pp, kk, 1, t), opt) == 0
        assert pairing(DivisorClass(pp, kk, 1, t - F(1, 7)), opt) > 0


def test_pairing_rejects_mismatched_spaces():
    with pytest.raises(ValueError):
        pairing(DivisorClass(9, 4, 1, 0), CurveClass(9, 3, 1, 1))


@given(
    a1=st.integers(-5, 5),
    c1=st.fractions(F(-4), F(4)),
    a2=st.integers(-5, 5),
    c2=st.fractions(F(-4), F(4)),
    b=st.integers(-5, 5),
    y=st.integers(-20, 20),
    n=st.integers(-3, 3),
)
@settings(max_examples=100, deadline=None)
def test_pairing_bilinear(a1, c1, a2, c2, b, y, n):
    p, k = 11, 3
    d1 = DivisorClass(p, k, a1, c1)
    d2 = DivisorClass(p, k, a2, c2)
    dsum = DivisorClass(p, k, a1 + a2, c1 + c2)
    r = CurveClass(p, k, b, y)
    assert pairing(dsum, r) == pairing(d1, r) + pairing(d2, r)
    rn = CurveClass(p, k, n * b, n * y)
    assert pairing(d1, rn) == n * pairing(d1, r)


def test_gonality_class_examples():
    assert gonality_class(9, 4, 2) == CurveClass(9, 4, 1, 10)
    assert gonality_class(8, 2, 4) == CurveClass(8, 2, 1, 5)
    for p, k in [(5, 2), (7, 3), (9, 4)]:
        assert gonality_class(p, k, p) == CurveClass(p, k, 1, k - 1)
    with pytest.raises(ValueError):
        gonality_class(8, 2, 3)


def test_optimal_class_examples():
    assert optimal_class(8, 2).display() == "H - 5*r_k"
    assert optimal_class(12, 3) == CurveClass(12, 3, 1, 10)
    assert optimal_class(10, 2) == CurveClass(10, 2, 1, 6)


def test_optimal_class_consistency_grid():
    for k in range(2, 8):
        for p in range(2, 80):
            assert optimal_class(p, k) == gonality_class(p, k, delta0(p, k))


def test_q_case_examples():
    assert q_case(9, 4, 2) == F(-2, 3)
    assert q_case(6, 2, 2) == F(-5, 2)
    assert q_case(5, 2, 2) == 0
    with pytest.raises(ValueError):
        q_case(8, 2, 3)


def test_q_case_identity_and_bound_grid():
    for k in range(2, 7):
        for p in range(2, 50):
            for delta in range(0, p + 1):
                if not admissible(p, k, delta):
                    continue
                q = q_case(p, k, delta)  # internally checks both forms + bound
                assert q >= F(-(k + 3), 2)


def test_q_identity_holds_even_off_admissible_range():
    # record: the two closed forms agree for every delta; only the lower
    # bound needs admissibility
    for k in (2, 3, 4):
        for p in range(2, 30):
            for delta in range(0, p + 1):
                case = GonalityCase(p, k, delta)
                first = 2 * (p - 1) - F((case.g + k - 1) ** 2, 2 * (k - 1))
                second = 2 * (case.rho - 1) - F(case.beta**2, 2 * (k - 1))
                assert first == second


def _q_optimal_form(p, k):
    """q at delta0 read off the decomposition: 2(lam-1) - (k-1-t)^2/(2(k-1))."""
    _, t, lam = decompose(p, k)
    return 2 * (lam - 1) - F((k - 1 - t) ** 2, 2 * (k - 1))


def test_q_optimal_form_examples():
    assert _q_optimal_form(9, 4) == F(-2, 3)
    assert _q_optimal_form(12, 3) == -3
    assert _q_optimal_form(8, 2) == F(3, 2)


def test_q_optimal_form_matches_q_case_at_delta0():
    for k in range(2, 7):
        ts = set()
        for p in range(2 * (k - 1) + 1, 301):
            assert _q_optimal_form(p, k) == q_case(p, k, delta0(p, k)), (p, k)
            ts.add(decompose(p, k)[1])
        # t runs over [0, 2(k-1)), past k - 1 too, where k-1-t is negative
        assert ts == set(range(2 * (k - 1))), k


def test_tau_examples():
    assert tau(8, 2) == F(14, 5)
    assert tau(12, 3) == F(11, 5)
    assert tau(2, 2) == F(2, 3)


def ample_range_contains(p, k, t):
    """Necessary condition for H - t*e_k ample: 0 < t < tau(p, k)."""
    t = F(t)
    return 0 < t < tau(p, k)


def nef_range_contains(p, k, t):
    """Necessary condition for H - t*e_k nef: 0 <= t <= tau(p, k)."""
    t = F(t)
    return 0 <= t <= tau(p, k)


def test_cone_range_helpers():
    t = tau(8, 2)
    assert nef_range_contains(8, 2, t) and nef_range_contains(8, 2, 0)
    assert not nef_range_contains(8, 2, t + F(1, 100))
    assert ample_range_contains(8, 2, t - F(1, 100))
    assert not ample_range_contains(8, 2, t)
    assert not ample_range_contains(8, 2, 0)


def test_q_divisor():
    assert DivisorClass(9, 4, 1, 0).q == 16
    assert DivisorClass(9, 4, 0, 1).q == -6  # q(e_k) = -2(k-1)
    assert DivisorClass(8, 2, 1, F(1, 2)).q == 14 - F(1, 2)
    assert DivisorClass(8, 2, 1, "1/2") == DivisorClass(8, 2, 1, F(1, 2))
    # Fraction(0.3) has denominator 2^54: a float is refused, never stored as
    # the binary rational nearest it
    with pytest.raises(TypeError, match=r"float 0\.3"):
        DivisorClass(8, 2, 1, 0.3)
    with pytest.raises(TypeError, match=r"float 1\.0"):
        DivisorClass(8, 2, 1.0, 0)


def test_minimal_q_family_examples():
    hit = minimal_q_family(12, 3)
    assert hit is not None
    assert (hit.s, hit.delta) == (2, 4)
    assert hit.curve == CurveClass(12, 3, 1, 10)
    assert hit.curve.q == -3 == -F(3 + 3, 2)

    hit = minimal_q_family(6, 2)
    assert (hit.s, hit.delta) == (2, 2)
    assert hit.curve.q == F(-5, 2)

    assert minimal_q_family(7, 2) is None


def test_minimal_q_family_matches_bound_equality():
    for k in range(2, 7):
        for p in range(2, 80):
            hit = minimal_q_family(p, k)
            q0 = q_case(p, k, delta0(p, k))
            if hit is not None:
                assert q0 == F(-(k + 3), 2)
            else:
                assert q0 != F(-(k + 3), 2)


def test_isotropic_case_examples():
    hit = isotropic_case(5, 2)
    assert (hit.s, hit.delta) == (2, 2)
    assert hit.curve == CurveClass(5, 2, 1, 4)
    assert hit.curve.q == 0

    hit = isotropic_case(10, 5)
    assert (hit.s, hit.delta) == (6, 2)
    assert hit.curve.q == 0

    assert isotropic_case(4, 2) is None


def test_isotropic_degenerate_square_returns_empty():
    # (k-1)(p-1) = 9 is a square but delta = p-2s+k-1 would exceed p
    assert isotropic_case(2, 10) is None
    # and indeed no delta in [0, p] is isotropic there
    for delta in range(0, 3):
        if admissible(2, 10, delta):
            assert q_case(2, 10, delta) != 0


def test_isotropy_scan():
    for k in range(2, 6):
        for p in range(2, 60):
            hit = isotropic_case(p, k)
            zero_deltas = [
                delta
                for delta in range(0, p + 1)
                if admissible(p, k, delta) and q_case(p, k, delta) == 0
            ]
            if hit is None:
                assert zero_deltas == []
            else:
                assert zero_deltas == [hit.delta]


def test_lagrangian_examples():
    rep = lagrangian_report(10, 5)
    assert rep.has_isotropic and rep.s == 6 and rep.alpha == 1
    assert rep.value == 0 and rep.not_nef and not rep.primitive

    rep = lagrangian_report(10, 2)
    assert rep.has_isotropic and rep.s == 3 and rep.alpha == 2
    assert rep.value == -2 and rep.necessary_condition_holds
    assert rep.primitive and rep.n == 3

    assert not lagrangian_report(4, 2).has_isotropic


def test_extremal_ray_examples():
    rep = extremal_ray_status(12, 3)
    assert rep.status == "PROVEN_MINQ"
    assert rep.rays == (CurveClass.fiber(12, 3), CurveClass(12, 3, 1, 10))

    rep = extremal_ray_status(3, 4)
    assert rep.status == "PROVEN_BM"
    assert rep.rays[1] == CurveClass(3, 4, 1, 6)

    rep = extremal_ray_status(10, 2)
    assert rep.status == "PROVEN_ISOPRIM"
    assert rep.rays[1] == CurveClass(10, 2, 1, 6)

    rep = extremal_ray_status(8, 2)
    assert rep.status == "OPEN"
    assert any("3*H - 16*r_k" in note for note in rep.notes)

    rep = extremal_ray_status(7, 2)
    assert rep.status == "OPEN"
    assert not any("counterexample" in note for note in rep.notes)


def test_ray_report_payload_schema():
    payload = extremal_ray_status(12, 3).to_payload()
    assert sorted(payload) == ["k", "notes", "p", "q", "rays", "status"]
    assert payload["rays"] == [{"a": 0, "y": -1}, {"a": 1, "y": 10}]
    assert payload["q"] == "-3"


def test_genus_for_invariants_examples():
    assert genus_for_invariants(4, 1, 2, 1) == 9
    assert genus_for_invariants(3, 0, 2, 2) == 12
    assert genus_for_invariants(2, 0, 1, 3) == 12
    with pytest.raises(ValueError):
        genus_for_invariants(3, 2, 1, 1)  # m < rho
    with pytest.raises(ValueError):
        genus_for_invariants(3, 0, 3, 2)  # beta > k-1


def test_genus_for_invariants_roundtrip():
    for k in range(2, 6):
        for rho in range(0, 4):
            for beta in range(0, k):
                for m in (max(1, rho), max(1, rho) + 1, max(1, rho) + 4):
                    p = genus_for_invariants(k, rho, beta, m)
                    predicted = 2 * (rho - 1) - F(beta * beta, 2 * (k - 1))
                    if p > 2 * (k - 1):
                        assert _q_optimal_form(p, k) == predicted
                    assert q_case(p, k, delta0(p, k)) == predicted


def test_attained_q_values_known_tables():
    assert attained_q_values(2, 200) == [F(-5, 2), F(-2), F(-1, 2)]
    assert attained_q_values(3, 300) == [F(-3), F(-9, 4), F(-2), F(-1), F(-1, 4)]
    assert attained_q_values(4, 400) == [
        F(-7, 2),
        F(-8, 3),
        F(-13, 6),
        F(-2),
        F(-3, 2),
        F(-2, 3),
        F(-1, 6),
    ]


def scanned_q_values(k, p_max):
    """Reference scan: yields (p, sorted negative optimal q over 2..p)."""
    values = set()
    for p in range(2, p_max + 1):
        q = q_case(p, k, delta0(p, k))
        if q < 0:
            values.add(q)
        yield p, sorted(values)


def test_attained_q_values_matches_scan():
    checkpoints = {*range(2, 401), 1000, 3000}
    for k in range(2, 16):
        for p, expected in scanned_q_values(k, 3000):
            if p in checkpoints:
                assert attained_q_values(k, p) == expected, (k, p)


def test_attained_q_values_builds_one_fraction_per_value(monkeypatch):
    # the spectrum is walked as the integers 2(k-1) q, never through q_case
    known = {
        2: [F(-5, 2), F(-2), F(-1, 2)],
        3: [F(-3), F(-9, 4), F(-2), F(-1), F(-1, 4)],
        4: [F(-7, 2), F(-8, 3), F(-13, 6), F(-2), F(-3, 2), F(-2, 3), F(-1, 6)],
    }
    scanned = {k: dict(scanned_q_values(k, 400)) for k in range(2, 16)}
    built = []

    class CountingFraction(F):
        def __new__(cls, *args, **kwargs):
            built.append(args)
            return super().__new__(cls, *args, **kwargs)

    q_case_calls = []
    monkeypatch.setattr(hilbert, "Fraction", CountingFraction)
    monkeypatch.setattr(hilbert, "q_case", lambda *args: q_case_calls.append(args))
    for k in range(2, 16):
        # no candidate lies past p = 400, so the spectrum there is complete
        assert q_candidate_count(k, 400) == q_candidate_count(k, 10**40), k
        for p_max, expected in [(50, scanned[k][50]), (400, scanned[k][400]),
                                (10**40, scanned[k][400])]:
            built.clear()
            values = attained_q_values(k, p_max)
            assert values == expected, (k, p_max)
            if k in known and p_max > 50:
                assert values == known[k], (k, p_max)
            assert len(built) == len(values), (k, p_max)
            assert all(type(v) is CountingFraction for v in values), (k, p_max)
    assert q_case_calls == []


def test_q_candidate_count_matches_box_count(monkeypatch):
    for k in range(2, 16):
        # first p of every (rho, beta) with q < 0, over a box that holds them all
        firsts = [
            genus_for_invariants(k, rho, beta, max(1, rho))
            for rho in range(k + 1)
            for beta in range(k)
            if 2 * (rho - 1) - F(beta * beta, 2 * (k - 1)) < 0
        ]
        for p_max in [*range(2, 301), 1000, 10**40]:
            regime = sum(1 for p in range(2, 2 * (k - 1)) if p <= p_max)
            count = regime + sum(1 for p in firsts if p <= p_max)
            assert q_candidate_count(k, p_max) == count, (k, p_max)
            if p_max in (50, 300, 10**40):
                assert len(attained_q_values(k, p_max)) <= count, (k, p_max)
            for stop in range(max(0, count - 2), count + 2):
                with monkeypatch.context() as patch:
                    patch.setattr(hilbert, "QVALUES_MAX_VALUES", stop)
                    assert (q_candidate_count(k, p_max) > stop) == (count > stop)


def test_q_candidate_count_at_extremes(monkeypatch):
    # the regime alone has 2k - 4 candidates once p_max >= 2(k-1)
    assert q_candidate_count(10**6, 10**40) > 10**5
    with monkeypatch.context() as patch:
        patch.setattr(hilbert, "QVALUES_MAX_VALUES", 10)
        assert q_candidate_count(10**12, 10**40) > 10
    assert q_candidate_count(10**6, 400) == 399
    with pytest.raises(ValueError):
        q_candidate_count(1, 10)
    with pytest.raises(ValueError):
        q_candidate_count(3, 1)


def test_q_candidates_are_bounded_at_any_k():
    # uncapped, the sum over rho took one step per rho, up to (k-1)/4 of them
    start = time.perf_counter()
    assert q_candidate_count(10**9, 10**40) > hilbert.QVALUES_MAX_VALUES
    with pytest.raises(ValueError, match="over the limit QVALUES_MAX_VALUES = 100000"):
        attained_q_values(10**9, 10**40)
    assert time.perf_counter() - start < 0.05


def test_attained_q_values_rejects_bad_domain():
    with pytest.raises(ValueError):
        attained_q_values(1, 10)
    with pytest.raises(ValueError):
        attained_q_values(3, 1)


def test_ht_violation_examples():
    rep = ht_violation_check(37, 10)  # n=2
    assert rep.applicable and rep.n == 2
    assert rep.q_rbar == F(-4) - F(1, 18)
    assert rep.violation  # 4n = 8 <= k+2 = 12

    rep = ht_violation_check(10, 2)  # n=3
    assert rep.applicable and rep.n == 3
    assert rep.q_rbar == F(-13, 2)
    assert not rep.violation  # 12 > 4

    assert not ht_violation_check(7, 2).applicable
    assert not ht_violation_check(2, 2).applicable  # n=1 excluded


def test_rat_str():
    assert rat_str(F(-2, 3)) == "-2/3"
    assert rat_str(F(4, 1)) == "4"
    assert rat_str(7) == "7"


_BIG = 10**40


@st.composite
def _ratios(draw):
    """(n, d) with |n| <= 10^40 and 1 <= d <= 10^40, both multiples of a
    drawn common factor, so that most are not in lowest terms."""
    g = draw(st.integers(1, 10**20))
    return draw(st.integers(-_BIG // g, _BIG // g)) * g, draw(st.integers(1, _BIG // g)) * g


@given(ratio=_ratios() | st.tuples(st.integers(-_BIG, _BIG), st.just(1)))
@example(ratio=(0, 1))
@example(ratio=(0, 12))
@example(ratio=(-6, 4))
@example(ratio=(-7, 1))
@example(ratio=(-_BIG, _BIG))
@example(ratio=(_BIG, 3))
@example(ratio=(-(2 * 10**20) ** 2 + 1, 2 * 3 * 7))
def test_ratio_text_matches_rat_str(ratio):
    n, d = ratio
    q = F(n, d)
    expected = str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
    assert hilbert._ratio_text(n, d) == rat_str(q) == expected


@pytest.mark.parametrize("p, k, isotropic", [(10, 5, True), (4, 2, False)])
def test_lagrangian_payload_matches_its_fields(p, k, isotropic):
    # the state holds every field, in `__slots__` order
    report = lagrangian_report(p, k)
    assert report.has_isotropic is isotropic
    payload = report.to_payload()
    fields = dict(zip(LagrangianReport.__slots__, report.__getstate__()))
    assert payload == fields
    assert list(payload) == list(fields)  # the JSON key order


# the value classes of the closed-form layer, each with one case and its repr
VALUE_CASES = [
    (lambda: GonalityCase(9, 4, 2),
     "GonalityCase(p=9, k=4, delta=2, g=7, alpha=1, beta=2, rho=1, admissible=True)"),
    (lambda: necessary_condition(9, 2, 1, 4),
     "NecessityReport(alpha=1, rho_at_alpha=1, satisfied=True, threshold_delta=1)"),
    (lambda: optimal_class(8, 2), "CurveClass(p=8, k=2, a=1, y=5)"),
    (lambda: extremal_ray_status(4, 3),
     "RayReport(p=4, k=3, status='PROVEN_BM', rays=(CurveClass(p=4, k=3, a=0, y=-1), "
     "CurveClass(p=4, k=3, a=1, y=6)), q=Fraction(-3, 1), notes=())"),
    (lambda: lagrangian_report(10, 2),
     "LagrangianReport(p=10, k=2, has_isotropic=True, s=3, alpha=2, value=-2, "
     "not_nef=False, necessary_condition_holds=True, primitive=True, n=3)"),
    # a product, a wedge curve and an enumerated partition are built by the
    # unchecked `_make`
    (lambda: BinaryForm(1, (1, -1)) * BinaryForm(1, (1, 1)),
     "BinaryForm(bound=2, coeffs=(1, 0, -1))"),
    (lambda: Pencil(BinaryForm(2, (1, 0, -1)), BinaryForm(2, (0, 1, 0))),
     "Pencil(f=BinaryForm(bound=2, coeffs=(1, 0, -1)), g=BinaryForm(bound=2, coeffs=(0, 1, 0)))"),
    (lambda: wedge_curve(Pencil(BinaryForm(3, (0, 0, 0, 1)), BinaryForm(3, (1, 0, 0, 0)))),
     "SymPlaneCurve(degree=2, terms=(((0, 2, 0), 1), ((1, 0, 1), -1)))"),
    (lambda: DivisorClass(8, 2, 1, F(1, 2)), "DivisorClass(p=8, k=2, a=1, c=Fraction(1, 2))"),
    (lambda: minimal_q_family(12, 3),
     "FamilyWitness(s=2, delta=4, curve=CurveClass(p=12, k=3, a=1, y=10))"),
    (lambda: ht_violation_check(37, 10),
     "HTConeReport(p=37, k=10, applicable=True, n=2, rbar=CurveClass(p=37, k=10, a=1, y=37), "
     "q_rbar=Fraction(-73, 18), violation=True)"),
    (lambda: enumerate_partitions(5, 2)[2], "ChainPartition(p=5, k=2, parts=((2, 1), (3, 1)))"),
]


# the fields that take no part in `==` and `hash`, per class
UNCOMPARED = {ChainPartition: ("g", "delta")}


@pytest.mark.parametrize("make, pinned", VALUE_CASES,
                         ids=[pinned.split("(")[0] for _, pinned in VALUE_CASES])
def test_value_classes_are_frozen_and_slotted(make, pinned):
    # each case as its builder made it, and as `_make` builds it again from
    # the stored fields: `_make` fills a private twin class and retags the
    # instance, and neither the instance nor the class may show the twin;
    # `__slots__` holds every field in order, `__match_args__` the init ones
    value = make()
    cls, fields = type(value), type(value).__slots__
    stored = tuple(getattr(value, name) for name in fields)
    made = cls._make(*stored)
    assert cls.__mro__ == (cls, object)
    assert tuple(value.__getstate__()) == stored
    assert tuple(getattr(made, name) for name in fields) == stored
    for built in (value, made):
        assert type(built) is cls and repr(built) == pinned
        for name in fields:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(built, name, getattr(built, name))
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(built, name)
        assert not hasattr(built, "__dict__")
        with pytest.raises(TypeError):
            weakref.ref(built)
    again = make()
    assert again is not value and made is not value and again == value == made
    compared = tuple(getattr(value, name) for name in fields
                     if name not in UNCOMPARED.get(cls, ()))
    assert hash(value) == hash(again) == hash(made) == hash(compared)
    by_keyword = cls(**{name: getattr(value, name) for name in cls.__match_args__})
    # a state as `dataclasses` pickled it, a list of every field in order,
    # still loads
    restored = cls.__new__(cls)
    restored.__setstate__(list(stored))
    for built in (value, made):
        others = [by_keyword, restored, built.__replace__(), copy.copy(built),
                  copy.deepcopy(built), pickle.loads(pickle.dumps(built))]
        if sys.version_info >= (3, 13):
            others.append(copy.replace(built))
        for other in others:
            assert type(other) is cls and other == value and repr(other) == pinned
            assert tuple(getattr(other, name) for name in fields) == stored


def test_value_classes_share_their_methods():
    # each method every value class has is one function body, not one
    # compiled per class
    classes = {type(make()) for make, _ in VALUE_CASES}
    for name in ("__eq__", "__hash__", "__repr__", "__getstate__", "__setstate__",
                 "__replace__", "__setattr__", "__delattr__"):
        assert len({getattr(cls, name).__code__ for cls in classes}) == 1, name


# pickles written while the value classes were dataclasses (protocol 4)
DATACLASS_PICKLES = [
    (b"\x80\x04\x95<\x00\x00\x00\x00\x00\x00\x00\x8c\x10k3gonal.gonality\x94\x8c"
     b"\x0cGonalityCase\x94\x93\x94)\x81\x94]\x94(K\tK\x04K\x02K\x07K\x01K\x02K\x01"
     b"\x88eb.", GonalityCase(9, 4, 2)),
    (b"\x80\x04\x95I\x00\x00\x00\x00\x00\x00\x00\x8c\x0ek3gonal.chains\x94\x8c\x0e"
     b"ChainPartition\x94\x93\x94)\x81\x94]\x94(K\x08K\x02K\x01K\x02\x86\x94K\x02K"
     b"\x01\x86\x94K\x04K\x01\x86\x94\x87\x94K\x04K\x04eb.",
     ChainPartition(8, 2, {1: 2, 2: 1, 4: 1})),
]


@pytest.mark.parametrize("data, expected", DATACLASS_PICKLES,
                         ids=[type(value).__name__ for _, value in DATACLASS_PICKLES])
def test_dataclass_pickles_still_load(data, expected):
    loaded = pickle.loads(data)
    assert type(loaded) is type(expected) and loaded == expected
    assert loaded.__getstate__() == expected.__getstate__()


def test_value_cases_cover_every_value_class():
    # every class that `_value_class` makes, in any module of the package,
    # has a case above, so a new value class is checked as well
    decorated = set()
    for path in sorted(Path(k3gonal.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), path.name)):
            if isinstance(node, ast.ClassDef) and any(
                    ast.unparse(d) == "_value_class" for d in node.decorator_list):
                module = importlib.import_module(f"k3gonal.{path.stem}")
                decorated.add(getattr(module, node.name))
    assert {type(make()) for make, _ in VALUE_CASES} == decorated


# each call site that builds its result with the unchecked `_make`, the class
# it returns, and its arguments over p = 2..400, k = 2..9 and p near 10^40,
# where the large p include the minimal-q and the primitive isotropic shapes
MADE_UNCHECKED = [
    (necessary_condition, NecessityReport,
     lambda p, k: [(p, delta, 1, k) for delta in sorted({0, delta0(p, k), p // 2, p})]),
    (extremal_ray_status, RayReport, lambda p, k: [(p, k)]),
    (lagrangian_report, LagrangianReport, lambda p, k: [(p, k)]),
]
MADE_UNCHECKED_GRID = [(p, k) for k in range(2, 10) for p in range(2, 401)] + [
    (p, k) for k in range(2, 10) for p in (
        10**40 - 1, 10**40, 10**40 + 1,
        10**20 * (10**20 + 1) * (k - 1), 10**40 * (k - 1) + 1)]


@pytest.mark.parametrize("function, cls, arguments", MADE_UNCHECKED,
                         ids=[case[0].__name__ for case in MADE_UNCHECKED])
def test_unchecked_builds_match_their_constructors(function, cls, arguments):
    for p, k in MADE_UNCHECKED_GRID:
        for args in arguments(p, k):
            value = function(*args)
            rebuilt = cls(**{name: getattr(value, name) for name in cls.__slots__})
            assert type(value) is type(rebuilt) is cls, args
            assert value == rebuilt and repr(value) == repr(rebuilt), args


def test_replace_recomputes_the_case():
    case = GonalityCase(9, 4, 2).__replace__(delta=1)
    assert (case.delta, case.g, case.rho, case.admissible) == (1, 8, -1, False)
    with pytest.raises(ValueError):
        GonalityCase(9, 4, 2).__replace__(g=3)


# per value class: its signature, the module of its __init__, arguments with
# distinct values, and every field read back in `__slots__` order
CONSTRUCTOR_CASES = [
    (GonalityCase, "(p: int, k: int, delta: int)", "k3gonal.gonality",
     (12, 3, 1), (12, 3, 1, 11, 2, -1, -9, False)),
    (NecessityReport,
     "(alpha: int, rho_at_alpha: int, satisfied: bool, threshold_delta: int)",
     "k3gonal.brillnoether", (1, 2, 3, 4), (1, 2, 3, 4)),
    (CurveClass, "(p: int, k: int, a: int, y: int)", "k3gonal.hilbert",
     (8, 3, 1, 5), (8, 3, 1, 5)),
    (RayReport,
     "(p: int, k: int, status: str, rays: tuple[k3gonal.hilbert.CurveClass, ...], "
     "q: fractions.Fraction, notes: tuple[str, ...] = ())",
     "k3gonal.hilbert", tuple(range(6)), tuple(range(6))),
    (LagrangianReport,
     "(p: int, k: int, has_isotropic: bool, s: int | None = None, "
     "alpha: int | None = None, value: int | None = None, not_nef: bool | None = None, "
     "necessary_condition_holds: bool | None = None, primitive: bool = False, "
     "n: int | None = None)",
     "k3gonal.hilbert", tuple(range(10)), tuple(range(10))),
    (ChainPartition, "(p: int, k: int, parts)", "k3gonal.chains",
     (9, 2, ((1, 2), (2, 1), (5, 1))), (9, 2, ((1, 2), (2, 1), (5, 1)), 4, 5)),
    (BinaryForm, "(bound: int, coeffs)", "k3gonal.pencil", (2, [1, 2, 3]), (2, (1, 2, 3))),
    (Pencil, "(f: k3gonal.pencil.BinaryForm, g: k3gonal.pencil.BinaryForm)", "k3gonal.pencil",
     (BinaryForm(1, (1, 2)), BinaryForm(1, (3, 4))),
     (BinaryForm(1, (1, 2)), BinaryForm(1, (3, 4)))),
    (SymPlaneCurve, "(degree: int, terms)", "k3gonal.pencil",
     (1, {(1, 0, 0): 2, (0, 0, 1): 3}), (1, (((0, 0, 1), 3), ((1, 0, 0), 2)))),
    (DivisorClass, "(p: int, k: int, a: int, c)", "k3gonal.hilbert",
     (8, 3, 2, F(1, 2)), (8, 3, 2, F(1, 2))),
    (FamilyWitness, "(s: int, delta: int, curve: k3gonal.hilbert.CurveClass)",
     "k3gonal.hilbert", (1, 2, 3), (1, 2, 3)),
    (HTConeReport,
     "(p: int, k: int, applicable: bool, n: int | None = None, "
     "rbar: k3gonal.hilbert.CurveClass | None = None, "
     "q_rbar: fractions.Fraction | None = None, violation: bool | None = None)",
     "k3gonal.hilbert", tuple(range(7)), tuple(range(7))),
]


@pytest.mark.parametrize("cls, signature, module, args, fields", CONSTRUCTOR_CASES,
                         ids=[case[0].__name__ for case in CONSTRUCTOR_CASES])
def test_value_class_constructors(cls, signature, module, args, fields):
    assert str(inspect.signature(cls)) == signature
    assert cls.__match_args__ == tuple(inspect.signature(cls).parameters)
    assert cls.__init__.__qualname__ == f"{cls.__name__}.__init__"
    assert cls.__init__.__module__ == module
    value = cls(*args)
    assert tuple(getattr(value, name) for name in cls.__slots__) == fields
    required = sum(p.default is inspect.Parameter.empty
                   for p in inspect.signature(cls).parameters.values())
    with pytest.raises(TypeError):
        cls(*args[:required - 1])
    with pytest.raises(TypeError):
        cls(*args, 0)
