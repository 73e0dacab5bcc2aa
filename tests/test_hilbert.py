import sys
import time
import types
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from k3gonal import hilbert
from k3gonal.gonality import GonalityCase, _delta0_from, admissible, decompose, delta0
from k3gonal.hilbert import (
    CurveClass,
    DivisorClass,
    LagrangianReport,
    attained_q_values,
    extremal_ray_status,
    genus_for_invariants,
    gonality_class,
    isotropic_case,
    lagrangian_report,
    minimal_q_family,
    optimal_class,
    pairing,
    q_candidate_count,
    q_case,
    tau,
)

F = Fraction


def rat_str(q):
    """A Fraction or int as the package prints it, by `hilbert._ratio_text`."""
    return hilbert._ratio_text(q.numerator, q.denominator)


def test_q_curve_examples():
    for k in (2, 3, 5):
        assert CurveClass(6, k, 0, 1).q == F(-1, 2 * (k - 1))
    assert CurveClass(9, 4, 1, 10).q == F(-2, 3)
    for p in (2, 7, 11):
        assert CurveClass(p, 3, 1, 0).q == 2 * p - 2


def test_fiber_class():
    fiber = CurveClass(9, 4, 0, -1)
    assert fiber.q == F(-1, 6)
    assert fiber.display() == "r_k"


@pytest.mark.parametrize("args, text", [
    ((8, 2, 0, 1), "-r_k"), ((8, 2, 0, 5), "-5*r_k"), ((8, 2, 2, 0), "2*H"),
    ((8, 2, 1, -3), "H + 3*r_k")])
def test_curve_class_display(args, text):
    assert CurveClass(*args).display() == text


def test_pairing_examples():
    p, k = 9, 4
    fiber = CurveClass(p, k, 0, -1)
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


def test_m0_formulas_need_no_special_case():
    # up to p = 2(k-1), where delta0 = 0, (m, t, lam) is (0, p, 0), and
    # (1, 0, 0) at p = 2(k-1); delta0, y and q read off it as above that
    for k in range(2, 41):
        for p in range(2, 2 * (k - 1) + 1):
            dec = m, t, lam = decompose(p, k)
            assert dec == ((0, p, 0) if p < 2 * (k - 1) else (1, 0, 0)), (p, k)
            assert _delta0_from(p, k, dec) == 0, (p, k)
            assert (m + 1) * (k - 1) + p // (m + 1) == optimal_class(p, k).y, (p, k)
            assert (4 * (k - 1) * (lam - 1) - (k - 1 - t) ** 2
                    == hilbert._scaled_q_case(p, k, 0)), (p, k)


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
    assert rep.rays == (CurveClass(12, 3, 0, -1), CurveClass(12, 3, 1, 10))

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


def test_ray_report_q():
    # q is the optimal class's q, read from the integer 2(k-1)q
    for p, k in [(12, 3), (3, 4), (10, 2), (8, 2), (7, 2)]:
        rep = extremal_ray_status(p, k)
        assert rep.q == F(rep.q_scaled, 2 * (k - 1)) == optimal_class(p, k).q


def test_ray_report_payload_schema():
    payload = extremal_ray_status(12, 3).to_payload()
    assert sorted(payload) == ["k", "notes", "p", "q", "rays", "status"]
    assert payload["rays"] == [{"a": 0, "y": -1}, {"a": 1, "y": 10}]
    assert payload["q"] == "-3"


def test_genus_for_invariants_examples():
    assert genus_for_invariants(4, 1, 2, 1) == 9
    assert genus_for_invariants(3, 0, 2, 2) == 12
    assert genus_for_invariants(2, 0, 1, 3) == 12


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


def _fractions_with(fraction):
    """A stand-in `fractions` module whose `Fraction` is `fraction`: the
    package imports the class from it at each place that builds one."""
    module = types.ModuleType("fractions")
    module.Fraction = fraction
    return module


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
    monkeypatch.setitem(sys.modules, "fractions", _fractions_with(CountingFraction))
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


def test_q_candidates_are_bounded_at_any_k():
    # uncapped, the sum over rho took one step per rho, up to (k-1)/4 of them
    start = time.perf_counter()
    assert q_candidate_count(10**9, 10**40) > hilbert.QVALUES_MAX_VALUES
    with pytest.raises(ValueError, match="over the limit QVALUES_MAX_VALUES = 100000"):
        attained_q_values(10**9, 10**40)
    assert time.perf_counter() - start < 0.05


def _ht_rbar(p, k):
    """(n, q(R-bar), violation) at p = n^2(k-1) + 1 with n >= 2, where R-bar
    is the optimal class R minus r_k and the violation reads q(R-bar) >=
    -(k+3)/2, the cone prediction over-counting; None off that family."""
    n = hilbert._primitive_isotropic_n(p, k)
    if n is None or n < 2:
        return None
    q = CurveClass(p, k, 1, optimal_class(p, k).y + 1).q
    return n, q, q >= F(-(k + 3), 2)


def test_ht_violation_examples():
    n, q, violation = _ht_rbar(37, 10)
    assert n == 2
    assert q == F(-4) - F(1, 18)
    assert violation  # 4n = 8 <= k+2 = 12

    n, q, violation = _ht_rbar(10, 2)
    assert n == 3
    assert q == F(-13, 2)
    assert not violation  # 12 > 4

    assert _ht_rbar(7, 2) is None
    assert _ht_rbar(2, 2) is None  # n=1 excluded


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
