import pytest
from hypothesis import given, settings, strategies as st

from k3gonal import brillnoether, gonality
from k3gonal.brillnoether import necessary_condition, rho
from k3gonal.errors import InvariantViolation


def rho_quadratic(p, delta, r, d, l):
    """rho(p, l*r, l*d + delta) as a quadratic in l, with g = p - delta."""
    g = p - delta
    return l * l * r * (d - r) - l * (g * r + r - d) + delta


def test_rho_examples():
    assert rho(4, 1, 3) == 0
    assert rho(0, 0, 0) == 0
    assert rho(9, 1, 6) == 1
    for g in range(0, 12):
        for d in range(0, g + 1):
            assert rho(g, 0, d) == d


def test_alpha_general_examples():
    # alpha at geometric genus g, read at delta = 0, where g = p
    assert necessary_condition(7, 0, 1, 4).alpha == 1
    assert necessary_condition(4, 0, 1, 2).alpha == 2
    assert necessary_condition(10, 0, 2, 6).alpha == 1


def test_rho_quadratic_examples():
    assert rho_quadratic(9, 2, 1, 4, 1) == 1
    assert rho(9, 1, 6) == 1
    assert rho_quadratic(8, 3, 1, 2, 2) == -1
    assert rho(8, 2, 7) == -1


def test_rho_quadratic_nonnegative_at_genus_zero():
    # delta = p: all three terms are nonnegative
    for p in range(2, 15):
        for r, d in [(1, 2), (1, 5), (2, 3)]:
            for l in range(0, 5):
                assert rho_quadratic(p, p, r, d, l) >= 0
                assert rho(p, l * r, l * d + p) >= 0


def test_quadratic_identity_full_grid():
    # rho(p, lr, ld + delta) = delta - l(rg - (d-r)(lr+1)) for every l >= 0
    for p in range(2, 61):
        for delta in range(0, p + 1):
            g = p - delta
            for r in range(1, 8):
                for d in range(r + 1, 9):
                    for l in range(0, 7):
                        value = rho(p, l * r, l * d + delta)
                        assert value == delta - l * (r * g - (d - r) * (l * r + 1))
                        assert value == rho_quadratic(p, delta, r, d, l)


def test_necessary_condition_examples():
    rep = necessary_condition(9, 2, 1, 4)
    assert rep.satisfied and rep.alpha == 1 and rep.threshold_delta == 1
    rep = necessary_condition(8, 3, 1, 2)
    assert not rep.satisfied
    assert rep.alpha == 2 and rep.threshold_delta == 4
    for p in range(2, 20):
        for r, d in [(1, 2), (1, 4), (2, 5)]:
            rep = necessary_condition(p, p, r, d)
            assert rep.satisfied and rep.alpha == 0 and rep.threshold_delta == 0


@given(
    p=st.integers(2, 40),
    r=st.integers(1, 4),
    d=st.integers(2, 9),
)
@settings(max_examples=60, deadline=None)
def test_monotone_in_delta(p, r, d):
    # once satisfied, satisfied for every larger delta
    if d <= r:
        return
    seen = False
    for delta in range(0, p + 1):
        sat = necessary_condition(p, delta, r, d).satisfied
        if seen:
            assert sat
        seen = seen or sat
    assert seen  # delta = p always works


@given(
    p=st.integers(2, 40),
    delta_frac=st.integers(0, 100),
    r=st.integers(1, 4),
    d=st.integers(2, 9),
)
@settings(max_examples=80, deadline=None)
def test_alpha_minimizes_over_integers(p, delta_frac, r, d):
    if d <= r:
        return
    delta = (p * delta_frac) // 100
    rep = necessary_condition(p, delta, r, d)
    for l in range(0, 2 * rep.alpha + 3):
        assert rep.rho_at_alpha <= rho(p, l * r, l * d + delta)


@given(p=st.integers(2, 10**40), r=st.integers(1, 6), data=st.data())
@settings(max_examples=200, deadline=None)
def test_alpha_minimizes_at_large_p(p, r, data):
    # rho(p, l*r, l*d + delta) is convex in l, so alpha is the global
    # minimizer once neither integer neighbour is lower
    delta = data.draw(st.integers(0, p), label="delta")
    d = data.draw(st.integers(r + 1, r + 24), label="d")
    rep = necessary_condition(p, delta, r, d)
    for l in (rep.alpha - 1, rep.alpha + 1):
        if l >= 0:
            assert rep.rho_at_alpha <= rho(p, l * r, l * d + delta)


@pytest.mark.parametrize("offset", [1, 3])
def test_gonality_case_catches_rho_offset_of_same_sign(monkeypatch, offset):
    # move rho away from zero, so the admissibility verdict stays the same
    exact = brillnoether._bound

    def shifted(p, delta, r, d):
        alpha, rho_at_alpha, threshold = exact(p, delta, r, d)
        step = offset if rho_at_alpha >= 0 else -offset
        return alpha, rho_at_alpha + step, threshold

    monkeypatch.setattr(brillnoether, "_bound", shifted)
    for p, k, delta in [(9, 4, 2), (9, 4, 1), (8, 2, 8), (40, 3, 0)]:
        with pytest.raises(InvariantViolation, match="4\\(k-1\\)rho"):
            gonality.GonalityCase(p, k, delta)


@given(p=st.integers(2, 10**40), k=st.integers(2, 10**6), data=st.data())
@settings(max_examples=150, deadline=None)
def test_gonality_case_and_necessary_condition_agree(p, k, data):
    # GonalityCase reaches the bound's integer core after its own p and k
    # checks, necessary_condition after its p and series checks
    delta = data.draw(st.integers(0, p), label="delta")
    case, report = gonality.GonalityCase(p, k, delta), necessary_condition(p, delta, 1, k)
    assert (case.alpha, case.rho, case.admissible) == (
        report.alpha, report.rho_at_alpha, report.satisfied)
    for outside in (-1, p + 1):
        with pytest.raises(ValueError) as by_case:
            gonality.GonalityCase(p, k, outside)
        with pytest.raises(ValueError) as by_report:
            necessary_condition(p, outside, 1, k)
        assert str(by_case.value) == str(by_report.value) == (
            f"need 0 <= delta <= p, got delta={outside}, p={p}")
