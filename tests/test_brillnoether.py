import pytest
from hypothesis import given, settings, strategies as st

from k3gonal import brillnoether, cli, gonality
from k3gonal.brillnoether import (
    alpha_general,
    necessary_condition,
    rho,
)
from k3gonal.errors import InvariantViolation


def rho_quadratic(p, delta, r, d, l):
    """rho(p, l*r, l*d + delta) as a quadratic in l, with g = p - delta."""
    g = p - delta
    return l * l * r * (d - r) - l * (g * r + r - d) + delta


def test_rho_examples():
    assert rho(4, 1, 3) == 0
    assert rho(9, 1, 6) == 1
    for g in range(0, 12):
        for d in range(0, g + 1):
            assert rho(g, 0, d) == d


def test_alpha_general_examples():
    assert alpha_general(7, 1, 4) == 1
    assert alpha_general(4, 1, 2) == 2
    assert alpha_general(10, 2, 6) == 1


def test_alpha_general_rejects_degenerate():
    with pytest.raises(ValueError):
        alpha_general(5, 2, 2)
    with pytest.raises(ValueError):
        alpha_general(5, 0, 3)


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


def test_rho_rejects_negative_arguments():
    for args, name in [((-1, 1, 3), "g"), ((4, -1, 3), "r"), ((4, 1, -3), "d")]:
        with pytest.raises(ValueError, match=f"need {name} >= 0, got {name}=-"):
            rho(*args)
    assert rho(0, 0, 0) == 0


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


def test_necessary_condition_rejects_bad_domain():
    with pytest.raises(ValueError):
        necessary_condition(1, 0, 1, 2)
    with pytest.raises(ValueError):
        necessary_condition(5, 6, 1, 2)
    with pytest.raises(ValueError):
        necessary_condition(5, 2, 2, 2)
    with pytest.raises(ValueError, match=r"need d > r >= 1, got r=1, d=1"):
        necessary_condition(5, 6, 1, 1)


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


def test_rho_offset_at_alpha_zero_is_caught(monkeypatch, capsys):
    # at delta = p, alpha = 0 and rho(p, 0, p) = p: an offset of +2 keeps the
    # sign, so only the value identity rho == delta - threshold catches it
    exact = brillnoether.rho
    monkeypatch.setattr(brillnoether, "rho", lambda g, r, d: exact(g, r, d) + 2)
    with pytest.raises(InvariantViolation, match="delta - threshold = 9 "):
        necessary_condition(9, 9, 1, 4)
    assert cli.main(["bn", "check", "-p", "9", "-k", "4", "--delta", "9"]) == 2
    assert "invariant violation: rho(p, alpha*r" in capsys.readouterr().err


@pytest.mark.parametrize("offset", [1, 3])
def test_gonality_case_catches_rho_offset_of_same_sign(monkeypatch, offset):
    # move rho away from zero, so the admissibility verdict stays the same
    exact = brillnoether.necessary_condition

    def shifted(p, delta, r, d):
        rep = exact(p, delta, r, d)
        step = offset if rep.rho_at_alpha >= 0 else -offset
        return brillnoether.NecessityReport(
            rep.alpha, rep.rho_at_alpha + step, rep.satisfied, rep.threshold_delta
        )

    monkeypatch.setattr(brillnoether, "necessary_condition", shifted)
    for p, k, delta in [(9, 4, 2), (9, 4, 1), (8, 2, 8), (40, 3, 0)]:
        with pytest.raises(InvariantViolation, match="4\\(k-1\\)rho"):
            gonality.GonalityCase(p, k, delta)
