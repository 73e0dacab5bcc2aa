import pytest
from hypothesis import given, settings, strategies as st

from k3gonal import cli
from k3gonal.brillnoether import necessary_condition
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

import guards

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
    m = 0
    while (k - 1) * (m + 1) * (m + 2) <= p:
        m += 1
    t = p // (m + 1) - m * (k - 1)
    return m, t, p - (k - 1) * m * (m + 1) - t * (m + 1)


def test_decompose_matches_search_reference():
    for k in range(2, 21):
        for p in range(2, 5001):
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


@pytest.mark.parametrize("fault", guards.FAULTS)
def test_closed_form_guards_fire(monkeypatch, capsys, fault):
    record = guards.FAULTS[fault]
    monkeypatch.setattr(*record.patch)
    for args in record.cases:
        with pytest.raises(InvariantViolation) as caught:
            record.call(*args)
        assert record.message in str(caught.value)
    for argv in record.argvs:
        for fmt in ("table", "json", "csv"):
            assert cli.main(["--format", fmt, *argv.split()]) == 2, (argv, fmt)
            out, err = capsys.readouterr()
            assert out == "" and err.endswith("\n") and err.count("\n") == 1, (argv, fmt)
            assert err.startswith("invariant violation: ") and record.message in err, (argv, fmt)


def test_every_guard_has_a_fault_that_fires(monkeypatch):
    # each fault's first case raises at one guard, or for a failure the pencil
    # suite collects, at the raise that reports them, under the label of the
    # first; together they reach every guard and label, and nothing else
    fired, labels = set(), guards.suite_labels()
    for record in guards.FAULTS.values():
        with monkeypatch.context() as patch:
            patch.setattr(*record.patch)
            with pytest.raises(InvariantViolation) as caught:
                record.call(*record.cases[0])
        fired.add(guards.raise_site(caught.value))
        first = str(caught.value).split("; ")[0]
        fired.update(label for label in labels if first.startswith(f"sample 0: {label}"))
    assert len(labels) == 4  # so the ast walk found the suite's labels
    assert fired == set(guards.raise_sites("InvariantViolation")) | labels
