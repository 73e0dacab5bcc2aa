import pytest
from hypothesis import given, settings, strategies as st

from k3gonal import chains
from k3gonal.chains import (
    ChainPartition,
    SymbolicChainCurve,
    construct_minimal,
    enumerate_partitions,
    increment,
    stable_model,
    validate,
    witness,
)
from k3gonal.errors import InvariantViolation
from k3gonal.gonality import decompose, delta0


def part(p, k, mult):
    return ChainPartition(p, k, mult)


def test_validate_examples():
    assert validate(part(8, 2, {1: 2, 2: 1, 4: 1}))
    assert not validate(part(8, 2, {1: 3, 2: 1, 3: 1}))  # alpha_1 > 2(k-1)
    for p in range(1, 10):
        assert validate(part(p, 2, {p: 1}))


def test_partition_bookkeeping():
    q = part(8, 2, {1: 2, 2: 1, 4: 1})
    assert q.g == 4 and q.delta == 4 and q.weight() == 8
    assert q.g + q.delta == q.p


def test_partition_rejects_bad_indices():
    with pytest.raises(ValueError):
        part(4, 2, {5: 1})
    with pytest.raises(ValueError):
        part(4, 2, {0: 1})
    with pytest.raises(ValueError):
        part(4, 2, {2: -1})


def test_construct_minimal_examples():
    assert construct_minimal(8, 2).parts == ((1, 2), (2, 1), (4, 1))
    assert construct_minimal(12, 3).parts == ((1, 4), (2, 4))
    assert construct_minimal(9, 4).parts == ((1, 6), (3, 1))
    assert construct_minimal(8, 2).delta == 4
    assert construct_minimal(12, 3).delta == 4
    assert construct_minimal(9, 4).delta == 2


def test_construct_minimal_small_p_regime():
    q = construct_minimal(3, 4)  # p < 2(k-1)
    assert q.parts == ((1, 3),) and q.delta == 0


def test_construct_minimal_matches_delta0():
    for k in range(2, 7):
        for p in range(3, 41):
            q = construct_minimal(p, k)
            assert validate(q)
            assert q.delta == delta0(p, k)


def _three_case_minimal(p, k):
    """Reference minimal construction on the (m, t, lambda) decomposition."""
    cap = 2 * (k - 1)
    if p < cap:
        return {1: p}
    dec = decompose(p, k)
    m, t, lam = dec.m, dec.t, dec.lam
    mult = {j: cap for j in range(1, m + 1)}
    if lam == 0:
        mult[m + 1] = t
    elif t == 0:
        mult[m] = cap - 1
        mult[m + lam] = 1
    else:
        mult[m + 1] = t - 1
        mult[m + 1 + lam] = 1
    return mult


def test_construct_minimal_matches_three_case_reference():
    for k in range(2, 10):
        for p in range(3, 121):
            assert construct_minimal(p, k) == part(p, k, _three_case_minimal(p, k)), (p, k)


def test_witness_matches_increment_reference():
    # every delta for p <= 60, k = 2..8: the minimal construction followed by
    # delta - delta0 merges, so increment(witness(delta)) == witness(delta + 1)
    cases = 0
    for k in range(2, 9):
        for p in range(3, 61):
            reference = construct_minimal(p, k)
            for delta in range(delta0(p, k), p):
                assert witness(p, k, delta) == reference, (p, k, delta)
                cases += 1
                if delta < p - 1:
                    reference = increment(reference)
    assert cases == 6702


@pytest.mark.parametrize("shift", [1, -1])
def test_construct_minimal_rejects_wrong_delta0(monkeypatch, shift):
    # delta0 one off, as chains sees it, fails the certificate
    # lightest(g0) <= p < lightest(g0 + 1)
    for k in range(2, 6):
        for p in range(3, 41):
            true = delta0(p, k)
            monkeypatch.setattr(chains, "delta0", lambda p, k: true + shift)
            with pytest.raises(InvariantViolation, match="not minimal"):
                construct_minimal(p, k)
    monkeypatch.undo()
    assert construct_minimal(8, 2).delta == 4


def test_witness_at_extreme_p():
    p = 10**40 + 1
    assert witness(p, 2, p - 1).parts == ((p, 1),)
    q = witness(p, 10**9, p - 5)
    assert q.parts == ((1, 4), (p - 4, 1)) and q.delta == p - 5


def test_witness_length_limit_after_admissibility():
    p = 10**40 + 1
    with pytest.raises(ValueError, match="inadmissible"):
        witness(p, 2, 0, max_lengths=10)
    with pytest.raises(ValueError, match="no chain witness"):
        witness(p, 2, p, max_lengths=10)
    # g chains at cap 2 fill (g - 1) // 2 + 2 lengths; the limit is inclusive
    assert witness(p, 2, p - 17, max_lengths=10) == witness(p, 2, p - 17)
    with pytest.raises(ValueError, match="up to 11 chain lengths, over the limit"):
        witness(p, 2, p - 19, max_lengths=10)
    assert witness(100, 3, 80) == witness(100, 3, 80, max_lengths=10**5)


def test_increment_examples():
    q = increment(part(8, 2, {1: 2, 2: 1, 4: 1}))
    assert q.parts == ((1, 2), (6, 1)) and q.delta == 5
    q = increment(part(8, 2, {1: 2, 6: 1}))
    assert q.parts == ((1, 1), (7, 1)) and q.delta == 6
    q = increment(part(4, 3, {1: 4}))  # coinciding indices
    assert q.parts == ((1, 2), (2, 1)) and q.delta == 1


def test_increment_rejects_maximal():
    with pytest.raises(ValueError):
        increment(part(5, 2, {5: 1}))


def test_increment_rejects_invalid():
    with pytest.raises(ValueError):
        increment(part(8, 2, {1: 8}))


@given(
    p=st.integers(3, 30),
    k=st.integers(2, 6),
    data=st.data(),
)
@settings(max_examples=120, deadline=None)
def test_increment_steps_delta_by_one(p, k, data):
    d0 = delta0(p, k)
    if d0 > p - 1:
        return
    delta = data.draw(st.integers(d0, p - 1))
    q = witness(p, k, delta)
    if q.delta < p - 1:
        nxt = increment(q)
        assert validate(nxt)
        assert nxt.delta == q.delta + 1
        assert nxt.weight() == p


def test_witness_examples():
    assert witness(8, 2, 5).delta == 5
    assert witness(8, 2, 4) == construct_minimal(8, 2)
    with pytest.raises(ValueError, match="inadmissible"):
        witness(8, 2, 3)
    with pytest.raises(ValueError):
        witness(8, 2, 8)


def test_enumerate_examples():
    parts4 = {q.parts for q in enumerate_partitions(4, 2)}
    assert parts4 == {
        ((4, 1),),
        ((1, 1), (3, 1)),
        ((2, 2),),
        ((1, 2), (2, 1)),
    }
    assert ((1, 4),) not in parts4
    assert [q.parts for q in enumerate_partitions(1, 3)] == [((1, 1),)]
    assert {q.parts for q in enumerate_partitions(3, 2)} == {
        ((1, 1), (2, 1)),
        ((3, 1),),
    }


def test_enumerate_order_is_stable():
    order = [q.parts for q in enumerate_partitions(4, 2)]
    assert order == [
        ((4, 1),),
        ((1, 1), (3, 1)),
        ((2, 2),),
        ((1, 2), (2, 1)),
    ]


def test_enumerate_cap(monkeypatch):
    with pytest.raises(ValueError, match="K3GONAL_MAX_P"):
        enumerate_partitions(61, 2)
    assert enumerate_partitions(61, 2, max_p=61)
    monkeypatch.setenv("K3GONAL_MAX_P", "70")
    assert enumerate_partitions(61, 2)


def test_enumerate_cap_env_not_an_integer(monkeypatch):
    monkeypatch.setenv("K3GONAL_MAX_P", "abc")
    with pytest.raises(ValueError, match="K3GONAL_MAX_P.*'abc'"):
        enumerate_partitions(4, 2)


def _enumerate_by_search(p, k):
    """Reference enumeration: the unpruned recursion, every result validated."""
    cap = 2 * (k - 1)
    out = []
    acc = []

    def rec(remaining, max_part):
        if remaining == 0:
            out.append(ChainPartition(p, k, tuple(acc)))
            return
        for part in range(min(max_part, remaining), 0, -1):
            for a in range(min(cap, remaining // part), 0, -1):
                acc.append((part, a))
                rec(remaining - part * a, part - 1)
                acc.pop()

    rec(p, p)
    return out


def test_enumerate_matches_search_reference():
    for k in range(2, 7):
        for p in range(1, 31):
            found = enumerate_partitions(p, k)
            assert isinstance(found, list)
            assert found == _enumerate_by_search(p, k), (p, k)
            for q in found:
                rebuilt = ChainPartition(p, k, q.parts)
                assert q == rebuilt and q.parts == rebuilt.parts, (p, k, q)


def test_enumerate_invariants_small_grid():
    for k in range(2, 5):
        for p in range(3, 21):
            parts = enumerate_partitions(p, k)
            deltas = set()
            for q in parts:
                assert validate(q)
                assert q.g + q.delta == p
                deltas.add(q.delta)
            assert min(deltas) == delta0(p, k)
            # every delta in [delta0, p-1] is attained, and witnesses agree
            for delta in range(delta0(p, k), p):
                assert delta in deltas
                w = witness(p, k, delta)
                assert validate(w) and w.delta == delta


def test_symbolic_curve_counts():
    curve = SymbolicChainCurve(part(8, 2, {1: 2, 2: 1, 4: 1}))
    assert curve.ruling2_lines == 8
    assert curve.marked_nodes == 4
    assert curve.nodes_on_gamma2 == 8
    assert curve.e_points == 16
    assert curve.line_count == 12  # 2p - g
    assert curve.stable_model_nodes == 4


def test_symbolic_curve_rejects_invalid():
    with pytest.raises(ValueError):
        SymbolicChainCurve(part(8, 2, {1: 2}))


def test_stable_model_examples():
    assert stable_model(SymbolicChainCurve(part(8, 2, {1: 2, 2: 1, 4: 1}))) == (4, 4)
    assert stable_model(SymbolicChainCurve(part(2, 2, {1: 2}))) == (2, 2)
    assert stable_model(SymbolicChainCurve(part(7, 3, {7: 1}))) == (1, 1)


def test_bookkeeping_identities_on_witnesses():
    for k in range(2, 6):
        for p in range(3, 25):
            for delta in range(delta0(p, k), p):
                curve = SymbolicChainCurve(witness(p, k, delta))
                g = curve.partition.g
                assert curve.marked_nodes + g == curve.ruling2_lines == p
                assert curve.line_count == 2 * p - g


def test_serialization_payload():
    q = part(8, 2, {4: 1, 1: 2, 2: 1})
    assert q.to_payload() == {
        "p": 8,
        "k": 2,
        "delta": 4,
        "g": 4,
        "parts": [[1, 2], [2, 1], [4, 1]],
    }
