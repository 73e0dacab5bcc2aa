import json
import time

import pytest
from hypothesis import given, settings, strategies as st

from k3gonal import chains, cli
from k3gonal.chains import (
    ChainPartition,
    enumerate_partitions,
    increment,
    validate,
    witness,
)
from k3gonal.errors import InvariantViolation
from k3gonal.gonality import decompose, delta0


def part(p, k, mult):
    return ChainPartition(p, k, mult)


# -- test-local reference for the curve bookkeeping that `chains stable`
# -- prints, each count summed over the chains


class SymbolicChainCurve:
    """Node and genus bookkeeping of the curve a valid partition builds.

    A chain of length 2j-1 carries j lines of the second ruling, j-1 marked
    nodes, j nodes on the second-scroll section and 2j points on the double
    curve; its distinguished pair gives one node of the stable model.
    """

    def __init__(self, partition):
        if not validate(partition):
            raise ValueError(
                f"partition invalid: weight {partition.weight()} vs p={partition.p}, "
                f"cap {2 * (partition.k - 1)}"
            )
        self.partition = partition
        parts = partition.parts
        self.line_count = sum((2 * j - 1) * a for j, a in parts)
        self.ruling2_lines = sum(j * a for j, a in parts)
        self.marked_nodes = sum((j - 1) * a for j, a in parts)
        self.nodes_on_gamma2 = sum(j * a for j, a in parts)
        self.e_points = sum(2 * j * a for j, a in parts)
        self.stable_model_nodes = sum(a for _, a in parts)

    def to_payload(self):
        return {
            "partition": self.partition.to_payload(),
            "line_count": self.line_count,
            "ruling2_lines": self.ruling2_lines,
            "marked_nodes": self.marked_nodes,
            "nodes_on_gamma2": self.nodes_on_gamma2,
            "e_points": self.e_points,
            "stable_model_nodes": self.stable_model_nodes,
        }


def stable_model(curve):
    """(node count, arithmetic genus) of the stable model: both equal g."""
    g = curve.stable_model_nodes
    return g, g


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


def test_witness_at_delta0_examples():
    assert witness(8, 2, delta0(8, 2)).parts == ((1, 2), (2, 1), (4, 1))
    assert witness(12, 3, delta0(12, 3)).parts == ((1, 4), (2, 4))
    assert witness(9, 4, delta0(9, 4)).parts == ((1, 6), (3, 1))
    assert witness(8, 2, delta0(8, 2)).delta == 4
    assert witness(12, 3, delta0(12, 3)).delta == 4
    assert witness(9, 4, delta0(9, 4)).delta == 2


def test_witness_at_delta0_small_p_regime():
    q = witness(3, 4, delta0(3, 4))  # p < 2(k-1)
    assert q.parts == ((1, 3),) and q.delta == 0


def test_witness_at_delta0_matches_delta0():
    for k in range(2, 7):
        for p in range(3, 41):
            q = witness(p, k, delta0(p, k))
            assert validate(q)
            assert q.delta == delta0(p, k)


def _three_case_minimal(p, k):
    """Reference minimal construction on the (m, t, lambda) decomposition."""
    cap = 2 * (k - 1)
    if p < cap:
        return {1: p}
    m, t, lam = decompose(p, k)
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


def test_witness_at_delta0_matches_three_case_reference():
    for k in range(2, 10):
        for p in range(3, 121):
            assert witness(p, k, delta0(p, k)) == part(p, k, _three_case_minimal(p, k)), (p, k)


def test_witness_matches_increment_reference():
    # every delta for p <= 60, k = 2..8: the witness at delta0 followed by
    # delta - delta0 merges, so increment(witness(delta)) == witness(delta + 1)
    cases = 0
    for k in range(2, 9):
        for p in range(3, 61):
            reference = witness(p, k, delta0(p, k))
            for delta in range(delta0(p, k), p):
                assert witness(p, k, delta) == reference, (p, k, delta)
                cases += 1
                if delta < p - 1:
                    reference = increment(reference)
    assert cases == 6702


@pytest.mark.parametrize("shift", [1, -1])
def test_witness_rejects_wrong_delta0(monkeypatch, shift):
    # delta0 one off, as chains sees it, fails the certificate
    # lightest(g0) <= p < lightest(g0 + 1); one too high is refused at that
    # delta0, one too low at the true delta0, since at its own the witness
    # check fires first (test_witness_below_delta0_is_an_invariant_violation)
    for k in range(2, 6):
        for p in range(3, 41):
            true = delta0(p, k)
            monkeypatch.setattr(chains, "delta0", lambda p, k: true + shift)
            with pytest.raises(InvariantViolation, match="not minimal"):
                witness(p, k, true + max(shift, 0))
    monkeypatch.undo()
    assert witness(8, 2, delta0(8, 2)).delta == 4


def test_witness_below_delta0_is_an_invariant_violation(monkeypatch, capsys):
    # delta0 one too low lets the true delta0 - 1 through `witness`'s range
    # check; whether the rule's last chain index drops under 1 there or the
    # cap breaks, the witness check raises, and the command exits 2
    cases = [(p, k, delta0(p, k)) for k in range(2, 7) for p in range(3, 61)]
    cases = [(p, k, d0) for p, k, d0 in cases if d0 >= 1]
    assert len(cases) == 270
    for p, k, d0 in cases:
        monkeypatch.setattr(chains, "delta0", lambda p, k, d0=d0: d0 - 1)
        with pytest.raises(InvariantViolation, match="chain witness failed"):
            witness(p, k, d0 - 1)
        argv = ["chains", "witness", "-p", str(p), "-k", str(k), "--delta", str(d0 - 1)]
        assert cli.main(argv) == 2, (p, k)
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("invariant violation: chain witness failed"), (p, k)


def test_witness_above_delta0_fails_the_certificate_from_the_cli(monkeypatch, capsys):
    # delta0 one too high: the witness at it passes the witness check, and
    # the certificate lightest(g0) <= p < lightest(g0 + 1) makes the command
    # exit 2 with nothing on stdout
    cases = [(p, k, delta0(p, k)) for k in range(2, 6) for p in range(3, 41)]
    for p, k, d0 in cases:
        monkeypatch.setattr(chains, "delta0", lambda p, k, d0=d0: d0 + 1)
        argv = ["chains", "witness", "-p", str(p), "-k", str(k), "--delta", str(d0 + 1)]
        assert cli.main(argv) == 2, (p, k)
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("invariant violation: "), (p, k)
        assert "is not minimal for chains" in err, (p, k)


def test_witness_at_extreme_p():
    p = 10**40 + 1
    assert witness(p, 2, p - 1).parts == ((p, 1),)
    q = witness(p, 10**9, p - 5)
    assert q.parts == ((1, 4), (p - 4, 1)) and q.delta == p - 5


def test_witness_length_limit_after_admissibility(monkeypatch):
    p = 10**40 + 1
    unlimited = witness(p, 2, p - 17)
    monkeypatch.setattr(chains, "WITNESS_MAX_LENGTHS", 10)
    with pytest.raises(ValueError, match="inadmissible"):
        witness(p, 2, 0)
    with pytest.raises(ValueError, match="no chain witness"):
        witness(p, 2, p)
    # g chains at cap 2 fill (g - 1) // 2 + 2 lengths; the limit is inclusive
    assert witness(p, 2, p - 17) == unlimited
    with pytest.raises(ValueError, match="up to 11 chain lengths, over the limit"):
        witness(p, 2, p - 19)


def test_witness_at_the_length_limit():
    p = 10**40 + 1
    start = time.perf_counter()
    with pytest.raises(ValueError, match="over the limit WITNESS_MAX_LENGTHS = 100000"):
        witness(p, 2, delta0(p, 2))
    assert time.perf_counter() - start < 0.05
    # g chains at cap 2 fill (g - 1) // 2 + 2 lengths: 100001 at g = 199999
    with pytest.raises(ValueError, match="up to 100001 chain lengths"):
        witness(p, 2, p - 199999)
    built = witness(p, 2, p - 199998)
    assert built.g == 199998 and len(built.parts) == chains.WITNESS_MAX_LENGTHS


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
    assert witness(8, 2, 4) == witness(8, 2, delta0(8, 2))
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


def _enumerate_by_search(p, k):
    """Reference enumeration: the unpruned recursion, every result validated."""
    cap = 2 * (k - 1)
    out = []
    acc = []

    def rec(remaining, top):
        if remaining == 0:
            out.append(ChainPartition(p, k, tuple(acc)))
            return
        for part in range(min(top, remaining), 0, -1):
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


def _stable_payload(partition, capsys):
    alpha = ",".join(f"{j}:{a}" for j, a in partition.parts)
    argv = ["--format", "json", "chains", "stable", "-p", str(partition.p),
            "-k", str(partition.k), "--alpha", alpha]
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    return json.loads(out)


def _reference_stable_payload(partition):
    curve = SymbolicChainCurve(partition)
    nodes, genus = stable_model(curve)
    return curve.to_payload() | {"stable_nodes": nodes, "arithmetic_genus": genus}


def test_chains_stable_matches_reference_on_witnesses(capsys):
    for k in range(2, 6):
        for p in range(3, 25):
            for delta in range(delta0(p, k), p):
                w = witness(p, k, delta)
                assert _stable_payload(w, capsys) == _reference_stable_payload(w), (p, k, delta)


def test_chains_stable_matches_reference_on_enumerated_partitions(capsys):
    for k in range(2, 6):
        for p in range(1, 13):
            for q in enumerate_partitions(p, k):
                assert _stable_payload(q, capsys) == _reference_stable_payload(q), (p, k, q)


def test_serialization_payload():
    q = part(8, 2, {4: 1, 1: 2, 2: 1})
    assert q.to_payload() == {
        "p": 8,
        "k": 2,
        "delta": 4,
        "g": 4,
        "parts": [[1, 2], [2, 1], [4, 1]],
    }
