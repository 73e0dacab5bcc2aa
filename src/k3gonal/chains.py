"""Chain-partition calculus on the degenerate surface.

A curve configuration is encoded by multiplicities alpha_j (j >= 1), where
alpha_j counts chains of length 2j-1.  Validity means

    sum_j j * alpha_j = p      and      alpha_j <= 2(k-1) for all j,

and the derived bookkeeping is delta = sum_j (j-1) alpha_j marked nodes and
g = sum_j alpha_j = p - delta chains.  A chain of length 2j-1 carries j lines
of the second ruling, j-1 marked nodes on the section of the first scroll,
j nodes on the second, and meets the double curve in 2j points; contracting
every ruling line identifies one pair of points per chain, so the stable
model is a rational curve with g nodes and arithmetic genus g.

`construct_minimal` realizes the minimal node number delta0(p, k) by the
three-case construction driven by the (m, t, lambda) decomposition;
`increment` merges the two longest chains to raise delta by exactly one;
`enumerate_partitions` is the exhaustive oracle.
"""

import os
from collections.abc import Mapping
from dataclasses import dataclass

from .errors import InvariantViolation
from .gonality import decompose, delta0

__all__ = [
    "ChainPartition",
    "SymbolicChainCurve",
    "validate",
    "construct_minimal",
    "increment",
    "witness",
    "enumerate_partitions",
    "stable_model",
    "MAX_P_ENV",
    "DEFAULT_MAX_P",
]

MAX_P_ENV = "K3GONAL_MAX_P"
DEFAULT_MAX_P = 60


@dataclass(frozen=True)
class ChainPartition:
    """Multiplicities of chain lengths, stored sparsely.

    `parts` holds (j, alpha_j) pairs with alpha_j > 0, sorted by j; the
    constructor also accepts a mapping j -> alpha_j and drops zero entries.
    Construction enforces 1 <= j <= p only; the summation condition is what
    `validate` checks, so invalid partitions are representable.
    """

    p: int
    k: int
    parts: tuple[tuple[int, int], ...]

    def __init__(self, p: int, k: int, parts):
        if p < 1:
            raise ValueError(f"need p >= 1, got p={p}")
        if k < 2:
            raise ValueError(f"need k >= 2, got k={k}")
        if isinstance(parts, Mapping):
            items = parts.items()
        else:
            items = tuple(parts)
        mult: dict[int, int] = {}
        for j, a in items:
            if not 1 <= j <= p:
                raise ValueError(f"chain length index {j} outside 1..{p}")
            if a < 0:
                raise ValueError(f"negative multiplicity {a} for length index {j}")
            if a:
                mult[j] = mult.get(j, 0) + a
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "parts", tuple(sorted(mult.items())))

    @classmethod
    def _trusted(cls, p: int, k: int, parts: tuple[tuple[int, int], ...]):
        """A partition from parts already sorted by j, with 1 <= j <= p and
        every alpha_j >= 1; nothing is checked or copied."""
        partition = object.__new__(cls)
        partition.__dict__.update(p=p, k=k, parts=parts)
        return partition

    @property
    def multiplicities(self) -> dict[int, int]:
        return dict(self.parts)

    @property
    def g(self) -> int:
        """Number of chains = geometric genus of the marked-node smoothing."""
        return sum(a for _, a in self.parts)

    @property
    def delta(self) -> int:
        """Marked node count sum_j (j-1) alpha_j."""
        return sum((j - 1) * a for j, a in self.parts)

    def weight(self) -> int:
        """sum_j j * alpha_j; equals p exactly when the partition is valid."""
        return sum(j * a for j, a in self.parts)

    def to_payload(self) -> dict:
        return {
            "p": self.p,
            "k": self.k,
            "delta": self.delta,
            "g": self.g,
            "parts": [[j, a] for j, a in self.parts],
        }


def validate(partition: ChainPartition) -> bool:
    """True iff the weight condition and the multiplicity cap both hold."""
    cap = 2 * (partition.k - 1)
    return partition.weight() == partition.p and all(
        a <= cap for _, a in partition.parts
    )


@dataclass(frozen=True)
class SymbolicChainCurve:
    """Node/genus bookkeeping of the curve built from a valid partition."""

    partition: ChainPartition

    def __post_init__(self):
        if not validate(self.partition):
            raise ValueError("partition does not define a curve: validation failed")

    @property
    def line_count(self) -> int:
        """Total ruling lines sum (2j-1) alpha_j = 2p - g."""
        return sum((2 * j - 1) * a for j, a in self.partition.parts)

    @property
    def ruling2_lines(self) -> int:
        """Lines of the second ruling, sum j alpha_j = p."""
        return self.partition.weight()

    @property
    def marked_nodes(self) -> int:
        return self.partition.delta

    @property
    def nodes_on_gamma2(self) -> int:
        """Nodes on the second-scroll section, one per second-ruling line."""
        return self.partition.weight()

    @property
    def e_points(self) -> int:
        """Intersection points with the double curve, 2 per ruling-2 line."""
        return 2 * self.partition.weight()

    @property
    def stable_model_nodes(self) -> int:
        """One node per chain: the distinguished pair gets identified."""
        return self.partition.g

    def to_payload(self) -> dict:
        return {
            "partition": self.partition.to_payload(),
            "line_count": self.line_count,
            "ruling2_lines": self.ruling2_lines,
            "marked_nodes": self.marked_nodes,
            "nodes_on_gamma2": self.nodes_on_gamma2,
            "e_points": self.e_points,
            "stable_model_nodes": self.stable_model_nodes,
        }


def construct_minimal(p: int, k: int) -> ChainPartition:
    """The partition realizing delta0(p, k), by the three-case construction.

    With cap = 2(k-1) and p = (k-1)m(m+1) + t(m+1) + lambda:

      lambda = 0:          alpha_j = cap for j <= m, alpha_{m+1} = t;
      t = 0, lambda > 0:   alpha_j = cap for j <= m-1, alpha_m = cap - 1,
                           alpha_{m+lambda} = 1;
      t > 0, lambda > 0:   alpha_j = cap for j <= m, alpha_{m+1} = t - 1,
                           alpha_{m+1+lambda} = 1.

    Below the decomposition regime (p < 2(k-1)) the single case alpha_1 = p
    realizes delta = 0.
    """
    if p < 3:
        raise ValueError(f"need p >= 3, got p={p}")
    if k < 2:
        raise ValueError(f"need k >= 2, got k={k}")
    cap = 2 * (k - 1)
    if p < cap:
        mult = {1: p}
    else:
        dec = decompose(p, k)
        m, t, lam = dec.m, dec.t, dec.lam
        if lam == 0:
            mult = {j: cap for j in range(1, m + 1)}
            mult[m + 1] = t
        elif t == 0:
            mult = {j: cap for j in range(1, m)}
            mult[m] = cap - 1
            mult[m + lam] = 1
        else:
            mult = {j: cap for j in range(1, m + 1)}
            mult[m + 1] = t - 1
            mult[m + 1 + lam] = 1
    partition = ChainPartition(p, k, mult)
    d0 = delta0(p, k)
    if not validate(partition) or partition.delta != d0:
        raise InvariantViolation(
            f"minimal construction failed at (p={p}, k={k}): "
            f"delta={partition.delta}, expected {d0}"
        )
    return partition


def increment(partition: ChainPartition) -> ChainPartition:
    """Merge the two longest chains, raising delta by exactly one.

    The two largest lengths present, counted with multiplicity, are j1 >= j2
    (j1 = j2 only when alpha_{j1} >= 2); both lose a chain and a single chain
    of length index j1 + j2 appears.  Since j1 + j2 exceeds every occupied
    index, the multiplicity cap is preserved automatically.
    """
    if not validate(partition):
        raise ValueError("cannot increment an invalid partition")
    if partition.delta >= partition.p - 1:
        raise ValueError("already maximal: a single chain admits no merge")
    occupied = [j for j, _ in reversed(partition.parts)]
    j1 = occupied[0]
    mult = partition.multiplicities
    j2 = j1 if mult[j1] >= 2 else occupied[1]
    mult[j1] -= 1
    mult[j2] = mult.get(j2, 0) - 1
    mult[j1 + j2] = mult.get(j1 + j2, 0) + 1
    merged = ChainPartition(partition.p, partition.k, mult)
    if not validate(merged) or merged.delta != partition.delta + 1:
        raise InvariantViolation(
            f"increment broke validity at p={partition.p}, k={partition.k}, "
            f"parts={partition.parts}"
        )
    return merged


def witness(p: int, k: int, delta: int) -> ChainPartition:
    """A valid partition with the requested delta in [delta0(p,k), p-1].

    Built as the minimal construction followed by delta - delta0 merges.
    delta = p (g = 0) has no chain witness and is rejected.
    """
    if p < 3:
        raise ValueError(f"need p >= 3, got p={p}")
    if k < 2:
        raise ValueError(f"need k >= 2, got k={k}")
    d0 = delta0(p, k)
    if delta < d0:
        raise ValueError(f"inadmissible: delta={delta} < delta0={d0}")
    if delta > p - 1:
        raise ValueError(f"no chain witness for delta={delta} > p-1={p - 1}")
    partition = construct_minimal(p, k)
    for _ in range(delta - d0):
        partition = increment(partition)
    return partition


def enumerate_partitions(p: int, k: int, max_p: int | None = None) -> list[ChainPartition]:
    """All valid partitions for (p, k), exhaustively.

    Parts are chosen largest-first with multiplicities descending, so the
    output order is decreasing lexicographic on the (length, multiplicity)
    sequence and stable across runs.  With cap = 2(k-1), parts of length
    index <= top carry a weight of at most cap * top * (top + 1) / 2, and a
    branch whose remaining weight exceeds that is never entered; so every
    branch followed ends in a partition, which is built without being
    checked again.  Refuses p above the cap (default 60, overridable via the
    K3GONAL_MAX_P environment variable or `max_p`).
    """
    if max_p is None:
        max_p = int(os.environ.get(MAX_P_ENV, str(DEFAULT_MAX_P)))
    if p > max_p:
        raise ValueError(
            f"p={p} exceeds the enumeration cap {max_p}; raise it via the "
            f"{MAX_P_ENV} environment variable or the max_p argument"
        )
    if p < 1:
        raise ValueError(f"need p >= 1, got p={p}")
    if k < 2:
        raise ValueError(f"need k >= 2, got k={k}")
    cap = 2 * (k - 1)
    make = ChainPartition._trusted
    out: list[ChainPartition] = []
    acc: list[tuple[int, int]] = []

    def rec(remaining: int, top: int) -> None:
        for part in range(min(top, remaining), 0, -1):
            below = cap * part * (part - 1) // 2  # the most parts < part carry
            if remaining > below + cap * part:
                break
            most = remaining // part
            # a > fewest means part * a leaves at most `below` to the rest
            fewest = (remaining - below - 1) // part
            for a in range(cap if most > cap else most, fewest if fewest > 0 else 0, -1):
                acc.append((part, a))
                if remaining == part * a:
                    out.append(make(p, k, tuple(reversed(acc))))
                else:
                    rec(remaining - part * a, part - 1)
                acc.pop()

    rec(p, p)
    return out


def stable_model(curve: SymbolicChainCurve) -> tuple[int, int]:
    """(node count, arithmetic genus) of the stable model: both equal g."""
    g = curve.stable_model_nodes
    return g, g
