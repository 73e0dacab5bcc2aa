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

Every witness is read off one rule: with cap = 2(k-1) and g = p - delta,
take the g - 1 lightest chains the cap allows (cap chains of each length
index 1, 2, 3, ...) plus one chain carrying the rest of the weight.  In
run-length form, with (q, r) = divmod(g - 1, cap),

    alpha_j = cap for j <= q,   alpha_{q+1} = r,   plus one chain of index
    p - lightest(g - 1),        lightest(n) = cap q(q+1)/2 + r(q+1),

the last chain adding to alpha_{q+1} when its index is q + 1.
`witness` is the rule at any delta in [delta0, p-1]; at delta0(p, k) it
reproduces the three-case construction on the (m, t, lambda) decomposition
of p.  Each call also certifies the delta0 it reads, by
lightest(g0) <= p < lightest(g0 + 1) with g0 = p - delta0; `increment`
merges the two longest chains to raise delta by exactly one, and takes each
witness to the next; `enumerate_partitions` is the exhaustive oracle.
"""

from collections.abc import Mapping

from .errors import InvariantViolation, _refuse_below, _refuse_delta, _refuse_over_limit
from .exactmath import _int, _value_class, field
from .gonality import _check_pk, delta0

__all__ = [
    "ChainPartition",
    "validate",
    "increment",
    "witness",
    "enumerate_partitions",
    "DEFAULT_MAX_P",
    "WITNESS_MAX_LENGTHS",
]

# `enumerate_partitions` lists 966,467 partitions at p = 60, k >= 31
DEFAULT_MAX_P = 60
# `witness` builds one (j, alpha_j) pair per chain length
WITNESS_MAX_LENGTHS = 10**5


@_value_class
class ChainPartition:
    """Multiplicities of chain lengths, stored sparsely, with g and delta.

    `parts` holds (j, alpha_j) pairs with alpha_j > 0, sorted by j; the
    constructor also accepts a mapping j -> alpha_j, sums repeated j and
    drops zero entries.  Construction refuses a p, k, j or alpha_j that is
    not an int, and enforces 1 <= j <= p only; the summation condition is
    what `validate` checks, so invalid partitions are representable.  `g` =
    sum_j alpha_j (chains, the geometric genus of the marked-node smoothing)
    and `delta` = sum_j (j-1) alpha_j (marked nodes) are stored, computed
    once from the merged multiplicities; they take no part in `==`, `hash`
    or `repr`, which stay over (p, k, parts).
    """

    p: int
    k: int
    parts: tuple[tuple[int, int], ...]
    g: int = field(init=False, repr=False, compare=False)
    delta: int = field(init=False, repr=False, compare=False)

    def __init__(self, p: int, k: int, parts):
        if _int(p) < 1:
            _refuse_below("p", 1, p)
        if _int(k) < 2:
            _refuse_below("k", 2, k)
        if isinstance(parts, Mapping):
            items = parts.items()
        else:
            items = tuple(parts)
        mult: dict[int, int] = {}
        for j, a in items:
            if not 1 <= _int(j) <= p:
                raise ValueError(f"chain length index {j} outside 1..{p}")
            if _int(a) < 0:
                raise ValueError(f"negative multiplicity {a} for length index {j}")
            if a:
                mult[j] = mult.get(j, 0) + a
        self._fill(p, k, tuple(sorted(mult.items())), sum(mult.values()),
                   sum((j - 1) * a for j, a in mult.items()))

    @property
    def multiplicities(self) -> dict[int, int]:
        return dict(self.parts)

    def weight(self) -> int:
        """sum_j j * alpha_j; equals p exactly when the partition is valid."""
        return sum(j * a for j, a in self.parts)

    def to_payload(self) -> dict:
        return {
            "p": self.p,
            "k": self.k,
            "delta": self.delta,
            "g": self.g,
            "parts": self.parts,
        }


def _broken_rule(partition: ChainPartition) -> str | None:
    """The first validity rule `partition` breaks, in words, or None."""
    p, cap = partition.p, 2 * (partition.k - 1)
    if partition.weight() != p:
        return f"weight {partition.weight()} is not p={p}"
    return next((f"alpha_{j} = {a} is over the cap 2(k-1) = {cap}"
                 for j, a in partition.parts if a > cap), None)


def validate(partition: ChainPartition) -> bool:
    """True iff the weight condition and the multiplicity cap both hold."""
    return _broken_rule(partition) is None


def _lightest(n: int, cap: int) -> int:
    """Total weight of the n lightest chains the cap allows: cap chains of
    each length index 1, 2, 3, ..., filled in that order."""
    q, r = divmod(n, cap)
    return cap * q * (q + 1) // 2 + r * (q + 1)


def increment(partition: ChainPartition) -> ChainPartition:
    """Merge the two longest chains, raising delta by exactly one.

    The two largest lengths present, counted with multiplicity, are j1 >= j2
    (j1 = j2 only when alpha_{j1} >= 2); both lose a chain and a single chain
    of length index j1 + j2 appears.  Since j1 + j2 exceeds every occupied
    index, the multiplicity cap is preserved automatically.  Applied to a
    witness it gives the witness one delta up.
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

    The module's rule at g = p - delta, built once, in time proportional to
    its number of chain lengths, at most (g-1) // 2(k-1) + 2; it equals the
    witness at delta0 followed by delta - delta0 `increment` merges.
    A p or k below 2 is refused first, by the check of every (p, k) function
    of `gonality`; then a delta outside [0, p], before delta0 is computed,
    with the range message of `necessary_condition`; delta = p (g = 0) has no
    chain witness and is rejected.  A witness that may pass
    WITNESS_MAX_LENGTHS chain lengths is refused unbuilt.

    Two checks follow, in this order.  The witness check: the last chain's
    index p - lightest(g - 1) is at least 1 for every delta >= delta0, and
    can drop under 1 below it; past that only the cap can fail, when the
    index is at most q, since by construction the parts weigh p and count
    q*cap + r + 1 = g chains.  Then the certificate of the delta0 read here:
    a valid partition with g chains exists iff lightest(g) <= p, so
    lightest(g0) <= p < lightest(g0 + 1), g0 = p - delta0.  A delta0 one too
    low fails the witness check, and one too high fails the certificate.

    >>> witness(8, 2, 4).parts
    ((1, 2), (2, 1), (4, 1))
    >>> witness(2, 2, 0).parts, witness(2, 2, 1).parts
    (((1, 2),), ((2, 1),))
    """
    _check_pk(p, k)
    if not 0 <= delta <= p:
        _refuse_delta(delta, p)
    d0 = delta0(p, k)
    if delta < d0:
        raise ValueError(f"inadmissible: delta={delta} < delta0={d0}")
    if delta > p - 1:
        raise ValueError(f"no chain witness for delta={delta} > p-1={p - 1}")
    cap = 2 * (k - 1)
    n = p - delta - 1
    q, r = divmod(n, cap)
    # the g - 1 lightest chains fill q + 1 lengths, the rest one more
    if q + 2 > WITNESS_MAX_LENGTHS:
        _refuse_over_limit(f"the witness at p={p}, k={k}, delta={delta} has up to {q + 2} "
                           "chain lengths,", "WITNESS_MAX_LENGTHS", WITNESS_MAX_LENGTHS)
    rest = p - _lightest(n, cap)
    partition = ChainPartition(
        p, k, [(j, cap) for j in range(1, q + 1)] + [(q + 1, r), (rest, 1)]
    ) if rest >= 1 else None
    if partition is None or not validate(partition) or partition.delta != delta:
        raise InvariantViolation(
            f"chain witness failed at (p={p}, k={k}, delta={delta}): "
            f"last chain index {rest}"
        )
    g0 = p - d0
    if not _lightest(g0, cap) <= p < _lightest(g0 + 1, cap):
        raise InvariantViolation(
            f"delta0={d0} at (p={p}, k={k}) is not minimal for chains: "
            f"{g0} lightest chains weigh {_lightest(g0, cap)}, "
            f"{g0 + 1} weigh {_lightest(g0 + 1, cap)}"
        )
    return partition


def enumerate_partitions(p: int, k: int) -> list[ChainPartition]:
    """All valid partitions for (p, k), exhaustively.

    Parts are chosen largest-first with multiplicities descending, so the
    output order is decreasing lexicographic on the (length, multiplicity)
    sequence and stable across runs.  With cap = 2(k-1), parts of length
    index <= top carry a weight of at most cap * top * (top + 1) / 2, and a
    branch whose remaining weight exceeds that is never entered; so every
    branch followed ends in a partition, which is built without being
    checked again.  Once the parts of index 2 are chosen, the rest is at
    most cap and is one run of 1s, closed without a further call.

    Each partition carries its g and delta, summed down the recursion, and
    its ascending parts, extended at the front; the (j, alpha_j) pairs are
    shared, taken from one table of every j <= p and alpha_j <= cap with
    j * alpha_j <= p.  g + delta = p is checked once per partition, where it
    is emitted, and a failure raises InvariantViolation.  Refuses p above
    DEFAULT_MAX_P, read at each call.
    """
    if p > DEFAULT_MAX_P:
        _refuse_over_limit(f"p={p} is", "DEFAULT_MAX_P", DEFAULT_MAX_P)
    if p < 1:
        _refuse_below("p", 1, p)
    if k < 2:
        _refuse_below("k", 2, k)
    cap = 2 * (k - 1)
    # pairs[j][a] is the shared (j, a); O(p log p) entries, however large k is
    pairs = [()] + [tuple((j, a) for a in range(min(cap, p // j) + 1)) for j in range(1, p + 1)]
    ones = pairs[1]
    # each leaf's parts are sorted by j, with 1 <= j <= p and every alpha_j
    # >= 1, so `ChainPartition._make` builds it unchecked, without its
    # `__init__`, from the parts and the g and delta summed here
    make = ChainPartition._make
    out: list[ChainPartition] = []

    def rec(remaining: int, top: int, tail: tuple, g: int, delta: int) -> None:
        for part in range(min(top, remaining), 0, -1):
            below = cap * part * (part - 1) // 2  # the most parts < part carry
            if remaining > below + cap * part:
                break
            most = remaining // part
            # a > fewest means part * a leaves at most `below` to the rest
            fewest = (remaining - below - 1) // part
            row = pairs[part]
            for a in range(cap if most > cap else most, fewest if fewest > 0 else 0, -1):
                parts = (row[a],) + tail
                rest = remaining - part * a
                if rest:
                    if part > 2:
                        rec(rest, part - 1, parts, g + a, delta + (part - 1) * a)
                        continue
                    parts = (ones[rest],) + parts  # part 2 leaves rest <= cap
                g_sum = g + a + rest
                delta_sum = delta + (part - 1) * a
                if g_sum + delta_sum != p:
                    raise InvariantViolation(
                        f"enumerated partition at (p={p}, k={k}) has g={g_sum}, "
                        f"delta={delta_sum}, g + delta != p: parts={parts}"
                    )
                out.append(make(p, k, parts, g_sum, delta_sum))

    try:
        rec(p, p, (), 0, 0)
    finally:
        # rec reaches itself through its closure cell; clearing the cell
        # frees rec, and with it `out`, when the caller drops the result
        # rather than at the next full collection
        del rec
    return out

