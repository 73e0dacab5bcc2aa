"""Output checks for every command the benchmark runs.

Each check reads the command's stdout and recomputes what it can without the
code under test: delta0 is bracketed through the Brill-Noether bound
(`necessary_condition`, never `decompose`), partition counts come from a
dynamic program of their own, and the remaining invariants are short integer
formulas written out here.  A check returns None when the output is right and
a one-line reason otherwise.

`necessary_condition` is bound at import time, before the tracer can replace
module attributes, so oracle calls never show up in the per-layer counts.
"""

import hashlib
import json
import math
import re
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from k3gonal.brillnoether import necessary_condition

GOLDEN_PENCIL = Path(__file__).resolve().parent / "golden_pencil.json"


def rat(q) -> str:
    """Render an exact rational as the CLI's "num/den" string."""
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def admissible(p: int, k: int, delta: int) -> bool:
    """The r = 1, d = k existence bound, read through `necessary_condition`."""
    return necessary_condition(p, delta, 1, k).satisfied


@lru_cache(maxsize=4096)
def delta0(p: int, k: int) -> int:
    """Minimal admissible delta by bisection, then bracket-checked.

    Admissibility is monotone in delta: the threshold max_a a(g-(k-1)(a+1))
    does not grow as g = p - delta falls.  The bracket check below makes a
    wrong answer fail loudly instead of trusting that argument.
    """
    lo, hi = 0, p  # delta = p (g = 0) is always admissible
    while lo < hi:
        mid = (lo + hi) // 2
        if admissible(p, k, mid):
            hi = mid
        else:
            lo = mid + 1
    if not admissible(p, k, lo) or (lo > 0 and admissible(p, k, lo - 1)):
        raise AssertionError(f"bisection bracket failed at (p={p}, k={k})")
    return lo


def optimal_y(p: int, k: int) -> int:
    """y of the optimal class H - y r_k: g + k - 1 at delta0."""
    return p - delta0(p, k) + k - 1


def optimal_q(p: int, k: int) -> Fraction:
    y = optimal_y(p, k)
    return 2 * (p - 1) - Fraction(y * y, 2 * (k - 1))


def _square_root(n: int) -> int | None:
    if n < 0:
        return None
    s = math.isqrt(n)
    return s if s * s == n else None


def _isotropic_s(p: int, k: int) -> int | None:
    s = _square_root((k - 1) * (p - 1))
    return s if s is not None and s >= 1 else None


def _primitive_n(p: int, k: int) -> int | None:
    if (p - 1) % (k - 1):
        return None
    n = _square_root((p - 1) // (k - 1))
    return n if n is not None and n >= 1 else None


def _min_q_s(p: int, k: int) -> int | None:
    """s >= 1 with p = s(s+1)(k-1), if any."""
    if p % (k - 1):
        return None
    root = _square_root(4 * (p // (k - 1)) + 1)
    if root is None:
        return None
    s = (root - 1) // 2
    return s if s >= 1 and s * (s + 1) * (k - 1) == p else None


def ray_status(p: int, k: int) -> str:
    if p <= 2 * (k - 1):
        return "PROVEN_BM"
    if _min_q_s(p, k) is not None:
        return "PROVEN_MINQ"
    n = _primitive_n(p, k)
    if n is not None and n >= 2:
        return "PROVEN_ISOPRIM"
    return "OPEN"


# -- chain partitions ------------------------------------------------------


@lru_cache(maxsize=256)
def partition_counts(p: int, k: int) -> tuple[int, ...]:
    """counts[g] = partitions of p into g parts, each multiplicity <= 2(k-1).

    A knapsack over part sizes j = 1..p, grading by the number of parts; it
    shares no code with `enumerate_partitions`.
    """
    cap = 2 * (k - 1)
    # ways[s][g]: partitions of s with g parts using the sizes seen so far
    ways = [[0] * (p + 1) for _ in range(p + 1)]
    ways[0][0] = 1
    for j in range(1, p + 1):
        new = [row[:] for row in ways]
        for s in range(p + 1):
            for g in range(p + 1):
                w = ways[s][g]
                if not w:
                    continue
                for a in range(1, cap + 1):
                    if s + a * j > p or g + a > p:
                        break
                    new[s + a * j][g + a] += w
        ways = new
    return tuple(ways[p])


def partition_count(p: int, k: int) -> int:
    return sum(partition_counts(p, k))


def chain_delta0(p: int, k: int) -> int:
    """Minimal delta = p - (largest number of parts), read off the DP."""
    counts = partition_counts(p, k)
    return p - max(g for g, c in enumerate(counts) if c)


_PART_FIELDS = re.compile(r'"delta": (\d+),\s*"g": (\d+)')


def _check_parts(payload: dict, p: int, k: int, delta: int) -> str | None:
    parts = payload.get("parts")
    if not isinstance(parts, list) or not parts:
        return "no parts"
    cap = 2 * (k - 1)
    if any(a < 1 or a > cap for _, a in parts):
        return f"a multiplicity is outside 1..{cap}"
    if sum(j * a for j, a in parts) != p:
        return "parts do not sum to p"
    if sum((j - 1) * a for j, a in parts) != delta:
        return "parts do not give delta"
    if sum(a for _, a in parts) != p - delta:
        return "parts do not give g"
    return None


# -- per-command checks ----------------------------------------------------


def _json(text: str):
    try:
        return json.loads(text), None
    except ValueError as exc:
        return None, f"stdout is not JSON: {exc}"


def _expect(payload: dict, **fields) -> str | None:
    for key, want in fields.items():
        if payload.get(key) != want:
            return f"{key}={payload.get(key)!r}, expected {want!r}"
    return None


@lru_cache(maxsize=1)
def _golden_pencil() -> dict[str, str]:
    return json.loads(GOLDEN_PENCIL.read_text(encoding="utf-8"))["sha256"]


def pencil_key(k: int, samples: int, seed: int) -> str:
    return f"k={k} samples={samples} seed={seed}"


def check_pencil(params: dict, text: str) -> str | None:
    payload, err = _json(text)
    if err:
        return err
    k, samples, seed = params["k"], params["samples"], params["seed"]
    bad = _expect(payload, k=k, samples=samples, seed=seed)
    if bad:
        return bad
    if payload.get("failures") != []:
        return f"failures reported: {payload.get('failures')!r}"
    transversal = payload.get("transversal")
    if not isinstance(transversal, int) or 100 * transversal < 95 * samples:
        return f"transversal {transversal!r}/{samples} below 95/100"
    recorded = _golden_pencil().get(pencil_key(k, samples, seed))
    if recorded is None:
        return "no recorded output for this case"
    if hashlib.sha256(text.encode("utf-8")).hexdigest() != recorded:
        return "output differs from the recorded bytes"
    return None


def _lagrangian_value(p: int, k: int, s: int) -> int:
    alpha = (2 * s - k + 1) // (2 * (k - 1))
    return (k - 1) * (alpha + 1) ** 2 - (2 * s + 1) * (alpha + 1) + p


def _check_case_row(row: dict, p: int, k: int) -> str | None:
    d0 = delta0(p, k)
    y = p - d0 + k - 1
    s = _isotropic_s(p, k)
    return _expect(
        row,
        p=p,
        k=k,
        delta0=d0,
        g=p - d0,
        q=rat(optimal_q(p, k)),
        tau=rat(Fraction(2 * (p - 1), y)),
        isotropic=s is not None,
        lagrangian_ok=None if s is None else _lagrangian_value(p, k, s) < 0,
        primitive=s is not None and _primitive_n(p, k) is not None,
        cone_status=ray_status(p, k),
        **{"class": f"H - {y}*r_k"},
    )


def check_scan(params: dict, text: str) -> str | None:
    payload, err = _json(text)
    if err:
        return err
    pmin, pmax, kmin, kmax = params["pmin"], params["pmax"], params["kmin"], params["kmax"]
    bad = _expect(payload, pmin=pmin, pmax=pmax, kmin=kmin, kmax=kmax)
    if bad:
        return bad
    rows = payload.get("rows", [])
    grid = [(p, k) for k in range(kmin, kmax + 1) for p in range(pmin, pmax + 1)]
    if len(rows) != len(grid):
        return f"{len(rows)} rows, expected {len(grid)}"
    for row, (p, k) in zip(rows, grid):
        bad = _check_case_row(row, p, k)
        if bad:
            return f"row (p={p}, k={k}): {bad}"
    return None


@lru_cache(maxsize=64)
def expected_qvalues(k: int, pmax: int) -> tuple[str, ...]:
    values = {optimal_q(p, k) for p in range(2, pmax + 1)}
    return tuple(rat(q) for q in sorted(q for q in values if q < 0))


def check_qvalues(params: dict, text: str) -> str | None:
    payload, err = _json(text)
    if err:
        return err
    k, pmax = params["k"], params["pmax"]
    return _expect(payload, k=k, pmax=pmax, qvalues=list(expected_qvalues(k, pmax)))


def check_enumerate(params: dict, text: str) -> str | None:
    """Count, delta histogram and minimal delta against the DP."""
    p, k = params["p"], params["k"]
    counts = partition_counts(p, k)
    head = text[:200]
    if f'"count": {sum(counts)},' not in head:
        return f"count header differs from the DP count {sum(counts)}"
    found = [0] * (p + 1)
    for match in _PART_FIELDS.finditer(text):
        delta, g = int(match.group(1)), int(match.group(2))
        if delta + g != p:
            return f"partition with delta={delta}, g={g} does not sum to p={p}"
        found[g] += 1
    if tuple(found) != counts:
        return "partitions per delta differ from the DP"
    emitted = [p - g for g, c in enumerate(found) if c]
    if min(emitted) != chain_delta0(p, k) or min(emitted) != delta0(p, k):
        return f"minimal delta {min(emitted)} is not delta0"
    return None


def check_witness(params: dict, text: str) -> str | None:
    payload, err = _json(text)
    if err:
        return err
    p, k, delta = params["p"], params["k"], params["delta"]
    return _expect(payload, p=p, k=k, delta=delta, g=p - delta) or _check_parts(
        payload, p, k, delta
    )


def check_delta0(params: dict, text: str) -> str | None:
    payload, err = _json(text)
    if err:
        return err
    p, k = params["p"], params["k"]
    return _expect(payload, p=p, k=k, delta0=delta0(p, k), verified=False)


def check_cone(params: dict, text: str) -> str | None:
    payload, err = _json(text)
    if err:
        return err
    p, k = params["p"], params["k"]
    y = optimal_y(p, k)
    return _expect(
        payload,
        p=p,
        k=k,
        delta0=delta0(p, k),
        optimal_class={"a": 1, "y": y},
        q_optimal=rat(optimal_q(p, k)),
        tau=rat(Fraction(2 * (p - 1), y)),
    )


def check_rays(params: dict, text: str) -> str | None:
    payload, err = _json(text)
    if err:
        return err
    p, k = params["p"], params["k"]
    return _expect(
        payload,
        p=p,
        k=k,
        status=ray_status(p, k),
        rays=[{"a": 0, "y": -1}, {"a": 1, "y": optimal_y(p, k)}],
        q=rat(optimal_q(p, k)),
    )


def check_lagrangian(params: dict, text: str) -> str | None:
    payload, err = _json(text)
    if err:
        return err
    p, k = params["p"], params["k"]
    s = _isotropic_s(p, k)
    if s is None:
        return _expect(payload, p=p, k=k, has_isotropic=False)
    alpha = (2 * s - k + 1) // (2 * (k - 1))
    value = _lagrangian_value(p, k, s)
    n = _primitive_n(p, k)
    return _expect(
        payload,
        p=p,
        k=k,
        has_isotropic=True,
        s=s,
        alpha=alpha,
        value=value,
        not_nef=value >= 0,
        necessary_condition_holds=value < 0,
        primitive=n is not None,
        n=n,
    )


def check_bn(params: dict, text: str) -> str | None:
    """r = 1, d = k: alpha = floor(g / 2(k-1)), written out from the formula."""
    payload, err = _json(text)
    if err:
        return err
    p, k, delta = params["p"], params["k"], params["delta"]
    g = p - delta
    alpha = g // (2 * (k - 1))
    threshold = alpha * (g - (k - 1) * (alpha + 1))
    rho = p - (alpha + 1) * (alpha + p - (alpha * k + delta))
    return _expect(
        payload,
        p=p,
        delta=delta,
        r=1,
        d=k,
        alpha=alpha,
        rho_at_alpha=rho,
        threshold_delta=threshold,
        satisfied=delta >= threshold,
    )


CHECKS = {
    "pencil verify": check_pencil,
    "hilb scan": check_scan,
    "hilb qvalues": check_qvalues,
    "chains enumerate": check_enumerate,
    "chains witness": check_witness,
    "gonality delta0": check_delta0,
    "hilb cone": check_cone,
    "hilb rays": check_rays,
    "hilb lagrangian": check_lagrangian,
    "bn check": check_bn,
}


def check(kind: str, params: dict, text: str) -> str | None:
    """Run the oracle for one command kind; None means the output is right."""
    return CHECKS[kind](params, text)
