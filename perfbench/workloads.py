"""Seeded command streams for the four workloads.

A run is a list of rounds; round r is a fixed function of (workload, seed,
r, number of rounds), so equal seeds give equal argv.  Every argv is valid at
the default enumeration cap: a refused command would count as a failure, not
as a fast sample.  The program sees only the argv; the parameters beside it
are for the oracles and the item counts.

Why each workload exists, and which layers it loads, is in README.md.
"""

import random
from dataclasses import dataclass

import oracles

WORKLOADS = ("pencil", "scan", "chains", "bigp")


@dataclass(frozen=True)
class Command:
    """One CLI invocation, its oracle parameters and its work units."""

    kind: str
    argv: tuple[str, ...]
    params: dict
    items: int


def _cmd(kind: str, params: dict, items: int, *flags) -> Command:
    argv = ("--format", "json", *kind.split(), *(str(f) for f in flags))
    return Command(kind, argv, params, items)


def _rng(workload: str, seed: int, r: int) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}:{r}")


# pencil: every k in 2..8 once per round, each at a seed drawn from a fixed
# pool whose outputs are recorded in golden_pencil.json.
PENCIL_KS = tuple(range(2, 9))
PENCIL_SAMPLES = 20
PENCIL_POOL = 64


def pencil_command(k: int, pool_seed: int) -> Command:
    params = {"k": k, "samples": PENCIL_SAMPLES, "seed": pool_seed}
    return _cmd("pencil verify", params, PENCIL_SAMPLES,
                "-k", k, "--samples", PENCIL_SAMPLES, "--seed", pool_seed)


def pencil_round(seed: int, r: int) -> list[Command]:
    rng = _rng("pencil", seed, r)
    ks = list(PENCIL_KS)
    rng.shuffle(ks)
    return [pencil_command(k, rng.randrange(PENCIL_POOL)) for k in ks]


# scan: one 300 x 5 grid whose window the seed shifts, plus three q-value
# spectra.  Items are (p, k) cases evaluated.
SCAN_P, SCAN_K = 300, 5
QVALUES_PMAX = 400


def scan_round(seed: int, r: int) -> list[Command]:
    rng = _rng("scan", seed, r)
    pmin, kmin = rng.randint(2, 101), rng.randint(2, 4)
    pmax, kmax = pmin + SCAN_P - 1, kmin + SCAN_K - 1
    out = [
        _cmd("hilb scan", {"pmin": pmin, "pmax": pmax, "kmin": kmin, "kmax": kmax},
             SCAN_P * SCAN_K,
             "--pmin", pmin, "--pmax", pmax, "--kmin", kmin, "--kmax", kmax)
    ]
    for k in rng.sample(range(2, 13), 3):
        out.append(
            _cmd("hilb qvalues", {"k": k, "pmax": QVALUES_PMAX}, QVALUES_PMAX - 1,
                 "-k", k, "--pmax", QVALUES_PMAX)
        )
    rng.shuffle(out)
    return out


# chains: fixed enumeration sizes, so peak memory does not depend on the
# seed; every delta in [delta0, p-1] gets a witness.  Items are partitions.
CHAINS_CASES = ((40, 2), (32, 3), (28, 4), (24, 5))


def chains_round(seed: int, r: int) -> list[Command]:
    out = []
    for p, k in CHAINS_CASES:
        out.append(
            _cmd("chains enumerate", {"p": p, "k": k}, oracles.partition_count(p, k),
                 "-p", p, "-k", k)
        )
        for delta in range(oracles.chain_delta0(p, k), p):
            out.append(
                _cmd("chains witness", {"p": p, "k": k, "delta": delta}, 1,
                     "-p", p, "-k", k, "--delta", delta)
            )
    _rng("chains", seed, r).shuffle(out)
    return out


# bigp: single-case queries at p from 1e6 to 1e12.  Each round is the full
# product kind x k x decade.  Over the rounds of a run, each (kind, k, decade)
# cell visits every 1/rounds slice of its decade once, in a seeded order, at a
# seeded point of the slice's middle fifth.  So every run covers each decade
# evenly, the set of costs hardly depends on the seed, and no (p, k) repeats.
BIGP_KINDS = ("gonality delta0", "hilb cone", "hilb rays", "hilb lagrangian", "bn check")
BIGP_KS = (2, 3, 5, 8, 13)
BIGP_DECADES = tuple(range(6, 12))


def bigp_round(seed: int, r: int, rounds: int) -> list[Command]:
    rng = _rng("bigp", seed, r)
    order = random.Random(f"perfbench:bigp:{seed}:{rounds}")
    out = []
    for kind in BIGP_KINDS:
        for k in BIGP_KS:
            for decade in BIGP_DECADES:
                slices = list(range(rounds))
                order.shuffle(slices)
                p = int(10 ** (decade + (slices[r] + 0.4 + rng.random() / 5) / rounds))
                params = {"p": p, "k": k}
                flags = ["-p", p, "-k", k]
                if kind == "bn check":
                    delta = min(p, max(0, oracles.delta0(p, k) + rng.randint(-2, 2)))
                    params["delta"] = delta
                    flags += ["--delta", delta]
                out.append(_cmd(kind, params, 1, *flags))
    rng.shuffle(out)
    return out


ROUNDS = {
    "pencil": lambda seed, r, rounds: pencil_round(seed, r),
    "scan": lambda seed, r, rounds: scan_round(seed, r),
    "chains": lambda seed, r, rounds: chains_round(seed, r),
    "bigp": bigp_round,
}

# Wall seconds one round takes on the reference machine (2 vCPU, Python
# 3.11), checks and calibration included.  A run holds the number of rounds
# that fills its time there, so its work is a function of (seed, seconds)
# alone and never of how fast the code ran.  At 16 s, pencil gets 8 rounds
# and chains 16: the command with ten above it then falls inside a class of
# equal-cost commands (k = 7; p = 40, k = 2), not on the edge between two.
NOMINAL_ROUND_S = {"pencil": 2.1, "scan": 0.24, "chains": 1.0, "bigp": 2.8}
# rounds of a traced run: a fixed list, so call counts repeat exactly
TRACE_ROUNDS = {"pencil": 3, "scan": 3, "chains": 2, "bigp": 1}


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_ROUND_S[workload]))


def commands(workload: str, seed: int, rounds: int) -> list[Command]:
    """Rounds 0..rounds-1 of the workload at this seed, in order."""
    make = ROUNDS[workload]
    return [c for r in range(rounds) for c in make(seed, r, rounds)]


def describe(workload: str) -> str:
    return {
        "pencil": f"pencil verify, k in {PENCIL_KS[0]}..{PENCIL_KS[-1]}, "
        f"{PENCIL_SAMPLES} samples each",
        "scan": f"hilb scan {SCAN_P}x{SCAN_K} grid + 3 x hilb qvalues --pmax {QVALUES_PMAX}",
        "chains": "chains enumerate at " + ", ".join(f"(p={p}, k={k})" for p, k in CHAINS_CASES)
        + " + every chains witness",
        "bigp": f"{len(BIGP_KINDS)} single-case kinds at p in 1e6..1e12, k in {BIGP_KS}",
    }[workload]

