"""The k3gonal benchmark: one command, four workloads.

    python3 perfbench/run.py --workload pencil --seed 1 --seconds 16 --trace 0
    python3 perfbench/run.py --workload all

It imports the package from `src/` of the checkout it sits in and drives
`k3gonal.cli.main(argv)` in this process.  The output is readable lines
followed by one JSON object on the last line: end-to-end metrics with
`--trace 0`, per-layer metrics from a traced run with `--trace 1`.
For one workload, exit 0 means a result was printed; whether the outputs
were right is its `correct` field.  `--workload all` runs each workload in a
fresh interpreter, one after the other, ends with a table, and exits 1 if
any workload's outputs were wrong.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# the names of workloads.WORKLOADS, here so that arguments parse before the
# package is loaded
WORKLOADS = ("pencil", "scan", "chains", "bigp")


def _parse(argv):
    parser = argparse.ArgumentParser(description="k3gonal benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _load_package():
    """Put the checkout's `src/` first on the path and refuse anything else.

    The workloads assume the default enumeration cap, so an override of it
    in the environment is dropped.
    """
    os.environ.pop("K3GONAL_MAX_P", None)
    if not (SRC / "k3gonal" / "cli.py").is_file():
        sys.exit(f"perfbench: no k3gonal source at {SRC}")
    sys.path.insert(0, str(SRC))
    import k3gonal

    if Path(k3gonal.__file__).resolve().parent != SRC / "k3gonal":
        sys.exit(f"perfbench: imported k3gonal from {k3gonal.__file__}, not {SRC}")


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_one(args) -> int:
    _load_package()
    import harness
    import workloads

    print(f"workload {args.workload}: {workloads.describe(args.workload)}; seed {args.seed}")
    if args.trace:
        result = harness.traced_run(
            workloads.commands(args.workload, args.seed,
                               workloads.TRACE_ROUNDS[args.workload]),
            HERE / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl.gz",
        )
        specs = harness.PER_LAYER
        print(f"traced run: {result['commands']} commands, each run untraced then "
              f"traced; {result['spans']} spans written under perfbench/out/")
    else:
        result = harness.measure(args.workload, args.seed, args.seconds)
        specs = harness.END_TO_END
        print(f"untraced run: {result['attempted']} commands, {result['busy_s']:.3f} "
              f"reference seconds of command time; items are "
              f"{harness.ITEM_UNITS[args.workload]}; cmd_tail_s is "
              f"p{result['tail_pct']:.1f} of {result['attempted']} commands")
    attempted, failures = result["attempted"], result["failures"]
    for name, unit, _ in specs:
        print(f"  {name:<44} {_fmt(result['metrics'][name]):>14} {unit}")
    print(f"  {'failed_frac':<44} {_fmt(len(failures) / attempted):>14} "
          f"({len(failures)}/{attempted})")
    for failure in failures[:5]:
        print(f"  FAILED: {failure}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": result["metrics"][name], "unit": unit}
            for name, unit, _ in specs
        },
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own interpreter, so that peak memory is its own."""
    results = {}
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            return done.returncode or 1
        print("\n".join(lines[:-1]))
        results[workload] = json.loads(lines[-1])
    names = list(results[WORKLOADS[0]]["metrics"])
    print(f"\n{'metric':<44} {'unit':<10}" + "".join(f"{w:>14}" for w in WORKLOADS))
    for name in names:
        unit = results[WORKLOADS[0]]["metrics"][name]["unit"]
        cells = "".join(f"{_fmt(results[w]['metrics'][name]['value']):>14}" for w in WORKLOADS)
        print(f"{name:<44} {unit:<10}{cells}")
    cells = "".join(
        f"{_fmt(results[w]['failed'] / results[w]['attempted']):>14}" for w in WORKLOADS)
    print(f"{'failed_frac':<44} {'ratio':<10}{cells}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    args = _parse(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
