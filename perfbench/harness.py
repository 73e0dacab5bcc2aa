"""Runs a workload through `k3gonal.cli.main` in this process and reports.

Untraced runs give the end-to-end metrics; traced runs give the per-layer
metrics.  Times are normalised by the machine's current speed (`speed.py`).
A run is one thread, one command at a time (a closed loop with one client):
the next command starts when the previous one has returned and its output
has been checked.
"""

import contextlib
import io
import os
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path

import k3gonal.cli
import oracles
import speed
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 11

# (name, unit, better): the order in which the metrics are reported
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("items_per_s", "1/s", "higher"),
    ("cmd_p50_s", "s", "lower"),
    ("cmd_tail_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
ITEM_UNITS = {
    "pencil": "sampled pencils verified",
    "scan": "(p, k) cases evaluated",
    "chains": "partitions emitted",
    "bigp": "queries answered",
}

_COUNTED = (
    "pencil.random_coprime_pencil",
    "pencil.wedge_curve",
    "pencil.diagonal_restriction",
    "pencil.wronskian",
    "pencil.proportional",
    "pencil.random_smooth_conic",
    "pencil.conic_intersection",
    "pencil.SymPlaneCurve.pullback",
    "pencil.distinct_root_count",
    "pencil.is_squarefree",
    "pencil.BinaryForm.__mul__",
    "pencil.verification_suite",
    "hilbert.optimal_class",
    "hilbert.tau",
    "hilbert.extremal_ray_status",
    "hilbert.lagrangian_report",
    "hilbert.minimal_q_family",
    "hilbert.gonality_class",
    "hilbert.q_case",
    "hilbert.attained_q_values",
    "gonality.decompose",
    "gonality.delta0",
    "gonality.GonalityCase",
    "brillnoether.necessary_condition",
    "chains.enumerate_partitions",
    "chains.ChainPartition.to_payload",
    "chains.witness",
    "chains.increment",
)
PER_LAYER = (
    *((f"{name}.{kind}", unit, "lower")
      for name in _COUNTED for kind, unit in (("calls", "count"), ("self_s", "s"))),
    ("pencil.random_pencil.calls", "count", "lower"),
    ("pencil.sampling.accept_ratio", "ratio", "higher"),
    ("hilbert.optimal_class.calls_per_row", "calls/row", "lower"),
    ("gonality.decompose.calls_per_row", "calls/row", "lower"),
    ("gonality.decompose.s_per_call", "s/call", "lower"),
    ("chains.partitions", "count", "higher"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.command.self_s", "s", "lower"),
    ("cli._emit.self_s", "s", "lower"),
    ("cli.bytes_out", "bytes", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


@dataclass
class Outcome:
    """One executed command: reference seconds, verdict, work units, output
    size, and the factor from its wall seconds to reference seconds."""

    seconds: float
    failure: str | None
    items: int
    bytes_out: int
    scale: float


def execute(command: workloads.Command, clock: speed.Speed) -> Outcome:
    """Run one argv through the CLI entry point and check its output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code, seconds, scale = clock.timed(k3gonal.cli.main, list(command.argv))
        except Exception:  # an escaped exception is a failed command, not a crash
            code, seconds, scale = None, 0.0, 1.0
            err.write(traceback.format_exc())
    text = out.getvalue()
    if code != 0:
        failure = f"exit {code}: {err.getvalue().strip()[-300:]}"
    else:
        failure = oracles.check(command.kind, command.params, text)
    return Outcome(seconds * scale, failure, command.items, len(text.encode("utf-8")), scale)


def _spawn() -> None:
    subprocess.run(
        [sys.executable, "-c", "import k3gonal.cli"], env=dict(os.environ, PYTHONPATH=str(SRC)),
        cwd=ROOT, capture_output=True, check=True, timeout=60,
    )


def setup_seconds(clock: speed.Speed) -> float:
    """Time for a fresh interpreter to start and import k3gonal.cli."""
    _, seconds, scale = clock.timed(_spawn)
    return seconds * scale


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the sample with exactly ten samples above it."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _failures(outcomes: list[Outcome]) -> list[str]:
    return [o.failure for o in outcomes if o.failure]


def measure(workload: str, seed: int, seconds: float) -> dict:
    """Untraced closed loop over the run's command list; end-to-end metrics."""
    if not tracer.untraced():
        raise RuntimeError("tracer wrappers are installed in an untraced run")
    clock = speed.Speed()
    commands = workloads.commands(workload, seed, workloads.rounds_for(workload, seconds))
    # set-up is timed at evenly spaced points of the run, after one unmeasured
    # spawn that compiles bytecode: an installed package pays that once
    _spawn()
    spawn_at = {i * len(commands) // SETUP_REPS for i in range(SETUP_REPS)}
    setup, outcomes = [], []
    for i, command in enumerate(commands):
        if i in spawn_at:
            setup.append(setup_seconds(clock))
        outcomes.append(execute(command, clock))
    busy = sum(o.seconds for o in outcomes)
    # a failed command counts as the slowest possible sample, never a fast one
    times = [busy if o.failure else o.seconds for o in outcomes]
    tail_value, tail_pct = tail(times)
    return {
        "metrics": {
            "setup_s": statistics.median(setup),
            "items_per_s": sum(o.items for o in outcomes if not o.failure) / busy,
            "cmd_p50_s": statistics.median(times),
            "cmd_tail_s": tail_value,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
        "attempted": len(outcomes),
        "failures": _failures(outcomes),
        "tail_pct": tail_pct,
        "busy_s": busy,
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def traced_run(commands: list, span_path: Path | None = None) -> dict:
    """The command list once untraced, then once traced; per-layer metrics."""
    if not tracer.untraced():
        raise RuntimeError("tracer wrappers are installed before the untraced pass")
    clock = speed.Speed()
    plain = [execute(c, clock) for c in commands]
    trace = tracer.Tracer()
    trace.install()
    traced = []
    try:
        for i, command in enumerate(commands):
            trace.command_id = i
            traced.append(execute(command, clock))
    finally:
        trace.uninstall()
    scales = [o.scale for o in traced]
    if span_path is not None:
        trace.write(span_path, commands, scales)
    totals = trace.totals(scales)
    scans = {i for i, c in enumerate(commands) if c.kind == "hilb scan"}
    scan_totals = trace.totals(scales, scans)
    scan_rows = sum(commands[i].items for i in scans)
    metrics = {}
    for name in _COUNTED:
        metrics[f"{name}.calls"], metrics[f"{name}.self_s"] = totals[name]
    decompose_calls, decompose_s = totals["gonality.decompose"]
    metrics.update({
        "pencil.random_pencil.calls": totals["pencil.random_pencil"][0],
        "pencil.sampling.accept_ratio": _ratio(
            totals["pencil.random_coprime_pencil"][0], totals["pencil.random_pencil"][0]),
        "hilbert.optimal_class.calls_per_row": _ratio(
            scan_totals["hilbert.optimal_class"][0], scan_rows),
        "gonality.decompose.calls_per_row": _ratio(
            scan_totals["gonality.decompose"][0], scan_rows),
        "gonality.decompose.s_per_call": _ratio(decompose_s, decompose_calls),
        "chains.partitions": sum(
            o.items for c, o in zip(commands, traced) if c.kind.startswith("chains")),
        "cli.main.self_s": totals["cli.main"][1],
        "cli.command.self_s": totals[tracer.COMMAND_SPAN][1],
        "cli._emit.self_s": totals["cli._emit"][1],
        "cli.bytes_out": sum(o.bytes_out for o in traced),
        "trace.overhead_s": sum(o.seconds for o in traced) - sum(o.seconds for o in plain),
    })
    return {
        "metrics": {name: metrics[name] for name, _, _ in PER_LAYER},
        "attempted": len(plain) + len(traced),
        "failures": _failures(plain) + _failures(traced),
        "commands": len(commands),
        "spans": len(trace.spans),
    }
