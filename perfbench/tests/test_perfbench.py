"""Tests of the benchmark itself: oracles, generators, tracer and entry point.

    python3 -m pytest perfbench/tests -q
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys

import pytest

import harness
import oracles
import tracer
import workloads
from conftest import BENCH
import k3gonal.cli
from k3gonal import chains


def _output(command: workloads.Command) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert k3gonal.cli.main(list(command.argv)) == 0
    return out.getvalue()


def _edit(field, change):
    """A corruption that rewrites one top-level JSON field."""

    def corrupt(text):
        payload = json.loads(text)
        payload[field] = change(payload[field])
        return json.dumps(payload, indent=2) + "\n"

    return corrupt


def _edit_first_row(field, change):
    def corrupt(text):
        payload = json.loads(text)
        payload["rows"][0][field] = change(payload["rows"][0][field])
        return json.dumps(payload, indent=2) + "\n"

    return corrupt


def _drop_partition(text):
    payload = json.loads(text)
    payload["partitions"].pop()
    payload["count"] -= 1
    return json.dumps(payload, indent=2) + "\n"


BIG = 10**6 + 3
CASES = [
    (workloads.pencil_command(3, 5), _edit("failures", lambda v: ["sample 0: injected"])),
    (workloads.pencil_command(3, 5), _edit("transversal", lambda v: 18)),
    (workloads.pencil_command(3, 5), lambda text: text.replace('"k": 3,', '"k":  3,')),
    (workloads._cmd("hilb scan", {"pmin": 2, "pmax": 40, "kmin": 2, "kmax": 3}, 0,
                    "--pmin", 2, "--pmax", 40, "--kmin", 2, "--kmax", 3),
     _edit_first_row("delta0", lambda v: v + 1)),
    (workloads._cmd("hilb scan", {"pmin": 2, "pmax": 40, "kmin": 2, "kmax": 3}, 0,
                    "--pmin", 2, "--pmax", 40, "--kmin", 2, "--kmax", 3),
     _edit_first_row("class", lambda v: v.replace("H -", "2*H -"))),
    (workloads._cmd("hilb qvalues", {"k": 3, "pmax": 100}, 0, "-k", 3, "--pmax", 100),
     _edit("qvalues", lambda v: v[1:])),
    (workloads._cmd("chains enumerate", {"p": 12, "k": 2}, 0, "-p", 12, "-k", 2),
     _drop_partition),
    (workloads._cmd("chains enumerate", {"p": 12, "k": 2}, 0, "-p", 12, "-k", 2),
     lambda text: text.replace('"count": ', '"count": 1', 1)),
    (workloads._cmd("chains witness", {"p": 12, "k": 2, "delta": 9}, 0,
                    "-p", 12, "-k", 2, "--delta", 9),
     _edit("parts", lambda v: [[1, 1]] + v)),
    (workloads._cmd("gonality delta0", {"p": BIG, "k": 3}, 0, "-p", BIG, "-k", 3),
     _edit("delta0", lambda v: v - 1)),
    (workloads._cmd("hilb cone", {"p": BIG, "k": 3}, 0, "-p", BIG, "-k", 3),
     _edit("optimal_class", lambda v: {"a": 1, "y": v["y"] + 1})),
    (workloads._cmd("hilb rays", {"p": BIG, "k": 3}, 0, "-p", BIG, "-k", 3),
     _edit("status", lambda v: "PROVEN_BM")),
    (workloads._cmd("hilb lagrangian", {"p": BIG, "k": 3}, 0, "-p", BIG, "-k", 3),
     _edit("has_isotropic", lambda v: not v)),
    (workloads._cmd("hilb lagrangian", {"p": 10, "k": 2}, 0, "-p", 10, "-k", 2),
     _edit("value", lambda v: v + 1)),
    (workloads._cmd("bn check", {"p": BIG, "k": 3, "delta": 500000}, 0,
                    "-p", BIG, "-k", 3, "--delta", 500000),
     _edit("satisfied", lambda v: not v)),
]


@pytest.mark.parametrize("command, corrupt", CASES,
                         ids=[" ".join(c.argv[2:]) for c, _ in CASES])
def test_oracle_accepts_output_and_rejects_corruption(command, corrupt):
    text = _output(command)
    assert oracles.check(command.kind, command.params, text) is None
    bad = corrupt(text)
    assert bad != text
    assert oracles.check(command.kind, command.params, bad) is not None


@pytest.mark.parametrize("k", [2, 3, 4])
def test_partition_dp_matches_enumeration(k):
    for p in range(1, 31):
        parts = chains.enumerate_partitions(p, k)
        by_g = [0] * (p + 1)
        for part in parts:
            by_g[part.g] += 1
        assert oracles.partition_counts(p, k) == tuple(by_g)
        if p >= 3:
            assert oracles.chain_delta0(p, k) == min(part.delta for part in parts)


def test_bisected_delta0_matches_the_closed_form():
    from k3gonal import gonality

    for k in (2, 3, 7):
        for p in list(range(2, 200)) + [10**9 + 7]:
            assert oracles.delta0(p, k) == gonality.delta0(p, k)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_argv_repeats_for_equal_seeds(workload):
    first = [c.argv for c in workloads.commands(workload, 7, 2)]
    again = [c.argv for c in workloads.commands(workload, 7, 2)]
    other = [c.argv for c in workloads.commands(workload, 8, 2)]
    assert first == again
    assert first != other


def test_generated_chains_stay_under_the_cap():
    for command in workloads.commands("chains", 0, 1):
        assert command.params["p"] <= chains.DEFAULT_MAX_P


def _calls(result):
    return {k: v for k, v in result["metrics"].items()
            if k.endswith((".calls", "calls_per_row", "partitions", "bytes_out"))}


def test_traced_counts_repeat_exactly():
    commands = workloads.commands("scan", 4, 1)
    first = harness.traced_run(commands)
    second = harness.traced_run(commands)
    assert not first["failures"] and not second["failures"]
    assert _calls(first) == _calls(second)
    assert first["metrics"]["hilbert.optimal_class.calls"] > 0
    assert tracer.untraced()


def test_traced_scan_counts_known_case():
    command = workloads._cmd("hilb scan", {"pmin": 2, "pmax": 300, "kmin": 2, "kmax": 6},
                             1495, "--pmax", 300, "--kmax", 6)
    metrics = harness.traced_run([command])["metrics"]
    assert metrics["hilbert.optimal_class.calls"] == 4531
    assert metrics["gonality.decompose.calls"] == 10428
    assert round(metrics["hilbert.optimal_class.calls_per_row"], 2) == 3.03


def test_self_time_excludes_children():
    trace = tracer.Tracer()
    trace.install()
    try:
        assert not tracer.untraced()
        with pytest.raises(RuntimeError):
            tracer.Tracer().install()
        _output(workloads._cmd("hilb cone", {"p": 10**9, "k": 2}, 0, "-p", 10**9, "-k", 2))
    finally:
        trace.uninstall()
    assert tracer.untraced()
    by_id = {span[0]: span for span in trace.spans}
    main_span = next(s for s in trace.spans if trace.names[s[2]] == "cli.main")
    children = [s for s in trace.spans if s[1] == main_span[0]]
    assert children
    covered = sum(s[5] - s[4] for s in children)
    total_self = trace.totals({-1: 1.0})["cli.main"][1]
    assert total_self == pytest.approx(main_span[5] - main_span[4] - covered)
    assert all(s[1] == -1 or s[1] in by_id for s in trace.spans)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(
        harness.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        harness.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_run_prints_the_contract_line():
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "scan", "--seed", "2",
         "--seconds", "0.1", "--trace", "0"],
        capture_output=True, text=True, check=True, timeout=170,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert [name for name, _, _ in harness.END_TO_END] == list(result["metrics"])


def test_run_refuses_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bigp", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
