import ast
import codecs
import contextlib
import csv
import errno
import fnmatch
import gc
import hashlib
import io
import itertools
import json
import os
import re
import shlex
import subprocess
import sys
import time
import types
import weakref
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from k3gonal import brillnoether, chains, cli, gonality, hilbert, pencil
from k3gonal.cli import main

import guards
import leaves


def rat_str(q):
    """A Fraction or int as the package prints it, by `hilbert._ratio_text`."""
    return hilbert._ratio_text(q.numerator, q.denominator)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_hilb_class_golden(capsys):
    code, out, _ = run(capsys, "hilb", "class", "-p", "8", "-k", "2", "--delta", "4")
    assert code == 0
    assert out.strip() == "H - 5*r_k"


def test_hilb_class_9_4(capsys):
    code, out, _ = run(capsys, "hilb", "class", "-p", "9", "-k", "4", "--delta", "2")
    assert code == 0
    assert out.strip() == "H - 10*r_k"


def test_delta0_verified(capsys):
    code, out, _ = run(capsys, "gonality", "delta0", "-p", "9", "-k", "4", "--verify")
    assert code == 0
    assert out.strip() == "2 (verified)"


def test_qvalues_csv(capsys):
    code, out, _ = run(
        capsys, "hilb", "qvalues", "-k", "3", "--pmax", "300", "--format", "csv"
    )
    assert code == 0
    assert out.splitlines() == ["q", "-3", "-9/4", "-2", "-1", "-1/4"]


def test_global_and_trailing_format_agree(capsys):
    _, out1, _ = run(capsys, "--format", "json", "hilb", "cone", "-p", "8", "-k", "2")
    _, out2, _ = run(capsys, "hilb", "cone", "-p", "8", "-k", "2", "--format", "json")
    assert out1 == out2
    assert json.loads(out1)["tau"] == "14/5"


def test_deterministic_output(capsys):
    args = ("hilb", "scan", "--pmax", "8", "--kmax", "3", "--format", "json")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_bn_rho(capsys):
    code, out, _ = run(capsys, "bn", "rho", "-g", "9", "-r", "1", "-d", "6")
    assert code == 0 and out.strip() == "1"


def test_gonality_dims(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "gonality", "dims", "-p", "8", "-k", "2",
        "--delta", "4",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["dim_Vk"] == 2 and payload["dim_W1k"] == 0


def test_bn_check_gonality_default(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "bn", "check", "-p", "9", "-k", "4", "--delta", "2"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["satisfied"] is True
    assert payload["r"] == 1 and payload["d"] == 4 and payload["alpha"] == 1


def test_bn_check_explicit_series(capsys):
    code, out, _ = run(
        capsys,
        "--format",
        "json",
        "bn",
        "check",
        "-p",
        "8",
        "--delta",
        "3",
        "-r",
        "1",
        "-d",
        "2",
    )
    assert code == 0
    assert json.loads(out)["satisfied"] is False


@pytest.mark.parametrize("extra", [("-d", "4"), ("-r", "1"), ("-d", "4", "-r", "1")])
def test_bn_check_k_agrees_with_explicit_series(capsys, extra):
    argv = ("--format", "json", "bn", "check", "-p", "9", "-k", "4", "--delta", "2")
    _, alone, _ = run(capsys, *argv)
    code, out, err = run(capsys, *argv, *extra)
    assert (code, err, out) == (0, "", alone)


def test_chains_witness_json(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "chains", "witness", "-p", "8", "-k", "2",
        "--delta", "5",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["delta"] == 5 and payload["parts"] == [[1, 2], [6, 1]]


def test_chains_enumerate(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "chains", "enumerate", "-p", "4", "-k", "2"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 4


def test_chains_stable(capsys):
    code, out, _ = run(
        capsys,
        "--format",
        "json",
        "chains",
        "stable",
        "-p",
        "8",
        "-k",
        "2",
        "--alpha",
        "1:2,2:1,4:1",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["stable_nodes"] == 4 and payload["arithmetic_genus"] == 4
    assert payload["e_points"] == 16


def test_unknown_command_exit_1(capsys):
    code, _, err = run(capsys, "bn", "nosuch")
    assert code == 1


def test_unknown_flag_exit_1(capsys):
    code, _, err = run(capsys, "bn", "rho", "--bogus", "1")
    assert code == 1


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["bn"],
        ["gonality", "delta0", "-p", "9", "-k", "4", "--ver"],
        ["--form", "json", "gonality", "delta0", "-p", "9", "-k", "4"],
        ["--format", "xml", "gonality", "delta0", "-p", "9", "-k", "4"],
        ["gonality", "delta0", "-p", "9", "-k", "4", "--format", "xml"],
        ["bn", "rho", "-g", "x", "-r", "1", "-d", "6"],
        ["bn", "rho", "-r", "1", "-d", "6"],
    ],
)
def test_usage_error_exit_1(capsys, argv):
    # a missing command or option, a prefix of a flag, a bad choice or int
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == "" and "Traceback" not in err


@pytest.mark.parametrize("argv", [["--help"], ["bn", "--help"], ["bn", "rho", "--help"]])
def test_help_exit_0(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "") and out.lower().startswith("usage:")


@pytest.mark.parametrize("where", ["global", "trailing", "trailing-after-global"])
def test_out_empty_exit_1(capsys, tmp_path, where):
    # refused before any work; a trailing empty --out does not fall back to
    # the global one, since the later one wins
    target = tmp_path / "result"
    argv = ["hilb", "q", "-p", "9", "-k", "4", "--delta", "2"]
    argv = {
        "global": ["--out", "", *argv],
        "trailing": [*argv, "--out", ""],
        "trailing-after-global": ["--out", str(target), *argv, "--out", ""],
    }[where]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == "" and "--out" in err
    assert not target.exists()


@pytest.mark.parametrize("encoding", ["ascii", "latin-1"])
def test_stdout_encoding(encoding):
    # table fractions (U+2044) are written as UTF-8 on a stdout set to ASCII;
    # an encoding without them is an error with exit 1, not a traceback
    proc = subprocess.run(
        [sys.executable, "-m", "k3gonal", "hilb", "q", "-p", "9", "-k", "4", "--delta", "2"],
        capture_output=True,
        env=dict(os.environ, PYTHONIOENCODING=encoding),
    )
    if encoding == "ascii":
        assert (proc.returncode, proc.stdout) == (0, "-2⁄3\n".encode("utf-8"))
    else:
        assert proc.returncode == 1 and proc.stdout == b""
        assert proc.stderr.startswith(b"error:") and b"Traceback" not in proc.stderr


@pytest.mark.parametrize("encoding", ["latin-1", "cp1252"])
def test_stdout_encoding_error_names_the_encoding(encoding):
    proc = subprocess.run(
        [sys.executable, "-m", "k3gonal", "hilb", "cone", "-p", "8", "-k", "2"],
        capture_output=True,
        env=dict(os.environ, PYTHONIOENCODING=encoding),
    )
    assert (proc.returncode, proc.stdout) == (1, b"")
    named = re.fullmatch(
        r"error: stdout encoding (\S+) cannot write U\+2044; use --format json "
        r"or csv, or set PYTHONIOENCODING=utf-8\n",
        proc.stderr.decode("ascii"),
    )
    # the stream may report the codec under another of its names
    assert named and codecs.lookup(named[1]).name == codecs.lookup(encoding).name


_LONG_OUTPUTS = {
    # 0.3 MB of table or CSV or 1.9 MB of json, rendered in chunks
    "chains": ["chains", "enumerate", "-p", "40", "-k", "2"],
    # 115 KB of table, 96 KB of CSV or 161 KB of json rows, each more than a
    # pipe buffer holds
    "qvalues": ["hilb", "qvalues", "-k", "400", "--pmax", "1" + "0" * 40],
    # 98 KB of json from one payload dict, written in batches of lines
    "witness": ["chains", "witness", "-p", "100000000", "-k", "2", "--delta", "99994000"],
}


@pytest.mark.parametrize("command, encoding, fmt", [
    # the chains json cases are named by the encoding alone
    *(pytest.param("chains", encoding, fmt,
                   id=encoding if fmt == "json" else f"{encoding}-{fmt}")
      for fmt in cli.FORMATS for encoding in ("utf-8", "ascii")),
    *(pytest.param("qvalues", "utf-8", fmt, id=f"qvalues-{fmt}") for fmt in cli.FORMATS),
    pytest.param("witness", "utf-8", "json", id="witness-json"),
])
def test_closed_stdout_pipe_is_an_error_not_a_traceback(command, encoding, fmt):
    # `| head -c 10`: the reader takes 10 bytes and closes the pipe; the
    # output goes out in several batches and cannot all fit in the pipe's
    # buffer, so a later write fails; on an ASCII stdout it goes to the buffer
    proc = subprocess.Popen(
        [sys.executable, "-m", "k3gonal", "--format", fmt, *_LONG_OUTPUTS[command]],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONIOENCODING=encoding),
    )
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b"error: stdout was closed before the output was complete\n"


_SHORT_OUTPUTS = {
    "bn": ["bn", "rho", "-g", "9", "-r", "1", "-d", "6"],
    "chains": ["chains", "enumerate", "-p", "30", "-k", "2"],
    "scan": ["hilb", "scan", "--pmax", "300", "--kmax", "6"],
}


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
@pytest.mark.parametrize("fmt", cli.FORMATS)
@pytest.mark.parametrize("command", sorted(_SHORT_OUTPUTS))
def test_refused_stdout_write_is_an_error_not_a_traceback(command, fmt):
    # /dev/full refuses every write with ENOSPC, as a full disk does: exit 1
    # and one error line that names the cause, as for a closed pipe
    with open("/dev/full", "wb") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "k3gonal", "--format", fmt, *_SHORT_OUTPUTS[command]],
            stdout=full,
            stderr=subprocess.PIPE,
        )
    assert proc.returncode == 1
    assert proc.stderr == f"error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n".encode()


def test_commands_import_no_argparse_or_csv():
    # a fresh interpreter, without `site`, imports the command line and runs
    # every pinned case of leaves.py: table and json load none of argparse,
    # csv, the gettext that argparse imports and click; the cases in csv then
    # load no module at all, the row leaves' and the single-case ones', whose
    # two lines are written cell by cell with no csv writer; help and a usage
    # error still build the tree, and so load argparse.  No dict, list or set held by a k3gonal module global
    # changes its length over all those cases
    src = str(Path(cli.__file__).parents[1])
    script = (
        "import contextlib, io, json, os, sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "heavy = ('argparse', 'csv', 'gettext', 'click')\n"
        "loaded = lambda: [m for m in heavy if m in sys.modules]\n"
        "import k3gonal.cli\n"
        "def sizes():\n"
        "    return {f'{name}.{key}': len(value)\n"
        "            for name, module in list(sys.modules.items()) if name.startswith('k3gonal.')\n"
        "            for key, value in vars(module).items()\n"
        "            if type(value) in (dict, list, set)}\n"
        "start = sizes()\n"
        "def run(fmt, argvs):\n"
        "    for argv in argvs:\n"
        "        code = k3gonal.cli.main(['--format', fmt, *argv.split(), '--out', os.devnull])\n"
        "        assert code == 0, (argv, fmt)\n"
        f"run('table', {leaves.argvs()!r})\n"
        f"run('json', {leaves.argvs()!r})\n"
        "ran = loaded()\n"
        "before = set(sys.modules)\n"
        f"run('csv', {leaves.argvs(lambda leaf: leaf.kind == leaves.ROW)!r})\n"
        "rows = sorted(set(sys.modules) - before)\n"
        f"run('csv', {leaves.argvs(lambda leaf: leaf.kind == leaves.SINGLE)!r})\n"
        "added = sorted(set(sys.modules) - before)\n"
        "end = sizes()\n"
        "grown = sorted(f'{key}: {start.get(key)} -> {size}' for key, size in end.items()\n"
        "               if start.get(key) != size)\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    codes = [k3gonal.cli.main(['--help']), k3gonal.cli.main(['bn', 'nosuch'])]\n"
        "print(json.dumps([ran, rows, added, codes, loaded(), grown]))\n"
    )
    run = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True,
                         check=True)
    ran, rows, added, codes, tree, grown = json.loads(run.stdout.splitlines()[-1])
    assert grown == []
    assert ran == [] and rows == [] and added == []
    assert codes == [0, 1] and "argparse" in tree


def test_out_file(capsys, tmp_path):
    target = tmp_path / "result.json"
    code, out, _ = run(
        capsys,
        "--format",
        "json",
        "--out",
        str(target),
        "hilb",
        "q",
        "-p",
        "9",
        "-k",
        "4",
        "--delta",
        "2",
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text(encoding="utf-8"))["q"] == "-2/3"


def test_pencil_verify_small(capsys):
    code, out, _ = run(
        capsys,
        "--format",
        "json",
        "pencil",
        "verify",
        "-k",
        "2",
        "--samples",
        "10",
        "--seed",
        "5",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["seed"] == 5 and payload["failures"] == []


def test_pencil_verify_low_transversality_exits_2(capsys):
    # seed 52 draws one non-transversal pencil among ten: 9/10 is under the
    # 95% gate, and no identity fails
    for fmt in FORMATS:
        code, out, err = run(capsys, "--format", fmt, "pencil", "verify",
                             "-k", "2", "--samples", "10", "--seed", "52")
        assert (code, out) == (2, "")
        assert err == "invariant violation: transversality rate 9/10 below 95% at k=2, seed=52\n"


def test_pencil_verify_identity_failures_exit_2(capsys, monkeypatch):
    # a wrong wedge curve that only the membership oracle sees, in every
    # sample; the message names the first five failures
    monkeypatch.setattr(pencil, "wedge_curve", guards.membership_breaking_wedge)
    first = "; ".join(f"sample {i}: membership oracle at x1^0 y1^3" for i in range(5))
    for fmt in FORMATS:
        code, out, err = run(capsys, "--format", fmt, "pencil", "verify", "-k", "3",
                             "--samples", "20")
        assert (code, out) == (2, "")
        assert err == f"invariant violation: {first} (+15 more)\n"


# SHA-256 of `--format json pencil verify -k K --samples 20 --seed 0` at every
# degree up to PENCIL_MAX_K.  Those for k <= 8 were recorded from the Fraction
# implementation: the integer core must reproduce the rng stream, the failure
# lists and the transversal counts byte for byte.  Those above reach past the
# range of perfbench/golden_pencil.json
PENCIL_SHA256 = {
    2: "1b0a1bf33bbe77ddd947f47b45287cf3e0da4095c428c6327a7316f44f2594bd",
    3: "84718b5d3b2e3686cb4e84e37b4654c4d0329c98e60f2d2f8f47d0bd0c93655e",
    4: "f5396b2475921b06e7eba41684aad48016269518b7ba7a007ff1f026343cf7b1",
    5: "8c13cc4cd94332b2051f0710c3812b83014e7cc97796c92633bc6dce40f747a9",
    6: "ac62e0aea8b27c34be2c0f1882bac14a9079113534bb4ef8e6f4f80dc017dc24",
    7: "f8d545ff7a3327e4cec84343db9ae83d767532c727252add669bcba4eeeb7703",
    8: "3c3ee738edfc097ccdc0378e7617fd6a6fe2c2b94109bed63f7febe47523fa19",
    9: "14da5db45168565cd664dfe15030a9ab7fc5c16d2238536ef1de19c65955e093",
    10: "1dd5dfdfd0631b95a0708f049b12bfa1bbb1c22fbcfc110a9679e68d2443d9c4",
    11: "7269003c157dc787b10dfea52445161faa0a33a463080451a3e73a6e83eef701",
    12: "77283df6dbac2c6f3e3c9882bc8234408899e9b7e7a4917dfb6bb4b699bd6475",
    13: "510f9f429e1656c907af1826af6813cbd1c2444f6ad70b38b0e86d495aa72919",
    14: "f0d82b450bab7917f4b4ecae4967cb98357196ab114ce0bc0d0772c9527a3f60",
    15: "9c6c03188b2cd559999479a421543281d31bc34bf17cc66bbfe79ee27580a62e",
    16: "acad3c81a7f597bfb4d94782151e44ac2e7eee377c39cb5ad8b46322701bcd04",
}


def test_pencil_pins_reach_the_degree_limit():
    assert max(PENCIL_SHA256) == pencil.PENCIL_MAX_K


@pytest.mark.parametrize("k", sorted(PENCIL_SHA256))
def test_pencil_verify_bytes_pinned(capsys, k):
    code, out, err = run(capsys, "--format", "json", "pencil", "verify",
                         "-k", str(k), "--samples", "20", "--seed", "0")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == PENCIL_SHA256[k]


# SHA-256 of `--format json pencil verify -k K --samples 200 --seed 3` past the
# k <= 8 of the recorded golden cases, up to PENCIL_MAX_K
PENCIL_VERIFY_LARGE_K_SHA256 = {
    9: "17d97959416fdc9fe6272b0d7a1a565c2a0e7d8b741253faa23d263dd526c39f",
    12: "f0c8e9bdcac7adeea173359c4a6e24cd558bb2866cb9a397f5702383fc20e014",
    16: "43ca8d76c0b74de3e7347cb05534b4fb22b9dd19b874edf6577f9f942af3ca9e",
}


@pytest.mark.parametrize("k", sorted(PENCIL_VERIFY_LARGE_K_SHA256))
def test_pencil_verify_bytes_pinned_at_large_k(capsys, k):
    code, out, _ = run(
        capsys, "--format", "json", "pencil", "verify", "-k", str(k),
        "--samples", "200", "--seed", "3",
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PENCIL_VERIFY_LARGE_K_SHA256[k]


def test_lagrangian_cli(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "hilb", "lagrangian", "-p", "10", "-k", "2"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["necessary_condition_holds"] is True and payload["n"] == 3


def test_module_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "k3gonal", "hilb", "class", "-p", "8", "-k", "2",
         "--delta", "4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "H - 5*r_k"


def test_table_unicode_fraction(capsys):
    code, out, _ = run(capsys, "hilb", "q", "-p", "9", "-k", "4", "--delta", "2")
    assert code == 0
    assert out.strip() == "-2⁄3"


@pytest.mark.parametrize("k", [2, 10**6])
def test_closed_forms_at_extreme_p(capsys, k):
    p = 10**40 + 1
    pk = ("-p", str(p), "-k", str(k))
    code, out, _ = run(capsys, "--format", "json", "gonality", "delta0", *pk)
    assert code == 0
    d0 = json.loads(out)["delta0"]
    assert gonality.admissible(p, k, d0) and not gonality.admissible(p, k, d0 - 1)
    y = p - d0 + k - 1
    tau = Fraction(2 * (p - 1), y)
    q = 2 * (p - 1) - Fraction(y * y, 2 * (k - 1))
    code, out, _ = run(capsys, "--format", "json", "hilb", "cone", *pk)
    assert code == 0
    cone = json.loads(out)
    assert cone["delta0"] == d0
    assert cone["optimal_class"] == {"a": 1, "y": y}
    assert cone["tau"] == rat_str(tau) and cone["q_optimal"] == rat_str(q)
    code, out, _ = run(capsys, "--format", "json", "hilb", "rays", *pk)
    assert code == 0
    rays = json.loads(out)
    assert rays["rays"] == [{"a": 0, "y": -1}, {"a": 1, "y": y}]
    assert rays["q"] == rat_str(q)
    if k == 2:
        # p = n^2 + 1 with n = 10^20: the primitive isotropic family
        assert (y, tau, q) == (2 * 10**20, 10**20, 0)
        assert rays["status"] == "PROVEN_ISOPRIM"


def test_qvalues_at_extreme_pmax(capsys):
    # every spectrum with k <= 15 is complete by p = 290
    start = time.perf_counter()
    for k in range(2, 16):
        outputs = {}
        for pmax in (3000, 10**40):
            for fmt in ("json", "table"):
                code, out, err = run(
                    capsys, "--format", fmt, "hilb", "qvalues", "-k", str(k), "--pmax", str(pmax)
                )
                assert (code, err) == (0, ""), (k, pmax, fmt)
                outputs[pmax, fmt] = out
        assert json.loads(outputs[10**40, "json"])["pmax"] == 10**40
        assert (
            json.loads(outputs[10**40, "json"])["qvalues"]
            == json.loads(outputs[3000, "json"])["qvalues"]
        ), k
        assert outputs[10**40, "table"] == outputs[3000, "table"], k
    assert time.perf_counter() - start < 2.0
    # the delta0 = 0 regime alone holds pmax - 1 candidates while pmax < 2(k-1)
    code, out, err = run(capsys, "--format", "json", "hilb", "qvalues", "-k", "1000000", "--pmax", "400")
    assert (code, err) == (0, "") and len(json.loads(out)["qvalues"]) == 399


LEAF_CASES = leaves.argvs()
FORMATS = ["table", "json", "csv"]


def test_every_leaf_has_one_record():
    # walks the command table: a group holds `commands`, a leaf a `callback`
    found, nodes = [], [((), cli.cli)]
    while nodes:
        path, node = nodes.pop()
        if hasattr(node, "commands"):
            nodes += [((*path, name), child) for name, child in node.commands.items()]
        else:
            assert callable(node.callback)
            found.append(" ".join(path))
    assert sorted(found) == sorted(leaves.LEAVES)
    assert sorted(" ".join(path) for path in cli._LEAVES) == sorted(leaves.LEAVES)
    assert len(leaves.CASES) == sum(len(leaf.cases) for leaf in leaves.LEAVES.values())
    for path, leaf in leaves.LEAVES.items():
        assert leaf.cases, path
        # each case and limit runs its own leaf, and a leaf of kind SINGLE,
        # and no other, builds a payload dict
        for limit in leaf.limits.values():
            assert limit.past.startswith(path + " "), limit.past
            assert limit.case in [case.argv for case in leaf.cases], limit.case
        for case in leaf.cases:
            assert case.argv.startswith(path + " "), case.argv
            args = cli._parse(case.argv.split())
            del args["fmt"], args["out"]
            payload = args.pop("leaf").callback(**args)[0]
            assert isinstance(payload, dict) == (leaf.kind == leaves.SINGLE), case.argv
    for name, record in [*guards.FAULTS.items(), *guards.REFUSALS.items()]:
        for argv in record.argvs:
            assert " ".join(argv.split()[:2]) in leaves.LEAVES, name


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("command", LEAF_CASES)
def test_leaf_bytes_pinned(capsys, command, fmt):
    code, out, err = run(capsys, "--format", fmt, *command.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == leaves.SHA256[command, fmt]


# the closed forms and checks whose calls are budgeted, keyed by the code they
# run, so a call counts under whatever name the function is bound to
_BUDGETED = {function.__code__: name for name, function in [
    ("decompose", gonality.decompose),
    ("delta0", gonality.delta0),
    ("optimal_class", hilbert.optimal_class),
    ("GonalityCase", gonality.GonalityCase.__init__),
    ("necessary_condition", brillnoether.necessary_condition),
    ("q_case", hilbert.q_case),
    ("minimal_q_family", hilbert.minimal_q_family),
    ("lagrangian_report", hilbert.lagrangian_report),
    ("wedge_curve", pencil.wedge_curve),
    ("_gcd_degree", pencil._gcd_degree),
]}


def _budgeted_calls(capsys, argv):
    """The calls of each budgeted function that `main(argv)` makes, counted
    with `sys.setprofile`; a function not called is left out."""
    counts = {}

    def profile(frame, event, arg):
        name = _BUDGETED.get(frame.f_code) if event == "call" else None
        if name is not None:
            counts[name] = counts.get(name, 0) + 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        code = main(argv)
    finally:
        sys.setprofile(previous)
    assert (code, capsys.readouterr().err) == (0, "")
    return counts


@pytest.mark.parametrize("command", LEAF_CASES)
def test_leaf_call_budgets(capsys, command):
    argv, budget = command.split(), leaves.CASES[command].budget
    for fmt in FORMATS:
        assert _budgeted_calls(capsys, ["--format", fmt, *argv]) == budget, fmt


# the magnitudes of p and k that each grid of leaves.py runs over, and how far
# apart a leaf's line-event counts may be across them: a branch taken at some
# (p, k) alone, such as an isotropic class, moves a count by a few lines
_GRID_PS = (10**12 + 1, 10**20 + 1, 10**40 + 1)
_GRID_KS = (3, 10, 10**3, 10**6)
_GRID_BAND = 8
_GRIDS = {path: leaf.grid for path, leaf in leaves.LEAVES.items() if leaf.grid is not None}


def _line_events(capsys, argv):
    """The `sys.settrace` line events of `main(argv)`, the tracer in place
    before it restored after.  The cyclic collector is paused meanwhile, as
    a collection would count the lines of `gc.callbacks`, such as the one
    hypothesis registers."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        count += event == "line"
        return local

    previous, collecting = sys.gettrace(), gc.isenabled()
    gc.disable()
    sys.settrace(lambda frame, event, arg: local)
    try:
        code = main(argv)
    finally:
        sys.settrace(previous)
        if collecting:
            gc.enable()
    assert (code, capsys.readouterr().err) == (0, ""), argv
    return count


def _grid_counts(capsys, grid):
    """The line events of a second run of the grid's argv at each (p, k),
    after a warm-up run of the same argv."""
    counts = []
    for p, k in itertools.product(_GRID_PS, _GRID_KS):
        argv = grid.format(p=p, k=k, d=p - 1).split()
        _line_events(capsys, argv)
        counts.append(_line_events(capsys, argv))
    return counts


def test_every_single_case_leaf_has_a_grid():
    # pencil verify's work grows with k and its samples by design, bounded
    # by PENCIL_MAX_K and PENCIL_MAX_SAMPLES; every other single-case leaf
    # does work that does not grow with p or k
    for path, leaf in leaves.LEAVES.items():
        single = leaf.kind == leaves.SINGLE and path != "pencil verify"
        assert (leaf.grid is not None) == single, path
        assert leaf.grid is None or leaf.grid.startswith(path + " "), leaf.grid


@pytest.mark.parametrize("path", sorted(_GRIDS))
def test_single_case_work_does_not_grow_with_p_or_k(capsys, path):
    counts = _grid_counts(capsys, _GRIDS[path])
    assert max(counts) - min(counts) <= _GRID_BAND, counts


def test_grid_catches_a_loop_over_the_bits_of_p(capsys, monkeypatch):
    delta0 = gonality.delta0

    def slow(p, k):
        for _ in range(p.bit_length()):
            pass
        return delta0(p, k)

    monkeypatch.setattr(gonality, "delta0", slow)
    counts = _grid_counts(capsys, _GRIDS["gonality delta0"])
    assert max(counts) - min(counts) > _GRID_BAND, counts


@pytest.mark.parametrize("command", LEAF_CASES)
def test_well_formed_commands_need_no_argparse(capsys, monkeypatch, tmp_path, command):
    # every pinned command, with leading, trailing and repeated --format and
    # --out, the later copy winning, is read from the command table alone: a
    # fast path that declined one would still give the right bytes, only
    # through the tree
    def refuse():
        raise AssertionError("the tree was built")

    monkeypatch.setattr(cli, "_tree", refuse)
    argv = command.split()
    target, unused = tmp_path / "result", str(tmp_path / "unused")
    for fmt in FORMATS:
        other = "json" if fmt == "table" else "table"
        for flags in (
            ["--format", fmt, *argv],
            [*argv, "--format", fmt],
            ["--format", other, "--format", fmt, *argv],
            ["--format", other, *argv, "--format", fmt],
            ["--format", other, *argv, "--format", other, "--format", fmt],
            ["--format", fmt, "--out", str(target), *argv],
            [*argv, "--format", fmt, "--out", str(target)],
            ["--out", unused, "--format", fmt, "--out", str(target), *argv],
            ["--out", unused, *argv, "--format", fmt, "--out", str(target)],
            ["--out", unused, *argv, "--out", unused, "--format", fmt, "--out", str(target)],
        ):
            code, text, err = run(capsys, *flags)
            assert (code, err) == (0, "")
            data = text.encode()
            if "--out" in flags:
                assert text == ""
                data = target.read_bytes()
                target.unlink()
            assert hashlib.sha256(data).hexdigest() == leaves.SHA256[command, fmt]
    assert not os.path.exists(unused)


_OUT = "result"
_ARG_PIECES = [
    *([name] for name in sorted({n for leaf in leaves.LEAVES for n in leaf.split()})),
    *(["--format", fmt] for fmt in (*FORMATS, "xml")),
    ["--format=json"], ["--format"],
    ["--out", _OUT], ["--out", ""], ["--out", "-"], [f"--out={_OUT}"], ["--out"],
    ["--"], ["--help"], ["-p9"], ["-k=3"], ["-5"], ["--ver"], ["--bogus"],
    # the edges of what the command table reads: dashed, underscored,
    # non-ASCII, padded and empty values, repeated flags, a dashed --alpha
    ["-p"], ["-p", "9"], ["-p", "-5"], ["-5_0"], ["5_0"], ["٣"], ["-٣"], [" 7"], [""],
    ["--verify"], ["--alpha", "-12"], ["--alpha", "-1:2"],
]
_PIECE_LISTS = st.lists(st.sampled_from(_ARG_PIECES), max_size=3).map(
    lambda pieces: [arg for piece in pieces for arg in piece]
)
_ARGVS = st.builds(
    lambda head, command, tail: [*head, *command, *tail],
    _PIECE_LISTS,
    st.sampled_from(LEAF_CASES).map(str.split) | _PIECE_LISTS,
    _PIECE_LISTS,
)
_CONE = ["hilb", "cone", "-p", "8", "-k", "2"]


def _tree_parse(argv):
    return vars(cli._tree().parse_args(argv))


@given(argv=_ARGVS)
# read from the command table: root flags, repeated root, trailing and leaf
# flags, a plain negative number, and values that int() reads
@example(argv=["--format", "csv", "--out", _OUT, "--format", "json", *_CONE, "--format", "table"])
@example(argv=["--out", "hilb", *_CONE])
@example(argv=["--out", "-5", *_CONE])
@example(argv=["hilb", "cone", "-p", "8", "-p", "9", "-k", "2"])
@example(argv=["gonality", "delta0", "-p", "9", "-k", "4", "--verify", "--verify"])
@example(argv=[*_CONE, "-p", "-5"])
@example(argv=[*_CONE, "-p", "5_0"])
@example(argv=[*_CONE, "-p", "٣"])
@example(argv=[*_CONE, "-p", " 7"])
@example(argv=["chains", "stable", "-p", "8", "-k", "2", "--alpha", "-12"])
# through the tree: a joined flag and value, a value that is empty, no int,
# or dashed and no plain negative number, a missing required option, and a
# flag whose value is missing at the end of argv
@example(argv=[*_CONE, "-p9", "-k=3", f"--out={_OUT}"])
@example(argv=[*_CONE, "-p", ""])
@example(argv=[*_CONE, "-p", "-5_0"])
@example(argv=[*_CONE, "-p", "-٣"])
@example(argv=["chains", "stable", "-p", "8", "-k", "2", "--alpha", "-1:2"])
@example(argv=["hilb", "cone", "-p", "8"])
@example(argv=["hilb", "cone", "-p", "8", "-k"])
# through the tree: a leftover argument, an unknown or partial path
@example(argv=[*_CONE, "--bogus"])
@example(argv=["gonality", "delta0", "-p", "9", "-k", "4", "--ver"])
@example(argv=["bn", "nosuch"])
@example(argv=["--format", "json", "hilb"])
@example(argv=[])
# through the tree: a root flag in one token, or a root value that is no
# format, is empty, is a dash or a flag, or is missing
@example(argv=["--format=json", *_CONE])
@example(argv=[f"--out={_OUT}", *_CONE])
@example(argv=["--format", "xml", *_CONE])
@example(argv=["--out", "", *_CONE])
@example(argv=["--out", "-", *_CONE])
@example(argv=["--out", "--help", *_CONE])
@example(argv=["--format", *_CONE])
# through the tree: help at the root or a group, and `--`
@example(argv=["--help"])
@example(argv=["--format", "json", "hilb", "--help"])
@example(argv=["hilb", "cone", "--", "-p", "8", "-k", "2"])
@example(argv=["--", *_CONE])
@settings(max_examples=300, deadline=None)
def test_main_matches_the_whole_tree(tmp_path_factory, argv):
    # each command gives the exit code, output, messages and files that it
    # gives when the whole tree parses it; it runs in a directory of its own,
    # where any --out file, such as "result" or "hilb", is written
    where = tmp_path_factory.mktemp("out")

    def outcome():
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        files = {}
        for path in where.iterdir():
            files[path.name] = path.read_bytes()
            path.unlink()
        return code, stdout.getvalue(), stderr.getvalue(), files

    cwd = os.getcwd()
    os.chdir(where)
    try:
        got = outcome()
        with mock.patch.object(cli, "_parse", _tree_parse):
            assert outcome() == got
    finally:
        os.chdir(cwd)


def test_main_reads_sys_argv(capsys, monkeypatch):
    # with no argv, both a command the leaf parses and one the tree parses
    # come from sys.argv
    monkeypatch.setattr(sys, "argv", ["k3gonal", "--format", "json", *_CONE])
    assert main() == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == leaves.SHA256["hilb cone -p 8 -k 2", "json"]
    monkeypatch.setattr(sys, "argv", ["k3gonal", "hilb", "--help"])
    assert main() == 0
    assert capsys.readouterr().out.startswith("usage: k3gonal hilb")


@pytest.mark.parametrize("fmt", FORMATS)
def test_chains_enumerate_renders_only_its_format(capsys, monkeypatch, fmt):
    # each format reads the lines of its own pair template alone: a
    # generator's body runs only when its lines are read
    pair_templates = {"table": "%d:%d", "csv": "[%d, %d]",
                      "json": cli._ints_template(2, cli._ROW_KEY + "  ")}
    read, partition_lines = [], cli._partition_lines

    def spy(parts, row, pair, sep):
        read.append(pair)
        yield from partition_lines(parts, row, pair, sep)

    monkeypatch.setattr(cli, "_partition_lines", spy)
    code, out, _ = run(capsys, "--format", fmt, "chains", "enumerate", "-p", "6", "-k", "2")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == leaves.SHA256["chains enumerate -p 6 -k 2", fmt]
    assert read == [pair_templates[fmt]]


ENUMERATE_CASES = [
    *((p, k) for k in range(2, 6) for p in range(1, 31)),
    (40, 2),
    (61, 2),
]


@pytest.mark.parametrize("p,k", ENUMERATE_CASES)
def test_chains_enumerate_bytes_match_payload_rendering(capsys, monkeypatch, tmp_path, p, k):
    # the streamed json equals json.dumps of the payload dict built from
    # to_payload(), and the csv the rows built from those dicts
    monkeypatch.setattr(chains, "DEFAULT_MAX_P", 61)
    payloads = [part.to_payload() for part in chains.enumerate_partitions(p, k)]
    payload = {"p": p, "k": k, "count": len(payloads), "partitions": payloads}
    expected = json.dumps(payload, indent=2) + "\n"
    argv = ["chains", "enumerate", "-p", str(p), "-k", str(k)]
    assert run(capsys, "--format", "json", *argv) == (0, expected, "")
    target = tmp_path / "partitions.json"
    assert run(capsys, "--format", "json", "--out", str(target), *argv) == (0, "", "")
    assert target.read_bytes() == expected.encode()
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(
        [["delta", "g", "parts"], *([d["delta"], d["g"], json.dumps(d["parts"])] for d in payloads)]
    )
    assert run(capsys, "--format", "csv", *argv) == (0, buf.getvalue(), "")
    table = "".join(
        f"p={d['p']} k={d['k']} delta={d['delta']} g={d['g']} "
        f"parts[{', '.join(f'{j}:{a}' for j, a in d['parts'])}]\n"
        for d in payloads
    )
    assert run(capsys, "--format", "table", *argv) == (0, table, "")


def _scan_reference_rows(pmin, pmax, kmin, kmax):
    """The rows of `hilb scan` as dicts, each value computed on its own."""
    rows = []
    for k in range(kmin, kmax + 1):
        for p in range(pmin, pmax + 1):
            d0 = gonality.delta0(p, k)
            opt = hilbert.optimal_class(p, k)
            lag = hilbert.lagrangian_report(p, k)
            rows.append({
                "p": p,
                "k": k,
                "delta0": d0,
                "g": p - d0,
                "class": opt.display(),
                "q": rat_str(opt.q),
                "tau": rat_str(hilbert.tau(p, k)),
                "cone_status": hilbert.extremal_ray_status(p, k).status,
                "isotropic": lag.has_isotropic,
                "lagrangian_ok": lag.necessary_condition_holds,
                "primitive": lag.primitive,
            })
    return rows


@pytest.mark.parametrize("bounds", [(2, 12, 2, 3), (5, 60, 3, 5)])
def test_scan_bytes_match_row_dict_rendering(capsys, tmp_path, bounds):
    # the streamed json equals json.dumps of the payload with one dict per
    # row, the csv csv.writer on those dicts, and the table their tab-joined
    # lines; each grid holds every cone status and flag value
    pmin, pmax, kmin, kmax = bounds
    rows = _scan_reference_rows(*bounds)
    assert {row["cone_status"] for row in rows} == {
        "PROVEN_BM", "PROVEN_MINQ", "PROVEN_ISOPRIM", "OPEN"}
    assert {row["isotropic"] for row in rows} == {True, False}
    assert {row["lagrangian_ok"] for row in rows} == {None, True, False}
    for name in ("q", "tau"):
        assert {"/" in row[name] for row in rows} == {True, False}
    payload = {"pmin": pmin, "pmax": pmax, "kmin": kmin, "kmax": kmax, "rows": rows}
    grid = [list(rows[0]), *(row.values() for row in rows)]
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(grid)
    expected = {
        "json": json.dumps(payload, indent=2) + "\n",
        "csv": buf.getvalue(),
        "table": "".join("\t".join(map(str, line)) + "\n" for line in grid),
    }
    argv = ["hilb", "scan", "--pmin", str(pmin), "--pmax", str(pmax),
            "--kmin", str(kmin), "--kmax", str(kmax)]
    for fmt, text in expected.items():
        assert run(capsys, "--format", fmt, *argv) == (0, text, "")
    target = tmp_path / "scan.json"
    assert run(capsys, "--format", "json", "--out", str(target), *argv) == (0, "", "")
    assert target.read_bytes() == expected["json"].encode()


def test_qvalues_bytes_match_reference_rendering(capsys):
    # 9,351 values, more than nine batches of _emit: the json equals
    # json.dumps of the payload dict, the csv csv.writer on the values, the
    # table each value with a unicode fraction slash
    k, pmax = 400, 10**40
    values = hilbert.attained_q_values(k, pmax)
    assert len(values) == 9351 > 9 * cli._EMIT_BATCH
    texts = [f"{v.numerator}/{v.denominator}" if v.denominator > 1 else str(v.numerator)
             for v in values]
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([["q"], *([q] for q in texts)])
    expected = {
        "json": json.dumps({"k": k, "pmax": pmax, "qvalues": texts}, indent=2) + "\n",
        "csv": buf.getvalue(),
        "table": "".join(q.replace("/", "\u2044") + "\n" for q in texts),
    }
    for fmt, text in expected.items():
        assert run(capsys, "--format", fmt, "hilb", "qvalues", "-k", str(k),
                   "--pmax", str(pmax)) == (0, text, "")


@pytest.mark.parametrize("fmt", ["table", "csv"])
@pytest.mark.parametrize("command", leaves.argvs(lambda leaf: leaf.kind == leaves.ROW))
def test_row_commands_render_no_json(capsys, monkeypatch, command, fmt):
    def refuse(*args):
        raise AssertionError("json rendered for --format " + fmt)

    monkeypatch.setattr(cli, "_json_text", refuse)
    code, out, err = run(capsys, "--format", fmt, *command.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == leaves.SHA256[command, fmt]


class _CountingStdout(io.StringIO):
    """A stdout that keeps each text written to it and counts its flushes."""

    def __init__(self):
        super().__init__()
        self.writes = []
        self.flushes = 0

    def write(self, text):
        self.writes.append(text)
        return super().write(text)

    def flush(self):
        self.flushes += 1


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("command", leaves.argvs(lambda leaf: leaf.kind == leaves.SINGLE))
def test_single_case_commands_render_only_the_selected_format(monkeypatch, command, fmt):
    # json and csv never call the leaf's table function, table never renders
    # json, and the one text is written with one write and one flush
    group, name = command.split()[:2]
    leaf = cli.cli.commands[group].commands[name]
    callback = leaf.callback

    def refuse(*args):
        raise AssertionError(f"other rendering built for --format {fmt}")

    def wrapped(**args):
        payload, table = callback(**args)
        assert callable(table)
        return payload, table if fmt == "table" else refuse

    monkeypatch.setattr(leaf, "callback", wrapped)
    if fmt == "table":
        monkeypatch.setattr(cli, "_json_text", refuse)
    out = _CountingStdout()
    with contextlib.redirect_stdout(out):
        assert main(["--format", fmt, *command.split()]) == 0
    assert (len(out.writes), out.flushes) == (1, 1)
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == leaves.SHA256[command, fmt]


def test_long_json_dict_is_written_in_batches():
    # a witness of 6,000 chains renders 98 KB of json from one payload dict:
    # more than a pipe buffer holds, so it goes in batches of lines, the
    # first of which fits, and a reader that has gone meets a later write
    p, g = 10**8, 6000
    argv = ["--format", "json", "chains", "witness", "-p", str(p), "-k", "2",
            "--delta", str(p - g)]
    out = _CountingStdout()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    text = out.getvalue()
    assert len(text) > cli._PIPE_BYTES
    assert text == json.dumps(chains.witness(p, 2, p - g).to_payload(), indent=2) + "\n"
    assert len(out.writes) > 1 and out.flushes == 1
    assert max(map(len, out.writes)) < cli._PIPE_BYTES


@pytest.mark.parametrize("envelope", [
    {"k": 2, "pmax": 2, "qvalues": []},
    {"p": 1, "rows": []},
    {"[]": "[]", "list": [[], {}], "rows": []},
])
def test_json_rows_renders_no_row_as_an_empty_list(envelope):
    assert "".join(cli._json_rows(envelope, [])) == json.dumps(envelope, indent=2) + "\n"
    assert "".join(cli._json_rows(envelope, iter(()))) == json.dumps(envelope, indent=2) + "\n"


@pytest.mark.parametrize("fault, argv, message", [
    ("necessity-rho", "bn check -p 9 -k 4 --delta 9", "rho(p, alpha*r, alpha*d + delta) = 11 "
     "!= delta - threshold = 9 at (p=9, delta=9, r=1, d=4, alpha=0)"),
    ("cli-delta0-verify", "gonality delta0 -p 9 -k 4 --verify",
     "delta0 closed form 3 is not the least admissible delta at (p=9, k=4)"),
    ("cli-delta0-verify-below", "gonality delta0 -p 9 -k 4 --verify",
     "delta0 closed form 1 is not the least admissible delta at (p=9, k=4)"),
    ("optimal-class-inadmissible", "hilb cone -p 50 -k 3",
     "delta0=31 is inadmissible at (p=50, k=3), so the optimal class y=20 is no gonality class"),
    ("optimal-class-inadmissible", "hilb rays -p 50 -k 3",
     "delta0=31 is inadmissible at (p=50, k=3), so the optimal class y=20 is no gonality class"),
    ("optimal-class-inadmissible", "hilb scan --pmax 12 --kmax 3",
     "delta0=-1 is inadmissible at (p=2, k=2), so the optimal class y=3 is no gonality class"),
    ("optimal-class-y", "hilb cone -p 50 -k 3",
     "optimal class closed form y=20 != g+k-1 = 19 at delta0=33 (p=50, k=3)"),
    ("optimal-class-y", "hilb rays -p 50 -k 3",
     "optimal class closed form y=20 != g+k-1 = 19 at delta0=33 (p=50, k=3)"),
    ("optimal-class-y", "hilb scan --pmax 12 --kmax 3",
     "optimal class closed form y=3 != g+k-1 = 2 at delta0=1 (p=2, k=2)"),
    ("enumerator-sum", "chains enumerate -p 12 -k 2", "enumerated partition at (p=12, k=2) "
     "has g=2, delta=11, g + delta != p: parts=((12, 1),)"),
    ("enumerator-recursion", "chains enumerate -p 12 -k 2", "enumerated partition at "
     "(p=12, k=2) has g=1, delta=10, g + delta != p: parts=((1, 1), (11, 1))"),
    ("enumerator-delta", "chains enumerate -p 12 -k 2", "enumerated partition at (p=12, k=2) "
     "has g=1, delta=12, g + delta != p: parts=((12, 1),)"),
])
def test_guard_messages_name_the_values_compared(capsys, monkeypatch, fault, argv, message):
    # the whole message, where guards.py checks a fragment of it
    monkeypatch.setattr(*guards.FAULTS[fault].patch)
    for fmt in FORMATS:
        assert run(capsys, "--format", fmt, *argv.split()) == (
            2, "", f"invariant violation: {message}\n"), fmt


def test_cone_reads_tau_and_delta0_off_the_optimal_class():
    for k in range(2, 8):
        for p in [*range(2, 90), 10**6 + 3, 10**12 + 7]:
            payload, _ = cli.hilb_cone(p, k)
            assert payload["tau"] == rat_str(hilbert.tau(p, k))
            assert payload["delta0"] == gonality.delta0(p, k)
            assert payload["q_optimal"] == rat_str(hilbert.optimal_class(p, k).q)


def _fractions_with(fraction):
    """A stand-in `fractions` module whose `Fraction` is `fraction`: the
    package imports the class from it at each place that builds one."""
    module = types.ModuleType("fractions")
    module.Fraction = fraction
    return module


@pytest.mark.parametrize("command", leaves.argvs(lambda leaf: leaf.rational))
def test_hilb_rationals_are_printed_from_integers(capsys, monkeypatch, command):
    # no format builds a Fraction, and `hilb qvalues` decomposes each (rho,
    # beta) candidate once: genus_for_invariants reads delta0 off that
    # decomposition
    built, walked, decomposed = [], [], []

    class CountingFraction(Fraction):
        def __new__(cls, *args, **kwargs):
            built.append(args)
            return super().__new__(cls, *args, **kwargs)

    def counted(calls, function):
        def wrapper(*args):
            calls.append(args)
            return function(*args)

        return wrapper

    monkeypatch.setitem(sys.modules, "fractions", _fractions_with(CountingFraction))
    monkeypatch.setattr(hilbert, "genus_for_invariants",
                        counted(walked, hilbert.genus_for_invariants))
    decompose = counted(decomposed, gonality.decompose)
    for module in (gonality, hilbert):
        monkeypatch.setattr(module, "decompose", decompose)
    for fmt in FORMATS:
        del built[:], walked[:], decomposed[:]
        code, out, err = run(capsys, "--format", fmt, *command.split())
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == leaves.SHA256[command, fmt]
        assert built == [], fmt
        if command.startswith("hilb qvalues"):
            assert walked and len(decomposed) == len(walked), fmt


@pytest.mark.parametrize("fmt", FORMATS)
def test_chains_enumerate_writes_nothing_before_failing(capsys, tmp_path, fmt):
    target = tmp_path / "no" / "such" / "partitions"
    argv = ["--format", fmt, "chains", "enumerate", "-p", "12", "-k", "2"]
    code, out, err = run(capsys, *argv, "--out", str(target))
    assert code == 1 and out == "" and str(target) in err
    assert not target.exists() and not target.parent.exists()


def test_main_keeps_no_reference_to_stdout():
    # an in-process caller that gives each call its own sys.stdout gets it
    # back: the output written to it is not kept alive by the CLI
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["--format", "json", "chains", "enumerate", "-p", "4", "-k", "2"]) == 0
    assert json.loads(out.getvalue())["count"] == 4
    ref = weakref.ref(out)
    del out
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize(
    "argv, code",
    [
        (["hilb", "q", "-p", "8", "-k", "2", "--delta", "3"], 1),
        (["gonality", "delta0", "-p", "9", "-k", "4", "--verify"], 2),
    ],
)
def test_main_keeps_no_reference_to_stderr(monkeypatch, argv, code):
    # the same for the error messages of exit 1 and exit 2
    monkeypatch.setattr(gonality, "delta0", lambda p, k: 99)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main(argv) == code
    assert err.getvalue().startswith(("error: ", "invariant violation: ")[code - 1])
    ref = weakref.ref(err)
    del err
    gc.collect()
    assert ref() is None


def test_chains_stable_sums_repeated_lengths(capsys):
    stable = ("--format", "json", "chains", "stable", "-p", "8", "-k", "3", "--alpha")
    code, out, err = run(capsys, *stable, "1:2,1:2,2:2")
    assert (code, err) == (0, "")
    assert run(capsys, *stable, "1:4,2:2") == (0, out, "")
    assert json.loads(out)["partition"]["parts"] == [[1, 4], [2, 2]]


def test_delta0_verify_limit(capsys):
    # the certificate evaluates the bound twice, so --verify has no limit on p
    p = str(10**40 + 1)
    start = time.perf_counter()
    code, out, err = run(capsys, "gonality", "delta0", "-p", p, "-k", "1000000", "--verify")
    assert time.perf_counter() - start < 1
    assert (code, err) == (0, "")
    assert out.strip() == f"{gonality.delta0(10**40 + 1, 10**6)} (verified)"


def test_chains_witness_at_extreme_p(capsys):
    p = 10**40 + 1
    start = time.perf_counter()
    code, out, err = run(capsys, "--format", "json", "chains", "witness",
                         "-p", str(p), "-k", "2", "--delta", str(p - 1))
    assert time.perf_counter() - start < 1
    assert (code, err) == (0, "") and json.loads(out)["parts"] == [[p, 1]]
    start = time.perf_counter()
    code, out, _ = run(capsys, "chains", "witness", "-p", "10000000", "-k", "2",
                       "--delta", "9999999")
    assert time.perf_counter() - start < 1
    assert code == 0 and out == "p=10000000 k=2 delta=9999999 g=1 parts[10000000:1]\n"


@pytest.mark.parametrize("delta", [0, 1])
def test_chains_witness_at_p_2_is_the_enumerated_partition(capsys, delta):
    # p = 2 has one valid partition at each delta in [delta0, p - 1] = [0, 1],
    # for every k, and the witness is it; the pinned command prints it as
    # `chains enumerate -p 2 -k 2` and json.dumps do
    for k in range(2, 8):
        assert [q for q in chains.enumerate_partitions(2, k) if q.delta == delta] == [
            chains.witness(2, k, delta)], k
    expected, = [q for q in chains.enumerate_partitions(2, 2) if q.delta == delta]
    payload = expected.to_payload()
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(
        [list(payload), [*list(payload.values())[:4], json.dumps(payload["parts"])]])
    table = [line for line in run(capsys, "chains", "enumerate", "-p", "2", "-k", "2")[1]
             .splitlines(keepends=True) if f" delta={delta} " in line]
    argv = f"chains witness -p 2 -k 2 --delta {delta}"
    for fmt, text in (("json", json.dumps(payload, indent=2) + "\n"), ("csv", buf.getvalue()),
                      ("table", "".join(table))):
        assert run(capsys, "--format", fmt, *argv.split()) == (0, text, ""), fmt
        assert hashlib.sha256(text.encode()).hexdigest() == leaves.SHA256[argv, fmt]


def _fire(capsys, tmp_path, record):
    """Each call of `record` raises its message; each command exits 1 at once,
    with that message as its one stderr line and no output, nor an --out file."""
    target = tmp_path / "out"
    for call, *args in record.calls:
        with pytest.raises(ValueError, match=f"^{re.escape(record.message)}$"):
            call(*args)
    for argv, fmt, out in itertools.product(record.argvs, FORMATS, ([], ["--out", str(target)])):
        start = time.perf_counter()
        result = run(capsys, "--format", fmt, *out, *argv.split())
        assert time.perf_counter() - start < 0.5, (argv, fmt, out)
        assert result == (1, "", f"error: {record.message}\n"), (argv, fmt, out)
        assert not target.exists()


@pytest.mark.parametrize("name", guards.REFUSALS)
def test_refusal_fires(capsys, tmp_path, name):
    _fire(capsys, tmp_path, guards.REFUSALS[name])


def _main_unhandled(argv):
    """`main(argv)` for a well-formed command, with no handler of its errors."""
    args = cli._parse(argv.split())
    leaf = args.pop("leaf")
    cli._emit(args.pop("fmt"), args.pop("out"), *leaf.callback(**args))


def test_every_domain_check_has_a_refusal():
    # each record's calls and commands raise at one site; together they reach
    # every `raise ValueError` site but the stdout errors, each its test's own
    sites, fired = guards.raise_sites("ValueError"), set()
    for name, record in guards.REFUSALS.items():
        found = set()
        for call, *args in [*record.calls, *((_main_unhandled, argv) for argv in record.argvs)]:
            with pytest.raises(ValueError) as caught:
                call(*args)
            found.add(guards.raise_site(caught.value))
        assert len(found) == 1, (name, found)
        fired |= found
    for text, test in guards.STDOUT_ERRORS.items():
        excluded = [site for site, source in sites.items() if text in source]
        assert len(excluded) == 1 and excluded[0][0] == "cli.py", text
        assert callable(globals().get(test)), test
        fired |= set(excluded)
    assert fired == sites.keys()


def test_each_refusal_is_worded_at_one_site():
    # one wording at two sites is one rule written twice: raise it through
    # the function of `errors` that words it, and delete the copy
    sites = {}
    for site, source in guards.raise_sites("ValueError", refusers=False).items():
        sites.setdefault(source, []).append(site)
    assert {source: at for source, at in sites.items() if len(at) > 1} == {}


@pytest.mark.parametrize("name", ["delta-negative", "witness-delta-negative"])
def test_negative_delta_is_out_of_range(capsys, monkeypatch, tmp_path, name):
    # refused as out of range by every command that takes --delta; the
    # witness refuses it before it computes delta0
    monkeypatch.setattr(chains, "delta0", lambda p, k: pytest.fail("delta0 was computed"))
    _fire(capsys, tmp_path, guards.REFUSALS[name])


def _limit_constants():
    """(module, name) of every module-level *_MAX_* assignment in the package."""
    found = []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text(), path.name).body:
            targets = node.targets if isinstance(node, ast.Assign) else [
                getattr(node, "target", None)]
            found += [(path.stem, t.id) for t in targets
                      if isinstance(t, ast.Name) and fnmatch.fnmatchcase(t.id, "*_MAX_*")]
    return found


def test_every_limit_has_a_case():
    found = _limit_constants()
    assert sorted(name for _, name in found) == sorted(leaves.LIMITS)
    # the scan grid loop is command-line code; every other limit lives with its work
    assert [name for module, name in found if module == "cli"] == ["SCAN_MAX_ROWS"]
    # one past each limit is refused with its whole message
    assert {limit.past for limit in leaves.LIMITS.values()} <= {
        argv for record in guards.REFUSALS.values() for argv in record.argvs}


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", sorted(leaves.LIMITS))
def test_each_limit_at_and_past_it(capsys, monkeypatch, name, fmt):
    module, = (sys.modules[f"k3gonal.{m}"] for m, n in _limit_constants() if n == name)
    limit = leaves.LIMITS[name]
    # one past the real limit is a refusal of guards.py; the limit is
    # inclusive: the case runs at its size and is refused one below
    monkeypatch.setattr(module, name, limit.size)
    code, out, err = run(capsys, "--format", fmt, *limit.case.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == leaves.SHA256[limit.case, fmt]
    monkeypatch.setattr(module, name, limit.size - 1)
    code, out, err = run(capsys, "--format", fmt, *limit.case.split())
    assert (code, out) == (1, "")
    assert re.fullmatch(f"error: [^\\n]* over the limit {name} = {limit.size - 1}\\n", err)


@pytest.mark.parametrize("value", ["1000", "abc"])
def test_max_p_environment_variable_has_no_effect(capsys, monkeypatch, tmp_path, value):
    # nothing in the environment moves the enumeration limit
    monkeypatch.setenv("K3GONAL_MAX_P", value)
    _fire(capsys, tmp_path, guards.REFUSALS["enumerate-max-p"])
    for fmt in FORMATS:
        code, out, err = run(capsys, "--format", fmt, "chains", "enumerate", "-p", "6", "-k", "2")
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == leaves.SHA256[
            "chains enumerate -p 6 -k 2", fmt]


@pytest.mark.parametrize("command", LEAF_CASES)
def test_json_output_round_trips(capsys, command):
    # the README's contract: json.dumps(json.loads(out), indent=2) gives out back
    code, out, err = run(capsys, "--format", "json", *command.split())
    assert (code, err) == (0, "")
    assert json.dumps(json.loads(out), indent=2) + "\n" == out


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("command", LEAF_CASES)
def test_leaf_commands_leave_no_cyclic_garbage(capsys, command, fmt):
    # whatever a command builds is freed by reference counting when it
    # returns, not held in a reference cycle until a full collection
    gc.collect()
    gc.disable()
    try:
        code, _, err = run(capsys, "--format", fmt, *command.split())
        left = gc.collect()
    finally:
        gc.enable()
    assert (code, err) == (0, "")
    assert left == 0


def test_enumeration_is_held_by_its_caller_alone():
    result = chains.enumerate_partitions(12, 3)
    # the variable and getrefcount's own argument
    assert sys.getrefcount(result) == 2


_JSON_STRINGS = st.one_of(
    st.text(),
    st.text(alphabet='"\\/\x00\x01\x1f\x7f\t\n\r\u00e9\u2044\u4e2d\U0001f600\ud800'),
)
_JSON_TREES = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.integers(min_value=2**64 - 2, max_value=2**70),
        st.integers(min_value=-(2**70), max_value=-(2**64)),
        _JSON_STRINGS,
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_JSON_STRINGS, children, max_size=4),
    ),
    max_leaves=20,
)


# tuples of scalars, which _json_text renders through a template per length
# and indent if they hold only ints, and trees that hold them, repeated and at
# several indents
_SCALAR_TUPLES = st.lists(
    st.one_of(st.none(), st.booleans(), st.integers(), _JSON_STRINGS), max_size=4).map(tuple)
_TUPLE_TREES = st.recursive(
    _SCALAR_TUPLES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.lists(children, min_size=1, max_size=2).map(lambda items: items * 2),
        st.dictionaries(_JSON_STRINGS, children, max_size=4),
    ),
    max_leaves=12,
)


@given(tree=_JSON_TREES | _TUPLE_TREES)
# keys that are, or hold, a %-format directive
@example(tree={"%": 1, "%s": "%s", "%%": ["%%", {"%%s": None}]})
# one key tuple at three indents: each has a dict template of its own
@example(tree={"k": {"k": [{"k": 0}]}})
# one tuple at three indents, and tuples equal to it that hold a bool, a
# list or a tuple: each indent has a text of its own, and a bool is no int
@example(tree=[(1, 2), [(1, 2), [(1, 2), (True, 2)]], (1, [2]), ((1, 2),), (1, 2)])
@example(tree={"a": (1,), "b": (True,), "c": [(1,), (False,), (0,), ()], "d": ((), [])})
# the int-tuple template: one item, big and negative ints, a nested indent,
# and a bool, which renders the tuple as a list
@example(tree=(7,))
@example(tree=(10**40, -3))
@example(tree={"a": [(1, 2, 3)]})
@example(tree=(True, 2))
@settings(max_examples=200, deadline=None)
def test_json_text_matches_json_dumps(tree):
    assert cli._json_text(tree) == json.dumps(tree, indent=2)
    assert cli._json_text({"payload": [tree, []], "empty": {}}) == json.dumps(
        {"payload": [tree, []], "empty": {}}, indent=2
    )


@given(head=st.dictionaries(_JSON_STRINGS, _JSON_TREES, max_size=3),
       rows=st.lists(_JSON_TREES, max_size=4))
@settings(max_examples=200, deadline=None)
def test_json_rows_matches_json_dumps(head, rows):
    # the rows are the last key's list, each rendered at the row indent
    head.pop("rows", None)
    envelope = {**head, "rows": []}
    texts = (cli._json_text(row, cli._ROW) for row in rows)
    assert "".join(cli._json_rows(envelope, texts)) == json.dumps(
        {**envelope, "rows": rows}, indent=2) + "\n"


@given(tree=_JSON_TREES | _TUPLE_TREES)
@example(tree=((1, 2), [(1, 2), (True, 2)]))
@example(tree="a,b")
@example(tree='say "q"')
@example(tree="two\nlines")
@example(tree="carriage\rreturn")
@example(tree='",\r\n"')
@settings(max_examples=100, deadline=None)
def test_csv_cell_matches_json_dumps(tree):
    # a list, tuple or dict value of a single-case payload is one csv cell,
    # which reads back as json.dumps of the value; the whole output is
    # csv.writer's lines for the same two rows, but that a cell holding a
    # carriage return is quoted on every Python, as 3.13's csv.writer quotes
    # it and 3.10-3.12's do not
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit("csv", None, {"cell": [tree], "value": tree}, None)
    text = out.getvalue()
    header, row = csv.reader(io.StringIO(text, newline=""))
    assert header == ["cell", "value"]
    assert row[0] == json.dumps([tree])
    if isinstance(tree, (list, tuple, dict)):
        assert row[1] == json.dumps(tree)
    cells = [json.dumps(v) if isinstance(v, (list, tuple, dict)) else v for v in [[tree], tree]]
    reference = io.StringIO()
    csv.writer(reference, lineterminator="\n").writerows([["cell", "value"], cells])
    if "\r" in text:
        assert text.endswith(',"' + tree.replace('"', '""') + '"\n')
    if "\r" not in text or sys.version_info >= (3, 13):
        assert text == reference.getvalue()


@pytest.mark.parametrize(
    "tree", [1.5, {"q": 0.5}, {1: "a"}, [{"k": 1}, {2: 3}], Fraction(1, 2), {"q": [Fraction(3)]},
             # equal, and of equal hash, to the tuple (1, 2) of ints
             (1.0, 2), [(1, 2), (Fraction(1), 2)], {"q": (1, 2.0)}]
)
def test_json_text_rejects_other_types(tree):
    cli._json_text([(1, 2), {"q": (1, 2)}])
    with pytest.raises(TypeError):
        cli._json_text(tree)


def test_json_text_templates_are_bounded():
    for n in range(2 * cli._TEXTS_MAX):
        payload = {str(n): n}
        assert cli._json_text(payload) == json.dumps(payload, indent=2)
        info = cli._dict_template.cache_info()
        assert info.currsize <= info.maxsize == cli._TEXTS_MAX


def test_pair_texts_are_bounded(capsys, monkeypatch):
    # more distinct pairs than a template table holds, each rendered twice,
    # in every format and at three indents: the texts stay right; each
    # partition is rendered by `chains enumerate`, as its whole enumeration
    bound = cli._TEXTS_MAX
    assert bound >= sum(chains.DEFAULT_MAX_P // j for j in range(1, chains.DEFAULT_MAX_P + 1))
    argv = ["chains", "enumerate", "-p", str(bound), "-k", "2"]
    for n in [*range(2 * bound + 1), *range(bound)]:
        pair = (n, bound - n)
        tree = {"parts": (pair,), "more": [pair]}
        assert cli._json_text(tree) == json.dumps(tree, indent=2)
        part = chains.ChainPartition._make(bound, 2, (pair,), 1, 0)
        monkeypatch.setattr(chains, "enumerate_partitions", lambda p, k: [part])
        payload = {"p": bound, "k": 2, "count": 1, "partitions": [part.to_payload()]}
        assert run(capsys, "--format", "json", *argv) == (0, json.dumps(payload, indent=2) + "\n", "")
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow([0, 1, json.dumps([pair])])
        assert run(capsys, "--format", "csv", *argv) == (0, "delta,g,parts\n" + buf.getvalue(), "")
        code, out, _ = run(capsys, "--format", "table", *argv)
        assert code == 0 and out.endswith(f" parts[{n}:{bound - n}]\n")


def _keys_of_globals(module):
    """Every key of a dict that a global of `module` holds, or that such a
    dict holds as a value, at any depth."""
    dicts = [value for value in vars(module).values() if isinstance(value, dict)]
    keys = []
    while dicts:
        table = dicts.pop()
        keys.extend(table)
        dicts.extend(value for value in table.values() if isinstance(value, dict))
    return keys


def test_chains_enumerate_keeps_no_pair_text(capsys):
    # a pair's text lives for one command: after an enumeration in every
    # format, no table of the module is keyed by a (j, alpha_j) pair
    for fmt in FORMATS:
        code, _, _ = run(capsys, "--format", fmt, "chains", "enumerate", "-p", "12", "-k", "3")
        assert code == 0
    pairs = {pair for part in chains.enumerate_partitions(12, 3) for pair in part.parts}
    assert not pairs.intersection(key for key in _keys_of_globals(cli)
                                  if type(key) is tuple and len(key) == 2)


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_commands(capsys):
    text = README.read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    checked = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        program, *argv = shlex.split(command)
        assert program == "k3gonal"
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), line
        # a quoted or numeric comment is the table output, character for
        # character (fractions with U+2044), other comments describe
        expected = comment.strip()
        if expected.startswith('"') or re.fullmatch(r"-?\d+([/⁄]\d+)?", expected):
            assert out.strip() == expected.strip('"'), line
            checked.append(expected)
    assert checked == ["1", '"2 (verified)"', '"H - 5*r_k"', "-2⁄3"]
