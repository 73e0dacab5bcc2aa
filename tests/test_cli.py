import hashlib
import json
import subprocess
import sys

import pytest

from k3gonal import gonality
from k3gonal.cli import main


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


def test_delta0_mismatch_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(gonality, "delta0_bruteforce", lambda p, k: 99)
    code, out, err = run(capsys, "gonality", "delta0", "-p", "9", "-k", "4", "--verify")
    assert code == 2
    assert "invariant violation" in err


def test_qvalues_csv(capsys):
    code, out, _ = run(
        capsys, "hilb", "qvalues", "-k", "3", "--pmax", "300", "--format", "csv"
    )
    assert code == 0
    assert out.splitlines() == ["q", "-3", "-9/4", "-2", "-1", "-1/4"]


def test_json_roundtrip_byte_identical(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "hilb", "rays", "-p", "12", "-k", "3"
    )
    assert code == 0
    assert json.dumps(json.loads(out), indent=2) + "\n" == out


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


def test_chains_stable_invalid_partition(capsys):
    code, _, err = run(
        capsys, "chains", "stable", "-p", "8", "-k", "2", "--alpha", "1:1"
    )
    assert code == 1
    assert "invalid" in err


def test_chains_enumerate_cap_env(capsys, monkeypatch):
    code, _, err = run(capsys, "chains", "enumerate", "-p", "61", "-k", "2")
    assert code == 1 and "K3GONAL_MAX_P" in err
    monkeypatch.setenv("K3GONAL_MAX_P", "65")
    code, out, _ = run(
        capsys, "--format", "json", "chains", "enumerate", "-p", "61", "-k", "2"
    )
    assert code == 0 and json.loads(out)["count"] > 0


def test_domain_error_exit_1(capsys):
    code, _, err = run(capsys, "hilb", "q", "-p", "8", "-k", "2", "--delta", "3")
    assert code == 1
    assert "inadmissible" in err


def test_unknown_command_exit_1(capsys):
    code, _, err = run(capsys, "bn", "nosuch")
    assert code == 1


def test_unknown_flag_exit_1(capsys):
    code, _, err = run(capsys, "bn", "rho", "--bogus", "1")
    assert code == 1


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


# SHA-256 of `--format json pencil verify -k K --samples 20 --seed 0`, recorded
# from the Fraction implementation: the integer core must reproduce the rng
# stream, the failure lists and the transversal counts byte for byte
PENCIL_VERIFY_SHA256 = {
    2: "1b0a1bf33bbe77ddd947f47b45287cf3e0da4095c428c6327a7316f44f2594bd",
    3: "84718b5d3b2e3686cb4e84e37b4654c4d0329c98e60f2d2f8f47d0bd0c93655e",
    4: "f5396b2475921b06e7eba41684aad48016269518b7ba7a007ff1f026343cf7b1",
    5: "8c13cc4cd94332b2051f0710c3812b83014e7cc97796c92633bc6dce40f747a9",
    6: "ac62e0aea8b27c34be2c0f1882bac14a9079113534bb4ef8e6f4f80dc017dc24",
    7: "f8d545ff7a3327e4cec84343db9ae83d767532c727252add669bcba4eeeb7703",
    8: "3c3ee738edfc097ccdc0378e7617fd6a6fe2c2b94109bed63f7febe47523fa19",
}


@pytest.mark.parametrize("k", sorted(PENCIL_VERIFY_SHA256))
def test_pencil_verify_bytes_pinned(capsys, k):
    code, out, _ = run(
        capsys, "--format", "json", "pencil", "verify", "-k", str(k),
        "--samples", "20", "--seed", "0",
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PENCIL_VERIFY_SHA256[k]


def test_pencil_verify_sample_count_bounds(capsys):
    code, out, err = run(capsys, "pencil", "verify", "-k", "3", "--samples", "-5")
    assert code == 1 and out == ""
    assert "samples" in err and "invariant violation" not in err
    code, out, _ = run(
        capsys, "--format", "json", "pencil", "verify", "-k", "3", "--samples", "0"
    )
    assert code == 0
    assert json.loads(out) == {
        "k": 3, "samples": 0, "seed": 0, "membership_points": 100,
        "failures": [], "transversal": 0, "transversal_rate": "1",
    }


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
