import hashlib
import json
import subprocess
import sys
from fractions import Fraction

import pytest

from k3gonal import gonality
from k3gonal.cli import main
from k3gonal.hilbert import rat_str


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


# SHA-256 of `--format json hilb CMD -p P -k K`, recorded before the duplicate
# guard, the wrappers and the hand-written payloads of hilbert.py were removed
HILB_JSON_SHA256 = {
    ("lagrangian", 10, 2): "ebd735ea42878ed5644ee081063c5b58b9de025ec9ea53f4912ff12e1ce6b38e",
    ("lagrangian", 10, 5): "243ebb267d0b6b9cba03410ac588cdf5490774b7cb6a004f2cec59b44384b037",
    ("lagrangian", 11, 2): "76abc3543d871ae2c6593b9ff02070dc7aa7084779250b1788c243fd9081b3ba",
    ("rays", 1000003, 3): "d0533bebdf4eb11e165a9d303350254624fa5d8a3749f392adeb9f0082784987",
    ("cone", 1000003, 3): "ff17d3e2562f051814a7b26fa3eeb3d3b49a002815df9036a613dcbf471309b4",
    ("rays", 8, 2): "0a08d46c9f64f8a5f822e0e4debbf38b80cbd7bc5ad80fa580dd9a23d87bbcdd",
    ("cone", 8, 2): "e87370fea4a3992ef1ec6f19c9b5bd8656106a4d88a2f8d73a5dee17fd2258a7",
}


@pytest.mark.parametrize("cmd,p,k", sorted(HILB_JSON_SHA256))
def test_hilb_json_bytes_pinned(capsys, cmd, p, k):
    code, out, _ = run(
        capsys, "--format", "json", "hilb", cmd, "-p", str(p), "-k", str(k)
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == HILB_JSON_SHA256[cmd, p, k]


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


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
@pytest.mark.parametrize(
    "bounds",
    [
        ("--pmin", "5", "--pmax", "3", "--kmax", "2"),
        ("--pmax", "8", "--kmin", "4", "--kmax", "3"),
    ],
)
def test_scan_inverted_bounds_exit_1(capsys, fmt, bounds):
    code, out, err = run(capsys, "hilb", "scan", *bounds, "--format", fmt)
    assert code == 1 and out == ""
    assert "pmin" in err and "kmax" in err
