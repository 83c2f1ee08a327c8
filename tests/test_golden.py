"""Golden outputs: SHA-256 of seeded results, so that a changed bit in the
sampling, estimator, simulation or collage solver code fails here.  The
collage reports are hashed without ``iterations``, the solver's count of
forward passes, which a change to how it aims them may move."""

import hashlib
import json

import numpy as np
import pytest

from ifsdist import BetaParams, SeededRng, sample_beta
from ifsdist.cli import cli_main

# simulate --n 10,50,100,500,1000 --trials 3 --seed 0 (20 points, 4 iterations)
SIMULATE_SHA256 = {
    "beta:2,2": "ac9be7878e8eccd324b55052fc9934ac89d38429a72e9e7788a938b962a986f5",
    "beta:3,3": "4da97c5117b9c719d013912ac424a330cbf170b39f2b8a38e6f4474267301e8a",
    "beta:5,3": "24e01fa3cc7ab03caa2ed9b1deabde543b5ad5c540883a214d98e451159092b6",
    "beta:3,5": "f77f6774b8fc8ef37a4aee731424735dd76ae5bd9a1a5f75793dc99803493190",
    "beta:1,1": "c075c66994a1c9f43ae7c28065c8b63a78702216895d38bb113679843ab26fbf",
}

# sample_beta(BetaParams(a, b), n, SeededRng(seed)).tobytes()
SAMPLE_SHA256 = {
    (2, 2, 1000, 0): "881c00752fe483deb09b9fe6a4f3f1beb3db68a2b5f5bbc468c9a07e662f0a07",
    (0.5, 0.5, 257, 7): "dd684e937271c849fedfd5728029d1cbb93f8388c10e18c68fdc94a835e54c97",
    (200, 3, 3000, 11): "232e08e2e42dc4b8814fd1fa368d5bbca169ad4e69a4f205b458dcc81cceffe3",
    (0.1, 0.1, 100, 3): "0fc635ca7859ddeb0b23ae31e8fa119201998e9204dfe9cf83490255b2910b93",
    (1, 1, 64, 1): "08d7e7ccf8c7f581ae6ca8c19a0f5942bf51e0f2f1b2478681ebb69acbd299e3",
    (50, 50, 1, 5): "506a6995505e43e21704c391ed8420b80286747bcc41613e67cfdac6966f23c2",
}


@pytest.mark.parametrize("dist", sorted(SIMULATE_SHA256))
def test_simulate_csv(dist, tmp_path):
    out = tmp_path / "table.csv"
    assert cli_main(["simulate", "--dist", dist, "--n", "10,50,100,500,1000",
                     "--trials", "3", "--seed", "0", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SIMULATE_SHA256[dist]


@pytest.mark.parametrize("key", sorted(SAMPLE_SHA256))
def test_sample_beta_bytes(key):
    a, b, n, seed = key
    xs = sample_beta(BetaParams(a, b), n, SeededRng(seed))
    assert hashlib.sha256(xs.tobytes()).hexdigest() == SAMPLE_SHA256[key]


# Every other subcommand, on a fixed 25-point sample (see _sample_file).
CLI_SHA256 = {
    "edf-ifs": "2cdfdc624e72bda5b3db7d7a39068da72be1d40fbfc29891fbb69ca8531400f2",
    "approximate": "a846962541ab30baae4530fbe69e7c8ab5a0c6a963aa82167b9be93035c4e812",
    "estimate": "4d435555a7ae3cc7a8153ba44d256f534e2087733cf72f4e096d26ac44184824",
    "simulate-exact-sup": "8e288605f65cea1aedefe5fd6042ba5feae21fd0b39e4d05a2e385af1d28e21a",
}

CLI_ARGV = {
    "edf-ifs": ["edf-ifs", "--sample", "{sample}"],
    "approximate": ["approximate", "--dist", "beta:2,5", "--points", "19"],
    "estimate": ["estimate", "--sample", "{sample}", "--k", "8"],
    "simulate-exact-sup": ["simulate", "--dist", "beta:2,2", "--n", "10,50,100,500,1000",
                           "--trials", "3", "--seed", "0", "--exact-sup"],
}

# invert --target beta:2,5: D* of the collage minimum on each partition
INVERT_D_STAR = {
    "auto:8": 0.1231977740875539,
    "sample60": 0.0551801902924568,
}

# the same reports without "iterations", as sorted-key JSON
INVERT_SHA256 = {
    "auto:8": "4779986965fce58ea987364a50d7a22483a1569a8acc9c4a59713f6789f290cf",
    "sample60": "8067803add5505047a9ffef4b9cbdbd01f53c1207e4c6eb77b6690ef2a2e31b1",
}


def _sample_file(tmp_path):
    """25 points of the golden-ratio sequence i*phi mod 1, written at full precision."""
    path = tmp_path / "sample.txt"
    path.write_text("".join(f"{(i * 0.6180339887498949) % 1.0:.17g}\n" for i in range(1, 26)))
    return path


@pytest.mark.parametrize("name", sorted(CLI_SHA256))
def test_cli_output(name, tmp_path):
    sample = str(_sample_file(tmp_path))
    out = tmp_path / "out"
    argv = [arg.format(sample=sample) for arg in CLI_ARGV[name]]
    assert cli_main(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CLI_SHA256[name]


@pytest.mark.parametrize("name", sorted(INVERT_D_STAR))
def test_invert_d_star(name, tmp_path):
    if name == "sample60":
        part = tmp_path / "partition.txt"
        np.savetxt(part, np.random.default_rng(2001).uniform(0.0, 1.0, 60), fmt="%.17g")
        spec = f"sample:{part}"
    else:
        spec = name
    out = tmp_path / "report.json"
    assert cli_main(["invert", "--target", "beta:2,5", "--partition", spec,
                     "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    p = np.array(report["p_star"])
    assert abs(report["D_star"] - INVERT_D_STAR[name]) <= 1e-12
    assert np.all(p >= 0.0)
    assert float(np.sum(p)) == pytest.approx(1.0, abs=1e-12)  # weight_sum with zero offsets
    pinned = json.dumps({k: v for k, v in report.items() if k != "iterations"}, sort_keys=True)
    assert hashlib.sha256(pinned.encode()).hexdigest() == INVERT_SHA256[name]
