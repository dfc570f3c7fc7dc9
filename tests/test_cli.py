import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import xbarbnn
from xbarbnn.cli import _config_hash, main

BAD_CONFIGS = [
    # the 520-wide layer splits 512+8; distance 16 does not fit 8 bits
    (["infer", "--topology", "FC(784) - FC(520) - FC(100) - FC(10)", "--synthetic", "4", "--seed", "1"], "512+8"),
    # the second conv's fan-in 150 splits 64+64+22 on a 64-row array
    (["infer", "--network", "lenet-5", "--crossbar", "64x64", "--synthetic", "4", "--seed", "1"], "64+64+22"),
    (["infer", "--topology", "FC(784) - FOO", "--synthetic", "4", "--seed", "1"], "unrecognized layer"),
    (["infer", "--network", "lenet-5", "--crossbar", "512", "--synthetic", "4", "--seed", "1"], "bad crossbar geometry"),
    (["loss-sweep", "--nu", "8", "--x-grid", "9", "--seed", "1"], "references outside"),
    (["cost", "--network", "nope"], "unknown network"),
    # missing input files (relative names that no test creates)
    (["infer", "--network", "lenet-5", "--weights", "missing.xbw", "--synthetic", "4"], "missing.xbw"),
    (["infer", "--network", "lenet-5", "--images", "missing-images.idx", "--labels", "missing-labels.idx",
      "--seed", "1"], "missing-images.idx"),
    (["infer", "--config", "missing-config.json"], "missing-config.json"),
    (["cost", "--network", "lenet-5", "--params", "missing-params.json"], "missing-params.json"),
    # F1 on one reference: mlp-l's layer 1 splits, and F1 cannot cascade main references alone
    (["infer", "--network", "mlp-l", "--refs", "1", "--policy", "F1", "--synthetic", "4", "--seed", "1"],
     "layer 1 (fan-in 1500 = 512+512+476): F1 needs"),
    # a config file can name a policy that --policy's choices would refuse
    (["infer", "--config", str(Path(__file__).with_name("configs") / "policy-xor.json")], "unknown cascade kind 'XOR'"),
    # a conv as the last weight layer scores each window, not each image
    (["infer", "--topology", "5x5,6 - 2x2 Pool - 3x3,10", "--synthetic", "4", "--seed", "1"],
     "must end in an FC layer"),
]


@pytest.mark.parametrize(
    "argv, reason",
    BAD_CONFIGS,
    ids=[
        "tail-512+8", "lenet5-64x64", "unknown-token", "bad-geometry", "refs-outside-segment", "unknown-network",
        "missing-weights", "missing-images", "missing-config", "missing-params", "f1-one-ref-split",
        "unknown-policy-in-config", "conv-last",
    ],
)
def test_bad_configuration_is_one_line_and_exit_2(capsys, argv, reason):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"xbarbnn {argv[0]}: ")
    assert reason in err


def test_one_reference_runs_where_no_sensed_layer_splits(capsys):
    assert main(["infer", "--network", "lenet-5", "--refs", "1", "--synthetic", "4", "--seed", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["backend"] == "crossbar/F2"


def test_single_layer_network_reports_its_one_activation_layer(capsys):
    assert main(["infer", "--topology", "FC(784) - FC(10)", "--synthetic", "4", "--seed", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [m["layer"] for m in report["layer_mismatch"]] == ["0:FCLayer"]


@pytest.mark.parametrize(
    "argv",
    [["infer", "--network", "lenet-5", "--synthetic", "4", "--seed", "1"], ["cost", "--network", "lenet-5"]],
    ids=["infer", "cost"],
)
def test_meta_carries_versions_outside_the_config_hash(capsys, argv):
    assert main(argv) == 0
    meta = json.loads(capsys.readouterr().out)["meta"]
    assert meta["xbarbnn_version"] == xbarbnn.__version__
    assert meta["numpy_version"] == np.__version__
    resolved = {k: v for k, v in meta.items() if k not in ("config_sha256", "xbarbnn_version", "numpy_version")}
    if argv[0] == "infer":  # infer's meta is the hashed dict itself
        assert meta["config_sha256"] == _config_hash(resolved)


def test_python_dash_m_runs_verify():
    # the child process imports the same xbarbnn as this one
    src = str(Path(xbarbnn.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-m", "xbarbnn", "verify"], env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    assert "[FAIL]" not in done.stdout and "[ok]" in done.stdout
