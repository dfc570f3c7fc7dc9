import csv
import json
import os
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

import xbarbnn
from xbarbnn.cascade import CascadePolicy, enumerate_loss
from xbarbnn.cli import _config_hash, main
from xbarbnn.crossbar import ReferenceSet
from xbarbnn.netio import WeightContainer, parse_topology

CONFIGS = Path(__file__).with_name("configs")

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
    (["infer", "--config", str(CONFIGS / "policy-xor.json")], "unknown cascade kind 'XOR'"),
    # a conv as the last weight layer scores each window, not each image
    (["infer", "--topology", "5x5,6 - 2x2 Pool - 3x3,10", "--synthetic", "4", "--seed", "1"],
     "must end in an FC layer"),
    # the counts `infer` rejects for its ReferenceSet, which once printed a cost
    (["cost", "--network", "mlp-l", "--refs", "-2"], "reference count must be odd and positive, got -2"),
    (["cost", "--network", "mlp-l", "--refs", "0"], "reference count must be odd and positive, got 0"),
    (["cost", "--network", "mlp-l", "--refs", "2"], "reference count must be odd and positive, got 2"),
    # pool sizes outside 1 to the input's side, which once ended in a
    # ZeroDivisionError and in an empty FC layer
    (["infer", "--topology", "5x5,6 - 0x0 Pool - FC(10)", "--synthetic", "4", "--seed", "1"], "token 1 '0x0 Pool'"),
    (["infer", "--topology", "5x5,6 - 30x30 Pool - FC(10)", "--synthetic", "4", "--seed", "1"],
     "token 1 '30x30 Pool': pool size must be 1 to 24 on a 24x24 input"),
    (["cost", "--topology", "5x5,6 - 0x0 Pool - FC(10)"], "token 1 '0x0 Pool'"),
    # a leading FC declares the input width, which must be the 1x28x28 pixels' 784: a narrower one
    # once read the first 500 pixels, a wider one ended in a numpy matmul error
    (["infer", "--topology", "FC(500) - FC(100) - FC(10)", "--synthetic", "4", "--seed", "1"],
     "token 0 'FC(500)': declares 500 inputs; the 1x28x28 input has 784"),
    (["infer", "--topology", "FC(1100) - FC(10)", "--synthetic", "4", "--seed", "1"], "declares 1100 inputs"),
    (["cost", "--topology", "FC(500) - FC(100) - FC(10)"], "token 0 'FC(500)': declares 500 inputs"),
    # an IDX file without its pair once ran synthetic images instead
    (["infer", "--network", "mlp-s", "--images", "missing-images.idx", "--seed", "1"],
     "--images and --labels go together"),
    (["infer", "--network", "mlp-s", "--labels", "missing-labels.idx", "--seed", "1"],
     "--images and --labels go together"),
    (["infer", "--network", "mlp-s", "--synthetic", "4"], "random weights need --seed"),
    (["loss-sweep", "--mode", "distance"], "--seed is mandatory for the stochastic distance mode"),
    (["cost", "--network", "lenet-5", "--params", str(CONFIGS / "params-missing-keys.json")],
     "bad params file: missing keys: baseline_popcount_group"),
    # a config file can name a mode that --mode's choices would refuse
    (["loss-sweep", "--config", str(CONFIGS / "mode-foo.json")], "unknown mode 'foo'"),
    (["infer", "--network", "mlp-s", "--synthetic", "-5", "--seed", "1"], "--synthetic needs at least 1 sample, got -5"),
    # an even count is refused whatever x is, not rejected x by x
    (["loss-sweep", "--mode", "refcount", "--ref-counts", "1", "2", "--samples", "100", "--seed", "1"],
     "reference count must be odd and positive, got 2"),
]


@pytest.mark.parametrize(
    "argv, reason",
    BAD_CONFIGS,
    ids=[
        "tail-512+8", "lenet5-64x64", "unknown-token", "bad-geometry", "refs-outside-segment", "unknown-network",
        "missing-weights", "missing-images", "missing-config", "missing-params", "f1-one-ref-split",
        "unknown-policy-in-config", "conv-last", "cost-refs-negative", "cost-refs-zero", "cost-refs-even",
        "pool-zero", "pool-wider-than-input", "cost-pool-zero", "fc-input-narrower", "fc-input-wider",
        "cost-fc-input-narrower", "images-without-labels", "labels-without-images", "infer-no-seed",
        "loss-sweep-no-seed", "cost-params-missing-keys", "unknown-mode-in-config", "synthetic-negative",
        "ref-count-even",
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


def test_python_dash_m_runs_cost():
    # the child process imports the same xbarbnn as this one
    src = str(Path(xbarbnn.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-m", "xbarbnn", "cost", "--network", "mlp-s"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["meta"]["xbarbnn_version"] == xbarbnn.__version__


def _weights_file(tmp_path, count: int, *layers: bytes) -> str:
    """A weights file: header for `count` layers, the `layers` bytes, and a
    valid CRC32 trailer."""
    body = b"XBW1" + struct.pack("<HH", 1, count) + b"".join(layers)
    path = tmp_path / "weights.xbw"
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    return str(path)


def _layer(binary: int, dims, payload: bytes) -> bytes:
    return struct.pack(f"<BB{len(dims)}II", binary, len(dims), *dims, len(payload)) + payload


@pytest.mark.parametrize(
    "count, layers, reason",
    [
        (1, [], "layer 0: header truncated"),
        (1, [struct.pack("<BBI", 1, 2, 40)], "layer 0: dims truncated"),
        (1, [_layer(1, (4, 10), bytes(4))], "layer 0: 4-byte payload for dims (4, 10), expected 5 bytes"),
        (1, [_layer(0, (2, 3), bytes(7))], "layer 0: 7-byte payload for dims (2, 3), expected 6 bytes"),
        (1, [_layer(0, (2, 3), bytes(6)), b"\0"], "1 trailing bytes after the last layer"),
    ],
    ids=["no-layer-header", "truncated-dims", "short-bits", "long-int8", "trailing-bytes"],
)
def test_malformed_weights_file_is_one_line_and_exit_2(tmp_path, capsys, count, layers, reason):
    path = _weights_file(tmp_path, count, *layers)
    assert main(["infer", "--network", "mlp-s", "--weights", path, "--synthetic", "4", "--seed", "1"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and reason in err


def test_saved_weights_load_back_and_infer_as_the_random_ones(tmp_path, capsys):
    topology = "FC(784) - FC(13) - FC(7) - FC(10)"  # 7 x 13 = 91 bits: a padded last byte
    weights = WeightContainer.random(parse_topology(topology), 1)
    path = tmp_path / "weights.xbw"
    weights.save(path)
    loaded = WeightContainer.load(path)
    assert [(a.dtype, a.tolist()) for a in loaded.arrays] == [(a.dtype, a.tolist()) for a in weights.arrays]
    argv = ["infer", "--topology", topology, "--refs", "1", "--synthetic", "4", "--seed", "1"]
    assert main(argv) == 0
    random_run = capsys.readouterr().out
    assert main(argv + ["--weights", str(path)]) == 0
    assert capsys.readouterr().out == random_run
    assert main(argv[:-2] + ["--weights", str(path)]) == 2  # synthetic images still need the seed
    assert capsys.readouterr().err == "xbarbnn infer: synthetic images need --seed, or pass --images and --labels\n"


def _idx_pair(tmp_path, h: int, w: int, n: int = 4) -> list[str]:
    images, labels = tmp_path / f"images-{h}x{w}.idx", tmp_path / "labels.idx"
    pixels = np.random.default_rng(0).integers(0, 256, n * h * w, dtype=np.uint8)
    images.write_bytes(struct.pack(">4I", 0x803, n, h, w) + pixels.tobytes())
    labels.write_bytes(struct.pack(">2I", 0x801, n) + bytes(range(n)))
    return ["--images", str(images), "--labels", str(labels)]


@pytest.mark.parametrize("image_junk, label_junk", [(20, 2), (0, 1), (1, 0)])
def test_idx_bytes_past_the_declared_payload_are_one_line_and_exit_2(tmp_path, capsys, image_junk, label_junk):
    argv = ["infer", "--network", "mlp-s", "--seed", "1"] + _idx_pair(tmp_path, 28, 28)
    for path, junk in ((argv[-3], image_junk), (argv[-1], label_junk)):
        with open(path, "ab") as f:
            f.write(bytes(junk))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "bytes past the declared payload" in err


@pytest.mark.parametrize("network", ["lenet-5", "mlp-s"])
def test_infer_reads_idx_images_of_the_input_size_only(tmp_path, capsys, network):
    argv = ["infer", "--network", network, "--seed", "1"]
    assert main(argv + _idx_pair(tmp_path, 28, 28)) == 0
    assert json.loads(capsys.readouterr().out)["samples"] == 4
    assert main(argv + _idx_pair(tmp_path, 30, 28)) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "images are 30x28x1" in err


@pytest.mark.parametrize("mode", ["exact", "distance", "refcount", "functions"])
def test_loss_sweep_is_deterministic_and_attributed(tmp_path, mode):
    argv = ["loss-sweep", "--mode", mode, "--nu", "32", "--samples", "2000", "--seed", "3"]
    runs = []
    for name in ("first.csv", "second.csv"):
        assert main(argv + ["--out", str(tmp_path / name)]) == 0
        runs.append((tmp_path / name).read_bytes())
    assert runs[0] == runs[1]
    lines = runs[0].decode().splitlines()
    header = dict(line[2:].split("=") for line in lines if line.startswith("# "))
    assert list(header) == ["config_sha256", "seed", "xbarbnn_version", "numpy_version"]
    assert len(header["config_sha256"]) == 16 and header["seed"] == "3"
    assert (header["xbarbnn_version"], header["numpy_version"]) == (xbarbnn.__version__, np.__version__)
    rows = list(csv.DictReader(lines[len(header):]))
    assert rows
    if mode == "exact":
        for row in rows:
            nu = int(row["nu"])
            report = enumerate_loss(nu, nu // 2, CascadePolicy(row["policy"], ReferenceSet(nu // 2)))
            assert (int(row["mismatch_fp"]), int(row["mismatch_fn"])) == (report.false_positives, report.false_negatives)
            assert row["loss_fraction"] == f"{report.loss_fraction:.6g}"


def test_an_inadmissible_first_x_rejects_only_its_own_row(capsys):
    # x=4 sits at grid index 1 in both sweeps, so it draws the same per-row seed
    x4_rows = []
    for grid, rejected in ((["300", "4"], "rejected x=300: references outside (0, 256)"), (["8", "4"], "")):
        assert main(["loss-sweep", "--mode", "distance", "--seed", "1", "--samples", "2000", "--x-grid", *grid]) == 0
        out, err = capsys.readouterr()
        assert err.startswith(rejected) and err.count("\n") == bool(rejected)
        x4_rows += [row for row in csv.DictReader(line for line in out.splitlines() if not line.startswith("#"))
                    if row["x"] == "4"]
    assert len(x4_rows) == 2 and x4_rows[0] == x4_rows[1]


def test_exact_loss_sweep_hashes_only_what_shapes_its_rows(tmp_path):
    # --nu, --policy, --samples, --sigma and --x-grid do not reach the exact table
    outputs = []
    for extra in (["--nu", "32"], ["--nu", "512", "--policy", "F1", "--samples", "7", "--sigma", "0.3", "--x-grid", "2"]):
        path = tmp_path / "exact.csv"
        assert main(["loss-sweep", "--mode", "exact", "--seed", "3", "--out", str(path)] + extra) == 0
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]
