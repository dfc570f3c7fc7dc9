import json

import pytest

from xbarbnn.cli import main

BAD_CONFIGS = [
    # the 520-wide layer splits 512+8; distance 16 does not fit 8 bits
    (["infer", "--topology", "FC(784) - FC(520) - FC(100) - FC(10)", "--synthetic", "4", "--seed", "1"], "512+8"),
    # the second conv's fan-in 150 splits 64+64+22 on a 64-row array
    (["infer", "--network", "lenet-5", "--crossbar", "64x64", "--synthetic", "4", "--seed", "1"], "64+64+22"),
    (["infer", "--topology", "FC(784) - FOO", "--synthetic", "4", "--seed", "1"], "unrecognized layer"),
    (["infer", "--network", "lenet-5", "--crossbar", "512", "--synthetic", "4", "--seed", "1"], "bad crossbar geometry"),
    (["loss-sweep", "--nu", "8", "--x-grid", "9", "--seed", "1"], "references outside"),
    (["cost", "--network", "nope"], "unknown network"),
]


@pytest.mark.parametrize(
    "argv, reason",
    BAD_CONFIGS,
    ids=["tail-512+8", "lenet5-64x64", "unknown-token", "bad-geometry", "refs-outside-segment", "unknown-network"],
)
def test_bad_configuration_is_one_line_and_exit_2(capsys, argv, reason):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"xbarbnn {argv[0]}: ")
    assert reason in err


def test_single_layer_network_reports_its_one_activation_layer(capsys):
    assert main(["infer", "--topology", "FC(784) - FC(10)", "--synthetic", "4", "--seed", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [m["layer"] for m in report["layer_mismatch"]] == ["0:FCLayer"]
