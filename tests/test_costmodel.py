import pytest

from xbarbnn.costmodel import CostParams, compare, estimate_baseline, estimate_proposed
from xbarbnn.crossbar import segment_lengths
from xbarbnn.dataflow import ConvLayer, streamed_words_per_layer
from xbarbnn.netio import TOPOLOGIES, named_network

PARAMS = CostParams()


def expected_layers(net, params):
    """(windows, transfer words, fan-in) per weight layer, from the geometry."""
    out = []
    for layer in net.weight_layers:
        planes = 1 if layer.binarized else params.input_bit_planes
        if isinstance(layer, ConvLayer):
            words = streamed_words_per_layer(layer, planes, params.bus_width_bits)
            out.append((layer.out_h * layer.out_w, words, layer.fan_in))
        else:
            out.append((1, -(-layer.in_features * planes // params.bus_width_bits), layer.in_features))
    return out


@pytest.mark.parametrize("estimate", [lambda n, p: estimate_proposed(n, p, 3), estimate_baseline],
                         ids=["proposed", "baseline"])
@pytest.mark.parametrize("name", sorted(TOPOLOGIES))
def test_layer_costs_follow_the_geometry(name, estimate):
    net = named_network(name)
    report = estimate(net, PARAMS)
    assert len(report.layers) == len(net.weight_layers)
    for cost, (windows, words, fan_in) in zip(report.layers, expected_layers(net, PARAMS)):
        assert cost.windows == windows
        assert cost.fan_in == fan_in
        assert cost.splits == len(segment_lengths(fan_in, 512))
        assert cost.energy_transfer_j == words * PARAMS.transfer_word_energy_j


def test_compare_rejects_reports_of_different_networks():
    proposed = estimate_proposed(named_network("lenet-5"), PARAMS)
    baseline = estimate_baseline(named_network("cnn-1"), PARAMS)
    with pytest.raises(ValueError, match="different networks"):
        compare(proposed, baseline)


def test_params_from_dict_names_missing_and_unknown_keys():
    d = PARAMS.to_dict()
    assert CostParams.from_dict(d) == PARAMS
    del d["clock_hz"], d["sa_compare_energy_j"]
    d["clock_mhz"] = 1000
    with pytest.raises(ValueError) as err:
        CostParams.from_dict(d)
    assert str(err.value) == "missing keys: clock_hz, sa_compare_energy_j; unknown keys: clock_mhz"
